"""Network front-end: framing, status events, server + client."""

import os
import socket
import threading
import time
import zlib
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.events.engine import KERNEL_TIERS
from repro.service import (
    JobSpec,
    ResultCache,
    ServerThread,
    ServiceClient,
    SimulationService,
    canonical_json,
    job_key,
    payload_digest,
    register_workload,
    unregister_workload,
)
from repro.service.net import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    FrameDecoder,
    ProtocolError,
    RemoteJobError,
    encode_frame,
    job_document,
    parse_address,
)
from repro.service.net.protocol import HEADER, MAGIC, request
from repro.service.tenants import TenantTable
from repro.testing.gen_service import KILL_EXIT, _pure_payload, \
    launch_killed

VEC_SPEC = {
    "kind": "vector",
    "ops": [{"form": "VADD", "n": 8, "precision": 64, "seed": 3,
             "scalars": [], "specials": False}],
}


def vec_job(tier="turbo", seed=3):
    spec = dict(VEC_SPEC)
    spec["ops"] = [dict(VEC_SPEC["ops"][0], seed=seed)]
    return JobSpec(kind="vector", spec=spec, tier=tier)


@pytest.fixture
def service(tmp_path):
    return SimulationService(
        cache=ResultCache(root=str(tmp_path / "cache"))
    )


@pytest.fixture
def server(tmp_path, service):
    sock = str(tmp_path / "serve.sock")
    with ServerThread(service, unix_path=sock) as thread:
        yield thread


def client_for(server):
    return ServiceClient("unix:" + server.server.unix_path)


# -- protocol ---------------------------------------------------------

def test_frame_roundtrip_and_torn_delivery():
    messages = [{"id": i, "method": "ping", "params": {}}
                for i in range(3)]
    wire = b"".join(encode_frame(m) for m in messages)
    decoder = FrameDecoder()
    # Slow-loris: one byte at a time must still yield every message.
    out = []
    for i in range(len(wire)):
        out.extend(decoder.feed(wire[i:i + 1]))
    assert out == messages
    assert decoder.pending_bytes() == 0


def test_frame_decoder_rejects_bad_magic():
    with pytest.raises(ProtocolError) as err:
        FrameDecoder().feed(b"XX" + b"\0" * 20)
    assert err.value.code == "magic"


def test_frame_decoder_rejects_version_mismatch():
    frame = bytearray(encode_frame({"a": 1}))
    frame[2] = PROTOCOL_VERSION + 1
    with pytest.raises(ProtocolError) as err:
        FrameDecoder().feed(bytes(frame))
    payload = err.value.as_json()
    assert payload["code"] == "version"
    assert payload["server_version"] == PROTOCOL_VERSION
    assert payload["client_version"] == PROTOCOL_VERSION + 1


def test_frame_decoder_rejects_oversize_before_buffering():
    body = canonical_json({"x": 1}).encode()
    header = HEADER.pack(MAGIC, PROTOCOL_VERSION, 0,
                         MAX_FRAME_BYTES + 1, zlib.crc32(body))
    with pytest.raises(ProtocolError) as err:
        FrameDecoder().feed(header)
    assert err.value.code == "oversize"


def test_frame_decoder_rejects_corrupt_payload():
    frame = bytearray(encode_frame({"value": 12345}))
    frame[-3] ^= 0xFF  # flip a payload byte: CRC must catch it
    with pytest.raises(ProtocolError) as err:
        FrameDecoder().feed(bytes(frame))
    assert err.value.code == "crc"


def test_frame_decoder_rejects_non_json_payload():
    body = b"not json"
    frame = HEADER.pack(MAGIC, PROTOCOL_VERSION, 0, len(body),
                        zlib.crc32(body)) + body
    with pytest.raises(ProtocolError) as err:
        FrameDecoder().feed(frame)
    assert err.value.code == "json"


def test_parse_address_forms():
    assert parse_address("unix:/tmp/x.sock") == ("unix",
                                                "/tmp/x.sock")
    assert parse_address("/tmp/x.sock") == ("unix", "/tmp/x.sock")
    assert parse_address("tcp:10.0.0.1:80") == ("tcp", "10.0.0.1",
                                                80)
    assert parse_address("localhost:8080") == ("tcp", "localhost",
                                               8080)
    with pytest.raises(ValueError):
        parse_address("nonsense")


def test_job_document_elides_nones():
    doc = job_document(vec_job())
    assert doc["kind"] == "vector"
    assert "seed" not in doc and "config" not in doc


# -- status events on the future --------------------------------------

def ops(events):
    return [event["op"] for event in events]


def test_watch_replays_past_events_then_delivers_new_ones(service):
    future = service.submit(vec_job())
    early = []
    future.watch(early.append)
    assert ops(early) == ["SUBMIT"]
    service.drain()
    late = []
    future.watch(late.append)
    assert ops(early) == ops(late) == ["SUBMIT", "START", "DONE"]
    assert early == late == future.events
    assert late[-1]["digest"] == future.digest()


def test_stopped_watch_receives_nothing_more(service):
    future = service.submit(vec_job())
    seen = []
    stop = future.watch(seen.append)
    stop()
    stop()  # stopping twice is harmless
    service.drain()
    assert ops(seen) == ["SUBMIT"]
    assert ops(future.events) == ["SUBMIT", "START", "DONE"]


def test_watchers_attached_queued_running_and_done_see_it_all_once(
        service):
    entered, release = threading.Event(), threading.Event()

    def held(spec):
        entered.set()
        release.wait(10)
        return {"held": spec["label"]}

    register_workload("test.net.held", held, replace=True)
    try:
        future = service.submit(JobSpec(kind="test.net.held",
                                        spec={"label": "h"},
                                        tier="turbo"))
        seen = {"queued": [], "running": [], "done": []}

        def attach(point):
            # From a thread that is neither this one nor the drainer.
            thread = threading.Thread(target=future.watch,
                                      args=(seen[point].append,))
            thread.start()
            thread.join(10)

        attach("queued")
        drainer = threading.Thread(target=service.drain)
        drainer.start()
        assert entered.wait(10)
        assert future.status == "running"
        attach("running")
        release.set()
        drainer.join(30)
        assert future.status == "done"
        attach("done")
    finally:
        release.set()
        unregister_workload("test.net.held")
    for point, events in seen.items():
        assert ops(events) == ["SUBMIT", "START", "DONE"], point
        assert events == future.events, point


def test_a_key_reopened_beside_the_server_streams_its_newest_lifecycle(
        tmp_path):
    service = SimulationService(use_cache=False)
    sock = str(tmp_path / "serve.sock")
    with ServerThread(service, unix_path=sock) as thread:
        with client_for(thread) as client:
            first = client.submit(vec_job(seed=14), wait=60)
            # The server still holds the finished future; the same job
            # queued in-process opens a new lifecycle for the key.
            again = service.submit(vec_job(seed=14))
            assert again.status == "queued"
            with ThreadPoolExecutor(1) as pool:
                watched = pool.submit(client.watch, first["key"])
                deadline = time.monotonic() + 10
                while not thread.server.counters.streaming_subscribers:
                    assert time.monotonic() < deadline
                    time.sleep(0.01)
                service.drain()
                events, final = watched.result(timeout=30)
    assert ops(events) == ["SUBMIT", "START", "DONE"]
    assert events == again.events
    assert events[0]["seq"] == 2
    assert final["digest"] == first["digest"] == again.digest()


# -- server + sync client --------------------------------------------

def test_ping_reports_protocol_version(server):
    with client_for(server) as client:
        pong = client.ping()
    assert pong["pong"] is True
    assert pong["version"] == PROTOCOL_VERSION


def test_remote_submit_round_trips_all_tiers(server, service):
    """The acceptance bar: remote submit/wait must be byte-identical
    to in-process execution for the same job key, on every tier."""
    with client_for(server) as client:
        for tier in KERNEL_TIERS:
            job = vec_job(tier=tier)
            record = client.submit(job, wait=60)
            assert record["status"] in ("done", "cached")
            local = SimulationService(use_cache=False)
            expect = local.submit(job).result()
            assert record["digest"] == payload_digest(expect)
            assert canonical_json(record["result"]) \
                == canonical_json(expect)


def test_remote_status_and_result_by_key(server):
    with client_for(server) as client:
        record = client.submit(vec_job(), wait=60)
        status = client.status(record["key"])
        assert status["status"] in ("done", "cached")
        assert "result" not in status
        full = client.result(record["key"], timeout=30)
        assert full["digest"] == record["digest"]
        assert full["result"] == record["result"]


def test_remote_unknown_key_is_structured(server):
    with client_for(server) as client:
        with pytest.raises(RemoteJobError) as err:
            client.status("deadbeef" * 8)
    assert err.value.code == "unknown_key"


def test_remote_unknown_kind_is_structured(server):
    with client_for(server) as client:
        with pytest.raises(RemoteJobError) as err:
            client.submit({"kind": "no.such.kind"}, wait=5)
    assert err.value.code == "unknown_kind"


def test_remote_unknown_tier_is_structured(server, service):
    """A tier this build does not run is refused at submit, before
    anything is admitted or journaled — not failed in a worker."""
    with client_for(server) as client:
        with pytest.raises(RemoteJobError) as err:
            client.submit(vec_job(tier="vector"), wait=5)
    assert err.value.code == "unknown_tier"
    assert service.submissions == 0


def test_streaming_submit_pushes_lifecycle_then_result(server):
    with client_for(server) as client:
        tags = list(client.stream(job=vec_job(seed=11)))
    kinds = [tag for tag, _ in tags]
    assert kinds[0] == "submitted"
    assert kinds[-1] == "end"
    ops = [p["op"] for tag, p in tags if tag == "event"]
    assert ops == ["SUBMIT", "START", "DONE"]
    end = tags[-1][1]
    assert end["status"] in ("done", "cached")
    assert end["digest"] == payload_digest(end["result"])


def test_subscribe_after_completion_replays_history(server):
    with client_for(server) as client:
        record = client.submit(vec_job(seed=12), wait=60)
        events, final = client.watch(record["key"])
    assert [e["op"] for e in events] == ["SUBMIT", "START", "DONE"]
    assert final["digest"] == record["digest"]


def test_cached_submit_streams_terminal_event(server):
    with client_for(server) as client:
        first = client.submit(vec_job(seed=13), wait=60)
        tags = list(client.stream(job=vec_job(seed=13)))
    ops = [p["op"] for tag, p in tags if tag == "event"]
    assert ops and ops[-1] in ("CACHED", "DONE")
    assert tags[-1][1]["digest"] == first["digest"]


def test_auth_token_table_maps_tokens_to_tenants(tmp_path):
    tenants = TenantTable()
    tenants.configure("acme", rate=1000, burst=1000)
    service = SimulationService(
        cache=ResultCache(root=str(tmp_path / "cache")),
        tenants=tenants)
    sock = str(tmp_path / "auth.sock")
    with ServerThread(service, unix_path=sock,
                      auth_tokens={"sekrit": "acme"},
                      require_auth=True) as thread:
        good = ServiceClient("unix:" + sock, auth="sekrit")
        with good:
            record = good.submit(vec_job(seed=21), wait=60)
            assert record["tenant"] == "acme"
        bad = ServiceClient("unix:" + sock, auth="wrong")
        with bad:
            with pytest.raises(RemoteJobError) as err:
                bad.submit(vec_job(seed=21), wait=5)
            assert err.value.code == "auth"
        anon = ServiceClient("unix:" + sock)
        with anon:
            with pytest.raises(RemoteJobError) as err:
                anon.submit(vec_job(seed=21), wait=5)
            assert err.value.code == "auth"
        assert thread.server.counters.rejected_auth == 2
    assert service.tenants.stats()["acme"]["submitted"] >= 1


def test_server_version_mismatch_answers_structured_error(server):
    frame = bytearray(encode_frame(request(1, "ping")))
    frame[2] = PROTOCOL_VERSION + 3
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.settimeout(10)
    sock.connect(server.server.unix_path)
    try:
        sock.sendall(bytes(frame))
        reply = FrameDecoder().feed(sock.recv(65536))[0]
    finally:
        sock.close()
    assert reply["ok"] is False
    assert reply["error"]["code"] == "version"
    assert reply["error"]["server_version"] == PROTOCOL_VERSION


def test_server_counts_protocol_errors_and_closes(server):
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.settimeout(10)
    sock.connect(server.server.unix_path)
    try:
        sock.sendall(b"RN" + b"\xff" * 20)
        reply = FrameDecoder().feed(sock.recv(65536))
        assert reply[0]["ok"] is False
        assert sock.recv(65536) == b""  # connection dropped
    finally:
        sock.close()
    assert server.server.counters.protocol_errors >= 1


def test_net_counters_flow_into_service_stats(server, service):
    with client_for(server) as client:
        client.submit(vec_job(seed=31), wait=60)
        stats = client.stats()
    net = stats["net"]
    assert net["connections"] >= 1
    assert net["frames_in"] >= 2
    # The stats response itself is not yet counted in its own
    # snapshot — only the submit response has gone out.
    assert net["frames_out"] >= 1
    assert net["submits"] >= 1
    assert stats["submissions"] >= 1


def test_graceful_stop_drains_queued_work(tmp_path):
    service = SimulationService(
        cache=ResultCache(root=str(tmp_path / "cache")))
    sock = str(tmp_path / "drain.sock")
    thread = ServerThread(service, unix_path=sock).start()
    with ServiceClient("unix:" + sock) as client:
        records = [client.submit(vec_job(seed=40 + i))
                   for i in range(4)]
    thread.stop()  # graceful: queued jobs must finish, not vanish
    assert service.queue_depth() == 0
    for record in records:
        value = service.cache.get(record["key"])
        assert value is not None


def test_cancel_done_job_remotely_returns_false(tmp_path, service):
    # Cancelling a job that already reached a terminal state is a
    # deterministic no-op over the wire (a queued-job cancel races
    # the drain thread, so the stable contract to pin is terminal).
    sock = str(tmp_path / "cancel.sock")
    with ServerThread(service, unix_path=sock):
        with ServiceClient("unix:" + sock) as client:
            record = client.submit(vec_job(seed=50), wait=60)
            out = client.cancel(record["key"])
            assert out["cancelled"] is False
            assert out["status"] in ("done", "cached")


def test_kill_nine_mid_drain_then_restart_serves_journaled_work(
        tmp_path):
    """The durability story over the wire: a server killed -9 while
    draining loses nothing — a fresh server on the same journal
    adopts the pending jobs and serves byte-identical results."""
    jobs = [{"label": f"n{i}", "x": 41 * (i + 1), "rounds": 3}
            for i in range(4)]
    jobs[2]["kill_service"] = True  # the server's drainer dies here
    pairs = [(JobSpec(kind="service.chaos", spec=job, tier="turbo"), 0)
             for job in jobs]
    root = str(tmp_path)
    assert launch_killed(root, "server", pairs) == KILL_EXIT

    service = SimulationService(
        cache=ResultCache(root=os.path.join(root, "cache")),
        journal_dir=os.path.join(root, "journal"))
    assert service.recovered, "restart recovered nothing from the journal"
    expected = {job_key(job): payload_digest(_pure_payload(job.spec))
                for job, _ in pairs}
    sock = os.path.join(root, "restart.sock")
    with ServerThread(service, unix_path=sock):
        with ServiceClient("unix:" + sock) as client:
            for future in service.recovered:
                record = client.result(future.key, timeout=60)
                assert record["digest"] == expected[future.key]
                assert payload_digest(record["result"]) == \
                    expected[future.key]
