"""The serving front-end's request path on both wire dialects.

Pins the paths the framed protocol and the HTTP adapter share: a stream
that outlives its timeout, a key only the result store knows (a job
finished before a restart) and its store read, which runs off the event
loop, as do ``ping`` and ``stats`` while a drain holds the service
lock, a result that shows nowhere until its DONE record is on disk,
the one payload digest an executed job or a memory hit computes,
the table of structured errors and their HTTP statuses, a handler that
fails outright, and the ``python -m repro.service serve`` entry point
under SIGTERM.
"""

import errno
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.service import (
    JobError,
    JobSpec,
    ResultCache,
    ServerThread,
    ServiceClient,
    SimulationService,
    payload_digest,
    register_workload,
    unregister_workload,
)
from repro.service.journal import JobJournal
from repro.service.net import FrameDecoder, RemoteJobError, encode_frame
from repro.service.net import server as server_module
from repro.service.net.protocol import request
from repro.service.tenants import TenantTable

SRC = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src")

VEC_SPEC = {
    "kind": "vector",
    "ops": [{"form": "VADD", "n": 8, "precision": 64, "seed": 5,
             "scalars": [], "specials": False}],
}


def vec_doc(seed=5):
    spec = dict(VEC_SPEC, ops=[dict(VEC_SPEC["ops"][0], seed=seed)])
    return {"kind": "vector", "spec": spec, "tier": "turbo"}


def framed(sock_path, method, **params):
    """One framed request on a fresh connection; its reply message."""
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.settimeout(30)
    sock.connect(sock_path)
    try:
        sock.sendall(encode_frame(request(1, method, **params)))
        decoder = FrameDecoder()
        while True:
            data = sock.recv(65536)
            if not data:
                raise ConnectionError("closed without a reply")
            messages = decoder.feed(data)
            if messages:
                return messages[0]
    finally:
        sock.close()


def http(sock_path, method, target, document=None, headers=()):
    """One HTTP/1.1 request over the Unix socket: (status, body)."""
    body = b"" if document is None else json.dumps(document).encode()
    head = [f"{method} {target} HTTP/1.1", "Host: test", *headers]
    if body:
        head.append(f"Content-Length: {len(body)}")
    raw = ("\r\n".join(head) + "\r\n\r\n").encode() + body
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.settimeout(30)
    sock.connect(sock_path)
    try:
        sock.sendall(raw)
        chunks = []
        while True:
            data = sock.recv(65536)
            if not data:
                break
            chunks.append(data)
    finally:
        sock.close()
    reply_head, _, payload = b"".join(chunks).partition(b"\r\n\r\n")
    return int(reply_head.split(b" ", 2)[1]), payload


def dechunk(payload):
    """The NDJSON lines of a chunked HTTP stream body."""
    lines = []
    while payload:
        size_line, _, payload = payload.partition(b"\r\n")
        size = int(size_line, 16)
        if size == 0:
            break
        lines.append(json.loads(payload[:size]))
        payload = payload[size + 2:]
    return lines


@pytest.fixture
def slow_kind():
    def runner(spec):
        time.sleep(spec["sleep"])
        return {"slept": spec["sleep"]}

    register_workload("test.front.slow", runner, replace=True)
    yield "test.front.slow"
    unregister_workload("test.front.slow")


def cached_service(tmp_path):
    return SimulationService(
        cache=ResultCache(root=str(tmp_path / "cache")))


# -- streams --------------------------------------------------------------

def test_stream_past_its_timeout_gets_a_timeout_error(tmp_path,
                                                      slow_kind,
                                                      monkeypatch):
    monkeypatch.setattr(server_module, "STREAM_TIMEOUT_S", 0.3)
    service = cached_service(tmp_path)
    sock = str(tmp_path / "s.sock")
    with ServerThread(service, unix_path=sock):
        with ServiceClient("unix:" + sock) as client:
            key = client.submit({"kind": slow_kind,
                                 "spec": {"sleep": 2.0},
                                 "tier": "turbo"})["key"]
            with pytest.raises(RemoteJobError) as err:
                client.watch(key)
        timeout = {"error": "timeout", "key": key, "timeout_s": 0.3,
                   "status": "streaming"}
        assert err.value.error == timeout
        status, payload = http(sock, "GET", f"/jobs/{key}/stream")
        assert status == 200
        lines = dechunk(payload)
        assert lines[-1] == {"error": timeout}
        assert all("event" in line for line in lines[:-1])


# -- a key only the result store knows -------------------------------------

def test_key_known_only_from_the_store_after_a_restart(tmp_path):
    cache_root = str(tmp_path / "cache")
    first = SimulationService(cache=ResultCache(root=cache_root))
    future = first.submit(JobSpec(kind="vector", spec=VEC_SPEC,
                                  tier="turbo"))
    future.result()
    key, digest = future.key, future.digest()
    stored = {"key": key, "status": "cached", "digest": digest}
    # The restart: a fresh service over the same store, and a server
    # that has seen no future and no status event for the key.
    service = SimulationService(cache=ResultCache(root=cache_root))
    sock = str(tmp_path / "s.sock")
    with ServerThread(service, unix_path=sock):
        with ServiceClient("unix:" + sock) as client:
            assert client.status(key) == stored
            full = client.status(key, with_result=True)
            assert payload_digest(full.pop("result")) == digest
            assert full == stored
            full = client.result(key)
            assert payload_digest(full.pop("result")) == digest
            assert full == stored
            events, end = client.watch(key)
        terminal = {"op": "CACHED", "state": "DONE", "key": key,
                    "digest": digest}
        assert events == [terminal]
        assert payload_digest(end.pop("result")) == digest
        assert end == stored

        status, payload = http(sock, "GET", f"/jobs/{key}?result=0")
        assert status == 200 and json.loads(payload) == stored
        status, payload = http(sock, "GET", f"/jobs/{key}")
        record = json.loads(payload)
        assert status == 200
        assert payload_digest(record.pop("result")) == digest
        assert record == stored
        status, payload = http(sock, "GET", f"/jobs/{key}/stream")
        assert status == 200
        lines = dechunk(payload)
        assert lines[0] == {"event": terminal}
        assert lines[1]["end"] is True
        assert payload_digest(lines[1]["result"].pop("result")) == digest
        assert lines[1]["result"] == stored
        assert len(lines) == 2


def test_store_read_for_a_status_runs_off_the_event_loop(tmp_path,
                                                         monkeypatch):
    cache_root = str(tmp_path / "cache")
    first = SimulationService(cache=ResultCache(root=cache_root))
    future = first.submit(JobSpec(kind="vector", spec=VEC_SPEC,
                                  tier="turbo"))
    future.result()
    key, digest = future.key, future.digest()
    service = SimulationService(cache=ResultCache(root=cache_root))
    entered, release = threading.Event(), threading.Event()
    read = service.cache.get

    def blocked_get(wanted):
        if wanted == key:
            entered.set()
            release.wait(5)
        return read(wanted)

    monkeypatch.setattr(service.cache, "get", blocked_get)
    sock = str(tmp_path / "s.sock")
    with ServerThread(service, unix_path=sock):
        with ThreadPoolExecutor(1) as pool:
            status = pool.submit(framed, sock, "status", key=key,
                                 result=False)
            assert entered.wait(5)
            # The store read is stuck; a second connection is served.
            start = time.monotonic()
            pong = framed(sock, "ping")
            waited = time.monotonic() - start
            release.set()
            reply = status.result(timeout=30)
    assert pong["result"]["pong"] is True
    assert waited < 0.2
    assert reply["result"] == {"key": key, "status": "cached",
                               "digest": digest}


def hold_done_batches(service):
    """Make the service's journal block each DONE batch until the
    returned ``release`` is set; ``entered`` is set once one blocks.
    The drain holds the service lock all that time."""
    entered, release = threading.Event(), threading.Event()
    append_many = service.journal.append_many

    def held(records):
        if any(record["op"] == "DONE" for record in records):
            entered.set()
            release.wait(5)
        return append_many(records)

    service.journal.append_many = held
    return entered, release


def test_a_result_is_visible_only_once_its_done_record_is_durable(
        tmp_path):
    service = SimulationService(
        cache=ResultCache(root=str(tmp_path / "cache")),
        journal_dir=str(tmp_path / "journal"))
    entered, release = hold_done_batches(service)
    sock = str(tmp_path / "s.sock")
    with ServerThread(service, unix_path=sock):
        future = service.submit(JobSpec(kind="vector", spec=VEC_SPEC,
                                        tier="turbo"))
        drainer = threading.Thread(target=service.drain)
        drainer.start()
        try:
            assert entered.wait(5)
            # The DONE batch is not on disk yet: nothing shows the
            # result, in-process or on the wire.
            assert not future.done()
            with pytest.raises(JobError):
                future.result(wait=False)
            assert [e["op"] for e in future.events] == ["SUBMIT",
                                                        "START"]
            status = framed(sock, "status", key=future.key)["result"]
            assert status["status"] == "running"
            assert status["digest"] is None and "result" not in status
        finally:
            release.set()
            drainer.join(30)
        assert future.done() and future.status == "done"
        assert [e["op"] for e in future.events] == ["SUBMIT", "START",
                                                    "DONE"]
        # The server keeps no future of an in-process job: once it has
        # left the queue, the store answers.
        status = framed(sock, "status", key=future.key)["result"]
        assert status["status"] == "cached"
        assert status["digest"] == future.digest() \
            == payload_digest(status["result"])
    assert JobJournal(str(tmp_path / "journal")).replay().done == {
        future.key: future.digest()}


@pytest.mark.parametrize("method", ["ping", "stats"])
def test_ping_and_stats_never_stall_the_event_loop(tmp_path, method):
    service = SimulationService(
        cache=ResultCache(root=str(tmp_path / "cache")),
        journal_dir=str(tmp_path / "journal"))
    entered, release = hold_done_batches(service)
    sock = str(tmp_path / "s.sock")
    with ServerThread(service, unix_path=sock):
        key = framed(sock, "submit", job=vec_doc(seed=43))["result"]["key"]
        assert entered.wait(5)
        with ThreadPoolExecutor(1) as pool:
            pending = pool.submit(framed, sock, method)
            time.sleep(0.05)  # the request reaches its handler
            # A second connection is served while it waits.
            start = time.monotonic()
            status = framed(sock, "status", key=key, result=False)
            waited = time.monotonic() - start
            release.set()
            reply = pending.result(timeout=30)
    assert waited < 0.2
    assert status["result"]["key"] == key
    assert reply["ok"] is True
    if method == "ping":
        assert reply["result"]["queue_depth"] == 1
    else:
        assert reply["result"]["executed"] == 1


def test_one_payload_digest_per_executed_job_and_per_memory_hit(
        tmp_path, monkeypatch):
    # The cache envelope's checksum, the DONE record, the lifecycle
    # event and the reply share one digest per future.
    calls = []

    def counted(value):
        calls.append(value)
        return payload_digest(value)

    for name, module in list(sys.modules.items()):
        if (name.startswith("repro.service")
                and vars(module).get("payload_digest") is payload_digest):
            monkeypatch.setattr(module, "payload_digest", counted)
    journal_dir = str(tmp_path / "journal")
    service = SimulationService(cache=ResultCache(
        root=str(tmp_path / "cache")), journal_dir=journal_dir)
    sock = str(tmp_path / "s.sock")
    with ServerThread(service, unix_path=sock):
        cold = framed(sock, "submit", job=vec_doc(seed=41), wait=30)
        executed = len(calls)
        hit = framed(sock, "submit", job=vec_doc(seed=41), wait=30)
    assert (cold["result"]["status"], hit["result"]["status"]) == (
        "done", "cached")
    assert (executed, len(calls) - executed) == (1, 1)
    digest = payload_digest(cold["result"]["result"])
    assert cold["result"]["digest"] == hit["result"]["digest"] == digest
    assert JobJournal(journal_dir).replay().done == {
        cold["result"]["key"]: digest}


# -- the error table -------------------------------------------------------

def _no_room(service):
    service.max_pending = 0


#: Each structured rejection, driven through both dialects:
#: (framed method and params, framed error code, HTTP method, target,
#: body and headers, HTTP status, HTTP error code).  An HTTP error code
#: of None leaves the body unpinned: the ValueError family's body is
#: the one this table lets the two dialects share.
ERROR_CASES = {
    "auth": (("submit", {"job": vec_doc(), "auth": "forged"}), "auth",
             ("POST", "/jobs", vec_doc(), ("X-Repro-Token: forged",)),
             401, "auth"),
    "quota": (("submit", {"job": vec_doc(), "auth": "metered"}),
              "quota",
              ("POST", "/jobs", vec_doc(), ("X-Repro-Token: metered",)),
              429, "quota"),
    "admission": (("submit", {"job": vec_doc()}), "admission",
                  ("POST", "/jobs", vec_doc(), ()), 503, "admission"),
    "unknown_kind": (("submit", {"job": {"kind": "no.such.kind"}}),
                     "unknown_kind",
                     ("POST", "/jobs", {"kind": "no.such.kind"}, ()),
                     400, "unknown_kind"),
    "unknown_tier": (("submit", {"job": dict(vec_doc(), tier="vector")}),
                     "unknown_tier",
                     ("POST", "/jobs", dict(vec_doc(), tier="vector"),
                      ()), 400, "unknown_tier"),
    "protocol": (("submit", {"job": {"spec": {}}}), "protocol",
                 ("POST", "/jobs", {"spec": {}}, ()), 400, None),
    "bad_request": (("submit", {"job": vec_doc(), "priority": "high"}),
                    "protocol",
                    ("POST", "/jobs?wait=soon", vec_doc(), ()), 400,
                    None),
    "unknown_key": (("status", {"key": "ab" * 32}), "unknown_key",
                    ("GET", "/jobs/" + "ab" * 32, None, ()), 404,
                    "unknown_key"),
}


@pytest.mark.parametrize("case", sorted(ERROR_CASES))
def test_error_table_on_both_dialects(tmp_path, case):
    (method, params), code, (verb, target, document, headers), \
        status, http_code = ERROR_CASES[case]
    tenants = TenantTable()
    tenants.configure("metered", rate=0.001, burst=0)
    service = SimulationService(
        cache=ResultCache(root=str(tmp_path / "cache")),
        tenants=tenants)
    if case == "admission":
        _no_room(service)
    sock = str(tmp_path / "s.sock")
    with ServerThread(service, unix_path=sock,
                      auth_tokens={"good": "acme",
                                   "metered": "metered"}):
        reply = framed(sock, method, **params)
        assert reply["ok"] is False
        assert reply["id"] == 1
        assert reply["error"]["error"] == code
        got, payload = http(sock, verb, target, document, headers)
        assert got == status
        if http_code is not None:
            assert json.loads(payload)["error"] == http_code
    assert service.stats()["executed"] == 0


def test_handler_failure_gets_an_internal_error_and_a_count(tmp_path):
    service = cached_service(tmp_path)

    def full_disk(*args, **kwargs):
        raise OSError(errno.ENOSPC, "No space left on device")

    sock = str(tmp_path / "s.sock")
    with ServerThread(service, unix_path=sock) as thread:
        service.submit = full_disk
        with ServiceClient("unix:" + sock) as client:
            with pytest.raises(RemoteJobError) as err:
                client.submit(vec_doc())
            assert err.value.code == "internal"
            assert "No space left on device" in err.value.error["message"]
            # The connection survives the failed request.
            assert client.ping()["pong"] is True
        status, payload = http(sock, "POST", "/jobs", vec_doc())
        assert status == 500
        body = json.loads(payload)
        assert body["error"] == "internal"
        assert "No space left on device" in body["message"]
        assert thread.server.counters.internal_errors == 2


# -- the serve entry point -------------------------------------------------

def test_serve_drains_on_sigterm_and_exits_zero(tmp_path):
    sock = str(tmp_path / "serve.sock")
    cache_dir = str(tmp_path / "cache")
    journal_dir = str(tmp_path / "journal")
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = SRC
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.service", "serve",
         "--socket", sock, "--cache-dir", cache_dir,
         "--journal-dir", journal_dir],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True)
    try:
        deadline = time.monotonic() + 60
        while True:
            assert proc.poll() is None, proc.communicate()
            try:
                if framed(sock, "ping")["ok"]:
                    break
            except OSError:
                pass
            assert time.monotonic() < deadline, "serve never answered"
            time.sleep(0.05)
        with ServiceClient("unix:" + sock) as client:
            record = client.submit(vec_doc(seed=77))
        proc.send_signal(signal.SIGTERM)
        out, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert proc.returncode == 0, err
    assert "drained; bye" in out
    value = ResultCache(root=cache_dir).get(record["key"])
    local = SimulationService(use_cache=False).submit(
        JobSpec(kind="vector", spec=vec_doc(seed=77)["spec"],
                tier="turbo"))
    assert payload_digest(value) == payload_digest(local.result())
    assert JobJournal(journal_dir).replay().pending() == []
