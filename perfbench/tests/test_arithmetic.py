"""The benchmark's own arithmetic: percentiles, self time, joins and
failure accounting."""

import os
import socket
import tempfile
import threading
import types

import pytest

import run
import stats
import tracing
import wire
from repro.service.net.protocol import encode_frame, response


# -- percentiles --------------------------------------------------------

def test_percentile_needs_ten_samples_beyond_it():
    samples = list(range(200))
    assert stats.beyond(200, 95) == 10
    assert stats.percentile(samples, 95) == 189
    assert stats.percentile(samples[:199], 95) is None
    assert stats.percentile(list(range(20)), 50) == 9
    assert stats.percentile(list(range(19)), 50) is None
    assert stats.percentile([], 50) is None


def test_min_samples_is_the_smallest_supporting_count():
    assert stats.min_samples(95) == 200
    assert stats.min_samples(50) == 20
    for q in (50, 95, 99):
        n = stats.min_samples(q)
        assert stats.percentile(list(range(n)), q) is not None
        assert stats.percentile(list(range(n - 1)), q) is None


def test_latency_metrics_refuse_an_unsupported_percentile():
    metrics = run.Metrics(run.END_TO_END)
    with pytest.raises(RuntimeError):
        run.latency_metrics(metrics, [0.001] * 150)
    extra = run.latency_metrics(metrics, [i / 1000 for i in range(400)])
    assert extra == {"ops": 400, "beyond_p50": 200, "beyond_p95": 20}
    assert metrics.values["latency_p95_ms"] == pytest.approx(379.0)


# -- spans ----------------------------------------------------------------

def test_self_time_is_span_time_minus_child_spans():
    spans = [
        ("a:root", 0, 100, -1, 0, None),
        ("b:child", 10, 40, 0, 0, None),
        ("c:grandchild", 20, 30, 1, 0, None),
        ("b:other", 50, 60, 0, 0, None),
    ]
    assert tracing.self_times(spans) == {
        "a:root": 60, "b:child": 20, "c:grandchild": 10, "b:other": 10,
    }
    assert tracing.by_layer(tracing.self_times(spans)) == {
        "a": 60, "b": 30, "c": 10}
    # Self times partition the root span.
    assert sum(tracing.self_times(spans).values()) == 100


class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        self.now += 5
        return self.now


def test_recorder_nests_spans_per_thread():
    rec = tracing.SpanRecorder(clock=FakeClock())
    outer = rec.open("x:outer", "x")
    inner = rec.open("y:inner", "y")
    back = rec.open("x:back", "x", keep=False)   # its parent is in y
    assert back is not None
    rec.close(back)
    rec.close(inner)
    sibling = rec.open("z:sibling", "z")
    rec.close(sibling)
    rec.close(outer)
    spans = rec.take()
    assert [span[3] for span in spans] == [-1, 0, 1, 0]
    times = tracing.self_times(spans)
    duration = [span[2] - span[1] for span in spans]
    assert times["x:outer"] == duration[0] - duration[1] - duration[3]
    assert times["y:inner"] == duration[1] - duration[2]


def test_same_layer_call_opens_no_span_unless_kept():
    rec = tracing.SpanRecorder(clock=FakeClock())
    outer = rec.open("x:outer", "x")
    assert rec.open("x:helper", "x", keep=False) is None
    kept = rec.open("x:kept", "x", keep=True)
    assert kept is not None
    rec.close(kept)
    rec.close(outer)
    assert [span[0] for span in rec.take()] == ["x:outer", "x:kept"]


def test_generator_proxy_times_each_resumption():
    rec = tracing.SpanRecorder(clock=FakeClock())

    def gen():
        yield 1
        yield 2
        return "done"

    proxy = tracing.GeneratorProxy(gen(), "x:gen", rec)
    assert next(proxy) == 1
    assert proxy.send(None) == 2
    with pytest.raises(StopIteration) as stop:
        proxy.send(None)
    assert stop.value.value == "done"
    spans = rec.take()
    assert [span[0] for span in spans] == ["x:gen"] * 3
    assert all(span[3] == -1 for span in spans)


def test_join_follows_keys_then_time_and_drops_idle_drains():
    log = [
        wire.OpRecord(1.0, 2.0, "framed", {"k1"}, [0.0], [0.0], 1),
        wire.OpRecord(3.0, 4.0, "framed", {"k2"}, [0.0], [0.0], 1),
    ]
    ns = int(1e9)
    spans = [
        # decode for op 0, untagged: joined by time.
        ("service.net:FrameDecoder.feed", ns + 10, ns + 20, -1, None,
         None),
        # one drain running both ops' jobs: its children join by key.
        ("service.scheduler:SimulationService.drain", ns + 30,
         3 * ns + 50, -1, None, ("k1", "k2")),
        ("service.cache:ResultCache.put", ns + 40, ns + 60, 1, None,
         "k1"),
        ("service.cache:ResultCache.put", 3 * ns + 10, 3 * ns + 30, 1,
         None, "k2"),
        # the other drain caller found nothing to run.
        ("service.scheduler:SimulationService.drain", ns + 35,
         ns + 900, -1, None, ()),
        # a drain that waited through op 0 and then ran op 1's job
        # joins op 1 by its key.
        ("service.scheduler:SimulationService.drain", ns + 36,
         3 * ns + 90, -1, None, ("k2",)),
        # outside every op: dropped.
        ("service.net:encode_frame", 5 * ns, 5 * ns + 9, -1, None, None),
    ]
    named, covered = run.join_spans(spans, log)
    layers = tracing.by_layer(named)
    assert named["service.cache:ResultCache.put"] == 40
    assert named["service.net:FrameDecoder.feed"] == 10
    assert "service.net:encode_frame" not in named
    assert layers["service.scheduler"] == (
        (2 * ns + 20) - 40) + (2 * ns + 54)
    # op 0: feed [10, 20] and drain [30, 1e9] -> 10 + (1e9 - 30);
    # op 1: its put is outermost for it, inside the late drain's
    # clipped interval [3e9, 3e9 + 90] -> 90.
    assert covered == 10 + (ns - 30) + 90


def test_union_of_intervals():
    assert run.union_ns([(0, 10), (5, 20), (30, 40)]) == 30
    assert run.union_ns([]) == 0


# -- failure accounting -------------------------------------------------

def test_tally_counts_failures_against_attempts():
    tally = stats.Tally()
    tally.ok(3)
    tally.fail("wrong answer")
    tally.fail("wrong answer")
    assert (tally.attempted, tally.failed) == (5, 2)
    assert tally.error_rate == pytest.approx(0.4)
    assert tally.reasons == {"wrong answer": 2}
    other = stats.Tally()
    other.fail("closed")
    tally.merge(other.as_json())
    assert (tally.attempted, tally.failed) == (6, 3)


class OneShotServer:
    """A Unix socket that answers each connection with ``replies``
    frames, then closes."""

    def __init__(self, path, replies):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.bind(path)
        self.sock.listen(4)
        self.replies = replies
        self.thread = threading.Thread(target=self.serve, daemon=True)
        self.thread.start()

    def serve(self):
        while True:
            try:
                conn, _ = self.sock.accept()
            except OSError:
                return
            with conn:
                conn.recv(1 << 16)
                for message in self.replies:
                    conn.sendall(encode_frame(message))

    def close(self):
        self.sock.close()


def _cold_client(tmp, replies):
    path = os.path.join(tmp, "s.sock")
    server = OneShotServer(path, replies)
    rig = types.SimpleNamespace(workload="wire_cold",
                                docs=[{"kind": "events", "spec": {}}],
                                digests=[None])
    payload = {"trace": [], "now": 0}
    rig.digests[0] = wire.payload_digest(payload)
    tally = stats.Tally()
    client = wire.Client(rig, types.SimpleNamespace(sock=path), tally)
    return server, client, tally, payload


def test_a_reply_that_never_arrives_is_a_failed_op():
    with tempfile.TemporaryDirectory() as tmp:
        server, client, tally, _payload = _cold_client(tmp, [])
        try:
            client.op()
        finally:
            client.close()
            server.close()
    assert (tally.attempted, tally.failed) == (1, 1)
    assert tally.reasons == {"connection closed without a reply": 1}


def test_a_wrong_answer_is_a_failed_op_and_a_right_one_is_not():
    with tempfile.TemporaryDirectory() as tmp:
        good = {"status": "done", "key": "k"}
        server, client, tally, payload = _cold_client(tmp, [])
        digest = wire.payload_digest(payload)
        server.replies = [response(0, dict(good, digest=digest,
                                           result=payload))]
        try:
            client.op()
            client.next_cold = 0
            server.replies = [response(0, dict(good, digest=digest,
                                               result={"now": 1}))]
            client.close()
            client.op()
        finally:
            client.close()
            server.close()
    assert (tally.attempted, tally.failed) == (2, 1)
    assert tally.reasons == {"payload does not hash to its digest": 1}
