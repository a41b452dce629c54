"""HTTP/1.1 adapter edge cases: the curl-facing surface."""

import json
import socket

import pytest

from repro.service import (
    JobSpec,
    ResultCache,
    ServerThread,
    SimulationService,
)

VEC_SPEC = {
    "kind": "vector",
    "ops": [{"form": "VADD", "n": 8, "precision": 64, "seed": 7,
             "scalars": [], "specials": False}],
}


@pytest.fixture
def service(tmp_path):
    return SimulationService(
        cache=ResultCache(root=str(tmp_path / "cache"))
    )


@pytest.fixture
def server(service):
    with ServerThread(service, host="127.0.0.1", port=0,
                      max_frame_bytes=1 << 16,
                      idle_timeout_s=1.0) as thread:
        yield thread


def http(server, request: bytes, read_all=True) -> bytes:
    sock = socket.create_connection(
        ("127.0.0.1", server.server.port), timeout=30)
    try:
        sock.sendall(request)
        chunks = []
        while True:
            data = sock.recv(65536)
            if not data:
                break
            chunks.append(data)
            if not read_all:
                break
        return b"".join(chunks)
    finally:
        sock.close()


def simple(server, method, path, body=None, headers=()):
    payload = body.encode() if isinstance(body, str) else (body
                                                          or b"")
    head = [f"{method} {path} HTTP/1.1", "Host: test"]
    head.extend(headers)
    if payload:
        head.append(f"Content-Length: {len(payload)}")
    raw = ("\r\n".join(head) + "\r\n\r\n").encode() + payload
    reply = http(server, raw)
    status = int(reply.split(b" ", 2)[1])
    body_bytes = reply.split(b"\r\n\r\n", 1)[1]
    return status, body_bytes


def test_submit_wait_and_fetch_roundtrip(server):
    body = json.dumps({"kind": "vector", "spec": VEC_SPEC,
                       "tier": "turbo"})
    status, reply = simple(server, "POST", "/jobs?wait=60",
                           body=body)
    assert status == 200
    record = json.loads(reply)
    assert record["status"] in ("done", "cached")
    assert record["result"] is not None
    status, reply = simple(server, "GET",
                           f"/jobs/{record['key']}?result=0")
    assert status == 200
    fetched = json.loads(reply)
    assert fetched["digest"] == record["digest"]
    assert "result" not in fetched


def test_healthz_answers_without_auth(server):
    status, reply = simple(server, "GET", "/healthz")
    assert status == 200
    health = json.loads(reply)
    assert health["ok"] is True and health["draining"] is False


def test_oversized_body_is_structured_413(server):
    # Limit is 64 KiB (fixture); claim 1 MiB without sending it —
    # the server must reject on the header, not buffer and hope.
    raw = (b"POST /jobs HTTP/1.1\r\nHost: t\r\n"
           b"Content-Length: 1048576\r\n\r\n")
    reply = http(server, raw)
    assert b" 413 " in reply.split(b"\r\n", 1)[0]
    error = json.loads(reply.split(b"\r\n\r\n", 1)[1])
    assert error["error"] == "oversize"
    assert error["limit"] == 1 << 16
    assert server.server.counters.http_requests >= 1


def test_unknown_route_is_structured_404(server):
    status, reply = simple(server, "GET", "/teapot")
    assert status == 404
    assert json.loads(reply) == {"error": "not_found",
                                 "path": "/teapot"}


def test_unknown_job_key_is_404(server):
    status, reply = simple(server, "GET", "/jobs/" + "ab" * 32)
    assert status == 404
    assert json.loads(reply)["error"] == "unknown_key"


def test_bad_json_body_is_structured_400(server):
    status, reply = simple(server, "POST", "/jobs",
                           body="{not json")
    assert status == 400
    error = json.loads(reply)
    assert error["error"] == "bad_request"
    assert "JSON" in error["message"] or "json" in error["message"]


def test_unknown_kind_is_structured_400(server):
    status, reply = simple(server, "POST", "/jobs",
                           body=json.dumps({"kind": "no.such"}))
    assert status == 400
    assert json.loads(reply)["error"] == "unknown_kind"


def test_unknown_tier_is_structured_400(server, service):
    status, reply = simple(server, "POST", "/jobs", body=json.dumps(
        {"kind": "vector", "spec": VEC_SPEC, "tier": "vector"}))
    assert status == 400
    assert json.loads(reply)["error"] == "unknown_tier"
    assert service.submissions == 0


def test_method_not_allowed_is_405(server):
    status, reply = simple(server, "DELETE", "/jobs")
    assert status == 405
    assert json.loads(reply)["error"] == "method_not_allowed"


def test_malformed_request_line_is_400(server):
    reply = http(server, b"GETBAD\r\n\r\n")
    assert b" 400 " in reply.split(b"\r\n", 1)[0]


def test_batch_submit_reports_per_job_rejections(server):
    body = json.dumps({"jobs": [
        {"kind": "vector", "spec": VEC_SPEC, "tier": "turbo"},
        {"kind": "no.such.kind"},
    ]})
    status, reply = simple(server, "POST", "/jobs?wait=60",
                           body=body)
    assert status == 200
    records = json.loads(reply)["jobs"]
    assert records[0]["status"] in ("done", "cached")
    assert records[1]["status"] == "rejected"
    assert records[1]["error"]["error"] == "unknown_kind"


def test_batch_submit_rejects_only_the_unknown_tier(server, service):
    body = json.dumps({"jobs": [
        {"kind": "vector", "spec": VEC_SPEC, "tier": "vector"},
        {"kind": "vector", "spec": VEC_SPEC, "tier": "turbo"},
    ]})
    status, reply = simple(server, "POST", "/jobs?wait=60",
                           body=body)
    assert status == 200
    records = json.loads(reply)["jobs"]
    assert records[0]["status"] == "rejected"
    assert records[0]["error"]["error"] == "unknown_tier"
    assert records[1]["status"] in ("done", "cached")
    assert service.submissions == 1


def test_chunked_stream_ends_with_result(server):
    body = json.dumps({"kind": "vector", "spec": VEC_SPEC,
                       "tier": "turbo"})
    status, reply = simple(server, "POST", "/jobs?wait=60",
                           body=body)
    key = json.loads(reply)["key"]
    raw = http(server, (f"GET /jobs/{key}/stream HTTP/1.1\r\n"
                        f"Host: t\r\n\r\n").encode())
    head, _, rest = raw.partition(b"\r\n\r\n")
    assert b"Transfer-Encoding: chunked" in head
    # De-chunk: every chunk is one NDJSON line.
    lines = []
    while rest:
        size_line, _, rest = rest.partition(b"\r\n")
        size = int(size_line, 16)
        if size == 0:
            break
        lines.append(json.loads(rest[:size]))
        rest = rest[size + 2:]
    assert [line["event"]["op"] for line in lines[:-1]] \
        == ["SUBMIT", "START", "DONE"]
    assert lines[-1]["end"] is True
    assert lines[-1]["result"]["result"] is not None


def test_stream_unknown_key_is_404_before_chunking(server):
    status, reply = simple(server, "GET",
                           "/jobs/" + "cd" * 32 + "/stream")
    assert status == 404
    assert json.loads(reply)["error"] == "unknown_key"


def test_idle_connection_is_dropped(server):
    # Fixture pins idle_timeout_s=1.0: a connection that never sends
    # a full request head is cut loose, not leaked.
    sock = socket.create_connection(
        ("127.0.0.1", server.server.port), timeout=30)
    try:
        sock.sendall(b"GET /healthz HTT")  # ...and stall
        sock.settimeout(10)
        assert sock.recv(65536) == b""  # server closed on us
    finally:
        sock.close()
    assert server.server.counters.idle_timeouts >= 1


def test_auth_header_maps_to_tenant(tmp_path):
    service = SimulationService(
        cache=ResultCache(root=str(tmp_path / "cache")))
    with ServerThread(service, host="127.0.0.1", port=0,
                      auth_tokens={"tok123": "acme"}) as server:
        body = json.dumps({"kind": "vector", "spec": VEC_SPEC,
                           "tier": "turbo"})
        status, reply = simple(
            server, "POST", "/jobs?wait=60", body=body,
            headers=("Authorization: Bearer tok123",))
        assert status == 200
        assert json.loads(reply)["tenant"] == "acme"
        status, reply = simple(
            server, "POST", "/jobs?wait=60", body=body,
            headers=("X-Repro-Token: nope",))
        assert status == 401
        assert json.loads(reply)["error"] == "auth"
        assert server.server.counters.rejected_auth == 1


def test_protocol_version_mismatch_frame_on_shared_listener(server):
    # A framed client three versions ahead hits the same TCP port
    # the HTTP tests use; it must get a structured version error,
    # not silence.
    from repro.service.net import FrameDecoder, PROTOCOL_VERSION, \
        encode_frame
    frame = bytearray(encode_frame({"id": 1, "method": "ping",
                                    "params": {}}))
    frame[2] = PROTOCOL_VERSION + 3
    sock = socket.create_connection(
        ("127.0.0.1", server.server.port), timeout=30)
    try:
        sock.sendall(bytes(frame))
        reply = FrameDecoder().feed(sock.recv(65536))[0]
    finally:
        sock.close()
    assert reply["ok"] is False
    assert reply["error"]["code"] == "version"
    assert reply["error"]["server_version"] == PROTOCOL_VERSION


def test_connection_limit_sheds_with_503(service):
    with ServerThread(service, host="127.0.0.1", port=0,
                      max_connections=1) as server:
        hold = socket.create_connection(
            ("127.0.0.1", server.server.port), timeout=30)
        try:
            status, reply = simple(server, "GET", "/healthz")
            assert status == 503
            assert json.loads(reply)["error"] == "shed"
            assert server.server.counters.shed >= 1
        finally:
            hold.close()
