"""Network front-end chaos fuzzer.

The seventh generator attacks the *serving* layer —
:mod:`repro.service.net` — the way a hostile or broken client would:
torn frames trickled a few bytes at a time, garbage preambles,
frames claiming the wrong protocol version, corrupted CRCs, headers
announcing absurd payload lengths, HTTP requests with unparseable
bodies or unknown routes, and subscribers that vanish mid-stream.
Each attack must come back as the *structured* error the protocol
documents (never a hang, never an unframed close), and the server
must keep serving legitimate submissions afterwards.

A seeded fraction of cases also kills the whole server ``kill -9``
mid-drain (reusing the ``service.chaos`` workload's marker-gated
``os._exit``): a fresh server on the same journal and cache
directories must then serve every job with a payload digest
byte-identical to clean direct execution.

Job payloads are the pure arithmetic of
:func:`repro.testing.gen_service._pure_payload` with the tier pinned,
so the differential oracle running each case under both kernel
tiers checks *serving determinism* — same attacks, same final
digests — rather than kernel agreement.  Outcomes deliberately
record only stable facts (per-job ``ok``, per-attack ``ok``,
violations): statuses like done-vs-cached and byte counts depend on
drain-thread timing and must not reach the oracle.
"""

import json
import os
import random
import socket
import subprocess
import sys
import tempfile
import time

from repro.testing.gen_service import KILL_EXIT, _pure_payload

#: Attack names; ``generate`` draws parameters per attack, so a spec
#: fully determines the byte stream each attack sends.
ATTACKS = ("torn_ping", "garbage", "bad_version", "bad_crc",
           "oversize", "http_bad_json", "http_unknown_route",
           "midstream_disconnect")


# -- spec generation -------------------------------------------------

def generate(rng: random.Random) -> dict:
    """Draw one serving chaos schedule."""
    count = rng.randint(2, 5)
    jobs = []
    for i in range(count):
        jobs.append({
            "label": f"n{i}",
            "x": rng.randint(0, 65520),
            "rounds": rng.randint(1, 6),
        })
    attacks = []
    for _ in range(rng.randint(1, 4)):
        name = rng.choice(ATTACKS)
        attacks.append({
            "name": name,
            "chunk": rng.randint(1, 24),
            "delta": rng.randint(1, 200),
            "junk": rng.randint(0, 2 ** 31 - 1),
        })
    kill = rng.random() < 0.3
    return {
        "kind": "net",
        "jobs": jobs,
        "attacks": attacks,
        "kill": kill,
        "kill_after": rng.randint(0, count - 1) if kill else 0,
    }


# -- raw-socket attack implementations --------------------------------

def _connect(sock_path) -> socket.socket:
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.settimeout(30)
    sock.connect(sock_path)
    return sock


def _recv_error_code(sock) -> str:
    """Read one error frame; its protocol error code (or a tag)."""
    from repro.service.net import FrameDecoder
    decoder = FrameDecoder()
    while True:
        data = sock.recv(65536)
        if not data:
            return "closed"
        messages = decoder.feed(data)
        if messages:
            message = messages[0]
            if message.get("ok") is False:
                error = message.get("error", {})
                return error.get("code") or error.get("error",
                                                      "unknown")
            return "unexpected-ok"


def _attack_torn_ping(sock_path, attack) -> bool:
    """A frame dribbled ``chunk`` bytes at a time still gets served."""
    from repro.service.net import FrameDecoder, encode_frame
    frame = encode_frame({"id": 1, "method": "ping", "params": {}})
    sock = _connect(sock_path)
    try:
        step = max(1, attack["chunk"])
        for offset in range(0, len(frame), step):
            sock.sendall(frame[offset:offset + step])
        decoder = FrameDecoder()
        while True:
            messages = decoder.feed(sock.recv(65536))
            if messages:
                reply = messages[0]
                return (reply.get("ok") is True
                        and reply["result"]["pong"] is True)
    finally:
        sock.close()


def _attack_garbage(sock_path, attack) -> bool:
    """A non-protocol preamble earns a structured magic error."""
    junk = (b"ZZ" + attack["junk"].to_bytes(4, "big") * 3)
    sock = _connect(sock_path)
    try:
        sock.sendall(junk)
        return _recv_error_code(sock) == "magic"
    finally:
        sock.close()


def _attack_bad_version(sock_path, attack) -> bool:
    from repro.service.net import PROTOCOL_VERSION, encode_frame
    frame = bytearray(encode_frame({"id": 1, "method": "ping",
                                    "params": {}}))
    frame[2] = (PROTOCOL_VERSION + attack["delta"]) % 256
    if frame[2] == PROTOCOL_VERSION:
        frame[2] = PROTOCOL_VERSION + 1
    sock = _connect(sock_path)
    try:
        sock.sendall(bytes(frame))
        return _recv_error_code(sock) == "version"
    finally:
        sock.close()


def _attack_bad_crc(sock_path, attack) -> bool:
    from repro.service.net import encode_frame
    frame = bytearray(encode_frame({"id": 1, "method": "ping",
                                    "params": {}}))
    frame[-1 - (attack["delta"] % 8)] ^= 0xFF
    sock = _connect(sock_path)
    try:
        sock.sendall(bytes(frame))
        return _recv_error_code(sock) == "crc"
    finally:
        sock.close()


def _attack_oversize(sock_path, attack) -> bool:
    """A header claiming a huge payload is rejected before any
    buffering."""
    import zlib

    from repro.service.net import MAX_FRAME_BYTES
    from repro.service.net.protocol import HEADER, MAGIC, \
        PROTOCOL_VERSION
    header = HEADER.pack(MAGIC, PROTOCOL_VERSION, 0,
                         MAX_FRAME_BYTES + 1 + attack["delta"],
                         zlib.crc32(b""))
    sock = _connect(sock_path)
    try:
        sock.sendall(header)
        return _recv_error_code(sock) == "oversize"
    finally:
        sock.close()


def _http_exchange(sock_path, raw: bytes) -> tuple:
    """(status, body-dict-or-None) for one raw HTTP request."""
    sock = _connect(sock_path)
    try:
        sock.sendall(raw)
        chunks = []
        while True:
            data = sock.recv(65536)
            if not data:
                break
            chunks.append(data)
        reply = b"".join(chunks)
        status = int(reply.split(b" ", 2)[1])
        try:
            body = json.loads(reply.split(b"\r\n\r\n", 1)[1])
        except (ValueError, IndexError):
            body = None
        return status, body
    finally:
        sock.close()


def _attack_http_bad_json(sock_path, attack) -> bool:
    body = b"{broken json" + str(attack["junk"]).encode()
    raw = (b"POST /jobs HTTP/1.1\r\nHost: x\r\n"
           b"Content-Length: " + str(len(body)).encode()
           + b"\r\n\r\n" + body)
    status, reply = _http_exchange(sock_path, raw)
    return status == 400 and reply["error"] == "bad_request"


def _attack_http_unknown_route(sock_path, attack) -> bool:
    raw = (f"GET /no-such-{attack['junk']} HTTP/1.1\r\n"
           f"Host: x\r\n\r\n").encode()
    status, reply = _http_exchange(sock_path, raw)
    return status == 404 and reply["error"] == "not_found"


def _attack_midstream_disconnect(sock_path, attack) -> bool:
    """Subscribe, read a little, vanish — the server must shrug."""
    from repro.service.net import encode_frame
    from repro.service.net.protocol import request
    sock = _connect(sock_path)
    try:
        sock.sendall(encode_frame(request(
            7, "submit",
            job={"kind": "service.chaos",
                 "spec": {"label": f"mid{attack['junk'] % 97}",
                          "x": attack["junk"] % 65521,
                          "rounds": 1 + attack["delta"] % 4},
                 "tier": "turbo"},
            stream=True)))
        sock.recv(16)  # a sliver of the submit response, then gone
        return True
    finally:
        sock.close()


_ATTACK_FNS = {
    "torn_ping": _attack_torn_ping,
    "garbage": _attack_garbage,
    "bad_version": _attack_bad_version,
    "bad_crc": _attack_bad_crc,
    "oversize": _attack_oversize,
    "http_bad_json": _attack_http_bad_json,
    "http_unknown_route": _attack_http_unknown_route,
    "midstream_disconnect": _attack_midstream_disconnect,
}


# -- the killed server subprocess ------------------------------------

def _child_main():  # pragma: no cover - runs in the killed subprocess
    """Serve, accept phase-1 submissions, die inside the kill job."""
    from repro.service import ServerThread, ServiceClient, \
        SimulationService
    from repro.service.cache import ResultCache
    with open(os.environ["REPRO_NET_SPEC"]) as handle:
        bundle = json.load(handle)
    spec = bundle["spec"]
    service = SimulationService(
        cache=ResultCache(root=bundle["cache_dir"]),
        journal_dir=bundle["journal_dir"],
    )
    ServerThread(service, unix_path=bundle["sock"]).start()
    documents = [{"kind": "service.chaos", "spec": dict(job),
                  "tier": "turbo"} for job in spec["jobs"]]
    documents.insert(spec["kill_after"], {
        "kind": "service.chaos",
        "spec": {"label": "kill", "x": 1, "rounds": 1,
                 "kill_service": True},
        "tier": "turbo",
    })
    with ServiceClient("unix:" + bundle["sock"]) as client:
        for document in documents:
            client.submit(document)
        time.sleep(30)  # the drain thread kills us long before this


def _run_killed_server(spec, tmp, journal_dir, cache_dir) -> int:
    import repro
    src_root = os.path.dirname(os.path.dirname(
        os.path.abspath(repro.__file__)))
    spec_path = os.path.join(tmp, "net-spec.json")
    with open(spec_path, "w") as handle:
        json.dump({"spec": spec, "journal_dir": journal_dir,
                   "cache_dir": cache_dir,
                   "sock": os.path.join(tmp, "kill.sock")}, handle)
    env = dict(os.environ)
    env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH",
                                                        "")
    env["REPRO_NET_SPEC"] = spec_path
    env["REPRO_CHAOS_DIR"] = os.path.join(tmp, "chaos")
    proc = subprocess.run(
        [sys.executable, "-c",
         "from repro.testing.gen_net import _child_main; "
         "_child_main()"],
        env=env, timeout=120,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    return proc.returncode


# -- execution -------------------------------------------------------

def execute(spec: dict) -> dict:
    """Run the serving chaos schedule end to end; JSON outcome."""
    from repro.service import ServerThread, ServiceClient, \
        SimulationService, payload_digest
    from repro.service.cache import ResultCache
    from repro.service.net.bus import TERMINAL_OPS

    tmp = tempfile.mkdtemp(prefix="repro-netchaos-")
    journal_dir = os.path.join(tmp, "journal")
    cache_dir = os.path.join(tmp, "cache")
    chaos_dir = os.path.join(tmp, "chaos")
    os.makedirs(chaos_dir)
    saved_env = os.environ.get("REPRO_CHAOS_DIR")
    os.environ["REPRO_CHAOS_DIR"] = chaos_dir
    try:
        violations = []
        child_exit = None
        if spec["kill"]:
            child_exit = _run_killed_server(spec, tmp, journal_dir,
                                            cache_dir)
            if child_exit != KILL_EXIT:
                violations.append(
                    f"killed server exited {child_exit}, "
                    f"expected {KILL_EXIT}")
            # The restart must never re-fire the kill, even if the
            # child died before its marker hit the disk.
            with open(os.path.join(chaos_dir, "kill-kill"), "w"):
                pass

        service = SimulationService(
            cache=ResultCache(root=cache_dir),
            journal_dir=journal_dir,
        )
        sock = os.path.join(tmp, "serve.sock")
        attacks_out = []
        jobs_out = []
        stream_ok = True
        with ServerThread(service, unix_path=sock):
            # Attacks first: a server that survives hostile bytes
            # must still serve the real submissions below.
            for attack in spec["attacks"]:
                try:
                    ok = _ATTACK_FNS[attack["name"]](sock, attack)
                except Exception:
                    ok = False
                attacks_out.append({"name": attack["name"],
                                    "ok": bool(ok)})
                if not ok:
                    violations.append(
                        f"attack {attack['name']}: expected the "
                        f"documented structured error")
            with ServiceClient("unix:" + sock) as client:
                for job in spec["jobs"]:
                    document = {"kind": "service.chaos",
                                "spec": dict(job), "tier": "turbo"}
                    record = client.submit(document, wait=60)
                    expected = payload_digest(_pure_payload(job))
                    ok = (record["status"] in ("done", "cached")
                          and record["digest"] == expected
                          and payload_digest(record["result"])
                          == expected)
                    if not ok:
                        violations.append(
                            f"{job['label']}: served digest does "
                            f"not match clean execution")
                    jobs_out.append({"label": job["label"],
                                     "ok": ok})
                # One full stream must replay the lifecycle and end
                # terminal with the right payload.
                first = spec["jobs"][0]
                events, final = client.watch(
                    client.submit({"kind": "service.chaos",
                                   "spec": dict(first),
                                   "tier": "turbo"})["key"])
                expected = payload_digest(_pure_payload(first))
                stream_ok = bool(
                    events
                    and events[-1]["op"] in TERMINAL_OPS
                    and final is not None
                    and final.get("digest") == expected)
                if not stream_ok:
                    violations.append(
                        "stream: missing terminal event or digest "
                        "mismatch")
        if service.queue_depth() != 0:
            violations.append("graceful stop left queued jobs")
        return {
            "jobs": jobs_out,
            "attacks": attacks_out,
            "stream_ok": stream_ok,
            "violations": violations,
            "child_exit": child_exit,
        }
    finally:
        if saved_env is None:
            os.environ.pop("REPRO_CHAOS_DIR", None)
        else:
            os.environ["REPRO_CHAOS_DIR"] = saved_env
        import shutil
        shutil.rmtree(tmp, ignore_errors=True)


def invariant(outcome: dict) -> list:
    """Attacks answered structurally, jobs served byte-identically."""
    return list(outcome.get("violations", ()))


# -- shrinking -------------------------------------------------------

def shrink_candidates(spec: dict):
    """Yield structurally smaller serving chaos schedules."""

    def variant(**kw):
        out = dict(spec)
        out.update(kw)
        return out

    jobs = spec["jobs"]
    for i in range(len(jobs)):
        if len(jobs) > 1:
            slim = jobs[:i] + jobs[i + 1:]
            yield variant(
                jobs=slim,
                kill_after=min(spec["kill_after"], len(slim) - 1),
            )
    attacks = spec["attacks"]
    for i in range(len(attacks)):
        yield variant(attacks=attacks[:i] + attacks[i + 1:])
    if spec["kill"]:
        yield variant(kill=False, kill_after=0)
    if any(j["rounds"] > 1 for j in jobs):
        yield variant(jobs=[dict(j, rounds=1) for j in jobs])
