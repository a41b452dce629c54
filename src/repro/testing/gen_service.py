"""Machine-room chaos fuzzer.

The other five generators attack the simulator's kernels; this one
attacks the *machine room* — :mod:`repro.service` and its network
front-end :mod:`repro.service.net` — with seeded fault schedules.
Each spec draws a *front*, the way its jobs reach the service:

- ``service``: the harness's own process submits and drains.  Its
  axes are a mid-drain kill, journal truncation and byte flips at
  arbitrary offsets, cache entries dropped or corrupted behind a
  journaled DONE, hard worker crashes in the fork pool, and tenant
  quota exhaustion.
- ``server``: jobs go over the wire to a live
  :class:`~repro.service.net.server.ServiceServer`.  Its axes are a
  mid-drain server kill, the :data:`ATTACKS` a hostile or broken
  client makes (torn frames, garbage preambles, wrong versions, bad
  CRCs, oversize headers, hostile HTTP, vanishing subscribers) — each
  must come back as the structured error the protocol documents — and
  one full status stream.

On either front, a killed case runs phase 1 through
:func:`launch_killed`: a subprocess that the marker-gated
``kill_service`` job ``os._exit``-s mid-drain, exactly a ``kill -9``.
After the damage step, a fresh service on the same journal and cache
directories must deliver every job with a payload digest
byte-identical to a clean direct execution.

The job payloads are pure arithmetic (:func:`run_job`, registered as
the ``service.chaos`` workload kind) with the tier pinned, so they do
not depend on the kernel tier: the oracle's second run of each case
is a *determinism re-run* — same schedule, same outcome — not a tier
diff.  Outcomes keep only each front's stable facts.  An inline drain
is deterministic, so the service front keeps statuses, replay stats
and counters; on the server front done-versus-cached depends on drain
timing, so it keeps per-job, per-attack and stream ``ok`` plus
violations.  Chaos side effects (crash once, kill once) are gated on
marker files under ``REPRO_CHAOS_DIR`` so the spec stays path-free.

The ``invariant`` hook reports ``outcome["violations"]`` — a
non-empty list means a job was lost, duplicated into a wrong state,
or served a payload that does not match its clean digest, or an
attack was not answered as documented.
"""

import dataclasses
import json
import os
import random
import shutil
import socket
import subprocess
import sys
import tempfile
import time
import zlib

#: Exit status of the mid-drain service kill (the simulated kill -9).
KILL_EXIT = 9
#: Exit status of a hard worker crash inside the fork pool.
CRASH_EXIT = 13

_MOD = 65521  # largest prime < 2**16; keeps payload ints small

#: How a spec's jobs reach the service (see the module docstring).
FRONTS = ("service", "server")

#: Attack names; ``generate`` draws parameters per attack, so a spec
#: fully determines the byte stream each attack sends.
ATTACKS = ("torn_ping", "garbage", "bad_version", "bad_crc",
           "oversize", "http_bad_json", "http_unknown_route",
           "midstream_disconnect")

#: The job that kills phase 1's process when it runs.
_KILL_JOB = {"label": "kill", "x": 1, "rounds": 1,
             "kill_service": True}


# -- the registered workload runner ----------------------------------

def _pure_payload(spec: dict) -> dict:
    """The deterministic result of one chaos job — pure arithmetic,
    independent of kernel tier, process, and chaos gating."""
    x = spec["x"] % _MOD
    series = []
    for _ in range(spec["rounds"]):
        x = (x * x + 1) % _MOD
        series.append(x)
    return {"label": spec["label"], "value": x, "series": series}


def run_job(spec: dict) -> dict:
    """Execute one ``service.chaos`` job (the registered runner).

    Chaos behaviours only fire when ``REPRO_CHAOS_DIR`` points at a
    marker directory, and each fires exactly once per directory:

    - ``crash_worker`` — ``os._exit(13)`` the executing fork-pool
      worker (exercises the scheduler's crash-retry path; the retry
      finds the marker and succeeds).
    - ``kill_service`` — ``os._exit(9)`` the whole process.  Drained
      inline this kills the service mid-drain; the restart finds the
      marker and completes the job normally.
    """
    chaos_dir = os.environ.get("REPRO_CHAOS_DIR")
    if chaos_dir:
        if spec.get("kill_service"):
            marker = os.path.join(chaos_dir, f"kill-{spec['label']}")
            if not os.path.exists(marker):
                with open(marker, "w"):
                    pass
                os._exit(KILL_EXIT)
        if spec.get("crash_worker"):
            marker = os.path.join(chaos_dir, f"crash-{spec['label']}")
            if not os.path.exists(marker):
                with open(marker, "w"):
                    pass
                os._exit(CRASH_EXIT)
    return _pure_payload(spec)


# -- spec generation -------------------------------------------------

def generate(rng: random.Random) -> dict:
    """Draw one chaos schedule."""
    front = rng.choice(FRONTS)
    server = front == "server"
    count = rng.randint(3, 7)
    kill = rng.random() < 0.35
    jobs = []
    for i in range(count):
        jobs.append({
            "label": f"j{i}",
            "x": rng.randint(0, _MOD - 1),
            "rounds": rng.randint(1, 6),
            "priority": rng.choice([0, 0, 0, 1, 5]),
            # A worker crash needs a fork pool: a killed drain and
            # the server's drainer run inline, where the crash would
            # take down the process itself.
            "crash_worker": (not (kill or server)
                             and rng.random() < 0.2),
        })
    phase1 = rng.randint(1 if kill else 0, count)
    damage = {"journal": None, "cache": None}
    attacks = []
    tenants = False
    quota_burst = None
    if server:
        for _ in range(rng.randint(1, 4)):
            attacks.append({
                "name": rng.choice(ATTACKS),
                "chunk": rng.randint(1, 24),
                "delta": rng.randint(1, 200),
                "junk": rng.randint(0, 2 ** 31 - 1),
            })
    else:
        roll = rng.random()
        if roll < 0.3:
            damage["journal"] = ["truncate", rng.randint(1, 120)]
        elif roll < 0.5:
            damage["journal"] = ["flip", rng.randint(0, 1 << 16)]
        roll = rng.random()
        if roll < 0.2:
            damage["cache"] = ["drop", rng.randint(0, 7)]
        elif roll < 0.35:
            damage["cache"] = ["corrupt", rng.randint(0, 7)]
        tenants = rng.random() < 0.4
        if tenants and rng.random() < 0.5:
            quota_burst = rng.randint(1, 4)
    return {
        "kind": "service",
        "front": front,
        "jobs": jobs,
        "phase1": phase1,
        "kill": kill,
        "kill_after": rng.randint(0, phase1 - 1) if kill else 0,
        "damage": damage,
        "attacks": attacks,
        "tenants": tenants,
        "quota_burst": quota_burst,
    }


# -- the kill -9 launcher --------------------------------------------

def _chaos_job(job: dict, tenant=None):
    """One ``service.chaos`` job.  The tier is pinned explicitly: the
    oracle runs every case twice under different ambient tiers, and an
    ambient-resolved tier would fold a different value into every job
    key (different journal bytes per run — a false divergence)."""
    from repro.service.jobkey import JobSpec
    return JobSpec(kind="service.chaos", spec=dict(job), tier="turbo",
                   tenant=tenant)


def _open_service(root, tenants=None):
    """A service over the journal and cache directories under
    ``root`` (the layout :func:`launch_killed` uses)."""
    from repro.service.cache import ResultCache
    from repro.service.scheduler import SimulationService
    return SimulationService(
        cache=ResultCache(root=os.path.join(root, "cache")),
        journal_dir=os.path.join(root, "journal"),
        tenants=tenants,
    )


def _child_main():  # pragma: no cover - runs in the killed subprocess
    """Entry point of the process that dies mid-drain."""
    from repro.service.jobkey import JobSpec
    with open(os.environ["REPRO_CHAOS_SPEC"]) as handle:
        bundle = json.load(handle)
    service = _open_service(bundle["root"])
    pairs = [(JobSpec(**fields), priority)
             for fields, priority in bundle["jobs"]]
    if bundle["front"] == "service":
        for job, priority in pairs:
            service.submit(job, priority=priority)
        service.drain(pool_jobs=1)  # inline: the kill job kills *us*
        return
    from repro.service import ServerThread, ServiceClient
    sock = os.path.join(bundle["root"], "kill.sock")
    ServerThread(service, unix_path=sock).start()
    with ServiceClient("unix:" + sock) as client:
        for job, priority in pairs:
            client.submit(job, priority=priority)
        time.sleep(30)  # the server's drainer kills us long before


def launch_killed(root, front, pairs) -> int:
    """Submit ``pairs`` — ``(JobSpec, priority)`` — on ``front`` in a
    subprocess over the journal and cache directories under ``root``,
    where the ``kill_service`` job among them kills it mid-drain.

    On the ``service`` front the child drains inline; on the
    ``server`` front it submits over the wire to its own live server,
    whose drainer runs the kill.  Returns the child's exit status
    (:data:`KILL_EXIT` when the kill fired).  The kill is disarmed
    under ``root/chaos`` on return, so a restart never re-fires it,
    even if the child died before its marker reached the disk.
    """
    import repro
    src_root = os.path.dirname(os.path.dirname(
        os.path.abspath(repro.__file__)))
    chaos_dir = os.path.join(root, "chaos")
    os.makedirs(chaos_dir, exist_ok=True)
    bundle = os.path.join(root, "chaos-spec.json")
    with open(bundle, "w") as handle:
        json.dump({"root": root, "front": front,
                   "jobs": [[dataclasses.asdict(job), priority]
                            for job, priority in pairs]}, handle)
    env = dict(os.environ)
    env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH",
                                                        "")
    env["REPRO_CHAOS_SPEC"] = bundle
    env["REPRO_CHAOS_DIR"] = chaos_dir
    proc = subprocess.run(
        [sys.executable, "-c",
         "from repro.testing.gen_service import _child_main; "
         "_child_main()"],
        env=env, timeout=120, stdout=subprocess.DEVNULL,
    )
    for job, _ in pairs:
        if job.spec.get("kill_service"):
            with open(os.path.join(chaos_dir,
                                   f"kill-{job.spec['label']}"), "w"):
                pass
    return proc.returncode


# -- execution -------------------------------------------------------

def _job_specs(spec: dict):
    """(JobSpec, priority) pairs for every scheduled job."""
    return [(_chaos_job(job, f"t{i % 2}" if spec["tenants"] else None),
             job["priority"])
            for i, job in enumerate(spec["jobs"])]


def _phase1_pairs(spec: dict):
    """Phase-1 submissions, with the kill job spliced in after
    ``kill_after`` of them (an inline drain journals each chunk
    before the next)."""
    pairs = _job_specs(spec)[:spec["phase1"]]
    if spec["kill"]:
        pairs.insert(spec["kill_after"], (_chaos_job(_KILL_JOB), 0))
    return pairs


def _clean_digest(job) -> str:
    from repro.service.jobkey import payload_digest
    return payload_digest(_pure_payload(job.spec))


def _apply_damage(spec, root):
    """Deterministic post-phase-1 file damage; what-was-done record."""
    journal_dir = os.path.join(root, "journal")
    cache_dir = os.path.join(root, "cache")
    applied = {"journal": None, "cache": None}
    plan = spec["damage"]
    if plan["journal"] is not None:
        from repro.service.journal import FILENAME
        target = os.path.join(journal_dir, FILENAME)
        size = os.path.getsize(target) if os.path.exists(target) else 0
        mode, arg = plan["journal"]
        if size > 0 and mode == "truncate":
            cut = min(size, arg)
            with open(target, "r+b") as handle:
                handle.truncate(size - cut)
            applied["journal"] = ["truncate", cut]
        elif size > 0 and mode == "flip":
            position = arg % size
            with open(target, "r+b") as handle:
                handle.seek(position)
                byte = handle.read(1)
                handle.seek(position)
                handle.write(bytes([byte[0] ^ 0x01]))
            applied["journal"] = ["flip", position]
    if plan["cache"] is not None:
        entries = []
        for shard in sorted(os.listdir(cache_dir)
                            if os.path.isdir(cache_dir) else []):
            shard_path = os.path.join(cache_dir, shard)
            if os.path.isdir(shard_path):
                entries.extend(
                    os.path.join(shard_path, name)
                    for name in sorted(os.listdir(shard_path))
                    if name.endswith(".json")
                )
        if entries:
            mode, index = plan["cache"]
            target = entries[index % len(entries)]
            if mode == "drop":
                os.unlink(target)
            else:
                with open(target, "w") as handle:
                    handle.write("not json {")
            applied["cache"] = [mode, index % len(entries)]
    return applied


def _drain_restart(spec, root) -> dict:
    """Service front: a fresh in-process service takes every job and
    drains; statuses, replay stats and counters."""
    from repro.service.scheduler import QuotaError
    from repro.service.tenants import TenantTable
    tenants = None
    if spec["quota_burst"] is not None:
        tenants = TenantTable(clock=lambda: 0.0)
        tenants.configure("t0", rate=0.0, burst=spec["quota_burst"])
    service = _open_service(root, tenants=tenants)
    pairs = _job_specs(spec)
    futures = []
    for job, priority in pairs:
        try:
            futures.append(service.submit(job, priority=priority))
        except QuotaError:
            futures.append(None)
    service.drain(pool_jobs=_pool(spec))

    jobs_out = []
    violations = []
    for (job, _priority), future in zip(pairs, futures):
        expected = _clean_digest(job)
        if future is None:
            status, digest = "quota", None
            ok = spec["quota_burst"] is not None
        else:
            status = future.status
            digest = future.as_json()["digest"]
            ok = status in ("done", "cached") and digest == expected
        if not ok:
            violations.append(
                f"{job.spec['label']}: status={status} "
                f"digest={'match' if digest == expected else 'MISMATCH'}"
            )
        jobs_out.append({"label": job.spec["label"],
                         "status": status, "ok": ok})
    stats = service.stats()
    return {
        "jobs": jobs_out,
        "violations": violations,
        "replay": dict(service.journal_replay or {}),
        "counters": {
            name: stats[name]
            for name in ("executed", "cache_hits", "coalesced",
                         "worker_retries", "retried_ok",
                         "quota_rejected")
        },
    }


def _serve_restart(spec, root) -> dict:
    """Server front: a fresh server weathers the attacks, then serves
    every job and one full status stream over the wire; ``ok`` flags
    only (done-versus-cached depends on drain timing)."""
    from repro.service import ServerThread, ServiceClient, \
        payload_digest
    from repro.service.scheduler import TERMINAL_OPS
    service = _open_service(root)
    sock = os.path.join(root, "serve.sock")
    attacks_out = []
    jobs_out = []
    violations = []
    with ServerThread(service, unix_path=sock):
        # Attacks first: a server that survives hostile bytes must
        # still serve the real submissions below.
        for attack in spec["attacks"]:
            try:
                ok = bool(_ATTACK_FNS[attack["name"]](sock, attack))
            except Exception:  # a hang, a reset, a malformed reply
                ok = False
            attacks_out.append({"name": attack["name"], "ok": ok})
            if not ok:
                violations.append(
                    f"attack {attack['name']}: expected the "
                    f"documented structured error")
        pairs = _job_specs(spec)
        with ServiceClient("unix:" + sock) as client:
            for job, priority in pairs:
                record = client.submit(job, priority=priority, wait=60)
                expected = _clean_digest(job)
                ok = (record["status"] in ("done", "cached")
                      and record["digest"] == expected
                      and payload_digest(record["result"]) == expected)
                if not ok:
                    violations.append(
                        f"{job.spec['label']}: served digest does "
                        f"not match clean execution")
                jobs_out.append({"label": job.spec["label"], "ok": ok})
            # One full stream must replay the watched key's lifecycle,
            # end at its one terminal event, and carry the right
            # payload.
            first = pairs[0][0]
            key = client.submit(first)["key"]
            events, final = client.watch(key)
            terminal = [event["op"] in TERMINAL_OPS for event in events]
            stream_ok = bool(
                terminal.count(True) == 1
                and terminal[-1]
                and all(event["key"] == key for event in events)
                and final is not None
                and final.get("digest") == _clean_digest(first))
            if not stream_ok:
                violations.append(
                    "stream: not one terminal event last, a foreign "
                    "key, or a digest mismatch")
    if service.queue_depth() != 0:
        violations.append("graceful stop left queued jobs")
    return {"jobs": jobs_out, "attacks": attacks_out,
            "stream_ok": stream_ok, "violations": violations}


def _pool(spec) -> int:
    return 2 if any(j["crash_worker"] for j in spec["jobs"]) else 1


def execute(spec: dict) -> dict:
    """Run the chaos schedule end to end; JSON outcome.

    Phase 1 submits a prefix of the jobs: through
    :func:`launch_killed` when the spec kills, else to an in-process
    service that drains it.  Damage then hits the journal and cache
    files, and a fresh service on the same directories takes every
    job: drained in-process on the service front, served over the
    wire after the attacks on the server front.
    """
    tmp = tempfile.mkdtemp(prefix="repro-chaos-")
    chaos_dir = os.path.join(tmp, "chaos")
    os.makedirs(chaos_dir)
    saved_env = os.environ.get("REPRO_CHAOS_DIR")
    os.environ["REPRO_CHAOS_DIR"] = chaos_dir
    try:
        child_exit = None
        if spec["kill"]:
            child_exit = launch_killed(tmp, spec["front"],
                                       _phase1_pairs(spec))
        elif spec["phase1"]:
            service1 = _open_service(tmp)
            for job, priority in _phase1_pairs(spec):
                service1.submit(job, priority=priority)
            service1.drain(pool_jobs=_pool(spec))
        damage = _apply_damage(spec, tmp)
        if spec["front"] == "server":
            outcome = _serve_restart(spec, tmp)
        else:
            outcome = _drain_restart(spec, tmp)
        if spec["kill"] and child_exit != KILL_EXIT:
            outcome["violations"].append(
                f"killed {spec['front']} exited {child_exit}, "
                f"expected {KILL_EXIT}")
        outcome.update(child_exit=child_exit, damage=damage)
        return outcome
    finally:
        if saved_env is None:
            os.environ.pop("REPRO_CHAOS_DIR", None)
        else:
            os.environ["REPRO_CHAOS_DIR"] = saved_env
        shutil.rmtree(tmp, ignore_errors=True)


def invariant(outcome: dict) -> list:
    """Chaos must never lose, duplicate, or corrupt a job, and every
    attack must be answered as documented."""
    return list(outcome.get("violations", ()))


# -- raw-socket attacks (server front) -------------------------------

def _connect(sock_path) -> socket.socket:
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.settimeout(30)
    sock.connect(sock_path)
    return sock


def _framed_error(sock_path, payload: bytes, code: str) -> bool:
    """Send ``payload``; true when the reply is one error frame with
    protocol error ``code``."""
    from repro.service.net import FrameDecoder
    decoder = FrameDecoder()
    sock = _connect(sock_path)
    try:
        sock.sendall(payload)
        while True:
            data = sock.recv(65536)
            if not data:
                return False
            messages = decoder.feed(data)
            if messages:
                message = messages[0]
                error = message.get("error") or {}
                return (message.get("ok") is False
                        and (error.get("code") or error.get("error"))
                        == code)
    finally:
        sock.close()


def _ping_frame() -> bytearray:
    from repro.service.net import encode_frame
    return bytearray(encode_frame({"id": 1, "method": "ping",
                                   "params": {}}))


def _attack_torn_ping(sock_path, attack) -> bool:
    """A frame dribbled ``chunk`` bytes at a time still gets served."""
    from repro.service.net import FrameDecoder
    frame = bytes(_ping_frame())
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
    junk = b"ZZ" + attack["junk"].to_bytes(4, "big") * 3
    return _framed_error(sock_path, junk, "magic")


def _attack_bad_version(sock_path, attack) -> bool:
    from repro.service.net import PROTOCOL_VERSION
    frame = _ping_frame()
    frame[2] = (PROTOCOL_VERSION + attack["delta"]) % 256
    if frame[2] == PROTOCOL_VERSION:
        frame[2] = PROTOCOL_VERSION + 1
    return _framed_error(sock_path, bytes(frame), "version")


def _attack_bad_crc(sock_path, attack) -> bool:
    frame = _ping_frame()
    frame[-1 - (attack["delta"] % 8)] ^= 0xFF
    return _framed_error(sock_path, bytes(frame), "crc")


def _attack_oversize(sock_path, attack) -> bool:
    """A header claiming a huge payload is rejected before any
    buffering."""
    from repro.service.net import MAX_FRAME_BYTES
    from repro.service.net.protocol import HEADER, MAGIC, \
        PROTOCOL_VERSION
    header = HEADER.pack(MAGIC, PROTOCOL_VERSION, 0,
                         MAX_FRAME_BYTES + 1 + attack["delta"],
                         zlib.crc32(b""))
    return _framed_error(sock_path, header, "oversize")


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
                          "x": attack["junk"] % _MOD,
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


# -- shrinking -------------------------------------------------------

def shrink_candidates(spec: dict):
    """Yield structurally smaller chaos schedules."""

    def variant(**kw):
        out = dict(spec)
        out.update(kw)
        return out

    jobs = spec["jobs"]
    for i in range(len(jobs)):
        if len(jobs) > 1:
            slim = jobs[:i] + jobs[i + 1:]
            phase1 = min(spec["phase1"], len(slim))
            if spec["kill"]:
                phase1 = max(1, phase1)
            yield variant(
                jobs=slim, phase1=phase1,
                kill_after=min(spec["kill_after"],
                               max(0, phase1 - 1)),
            )
    attacks = spec["attacks"]
    for i in range(len(attacks)):
        yield variant(attacks=attacks[:i] + attacks[i + 1:])
    if spec["kill"]:
        yield variant(kill=False, kill_after=0)
    if spec["damage"]["journal"] or spec["damage"]["cache"]:
        yield variant(damage={"journal": None, "cache": None})
    if spec["damage"]["journal"] and spec["damage"]["cache"]:
        yield variant(damage={"journal": spec["damage"]["journal"],
                              "cache": None})
        yield variant(damage={"journal": None,
                              "cache": spec["damage"]["cache"]})
    if spec["quota_burst"] is not None:
        yield variant(quota_burst=None)
    if spec["tenants"]:
        yield variant(tenants=False, quota_burst=None)
    if any(j["crash_worker"] for j in jobs):
        yield variant(jobs=[dict(j, crash_worker=False)
                            for j in jobs])
    if any(j["priority"] for j in jobs):
        yield variant(jobs=[dict(j, priority=0) for j in jobs])
    if any(j["rounds"] > 1 for j in jobs):
        yield variant(jobs=[dict(j, rounds=1) for j in jobs])
