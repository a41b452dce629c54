"""Service-layer chaos fuzzer.

The other five generators attack the simulator's kernels; this one
attacks the *machine room* — :mod:`repro.service` — with seeded fault
schedules: mid-drain process kills (a subprocess running the drain is
``os._exit``-ed from inside a job, exactly a ``kill -9``), journal
truncation and corruption at arbitrary byte offsets, cache entries
dropped or corrupted behind a journaled DONE, hard worker crashes in
the fork pool, tenant quota exhaustion, and graceful-degradation
shedding.  After the chaos, a fresh service is pointed at the same
journal and cache directories and must deliver every surviving job
with a payload digest byte-identical to a clean direct execution.

The job payloads themselves are pure arithmetic
(:func:`run_job`, registered as the ``service.chaos`` workload kind),
so outcomes are kernel-tier independent: the differential oracle
running a case on both tiers checks *service determinism* — same
chaos schedule, same journal bytes, same final statuses and digests —
rather than kernel agreement.  Chaos side effects (crash once, kill
once) are gated on marker files under ``REPRO_CHAOS_DIR`` so the spec
stays path-free and the journal stays byte-deterministic.

The ``invariant`` hook reports ``outcome["violations"]`` — a
non-empty list means a job was lost, duplicated into a wrong state,
or served a payload that does not match its clean digest.
"""

import json
import os
import random
import subprocess
import sys
import tempfile

#: Exit status of the mid-drain service kill (the simulated kill -9).
KILL_EXIT = 9
#: Exit status of a hard worker crash inside the fork pool.
CRASH_EXIT = 13

_MOD = 65521  # largest prime < 2**16; keeps payload ints small


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
    count = rng.randint(3, 7)
    kill = rng.random() < 0.35
    jobs = []
    for i in range(count):
        jobs.append({
            "label": f"j{i}",
            "x": rng.randint(0, _MOD - 1),
            "rounds": rng.randint(1, 6),
            "priority": rng.choice([0, 0, 0, 1, 5]),
            # A killed drain runs inline, where a worker crash would
            # be indistinguishable from the kill — mutually exclusive.
            "crash_worker": (not kill) and rng.random() < 0.2,
        })
    phase1 = rng.randint(1 if kill else 0, count)
    damage = {"journal": None, "cache": None}
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
    return {
        "kind": "service",
        "jobs": jobs,
        "phase1": phase1,
        "kill": kill,
        "kill_after": rng.randint(0, phase1 - 1) if kill else 0,
        "damage": damage,
        "tenants": tenants,
        "quota_burst": (rng.randint(1, 4)
                        if tenants and rng.random() < 0.5 else None),
    }


# -- execution -------------------------------------------------------

def _job_specs(spec: dict):
    """(JobSpec, priority) pairs for every scheduled job."""
    from repro.service.jobkey import JobSpec
    pairs = []
    for i, job in enumerate(spec["jobs"]):
        tenant = f"t{i % 2}" if spec["tenants"] else None
        # Tier pinned explicitly: the oracle runs this case under
        # every kernel tier, and an ambient-resolved tier would fold
        # a different value into every job key (different journal
        # bytes per tier — a false divergence).
        pairs.append((
            JobSpec(kind="service.chaos", spec=dict(job),
                    tier="turbo", tenant=tenant),
            job["priority"],
        ))
    return pairs


def _phase1_pairs(spec: dict):
    """Phase-1 submissions, with the kill job spliced in."""
    pairs = _job_specs(spec)[:spec["phase1"]]
    if spec["kill"]:
        from repro.service.jobkey import JobSpec
        kill_job = JobSpec(
            kind="service.chaos",
            spec={"label": "kill", "x": 1, "rounds": 1,
                  "kill_service": True},
            tier="turbo",
        )
        # Kill fires after ``kill_after`` phase-1 jobs completed
        # durably (inline drain journals each chunk before the next).
        pairs.insert(spec["kill_after"], (kill_job, 0))
    return pairs


def _child_main():  # pragma: no cover - runs in the killed subprocess
    """Entry point of the to-be-killed drain subprocess."""
    from repro.service.cache import ResultCache
    from repro.service.scheduler import SimulationService
    with open(os.environ["REPRO_CHAOS_SPEC"]) as handle:
        bundle = json.load(handle)
    spec = bundle["spec"]
    service = SimulationService(
        cache=ResultCache(root=bundle["cache_dir"]),
        journal_dir=bundle["journal_dir"],
    )
    for job, priority in _phase1_pairs(spec):
        service.submit(job, priority=priority)
    service.drain(pool_jobs=1)  # inline: the kill job kills *us*


def _run_killed_phase1(spec, tmp, journal_dir, cache_dir) -> int:
    """Run phase 1 in a subprocess that dies mid-drain; exit code."""
    import repro
    src_root = os.path.dirname(os.path.dirname(
        os.path.abspath(repro.__file__)))
    spec_path = os.path.join(tmp, "chaos-spec.json")
    with open(spec_path, "w") as handle:
        json.dump({"spec": spec, "journal_dir": journal_dir,
                   "cache_dir": cache_dir}, handle)
    env = dict(os.environ)
    env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
    env["REPRO_CHAOS_SPEC"] = spec_path
    env["REPRO_CHAOS_DIR"] = os.path.join(tmp, "chaos")
    proc = subprocess.run(
        [sys.executable, "-c",
         "from repro.testing.gen_service import _child_main; "
         "_child_main()"],
        env=env, timeout=120,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    return proc.returncode


def _apply_damage(spec, journal_dir, cache_dir):
    """Deterministic post-phase-1 file damage; what-was-done record."""
    applied = {"journal": None, "cache": None}
    plan = spec["damage"]
    if plan["journal"] is not None:
        segments = sorted(
            os.path.join(journal_dir, name)
            for name in (os.listdir(journal_dir)
                         if os.path.isdir(journal_dir) else [])
            if name.endswith(".jsonl")
        )
        if segments:
            target = segments[-1]
            size = os.path.getsize(target)
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


def execute(spec: dict) -> dict:
    """Run the chaos schedule end to end; JSON outcome.

    Phase 1 drains a prefix of the jobs (in-process, or in a
    subprocess that is killed mid-drain), damage hits the journal
    and/or cache files, then a fresh service on the same directories
    replays, accepts the full job list, and drains.  The outcome is
    the per-job final story plus the replay stats and violations.
    """
    from repro.service.cache import ResultCache
    from repro.service.jobkey import payload_digest
    from repro.service.scheduler import QuotaError, SimulationService
    from repro.service.tenants import TenantTable

    tmp = tempfile.mkdtemp(prefix="repro-chaos-")
    journal_dir = os.path.join(tmp, "journal")
    cache_dir = os.path.join(tmp, "cache")
    chaos_dir = os.path.join(tmp, "chaos")
    os.makedirs(chaos_dir)
    saved_env = os.environ.get("REPRO_CHAOS_DIR")
    os.environ["REPRO_CHAOS_DIR"] = chaos_dir
    try:
        pairs = _job_specs(spec)
        pool = 2 if any(j["crash_worker"] for j in spec["jobs"]) else 1

        # Phase 1: drain a prefix (killed mid-drain when spec says).
        child_exit = None
        if spec["kill"]:
            child_exit = _run_killed_phase1(spec, tmp, journal_dir,
                                            cache_dir)
        elif spec["phase1"]:
            service1 = SimulationService(
                cache=ResultCache(root=cache_dir),
                journal_dir=journal_dir,
            )
            for job, priority in _phase1_pairs(spec):
                service1.submit(job, priority=priority)
            service1.drain(pool_jobs=pool)

        damage = _apply_damage(spec, journal_dir, cache_dir)

        if spec["kill"]:
            # The restart must never re-fire the kill, even if the
            # child died before its marker hit the disk.
            with open(os.path.join(chaos_dir, "kill-kill"), "w"):
                pass

        # Phase 2: fresh service, same directories, full job list.
        tenants = None
        if spec["quota_burst"] is not None:
            tenants = TenantTable(clock=lambda: 0.0)
            tenants.configure("t0", rate=0.0,
                              burst=spec["quota_burst"])
        service2 = SimulationService(
            cache=ResultCache(root=cache_dir),
            journal_dir=journal_dir,
            tenants=tenants,
        )
        futures = []
        for job, priority in pairs:
            try:
                futures.append(service2.submit(job, priority=priority))
            except QuotaError:
                futures.append(None)
        service2.drain(pool_jobs=pool)

        # The clean story every surviving job must match.
        jobs_out = []
        violations = []
        for (job, _priority), future in zip(pairs, futures):
            expected = payload_digest(_pure_payload(job.spec))
            if future is None:
                status, digest = "quota", None
            else:
                status = future.status
                record = future.as_json()
                digest = record["digest"]
            ok = status in ("done", "cached") and digest == expected
            if status == "quota":
                ok = spec["quota_burst"] is not None
            if not ok:
                violations.append(
                    f"{job.spec['label']}: status={status} "
                    f"digest={'match' if digest == expected else 'MISMATCH'}"
                )
            jobs_out.append({"label": job.spec["label"],
                             "status": status, "ok": ok})
        if spec["kill"] and child_exit not in (KILL_EXIT, 0):
            violations.append(
                f"kill subprocess exited {child_exit}, "
                f"expected {KILL_EXIT} (or 0 if the kill job was "
                f"never reached)"
            )

        stats = service2.stats()
        replay = dict(service2.journal_replay or {})
        return {
            "jobs": jobs_out,
            "violations": violations,
            "child_exit": child_exit,
            "damage": damage,
            "replay": replay,
            "counters": {
                "executed": stats["executed"],
                "cache_hits": stats["cache_hits"],
                "coalesced": stats["coalesced"],
                "worker_retries": stats["worker_retries"],
                "retried_ok": stats["retried_ok"],
                "quota_rejected": stats["quota_rejected"],
            },
        }
    finally:
        if saved_env is None:
            os.environ.pop("REPRO_CHAOS_DIR", None)
        else:
            os.environ["REPRO_CHAOS_DIR"] = saved_env
        import shutil
        shutil.rmtree(tmp, ignore_errors=True)


def invariant(outcome: dict) -> list:
    """Chaos must never lose, duplicate, or corrupt a job."""
    return list(outcome.get("violations", ()))


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
