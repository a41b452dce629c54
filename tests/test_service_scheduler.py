"""Scheduler semantics: coalescing, priority, admission, isolation."""

import os
import threading

import pytest

from repro.events.engine import force_kernel, kernel_tier
from repro.service import (
    AdmissionError,
    JobError,
    JobSpec,
    ResultCache,
    SimulationService,
    canonical_json,
    register_workload,
    unregister_workload,
)
from repro.service.workloads import execute_job

VEC_SPEC = {
    "kind": "vector",
    "ops": [{"form": "VADD", "n": 8, "precision": 64, "seed": 3,
             "scalars": [], "specials": False}],
}


@pytest.fixture
def service(tmp_path):
    return SimulationService(
        cache=ResultCache(root=str(tmp_path / "cache"))
    )


@pytest.fixture
def recorder():
    """A registered kind that records execution order."""
    executions = []

    def runner(spec):
        executions.append(spec["label"])
        return {"label": spec["label"]}

    register_workload("test.recorder", runner, replace=True)
    yield executions
    unregister_workload("test.recorder")


def test_end_to_end_matches_direct_execution(service):
    from repro.testing import gen_vector

    future = service.submit(JobSpec(kind="vector", spec=VEC_SPEC,
                                    tier="turbo"))
    value = future.result()
    with force_kernel(tier="turbo"):
        import json
        direct = json.loads(json.dumps(gen_vector.execute(VEC_SPEC)))
    assert canonical_json(value) == canonical_json(direct)
    assert future.status == "done"
    assert future.digest() is not None


def test_execute_job_pins_the_addressed_tier():
    payload = JobSpec(kind="vector", spec=VEC_SPEC,
                      tier="reference").payload()
    # Ambient tier is turbo (the default); the job must still run on
    # the reference tier its key was addressed under.
    assert kernel_tier() != "reference"
    reference = execute_job(payload)
    turbo = execute_job(JobSpec(kind="vector", spec=VEC_SPEC,
                                tier="turbo").payload())
    # Same arithmetic on both tiers (the conformance contract)…
    assert canonical_json(reference) == canonical_json(turbo)


def test_duplicate_submissions_coalesce(service):
    job = JobSpec(kind="vector", spec=VEC_SPEC, tier="turbo")
    futures = [service.submit(job) for _ in range(5)]
    assert all(f is futures[0] for f in futures)
    assert futures[0].submits == 5
    service.drain()
    stats = service.stats()
    assert stats["executed"] == 1
    assert stats["coalesced"] == 4
    assert stats["submissions"] == 5


def test_concurrent_duplicate_submissions_execute_once(service):
    """N threads race identical submissions; exactly one simulation."""
    job = JobSpec(kind="vector", spec=VEC_SPEC, tier="turbo")
    threads = 8
    barrier = threading.Barrier(threads)
    futures = [None] * threads

    def client(slot):
        barrier.wait()
        futures[slot] = service.submit(job)

    workers = [threading.Thread(target=client, args=(i,))
               for i in range(threads)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    service.drain()

    stats = service.stats()
    assert stats["executed"] == 1
    assert stats["coalesced"] == threads - 1
    digests = {f.digest() for f in futures}
    assert len(digests) == 1 and None not in digests


def test_cache_hit_skips_queue_and_simulation(service, tmp_path):
    job = JobSpec(kind="vector", spec=VEC_SPEC, tier="turbo")
    first = service.submit(job)
    service.drain()

    warm = SimulationService(
        cache=ResultCache(root=str(tmp_path / "cache"))
    )
    second = warm.submit(job)
    assert second.status == "cached"
    assert second.done()
    assert second.digest() == first.digest()
    stats = warm.stats()
    assert stats["cache_hits"] == 1
    assert stats["executed"] == 0
    assert stats["queue_depth_hwm"] == 0


def test_no_cache_mode_resimulates(recorder):
    service = SimulationService(use_cache=False)
    job = JobSpec(kind="test.recorder", spec={"label": "x"},
                  tier="turbo")
    service.submit(job)
    service.drain()
    service.submit(job)
    service.drain()
    assert recorder == ["x", "x"]
    assert service.stats()["executed"] == 2


def test_priority_order_with_fifo_tie_break(recorder):
    service = SimulationService(use_cache=False)
    submits = [("late-low", 5), ("first-normal", 0),
               ("second-normal", 0), ("urgent", -5),
               ("third-normal", 0)]
    for label, priority in submits:
        service.submit(
            JobSpec(kind="test.recorder", spec={"label": label},
                    tier="turbo"),
            priority=priority,
        )
    service.drain()
    assert recorder == ["urgent", "first-normal", "second-normal",
                       "third-normal", "late-low"]


def test_admission_control_structured_rejection(service, recorder):
    service.max_pending = 2
    for index in range(2):
        service.submit(JobSpec(kind="test.recorder",
                               spec={"label": str(index)},
                               tier="turbo"))
    with pytest.raises(AdmissionError) as err:
        service.submit(JobSpec(kind="test.recorder",
                               spec={"label": "2"}, tier="turbo"))
    record = err.value.as_json()
    assert record["error"] == "admission"
    assert record["queue_depth"] == 2
    assert record["limit"] == 2
    assert service.stats()["rejected"] == 1
    # A duplicate of an already-queued job still coalesces: dedup is
    # checked before admission, so the queue never rejects work it
    # would not have to run.
    dup = service.submit(JobSpec(kind="test.recorder",
                                 spec={"label": "0"}, tier="turbo"))
    assert dup.submits == 2


def test_submit_batch_marks_rejections(service, recorder):
    service.max_pending = 1
    jobs = [
        (JobSpec(kind="test.recorder", spec={"label": "a"},
                 tier="turbo"), 0),
        (JobSpec(kind="test.recorder", spec={"label": "b"},
                 tier="turbo"), 0),
    ]
    futures = service.submit_batch(jobs)
    assert futures[0].status == "queued"
    assert futures[1].status == "rejected"
    with pytest.raises(JobError):
        futures[1].result()
    service.drain()
    assert recorder == ["a"]


def test_cancellation(service, recorder):
    keep = service.submit(JobSpec(kind="test.recorder",
                                  spec={"label": "keep"},
                                  tier="turbo"))
    drop = service.submit(JobSpec(kind="test.recorder",
                                  spec={"label": "drop"},
                                  tier="turbo"))
    assert drop.cancel()
    assert not drop.cancel()  # already terminal
    service.drain()
    assert recorder == ["keep"]
    assert keep.status == "done"
    assert drop.status == "cancelled"
    with pytest.raises(JobError):
        drop.result()
    # A cancelled key is admissible again.
    again = service.submit(JobSpec(kind="test.recorder",
                                   spec={"label": "drop"},
                                   tier="turbo"))
    assert again.status == "queued"


def test_runner_exception_fails_only_that_job(service):
    def runner(spec):
        if spec["boom"]:
            raise ValueError("synthetic failure")
        return {"ok": True}

    register_workload("test.boom", runner, replace=True)
    try:
        good = service.submit(JobSpec(kind="test.boom",
                                      spec={"boom": False, "i": 0},
                                      tier="turbo"))
        bad = service.submit(JobSpec(kind="test.boom",
                                     spec={"boom": True, "i": 1},
                                     tier="turbo"))
        service.drain()
    finally:
        unregister_workload("test.boom")
    assert good.status == "done" and good.result() == {"ok": True}
    assert bad.status == "failed"
    assert "synthetic failure" in bad.error
    with pytest.raises(JobError):
        bad.result()
    # Failures are never cached.
    assert service.cache.stats()["stores"] == 1


def test_worker_crash_fails_single_job_not_service(service):
    """A hard worker death (fork pool) is one failed future."""

    def runner(spec):
        if spec["die"]:
            os._exit(17)
        return {"ok": spec["i"]}

    register_workload("test.crash", runner, replace=True)
    try:
        futures = [
            service.submit(JobSpec(kind="test.crash",
                                   spec={"die": i == 1, "i": i},
                                   tier="turbo"))
            for i in range(4)
        ]
        service.drain(pool_jobs=2)
    finally:
        unregister_workload("test.crash")
    statuses = [f.status for f in futures]
    assert statuses[1] == "failed"
    assert "crashed" in futures[1].error
    assert [s for i, s in enumerate(statuses) if i != 1] == ["done"] * 3
    # The service survives: new work still runs.
    after = service.submit(JobSpec(kind="vector", spec=VEC_SPEC,
                                   tier="turbo"))
    service.drain()
    assert after.status == "done"


def test_service_stats_rollup(service):
    from repro.analysis import service_stats, service_stats_table

    def bad_watcher(event):
        raise RuntimeError("watcher bug")

    job = JobSpec(kind="vector", spec=VEC_SPEC, tier="turbo")
    service.submit(job)
    service.submit(job).watch(bad_watcher)
    service.drain()
    stats = service_stats(service)
    assert stats["submissions"] == 2
    assert stats["coalesced"] == 1
    assert stats["executed"] == 1
    # A failed watcher reaches the rollup (and so the ``stats`` wire
    # method) and the table.
    assert stats["listener_errors"] == 3
    assert dict(service_stats_table(stats).raw_rows)[
        "listener_errors"] == 3
    assert stats["queue_depth_hwm"] == 1
    assert stats["run_latency"]["jobs"] == 1
    assert stats["run_latency"]["max_s"] >= 0.0
    assert stats["queue_latency"]["jobs"] == 1
    assert stats["cache"]["stores"] == 1
    # Idempotent: rolling up a rollup is a no-op.
    assert service_stats(stats) == stats


def test_latency_rollups_match_the_futures(service, recorder):
    """The running tallies report what a rollup of every executed
    future's own queued_s/run_s would, across more than one drain."""
    from repro.analysis import service_stats

    futures = []
    for wave in range(2):
        futures += [
            service.submit(JobSpec(kind="test.recorder",
                                   spec={"label": f"{wave}-{index}"},
                                   tier="turbo"))
            for index in range(4)
        ]
        service.drain()
    stats = service_stats(service)
    for family, field in (("queue_latency", "queued_s"),
                          ("run_latency", "run_s")):
        samples = [getattr(future, field) for future in futures]
        assert stats[family] == pytest.approx({
            "jobs": 8,
            "total_s": sum(samples),
            "mean_s": sum(samples) / len(samples),
            "max_s": max(samples),
        })


def test_crashed_worker_retries_with_backoff(service, tmp_path):
    """A hard worker death retries (bounded, backed off) and wins."""
    marker = str(tmp_path / "crashed-once")

    def runner(spec):
        if not os.path.exists(marker):
            with open(marker, "w"):
                pass
            os._exit(21)  # hard death, first attempt only
        return {"ok": True}

    register_workload("test.flaky", runner, replace=True)
    try:
        future = service.submit(JobSpec(kind="test.flaky",
                                        spec={"label": "f"},
                                        tier="turbo"))
        service.drain(pool_jobs=2)
    finally:
        unregister_workload("test.flaky")
    assert future.status == "done"
    assert future.result() == {"ok": True}
    stats = service.stats()
    assert stats["worker_retries"] == 1
    assert stats["retried_ok"] == 1


def test_deterministic_exception_does_not_retry(service):
    """Only crashes retry; a raising runner fails immediately."""
    attempts = []

    def runner(spec):
        attempts.append(1)
        raise ValueError("always broken")

    register_workload("test.broken", runner, replace=True)
    try:
        future = service.submit(JobSpec(kind="test.broken",
                                        spec={"label": "b"},
                                        tier="turbo"))
        service.drain()
    finally:
        unregister_workload("test.broken")
    assert future.status == "failed"
    assert len(attempts) == 1
    assert service.stats()["worker_retries"] == 0


def test_result_timeout_resolves_via_background_drain(service):
    future = service.submit(JobSpec(kind="vector", spec=VEC_SPEC,
                                    tier="turbo"))
    value = future.result(timeout=60.0)  # no explicit drain() call
    assert future.status == "done"
    assert value is not None


def test_result_timeout_raises_structured_job_timeout(service):
    from repro.service import JobTimeout

    def runner(spec):
        import time
        time.sleep(2.0)
        return {}

    register_workload("test.slow", runner, replace=True)
    try:
        future = service.submit(JobSpec(kind="test.slow",
                                        spec={"label": "s"},
                                        tier="turbo"))
        with pytest.raises(JobTimeout) as err:
            future.result(timeout=0.05)
        record = err.value.as_json()
        assert record["error"] == "timeout"
        assert record["timeout_s"] == 0.05
        # Not a terminal state: the job is still owed execution.
        assert future.status in ("queued", "running")
        # Let the background drain finish so teardown is clean.
        assert future.result(timeout=30.0) == {}
    finally:
        unregister_workload("test.slow")


# -- lifecycle events: JobFuture.events and watch (status listeners) ---

def test_status_listener_sees_ordered_lifecycle(service):
    future = service.submit(JobSpec(kind="vector", spec=VEC_SPEC,
                                    tier="turbo"))
    service.drain()
    assert [e["op"] for e in future.events] == ["SUBMIT", "START",
                                                "DONE"]
    assert [e["state"] for e in future.events] == ["QUEUED", "RUNNING",
                                                   "DONE"]
    assert future.events[-1]["digest"] == future.digest()
    assert all(e["kind"] == "vector" and e["key"] == future.key
               for e in future.events)


def test_status_listener_exactly_once_per_transition(service):
    job = JobSpec(kind="vector", spec=VEC_SPEC, tier="turbo")
    # Coalesced duplicate submissions share one future — and one
    # lifecycle: one SUBMIT, one START, one DONE.
    futures = [service.submit(job) for _ in range(4)]
    seen = []
    futures[-1].watch(seen.append)
    service.drain()
    assert all(future is futures[0] for future in futures)
    assert [e["op"] for e in futures[0].events] == ["SUBMIT", "START",
                                                    "DONE"]
    assert seen == futures[0].events


def test_status_listener_cache_hit_emits_cached(service):
    future = service.submit(JobSpec(kind="vector", spec=VEC_SPEC,
                                    tier="turbo"))
    service.drain()
    again = service.submit(JobSpec(kind="vector", spec=VEC_SPEC,
                                   tier="turbo"))
    assert again.status == "cached"
    assert [e["op"] for e in again.events] == ["CACHED"]
    assert again.events[0]["digest"] == future.digest()
    # The finished future's own lifecycle is untouched by the hit.
    assert [e["op"] for e in future.events] == ["SUBMIT", "START",
                                                "DONE"]


def test_status_listener_failure_and_cancel_paths(service,
                                                  recorder):
    def boom(spec):
        raise RuntimeError("synthetic")

    register_workload("test.boom", boom, replace=True)
    try:
        failed = service.submit(JobSpec(kind="test.boom",
                                        spec={"label": "x"},
                                        tier="turbo"))
        victim = service.submit(JobSpec(kind="test.recorder",
                                        spec={"label": "v"},
                                        tier="turbo"))
        assert victim.cancel() is True
        service.drain()
        assert [e["op"] for e in failed.events] == ["SUBMIT", "START",
                                                    "FAIL"]
        assert [e["op"] for e in victim.events] == ["SUBMIT", "CANCEL"]
        assert "synthetic" in failed.events[-1]["error"]
        assert victim.events[-1]["reason"] == "cancelled"
    finally:
        unregister_workload("test.boom")


def test_raising_listener_is_counted_never_fatal(service):
    def bad_watcher(event):
        raise RuntimeError("watcher bug")

    future = service.submit(JobSpec(kind="vector", spec=VEC_SPEC,
                                    tier="turbo"))
    future.watch(bad_watcher)
    seen = []
    future.watch(seen.append)
    assert service.listener_errors == 1  # the replayed SUBMIT
    service.drain()
    assert future.status == "done"
    assert service.listener_errors == 3  # SUBMIT, START, DONE
    assert [e["op"] for e in seen] == ["SUBMIT", "START", "DONE"]


# -- condition-variable wait (no poll loop) ---------------------------

def test_zero_timeout_raises_immediately(service):
    import time as _time
    from repro.service import JobTimeout

    def runner(spec):
        _time.sleep(0.5)
        return {}

    register_workload("test.slow0", runner, replace=True)
    try:
        future = service.submit(JobSpec(kind="test.slow0",
                                        spec={"label": "z"},
                                        tier="turbo"))
        start = _time.perf_counter()
        with pytest.raises(JobTimeout):
            future.result(timeout=0.0)
        elapsed = _time.perf_counter() - start
        # The old implementation slept in 0.1 s poll slices; the
        # cond-var wait must give an *immediate* raise at timeout=0.
        assert elapsed < 0.09
        assert future.result(timeout=30.0) == {}
    finally:
        unregister_workload("test.slow0")


def test_waiters_wake_on_resolution_not_on_poll_ticks(service):
    import time as _time

    future = service.submit(JobSpec(kind="vector", spec=VEC_SPEC,
                                    tier="turbo"))
    start = _time.perf_counter()
    value = future.result(timeout=60.0)
    elapsed = _time.perf_counter() - start
    assert value is not None
    # The wait is notified, not polled: finishing a millisecond-scale
    # job must come back in far less than one old poll slice.
    assert elapsed < 60.0


# -- net counters surfacing -------------------------------------------

def test_stats_net_counters_absent_without_server(service):
    from repro.analysis import service_stats

    assert service.stats()["net"] is None
    assert service_stats(service)["net"] is None


def test_stats_net_counters_surface_when_attached(service):
    from repro.analysis import service_stats, service_stats_table
    from repro.service.net import NetCounters

    counters = NetCounters()
    counters.connections = 7
    counters.frames_in = 21
    counters.rejected_auth = 2
    counters.streaming_subscribers = 3
    service.net = counters
    service.submit(JobSpec(kind="vector", spec=VEC_SPEC,
                           tier="turbo"))
    service.drain()
    rollup = service_stats(service)
    assert rollup["net"]["connections"] == 7
    assert rollup["net"]["frames_in"] == 21
    rendered = service_stats_table(rollup).render()
    assert "net_connections" in rendered
    assert "net_rejected_auth" in rendered
    assert "net_streaming_subscribers" in rendered
