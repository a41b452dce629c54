"""The scheduler's background drain and its journal compaction."""

import threading

import pytest

from repro.service import (
    JobSpec,
    ResultCache,
    ServerThread,
    ServiceClient,
    SimulationService,
    register_workload,
    unregister_workload,
)
from repro.service import scheduler

COMPACT_BYTES = 1024


@pytest.fixture
def recorder():
    executions = []

    def runner(spec):
        executions.append(spec["label"])
        return {"label": spec["label"]}

    register_workload("test.drain.recorder", runner, replace=True)
    yield executions
    unregister_workload("test.drain.recorder")


def job(label):
    return JobSpec(kind="test.drain.recorder", spec={"label": label},
                   tier="turbo")


def test_a_drain_past_the_size_bound_compacts_the_journal(
        tmp_path, recorder, monkeypatch):
    monkeypatch.setattr(scheduler, "COMPACT_BYTES", COMPACT_BYTES)
    root = str(tmp_path / "journal")
    service = SimulationService(use_cache=False, journal_dir=root)
    for index in range(8):
        service.submit(job(f"done-{index}"))
    late = []
    compact = service._maybe_compact

    def submit_late_then_compact():
        # Queued after the drain's last pop: still owed execution when
        # the trigger compacts, so the compacted journal must keep them.
        late.extend(service.submit(job(f"late-{index}"))
                    for index in range(3))
        assert service.journal.size_bytes() > COMPACT_BYTES
        compact()

    service._maybe_compact = submit_late_then_compact
    service.drain()
    assert service.journal.stats()["compactions"] == 1
    assert service.journal.size_bytes() <= COMPACT_BYTES
    assert [future.status for future in late] == ["queued"] * 3
    service.journal.close()

    # No result store: a DONE record that survived compaction would be
    # replayed as a job whose result is missing.
    revived = SimulationService(use_cache=False, journal_dir=root)
    assert [f.key for f in revived.recovered] == [f.key for f in late]
    assert revived.journal_replay["recovered_pending"] == 3
    assert revived.journal_replay["done_cache_missing"] == 0
    revived.drain()
    assert recorder == [f"done-{index}" for index in range(8)] \
        + [f"late-{index}" for index in range(3)]


def test_a_job_queued_as_the_background_drain_finishes_is_drained(
        recorder):
    service = SimulationService(use_cache=False)
    held, release = threading.Event(), threading.Event()
    compact = service._maybe_compact

    def hold_then_compact():
        # Park the background drain after its last, empty queue pop.
        if not release.is_set():
            held.set()
            release.wait(10)
        compact()

    service._maybe_compact = hold_then_compact
    first = service.submit(job("first"))
    assert first.result(timeout=10) == {"label": "first"}
    assert held.wait(10)
    second = service.submit(job("second"))
    releaser = threading.Timer(0.2, release.set)
    releaser.start()
    try:
        assert second.result(timeout=1) == {"label": "second"}
    finally:
        release.set()
        releaser.join()
    assert recorder == ["first", "second"]


def drain_threads():
    return {thread for thread in threading.enumerate()
            if thread.name == "repro-drain"}


def test_server_shutdown_leaves_no_drain_thread_running(tmp_path,
                                                        recorder):
    service = SimulationService(
        cache=ResultCache(root=str(tmp_path / "cache")),
        journal_dir=str(tmp_path / "journal"))
    before = drain_threads()
    sock = str(tmp_path / "s.sock")
    with ServerThread(service, unix_path=sock):
        assert drain_threads() == before  # the server starts none
        with ServiceClient("unix:" + sock) as client:
            for index in range(3):
                client.submit({"kind": "test.drain.recorder",
                               "spec": {"label": str(index)},
                               "tier": "turbo"})
        started = drain_threads() - before
        assert len(started) == 1
    assert not any(thread.is_alive() for thread in started)
    assert sorted(recorder) == ["0", "1", "2"]
    assert service.queue_depth() == 0
