"""Durability: the write-ahead job journal and crash recovery.

The centrepiece is the kill -9 acceptance story: a 20-job batch
drained by a subprocess that dies mid-drain (``os._exit(9)`` from
inside a job, indistinguishable from ``kill -9``), then a fresh
service pointed at the same journal directory delivers all 20 results
with payload digests byte-identical to an uninterrupted serial run —
and the metering counters prove no job executed twice.
"""

import json
import os
import stat

import pytest

from repro.service import (
    JobJournal,
    JobSpec,
    ResultCache,
    SimulationService,
    UnknownWorkloadError,
    payload_digest,
)
from repro.service.journal import _frame, _parse
from repro.testing.gen_service import KILL_EXIT, _pure_payload, \
    launch_killed


def _journal_file(root):
    """Path of the journal file, the only file under ``root``."""
    assert os.listdir(str(root)) == ["journal.jsonl"]
    return os.path.join(str(root), "journal.jsonl")


def _chaos_job(label, x, rounds=3, **extra):
    spec = {"label": label, "x": x, "rounds": rounds}
    spec.update(extra)
    return JobSpec(kind="service.chaos", spec=spec, tier="turbo")


def _service(tmp_path, **kwargs):
    kwargs.setdefault("cache",
                      ResultCache(root=str(tmp_path / "cache")))
    kwargs.setdefault("journal_dir", str(tmp_path / "journal"))
    return SimulationService(**kwargs)


# -- journal unit behaviour ------------------------------------------

def test_append_replay_round_trip(tmp_path):
    journal = JobJournal(str(tmp_path / "j"))
    journal.append("SUBMIT", "k1", seq=1, priority=0,
                   job={"kind": "x"})
    journal.append("DONE", "k1", digest="d1")
    replay = journal.replay()
    assert replay.entries["k1"]["status"] == "done"
    assert replay.entries["k1"]["digest"] == "d1"
    assert replay.pending() == []
    assert replay.stats["records"] == 2


def test_creating_the_journal_file_fsyncs_its_directory(tmp_path,
                                                        monkeypatch):
    synced = []
    fsync = os.fsync

    def spy(fd):
        mode = os.fstat(fd).st_mode
        synced.append("dir" if stat.S_ISDIR(mode) else "file")
        fsync(fd)

    monkeypatch.setattr(os, "fsync", spy)
    journal = JobJournal(str(tmp_path / "j"))
    journal.append("SUBMIT", "k1", seq=1, priority=0, job={})
    # fsync(2) of the new file alone leaves its name undurable.
    assert synced == ["dir", "file"]
    journal.append("SUBMIT", "k2", seq=2, priority=0, job={})
    journal.close()
    reopened = JobJournal(str(tmp_path / "j"))
    reopened.append("DONE", "k1", digest="d")
    reopened.close()
    assert synced == ["dir", "file", "file", "file"]


def test_a_directory_of_old_segments_is_refused(tmp_path):
    root = tmp_path / "j"
    root.mkdir()
    (root / "seg-00000001.jsonl").write_text(_frame(
        {"op": "SUBMIT", "key": "k", "seq": 1, "priority": 0,
         "job": {}}))
    with pytest.raises(RuntimeError, match="seg-00000001.jsonl"):
        JobJournal(str(root))
    with pytest.raises(RuntimeError, match="seg-00000001.jsonl"):
        _service(tmp_path, journal_dir=str(root))
    assert os.listdir(str(root)) == ["seg-00000001.jsonl"]


def test_crc_framing_rejects_tampered_records():
    line = _frame({"op": "DONE", "key": "k", "digest": "d"})
    assert _parse(line) is not None
    assert _parse(line.replace("DONE", "FAIL")) is None  # CRC broken
    assert _parse("not json\n") is None
    assert _parse(json.dumps({"op": "NOPE", "crc": 0}) + "\n") is None


def test_torn_final_record_is_tolerated(tmp_path):
    journal = JobJournal(str(tmp_path / "j"))
    journal.append("SUBMIT", "k1", seq=1, priority=0, job={})
    journal.append("SUBMIT", "k2", seq=2, priority=0, job={})
    path = _journal_file(tmp_path / "j")
    with open(path, "r+b") as handle:
        size = os.path.getsize(path)
        handle.truncate(size - 7)  # tear the last record mid-line
    replay = JobJournal(str(tmp_path / "j")).replay()
    assert replay.stats["torn_records"] == 1
    assert replay.stats["corrupt_records"] == 0
    assert [e["seq"] for e in replay.pending()] == [1]


def test_mid_file_corruption_skips_only_that_record(tmp_path):
    journal = JobJournal(str(tmp_path / "j"))
    for seq, key in enumerate(["a", "b", "c"], start=1):
        journal.append("SUBMIT", key, seq=seq, priority=0, job={})
    path = _journal_file(tmp_path / "j")
    lines = open(path).read().splitlines(keepends=True)
    lines[1] = lines[1][:5] + "X" + lines[1][6:]  # corrupt record 2
    with open(path, "w") as handle:
        handle.writelines(lines)
    replay = JobJournal(str(tmp_path / "j")).replay()
    assert replay.stats["corrupt_records"] == 1
    assert replay.stats["torn_records"] == 0
    assert sorted(e["key"] for e in replay.pending()) == ["a", "c"]


def test_double_done_after_retried_worker_first_wins(tmp_path):
    journal = JobJournal(str(tmp_path / "j"))
    journal.append("SUBMIT", "k", seq=1, priority=0, job={})
    journal.append("DONE", "k", digest="first")
    journal.append("DONE", "k", digest="second")
    replay = journal.replay()
    assert replay.entries["k"]["status"] == "done"
    assert replay.entries["k"]["digest"] == "first"
    assert replay.stats["duplicate_done"] == 1


def test_compaction_drops_terminal_history(tmp_path):
    journal = JobJournal(str(tmp_path / "j"))
    for seq in range(8):
        journal.append("SUBMIT", f"k{seq}", seq=seq, priority=0,
                       job={})
        if seq < 6:
            journal.append("DONE", f"k{seq}", digest="d")
    live = [{"op": "SUBMIT", "key": f"k{seq}", "seq": seq,
             "priority": 0, "job": {}} for seq in (6, 7)]
    before = journal.size_bytes()
    journal.compact(live)
    assert journal.size_bytes() < before
    _journal_file(tmp_path / "j")  # the temp file is gone
    replay = JobJournal(str(tmp_path / "j")).replay()
    assert sorted(e["key"] for e in replay.pending()) == ["k6", "k7"]
    assert replay.stats["records"] == 2


# -- service-level recovery ------------------------------------------

def test_done_jobs_replay_as_cache_hits(tmp_path):
    service = _service(tmp_path)
    future = service.submit(_chaos_job("a", 11))
    service.drain()
    digest = future.as_json()["digest"]

    revived = _service(tmp_path)
    assert revived.journal_replay["done_in_cache"] == 1
    again = revived.submit(_chaos_job("a", 11))
    assert again.status == "cached"
    assert again.as_json()["digest"] == digest


def test_unfinished_jobs_requeue_in_priority_fifo_order(tmp_path):
    service = _service(tmp_path)
    fut_low = service.submit(_chaos_job("low", 1), priority=0)
    fut_hi = service.submit(_chaos_job("hi", 2), priority=-5)
    fut_mid = service.submit(_chaos_job("mid", 3), priority=-5)
    del service, fut_low, fut_hi, fut_mid  # never drained: "crash"

    revived = _service(tmp_path)
    labels = [f.job.spec["label"] for f in revived.recovered]
    # Most urgent (lowest value) first, then FIFO within a priority.
    assert labels == ["hi", "mid", "low"]
    revived.drain()
    assert all(f.status == "done" for f in revived.recovered)


def test_unknown_tier_is_refused_before_the_journal(tmp_path):
    service = _service(tmp_path)
    job = JobSpec(kind="service.chaos",
                  spec={"label": "a", "x": 1, "rounds": 3}, tier="vector")
    with pytest.raises(UnknownWorkloadError) as err:
        service.submit(job)
    assert err.value.code == "unknown_tier"
    assert service.journal.replay().entries == {}


def test_replay_drops_jobs_on_a_retired_tier(tmp_path):
    service = _service(tmp_path)
    service.submit(_chaos_job("kept", 1))
    retired = dict(_chaos_job("retired", 2).payload(), tier="vector")
    service.journal.append("SUBMIT", "retired-key", seq=99, priority=0,
                           job=retired)
    del service  # never drained: "crash"

    revived = _service(tmp_path)
    assert revived.journal_replay["unaddressable"] == 1
    assert [f.job.spec["label"] for f in revived.recovered] == ["kept"]


def test_done_with_evicted_cache_entry_reexecutes(tmp_path):
    service = _service(tmp_path)
    future = service.submit(_chaos_job("a", 21))
    service.drain()
    digest = future.as_json()["digest"]
    service.cache.clear()  # the eviction race: DONE but no entry

    revived = _service(tmp_path)
    assert revived.journal_replay["done_cache_missing"] == 1
    again = revived.submit(_chaos_job("a", 21))
    revived.drain()
    assert again.status == "done"
    assert again.as_json()["digest"] == digest


def test_cancel_after_restart_of_journaled_pending_job(tmp_path):
    service = _service(tmp_path)
    service.submit(_chaos_job("keep", 5))
    service.submit(_chaos_job("drop", 6))
    del service  # crash before the drain

    revived = _service(tmp_path)
    by_label = {f.job.spec["label"]: f for f in revived.recovered}
    assert by_label["drop"].cancel()
    revived.drain()
    assert by_label["keep"].status == "done"
    assert by_label["drop"].status == "cancelled"

    # The cancellation itself is durable: a third incarnation sees
    # nothing left to do.
    third = _service(tmp_path)
    assert third.recovered == []


def test_an_executed_job_journals_submit_and_done_only(tmp_path):
    service = _service(tmp_path)
    service.submit(_chaos_job("a", 31))
    service.drain()
    with open(_journal_file(tmp_path / "journal")) as handle:
        assert [_parse(line)["op"] for line in handle] == ["SUBMIT",
                                                           "DONE"]
    assert service.journal.fsyncs == 2


def test_replay_is_deterministic_and_drain_is_incremental(tmp_path):
    service = _service(tmp_path)
    for i in range(4):
        service.submit(_chaos_job(f"j{i}", i))
    service.drain()
    # Journaled inline drains commit chunk by chunk: every job's
    # DONE was fsynced before the next job started.
    replay = JobJournal(str(tmp_path / "journal")).replay()
    assert len(replay.done) == 4
    assert replay.pending() == []


# -- the kill -9 acceptance story ------------------------------------

def test_kill_nine_mid_drain_recovers_byte_identical(tmp_path):
    """ISSUE acceptance: kill -9 a 20-job drain, restart, compare."""
    jobs = [{"label": f"k{i:02d}", "x": 997 * (i + 1), "rounds": 4}
            for i in range(20)]
    jobs[7]["kill_service"] = True  # dies mid-drain, 7 jobs in

    # The clean story: digests of an uninterrupted serial run.
    expected = {job["label"]: payload_digest(_pure_payload(job))
                for job in jobs}

    pairs = [(JobSpec(kind="service.chaos", spec=job, tier="turbo",
                      tenant="acct"), 0) for job in jobs]
    # Died mid-drain, as scheduled.
    assert launch_killed(str(tmp_path), "service", pairs) == KILL_EXIT

    # Restart against the same journal.  The launcher left the kill
    # disarmed, so the kill job completes like any other.
    revived = _service(tmp_path)
    replay = revived.journal_replay
    assert replay["recovered_pending"] == 13  # 7 durable before kill
    assert replay["done_in_cache"] == 7
    futures = {job.spec["label"]: revived.submit(job)
               for job, _ in pairs}
    revived.drain()

    for label, future in futures.items():
        assert future.status in ("done", "cached"), label
        assert future.as_json()["digest"] == expected[label], label

    # No job executed twice: the 7 durable results were served from
    # cache, only the 13 unfinished ones re-ran.
    stats = revived.stats()
    assert stats["executed"] == 13
    assert stats["cache_hits"] == 7
    meter = stats["tenants"]["acct"]
    assert meter["executed"] == 13
    assert meter["cache_hits"] == 7
