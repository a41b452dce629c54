"""The write-ahead job journal: crash-durable queue state.

QCDSP and the Columbia machines were operated as always-on shared
facilities where node failures and restarts were routine; the
machine-room layer gets the same discipline here.  Every job-state
transition the scheduler makes is appended to an on-disk log *before*
the transition is observable, so a service process that dies at any
byte — ``kill -9`` mid-drain included — can be restarted on the same
``journal_dir`` and resume exactly where it stopped: unfinished jobs
re-enter the queue in their original (priority, submission) order,
and already-completed jobs are served from the result cache.

Format
------
The journal is one append-only file, ``journal.jsonl``, in a
directory (default ``.repro-journal/``, or ``REPRO_JOURNAL_DIR``).
One record per line::

    {"crc": <crc32 of the rest>, "key": ..., "op": "SUBMIT", ...}

Records are canonical JSON (sorted keys, compact separators) with an
embedded CRC-32 over the record-without-crc, so any torn or corrupted
line is detected on replay.  Appends are flushed and ``fsync``-ed
(one fsync per batch via :meth:`JobJournal.append_many`) before the
scheduler proceeds — the write-ahead property.  Creating the file
also fsyncs the directory, so the file's name is as durable as the
first record in it.

The journal holds only what replay acts on.  Ops: ``SUBMIT``
(carries the full job payload, priority, sequence number, and
tenant), ``DONE`` (carries the payload digest), ``FAIL`` and
``CANCEL``.  A job's start is not journaled: a job that was running
when the process died is owed exactly like one that was only queued.

Replay
------
:meth:`JobJournal.replay` scans the file in order and rebuilds
per-key state.  Damage tolerance is per-line: a line that fails to
parse or fails its CRC is dropped and counted (``torn_records`` when
it is the final line of the file — the classic torn write —
``corrupt_records`` otherwise) and replay continues.  A ``DONE`` for
an unknown key (its ``SUBMIT`` was corrupted away) is an orphan; a
second ``DONE`` for the same key (a retried worker whose first
completion raced a crash) is counted ``duplicate_done`` and ignored —
first completion wins.

Compaction
----------
:meth:`JobJournal.compact` writes the ``SUBMIT`` records of the
still-live jobs to a temp file, fsyncs it, publishes it over the
journal with ``os.replace`` (atomic) and fsyncs the directory.  A
crash at any point leaves either the old journal or the new one,
whole.

A directory that still holds numbered segments (``seg-*.jsonl``)
from the older segmented layout is refused on open: they may owe
jobs, and this journal would replay none of them.
"""

import json
import os
import tempfile
import zlib

from repro.service.jobkey import canonical_json

DEFAULT_DIR = ".repro-journal"
#: The journal file inside the journal directory.
FILENAME = "journal.jsonl"

#: The record operations, in lifecycle order.
OPS = ("SUBMIT", "DONE", "FAIL", "CANCEL")


def default_journal_dir() -> str:
    """``REPRO_JOURNAL_DIR`` if set, else ``.repro-journal`` in cwd."""
    return os.environ.get("REPRO_JOURNAL_DIR") or DEFAULT_DIR


def _frame(record: dict) -> str:
    """One journal line: the record plus its CRC-32, canonical JSON."""
    body = canonical_json(record)
    crc = zlib.crc32(body.encode())
    return canonical_json({**record, "crc": crc}) + "\n"


def _parse(line: str):
    """Decode one line; ``None`` if torn/corrupt (bad JSON or CRC)."""
    try:
        record = json.loads(line)
    except ValueError:
        return None
    if not isinstance(record, dict) or "crc" not in record:
        return None
    crc = record.pop("crc")
    body = canonical_json(record)
    if zlib.crc32(body.encode()) != crc:
        return None
    if record.get("op") not in OPS:
        return None
    return record


class JournalReplay:
    """Rebuilt state of one journal: what survived, what is owed.

    ``entries`` maps key → ``{"status", "job", "priority", "seq",
    "tenant", "digest", "error"}`` in first-SUBMIT order; ``pending()``
    lists the entries still owed execution, sorted by the scheduler's
    (priority, seq) contract; ``done`` maps key → payload digest.
    """

    def __init__(self):
        self.entries = {}
        self.max_seq = 0
        self.stats = {
            "records": 0,
            "torn_records": 0,
            "corrupt_records": 0,
            "orphan_records": 0,
            "duplicate_done": 0,
        }

    def _apply(self, record: dict):
        op = record["op"]
        self.stats["records"] += 1
        key = record.get("key")
        entry = self.entries.get(key)
        if op == "SUBMIT":
            seq = int(record.get("seq", 0))
            self.max_seq = max(self.max_seq, seq)
            # A re-submit of a terminal key re-opens it: the log is
            # ordered, so the newest intent wins.
            self.entries[key] = {
                "key": key,
                "status": "submitted",
                "job": record.get("job"),
                "priority": int(record.get("priority", 0)),
                "seq": seq,
                "tenant": record.get("tenant"),
                "digest": None,
                "error": None,
            }
            return
        if entry is None:
            self.stats["orphan_records"] += 1
            return
        if op == "DONE":
            if entry["status"] == "done":
                self.stats["duplicate_done"] += 1
                return  # first completion wins
            entry["status"] = "done"
            entry["digest"] = record.get("digest")
        elif op == "FAIL":
            if entry["status"] == "submitted":
                entry["status"] = "failed"
                entry["error"] = record.get("error")
        elif op == "CANCEL":
            if entry["status"] == "submitted":
                entry["status"] = "cancelled"
                entry["error"] = record.get("reason", "cancelled")

    def pending(self) -> list:
        """Entries owed execution, in drain order — most urgent
        (lowest priority value) first, FIFO (submission seq) within
        a priority, matching the scheduler's heap."""
        live = [e for e in self.entries.values()
                if e["status"] == "submitted" and e["job"] is not None]
        return sorted(live, key=lambda e: (e["priority"], e["seq"]))

    @property
    def done(self) -> dict:
        return {k: e["digest"] for k, e in self.entries.items()
                if e["status"] == "done"}


class JobJournal:
    """Append-only, fsynced, checksummed job-transition log."""

    def __init__(self, root=None):
        self.root = os.path.abspath(root or default_journal_dir())
        os.makedirs(self.root, exist_ok=True)
        segments = sorted(name for name in os.listdir(self.root)
                          if name.startswith("seg-")
                          and name.endswith(".jsonl"))
        if segments:
            raise RuntimeError(
                f"journal directory {self.root} holds segments of the "
                f"older segmented layout ({', '.join(segments)}); "
                f"this journal replays only {FILENAME}, so the jobs "
                f"they owe would be lost — finish them with the "
                f"version that wrote them, or move the files away"
            )
        self.path = os.path.join(self.root, FILENAME)
        self._handle = None
        # Counters (surfaced through service_stats).
        self.appends = 0
        self.fsyncs = 0
        self.compactions = 0

    def _sync_dir(self):
        """fsync the journal directory (rename/create durability)."""
        try:
            fd = os.open(self.root, os.O_RDONLY)
        except OSError:
            return
        try:
            os.fsync(fd)
        except OSError:
            pass
        finally:
            os.close(fd)

    def _open(self):
        """The append handle, opened on first use.  Creating the file
        fsyncs the directory too: fsync of the file alone does not
        make its new directory entry durable."""
        if self._handle is None:
            created = not os.path.exists(self.path)
            self._handle = open(self.path, "a")
            if created:
                self._sync_dir()
        return self._handle

    # -- appends ------------------------------------------------------

    def append(self, op: str, key=None, **fields):
        """Append one record (flushed and fsynced before returning)."""
        record = {"op": op}
        if key is not None:
            record["key"] = key
        record.update(fields)
        self.append_many([record])

    def append_many(self, records):
        """Append a batch of records with a single flush + fsync.

        The write-ahead contract: when this returns, every record is
        durable (to the extent the filesystem honours fsync) — the
        caller may then act on the transitions.
        """
        if not records:
            return
        handle = self._open()
        for record in records:
            handle.write(_frame(record))
            self.appends += 1
        handle.flush()
        os.fsync(handle.fileno())
        self.fsyncs += 1

    # -- replay -------------------------------------------------------

    def replay(self) -> JournalReplay:
        """Rebuild state from the journal file.

        Damage-tolerant per line: unparseable or CRC-failing lines are
        dropped and counted (torn when final, corrupt otherwise) and
        replay continues with the next line.
        """
        replay = JournalReplay()
        try:
            with open(self.path, "r") as handle:
                lines = [line for line in handle if line.strip()]
        except FileNotFoundError:
            lines = []
        for position, line in enumerate(lines):
            record = _parse(line)
            if record is None:
                if position == len(lines) - 1:
                    replay.stats["torn_records"] += 1
                else:
                    replay.stats["corrupt_records"] += 1
                continue
            replay._apply(record)
        return replay

    # -- compaction ---------------------------------------------------

    def size_bytes(self) -> int:
        try:
            return os.path.getsize(self.path)
        except FileNotFoundError:
            return 0

    def compact(self, submit_records):
        """Rewrite the journal down to the live jobs.

        ``submit_records`` are the SUBMIT-shaped dicts for every job
        still owed execution (the scheduler knows).  They are written
        whole to a temp file and published over the journal
        atomically, so a crash leaves the old journal or the new one.
        """
        self.close()
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                for record in submit_records:
                    handle.write(_frame({"op": "SUBMIT", **record}))
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, self.path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self._sync_dir()
        self.compactions += 1
        self.appends += len(submit_records)

    # -- lifecycle ----------------------------------------------------

    def close(self):
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def stats(self) -> dict:
        return {
            "root": self.root,
            "size_bytes": self.size_bytes(),
            "appends": self.appends,
            "fsyncs": self.fsyncs,
            "compactions": self.compactions,
        }
