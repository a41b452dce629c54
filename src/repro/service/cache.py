"""The content-addressed result cache: memory LRU over a disk store.

A cache entry maps a job key (see :mod:`repro.service.jobkey`) to the
JSON-normalised result payload of one simulation.  Because the key
already folds in the schema version, the golden-set semantics
fingerprint, and the runner source digest, the store never needs
explicit invalidation — stale entries simply stop being addressed and
age out under the size bound.

Two tiers:

* **Memory** — an ``OrderedDict`` LRU holding the most recently
  touched payloads (bounded by entry count).  Hits cost a dict lookup.
* **Disk** — one JSON envelope per entry under ``.repro-cache/`` (or
  ``REPRO_CACHE_DIR``), fanned out by key prefix.  Writes are atomic
  (temp file + ``os.replace`` in the same directory) so a crashed or
  concurrent writer can never leave a half-entry where a reader finds
  it.  Every envelope embeds a checksum of the payload's canonical
  JSON; a read that fails to parse, fails the checksum, or holds the
  wrong key is treated as corruption — the file is deleted, the miss
  is reported, and the job simply re-simulates.

Disk usage is bounded by ``disk_bytes`` without rescanning the store
on every write.  The cache keeps a running count of the bytes its disk
tier holds: the first store (not construction, so a server starts
without paying for it) scans the whole store once, and each later
store adds the bytes it just wrote.  Only when the count exceeds
``disk_bytes`` does a store rescan the disk tier, evict entries oldest
first until the store fits, and reset the count to what that scan
found; ``clear()`` forgets the count.  A store below the bound thus
costs one atomic write whatever the store's size.  The count may
over-estimate this process's bytes but never under-estimates them
(an overwritten key or a corrupt eviction only brings the next rescan
forward), so a single writer evicts exactly the entries, in exactly
the order, that a rescan after every store would.  Eviction order is
fully deterministic — (mtime, then key) — so two stores that reach
the bound with the same entry set evict the same victims regardless
of filesystem timestamp resolution or directory-scan order.

Entries that another process writes into the same root while this
one runs are not in this process's count: they are counted at its
next rescan or on restart (a restarted process scans on its first
store), so concurrent writers can together overshoot the bound until
one of them rescans.
"""

import json
import os
import tempfile
from collections import OrderedDict

from repro.service.jobkey import canonical_json, payload_digest

#: Envelope format marker; entries with a different format are
#: treated as corrupt (deleted and re-simulated).
CACHE_FORMAT = 1

DEFAULT_DIR = ".repro-cache"
DEFAULT_MEMORY_ENTRIES = 256
DEFAULT_DISK_BYTES = 256 * 1024 * 1024


def default_cache_dir() -> str:
    """``REPRO_CACHE_DIR`` if set, else ``.repro-cache`` in the cwd."""
    return os.environ.get("REPRO_CACHE_DIR") or DEFAULT_DIR


class ResultCache:
    """Two-tier content-addressed store for job result payloads."""

    def __init__(self, root=None, memory_entries=DEFAULT_MEMORY_ENTRIES,
                 disk_bytes=DEFAULT_DISK_BYTES):
        self.root = os.path.abspath(root or default_cache_dir())
        self.memory_entries = max(0, int(memory_entries))
        self.disk_bytes = max(0, int(disk_bytes))
        self._memory = OrderedDict()
        # Counters (surfaced through repro.analysis.service_stats).
        self.memory_hits = 0
        self.disk_hits = 0
        self.misses = 0
        self.stores = 0
        self.corrupt_evictions = 0
        self.size_evictions = 0
        self.disk_scans = 0
        # Bytes the disk tier holds as far as this process knows; None
        # until the first store scans the store (see module docs).
        self._disk_total = None

    # -- addressing ---------------------------------------------------

    def _path(self, key: str) -> str:
        return os.path.join(self.root, key[:2], f"{key}.json")

    # -- memory tier --------------------------------------------------

    def _remember(self, key: str, value):
        self._memory[key] = value
        self._memory.move_to_end(key)
        while len(self._memory) > self.memory_entries:
            self._memory.popitem(last=False)

    # -- public api ---------------------------------------------------

    def get(self, key: str):
        """The cached payload for ``key``, or ``None`` on a miss.

        Never raises on a bad disk entry: corruption is counted, the
        entry evicted, and the miss reported so the scheduler
        re-simulates.
        """
        if key in self._memory:
            self._memory.move_to_end(key)
            self.memory_hits += 1
            return self._memory[key]
        path = self._path(key)
        try:
            with open(path, "r") as handle:
                envelope = json.load(handle)
        except FileNotFoundError:
            self.misses += 1
            return None
        except (OSError, ValueError):
            self._evict_corrupt(path)
            self.misses += 1
            return None
        if not self._sound(envelope, key):
            self._evict_corrupt(path)
            self.misses += 1
            return None
        value = envelope["value"]
        self._remember(key, value)
        self.disk_hits += 1
        return value

    def put(self, key: str, value, job=None):
        """Store one result payload (atomically) and enforce bounds.

        ``value`` must be JSON-normalised (the scheduler's payloads
        come off :func:`repro.parallel.run_cells`, which guarantees
        it); the embedded checksum is over its canonical JSON, so a
        later read can prove byte-identity before serving it.  Returns
        that checksum, the payload's :func:`payload_digest`.
        """
        checksum = payload_digest(value)
        envelope = {
            "format": CACHE_FORMAT,
            "key": key,
            "checksum": checksum,
            "value": value,
            "job": job,
        }
        path = self._path(key)
        directory = os.path.dirname(path)
        os.makedirs(directory, exist_ok=True)
        data = canonical_json(envelope).encode()
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self._remember(key, value)
        self.stores += 1
        if self._disk_total is not None:
            self._disk_total += len(data)
        if self._disk_total is None or self._disk_total > self.disk_bytes:
            self._enforce_size_bound()
        return checksum

    def clear(self):
        """Drop both tiers (the on-disk store too)."""
        self._memory.clear()
        self._disk_total = None
        for path, _size, _mtime in self._disk_entries():
            try:
                os.unlink(path)
            except OSError:
                pass

    # -- integrity ----------------------------------------------------

    @staticmethod
    def _sound(envelope, key: str) -> bool:
        if not isinstance(envelope, dict):
            return False
        if envelope.get("format") != CACHE_FORMAT:
            return False
        if envelope.get("key") != key:
            return False
        if "value" not in envelope:
            return False
        return envelope.get("checksum") == payload_digest(
            envelope["value"]
        )

    def _evict_corrupt(self, path: str):
        self.corrupt_evictions += 1
        try:
            os.unlink(path)
        except OSError:
            pass

    # -- size bound ---------------------------------------------------

    def _disk_entries(self):
        """Every on-disk entry as ``(path, size, mtime)``: one full
        scan of the disk tier."""
        self.disk_scans += 1
        entries = []
        try:
            shards = os.scandir(self.root)
        except OSError:
            return entries
        with shards:
            for shard in shards:
                if not shard.is_dir():
                    continue
                try:
                    files = os.scandir(shard.path)
                except OSError:
                    continue
                with files:
                    for item in files:
                        if not item.name.endswith(".json"):
                            continue
                        try:
                            stat = item.stat()
                        except OSError:
                            continue
                        entries.append(
                            (item.path, stat.st_size, stat.st_mtime_ns)
                        )
        return entries

    def disk_usage(self) -> dict:
        """Entry count and byte total of the disk tier."""
        entries = self._disk_entries()
        return {
            "entries": len(entries),
            "bytes": sum(size for _p, size, _m in entries),
            "bound_bytes": self.disk_bytes,
        }

    @staticmethod
    def _entry_key(path: str) -> str:
        """The job key an entry file stores (its basename sans
        ``.json``) — the deterministic eviction tie-break."""
        return os.path.basename(path)[:-len(".json")]

    def _enforce_size_bound(self):
        """Rescan the disk tier, evict oldest-first until it fits
        ``disk_bytes``, and reset the running count to the result."""
        entries = self._disk_entries()
        total = sum(size for _p, size, _m in entries)
        if total > self.disk_bytes:
            # Oldest mtime first; the entry's key breaks mtime ties, so
            # eviction order is a pure function of (entry set, mtimes)
            # — never of scan order or timestamp granularity.
            entries.sort(key=lambda e: (e[2], self._entry_key(e[0])))
            for path, size, _mtime in entries:
                if total <= self.disk_bytes:
                    break
                try:
                    os.unlink(path)
                except OSError:
                    continue
                total -= size
                self.size_evictions += 1
        self._disk_total = total

    # -- stats --------------------------------------------------------

    def stats(self) -> dict:
        return {
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "misses": self.misses,
            "stores": self.stores,
            "corrupt_evictions": self.corrupt_evictions,
            "size_evictions": self.size_evictions,
            "disk_scans": self.disk_scans,
            "memory_entries": len(self._memory),
            "root": self.root,
        }
