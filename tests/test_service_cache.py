"""Result-cache integrity: round-trips, corruption, eviction."""

import json
import os

from repro.service.cache import ResultCache
from repro.service.jobkey import payload_digest

KEY_A = "a" * 64
KEY_B = "b" * 64
KEY_C = "c" * 64


def _cache(tmp_path, **kwargs):
    return ResultCache(root=str(tmp_path / "cache"), **kwargs)


def test_round_trip_memory_and_disk(tmp_path):
    cache = _cache(tmp_path)
    value = {"now": 123, "results": [{"bits": "ff00"}]}
    cache.put(KEY_A, value, job={"kind": "vector"})
    assert cache.get(KEY_A) == value
    assert cache.memory_hits == 1

    # A fresh instance has a cold memory tier: the hit must come off
    # disk and carry byte-identical content.
    fresh = _cache(tmp_path)
    got = fresh.get(KEY_A)
    assert got == value
    assert fresh.disk_hits == 1
    assert payload_digest(got) == payload_digest(value)


def test_miss_is_counted(tmp_path):
    cache = _cache(tmp_path)
    assert cache.get(KEY_A) is None
    assert cache.misses == 1


def _entry_path(cache, key):
    return os.path.join(cache.root, key[:2], f"{key}.json")


def test_truncated_entry_detected_evicted_and_resimulated(tmp_path):
    cache = _cache(tmp_path)
    cache.put(KEY_A, {"x": 1})
    path = _entry_path(cache, KEY_A)
    with open(path, "r") as handle:
        body = handle.read()
    with open(path, "w") as handle:
        handle.write(body[: len(body) // 2])  # truncate mid-JSON

    fresh = _cache(tmp_path)
    assert fresh.get(KEY_A) is None          # detected, not served
    assert fresh.corrupt_evictions == 1
    assert not os.path.exists(path)          # evicted
    # Re-simulation stores a sound entry again.
    fresh.put(KEY_A, {"x": 1})
    assert _cache(tmp_path).get(KEY_A) == {"x": 1}


def test_checksum_mismatch_detected(tmp_path):
    cache = _cache(tmp_path)
    cache.put(KEY_A, {"x": 1})
    path = _entry_path(cache, KEY_A)
    with open(path) as handle:
        envelope = json.load(handle)
    envelope["value"] = {"x": 2}  # bit-flip the payload, not the sum
    with open(path, "w") as handle:
        json.dump(envelope, handle)

    fresh = _cache(tmp_path)
    assert fresh.get(KEY_A) is None
    assert fresh.corrupt_evictions == 1
    assert not os.path.exists(path)


def test_wrong_key_entry_detected(tmp_path):
    cache = _cache(tmp_path)
    cache.put(KEY_A, {"x": 1})
    source = _entry_path(cache, KEY_A)
    target = _entry_path(cache, KEY_B)
    os.makedirs(os.path.dirname(target), exist_ok=True)
    os.rename(source, target)  # entry now lies about its address

    fresh = _cache(tmp_path)
    assert fresh.get(KEY_B) is None
    assert fresh.corrupt_evictions == 1


def test_size_bound_evicts_oldest_first(tmp_path):
    # Calibrate: one entry's on-disk size, then bound the store so it
    # holds exactly one of them.
    probe = _cache(tmp_path)
    probe.put(KEY_A, {"x": "a" * 100})
    entry_bytes = probe.disk_usage()["bytes"]
    probe.clear()

    cache = _cache(tmp_path, disk_bytes=int(entry_bytes * 1.5))
    cache.put(KEY_A, {"x": "a" * 100})
    cache.put(KEY_B, {"x": "b" * 100})  # same size; bound fits one
    assert cache.size_evictions == 1
    assert cache.disk_usage()["bytes"] <= cache.disk_bytes
    fresh = _cache(tmp_path)
    assert fresh.get(KEY_A) is None          # oldest evicted
    assert fresh.get(KEY_B) == {"x": "b" * 100}  # newest kept


def test_size_bound_keeps_store_bounded(tmp_path):
    bound = 4096
    cache = _cache(tmp_path, disk_bytes=bound)
    for index in range(20):
        key = f"{index:02x}" * 32
        cache.put(key, {"payload": "z" * 400, "index": index})
    assert cache.disk_usage()["bytes"] <= bound
    assert cache.size_evictions > 0
    # The newest entry survives eviction (oldest-first policy).
    assert _cache(tmp_path).get("13" * 32) is not None


def test_memory_lru_bounded_but_disk_persists(tmp_path):
    cache = _cache(tmp_path, memory_entries=2)
    for key in (KEY_A, KEY_B, KEY_C):
        cache.put(key, {"k": key[:2]})
    assert len(cache._memory) == 2
    # Aged out of memory, still served from disk.
    assert cache.get(KEY_A) == {"k": "aa"}
    assert cache.disk_hits == 1


def test_atomic_writes_leave_no_temp_files(tmp_path):
    cache = _cache(tmp_path)
    for index in range(5):
        cache.put(f"{index:02x}" * 32, {"index": index})
    leftovers = [
        name
        for _root, _dirs, files in os.walk(cache.root)
        for name in files
        if not name.endswith(".json")
    ]
    assert leftovers == []


def test_clear_empties_both_tiers(tmp_path):
    cache = _cache(tmp_path)
    cache.put(KEY_A, {"x": 1})
    cache.clear()
    assert cache.disk_usage()["entries"] == 0
    fresh = _cache(tmp_path)
    assert fresh.get(KEY_A) is None


def test_eviction_order_deterministic_under_equal_mtimes(tmp_path):
    """mtime ties break on the entry key: eviction is a pure function
    of (entry set, mtimes), never of scan order or clock resolution."""
    keys = sorted(f"{d:02x}" * 32 for d in (0x3c, 0x11, 0xe7, 0x88))
    probe = _cache(tmp_path)
    for key in keys:
        probe.put(key, {"pad": "z" * 64})
    per_entry = probe.disk_usage()["bytes"] // len(keys)
    # Force every entry to the same mtime — the worst case a coarse
    # filesystem clock can produce.
    for key in keys:
        os.utime(_entry_path(probe, key), ns=(1_000_000, 1_000_000))

    cache = _cache(tmp_path, disk_bytes=int(per_entry * 2.5))
    cache._enforce_size_bound()
    survivors = sorted(
        cache._entry_key(path)
        for path, _size, _mtime in cache._disk_entries()
    )
    # All mtimes equal, so the lexicographically-smallest keys are
    # evicted first and exactly the two largest keys survive.
    assert survivors == keys[-2:]


# -- the running byte count -------------------------------------------

def _key(index):
    return f"{index:02x}" * 32


def _entry_bytes(tmp_path, value):
    """On-disk size of one entry holding ``value``."""
    probe = ResultCache(root=str(tmp_path / "probe"))
    probe.put(KEY_A, value)
    return probe.disk_usage()["bytes"]


def test_stores_below_bound_scan_the_store_once(tmp_path):
    # Another instance filled the store (a server restarted on it).
    filler = _cache(tmp_path)
    for index in range(30):
        filler.put(_key(index), {"index": index})
    cache = _cache(tmp_path)
    assert cache.disk_scans == 0             # construction never scans
    for index in range(30, 80):
        cache.put(_key(index), {"index": index})
    # One scan on the first store learns the byte total; the other 49
    # stores add what they wrote.  A rescan per store would make 50.
    assert cache.disk_scans == 1
    assert cache.stats()["disk_scans"] == 1
    assert cache.size_evictions == 0
    assert cache.disk_usage()["entries"] == 80


def test_store_below_bound_after_eviction_does_not_rescan(tmp_path):
    big, small = {"pad": "z" * 2000}, {"pad": "z" * 50}
    big_bytes = _entry_bytes(tmp_path, big)
    small_bytes = _entry_bytes(tmp_path, small)
    cache = _cache(tmp_path, disk_bytes=big_bytes + int(2.5 * small_bytes))
    # The big entry is the oldest (and has the smallest key, should
    # the filesystem clock tie), so the crossing store evicts it alone.
    cache.put(_key(0), big)
    for index in (1, 2, 3):
        cache.put(_key(index), small)
    assert cache.size_evictions == 1
    assert cache.disk_scans == 2             # first store + crossing
    cache.put(_key(4), small)                # 4 small < big + 2.5 small
    assert cache.disk_scans == 2
    assert cache.size_evictions == 1
    assert cache.disk_usage()["bytes"] <= cache.disk_bytes


def test_clear_forgets_count_and_eviction_stays_oldest_first(tmp_path):
    value = {"x": "a" * 100}
    cache = _cache(tmp_path,
                   disk_bytes=int(_entry_bytes(tmp_path, value) * 2.5))
    cache.put(KEY_C, value)
    cache.clear()
    scans = cache.disk_scans
    cache.put(KEY_A, value)
    assert cache.disk_scans == scans + 1     # the count was forgotten
    cache.put(KEY_B, value)
    cache.put(KEY_C, value)                  # crosses the bound
    assert cache.size_evictions == 1
    fresh = _cache(tmp_path)
    assert fresh.get(KEY_A) is None          # oldest evicted
    assert fresh.get(KEY_B) == value
    assert fresh.get(KEY_C) == value         # newest kept


def test_overwrite_and_corrupt_eviction_never_exceed_bound(tmp_path):
    small, big = {"pad": "z" * 100}, {"pad": "z" * 400}
    bound = int(_entry_bytes(tmp_path, small) * 3.5)
    cache = _cache(tmp_path, disk_bytes=bound)

    def store(key, value):
        cache.put(key, value)
        assert cache.disk_usage()["bytes"] <= bound

    store(KEY_A, small)
    store(KEY_B, small)
    store(KEY_B, small)                      # same key twice
    store(KEY_B, big)                        # and grown in place
    store(KEY_C, small)
    # Truncate one entry; the read evicts it as corrupt.
    path = _entry_path(cache, KEY_C)
    with open(path, "r+") as handle:
        handle.truncate(10)
    cache._memory.clear()
    assert cache.get(KEY_C) is None
    assert cache.corrupt_evictions == 1
    for index in range(6):
        store(_key(index), small)
    assert cache.size_evictions > 0


def test_restart_past_smaller_bound_evicts_on_first_store(tmp_path):
    """A process killed mid-run and restarted with a smaller bound:
    the first store's scan sees the whole store and evicts at once."""
    value = {"pad": "z" * 100}
    filler = _cache(tmp_path)
    for index in range(10):
        filler.put(_key(index), value)
    bound = int(_entry_bytes(tmp_path, value) * 3.5)
    cache = _cache(tmp_path, disk_bytes=bound)
    cache.put(_key(10), value)
    assert cache.disk_scans == 1
    assert cache.size_evictions == 8
    assert cache.disk_usage()["bytes"] <= bound
    fresh = _cache(tmp_path)
    assert fresh.get(_key(10)) == value      # newest kept
    assert fresh.get(_key(0)) is None        # oldest evicted
