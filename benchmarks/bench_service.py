"""Machine-room serving benchmark: cold vs. warm throughput.

The service layer exists because a simulator's real traffic is
thousands of near-duplicate configuration runs: the same
``(config, workload, tier, seed)`` cell resubmitted by every bench,
fuzz campaign, and user.  This bench measures what the
content-addressed cache buys on that traffic and proves the safety
property that makes it usable at all:

* **Cold pass** — a mixed batch (CP programs, event schedules, Occam
  pipelines, vector workloads, a golden workload) submitted to a
  fresh cache; every job simulates.  Duplicate submissions inside the
  batch exercise in-flight coalescing.
* **Warm pass** — the identical batch against the now-populated
  store, through a *new* service instance (so even the memory LRU is
  cold and hits come off disk); no job simulates.
* **Identity gate** — the warm payloads must be byte-identical
  (canonical JSON) to the cold pass's fresh simulations, per job, on
  every kernel tier (reference / turbo).

* **Journal overhead** — the same cold pass with a write-ahead job
  journal attached (every SUBMIT and DONE fsynced) must stay within
  10% of the no-journal cold wall: durability is priced per job, and
  the price must be negligible against real simulation work.

* **Store scaling** — a fresh instance makes new stores below the
  size bound into a store another instance prefilled (300 entries
  quick, 2,000 full; 50 or 200 stores), and the same number into an
  empty store.  The cache keeps a running byte count, so each run
  must make exactly one full scan of the disk tier (on its first
  store) and no size eviction, whatever the store holds.  Milliseconds
  per put into the empty and the prefilled store are reported but not
  gated: their ratio is too noisy on a shared host.

Acceptance (full mode): warm ≥ 10x faster than cold on every tier,
every warm job served from cache, every payload byte-identical, and
the journaled cold pass ≤ 1.10x the plain cold pass.  The store-scaling
counts are gated in both modes.

Run directly::

    PYTHONPATH=src python benchmarks/bench_service.py          # full
    PYTHONPATH=src python benchmarks/bench_service.py --quick  # smoke
"""

import argparse
import hashlib
import json
import pathlib
import shutil
import sys
import tempfile
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
sys.path.insert(
    0, str(pathlib.Path(__file__).resolve().parent.parent / "src")
)

from repro.analysis import Table, service_stats
from repro.events.engine import KERNEL_TIERS
from repro.service import (
    JobSpec,
    ResultCache,
    SimulationService,
    canonical_json,
)

from _util import save_report

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_JSON = ROOT / "BENCH_service.json"

WARM_SPEEDUP_TARGET = 10.0
#: Journaled cold pass must cost at most this multiple of the plain
#: cold pass (the fsync-per-chunk price of durability).
JOURNAL_OVERHEAD_TARGET = 1.10
#: Store scaling: entries another instance prefills, and new stores
#: made below the bound, keyed by ``quick``.
SCALING_PREFILL = {True: 300, False: 2000}
SCALING_STORES = {True: 50, False: 200}


def _batch(quick: bool) -> list:
    """The mixed workload batch (kind, spec) — scaled so a cold pass
    is real simulation work, not harness overhead."""
    # Weighted toward compute-heavy, small-payload work (the Occam
    # interpreter and the CP loop): warm cost scales with payload
    # bytes (read + checksum), cold cost with simulated work, so this
    # mix is what a cache actually serves well.  The vector job keeps
    # a deliberately fat payload in the mix to price the checksum.
    loops = 40 if quick else 300
    n = 500 if quick else 2000
    reps = 50 if quick else 8000
    jobs = [
        ("cp", {"kind": "cp", "units": [
            {"t": "arith", "ops": [["ldc", 123456], ["adc", -7],
                                   ["dup"], ["gt"], ["mint"], ["not"]]},
            {"t": "loop", "count": loops,
             "body": [["ldc", 3], ["adc", 4], ["stl", 7], ["ldl", 7]]},
            {"t": "patchpad",
             "pad": [[0x4, 1], [0x8, 2], [0x4, 3], [0xC, 4]],
             "reps": 4},
        ], "patches": [{"after": 40, "offset": 1, "byte": 0x45}]}),
        ("events", {"kind": "events", "channels": 2, "stores": [[2]],
                    "resources": [[1]],
                    "procs": [
                        [["timeout", 5], ["put", 0, 42],
                         ["sput", 0, 7], ["hold", 0, 25],
                         ["put", 1, -3]],
                        [["get", 0], ["timeout", 0.5], ["get", 1],
                         ["sget", 0], ["refire"]],
                        [["timeout", 12.25], ["hold", 0, 10],
                         ["spawn", 8, 4], ["sput", 0, 99]],
                    ],
                    "interrupts": []}),
        ("occam", {"kind": "occam", "program": ["seq", [
            ["assign", "acc", ["num", 0]],
            ["repseq", "i", 0, reps,
             ["assign", "acc",
              ["add", ["var", "acc"], ["var", "i"]]]],
        ]]}),
        ("vector", {"kind": "vector", "ops": [
            {"form": "VADD", "n": n, "precision": 64, "seed": 7,
             "scalars": [], "specials": False},
            {"form": "DOT", "n": n, "precision": 64, "seed": 9,
             "scalars": [], "specials": False},
            {"form": "SAXPY", "n": n, "precision": 32, "seed": 10,
             "scalars": [-1.25], "specials": True},
        ]}),
        ("golden", {"name": "node_gather_scatter"}),
        ("vector", {"kind": "vector", "ops": [
            {"form": "SUM", "n": n, "precision": 64, "seed": 11,
             "scalars": [], "specials": True},
        ]}),
    ]
    return jobs


def _submit_all(service, jobs, tier):
    futures = [
        service.submit(JobSpec(kind=kind, spec=spec, tier=tier))
        for kind, spec in jobs
    ]
    # Resubmit the first two jobs: identical keys must coalesce (cold)
    # or answer from cache (warm), never simulate twice.
    for kind, spec in jobs[:2]:
        futures.append(
            service.submit(JobSpec(kind=kind, spec=spec, tier=tier))
        )
    service.drain()
    return futures


def _canonical_payloads(futures) -> str:
    return canonical_json([f.result() for f in futures])


def run_tier(tier: str, jobs, cache_root: str) -> dict:
    cold_service = SimulationService(cache=ResultCache(root=cache_root))
    t0 = time.perf_counter()
    cold_futures = _submit_all(cold_service, jobs, tier)
    cold_wall = time.perf_counter() - t0
    cold_stats = service_stats(cold_service)

    # A fresh service instance: the memory LRU starts empty, so warm
    # hits prove the on-disk store, not a dict lookup.
    warm_service = SimulationService(cache=ResultCache(root=cache_root))
    t0 = time.perf_counter()
    warm_futures = _submit_all(warm_service, jobs, tier)
    warm_wall = time.perf_counter() - t0
    warm_stats = service_stats(warm_service)

    return {
        "tier": tier,
        "jobs": len(jobs),
        "submissions": len(cold_futures),
        "cold_wall_s": cold_wall,
        "warm_wall_s": warm_wall,
        "warm_speedup": cold_wall / warm_wall,
        "cold_executed": cold_stats["executed"],
        "cold_coalesced": cold_stats["coalesced"],
        "warm_cache_hits": warm_stats["cache_hits"],
        "warm_executed": warm_stats["executed"],
        "all_warm_cached": all(
            f.status == "cached" for f in warm_futures
        ),
        "byte_identical": (
            _canonical_payloads(cold_futures)
            == _canonical_payloads(warm_futures)
        ),
    }


def run_journal_overhead(jobs, tier: str = "turbo",
                         repeats: int = 3) -> dict:
    """Cold-pass wall with and without the write-ahead journal.

    Best-of-``repeats`` on each side so one scheduler hiccup cannot
    fail the gate; fresh cache and journal directories per run so
    every pass is genuinely cold.
    """
    walls = {"plain": [], "journal": []}
    for mode in ("plain", "journal"):
        for _ in range(repeats):
            root = tempfile.mkdtemp(prefix="repro-service-jrnl-")
            try:
                service = SimulationService(
                    cache=ResultCache(
                        root=str(pathlib.Path(root) / "cache")),
                    journal_dir=(str(pathlib.Path(root) / "journal")
                                 if mode == "journal" else None),
                )
                t0 = time.perf_counter()
                _submit_all(service, jobs, tier)
                walls[mode].append(time.perf_counter() - t0)
            finally:
                shutil.rmtree(root, ignore_errors=True)
    plain = min(walls["plain"])
    journaled = min(walls["journal"])
    return {
        "tier": tier,
        "plain_cold_s": plain,
        "journaled_cold_s": journaled,
        "overhead_ratio": journaled / plain,
        "target_ratio": JOURNAL_OVERHEAD_TARGET,
        "within_target": (journaled / plain
                          <= JOURNAL_OVERHEAD_TARGET),
    }


def _scaling_entry(index: int):
    """One store-scaling entry: a distinct key and a payload about the
    size of a tiny job's result (~1.2 KB on disk)."""
    key = hashlib.sha256(f"store-scaling:{index}".encode()).hexdigest()
    return key, {"index": index, "pad": "z" * 1000}


def _timed_stores(root: str, first: int, count: int) -> dict:
    """``count`` new stores into ``root`` through a fresh instance (a
    restarted server): ms per put, full disk scans, size evictions."""
    entries_before = ResultCache(root=root).disk_usage()["entries"]
    cache = ResultCache(root=root)
    entries = [_scaling_entry(i) for i in range(first, first + count)]
    t0 = time.perf_counter()
    for key, value in entries:
        cache.put(key, value)
    wall = time.perf_counter() - t0
    stats = cache.stats()
    return {
        "entries_before": entries_before,
        "stores": count,
        "ms_per_put": wall / count * 1e3,
        "disk_scans": stats["disk_scans"],
        "size_evictions": stats["size_evictions"],
    }


def run_store_scaling(quick: bool) -> dict:
    """Stores below the bound into an empty and a prefilled store."""
    prefill, stores = SCALING_PREFILL[quick], SCALING_STORES[quick]
    root = pathlib.Path(tempfile.mkdtemp(prefix="repro-service-scale-"))
    try:
        empty = _timed_stores(str(root / "empty"), 0, stores)
        filler = ResultCache(root=str(root / "prefilled"))
        for index in range(stores, stores + prefill):
            filler.put(*_scaling_entry(index))
        prefilled = _timed_stores(str(root / "prefilled"),
                                  stores + prefill, stores)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    runs = {"empty": empty, "prefilled": prefilled}
    return {
        "runs": runs,
        "prefilled_vs_empty": (prefilled["ms_per_put"]
                               / empty["ms_per_put"]),
        "counts_ok": all(r["disk_scans"] == 1
                         and r["size_evictions"] == 0
                         for r in runs.values()),
    }


def run_benchmark(quick: bool = False) -> dict:
    jobs = _batch(quick)
    tiers = {}
    cache_root = tempfile.mkdtemp(prefix="repro-service-bench-")
    try:
        for tier in KERNEL_TIERS:
            tiers[tier] = run_tier(tier, jobs, cache_root)
    finally:
        shutil.rmtree(cache_root, ignore_errors=True)
    journal = run_journal_overhead(jobs)
    return {
        "journal_overhead": journal,
        "store_scaling": run_store_scaling(quick),
        "benchmark": "service",
        "quick": quick,
        "warm_speedup_target": WARM_SPEEDUP_TARGET,
        "tiers": tiers,
        "min_warm_speedup": min(
            t["warm_speedup"] for t in tiers.values()
        ),
        "all_byte_identical": all(
            t["byte_identical"] for t in tiers.values()
        ),
        "all_warm_cached": all(
            t["all_warm_cached"] for t in tiers.values()
        ),
        "coalescing_observed": all(
            t["cold_coalesced"] == 2 and
            t["cold_executed"] == t["jobs"]
            for t in tiers.values()
        ),
    }


def render(payload: dict) -> Table:
    table = Table(
        "Service cold vs. warm throughput "
        f"(target >= {payload['warm_speedup_target']}x warm)",
        ["tier", "jobs", "cold s", "warm s", "speedup",
         "warm cached", "byte identical"],
    )
    for tier, r in payload["tiers"].items():
        table.add(tier, r["jobs"],
                  round(r["cold_wall_s"], 4),
                  round(r["warm_wall_s"], 4),
                  round(r["warm_speedup"], 2),
                  r["all_warm_cached"], r["byte_identical"])
    j = payload["journal_overhead"]
    table.add(f"{j['tier']}+journal", "-",
              round(j["journaled_cold_s"], 4), "-",
              f"{round(j['overhead_ratio'], 3)}x cold",
              "-", j["within_target"])
    return table


def render_scaling(scaling: dict) -> Table:
    table = Table(
        "Result-store scaling (gate: 1 disk scan, 0 evictions per run)",
        ["store", "entries before", "stores", "ms/put", "disk scans",
         "size evictions"],
    )
    for name, run in scaling["runs"].items():
        table.add(name, run["entries_before"], run["stores"],
                  round(run["ms_per_put"], 3), run["disk_scans"],
                  run["size_evictions"])
    return table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="small batch; identity gated, speedup target not",
    )
    parser.add_argument(
        "--no-json", action="store_true",
        help="skip writing BENCH_service.json (exploratory runs)",
    )
    args = parser.parse_args(argv)

    payload = run_benchmark(quick=args.quick)
    save_report("service", render(payload),
                render_scaling(payload["store_scaling"]))

    payload["acceptance"] = {
        "min_warm_speedup": round(payload["min_warm_speedup"], 2),
        "warm_speedup_target": WARM_SPEEDUP_TARGET,
        "speedup_target_applies": not args.quick,
        "all_byte_identical": payload["all_byte_identical"],
        "all_warm_cached": payload["all_warm_cached"],
        "coalescing_observed": payload["coalescing_observed"],
        "journal_overhead_ratio": round(
            payload["journal_overhead"]["overhead_ratio"], 3),
        "journal_overhead_target": JOURNAL_OVERHEAD_TARGET,
        "journal_overhead_ok": (
            payload["journal_overhead"]["within_target"]),
        "store_scaling_disk_scans": (
            payload["store_scaling"]["runs"]["prefilled"]["disk_scans"]),
        "store_scaling_counts_ok": (
            payload["store_scaling"]["counts_ok"]),
        "store_scaling_prefilled_vs_empty": round(
            payload["store_scaling"]["prefilled_vs_empty"], 2),
    }
    if not args.no_json:
        BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"\nwrote {BENCH_JSON}")

    ok = (payload["all_byte_identical"] and payload["all_warm_cached"]
          and payload["coalescing_observed"]
          and payload["store_scaling"]["counts_ok"])
    if not args.quick:
        ok = ok and payload["min_warm_speedup"] >= WARM_SPEEDUP_TARGET
        ok = ok and payload["journal_overhead"]["within_target"]
    print("\nacceptance:", json.dumps(payload["acceptance"], indent=2))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
