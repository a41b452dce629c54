"""Network serving benchmark: remote overhead over the machine room.

The serving front-end (:mod:`repro.service.net`) puts a socket
between the submitter and :class:`SimulationService`.  This bench
prices that socket and gates the two properties that make remote
serving usable:

* **Warm remote throughput** — one persistent framed-protocol client
  submitting the same warm-cache job back to back over a Unix socket.
  Every request crosses the wire, is admitted, answered from the
  cache, and framed back.  Gate: ≥ 100 requests/second.
* **Remote overhead** — the p50 per-request latency of that warm
  remote loop minus the p50 of the identical loop calling
  ``service.submit`` in-process.  The difference is pure front-end:
  framing, CRC, the event loop, the executor hop.  Gate: ≤ 5 ms.
* **Identity gate** — for the same job keys on every kernel tier
  (reference / turbo), the payload served over the
  wire must be byte-identical (canonical JSON) to a fresh in-process
  execution.  The socket must never change an answer.

Run directly::

    PYTHONPATH=src python benchmarks/bench_net.py          # full
    PYTHONPATH=src python benchmarks/bench_net.py --quick  # smoke
"""

import argparse
import json
import pathlib
import shutil
import statistics
import sys
import tempfile
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
sys.path.insert(
    0, str(pathlib.Path(__file__).resolve().parent.parent / "src")
)

from repro.analysis import Table
from repro.events.engine import KERNEL_TIERS
from repro.service import (
    JobSpec,
    ResultCache,
    ServerThread,
    ServiceClient,
    SimulationService,
    canonical_json,
)

from _util import save_report

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_JSON = ROOT / "BENCH_net.json"

RPS_TARGET = 100.0
#: p50 remote-minus-inprocess budget for one warm serving round trip.
OVERHEAD_TARGET_MS = 5.0

WARM_SPEC = {
    "kind": "vector",
    "ops": [{"form": "DOT", "n": 64, "precision": 64, "seed": 5,
             "scalars": [], "specials": False}],
}

IDENTITY_SPECS = [
    ("vector", {"kind": "vector", "ops": [
        {"form": "VADD", "n": 32, "precision": 64, "seed": 3,
         "scalars": [], "specials": False},
        {"form": "SAXPY", "n": 32, "precision": 32, "seed": 4,
         "scalars": [1.5], "specials": True},
    ]}),
    ("golden", {"name": "vector_forms"}),
]


def _document(kind, spec, tier) -> dict:
    return {"kind": kind, "spec": spec, "tier": tier}


def run_warm_serving(reps: int) -> dict:
    """Warm-cache serving, in-process vs. over the socket."""
    root = tempfile.mkdtemp(prefix="repro-net-bench-")
    try:
        cache_root = str(pathlib.Path(root) / "cache")
        job = JobSpec(kind="vector", spec=WARM_SPEC, tier="turbo")

        # In-process baseline: same submit, no socket.
        service = SimulationService(
            cache=ResultCache(root=cache_root))
        service.submit(job).result()  # populate the cache
        local_lat = []
        for _ in range(reps):
            t0 = time.perf_counter()
            future = service.submit(job)
            assert future.status == "cached"
            local_lat.append(time.perf_counter() - t0)

        # Remote: one persistent client over a Unix socket against a
        # *fresh* service on the same store (memory LRU warms on the
        # first request, exactly like the in-process loop above).
        remote_service = SimulationService(
            cache=ResultCache(root=cache_root))
        sock = str(pathlib.Path(root) / "bench.sock")
        remote_lat = []
        with ServerThread(remote_service, unix_path=sock):
            with ServiceClient("unix:" + sock) as client:
                record = client.submit(_document(
                    "vector", WARM_SPEC, "turbo"), wait=60)
                assert record["status"] in ("done", "cached")
                t_all = time.perf_counter()
                for _ in range(reps):
                    t0 = time.perf_counter()
                    record = client.submit(
                        _document("vector", WARM_SPEC, "turbo"),
                        wait=60, with_result=False)
                    remote_lat.append(time.perf_counter() - t0)
                wall = time.perf_counter() - t_all
                assert record["status"] == "cached"

        local_p50 = statistics.median(local_lat)
        remote_p50 = statistics.median(remote_lat)
        return {
            "reps": reps,
            "local_p50_ms": local_p50 * 1e3,
            "remote_p50_ms": remote_p50 * 1e3,
            "overhead_p50_ms": (remote_p50 - local_p50) * 1e3,
            "remote_rps": reps / wall,
        }
    finally:
        shutil.rmtree(root, ignore_errors=True)


def run_identity(tier: str) -> dict:
    """Remote answers vs. fresh in-process execution, one tier."""
    root = tempfile.mkdtemp(prefix="repro-net-ident-")
    try:
        service = SimulationService(
            cache=ResultCache(root=str(pathlib.Path(root) / "c")))
        sock = str(pathlib.Path(root) / "ident.sock")
        remote_payloads = []
        keys = []
        with ServerThread(service, unix_path=sock):
            with ServiceClient("unix:" + sock) as client:
                for kind, spec in IDENTITY_SPECS:
                    record = client.submit(
                        _document(kind, spec, tier), wait=120)
                    assert record["status"] in ("done", "cached"), \
                        record
                    remote_payloads.append(record["result"])
                    keys.append(record["key"])
        direct = SimulationService(use_cache=False)
        direct_payloads = []
        for kind, spec in IDENTITY_SPECS:
            future = direct.submit(JobSpec(kind=kind, spec=spec,
                                           tier=tier))
            assert future.key in keys  # same job, same address
            direct_payloads.append(future.result())
        return {
            "tier": tier,
            "jobs": len(IDENTITY_SPECS),
            "byte_identical": (canonical_json(remote_payloads)
                               == canonical_json(direct_payloads)),
        }
    finally:
        shutil.rmtree(root, ignore_errors=True)


def run_benchmark(quick: bool = False) -> dict:
    reps = 60 if quick else 400
    serving = run_warm_serving(reps)
    identity = {tier: run_identity(tier) for tier in KERNEL_TIERS}
    return {
        "benchmark": "net",
        "quick": quick,
        "serving": serving,
        "identity": identity,
        "rps_target": RPS_TARGET,
        "overhead_target_ms": OVERHEAD_TARGET_MS,
        "all_byte_identical": all(
            t["byte_identical"] for t in identity.values()
        ),
    }


def render(payload: dict) -> Table:
    s = payload["serving"]
    table = Table(
        f"Remote serving overhead (targets: >= "
        f"{payload['rps_target']:.0f} rps, p50 overhead <= "
        f"{payload['overhead_target_ms']:.0f} ms)",
        ["metric", "value"],
    )
    table.add("warm reps", s["reps"])
    table.add("in-process p50 ms", round(s["local_p50_ms"], 3))
    table.add("remote p50 ms", round(s["remote_p50_ms"], 3))
    table.add("p50 overhead ms", round(s["overhead_p50_ms"], 3))
    table.add("remote rps", round(s["remote_rps"], 1))
    for tier, r in payload["identity"].items():
        table.add(f"byte identical [{tier}]", r["byte_identical"])
    return table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="fewer reps; identity gated, perf targets not",
    )
    parser.add_argument(
        "--no-json", action="store_true",
        help="skip writing BENCH_net.json (exploratory runs)",
    )
    args = parser.parse_args(argv)

    payload = run_benchmark(quick=args.quick)
    save_report("net", render(payload))

    serving = payload["serving"]
    payload["acceptance"] = {
        "remote_rps": round(serving["remote_rps"], 1),
        "rps_target": RPS_TARGET,
        "overhead_p50_ms": round(serving["overhead_p50_ms"], 3),
        "overhead_target_ms": OVERHEAD_TARGET_MS,
        "perf_targets_apply": not args.quick,
        "all_byte_identical": payload["all_byte_identical"],
    }
    if not args.no_json:
        BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"\nwrote {BENCH_JSON}")

    ok = payload["all_byte_identical"]
    if not args.quick:
        ok = ok and serving["remote_rps"] >= RPS_TARGET
        ok = ok and serving["overhead_p50_ms"] <= OVERHEAD_TARGET_MS
    print("\nacceptance:", json.dumps(payload["acceptance"],
                                      indent=2))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
