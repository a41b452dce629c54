"""Differential fuzzing CLI.

Round-robins random cases from the generators, runs each on every
simulator kernel tier via :mod:`repro.testing.oracle`, and shrinks
any divergence to a minimal reproducer in ``tests/repros/``::

    PYTHONPATH=src python -m repro.testing.fuzz --seed 1986 --cases 200

Exit status is 0 when every case agreed, 1 when any divergence was
found (reproducer paths are printed).  ``--budget`` caps wall-clock
seconds so a CI smoke stage cannot run away; the seed makes the case
sequence reproducible regardless of how many cases the budget allowed.

``--jobs N`` fans cases out over N worker processes through
:mod:`repro.parallel` (``--jobs auto`` = one per CPU).  Each case's
random stream is derived from ``(seed, generator, index)`` — never
from campaign order — so the case sequence, any divergence found, and
the reproducer files are identical for every job count.
"""

import argparse
import random
import sys
import time

from repro.parallel import resolve_jobs, run_cells
from repro.testing import (
    gen_cp, gen_events, gen_faults, gen_occam, gen_service, gen_vector,
)
from repro.testing.oracle import differential
from repro.testing.shrink import default_repro_dir, shrink, write_repro

GENERATORS = {
    "cp": gen_cp,
    "events": gen_events,
    "faults": gen_faults,
    "occam": gen_occam,
    "service": gen_service,
    "vector": gen_vector,
}


def run_case(generator, rng):
    """Generate one spec and run it differentially.

    Returns ``(spec, report_or_None, error_or_None)``.
    """
    spec = generator.generate(rng)
    try:
        report = differential(generator.execute, spec,
                              invariant=getattr(generator, "invariant",
                                                None))
    except Exception as exc:  # generator/harness bug, not a divergence
        return spec, None, exc
    return spec, report, None


def fuzz(seed: int, cases: int, budget_s: float, names, repro_dir,
         do_shrink: bool = True, verbose: bool = False,
         jobs=None) -> dict:
    """Run the campaign; returns a summary dict.

    ``jobs`` > 1 distributes cases over worker processes; every
    case's spec and verdict — and therefore the summary and any
    reproducer files — are independent of the job count.
    """
    generators = [(name, GENERATORS[name]) for name in names]
    jobs = resolve_jobs(jobs)
    deadline = time.monotonic() + budget_s if budget_s else None
    stats = {name: {"cases": 0, "divergences": 0} for name in names}
    repros = []
    errors = []
    executed = 0

    def handle_case(name, index, spec, diverged, summary, error):
        nonlocal executed
        executed += 1
        stats[name]["cases"] += 1
        if error is not None:
            errors.append((name, index, error))
            print(f"[{name} #{index}] harness error: {error}")
            return
        if diverged:
            generator = GENERATORS[name]
            stats[name]["divergences"] += 1
            print(f"[{name} #{index}] DIVERGENCE: {summary}")
            # Shrinking re-executes candidate specs, so it runs in
            # the parent, never in a worker.
            report = differential(generator.execute, spec,
                                  invariant=getattr(generator,
                                                    "invariant", None))
            if do_shrink:
                spec, report, used = shrink(generator, spec)
                print(f"  shrunk in {used} executions: "
                      f"{report.summary()}")
            path = write_repro(repro_dir, name, seed, index, spec,
                               report)
            repros.append(path)
            print(f"  reproducer: {path}")
        elif verbose:
            print(f"[{name} #{index}] ok")

    def case_cell(cell):
        """One fuzz case, self-contained for a worker process."""
        name, index = cell
        generator = GENERATORS[name]
        # Independent stream per case: reordering generators or
        # resuming mid-campaign reproduces the same specs.
        rng = random.Random(f"{seed}:{name}:{index}")
        spec, report, error = run_case(generator, rng)
        return {
            "name": name, "index": index, "spec": spec,
            "diverged": None if report is None else report.diverged,
            "summary": None if report is None else report.summary(),
            "error": None if error is None else repr(error),
        }

    cells = [(generators[index % len(generators)][0], index)
             for index in range(cases)]
    # Batches keep the wall-clock budget meaningful: the deadline is
    # checked between batches (before every case when serial), and
    # the cases inside a batch are still index-seeded, so a
    # budget-truncated campaign runs a prefix of the same case
    # sequence.
    batch = 1 if jobs == 1 else max(4 * jobs, 8)
    for start in range(0, len(cells), batch):
        if deadline is not None and time.monotonic() > deadline:
            print(f"budget exhausted after {executed} cases")
            break
        # Non-daemonic workers: service chaos cases open their own
        # fork pools, which daemonic processes may not.
        sweep = run_cells(case_cell, cells[start:start + batch],
                          jobs=jobs, daemon=False)
        for cell, result in zip(cells[start:start + batch],
                                sweep.results):
            name, index = cell
            if not result.ok:
                handle_case(name, index, None, False, None,
                            result.error)
                continue
            outcome = result.value
            handle_case(name, index, outcome["spec"],
                        outcome["diverged"], outcome["summary"],
                        outcome["error"])
    return {
        "executed": executed,
        "stats": stats,
        "repros": repros,
        "errors": errors,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.testing.fuzz",
        description="Differential fuzzing across the simulator's "
                    "kernel tiers.",
    )
    parser.add_argument("--seed", type=int, default=0,
                        help="campaign seed (default 0)")
    parser.add_argument("--cases", type=int, default=200,
                        help="max cases to run (default 200)")
    parser.add_argument("--budget", type=float, default=0,
                        help="wall-clock budget in seconds (0 = no cap)")
    parser.add_argument("--generators",
                        default="cp,events,faults,occam,service,vector",
                        help="comma list from: cp,events,faults,"
                             "occam,service,vector")
    parser.add_argument("--repro-dir", default=None,
                        help="where to write reproducers "
                             "(default tests/repros/)")
    parser.add_argument("--no-shrink", action="store_true",
                        help="write raw diverging specs unshrunk")
    parser.add_argument("--verbose", action="store_true",
                        help="print every case, not just divergences")
    parser.add_argument("--jobs", default=None,
                        help="worker processes (N, or 'auto' for one "
                             "per CPU; default 1, or REPRO_SWEEP_JOBS)")
    args = parser.parse_args(argv)

    names = [n.strip() for n in args.generators.split(",") if n.strip()]
    unknown = [n for n in names if n not in GENERATORS]
    if unknown:
        parser.error(f"unknown generators: {', '.join(unknown)}")
    repro_dir = args.repro_dir or default_repro_dir()

    start = time.monotonic()
    summary = fuzz(args.seed, args.cases, args.budget, names, repro_dir,
                   do_shrink=not args.no_shrink, verbose=args.verbose,
                   jobs=args.jobs)
    elapsed = time.monotonic() - start

    print(f"\n{summary['executed']} cases in {elapsed:.1f}s "
          f"(seed {args.seed})")
    for name in names:
        s = summary["stats"][name]
        print(f"  {name:7s} {s['cases']:4d} cases, "
              f"{s['divergences']} divergences")
    if summary["errors"]:
        print(f"  {len(summary['errors'])} harness errors")
        return 1
    if summary["repros"]:
        print(f"  {len(summary['repros'])} reproducers written")
        return 1
    print("  all cases agreed across all kernel tiers")
    return 0


if __name__ == "__main__":
    sys.exit(main())
