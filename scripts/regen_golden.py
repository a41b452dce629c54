#!/usr/bin/env python
"""Regenerate the golden conformance traces in tests/golden/.

Run this ONLY when a behavioural change is intentional (a timing
model correction, a new scheduler rule, ...).  The diff of the JSON
files is the review artefact: every changed number is a behaviour
change that both kernel tiers (reference, turbo) now agree on.

Usage::

    PYTHONPATH=src python scripts/regen_golden.py [--check]

``--check`` regenerates nothing; it verifies the stored traces against
fresh runs of every kernel tier and exits 1 on any drift (CI mode).
"""

import argparse
import os
import sys

sys.path.insert(
    0,
    os.path.join(os.path.dirname(os.path.abspath(__file__)),
                 os.pardir, "src"),
)

from repro.testing import golden  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--check", action="store_true",
                        help="verify instead of regenerating")
    parser.add_argument("--dir", default=None,
                        help="golden directory (default tests/golden)")
    args = parser.parse_args(argv)
    directory = args.dir or golden.default_golden_dir()

    if args.check:
        problems = golden.verify(directory)
        for problem in problems:
            print(f"DRIFT: {problem}")
        if problems:
            return 1
        print(f"{len(golden.WORKLOADS)} golden traces verified "
              f"against all kernel tiers")
        return 0

    for path in golden.regen(directory):
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
