"""Differential testing of the simulator's kernel tiers.

The simulator keeps two implementations of its hot paths: the
``REPRO_SLOW_KERNEL=1`` reference kernel (pure heap, byte-at-a-time
decode, per-call timing, per-op vector arithmetic) and the default
turbo kernel (same-timestamp fast lane, resume trampolines,
decoded-instruction cache and basic-block translation, memoized
timing and batched vector-form chains).  They must be observationally
identical.
This package enforces that with six generative fuzzers (CP-ISA
programs, Occam programs, event schedules, vector workloads, fault
schedules, and machine-room chaos schedules attacking the
:mod:`repro.service` layer in-process and over the wire with kill -9,
journal and cache damage, and hostile bytes — payloads that do not
depend on the tier, so their second run is a determinism re-run), a
structural diff oracle, a spec shrinker, and a golden-trace
conformance suite.

Entry points:

- ``python -m repro.testing.fuzz`` — fuzzing campaign CLI.
- :func:`repro.testing.oracle.differential` — run one scenario on
  both kernel tiers and diff the turbo outcome against the reference.
- :mod:`repro.testing.golden` — pinned canonical traces.
"""

from repro.testing.oracle import DiffReport, differential, diff_outcomes
from repro.testing.shrink import shrink, write_repro

__all__ = [
    "DiffReport",
    "differential",
    "diff_outcomes",
    "shrink",
    "write_repro",
]
