"""Differential testing of the simulator's kernel tiers.

The simulator keeps two implementations of its hot paths: the
``REPRO_SLOW_KERNEL=1`` reference kernel (pure heap, byte-at-a-time
decode, per-call timing, per-op vector arithmetic) and the default
turbo kernel (same-timestamp fast lane, resume trampolines,
decoded-instruction cache and basic-block translation, memoized
timing and batched vector-form chains).  They must be observationally
identical.
This package enforces that with seven generative fuzzers (CP-ISA
programs, Occam programs, event schedules, vector workloads, fault
schedules, machine-room chaos schedules attacking the
:mod:`repro.service` layer with kills, journal damage, and cache
corruption, and serving chaos schedules attacking the
:mod:`repro.service.net` front-end with torn frames, hostile bytes,
and mid-drain server kills), a structural diff oracle, a spec
shrinker, and a golden-trace conformance suite.

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
