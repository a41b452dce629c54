"""The differential oracle: run a case on both kernel tiers, compare.

The simulator keeps a ``REPRO_SLOW_KERNEL=1`` reference tier (pure
heap, byte-at-a-time decode, per-op vector arithmetic) beside the
default turbo tier (fast lane, resume trampolining, basic-block
translation, batched vector chains), with the contract that both
produce bit-identical architectural results.  This module is the
machinery that checks the contract mechanically: a *case* is a
JSON-able spec plus an ``execute(spec) -> outcome`` function; the
oracle executes it once under each tier and structurally diffs the
turbo outcome against the reference outcome.

Outcomes are plain JSON-able data (dicts/lists/ints/strings): the
generators serialise floats as bit patterns and memory as digests, so
``==`` on outcomes *is* bit-exact comparison and divergences can be
rendered, shrunk, and pinned to disk without loss.
"""

from dataclasses import dataclass, field

from repro.events.engine import force_kernel


@dataclass
class DiffReport:
    """Result of one differential execution: the reference-tier and
    turbo-tier outcomes and where they differ."""

    diverged: bool
    #: Human-readable paths into the outcome where the kernels differ,
    #: each prefixed with the tier it concerns.
    details: list = field(default_factory=list)
    reference: object = None
    turbo: object = None

    def summary(self, limit: int = 5) -> str:
        if not self.diverged:
            return "kernels agree"
        shown = self.details[:limit]
        more = len(self.details) - len(shown)
        text = "; ".join(shown)
        if more > 0:
            text += f"; (+{more} more)"
        return text


def diff_outcomes(fast, slow, path="$") -> list:
    """Structural diff of two JSON-able outcomes.

    Returns a list of ``"path: fast_value != slow_value"`` strings,
    empty when the outcomes are identical.  Lists are compared
    elementwise (with a length check first), dicts by key union, and
    leaves by ``==`` plus a type check (so ``1`` vs ``True`` or ``1``
    vs ``1.0`` counts as a divergence — bit-exactness, not Python
    coercion).
    """
    diffs = []
    if type(fast) is not type(slow):
        diffs.append(
            f"{path}: type {type(fast).__name__} != {type(slow).__name__}"
        )
        return diffs
    if isinstance(fast, dict):
        for key in sorted(set(fast) | set(slow)):
            if key not in fast:
                diffs.append(f"{path}.{key}: missing on fast kernel")
            elif key not in slow:
                diffs.append(f"{path}.{key}: missing on slow kernel")
            else:
                diffs.extend(diff_outcomes(fast[key], slow[key],
                                           f"{path}.{key}"))
        return diffs
    if isinstance(fast, (list, tuple)):
        if len(fast) != len(slow):
            diffs.append(f"{path}: length {len(fast)} != {len(slow)}")
        for i, (a, b) in enumerate(zip(fast, slow)):
            diffs.extend(diff_outcomes(a, b, f"{path}[{i}]"))
        return diffs
    if fast != slow:
        diffs.append(f"{path}: {fast!r} != {slow!r}")
    return diffs


def differential(execute, spec, invariant=None) -> DiffReport:
    """Execute ``spec`` on both kernel tiers and diff turbo against
    reference.

    ``execute`` must build its entire scenario (engines, CPUs, vector
    units) from scratch inside the call — the kernel choice is sampled
    at construction time, and any object smuggled in from outside
    would carry the wrong kernel.

    ``invariant``, when given, is an ``outcome -> [problem, ...]``
    check applied to each tier's outcome — for properties that must
    hold *within* one execution rather than between tiers (e.g. an
    optimized compile of the same program reaching the same result).
    Invariant problems count as divergences and are reported with the
    tier they occurred on.
    """
    with force_kernel("reference"):
        reference = execute(spec)
    with force_kernel("turbo"):
        turbo = execute(spec)
    details = [f"turbo {d}" for d in diff_outcomes(turbo, reference)]
    if invariant is not None:
        for tier, outcome in (("reference", reference), ("turbo", turbo)):
            details += [f"{tier} invariant: {problem}"
                        for problem in invariant(outcome)]
    return DiffReport(bool(details), details, reference, turbo)

