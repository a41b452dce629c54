"""Pipeline timing arithmetic for the floating-point functional units.

The adder is a six-stage pipeline; the multiplier is five-stage in
32-bit mode and seven-stage in 64-bit mode (paper §II "Arithmetic").
Each unit accepts one operand pair per 125 ns cycle and delivers one
result per cycle once full, so an n-element vector operation costs

    (fill + n - 1) cycles,

where ``fill`` is the pipeline depth of the unit — or of the *chain*
of units for compound forms such as SAXPY, where the multiplier's
output feeds the adder's input directly.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


@dataclass(frozen=True)
class PipelineTiming:
    """Timing model of one pipelined unit (or a chain of units)."""

    #: Pipeline depth in cycles (operand in → result out).
    stages: int
    #: Cycle time in nanoseconds.
    cycle_ns: int

    def __post_init__(self):
        if self.stages < 1:
            raise ValueError("pipeline needs at least one stage")
        if self.cycle_ns < 1:
            raise ValueError("cycle time must be positive")

    @property
    def latency_ns(self) -> int:
        """Scalar-operation latency: one trip through the pipe."""
        return self.stages * self.cycle_ns

    @property
    def throughput_per_s(self) -> float:
        """Asymptotic results per second (one per cycle)."""
        return 1e9 / self.cycle_ns

    def vector_ns(self, n: int) -> int:
        """Time to produce n results: fill plus one result per cycle."""
        if n < 0:
            raise ValueError("negative vector length")
        if n == 0:
            return 0
        return (self.stages + n - 1) * self.cycle_ns

    def chain(self, other: "PipelineTiming") -> "PipelineTiming":
        """Compose two units output-to-input (e.g. multiplier → adder).

        The chain's depth is the sum of depths; throughput is still one
        result per cycle.  Cycle times must match (they share the
        125 ns vector clock).
        """
        if other.cycle_ns != self.cycle_ns:
            raise ValueError("chained pipelines must share a clock")
        return PipelineTiming(self.stages + other.stages, self.cycle_ns)

    def efficiency(self, n: int) -> float:
        """Fraction of peak achieved on an n-element vector
        (n / (fill + n - 1)); shows why long vectors matter."""
        if n <= 0:
            return 0.0
        return n / (self.stages + n - 1)

    def vector_ns_array(self, lengths) -> list:
        """Vectorized :meth:`vector_ns` over a batch of lengths."""
        return vector_ns_array(self.stages - 1, lengths, self.cycle_ns)


def vector_ns_array(base_cycles, lengths, cycle_ns: int) -> list:
    """Batched evaluation of the affine pipeline cost model.

    ``base_cycles`` is the per-op fill term (chain depth − 1, plus any
    reduction drain) — a scalar or an array parallel to ``lengths``.
    Returns ``(base + n) * cycle_ns`` per op as a list of Python ints,
    with 0 where ``n == 0``: exactly what per-op
    :meth:`PipelineTiming.vector_ns` calls would produce, in one numpy
    pass.  This is the turbo tier's "precomputed per-element timing
    array" — the micro-sequencer prices a whole queued chain of forms
    with a single affine evaluation.
    """
    base = np.asarray(base_cycles, dtype=np.int64)
    n = np.asarray(lengths, dtype=np.int64)
    if (n < 0).any():
        raise ValueError("negative vector length")
    return np.where(n > 0, (base + n) * int(cycle_ns), 0).tolist()


@lru_cache(maxsize=None)
def reduction_drain_cycles(stages: int) -> int:
    """Extra cycles to collapse a feedback accumulation.

    Feeding the adder's output back to its input (paper: "outputs from
    the functional units can be fed directly back as inputs to perform
    operations such as dot products and sums") leaves ``stages``
    partial sums in flight.  Collapsing them pairwise takes
    ceil(log2(stages)) passes, each a pipeline traversal.  This is an
    O(1) end-effect; it does not change asymptotic rates.
    """
    if stages < 1:
        raise ValueError("pipeline needs at least one stage")
    if stages == 1:
        return 0
    return math.ceil(math.log2(stages)) * stages
