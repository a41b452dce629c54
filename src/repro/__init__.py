"""repro — a behavioral and timing reproduction of the FPS T Series.

This package reproduces, in simulation, the homogeneous vector
supercomputer described in:

    John L. Gustafson, Stuart Hawkinson, and Ken Scott,
    "The Architecture of a Homogeneous Vector Supercomputer",
    Proceedings of the International Conference on Parallel Processing
    (ICPP), 1986.  Floating Point Systems, Inc.

The machine is a binary n-cube of identical processor nodes, each
combining a 32-bit stack-machine control processor (programmed in an
Occam-like process model), a dual-ported banked memory whose rows load
into vector registers in a single access, a pipelined IEEE-754
floating-point adder and multiplier driven by a vector-form
micro-sequencer, and four bit-serial communication links multiplexed
into sixteen sublinks.

Subpackages
-----------
``repro.events``
    Discrete-event simulation kernel (integer-nanosecond clock,
    generator-coroutine processes, channels, resources).
``repro.fpu``
    Bit-level IEEE-754 arithmetic with flush-to-zero, pipelined
    functional-unit timing, and the vector-form micro-sequencer.
``repro.memory``
    The 1 MB dual-ported, dual-bank DRAM and its vector registers.
``repro.cp``
    The transputer-flavoured control processor: ISA, assembler,
    interpreter, and two-priority process scheduler.
``repro.links``
    Bit-serial links, framing, sublink multiplexing, and DMA.
``repro.topology``
    Binary n-cube construction, Gray codes, e-cube routing, and the
    ring / mesh / torus / FFT-butterfly embeddings of Figure 3.
``repro.occam``
    SEQ / PAR / ALT process combinators — the paper's programming
    model as a Python DSL.
``repro.core``
    The node, module, and machine models plus the hardware constants.
``repro.system``
    System boards, the system ring, disks, and snapshot checkpointing.
``repro.runtime``
    Message passing and hypercube collectives over the simulated links.
``repro.algorithms``
    The scientific kernels the paper motivates (SAXPY, matmul, FFT,
    stencil, Gaussian elimination with physical-row pivoting, sorting).
``repro.baselines``
    The shared-memory bus machine and scalar node used as architectural
    foils in the evaluation.
``repro.analysis``
    Performance, balance-ratio, overlap, and checkpoint-interval
    analysis used by the benchmark harness.
"""

from repro import _lazy

__version__ = "1.0.0"

# Resolved on first use, so ``import repro.<leaf>`` loads no numpy.
__getattr__, __dir__ = _lazy.exports(globals(), {
    "repro.core.specs": ("TSeriesSpecs", "PAPER_SPECS"),
    "repro.core.config": ("MachineConfig",),
    "repro.core.machine": ("TSeriesMachine",),
})

__all__ = [
    "TSeriesSpecs",
    "PAPER_SPECS",
    "MachineConfig",
    "TSeriesMachine",
    "__version__",
]
