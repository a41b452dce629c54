"""The T Series machine model: specs, configurations, nodes, modules.

The paper's primary contribution is the *composition*: a homogeneous
binary n-cube of nodes, each of which is itself a composition of the
control processor, dual-ported memory, vector arithmetic unit and
links.  This package holds that composition; the parts live in their
own substrate packages.
"""

from repro import _lazy

# Resolved on first use, so ``import repro.core.specs`` (the timing
# constants every layer reads) loads no node model and no numpy.
__getattr__, __dir__ = _lazy.exports(globals(), {
    "repro.core.specs": ("TSeriesSpecs", "PAPER_SPECS", "NS_PER_S", "MB"),
    "repro.core.config": ("MachineConfig", "MODULE", "CABINET",
                          "FOUR_CABINET", "MAX_USABLE"),
    "repro.core.node": ("BankConflictError", "ProcessorNode"),
    "repro.core.module": ("Module",),
    "repro.core.streaming": ("VectorStreamer",),
    "repro.core.machine": ("ROLE_HYPERCUBE", "ROLE_IO", "ROLE_SYSTEM",
                           "SublinkPlan", "TSeriesMachine"),
})

__all__ = [
    "BankConflictError",
    "CABINET",
    "FOUR_CABINET",
    "MAX_USABLE",
    "MB",
    "MODULE",
    "MachineConfig",
    "Module",
    "NS_PER_S",
    "PAPER_SPECS",
    "ProcessorNode",
    "ROLE_HYPERCUBE",
    "ROLE_IO",
    "ROLE_SYSTEM",
    "SublinkPlan",
    "TSeriesMachine",
    "TSeriesSpecs",
    "VectorStreamer",
]
