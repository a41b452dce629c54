"""The floating-point subsystem: formats, bit-level arithmetic,
pipeline timing, functional units, and the vector-form micro-sequencer.

Public surface:

* :data:`BINARY32`, :data:`BINARY64`, :func:`format_for` — IEEE formats.
* :mod:`repro.fpu.softfloat` — bit-exact add/sub/mul/compare/convert
  with flush-to-zero (no gradual underflow, per the paper).
* :class:`PipelineTiming` — fill + one-result-per-cycle timing.
* :class:`FloatingAdder`, :class:`FloatingMultiplier` — the units.
* :class:`VectorArithmeticUnit`, :data:`FORMS` — the micro-sequencer.
"""

import numpy as _np

#: Minimum numpy for the batched vector-chain paths (whole-chain
#: subnormal screens, int64 timing arrays with consistent integer
#: promotion).  Keep in sync with pyproject.toml.
NUMPY_FLOOR = (1, 22)

_np_version = tuple(int(p) for p in _np.__version__.split(".")[:2])
if _np_version < NUMPY_FLOOR:
    raise ImportError(
        f"repro.fpu requires numpy >= {'.'.join(map(str, NUMPY_FLOOR))} "
        f"(found {_np.__version__}): the batched vector-chain "
        "subnormal screens and timing arrays depend on integer-"
        "promotion rules older releases do not guarantee.  Upgrade "
        "numpy or pin the package per pyproject.toml."
    )

from repro.fpu.ieee import BINARY32, BINARY64, Format, format_for
from repro.fpu.pipeline import PipelineTiming, reduction_drain_cycles
from repro.fpu.units import FloatingAdder, FloatingMultiplier, FunctionalUnit
from repro.fpu.vector_forms import (
    FORMS,
    VectorArithmeticUnit,
    VectorForm,
    dtype_for,
    flush_subnormals,
    register_form,
)
from repro.fpu.level_order import (
    Expr,
    evaluate_level_order,
    naive_scalar_ns,
    reference_value,
    scalar,
    schedule_levels,
)
from repro.fpu.routines import (
    divide_cost_model,
    vector_divide,
    vector_reciprocal,
    vector_rsqrt,
    vector_sqrt,
)

__all__ = [
    "BINARY32",
    "BINARY64",
    "Expr",
    "FORMS",
    "evaluate_level_order",
    "naive_scalar_ns",
    "reference_value",
    "scalar",
    "schedule_levels",
    "FloatingAdder",
    "FloatingMultiplier",
    "Format",
    "FunctionalUnit",
    "PipelineTiming",
    "VectorArithmeticUnit",
    "VectorForm",
    "divide_cost_model",
    "dtype_for",
    "flush_subnormals",
    "format_for",
    "vector_divide",
    "vector_reciprocal",
    "vector_rsqrt",
    "vector_sqrt",
    "register_form",
    "reduction_drain_cycles",
]
