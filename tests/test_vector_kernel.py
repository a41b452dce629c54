"""Turbo-tier regression tests: timer floods on the event kernel and
the batched vector-form micro-sequencer.

The turbo tier computes queued VAU chains in batch — one whole-chain
subnormal screen, one vectorized timing evaluation — and that must be
*invisible* in simulated results: same timestamps, same counters,
same result bit patterns as the reference tier's per-op dispatch.
These tests verify cross-tier bit identity of timer floods and queued
chains and cover the VAU profiling counters that ``engine_stats``
rolls up.
"""

import pathlib

import numpy as np
import pytest

from repro.analysis import engine_stats, engine_stats_table
from repro.core import PAPER_SPECS
from repro.events import Engine
from repro.events.engine import force_kernel
from repro.fpu import NUMPY_FLOOR
from repro.fpu.pipeline import PipelineTiming, vector_ns_array
from repro.fpu.vector_forms import VectorArithmeticUnit

#: Timers per flood; their scattered delays make heap order, not
#: arrival order, decide every pop.
FLOOD_TICKS = 192


# -- timer floods ------------------------------------------------------


def _flood(ticks, until=None):
    """Pre-scheduled scattered timers plus a late rendezvous tick."""
    eng = Engine()
    fired = []

    def watcher():
        yield eng.timeout(1000)
        fired.append(eng.now)

    eng.process(watcher())
    for i in range(ticks):
        eng.timeout((i * 2654435761) % 2000 + 1)
    if until is None:
        eng.run()
    else:
        eng.run(until=until)
    return eng, fired


class TestVectorTierSemantics:
    """Timer floods on the turbo tier match the reference tier."""

    def test_flood_identical_to_reference(self):
        with force_kernel("reference"):
            ref, ref_fired = _flood(FLOOD_TICKS)
        with force_kernel("turbo"):
            turbo, turbo_fired = _flood(FLOOD_TICKS)
        assert turbo.kernel_tier == "turbo"
        assert (turbo.now, turbo_fired) == (ref.now, ref_fired)
        assert turbo.events_processed == ref.events_processed

    def test_flood_until_time_identical(self):
        for until in (1, 500, 1000, 1500, 5000):
            with force_kernel("reference"):
                ref, ref_fired = _flood(FLOOD_TICKS, until=until)
            with force_kernel("turbo"):
                turbo, turbo_fired = _flood(FLOOD_TICKS, until=until)
            assert (turbo.now, turbo_fired) == (ref.now, ref_fired)
            assert turbo.events_processed == ref.events_processed


# -- batched chains (the VAU micro-sequencer) ---------------------------


def _chain_ops(dirty=False):
    rng = np.random.default_rng(7)
    a = rng.standard_normal(40)
    b = rng.standard_normal(40)
    c = rng.standard_normal(17)
    if dirty:
        b = b.copy()
        b[3] = 5e-324  # subnormal: defeats the whole-chain screen
    return [
        ("VADD", [a, b]),
        ("SAXPY", [a, b], (1.5,)),
        ("DOT", [a, b]),
        ("VSMUL", [c], (-2.25,)),
    ]


def _run_chain(ops, precision=64):
    eng = Engine()
    vau = VectorArithmeticUnit(eng, PAPER_SPECS)
    out = {}

    def driver():
        out["results"] = yield from vau.execute_chain(ops, precision)

    eng.run(until=eng.process(driver()))
    bits = [
        np.atleast_1d(np.asarray(r, dtype=np.float64 if precision == 64
                                 else np.float32)).tobytes()
        for r in out["results"]
    ]
    counters = (eng.now, eng.events_processed, vau.flops, vau.busy_ns,
                vau.completions, vau.adder.results, vau.adder.busy_ns,
                vau.multiplier.results, vau.multiplier.busy_ns)
    return bits, counters, eng, vau


class TestBatchedChains:
    @pytest.mark.parametrize("dirty", [False, True])
    def test_chain_bit_identical_across_tiers(self, dirty):
        ops = _chain_ops(dirty=dirty)
        with force_kernel("reference"):
            ref_bits, ref_counters, _eng, _vau = _run_chain(ops)
        with force_kernel("turbo"):
            bits, counters, _eng, _vau = _run_chain(ops)
        assert bits == ref_bits
        assert counters == ref_counters

    def test_batched_counters_clean_chain(self):
        ops = _chain_ops(dirty=False)
        with force_kernel("turbo"):
            _bits, _counters, eng, vau = _run_chain(ops)
        assert vau.chains == 1
        assert vau.batched_forms == len(ops)
        assert vau.batched_elements == 40 * 3 + 17
        # Clean chain: every vector input's per-op screen was elided.
        assert vau.screens_elided == 2 + 2 + 2 + 1
        batch = engine_stats(eng)["vau_batch"]
        assert batch["vaus"] == 1
        assert batch["chains"] == 1
        assert batch["screens_elided"] == vau.screens_elided
        assert "vau_chains" in engine_stats_table(eng).render()

    def test_dirty_chain_falls_back_but_still_batches_timing(self):
        ops = _chain_ops(dirty=True)
        with force_kernel("turbo"):
            _bits, _counters, _eng, vau = _run_chain(ops)
        assert vau.chains == 1
        assert vau.screens_elided == 0  # per-op screens ran

    def test_chain_counters_zero_off_vector_tier(self):
        """The reference tier dispatches per op: no batched chains."""
        ops = _chain_ops()
        with force_kernel("reference"):
            _bits, _counters, eng, vau = _run_chain(ops)
        assert (vau.chains, vau.batched_forms, vau.batched_elements,
                vau.screens_elided) == (0, 0, 0, 0)
        batch = engine_stats(eng)["vau_batch"]
        assert batch["vaus"] == 1 and batch["batched_forms"] == 0

    def test_chain_matches_per_op_execution(self):
        # One chain vs the same forms executed per-op: identical bits
        # and identical counter totals (the chain holds the unit once,
        # so completion eventing differs — values and totals must not).
        ops = _chain_ops()
        with force_kernel("turbo"):
            chain_bits, _c, _eng, chain_vau = _run_chain(ops)
            eng = Engine()
            vau = VectorArithmeticUnit(eng, PAPER_SPECS)
            solo = []

            def driver():
                for op in ops:
                    scalars = op[2] if len(op) > 2 else ()
                    result = yield from vau.execute(op[0], op[1], scalars)
                    solo.append(np.atleast_1d(
                        np.asarray(result, dtype=np.float64)).tobytes())

            eng.run(until=eng.process(driver()))
        assert chain_bits == solo
        assert chain_vau.flops == vau.flops
        assert chain_vau.busy_ns == vau.busy_ns


# -- batched timing arithmetic ------------------------------------------


class TestVectorNsArray:
    def test_matches_scalar_cost_model(self):
        timing = PipelineTiming(stages=6, cycle_ns=125)
        lengths = [0, 1, 2, 3, 17, 300]
        assert timing.vector_ns_array(lengths) == [
            timing.vector_ns(n) for n in lengths
        ]

    def test_per_op_bases(self):
        assert vector_ns_array([5, 0, 12], [1, 4, 0], 125) == [
            6 * 125, 4 * 125, 0
        ]

    def test_negative_length_raises(self):
        with pytest.raises(ValueError):
            vector_ns_array(5, [3, -1], 125)

    def test_returns_python_ints(self):
        out = vector_ns_array(5, [2], 125)
        assert type(out) is list and type(out[0]) is int


# -- dependency floor ---------------------------------------------------


class TestNumpyFloor:
    def test_installed_numpy_meets_floor(self):
        have = tuple(int(p) for p in np.__version__.split(".")[:2])
        assert have >= NUMPY_FLOOR

    def test_floor_matches_pyproject(self):
        floor = ".".join(map(str, NUMPY_FLOOR))
        pyproject = (
            pathlib.Path(__file__).resolve().parent.parent / "pyproject.toml"
        ).read_text()
        assert f"numpy>={floor}" in pyproject
