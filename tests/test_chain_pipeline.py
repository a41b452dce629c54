"""Model-layer chain dispatch (``node.vector_chain``/``run_chain``).

The contract under test: a recorded load/op/store chain dispatched as
ONE fused pipeline is bit-for-bit equivalent to the per-op program it
replaces — same register and memory end state, same FLOP and row-port
counter totals — while charging one pipeline fill for the whole chain
instead of one per op.  The equivalence must hold on every kernel
tier, clean or dirty (subnormal traffic), and the fused elapsed time
must match the analytic model exactly.
"""

import numpy as np
import pytest

from repro.analysis import engine_stats, engine_stats_table
from repro.core import PAPER_SPECS, ProcessorNode, TSeriesMachine
from repro.events import Engine
from repro.events.engine import KERNEL_TIERS, force_kernel

ACC_ROW = 2          # bank A
B_BASE_ROW = 300     # bank B inputs
OUT_BASE_ROW = 700   # bank B scratch (stores)

FILL_64 = (PAPER_SPECS.multiplier_stages_64 + PAPER_SPECS.adder_stages)


def _fresh_node(rows):
    eng = Engine()
    node = ProcessorNode(eng, PAPER_SPECS)
    for row, values in rows.items():
        node.write_row_floats(row, values)
    return eng, node


def _saxpy_rows(k, n, dirty=False):
    rng = np.random.default_rng(1986)
    rows = {ACC_ROW: rng.standard_normal(n)}
    for i in range(k):
        rows[B_BASE_ROW + i] = rng.standard_normal(n)
    if dirty:
        rows[B_BASE_ROW][1] = 5e-324   # subnormal: dirty-chain fallback
    return rows


def _counters(node):
    return {
        "row_accesses": node.memory.row_port.accesses,
        "row_busy_ns": node.memory.row_port.busy_ns,
        "flops": node.vau.flops,
        "completions": node.vau.completions,
        "adder_results": node.vau.adder.results,
        "multiplier_results": node.vau.multiplier.results,
    }


def _run_per_op(node, coeffs, n, store=False):
    """The unfused program a matmul/gauss row update used to emit."""
    def program():
        yield from node.load_vector(ACC_ROW, reg=0)
        for i, c in enumerate(coeffs):
            yield from node.load_vector(B_BASE_ROW + i, reg=1)
            if store:
                yield from node.vector_op(
                    "SAXPY", [0, 1], scalars=(c,), length=n, dst_reg=1
                )
                yield from node.store_vector(1, OUT_BASE_ROW + i)
            else:
                yield from node.vector_op(
                    "SAXPY", [1, 0], scalars=(c,), length=n, dst_reg=0
                )
    eng = node.engine
    eng.run(until=eng.process(program()))


def _run_chain(node, coeffs, n, store=False):
    """The same program recorded on a ChainBuilder, one dispatch."""
    chain = node.vector_chain(64)
    chain.load(ACC_ROW, reg=0)
    for i, c in enumerate(coeffs):
        chain.load(B_BASE_ROW + i, reg=1)
        if store:
            chain.op("SAXPY", [0, 1], scalars=(c,), length=n, dst_reg=1)
            chain.store(1, OUT_BASE_ROW + i)
        else:
            chain.op("SAXPY", [1, 0], scalars=(c,), length=n, dst_reg=0)
    eng = node.engine

    def program():
        yield from node.run_chain(chain)
    eng.run(until=eng.process(program()))


def _end_state(node, store=False, k=0):
    state = {
        "reg0": node.vregs[0].raw.tobytes().hex(),
        "reg1": node.vregs[1].raw.tobytes().hex(),
    }
    if store:
        for i in range(k):
            state[f"out{i}"] = (
                node.memory.read_row(OUT_BASE_ROW + i).tobytes().hex()
            )
    return state


class TestChainEquivalence:
    @pytest.mark.parametrize("tier", KERNEL_TIERS)
    @pytest.mark.parametrize("dirty", [False, True])
    def test_accumulator_chain_matches_per_op(self, tier, dirty):
        """Matmul-shaped chain: loads + SAXPY into an accumulator."""
        k, n = 4, 32
        coeffs = [0.5, -1.25, 3.0, 0.125]
        rows = _saxpy_rows(k, n, dirty=dirty)
        with force_kernel(tier=tier):
            _, per_op_node = _fresh_node(rows)
            _run_per_op(per_op_node, coeffs, n)
            _, chain_node = _fresh_node(rows)
            _run_chain(chain_node, coeffs, n)
        assert _end_state(chain_node) == _end_state(per_op_node)
        chained = _counters(chain_node)
        unfused = _counters(per_op_node)
        assert chained == unfused
        # The chain pays one fill where the per-op program paid k.
        assert chain_node.engine.now < per_op_node.engine.now

    @pytest.mark.parametrize("tier", KERNEL_TIERS)
    def test_store_chain_matches_per_op(self, tier):
        """Gauss-shaped chain: load/SAXPY/store per target row."""
        k, n = 3, 16
        coeffs = [-0.75, 2.0, 0.5]
        rows = _saxpy_rows(k, n)
        with force_kernel(tier=tier):
            _, per_op_node = _fresh_node(rows)
            _run_per_op(per_op_node, coeffs, n, store=True)
            _, chain_node = _fresh_node(rows)
            _run_chain(chain_node, coeffs, n, store=True)
        assert (_end_state(chain_node, store=True, k=k)
                == _end_state(per_op_node, store=True, k=k))
        assert _counters(chain_node) == _counters(per_op_node)

    @pytest.mark.parametrize("dirty", [False, True])
    def test_chain_identical_across_tiers(self, dirty):
        """One chain program, both kernels, one outcome."""
        k, n = 4, 32
        coeffs = [0.5, -1.25, 3.0, 0.125]
        rows = _saxpy_rows(k, n, dirty=dirty)
        outcomes = {}
        for tier in KERNEL_TIERS:
            with force_kernel(tier=tier):
                eng, node = _fresh_node(rows)
                _run_chain(node, coeffs, n)
            outcomes[tier] = (
                eng.now, _end_state(node), _counters(node),
                node.vau.model_chains, node.vau.model_chain_ops,
            )
        assert len(set(map(str, outcomes.values()))) == 1
        assert outcomes["turbo"][3] == 1     # one fused chain...
        assert outcomes["turbo"][4] == k     # ...fusing k ops

    def test_fused_timing_is_one_fill(self):
        """elapsed = rows·400 + (fill + Σn − 1)·125, exactly."""
        k, n = 4, 32
        rows = _saxpy_rows(k, n)
        _, node = _fresh_node(rows)
        _run_chain(node, [1.0] * k, n)
        row_ns = (1 + k) * PAPER_SPECS.row_access_ns
        compute_ns = (FILL_64 + k * n - 1) * PAPER_SPECS.cycle_ns
        assert node.engine.now == row_ns + compute_ns

    def test_vector_tier_elides_screens_on_clean_chain(self):
        with force_kernel("turbo"):
            _, node = _fresh_node(_saxpy_rows(4, 32))
            _run_chain(node, [1.0] * 4, 32)
        assert node.vau.screens_elided > 0


class TestChainValidation:
    def test_load_after_store_rejected(self):
        _, node = _fresh_node(_saxpy_rows(1, 8))
        chain = node.vector_chain(64)
        chain.load(ACC_ROW, reg=0)
        chain.store(0, OUT_BASE_ROW)
        chain.load(OUT_BASE_ROW, reg=1)
        # The planning pass runs before the first yield.
        with pytest.raises(ValueError, match="after storing"):
            next(node.run_chain(chain))

    def test_length_beyond_capacity_rejected(self):
        _, node = _fresh_node({})
        chain = node.vector_chain(64)
        with pytest.raises(ValueError, match="capacity"):
            chain.op("VADD", [0, 1], length=129)

    def test_reading_longer_than_chain_result_rejected(self):
        _, node = _fresh_node(_saxpy_rows(1, 8))
        chain = node.vector_chain(64)
        chain.load(ACC_ROW, reg=0)
        chain.op("VNEG", [0], length=8, dst_reg=0)
        chain.op("VNEG", [0], length=16, dst_reg=0)
        with pytest.raises(ValueError, match="chain result"):
            next(node.run_chain(chain))


class TestMatmulModel:
    def test_model_tracks_simulation(self):
        """The fused-fill cost model stays inside the E12 band."""
        from repro.algorithms import distributed_matmul, matmul_reference
        from repro.algorithms.matmul import matmul_time_model

        rng = np.random.default_rng(7)
        for m_rows, k, n, dim in ((8, 16, 16, 0), (16, 32, 16, 1)):
            a = rng.standard_normal((m_rows, k))
            b = rng.standard_normal((k, n))
            machine = TSeriesMachine(dim, with_system=False)
            c, elapsed, _ = distributed_matmul(machine, a, b)
            np.testing.assert_allclose(c, matmul_reference(a, b),
                                       rtol=1e-9)
            model = matmul_time_model(m_rows, k, n, 1 << dim, PAPER_SPECS)
            assert model == pytest.approx(elapsed, rel=0.25)


class TestChainStats:
    def test_engine_stats_counts_model_chains(self):
        for tier in KERNEL_TIERS:
            with force_kernel(tier=tier):
                eng, node = _fresh_node(_saxpy_rows(4, 32))
                _run_chain(node, [1.0] * 4, 32)
            batch = engine_stats(eng)["vau_batch"]
            assert batch["vau_chain_model"] == 1
            assert batch["chain_ops_fused"] == 4
            rendered = engine_stats_table(eng).render()
            assert "vau_vau_chain_model" in rendered
            assert "vau_chain_ops_fused" in rendered
