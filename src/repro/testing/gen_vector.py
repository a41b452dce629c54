"""Vector-form workload sampler.

Draws random sequences of vector-form executions — every form in the
catalog, both precisions, lengths from 1 to a few hundred, operand
values including zeros, subnormals, infinities and NaNs — and runs
them through a fresh :class:`~repro.fpu.vector_forms.VectorArithmeticUnit`
on each kernel.  The fast path memoizes duration coefficients and uses
the no-copy subnormal flush; the reference path recomputes timing per
call and uses the original errstate-guarded flush.  Compared outcome:
result *bit patterns* (hex of the raw bytes, so NaN payloads and
signed zeros count), per-op completion times, and the unit's
FLOP/busy-time counters.

Specs may also carry queued **chains** (``execute_chain``): long runs
of forms, mixed 32/64-bit across chains, with subnormal specials
salted per op — the traffic that stresses the turbo tier's batched
micro-sequencer (one whole-chain subnormal screen, vectorized timing)
against the reference tier's per-op dispatch.  Shrinking peels ops out of
chains and chains out of specs like any other ddmin axis.

A third axis, **node_chains**, drives the model layer above the VAU:
each one builds a :class:`~repro.core.node.ChainBuilder` program on a
fresh :class:`~repro.core.node.ProcessorNode` — interleaved row loads,
register-to-register forms (results threading through ``ChainRef``
placeholders), and row stores, dispatched as ONE fused pipeline
(``run_chain``).  Rows are planted deterministically from per-row
seeds, subnormal/NaN specials salted per row, precision mixed across
chains.  The outcome records every op result, the final register and
stored-row bit patterns, the fused elapsed time, and the chain-model
counters — so the two-way oracle pins the whole load/op/store
pipeline, not just the arithmetic.  Node chains shrink like the other
axes: drop a chain, drop a step, halve the vector length, de-salt a
row.
"""

import random

import numpy as np

from repro.core import PAPER_SPECS, ProcessorNode
from repro.events import Engine
from repro.fpu.vector_forms import (
    FORMS,
    VectorArithmeticUnit,
    dtype_for,
    form_catalog,
)

#: Interesting operand values, by precision, injected among normals.
_SPECIALS = {
    32: [0.0, -0.0, 1e-45, -1e-45, 1e38, -1e38, float("inf"),
         float("-inf"), float("nan")],
    64: [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, float("inf"),
         float("-inf"), float("nan")],
}


def _draw_op(rng: random.Random, precision=None) -> dict:
    """Draw one op spec (chain ops inherit the chain's precision)."""
    name = rng.choice(form_catalog())
    form = FORMS[name]
    op = {
        "form": name,
        "n": rng.choice([1, 2, 3, rng.randint(4, 64),
                         rng.randint(65, 300)]),
        "seed": rng.randrange(1 << 30),
        "scalars": [
            round(rng.uniform(-10, 10), 3)
            for _ in range(form.scalar_inputs)
        ],
        "specials": rng.random() < 0.5,
    }
    if precision is None:
        op["precision"] = rng.choice([32, 64])
    return op


#: Row pools for node chains.  Loads draw from bank A and bank B input
#: rows; stores land in a disjoint bank-B scratch pool — a chain must
#: never load a row it already stored (the builder rejects it).
_LOAD_ROWS = (0, 1, 2, 3, 300, 301, 302, 303)
_STORE_ROWS = (700, 701, 702)

#: Forms a node chain may emit: the VCVT pair is excluded (a chain is
#: single-precision end to end), reductions are allowed (they return a
#: scalar and leave the target register untouched).
_CHAIN_ELEMENTWISE = tuple(sorted(
    name for name, form in FORMS.items()
    if not form.reduction and not name.startswith("VCVT")
))
_CHAIN_REDUCTIONS = tuple(sorted(
    name for name, form in FORMS.items() if form.reduction
))


def _draw_node_chain(rng: random.Random) -> dict:
    """Draw one model-layer chain program (load/op/store steps)."""
    precision = rng.choice([32, 64])
    n = rng.choice([1, 2, rng.randint(3, 32), rng.randint(33, 64)])
    steps = [["load", rng.choice(_LOAD_ROWS), 0]]
    if rng.random() < 0.7:
        steps.append(["load", rng.choice(_LOAD_ROWS), 1])
    for _ in range(rng.randint(1, 6)):
        roll = rng.random()
        if roll < 0.25:
            steps.append(["load", rng.choice(_LOAD_ROWS),
                          rng.randrange(2)])
        elif roll < 0.35:
            steps.append(["store", rng.randrange(2),
                          rng.choice(_STORE_ROWS)])
        else:
            if rng.random() < 0.15:
                name = rng.choice(_CHAIN_REDUCTIONS)
            else:
                name = rng.choice(_CHAIN_ELEMENTWISE)
            form = FORMS[name]
            srcs = [rng.randrange(2) for _ in range(form.vector_inputs)]
            scalars = [round(rng.uniform(-10, 10), 3)
                       for _ in range(form.scalar_inputs)]
            steps.append(["op", name, srcs, scalars, rng.randrange(2)])
    if not any(step[0] == "op" for step in steps):
        steps.append(["op", "VADD", [0, 1], [], 0])
    rows = {
        str(row): {"seed": rng.randrange(1 << 30),
                   "specials": rng.random() < 0.3}
        for row in sorted({s[1] for s in steps if s[0] == "load"})
    }
    return {"precision": precision, "n": n, "rows": rows,
            "steps": steps}


def generate(rng: random.Random) -> dict:
    """Draw one workload spec."""
    ops = [_draw_op(rng) for _ in range(rng.randint(2, 8))]
    # Queued chains: long runs of forms under one unit hold, mixed
    # precision across chains, specials salted per op so some chains
    # are clean (whole-chain screen elides every per-input flush) and
    # some are dirty (per-op fallback).
    chains = []
    for _ in range(rng.randint(0, 2)):
        precision = rng.choice([32, 64])
        length = rng.choice([2, 3, rng.randint(4, 12),
                             rng.randint(12, 24)])
        chain_ops = [_draw_op(rng, precision) for _ in range(length)]
        for op in chain_ops:
            op["specials"] = rng.random() < 0.3
        chains.append({"precision": precision, "ops": chain_ops})
    node_chains = [
        _draw_node_chain(rng) for _ in range(rng.randint(0, 2))
    ]
    spec = {"kind": "vector", "ops": ops}
    if chains:
        spec["chains"] = chains
    if node_chains:
        spec["node_chains"] = node_chains
    return spec


def _operands(op: dict, precision=None):
    """Deterministic operand vectors for one op spec."""
    form = FORMS[op["form"]]
    if precision is None:
        precision = op["precision"]
    dtype = dtype_for(precision)
    rng = np.random.default_rng(op["seed"])
    inputs = []
    for _ in range(form.vector_inputs):
        values = rng.uniform(-1e6, 1e6, size=op["n"]).astype(dtype)
        if op["specials"]:
            specials = _SPECIALS[precision]
            k = min(len(values), 4)
            idx = rng.integers(0, len(values), size=k)
            pick = rng.integers(0, len(specials), size=k)
            for i, p in zip(idx, pick):
                values[i] = dtype(specials[p])
        inputs.append(values)
    return inputs


def _plant_row(node, row: int, row_spec: dict, precision: int):
    """Fill one memory row deterministically from its per-row seed."""
    dtype = dtype_for(precision)
    capacity = node.vregs[0].capacity(precision)
    rng = np.random.default_rng(row_spec["seed"])
    values = rng.uniform(-1e6, 1e6, size=capacity).astype(dtype)
    if row_spec["specials"]:
        specials = _SPECIALS[precision]
        idx = rng.integers(0, capacity, size=4)
        pick = rng.integers(0, len(specials), size=4)
        for i, p in zip(idx, pick):
            values[i] = dtype(specials[p])
    node.write_row_floats(row, values, precision)


def _run_node_chain(node, chain_spec: dict):
    """Process: build and dispatch one model-layer chain; outcome."""
    precision = chain_spec["precision"]
    n = chain_spec["n"]
    for row, row_spec in sorted(chain_spec["rows"].items()):
        _plant_row(node, int(row), row_spec, precision)
    chain = node.vector_chain(precision)
    stored = []
    for step in chain_spec["steps"]:
        if step[0] == "load":
            chain.load(step[1], reg=step[2])
        elif step[0] == "store":
            chain.store(step[1], step[2])
            stored.append(step[2])
        else:
            _kind, name, srcs, scalars, dst = step
            chain.op(name, list(srcs), scalars=tuple(scalars),
                     length=n, dst_reg=dst)
    results = yield from node.run_chain(chain)
    dtype = dtype_for(precision)
    return {
        "results": [
            np.atleast_1d(np.asarray(r, dtype=dtype)).tobytes().hex()
            for r in results
        ],
        "regs": [reg.raw.tobytes().hex() for reg in node.vregs],
        "stored": {
            str(row): node.memory.read_row(row).tobytes().hex()
            for row in sorted(set(stored))
        },
        "t": node.engine.now,
    }


def execute(spec: dict) -> dict:
    """Run the workload on the current kernel; JSON outcome."""
    eng = Engine()
    vau = VectorArithmeticUnit(eng, PAPER_SPECS)
    node = (ProcessorNode(eng, PAPER_SPECS)
            if spec.get("node_chains") else None)
    node_outcomes = []
    results = []

    def workload():
        for op in spec["ops"]:
            inputs = _operands(op)
            result = yield from vau.execute(
                op["form"], inputs, tuple(op["scalars"]),
                op["precision"],
            )
            raw = np.atleast_1d(
                np.asarray(result, dtype=dtype_for(op["precision"]))
            )
            results.append({
                "form": op["form"],
                "t": eng.now,
                "bits": raw.tobytes().hex(),
            })
        for chain in spec.get("chains", ()):
            precision = chain["precision"]
            chained = yield from vau.execute_chain(
                [
                    (op["form"], _operands(op, precision),
                     tuple(op["scalars"]))
                    for op in chain["ops"]
                ],
                precision,
            )
            for op, result in zip(chain["ops"], chained):
                raw = np.atleast_1d(
                    np.asarray(result, dtype=dtype_for(precision))
                )
                results.append({
                    "form": op["form"],
                    "t": eng.now,
                    "chained": True,
                    "bits": raw.tobytes().hex(),
                })
        for chain_spec in spec.get("node_chains", ()):
            outcome = yield from _run_node_chain(node, chain_spec)
            node_outcomes.append(outcome)

    eng.run(until=eng.process(workload()))
    outcome = {
        "results": results,
        "now": eng.now,
        "flops": vau.flops,
        "busy_ns": vau.busy_ns,
        "completions": vau.completions,
        "adder_busy_ns": vau.adder.busy_ns,
        "multiplier_busy_ns": vau.multiplier.busy_ns,
    }
    if node is not None:
        outcome["node_chains"] = node_outcomes
        outcome["node_counters"] = {
            "flops": node.vau.flops,
            "busy_ns": node.vau.busy_ns,
            "model_chains": node.vau.model_chains,
            "model_chain_ops": node.vau.model_chain_ops,
            "row_accesses": node.memory.row_port.accesses,
            "row_busy_ns": node.memory.row_port.busy_ns,
        }
    return outcome


def _respec(spec: dict, ops=None, chains=None, node_chains=None) -> dict:
    """A spec copy with ``ops``/``chains``/``node_chains`` swapped out."""
    slim = {"kind": "vector",
            "ops": spec["ops"] if ops is None else ops}
    kept = spec.get("chains") if chains is None else chains
    if kept:
        slim["chains"] = kept
    kept_nodes = (spec.get("node_chains") if node_chains is None
                  else node_chains)
    if kept_nodes:
        slim["node_chains"] = kept_nodes
    return slim


def _slim_node_chain(chain: dict, steps=None, n=None, rows=None) -> dict:
    slim = {
        "precision": chain["precision"],
        "n": chain["n"] if n is None else n,
        "rows": chain["rows"] if rows is None else rows,
        "steps": chain["steps"] if steps is None else steps,
    }
    # Rows no longer loaded need no planting spec.
    loaded = {str(s[1]) for s in slim["steps"] if s[0] == "load"}
    slim["rows"] = {row: spec for row, spec in slim["rows"].items()
                    if row in loaded}
    return slim


def shrink_candidates(spec: dict):
    """Yield smaller workloads."""
    ops = spec["ops"]
    chains = spec.get("chains", [])
    node_chains = spec.get("node_chains", [])
    for i in range(len(ops)):
        if len(ops) > 1 or chains or node_chains:
            yield _respec(spec, ops=ops[:i] + ops[i + 1:])
    for i, op in enumerate(ops):
        if op["n"] > 1:
            slim = dict(op)
            slim["n"] = max(1, op["n"] // 2)
            yield _respec(spec, ops=ops[:i] + [slim] + ops[i + 1:])
        if op["specials"]:
            plain = dict(op)
            plain["specials"] = False
            yield _respec(spec, ops=ops[:i] + [plain] + ops[i + 1:])
    # Chain axes: drop a whole chain, peel one op out of a chain,
    # shrink or de-salt an op in place.
    for i in range(len(chains)):
        if ops or len(chains) > 1:
            yield _respec(spec, chains=chains[:i] + chains[i + 1:])
    for i, chain in enumerate(chains):
        cops = chain["ops"]
        for j in range(len(cops)):
            if len(cops) > 1:
                slim = {"precision": chain["precision"],
                        "ops": cops[:j] + cops[j + 1:]}
                yield _respec(spec,
                              chains=chains[:i] + [slim] + chains[i + 1:])
        for j, op in enumerate(cops):
            variants = []
            if op["n"] > 1:
                half = dict(op)
                half["n"] = max(1, op["n"] // 2)
                variants.append(half)
            if op["specials"]:
                plain = dict(op)
                plain["specials"] = False
                variants.append(plain)
            for variant in variants:
                slim = {"precision": chain["precision"],
                        "ops": cops[:j] + [variant] + cops[j + 1:]}
                yield _respec(spec,
                              chains=chains[:i] + [slim] + chains[i + 1:])
    # Node-chain axes: drop a whole chain, drop one step, halve the
    # vector length, de-salt a planted row.
    for i in range(len(node_chains)):
        if ops or chains or len(node_chains) > 1:
            yield _respec(
                spec,
                node_chains=node_chains[:i] + node_chains[i + 1:],
            )
    for i, chain in enumerate(node_chains):
        steps = chain["steps"]

        def _swap(slim_chain):
            return _respec(
                spec,
                node_chains=(node_chains[:i] + [slim_chain]
                             + node_chains[i + 1:]),
            )

        for j in range(len(steps)):
            if len(steps) > 1:
                yield _swap(_slim_node_chain(
                    chain, steps=steps[:j] + steps[j + 1:]
                ))
        if chain["n"] > 1:
            yield _swap(_slim_node_chain(chain, n=max(1, chain["n"] // 2)))
        for row, row_spec in sorted(chain["rows"].items()):
            if row_spec["specials"]:
                plain = dict(chain["rows"])
                plain[row] = {"seed": row_spec["seed"], "specials": False}
                yield _swap(_slim_node_chain(chain, rows=plain))
