"""Grammar-based Occam program generator.

Draws random ASTs over the miniature Occam compiler's full surface —
SEQ, PAR, WHILE, IF, replicated SEQ/PAR, scalar and array assignment,
and channel nets (scalar channels and channel arrays inside PAR) —
compiles them through the assembler, and runs the binary on the
current CP kernel tier.  Compared outcome: every compiled variable's
final value, the instruction and cycle counters, and how the program
stopped.

Every case is also an optimizer conformance test: :func:`execute`
compiles the program twice — naively and at ``-O2`` through
:mod:`repro.occam.optimizer` — and runs both binaries, warm-starting
the optimized one from an ahead-of-time block table on the
block-translating turbo tier.  The optimized run's full state rides in the
outcome (so the oracle tier-compares *it* bit-exactly too), and
:func:`invariant` checks the two compiles agree on everything the
source program can observe: how it stopped, every variable's final
value, and the error flag.

The grammar deliberately over-produces optimizer fodder: constant-only
subtrees (folding, including values big enough to overflow and *block*
folding), constant branch conditions (dead-code elimination), and
channel OUTs inside child PAR branches (where channel-op fusion is
legal).

Validity rules the generator enforces (mirroring what Occam's static
usage rules would): PAR branches write disjoint variable sets,
replicated PAR bodies write array elements indexed by the replicator
index, every channel has exactly one writer and one reader, and every
WHILE is a bounded down-counter.

ASTs are serialised as nested JSON lists so cases can be shrunk and
pinned; :func:`to_ast` rebuilds the compiler's node objects.
"""

import random

from repro.cp.assembler import assemble
from repro.cp.cpu import CPU
from repro.occam.compiler import (
    Assign,
    AssignArray,
    ArrayRef,
    BinOp,
    ChanRef,
    Eq,
    If,
    In,
    Num,
    OccamCompiler,
    Out,
    Par,
    RepPar,
    RepSeq,
    Seq,
    Skip,
    Var,
    While,
    Gt,
    Sub,
    variables_snapshot,
)

#: Execution budget in executed code *bytes* — the unit that advances
#: identically on both kernel tiers (a step() call executes one byte,
#: one chain, or one translated block depending on the tier, so a
#: step-count budget would stop each tier at a different point).
MAX_STEP_BYTES = 400_000

_SAFE_OPS = ("add", "sub", "mul", "and", "or", "xor")


# ------------------------------------------------------------ generate --


class _Draw:
    """Spec-drawing state: variable pools and channel bookkeeping."""

    def __init__(self, rng):
        self.rng = rng
        self.next_var = 0
        self.next_chan = 0
        self.next_array = 0

    def fresh_vars(self, n):
        names = [f"v{self.next_var + i}" for i in range(n)]
        self.next_var += n
        return names

    def fresh_chan(self):
        self.next_chan += 1
        return f"ch{self.next_chan - 1}"

    def fresh_array(self):
        self.next_array += 1
        return f"arr{self.next_array - 1}"


def _gen_const_expr(rng, depth):
    """Constant-only subtree: folds to a single ``ldc`` — or refuses
    to, when an intermediate overflows (the occasional huge literal
    exercises exactly that must-not-fold path)."""
    if depth <= 0 or rng.random() < 0.35:
        return ["num", rng.choice([
            0, 1, -1, rng.randint(-100, 100),
            rng.randint(-(1 << 30), 1 << 30),
        ])]
    op = rng.choice(_SAFE_OPS + ("gt", "eq", "div", "rem"))
    left = _gen_const_expr(rng, depth - 1)
    if op in ("div", "rem"):
        right = ["num", rng.choice([1, 2, 3, 5, 7, -3])]  # never zero
    else:
        right = _gen_const_expr(rng, depth - 1)
    return [op, left, right]


def _gen_expr(rng, reads, depth):
    """Expression spec over readable variables ``reads``."""
    if depth > 0 and rng.random() < 0.15:
        return _gen_const_expr(rng, depth)
    if depth <= 0 or rng.random() < 0.4 or not reads:
        if reads and rng.random() < 0.5:
            return ["var", rng.choice(reads)]
        return ["num", rng.randint(-100, 100)]
    op = rng.choice(_SAFE_OPS + ("gt", "eq", "div", "rem"))
    left = _gen_expr(rng, reads, depth - 1)
    if op in ("div", "rem"):
        right = ["num", rng.choice([1, 2, 3, 5, 7, -3])]  # never zero
    else:
        right = _gen_expr(rng, reads, depth - 1)
    return [op, left, right]


def _gen_stmt(draw, writes, reads, depth):
    """Statement spec writing only into ``writes``."""
    rng = draw.rng
    if depth <= 0 or not writes:
        if not writes:
            return ["skip"]
        return ["assign", rng.choice(writes),
                _gen_expr(rng, reads, 2)]
    kind = rng.randrange(12)
    if kind == 10:
        # Constant condition: folds to an unconditional branch and
        # strands one arm for dead-code elimination.
        return ["if", ["num", rng.choice([0, 0, 1, 17])],
                _gen_stmt(draw, writes, reads, depth - 1),
                _gen_stmt(draw, writes, reads, depth - 1)]
    if kind == 11 and len(writes) >= 2:
        # Mirrored channel PAR: the OUT rides in the *child* branch,
        # the one region where the optimizer may fuse it to outword.
        half = len(writes) // 2
        chan = draw.fresh_chan()
        value = _gen_expr(rng, reads, 1)
        return ["par", [
            ["seq", [["in", chan, writes[0]],
                     _gen_stmt(draw, writes[:half], reads, depth - 1)]],
            ["seq", [["out", chan, value],
                     _gen_stmt(draw, writes[half:], reads, depth - 1)]],
        ]]
    if kind < 3:
        return ["assign", rng.choice(writes), _gen_expr(rng, reads, 2)]
    if kind < 5:
        return ["seq", [
            _gen_stmt(draw, writes, reads, depth - 1)
            for _ in range(rng.randint(1, 3))
        ]]
    if kind == 5:
        # Bounded WHILE: dedicated counter variable, down-counted.
        counter = draw.fresh_vars(1)[0]
        body = _gen_stmt(draw, writes, reads + [counter], depth - 1)
        return ["seq", [
            ["assign", counter, ["num", rng.randint(1, 6)]],
            ["while", counter, body],
        ]]
    if kind == 6:
        return ["if", _gen_expr(rng, reads, 2),
                _gen_stmt(draw, writes, reads, depth - 1),
                _gen_stmt(draw, writes, reads, depth - 1)]
    if kind == 7 and len(writes) >= 2:
        # PAR with disjoint write sets; optionally a channel pair.
        half = len(writes) // 2
        branches = [
            _gen_stmt(draw, writes[:half], reads, depth - 1),
            _gen_stmt(draw, writes[half:], reads, depth - 1),
        ]
        if rng.random() < 0.6:
            chan = draw.fresh_chan()
            value = _gen_expr(rng, reads, 1)
            branches[0] = ["seq", [["out", chan, value], branches[0]]]
            branches[1] = ["seq", [["in", chan, writes[half]],
                                   branches[1]]]
        return ["par", branches]
    if kind == 8:
        # Replicated SEQ accumulating into one variable.
        index = draw.fresh_vars(1)[0]
        target = rng.choice(writes)
        return ["repseq", index, rng.randint(0, 3), rng.randint(1, 4),
                ["assign", target,
                 ["add", ["var", target], ["var", index]]]]
    # Replicated PAR writing disjoint array elements.
    array = draw.fresh_array()
    index = f"k{draw.next_var}"
    count = rng.randint(2, 3)
    return ["reppar", array, index, count,
            _gen_expr(rng, reads, 1)]


def generate(rng: random.Random) -> dict:
    """Draw one Occam program spec."""
    draw = _Draw(rng)
    names = draw.fresh_vars(rng.randint(2, 6))
    init = [["assign", name, ["num", rng.randint(-20, 20)]]
            for name in names]
    body = [
        _gen_stmt(draw, names, names, rng.randint(1, 3))
        for _ in range(rng.randint(1, 4))
    ]
    return {"kind": "occam", "program": ["seq", init + body]}


# ----------------------------------------------------------- spec → AST --


def _expr_ast(spec):
    tag = spec[0]
    if tag == "num":
        return Num(spec[1])
    if tag == "var":
        return Var(spec[1])
    if tag == "eq":
        return Eq(_expr_ast(spec[1]), _expr_ast(spec[2]))
    if tag == "aref":
        return ArrayRef(spec[1], _expr_ast(spec[2]))
    return BinOp(tag, _expr_ast(spec[1]), _expr_ast(spec[2]))


def to_ast(spec):
    """Rebuild compiler AST nodes from a statement spec."""
    tag = spec[0]
    if tag == "skip":
        return Skip()
    if tag == "assign":
        return Assign(spec[1], _expr_ast(spec[2]))
    if tag == "seq":
        return Seq([to_ast(s) for s in spec[1]])
    if tag == "par":
        return Par([to_ast(s) for s in spec[1]])
    if tag == "while":
        # Bounded loop: WHILE counter > 0: body; counter -= 1.
        counter = spec[1]
        return While(
            Gt(Var(counter), Num(0)),
            Seq([to_ast(spec[2]),
                 Assign(counter, Sub(Var(counter), Num(1)))]),
        )
    if tag == "if":
        return If(_expr_ast(spec[1]), to_ast(spec[2]), to_ast(spec[3]))
    if tag == "out":
        return Out(spec[1], _expr_ast(spec[2]))
    if tag == "in":
        return In(spec[1], spec[2])
    if tag == "repseq":
        return RepSeq(spec[1], spec[2], spec[3], to_ast(spec[4]))
    if tag == "reppar":
        array, index, count, expr = spec[1], spec[2], spec[3], spec[4]
        return RepPar(index, 0, count,
                      AssignArray(array, Var(index), _expr_ast(expr)))
    if tag == "chanref_out":  # channel-array element output
        return Out(ChanRef(spec[1], _expr_ast(spec[2])),
                   _expr_ast(spec[3]))
    raise ValueError(f"unknown statement spec {spec!r}")


# ------------------------------------------------------------- execute --


def _run_code(code, aot_payload=None):
    """Run assembled code on the current tier; returns (cpu, stopped).

    ``aot_payload`` warm-starts a block-translating CPU from a
    pre-compiled table (ignored on the reference tier), so every fuzz
    case also checks that an ahead-of-time load is bit-identical to
    runtime translation.
    """
    cpu = CPU(code)
    if aot_payload is not None and cpu._use_cache:
        cpu.import_blocks(aot_payload)
    stopped = "budget"
    cpu.step_barrier = MAX_STEP_BYTES
    while cpu.instructions < MAX_STEP_BYTES:
        if cpu.halted:
            stopped = "deadlocked" if cpu.deadlocked else "halted"
            break
        cpu.step()
    # Budget stops land on chain boundaries (see gen_cp.execute): the
    # byte-at-a-time reference path must finish a prefix chain the
    # budget interrupted so all tiers observe the same stop point.
    while not cpu.halted and cpu.oreg != 0:
        cpu.step()
    return cpu, stopped


#: Optimization level of the optimized half of every dual compile.
OPT_LEVEL = 2


def execute(spec: dict) -> dict:
    """Compile naively *and* optimized, run both; JSON outcome.

    The baseline half keeps the historic outcome shape; the
    ``optimized`` sub-dict carries the ``-O2`` run's full state, so
    the oracle's tier comparison covers optimized code bit-exactly,
    and :func:`invariant` checks the two compiles agree on observable
    results within each tier.
    """
    from repro.occam.aot import compile_blocks

    compiler = OccamCompiler()
    source = compiler.compile(to_ast(spec["program"]))
    cpu, stopped = _run_code(assemble(source).code)

    level = spec.get("opt", OPT_LEVEL)
    opt_compiler = OccamCompiler(opt_level=level)
    opt_source = opt_compiler.compile(to_ast(spec["program"]))
    opt_code = assemble(opt_source).code
    opt_cpu, opt_stopped = _run_code(
        opt_code, aot_payload=compile_blocks(opt_code))
    assert opt_cpu.block_translations == 0, \
        "AOT warm start must leave the runtime translator idle"
    return {
        "stopped": stopped,
        "variables": variables_snapshot(cpu, compiler),
        "state": cpu.snapshot_state(),
        "optimized": {
            "level": level,
            "stopped": opt_stopped,
            "variables": variables_snapshot(opt_cpu, opt_compiler),
            "state": opt_cpu.snapshot_state(),
        },
    }


def invariant(outcome: dict) -> list:
    """Optimized-vs-baseline equivalence within one tier's outcome.

    The optimizer must preserve everything the *source program* can
    observe — how it stopped, final variable values, the error flag —
    while instruction/cycle counts, registers, and memory layout are
    free to improve.  Returns a list of problem strings (empty when
    the compiles agree).

    Baseline budget stops are not comparable: the byte budget lands at
    a different program point in shorter code.  The reverse — the
    baseline halting within budget while the optimized build does not
    — *is* a bug (optimized code never runs more bytes).
    """
    problems = []
    opt = outcome.get("optimized")
    if opt is None:
        return problems  # pre-optimizer outcome shape (old pins)
    if outcome["stopped"] == "budget":
        return problems
    if opt["stopped"] == "budget":
        return [f"optimized run exhausted the budget where the "
                f"baseline {outcome['stopped']}"]
    if opt["stopped"] != outcome["stopped"]:
        problems.append(f"optimized stopped {opt['stopped']!r} != "
                        f"baseline {outcome['stopped']!r}")
    if opt["state"]["error"] != outcome["state"]["error"]:
        problems.append(f"optimized error flag {opt['state']['error']} "
                        f"!= baseline {outcome['state']['error']}")
    base_vars = outcome["variables"]
    opt_vars = opt["variables"]
    for name in sorted(set(base_vars) | set(opt_vars)):
        if base_vars.get(name) != opt_vars.get(name):
            problems.append(
                f"variable {name}: optimized {opt_vars.get(name)!r} "
                f"!= baseline {base_vars.get(name)!r}")
    return problems


# --------------------------------------------------------------- shrink --


def _stmt_candidates(spec):
    """Yield smaller versions of one statement spec."""
    tag = spec[0]
    if tag in ("seq", "par"):
        body = spec[1]
        for i in range(len(body)):
            if tag == "seq" or len(body) > 2:
                yield [tag, body[:i] + body[i + 1:]] \
                    if len(body) > 1 else ["skip"]
        for i, child in enumerate(body):
            for slim in _stmt_candidates(child):
                yield [tag, body[:i] + [slim] + body[i + 1:]]
    elif tag == "while":
        yield spec[2]
        for slim in _stmt_candidates(spec[2]):
            yield ["while", spec[1], slim]
    elif tag == "if":
        yield spec[2]
        yield spec[3]
    elif tag in ("repseq",):
        yield spec[4]
        if spec[3] > 1:
            yield ["repseq", spec[1], spec[2], 1, spec[4]]
    elif tag == "reppar":
        if spec[3] > 2:
            yield ["reppar", spec[1], spec[2], 2, spec[4]]
    elif tag == "assign":
        yield ["skip"]


def shrink_candidates(spec: dict):
    for slim in _stmt_candidates(spec["program"]):
        yield {"kind": "occam", "program": slim}
