"""CP-ISA program fuzzer.

Emits random *valid* instruction streams for the control processor and
executes them on the cached fast path and the byte-at-a-time reference
path.  The generator is template-based: a program spec is a list of
*units* (straight-line arithmetic, workspace locals, scratch-memory
traffic, bounded loops, forward jumps, call/ret pairs, soft-channel
rendezvous between STARTP-spawned processes, and a patch pad) plus a
list of mid-run ``patch_code`` writes that stress the
decoded-instruction cache's invalidation rule.

The spec is JSON-able and rendering is deterministic, so a diverging
case can be shrunk and pinned as a reproducer.

Patch timing
------------
The cached path executes a whole prefix chain per ``step()`` while the
reference path executes one byte, so "after N steps" is not a
well-defined patch point.  "At the first instruction-chain boundary
with ``instructions >= N``" is: chain boundaries are architectural
(``Oreg == 0`` between chains, and the assembler never emits the one
``pfix 0`` encoding that could fake a boundary mid-chain), and the
byte counter advances identically on both paths.
"""

import random

from repro.cp.assembler import assemble
from repro.cp.cpu import CPU

#: Scratch data region for stnl/ldnl traffic (word aligned, well away
#: from workspaces and channel words).
SCRATCH_BASE = 0x1000
SCRATCH_WORDS = 64
#: Soft channel words.
CHANNEL_BASE = 0x3000
#: Child process workspaces (descending, 0x200 bytes apart).
CHILD_WS_TOP = 0xE000

#: Straight-line operations that are safe anywhere: they only touch
#: the evaluation stack and the error flag, both of which are compared
#: architectural state.
_STACK_OPS = (
    "rev", "add", "sub", "diff", "mul", "div", "rem", "gt", "and",
    "or", "xor", "not", "shl", "shr", "mint", "dup", "ldpi",
    "testerr",
)

#: Single-byte direct instructions allowed in the patch pad (and as
#: patch replacement bytes): ldc/adc/eqc with a nibble operand.
_PAD_OPCODES = (0x4, 0x8, 0xC)

MAX_STEP_BYTES = 60_000


# ------------------------------------------------------------ generate --


def _gen_ops(rng, n):
    """A list of straight-line op tuples."""
    ops = []
    for _ in range(n):
        kind = rng.randrange(6)
        if kind == 0:
            ops.append(["ldc", rng.randint(-(1 << 20), 1 << 20)])
        elif kind == 1:
            ops.append(["adc", rng.randint(-(1 << 16), 1 << 16)])
        elif kind == 2:
            ops.append(["eqc", rng.randint(-16, 16)])
        elif kind == 3:
            slot = rng.randint(1, 15)
            ops.append([rng.choice(["stl", "ldl"]), slot])
        elif kind == 4:
            addr = SCRATCH_BASE + 4 * rng.randrange(SCRATCH_WORDS)
            ops.append([rng.choice(["stnl_at", "ldnl_at"]), addr])
        else:
            ops.append([rng.choice(_STACK_OPS)])
    return ops


def generate(rng: random.Random) -> dict:
    """Draw one program spec."""
    units = []
    n_units = rng.randint(2, 8)
    has_pad = False
    n_channels = 0
    for _ in range(n_units):
        kind = rng.randrange(10)
        if kind < 4:
            units.append({"t": "arith", "ops": _gen_ops(rng, rng.randint(1, 10))})
        elif kind < 5:
            units.append({
                "t": "loop",
                "count": rng.randint(1, 8),
                "body": _gen_ops(rng, rng.randint(1, 6)),
            })
        elif kind < 6:
            units.append({
                "t": "jump",
                "guard": rng.choice([0, 0, 1, rng.randint(-5, 5)]),
                "body": _gen_ops(rng, rng.randint(1, 4)),
            })
        elif kind < 7:
            units.append({"t": "call", "body": _gen_ops(rng, rng.randint(1, 5))})
        elif kind < 9 and n_channels < 4:
            units.append({
                "t": "channel",
                "dir": rng.choice(["out", "in"]),
                "values": [rng.randint(-1000, 1000)
                           for _ in range(rng.randint(1, 5))],
            })
            n_channels += 1
        elif not has_pad:
            units.append({
                "t": "patchpad",
                "pad": [[rng.choice(_PAD_OPCODES), rng.randrange(16)]
                        for _ in range(rng.randint(2, 8))],
                "reps": rng.randint(2, 6),
            })
            has_pad = True
        else:
            units.append({"t": "arith", "ops": _gen_ops(rng, rng.randint(1, 6))})

    patches = []
    if has_pad:
        pad = next(u for u in units if u["t"] == "patchpad")
        for _ in range(rng.randint(1, 4)):
            patches.append({
                "after": rng.randint(1, 400),
                "offset": rng.randrange(len(pad["pad"])),
                "byte": (rng.choice(_PAD_OPCODES) << 4) | rng.randrange(16),
            })
    return {"kind": "cp", "units": units, "patches": patches}


# -------------------------------------------------------------- render --


def _render_ops(lines, ops):
    for op in ops:
        name = op[0]
        if name == "stnl_at":
            lines.append(f"    ldc {op[1]}")
            lines.append("    stnl 0")
        elif name == "ldnl_at":
            lines.append(f"    ldc {op[1]}")
            lines.append("    ldnl 0")
        elif len(op) == 2:
            lines.append(f"    {name} {op[1]}")
        else:
            lines.append(f"    {name}")


def render(spec: dict) -> str:
    """Deterministically render a spec to assembly source."""
    lines = []
    uid = 0
    n_chan = 0
    for unit in spec["units"]:
        uid += 1
        t = unit["t"]
        if t == "arith":
            _render_ops(lines, unit["ops"])
        elif t == "loop":
            lines.append(f"    ldc {unit['count']}")
            lines.append("    stl 14")
            lines.append(f"loop_{uid}:")
            _render_ops(lines, unit["body"])
            lines.append("    ldl 14")
            lines.append("    adc -1")
            lines.append("    dup")
            lines.append("    stl 14")
            lines.append(f"    cj loopdone_{uid}")
            lines.append(f"    j loop_{uid}")
            lines.append(f"loopdone_{uid}:")
        elif t == "jump":
            lines.append(f"    ldc {unit['guard']}")
            lines.append(f"    cj skip_{uid}")
            _render_ops(lines, unit["body"])
            lines.append(f"skip_{uid}:")
        elif t == "call":
            lines.append(f"    j around_{uid}")
            lines.append(f"sub_{uid}:")
            _render_ops(lines, unit["body"])
            lines.append("    ret")
            lines.append(f"around_{uid}:")
            lines.append(f"    call sub_{uid}")
        elif t == "channel":
            chan = CHANNEL_BASE + 4 * n_chan
            wptr = CHILD_WS_TOP - 0x200 * n_chan
            dest = SCRATCH_BASE + 4 * (SCRATCH_WORDS - 8 - n_chan)
            n_chan += 1
            values = unit["values"]
            lines.append("    mint")
            lines.append(f"    ldc {chan}")
            lines.append("    stnl 0")
            lines.append(f"    ldc child_{uid}")
            lines.append(f"    ldc {wptr}")
            lines.append("    startp")
            if unit["dir"] == "out":
                # Parent sends, child receives into scratch memory.
                for value in values:
                    lines.append(f"    ldc {chan}")
                    lines.append(f"    ldc {value}")
                    lines.append("    outword")
                lines.append(f"    j over_{uid}")
                lines.append(f"child_{uid}:")
                for j in range(len(values)):
                    lines.append(f"    ldc {dest + 4 * j}")
                    lines.append(f"    ldc {chan}")
                    lines.append("    ldc 4")
                    lines.append("    in")
                lines.append("    stopp")
            else:
                # Child sends, parent receives.
                for j in range(len(values)):
                    lines.append(f"    ldc {dest + 4 * j}")
                    lines.append(f"    ldc {chan}")
                    lines.append("    ldc 4")
                    lines.append("    in")
                lines.append(f"    j over_{uid}")
                lines.append(f"child_{uid}:")
                for value in values:
                    lines.append(f"    ldc {chan}")
                    lines.append(f"    ldc {value}")
                    lines.append("    outword")
                lines.append("    stopp")
            lines.append(f"over_{uid}:")
        elif t == "patchpad":
            count = unit["reps"]
            lines.append(f"    ldc {count}")
            lines.append("    stl 15")
            lines.append(f"padloop_{uid}:")
            lines.append(f"patchpad_{uid}:")
            for code, nibble in unit["pad"]:
                mnemonic = {0x4: "ldc", 0x8: "adc", 0xC: "eqc"}[code]
                lines.append(f"    {mnemonic} {nibble}")
            lines.append("    ldl 15")
            lines.append("    adc -1")
            lines.append("    dup")
            lines.append("    stl 15")
            lines.append(f"    cj paddone_{uid}")
            lines.append(f"    j padloop_{uid}")
            lines.append(f"paddone_{uid}:")
        else:  # pragma: no cover - specs come from generate()
            raise ValueError(f"unknown unit {t!r}")
    lines.append("    terminate")
    return "\n".join(lines) + "\n"


# ------------------------------------------------------------- execute --


def _pad_address(spec, program):
    """Code address of the (single) patch pad, or None."""
    for label, addr in program.symbols.items():
        if label.startswith("patchpad_"):
            return addr
    return None


def execute(spec: dict) -> dict:
    """Assemble and run a spec on the *current* kernel; JSON outcome."""
    source = render(spec)
    program = assemble(source)
    cpu = CPU(program.code, trace=True)
    pad = _pad_address(spec, program)
    patches = sorted(spec.get("patches", []), key=lambda p: p["after"])
    if pad is None:
        patches = []
    applied = 0
    stopped = "budget"
    while cpu.instructions < MAX_STEP_BYTES:
        if cpu.halted:
            stopped = "deadlocked" if cpu.deadlocked else "halted"
            break
        if cpu.oreg == 0:
            while (applied < len(patches)
                   and cpu.instructions >= patches[applied]["after"]):
                patch = patches[applied]
                cpu.patch_code(pad + patch["offset"],
                               bytes([patch["byte"]]))
                applied += 1
        # The turbo tier must hand control back at the same chain
        # boundaries this loop observes on the reference tier: the next
        # patch point and the byte budget.
        barrier = MAX_STEP_BYTES
        if applied < len(patches):
            barrier = min(barrier, patches[applied]["after"])
        cpu.step_barrier = barrier
        cpu.step()
    # The byte budget is a watchdog sampled at chain boundaries (the
    # boundaries step_barrier hands control back on).  The reference
    # kernel steps single bytes, so the budget can land mid
    # prefix-chain; finish the chain so every tier stops at the first
    # boundary at-or-past the budget.
    while not cpu.halted and cpu.oreg != 0:
        cpu.step()
    return {
        "stopped": stopped,
        "patches_applied": applied,
        "state": cpu.snapshot_state(),
        "trace": [list(entry) for entry in cpu.trace_log],
    }


# --------------------------------------------------------------- shrink --


def shrink_candidates(spec: dict):
    """Yield structurally smaller specs (the shrinker re-checks each)."""
    units = spec["units"]
    patches = spec.get("patches", [])

    def with_units(new_units, new_patches=None):
        out = dict(spec)
        out["units"] = new_units
        out["patches"] = patches if new_patches is None else new_patches
        if not any(u["t"] == "patchpad" for u in out["units"]):
            out["patches"] = []
        return out

    # Drop whole units (larger chunks first).
    for size in (len(units) // 2, 1):
        if size < 1:
            continue
        for start in range(0, len(units), size):
            kept = units[:start] + units[start + size:]
            if kept:
                yield with_units(kept)
    # Drop patches.
    for i in range(len(patches)):
        yield with_units(units, patches[:i] + patches[i + 1:])
    # Slim unit bodies and loop counts.
    for i, unit in enumerate(units):
        for key in ("ops", "body", "values", "pad"):
            seq = unit.get(key)
            if seq and len(seq) > 1:
                slim = dict(unit)
                slim[key] = seq[:len(seq) // 2]
                yield with_units(units[:i] + [slim] + units[i + 1:])
        for key in ("count", "reps"):
            if unit.get(key, 1) > 1:
                slim = dict(unit)
                slim[key] = 1
                yield with_units(units[:i] + [slim] + units[i + 1:])
