"""Golden-trace conformance suite.

A small registry of canonical workloads — one per major subsystem —
each of which produces a deterministic JSON-able trace.  The traces
are pinned under ``tests/golden/`` and checked against both kernel
tiers on every run: reference vs. stored and turbo vs. stored — and
hence (implicitly) turbo against reference.  Any behavioural drift in
the event engine, the CP interpreter, the Occam compiler, the vector
timing model, the gather/scatter engine, or the fault-recovery
orchestration shows up as a diff against a file in version control,
where it can be reviewed and — if intentional — regenerated with
``scripts/regen_golden.py``.

Unlike the fuzzer, which samples fresh behaviour every run, the golden
suite pins *specific* behaviour forever: the same seven workloads, the
same traces, bit-identical (floats are serialised as bit-pattern hex
where they appear).

Each workload imports its generator when it runs: the job-key
semantics fingerprint (:func:`repro.service.jobkey.semantics_fingerprint`)
reads only this registry's names and the stored files, so addressing a
job loads no simulator package.
"""

import hashlib
import json
import os

from repro.events.engine import KERNEL_TIERS, force_kernel

#: Fixed specs, one per generator, chosen to cover the interesting
#: machinery: prefix chains + loops + calls + a self-modifying patch
#: pad (cp); channels, stores, fractional timeouts, spawn and refire
#: (events); PAR/channel/replicator nesting (occam); both precisions,
#: special values and long vectors (vector).
_CP_SPEC = {
    "kind": "cp",
    "units": [
        {"t": "arith", "ops": [["ldc", 123456], ["adc", -7],
                               ["dup"], ["gt"], ["mint"], ["not"]]},
        {"t": "loop", "count": 5,
         "body": [["ldc", 3], ["adc", 4], ["stl", 7], ["ldl", 7]]},
        {"t": "call", "body": [["ldc", 17], ["eqc", 17]]},
        {"t": "channel", "dir": "out", "values": [11, -22, 33]},
        {"t": "patchpad",
         "pad": [[0x4, 1], [0x8, 2], [0x4, 3], [0xC, 4]],
         "reps": 4},
        {"t": "jump", "guard": 0,
         "body": [["ldc", 999], ["stnl_at", 0x1040]]},
    ],
    "patches": [
        {"after": 40, "offset": 1, "byte": 0x45},
        {"after": 80, "offset": 3, "byte": 0x8F},
    ],
}

_EVENTS_SPEC = {
    "kind": "events",
    "channels": 2,
    "stores": [[2]],
    "resources": [[1]],
    "procs": [
        [["timeout", 5], ["put", 0, 42], ["sput", 0, 7],
         ["hold", 0, 25], ["put", 1, -3]],
        [["get", 0], ["timeout", 0.5], ["get", 1], ["sget", 0],
         ["refire"]],
        [["timeout", 12.25], ["hold", 0, 10], ["spawn", 8, 4],
         ["sput", 0, 99]],
    ],
    "interrupts": [],
}

_OCCAM_SPEC = {
    "kind": "occam",
    "program": ["seq", [
        ["assign", "acc", ["num", 0]],
        ["par", [
            ["seq", [["out", "pipe", ["mul", ["num", 6], ["num", 7]]],
                     ["assign", "left", ["num", 1]]]],
            ["seq", [["in", "pipe", "stage"],
                     ["assign", "right",
                      ["add", ["var", "stage"], ["num", 100]]]]],
        ]],
        ["repseq", "i", 0, 4,
         ["assign", "acc", ["add", ["var", "acc"], ["var", "i"]]]],
        ["seq", [
            ["assign", "n", ["num", 3]],
            ["while", "n",
             ["assign", "acc", ["add", ["var", "acc"], ["num", 10]]]],
        ]],
    ]],
}

#: A program where each optimizer pass provably fires: a constant
#: expression tree (folding), a constant branch condition (dead-code
#: elimination strands the else arm — ``dead`` stays 0), a channel PAR
#: with the OUT in the child branch (channel-op fusion territory), and
#: a compound-right operand (a workspace spill for reallocation).
_OCCAM_OPT_SPEC = {
    "kind": "occam",
    "program": ["seq", [
        ["assign", "acc", ["num", 0]],
        ["assign", "folded", ["add", ["mul", ["num", 6], ["num", 7]],
                              ["sub", ["num", 100], ["num", 58]]]],
        ["if", ["num", 1],
         ["assign", "live", ["num", 5]],
         ["assign", "dead", ["num", 6]]],
        ["par", [
            ["seq", [["in", "pipe", "got"],
                     ["assign", "sum",
                      ["add", ["var", "got"], ["num", 1]]]]],
            ["out", "pipe", ["num", 41]],
        ]],
        ["assign", "spill", ["add", ["num", 3],
                             ["eq", ["var", "sum"], ["num", 42]]]],
        ["seq", [
            ["assign", "n", ["num", 4]],
            ["while", "n",
             ["assign", "acc",
              ["add", ["var", "acc"], ["var", "spill"]]]],
        ]],
    ]],
}

_VECTOR_SPEC = {
    "kind": "vector",
    "ops": [
        {"form": "VADD", "n": 100, "precision": 64, "seed": 7,
         "scalars": [], "specials": False},
        {"form": "VSMUL", "n": 33, "precision": 32, "seed": 8,
         "scalars": [2.5], "specials": True},
        {"form": "DOT", "n": 200, "precision": 64, "seed": 9,
         "scalars": [], "specials": False},
        {"form": "SAXPY", "n": 64, "precision": 32, "seed": 10,
         "scalars": [-1.25], "specials": True},
        {"form": "SUM", "n": 150, "precision": 64, "seed": 11,
         "scalars": [], "specials": True},
    ],
}


def _workload_cp():
    from repro.testing import gen_cp
    return gen_cp.execute(_CP_SPEC)


def _workload_events():
    from repro.testing import gen_events
    return gen_events.execute(_EVENTS_SPEC)


def _workload_occam():
    from repro.testing import gen_occam
    return gen_occam.execute(_OCCAM_SPEC)


def _workload_vector():
    from repro.testing import gen_vector
    return gen_vector.execute(_VECTOR_SPEC)


def _workload_occam_optimized():
    """The optimizer pipeline end to end, pinned in every dimension.

    The dual-compile outcome (the oracle's tier check covers both the
    ``-O0`` and ``-O2`` binaries bit-exactly), the optimizer's
    per-pass static report, the equivalence-invariant verdict (pinned
    empty), and the SHA-256 of the serialized ahead-of-time block
    table — so the artifact *format* can't drift silently either.
    """
    import hashlib as _hashlib

    from repro.cp.assembler import assemble
    from repro.occam.aot import compile_blocks
    from repro.occam.compiler import OccamCompiler
    from repro.testing import gen_occam

    outcome = gen_occam.execute(_OCCAM_OPT_SPEC)
    compiler = OccamCompiler(opt_level=2)
    source = compiler.compile(gen_occam.to_ast(_OCCAM_OPT_SPEC["program"]))
    payload = compile_blocks(assemble(source).code)
    canonical = json.dumps(payload, separators=(",", ":"),
                           sort_keys=True).encode()
    return {
        "outcome": outcome,
        "opt_report": compiler.opt_report,
        "invariant_problems": gen_occam.invariant(outcome),
        "aot_sha256": _hashlib.sha256(canonical).hexdigest(),
    }


def _workload_recovery_cycle():
    """A full detect→restore→remap→resume cycle under a forced node
    death, pinned end to end: the fault log (injection, heartbeat
    detection with its real latency, the recovery record), the final
    workload digest (bit-identical to a fault-free run by the
    stencil's placement-independence), and the run's stats."""
    from repro.core.config import MachineConfig
    from repro.core.machine import TSeriesMachine
    from repro.events import Engine, FaultLog
    from repro.system.recovery import (
        FaultTolerantRun,
        RingStencilWorkload,
        compressed_timescale_specs,
    )

    eng = Engine()
    FaultLog(eng)
    config = MachineConfig(4, specs=compressed_timescale_specs())
    machine = TSeriesMachine(config, engine=eng)
    workload = RingStencilWorkload(ranks=16, steps=24, exchange_every=4,
                                  compute_pad_ns=200_000)
    run = FaultTolerantRun(machine, workload,
                           checkpoint_interval_steps=8)

    def killer():
        yield eng.timeout(120_000_000)
        run.kill_node(5)

    eng.process(killer(), name="killer")
    stats = run.execute()
    return {
        "now": eng.now,
        "digest": workload.digest(run),
        "fault_log": eng.fault_log.as_json(),
        "recoveries": [r.as_json() for r in run.coordinator.recoveries],
        "detections": [d.as_json() for d in run.monitor.detections],
        "stats": {
            key: stats[key]
            for key in ("committed_step", "segments_run",
                        "segments_aborted", "snapshots_taken",
                        "recoveries", "dead_nodes", "lost_work_ns",
                        "assignment")
        },
    }


def _workload_gather_scatter():
    """The paper's 1.6 µs/element gather path plus a scatter back."""
    import numpy as np

    from repro.core.specs import PAPER_SPECS
    from repro.cp import GatherScatterEngine
    from repro.events import Engine
    from repro.memory import DualPortMemory

    eng = Engine()
    mem = DualPortMemory(eng, PAPER_SPECS)
    gs = GatherScatterEngine(eng, mem, PAPER_SPECS)
    addresses = [((i * 37) % 101) * 64 for i in range(40)]
    for i, addr in enumerate(addresses):
        value = np.float64(float(i) * 1.5 - 7.0)
        mem.poke_bytes(addr, np.frombuffer(value.tobytes(),
                                           dtype=np.uint8))
    trace = []

    def proc():
        yield from gs.gather(addresses, 0x80000, precision=64)
        trace.append(["gather_done", eng.now])
        yield from gs.scatter(0x80000, addresses, precision=64)
        trace.append(["scatter_done", eng.now])

    eng.run(until=eng.process(proc()))
    raw = mem.peek_bytes(0x80000, 8 * len(addresses))
    block = np.frombuffer(bytes(raw), dtype=np.float64)
    return {
        "trace": trace,
        "now": eng.now,
        "ns_per_element": gs.ns_per_element(64),
        "block_bits": block.tobytes().hex(),
        "block_sha256": hashlib.sha256(block.tobytes()).hexdigest(),
    }


WORKLOADS = {
    "cp_message_passing": _workload_cp,
    "events_mixed": _workload_events,
    "occam_pipeline": _workload_occam,
    "occam_optimized": _workload_occam_optimized,
    "vector_forms": _workload_vector,
    "node_gather_scatter": _workload_gather_scatter,
    "recovery_cycle": _workload_recovery_cycle,
}


def _normalise(outcome):
    """JSON round-trip so tuples/lists and int/float spellings match
    what a stored file parses back to."""
    return json.loads(json.dumps(outcome))


def capture(name: str) -> dict:
    """Run one workload on EVERY kernel tier; assert agreement; return
    the (normalised) trace."""
    workload = WORKLOADS[name]
    outcomes = {}
    for tier in KERNEL_TIERS:
        with force_kernel(tier=tier):
            outcomes[tier] = _normalise(workload())
    reference = outcomes["reference"]
    for tier in KERNEL_TIERS:
        if outcomes[tier] != reference:
            raise AssertionError(
                f"golden workload {name!r}: {tier} tier diverges "
                f"from reference"
            )
    return reference


def default_golden_dir() -> str:
    here = os.path.dirname(os.path.abspath(__file__))
    for _ in range(6):
        if os.path.isdir(os.path.join(here, "tests")):
            return os.path.join(here, "tests", "golden")
        here = os.path.dirname(here)
    return os.path.join(os.getcwd(), "tests", "golden")


def golden_path(directory: str, name: str) -> str:
    return os.path.join(directory, f"{name}.json")


def regen(directory: str) -> list:
    """(Re)write every golden file; returns the paths written."""
    os.makedirs(directory, exist_ok=True)
    paths = []
    for name in sorted(WORKLOADS):
        trace = capture(name)
        path = golden_path(directory, name)
        with open(path, "w") as handle:
            json.dump(trace, handle, indent=1, sort_keys=True)
            handle.write("\n")
        paths.append(path)
    return paths


def verify(directory: str) -> list:
    """Compare stored traces against fresh runs of every kernel tier.

    Returns a list of human-readable problem strings (empty = clean).
    """
    problems = []
    for name in sorted(WORKLOADS):
        path = golden_path(directory, name)
        if not os.path.exists(path):
            problems.append(f"{name}: golden file missing ({path})")
            continue
        with open(path) as handle:
            stored = json.load(handle)
        workload = WORKLOADS[name]
        for tier in KERNEL_TIERS:
            with force_kernel(tier=tier):
                fresh = _normalise(workload())
            if fresh != stored:
                problems.append(
                    f"{name}: {tier} tier diverges from stored trace"
                )
    return problems
