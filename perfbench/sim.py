"""The two simulator workloads: ``sim_vector`` and ``sim_control``.

One op is one paper experiment, from its spec to its report, run
directly on the library (no service layer) on the default kernel
tier.  Specs come from the benchmark's seed: each kind gets a small
pool of specs whose numeric inputs (matrices, vectors, program
constants, fault times) are drawn from it, and ops cycle the pool in
shuffled blocks so every run has the same kind mix.  A warm-up
pass runs each spec once and records its simulated time and counters;
every timed op must reproduce them and match its NumPy or Python
reference answer.
"""

import gc
import json
import random
import resource
import time

import numpy as np

import stats
import tracing

from repro.algorithms import (
    distributed_fft,
    distributed_jacobi,
    distributed_matmul,
    distributed_solve,
    fft_reference,
    jacobi_reference,
    linpack_reference,
    matmul_reference,
)
from repro.analysis import all_fabric_links, engine_stats
from repro.core import PAPER_SPECS, ProcessorNode, TSeriesMachine
from repro.core.config import MachineConfig
from repro.cp import CPU, assemble
from repro.events import Engine, FaultLog
from repro.links.fabric import connect
from repro.occam.compiler import OccamCompiler, read_variable
from repro.occam.parser import parse
from repro.system.recovery import (
    FaultTolerantRun,
    RingStencilWorkload,
    compressed_timescale_specs,
)

#: Modules an op needs; ``setup_s`` times a fresh interpreter
#: importing them.
IMPORTS = ("numpy", "repro.algorithms", "repro.analysis", "repro.core",
           "repro.cp", "repro.events", "repro.links.fabric",
           "repro.occam.compiler", "repro.occam.parser",
           "repro.system.recovery")

#: Kinds per workload, one block of ops.  sim_control runs LINPACK
#: twice per block so the median op is a LINPACK solve rather than the
#: boundary between two kinds of different length.
BLOCKS = {
    "sim_vector": ("matmul", "jacobi", "fft"),
    "sim_control": ("dma", "occam", "linpack", "linpack", "recovery"),
}

POOL_PER_KIND = 4


# -- spec generation --------------------------------------------------

def make_specs(workload, seed):
    """The spec pool: ``POOL_PER_KIND`` specs per kind of the block."""
    rng = random.Random(f"{workload}:{seed}")
    specs = []
    for kind in dict.fromkeys(BLOCKS[workload]):
        for _ in range(POOL_PER_KIND):
            spec = {"kind": kind, "seed": rng.randrange(1 << 30)}
            if kind == "dma":
                spec["horizon_us"] = 4000
            elif kind == "occam":
                spec["a"] = rng.randint(100, 5000)
                spec["b"] = rng.randint(100, 5000)
                spec["n"] = rng.randint(560, 640)
            elif kind == "recovery":
                spec["kill_ns"] = rng.randrange(3_000_000, 8_000_000,
                                                100_000)
                spec["victim"] = rng.randint(1, 3)
            specs.append(spec)
    return specs


def op_sequence(workload, seed, specs):
    """Endless op order: shuffled blocks, each kind cycling its pool."""
    rng = random.Random(f"{workload}:{seed}:order")
    by_kind = {}
    for spec in specs:
        by_kind.setdefault(spec["kind"], []).append(spec)
    cursor = {kind: rng.randrange(len(pool))
              for kind, pool in by_kind.items()}
    block = list(BLOCKS[workload])
    while True:
        rng.shuffle(block)
        for kind in block:
            pool = by_kind[kind]
            yield pool[cursor[kind] % len(pool)]
            cursor[kind] += 1


# -- ops ----------------------------------------------------------------

def _machine_counters(engine, links, report):
    stats = engine_stats(engine)
    report["events"] = stats["events_processed"]
    report["heap_pushes"] = stats["heap_pushes"]
    vaus = getattr(engine, "vaus", ())
    report["vector_ops"] = sum(vau.completions for vau in vaus)
    report["fused_ops"] = sum(vau.model_chain_ops for vau in vaus)
    report["frames"] = sum(link.messages for link in links)
    report["sim_ns"] = engine.now
    return report


def _rng(spec):
    return np.random.default_rng(spec["seed"])


def op_matmul(spec):
    rng = _rng(spec)
    a = rng.standard_normal((16, 32))
    b = rng.standard_normal((32, 16))
    machine = TSeriesMachine(3, with_system=False)
    c, _elapsed, _mflops = distributed_matmul(machine, a, b)
    report = {"answer": c, "inputs": (a, b)}
    return _machine_counters(machine.engine, all_fabric_links(machine),
                             report)


def op_fft(spec):
    rng = _rng(spec)
    x = rng.standard_normal(256) + 1j * rng.standard_normal(256)
    machine = TSeriesMachine(3, with_system=False)
    out, _elapsed = distributed_fft(machine, x)
    report = {"answer": out, "inputs": (x,)}
    return _machine_counters(machine.engine, all_fabric_links(machine),
                             report)


def op_jacobi(spec):
    grid = _rng(spec).standard_normal((32, 32))
    machine = TSeriesMachine(3, with_system=False)
    out, _elapsed = distributed_jacobi(machine, grid, 4)
    report = {"answer": out, "inputs": (grid,)}
    return _machine_counters(machine.engine, all_fabric_links(machine),
                             report)


def op_linpack(spec):
    rng = _rng(spec)
    n = 16
    a = rng.standard_normal((n, n)) + n * np.eye(n)
    a = a[rng.permutation(n)]
    b = rng.standard_normal(n)
    machine = TSeriesMachine(2, with_system=False)
    x, _elapsed, _stats = distributed_solve(machine, a, b)
    report = {"answer": x, "inputs": (a, b)}
    return _machine_counters(machine.engine, all_fabric_links(machine),
                             report)


def op_dma(spec):
    """E15: the hub's CP gathers while all four links stream both ways
    and link DMA steals memory cycles."""
    specs = PAPER_SPECS.replace(dma_memory_traffic=True)
    engine = Engine()
    hub = ProcessorNode(engine, specs, node_id=0)
    peers = [ProcessorNode(engine, specs, node_id=1 + i)
             for i in range(4)]
    links = [connect(hub.comm, 4 * i, peer.comm, 0, role="hypercube")
             for i, peer in enumerate(peers)]
    addresses = [64 * i for i in range(100)]
    source = _rng(spec).standard_normal(len(addresses))
    for address, value in zip(addresses, source):
        hub.write_floats(address, [value])
    gathered = {"elements": 0}

    def cp_side():
        while True:
            yield from hub.gather(addresses, 0x80000)
            gathered["elements"] += len(addresses)

    def blast_out(slot):
        while True:
            yield from hub.comm.send(slot, "x", 1024)

    def blast_in(peer):
        while True:
            yield from peer.comm.send(0, "y", 1024)

    def drain(slot):
        while True:
            yield from hub.comm.recv(slot)

    engine.process(cp_side())
    for i in range(4):
        engine.process(blast_out(4 * i))
        engine.process(blast_in(peers[i]))
        engine.process(drain(4 * i))
    engine.run(until=spec["horizon_us"] * 1000)
    report = {
        "answer": hub.read_floats(0x80000, len(addresses)),
        "inputs": (source,),
        "elements": gathered["elements"],
    }
    return _machine_counters(engine, links, report)


OCCAM_SOURCE = """
SEQ
  a := {a}
  b := {b}
  WHILE b > 0
    SEQ
      t := a \\ b
      a := b
      b := t
  s := 0
  i := 0
  WHILE i < {n}
    SEQ
      s := s + ((i * i) \\ 7)
      i := i + 1
  PAR
    SEQ
      c ? y
      result := y + s
    c ! a * a
"""


def occam_expected(spec):
    """What the Occam program computes, in Python."""
    a, b = spec["a"], spec["b"]
    while b > 0:
        a, b = b, a % b
    s = sum((i * i) % 7 for i in range(spec["n"]))
    return a * a + s


def op_occam(spec):
    compiler = OccamCompiler()
    source = OCCAM_SOURCE.format(a=spec["a"], b=spec["b"], n=spec["n"])
    program = assemble(compiler.compile(parse(source)))
    cpu = CPU(program.code)
    cpu.run(max_steps=5_000_000)
    cache = cpu.cache_stats()
    cycle_ns = max(1, round(1000.0 / PAPER_SPECS.cp_mips))
    return {
        "answer": read_variable(cpu, compiler, "result"),
        "instructions": cpu.instructions,
        "block_hits": cache["block_hits"],
        "block_translations": cache["block_translations"],
        "events": 0, "heap_pushes": 0, "vector_ops": 0,
        "fused_ops": 0, "frames": 0,
        "sim_ns": cpu.cycles * cycle_ns,
    }


def _recovery_run(spec, kill):
    engine = Engine()
    FaultLog(engine)
    config = MachineConfig(2, specs=compressed_timescale_specs())
    machine = TSeriesMachine(config, engine=engine)
    workload = RingStencilWorkload(ranks=4, steps=8, exchange_every=4,
                                   compute_pad_ns=200_000)
    run = FaultTolerantRun(machine, workload,
                           checkpoint_interval_steps=4)
    if kill:
        def killer():
            yield engine.timeout(spec["kill_ns"])
            run.kill_node(spec["victim"])

        engine.process(killer(), name="killer")
    run.execute()
    report = {"answer": workload.digest(run),
              "recoveries": len(run.coordinator.recoveries)}
    return _machine_counters(engine, all_fabric_links(machine), report)


def op_recovery(spec):
    """E13: a node dies mid-run; detect, restore, remap, resume."""
    return _recovery_run(spec, kill=True)


OPS = {
    "matmul": op_matmul,
    "fft": op_fft,
    "jacobi": op_jacobi,
    "linpack": op_linpack,
    "dma": op_dma,
    "occam": op_occam,
    "recovery": op_recovery,
}

#: Counters an op must reproduce exactly, run after run.
COUNTERS = ("sim_ns", "events", "heap_pushes", "vector_ops",
            "fused_ops", "frames")


def run_op(spec):
    return OPS[spec["kind"]](spec)


# -- answers ------------------------------------------------------------

def reference_answer(spec, report):
    """The independent answer for ``spec`` (NumPy or Python)."""
    kind = spec["kind"]
    inputs = report.get("inputs")
    if kind == "matmul":
        return matmul_reference(*inputs)
    if kind == "fft":
        return fft_reference(*inputs)
    if kind == "jacobi":
        return jacobi_reference(inputs[0], 4)
    if kind == "linpack":
        return linpack_reference(*inputs)
    if kind == "dma":
        return inputs[0]
    if kind == "occam":
        return occam_expected(spec)
    if kind == "recovery":
        return _recovery_run(spec, kill=False)["answer"]
    raise KeyError(kind)


_TOLERANCE = {"matmul": dict(rtol=1e-9), "fft": dict(atol=1e-8),
              "jacobi": dict(atol=1e-10), "linpack": dict(rtol=1e-8),
              "dma": dict(rtol=0, atol=0)}


def check(spec, report, expected):
    """None if the op's answer and counters are right, else why not.

    ``expected`` is the warm-up record for this spec: its reference
    answer and the counters its first run produced.
    """
    kind = spec["kind"]
    answer = report["answer"]
    want = expected["reference"]
    if kind in _TOLERANCE:
        if not np.allclose(answer, want, **_TOLERANCE[kind]):
            return f"{kind}: answer differs from the NumPy reference"
    elif answer != want:
        return f"{kind}: answer {answer!r} != reference {want!r}"
    if kind == "recovery" and report["recoveries"] != 1:
        return f"recovery: {report['recoveries']} recoveries, wanted 1"
    if kind == "dma" and report["elements"] <= 0:
        return "dma: the CP gathered nothing"
    for key in COUNTERS:
        if report[key] != expected["counters"][key]:
            return (f"{kind}: {key} {report[key]} != "
                    f"{expected['counters'][key]} recorded for seed")
    return None


def record(spec, report):
    """The warm-up record ``check`` compares later runs with."""
    return {"reference": reference_answer(spec, report),
            "counters": {key: report[key] for key in COUNTERS}}


# -- drivers --------------------------------------------------------------

#: Ops in a traced run (whole blocks, so every kind is represented in
#: its block proportion).
TRACED_OPS = {"sim_vector": 45, "sim_control": 40}


def prepare(workload, seed, tally):
    """The spec pool and each spec's warm-up record."""
    specs = make_specs(workload, seed)
    expected = []
    for spec in specs:
        report = run_op(spec)
        expected.append(record(spec, report))
        error = check(spec, report, expected[-1])
        if error:
            tally.fail(f"warm-up {error}")
        else:
            tally.ok()
    for index, spec in enumerate(specs):
        spec["id"] = index
    return specs, expected


def checked_op(spec, expected, tally, clock):
    """Run one op and check it; returns ``(wall_s, report)``."""
    t0 = clock()
    report = run_op(spec)
    wall = clock() - t0
    error = check(spec, report, expected[spec["id"]])
    if error:
        tally.fail(error)
    else:
        tally.ok()
    return wall, report


def fixed_ops(workload, seed, specs):
    sequence = op_sequence(workload, seed, specs)
    return [next(sequence) for _ in range(TRACED_OPS[workload])]


#: Worker processes in a measured run, each running its own closed
#: loop: one per CPU of the two-CPU host this benchmark targets.  With a
#: single process the second CPU idles, the host hands its share of the
#: core to other tenants, and p50 moved by a third from run to run; with
#: both CPUs busy it moved by a few percent.
WORKERS = 2


def worker(params, stdin, stdout):
    """One measured closed loop, driven over pipes.

    Prepares, writes ``ready``, waits for a line on ``stdin`` so every
    worker starts timing together, then writes its numbers as one JSON
    line.
    """
    for qual, delay_s in params["delays"]:
        tracing.delay(qual, delay_s)
    tally = stats.Tally()
    specs, expected = prepare(params["workload"], params["seed"], tally)
    sequence = op_sequence(params["workload"],
                           f"{params['seed']}:{params['index']}", specs)

    def op():
        # Each op is one experiment on a fresh heap, as when run alone;
        # the collection counts in ops_per_s and cpu_ms_per_op only.
        gc.collect()
        return checked_op(next(sequence), expected, tally,
                          time.perf_counter)[0]

    stdout.write("ready\n")
    stdout.flush()
    stdin.readline()
    cpu0 = time.process_time()
    latencies, wall = stats.closed_loop(op, params["seconds"],
                                        params["min_ops"],
                                        params["hard_stop_s"])
    stdout.write(json.dumps({
        "latencies": latencies, "wall": wall,
        "cpu": time.process_time() - cpu0,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "tally": tally.as_json(),
    }) + "\n")
    stdout.flush()
