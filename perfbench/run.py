"""The repository benchmark: simulator and service, end to end and by
layer.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Workloads (each a closed loop):

* ``sim_vector`` — E12 matmul, FFT and Jacobi on a 3-cube, run
  directly on the library: the VAU/softfloat layer and the node chain
  pipeline do the work.
* ``sim_control`` — E14 LINPACK, E15 hub DMA contention, an Occam
  program compiled and run on the CP, and an E13 fault-recovery cycle:
  the event kernel, CP interpreter and link framing do the work.
* ``wire_warm`` — windows of 32 cache hits against a served process,
  framed and pipelined (three ops in four) or one HTTP batch: the read
  path, with no simulation.
* ``wire_cold`` — one never-seen tiny job per op, framed, with a
  journal and a 2,000-entry store: the write path.

The sim workloads time their ops in two worker processes, one per CPU
(``sim.WORKERS``); the wire workloads drive one served process from
this one.

``--trace 0`` times the loop for ``--seconds`` (and at least 200 ops,
so ten samples lie beyond p95) and reports the end-to-end metrics;
``--trace 1`` runs a fixed op list twice, untraced and then with every
layer's public functions wrapped (see ``tracing.py``), and reports the
per-layer metrics.  Every answer is checked; failed ops are counted.
Simulated time is ``sim_ns``; every other time is host time.

The last line of output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``error_rate`` is printed with the other
end-to-end metrics but left out of that object's ``metrics``: it is
``failed / attempted``, both already in the object, and it is zero
whenever the program is correct.
"""

import argparse
import gc
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

import stats
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(HERE, ".work")

WORKLOADS = ("sim_vector", "sim_control", "wire_warm", "wire_cold")

#: How many times one run sets the system under test up; setup_s is
#: the median.
SETUP_REPEATS = 5
#: A timed loop never runs past this, whatever its op count.
HARD_STOP_S = 120.0
#: Environment variable naming functions to slow down, for the
#: sensitivity self-test only: ``module:Qual.name=seconds,...``.
DELAY_ENV = "PERFBENCH_DELAY"
#: Spans of this many traced ops are written out at exit (one file per
#: workload, overwritten by the next traced run).
DUMPED_OPS = 1

END_TO_END = (
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
    ("error_rate", "share"),
)

PER_LAYER = (
    ("events.self_ms_per_op", "ms"),
    ("events.ns_per_event", "ns"),
    ("cp.self_ms_per_op", "ms"),
    ("cp.ns_per_instruction", "ns"),
    ("cp.block_reuse_share", "share"),
    ("occam.compile_ms_per_op", "ms"),
    ("fpu.self_ms_per_op", "ms"),
    ("fpu.fused_share", "share"),
    ("core.chain_ms_per_op", "ms"),
    ("algorithms.self_ms_per_op", "ms"),
    ("memory.self_ms_per_op", "ms"),
    ("links.self_ms_per_op", "ms"),
    ("runtime.self_ms_per_op", "ms"),
    ("system.self_ms_per_op", "ms"),
    ("service.net.framed_req_ms", "ms"),
    ("service.net.http_req_ms", "ms"),
    ("service.net.codec_us_per_req", "us"),
    ("service.jobkey.key_us_per_req", "us"),
    ("service.scheduler.submit_us_per_req", "us"),
    ("service.cache.get_us_per_req", "us"),
    ("service.cache.memory_hit_share", "share"),
    ("service.cache.put_ms_per_op", "ms"),
    ("service.journal.append_ms_per_op", "ms"),
    ("service.journal.fsyncs_per_op", "count"),
    ("service.scheduler.queued_ms_p50", "ms"),
    ("parallel.run_ms_p50", "ms"),
    ("service.overhead_ms_p50", "ms"),
    ("events.events_per_op", "count"),
    ("events.heap_pushes_per_op", "count"),
    ("events.sim_ns_per_op", "sim_ns"),
    ("fpu.vector_ops_per_op", "count"),
    ("links.frames_per_op", "count"),
    ("trace.covered_share", "share"),
    ("trace.overhead_share", "share"),
)

#: Layers whose self time is reported as ``<layer>.self_ms_per_op``.
SELF_LAYERS = ("events", "cp", "fpu", "algorithms", "memory", "links",
               "runtime", "system")


class Metrics:
    """Metric values with their units and sample counts."""

    def __init__(self, table):
        self.units = dict(table)
        self.order = [name for name, _unit in table]
        self.values = {}
        self.samples = {}

    def set(self, name, value, samples=None):
        if name not in self.units:
            raise KeyError(name)
        self.values[name] = float(value)
        self.samples[name] = samples

    def lines(self):
        for name in self.order:
            note = ""
            if self.samples.get(name) is not None:
                note = f"  ({self.samples[name]})"
            yield (f"metric {name} = {self.values[name]:.6g} "
                   f"{self.units[name]}{note}")

    def as_json(self, names):
        return {name: {"value": self.values[name],
                       "unit": self.units[name]} for name in names}


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="Simulator and service benchmark.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def provenance(args, extra):
    import numpy

    from repro.events.engine import kernel_tier
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "traced": bool(args.trace),
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "kernel_tier": kernel_tier(),
        **extra,
    }


def latency_metrics(metrics, latencies, unit_scale=1e3):

    n = len(latencies)
    for q, name in ((50, "latency_p50_ms"), (95, "latency_p95_ms")):
        value = stats.percentile(latencies, q)
        if value is None:
            raise RuntimeError(f"{n} ops cannot support p{q}")
        metrics.set(name, value * unit_scale,
                    f"n={n}, {stats.beyond(n, q)} beyond")
    return {"ops": n, "beyond_p50": stats.beyond(n, 50),
            "beyond_p95": stats.beyond(n, 95)}


# -- simulator workloads --------------------------------------------------

def sim_import_seconds(imports):
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            + "; ".join(f"import {name}" for name in imports)
            + "; sys.stdout.write('ready\\n'); sys.stdout.flush()")
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", code, SRC],
                            stdout=subprocess.PIPE,
                            stdin=subprocess.DEVNULL)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - t0
    proc.stdout.close()
    proc.wait()
    if line.strip() != b"ready" or proc.returncode:
        raise RuntimeError("import probe failed")
    return elapsed


def run_sim(args, tally):
    import sim

    metrics = Metrics(END_TO_END)
    setups = [sim_import_seconds(sim.IMPORTS)
              for _ in range(SETUP_REPEATS)]
    params = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "hard_stop_s": HARD_STOP_S,
              "min_ops": math.ceil(stats.min_samples(95) / sim.WORKERS),
              "delays": args.delays}
    code = ("import json, sys; sys.path[:0] = sys.argv[1:3]; import sim; "
            "sim.worker(json.loads(sys.argv[3]), sys.stdin, sys.stdout)")
    workers = [
        subprocess.Popen(
            [sys.executable, "-c", code, SRC, HERE,
             json.dumps(dict(params, index=index))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        for index in range(sim.WORKERS)
    ]
    try:
        for process in workers:
            if process.stdout.readline().strip() != "ready":
                raise RuntimeError("a sim worker failed to start")
        for process in workers:
            process.stdin.write("go\n")
            process.stdin.flush()
        outs = [json.loads(process.stdout.readline())
                for process in workers]
    finally:
        for process in workers:
            process.stdin.close()
            process.stdout.close()
            try:
                process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
    latencies = [x for out in outs for x in out["latencies"]]
    for out in outs:
        tally.merge(out["tally"])
    extra = latency_metrics(metrics, latencies)
    n = len(latencies)
    wall = max(out["wall"] for out in outs)
    metrics.set("ops_per_s", n / wall,
                f"{n} ops in {wall:.2f} s on {len(outs)} workers")
    metrics.set("cpu_ms_per_op",
                sum(out["cpu"] for out in outs) / n * 1e3, f"n={n}")
    metrics.set("peak_rss_mb", max(out["rss_mb"] for out in outs),
                "largest worker process")
    metrics.set("setup_s", statistics.median(setups),
                f"median of {len(setups)} interpreter starts")
    metrics.set("error_rate", tally.error_rate,
                f"{tally.failed} of {tally.attempted}")
    return metrics, extra


def run_sim_traced(args, tally):
    import sim

    metrics = Metrics(PER_LAYER)
    specs, expected = sim.prepare(args.workload, args.seed, tally)
    ops = sim.fixed_ops(args.workload, args.seed, specs)
    untraced = 0.0
    for spec in ops:
        gc.collect()
        untraced += sim.checked_op(spec, expected, tally,
                                   time.perf_counter)[0]

    recorder = tracing.SpanRecorder()
    tracing.install(recorder)
    named_ns, counts = {}, {}
    op_ns = covered_ns = 0
    dumped = []
    traced = 0.0
    for index, spec in enumerate(ops):
        gc.collect()
        recorder.op = index
        span = recorder.open("op", "op")
        wall, report = sim.checked_op(spec, expected, tally,
                                      time.perf_counter)
        recorder.close(span)
        traced += wall
        batch = recorder.take()
        names = tracing.self_times(batch)
        for name, ns in names.items():
            named_ns[name] = named_ns.get(name, 0) + ns
        op_ns += batch[0][2] - batch[0][1]
        covered_ns += (batch[0][2] - batch[0][1]) - names["op"]
        for key in ("events", "heap_pushes", "sim_ns", "vector_ops",
                    "fused_ops", "frames", "instructions", "block_hits",
                    "block_translations"):
            counts[key] = counts.get(key, 0) + report.get(key, 0)
        if index < DUMPED_OPS:
            dumped.extend(batch)
    dump_spans(args, dumped)

    n = len(ops)
    per_op = f"n={n} ops"
    layer_ns = layer_time_metrics(metrics, named_ns, n)
    metrics.set("events.ns_per_event",
                ratio(layer_ns.get("events", 0), counts["events"]),
                f"{counts['events']} events")
    metrics.set("cp.ns_per_instruction",
                ratio(layer_ns.get("cp", 0), counts["instructions"]),
                f"{counts['instructions']} instructions")
    blocks = counts["block_hits"] + counts["block_translations"]
    metrics.set("cp.block_reuse_share",
                ratio(counts["block_hits"], blocks), f"{blocks} blocks")
    metrics.set("fpu.fused_share",
                ratio(counts["fused_ops"], counts["vector_ops"]),
                f"{counts['vector_ops']} vector ops")
    for name, key in (("events.events_per_op", "events"),
                      ("events.heap_pushes_per_op", "heap_pushes"),
                      ("events.sim_ns_per_op", "sim_ns"),
                      ("fpu.vector_ops_per_op", "vector_ops"),
                      ("links.frames_per_op", "frames")):
        metrics.set(name, counts[key] / n, per_op)
    for name, _unit in PER_LAYER:
        if name.startswith(("service.", "parallel.")):
            metrics.set(name, 0.0, "no service layer in this workload")
    metrics.set("trace.covered_share", ratio(covered_ns, op_ns),
                "layer spans over op wall time")
    metrics.set("trace.overhead_share", 1.0 - untraced / traced,
                f"{n} ops: {untraced:.2f} s untraced, {traced:.2f} s "
                "traced")
    return metrics, {"ops": n}


def ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def layer_time_metrics(metrics, named_ns, n):
    """The ``*_ms_per_op`` layer metrics from per-span self times over
    ``n`` ops; returns the per-layer totals."""
    layer_ns = tracing.by_layer(named_ns)
    per_op = f"n={n} ops"
    for layer in SELF_LAYERS:
        metrics.set(f"{layer}.self_ms_per_op",
                    layer_ns.get(layer, 0) / n / 1e6, per_op)
    metrics.set("occam.compile_ms_per_op",
                layer_ns.get("occam", 0) / n / 1e6, per_op)
    chain = sum(ns for name, ns in named_ns.items()
                if name.startswith(("core:ChainBuilder.",
                                    "core:ProcessorNode.run_chain",
                                    "core:ProcessorNode.vector_chain")))
    metrics.set("core.chain_ms_per_op", chain / n / 1e6, per_op)
    return layer_ns


def dump_spans(args, spans):
    os.makedirs(WORKDIR, exist_ok=True)
    path = os.path.join(WORKDIR, f"spans-{args.workload}.json")
    with open(path, "w") as handle:
        json.dump([list(span[:5]) for span in spans], handle)


# -- wire workloads -------------------------------------------------------

def run_wire(args, tally):
    import wire

    metrics = Metrics(END_TO_END)
    os.makedirs(WORKDIR, exist_ok=True)
    rig = wire.Rig(args.workload, args.seed, ROOT, WORKDIR, args.delays)
    server = None
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            if server is not None:
                server.stop()
            server = rig.server()
            setups.append(server.start())
        client = wire.Client(rig, server, tally)
        for _ in range(wire.WARMUP_OPS[args.workload]):
            client.op()
        cpu0 = server.cpu_seconds()
        latencies, wall = stats.closed_loop(
            client.op, args.seconds, stats.min_samples(95), HARD_STOP_S,
            client.exhausted)
        cpu = server.cpu_seconds() - cpu0
        rss = server.peak_rss_mb()
        client.close()
    finally:
        if server is not None:
            server.stop()
        rig.close()
    extra = latency_metrics(metrics, latencies)
    n = len(latencies)
    metrics.set("ops_per_s", n / wall, f"{n} ops in {wall:.2f} s")
    metrics.set("cpu_ms_per_op", cpu / n * 1e3,
                f"n={n}, server process")
    metrics.set("peak_rss_mb", rss, "server process")
    metrics.set("setup_s", statistics.median(setups),
                f"median of {len(setups)} server starts")
    metrics.set("error_rate", tally.error_rate,
                f"{tally.failed} of {tally.attempted}")
    return metrics, extra


def run_wire_traced(args, tally):
    import wire

    metrics = Metrics(PER_LAYER)
    os.makedirs(WORKDIR, exist_ok=True)
    rig = wire.Rig(args.workload, args.seed, ROOT, WORKDIR, args.delays)
    count = wire.TRACED_OPS[args.workload]
    spans_path = os.path.join(rig.rundir, "spans.json")
    try:
        walls, logs, deltas = [], None, None
        for traced in (False, True):
            server = rig.server(spans_path if traced else None)
            try:
                server.start()
                client = wire.Client(rig, server, tally)
                for _ in range(wire.WARMUP_OPS[args.workload]):
                    client.op()
                client.log = []
                before = server.stats()
                t0 = time.perf_counter()
                for _ in range(count):
                    client.op()
                walls.append(time.perf_counter() - t0)
                after = server.stats()
                client.close()
            finally:
                server.stop()
            if traced:
                logs = client.log
                deltas = counter_deltas(before, after)
        with open(spans_path) as handle:
            spans = [tuple(span[:5]) + (tuple(span[5]) if isinstance(
                span[5], list) else span[5],) for span in json.load(handle)]
    finally:
        rig.close()
    untraced, traced = walls
    named_ns, covered_ns = join_spans(spans, logs)
    requests = sum(entry.requests for entry in logs)
    n = len(logs)
    op_ns = sum(entry.end - entry.start for entry in logs) * 1e9
    per_op = f"n={n} ops"
    per_req = f"{requests} requests"
    layer_ns = layer_time_metrics(metrics, named_ns, n)
    for name in ("events.ns_per_event", "cp.ns_per_instruction",
                 "cp.block_reuse_share",
                 "fpu.fused_share", "events.events_per_op",
                 "events.heap_pushes_per_op", "events.sim_ns_per_op",
                 "fpu.vector_ops_per_op", "links.frames_per_op"):
        metrics.set(name, 0.0, "simulator counters stay in the server")
    for dialect in ("framed", "http"):
        windows = [(e.end - e.start) / e.requests for e in logs
                   if e.dialect == dialect]
        metrics.set(f"service.net.{dialect}_req_ms",
                    stats.median(windows) * 1e3,
                    f"{len(windows)} {dialect} ops")
    codec = sum(named_ns.get(name, 0) for name in (
        "service.net:FrameDecoder.feed", "service.net:encode_frame"))
    metrics.set("service.net.codec_us_per_req", codec / requests / 1e3,
                per_req)
    metrics.set("service.jobkey.key_us_per_req",
                layer_ns.get("service.jobkey", 0) / requests / 1e3,
                per_req)
    metrics.set("service.scheduler.submit_us_per_req",
                named_ns.get("service.scheduler:SimulationService.submit",
                             0) / requests / 1e3, per_req)
    metrics.set("service.cache.get_us_per_req",
                named_ns.get("service.cache:ResultCache.get", 0)
                / requests / 1e3, per_req)
    hits = deltas["memory_hits"] + deltas["disk_hits"]
    metrics.set("service.cache.memory_hit_share",
                ratio(deltas["memory_hits"], hits), f"{hits} hits")
    metrics.set("service.cache.put_ms_per_op",
                named_ns.get("service.cache:ResultCache.put", 0)
                / n / 1e6, f"{deltas['stores']} stores")
    metrics.set("service.journal.append_ms_per_op",
                layer_ns.get("service.journal", 0) / n / 1e6, per_op)
    metrics.set("service.journal.fsyncs_per_op", deltas["fsyncs"] / n,
                f"{deltas['fsyncs']} fsyncs")
    queued = [q for entry in logs for q in entry.queued]
    run = [r for entry in logs for r in entry.run]
    overhead = []
    for e in logs:
        per_request = (e.end - e.start) / e.requests
        overhead.extend(per_request - a - b
                        for a, b in zip(e.queued, e.run))
    metrics.set("service.scheduler.queued_ms_p50",
                stats.median(queued) * 1e3,
                f"{len(queued)} records")
    metrics.set("parallel.run_ms_p50", stats.median(run) * 1e3,
                f"{len(run)} records")
    metrics.set("service.overhead_ms_p50",
                stats.median(overhead) * 1e3,
                f"{len(overhead)} records")
    metrics.set("trace.covered_share", ratio(covered_ns, op_ns),
                "joined server spans over op wall time")
    metrics.set("trace.overhead_share", 1.0 - untraced / traced,
                f"{n} ops: {untraced:.2f} s untraced, {traced:.2f} s "
                "traced")
    return metrics, {"ops": n, "requests": requests}


def counter_deltas(before, after):
    def flat(snapshot):
        cache = snapshot.get("cache") or {}
        journal = snapshot.get("journal") or {}
        return {"memory_hits": cache.get("memory_hits", 0),
                "disk_hits": cache.get("disk_hits", 0),
                "stores": cache.get("stores", 0),
                "fsyncs": journal.get("fsyncs", 0)}
    a, b = flat(before), flat(after)
    return {key: b[key] - a[key] for key in a}


def join_spans(spans, log):
    """Attribute server spans to client ops.

    A span tagged with job keys goes to the op that sent one of them:
    the only such op, or else the one open when the span started.  An
    untagged span goes to the op open when it started.  Each span is
    placed on its own, because one drain call can run the jobs of two
    consecutive ops.  A span tagged with no keys at all (a drain that
    found the queue already taken by the other drain caller) did no
    work and is dropped with its children.  Returns (self ns per span
    name, ns of op time covered by the union of each op's outermost
    spans).
    """
    ops = [(int(e.start * 1e9), int(e.end * 1e9), e.keys) for e in log]

    def owner(start, tag):
        keys = set(tag) if isinstance(tag, tuple) else (
            {tag} if tag else set())
        candidates = [i for i, (_t0, _t1, op_keys) in enumerate(ops)
                      if not keys or keys & op_keys]
        if keys and len(candidates) == 1:
            return candidates[0]
        for i in candidates:
            if ops[i][0] <= start <= ops[i][1]:
                return i
        return None

    owners, kept, index, intervals = [], [], {}, {}
    for i, span in enumerate(spans):
        parent = span[3]
        if span[5] == () or (parent >= 0 and owners[parent] == "idle"):
            owners.append("idle")
            continue
        op = owner(span[1], span[5])
        owners.append(op)
        if op is None:
            continue
        index[i] = len(kept)
        kept_parent = index.get(parent, -1) if parent >= 0 else -1
        kept.append(span[:3] + (kept_parent,) + span[4:])
        if parent < 0 or owners[parent] != op:
            t0, t1, _keys = ops[op]
            intervals.setdefault(op, []).append(
                (max(span[1], t0), min(span[2], t1)))
    covered = sum(union_ns(parts) for parts in intervals.values())
    return tracing.self_times(kept), covered


def union_ns(intervals):
    """Total length of the union of ``(start, end)`` intervals."""
    total, reach = 0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


# -- entry point ---------------------------------------------------------

def main(argv=None):
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no simulator sources at {SRC}", file=sys.stderr)
        return 2
    for name in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[name]
    sys.path[:0] = [SRC, HERE]

    family = "sim" if args.workload.startswith("sim") else "wire"
    # Test-only fault injection (see tests/test_sensitivity.py): slow
    # one public function down where the system under test runs (the
    # sim workers and served processes apply it themselves).
    args.delays = tracing.parse_delays(os.environ.get(DELAY_ENV, ""))
    if family == "sim" and args.trace:
        for qual, seconds in args.delays:
            tracing.delay(qual, seconds)
    tally = stats.Tally()
    runner = {
        ("sim", 0): run_sim, ("sim", 1): run_sim_traced,
        ("wire", 0): run_wire, ("wire", 1): run_wire_traced,
    }[family, args.trace]
    metrics, extra = runner(args, tally)
    for line in metrics.lines():
        print(line)
    for reason, count in sorted(tally.reasons.items()):
        print(f"failure x{count}: {reason}")
    print("provenance " + json.dumps(provenance(args, extra),
                                     sort_keys=True))
    names = [name for name, _unit in
             (PER_LAYER if args.trace else END_TO_END)
             if name != "error_rate"]
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics.as_json(names),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
