"""Machine utilisation and simulator-kernel profiling.

Every hardware component keeps busy-time counters; this module rolls
them up into per-node and machine-wide utilisation tables, so an
experiment can say *where the time went* — pipes, ports, or wires.
This is how benches like E11 show "the row port is nowhere near the
bottleneck" with a number.

It also rolls up the event kernel's own profiling counters
(:func:`engine_stats`), so a perf investigation can say where the
*simulator's* wall-clock time goes: how many events were processed,
how many schedules paid for a heap push, and how many rode the
zero-delay URGENT fast lane instead.
"""

from repro.analysis.report import Table


class TraceProbe:
    """A structural event trace: timestamped marks from model code.

    The conformance layer (:mod:`repro.testing`) runs the same model
    on the fast and the reference kernel and demands identical traces;
    a probe is the capture side of that contract.  Model code calls
    :meth:`mark` at interesting points (a rendezvous completed, a
    transfer finished, a process observed a value) and the probe
    records ``(simulated_ns, label, payload)`` tuples.

    Payloads must be JSON-able (ints, strings, lists) so traces can be
    pinned as golden files and diffed across kernels and refactors.
    """

    def __init__(self, engine):
        self.engine = engine
        self.records = []

    def mark(self, label, *payload):
        """Record one trace point at the current simulated time."""
        self.records.append([self.engine.now, label, list(payload)])

    def as_json(self) -> list:
        """The trace as a JSON-able list (a copy)."""
        return [list(r) for r in self.records]

    def __len__(self):
        return len(self.records)

    def __repr__(self):
        return f"<TraceProbe records={len(self.records)}>"


def node_utilization(node) -> dict:
    """Busy fractions of one node's components (0..1)."""
    engine = node.engine
    now = engine.now or 1
    wires = [w for port in node.comm.ports for w in (port.tx, port.rx)]
    return {
        "adder": node.vau.adder.busy_ns / now,
        "multiplier": node.vau.multiplier.busy_ns / now,
        "vector_unit": node.vau.busy_ns / now,
        "word_port": node.memory.word_port.busy_ns / now,
        "row_port": node.memory.row_port.busy_ns / now,
        "links": (sum(w.busy_ns for w in wires) / len(wires) / now
                  if wires else 0.0),
    }


def machine_utilization(machine) -> dict:
    """Mean busy fractions across all nodes."""
    per_node = [node_utilization(n) for n in machine.nodes]
    keys = per_node[0].keys()
    return {
        key: sum(d[key] for d in per_node) / len(per_node)
        for key in keys
    }


def utilization_table(machine, title="Machine utilisation") -> Table:
    """A rendered utilisation summary."""
    util = machine_utilization(machine)
    table = Table(title, ["component", "mean busy fraction"])
    for key in ("adder", "multiplier", "vector_unit", "word_port",
                "row_port", "links"):
        table.add(key, util[key])
    return table


def busiest_component(machine) -> str:
    """Name of the component with the highest mean utilisation —
    the bottleneck indicator."""
    util = machine_utilization(machine)
    util.pop("vector_unit")  # aggregate of adder+multiplier
    return max(util, key=util.get)


def engine_stats(engine) -> dict:
    """The event kernel's profiling counters, rolled up.

    Keys: ``events_processed`` (events and resume records fired),
    ``heap_pushes`` (schedules through the priority queue),
    ``fast_lane_hits`` (zero-delay URGENT schedules that bypassed the
    heap), ``fast_lane_fraction`` (lane hits over all schedules),
    ``events_per_sim_us`` (event density in simulated time),
    ``fast_kernel`` (False when ``REPRO_SLOW_KERNEL`` forced the
    pure-heap reference path), ``kernel_tier`` (the engine's tier:
    reference or turbo), ``fault_events`` (records in the engine's
    installed :class:`~repro.events.FaultLog`; 0 without one),
    ``cp_cache`` — the decoded-chain and translated-block counters
    summed over every CP registered with the engine via
    ``as_process`` (all-zero when no CP ran, or on the reference
    tier, which caches nothing), and ``vau_batch`` — the batched
    micro-sequencer counters summed over every vector unit built on
    the engine (``chains``, ``batched_forms``, ``batched_elements``,
    ``screens_elided`` are all-zero on the reference tier, which
    dispatches per op; ``vau_chain_model``/``chain_ops_fused`` count
    model-layer fused chains and the ops they fused, and tick
    identically on every tier).
    """
    scheduled = engine.heap_pushes + engine.lane_hits
    fault_log = engine.fault_log
    cp_cache = {
        "cpus": len(engine.cp_cpus),
        "decoded_hits": 0,
        "decoded_misses": 0,
        "decoded_invalidations": 0,
        "block_hits": 0,
        "block_translations": 0,
        "block_chains": 0,
        "block_invalidations": 0,
    }
    for cpu in engine.cp_cpus:
        counters = cpu.cache_stats()
        for key in cp_cache:
            if key != "cpus":
                cp_cache[key] += counters[key]
    vau_batch = {
        "vaus": len(getattr(engine, "vaus", ())),
        "chains": 0,
        "batched_forms": 0,
        "batched_elements": 0,
        "screens_elided": 0,
        "vau_chain_model": 0,
        "chain_ops_fused": 0,
    }
    for vau in getattr(engine, "vaus", ()):
        vau_batch["chains"] += vau.chains
        vau_batch["batched_forms"] += vau.batched_forms
        vau_batch["batched_elements"] += vau.batched_elements
        vau_batch["screens_elided"] += vau.screens_elided
        vau_batch["vau_chain_model"] += vau.model_chains
        vau_batch["chain_ops_fused"] += vau.model_chain_ops
    return {
        "events_processed": engine.events_processed,
        "heap_pushes": engine.heap_pushes,
        "fast_lane_hits": engine.lane_hits,
        "fast_lane_fraction": (
            engine.lane_hits / scheduled if scheduled else 0.0
        ),
        "events_per_sim_us": (
            engine.events_processed / (engine.now / 1000.0)
            if engine.now else 0.0
        ),
        "fast_kernel": engine.fast_kernel,
        "kernel_tier": engine.kernel_tier,
        "fault_events": len(fault_log) if fault_log is not None else 0,
        "cp_cache": cp_cache,
        "vau_batch": vau_batch,
    }


def engine_stats_table(engine, title="Event-kernel profile") -> Table:
    """A rendered summary of one engine's profiling counters."""
    stats = engine_stats(engine)
    table = Table(title, ["counter", "value"])
    for key in ("events_processed", "heap_pushes", "fast_lane_hits",
                "fast_lane_fraction", "events_per_sim_us", "fast_kernel",
                "kernel_tier", "fault_events"):
        table.add(key, stats[key])
    cp_cache = stats["cp_cache"]
    if cp_cache["cpus"]:
        for key in sorted(cp_cache):
            table.add(f"cp_{key}", cp_cache[key])
    vau_batch = stats["vau_batch"]
    if vau_batch["vaus"]:
        for key in sorted(vau_batch):
            table.add(f"vau_{key}", vau_batch[key])
    return table


def all_fabric_links(machine):
    """Every FabricSublink in the machine: hypercube, module threads,
    and the system ring."""
    links = [machine.sublinks[key] for key in sorted(machine.sublinks)]
    for module in machine.modules:
        links.extend(module.thread)
    links.extend(machine.ring_links)
    return links


def reliability_stats(transport) -> dict:
    """Roll-up of a :class:`~repro.runtime.transport.ReliableTransport`
    run: delivery, retry/redelivery, checksum and staging-parity
    counters, plus machine-wide frame corruption/loss totals."""
    machine = transport.machine
    links = all_fabric_links(machine)
    return {
        "delivered": transport.delivered,
        "retries": transport.retries,
        "redeliveries": transport.redeliveries,
        "checksum_failures": transport.checksum_failures,
        "acks_sent": transport.acks_sent,
        "naks_sent": transport.naks_sent,
        "stale_drops": transport.stale_drops,
        "halted_drops": transport.halted_drops,
        "sends_failed": transport.sends_failed,
        "relay_parity_faults": transport.relay_parity_faults,
        "mailbox_flushes": transport.mailbox_flushes,
        "epoch": transport.epoch,
        "frames_corrupted": sum(l.frames_corrupted for l in links),
        "frames_lost": sum(l.frames_lost for l in links),
    }


def recovery_stats(run) -> dict:
    """Roll-up of a :class:`~repro.system.recovery.FaultTolerantRun`:
    the run's own stats plus detection latencies and per-recovery
    restore costs."""
    stats = dict(run.stats())
    stats["detection_latency_ns"] = [
        d.latency_ns for d in run.monitor.detections
    ]
    stats["mean_detection_latency_ns"] = run.monitor.mean_latency_ns()
    stats["restore_ns"] = [
        r.restore_ns for r in run.coordinator.recoveries
    ]
    stats["recovery_elapsed_ns"] = [
        r.elapsed_ns for r in run.coordinator.recoveries
    ]
    return stats


def service_stats(service) -> dict:
    """Roll-up of a :class:`~repro.service.SimulationService` run.

    Accepts the service itself or its raw ``stats()`` dict.  Keys:
    submission counters (``submissions``, ``cache_hits``,
    ``coalesced``, ``executed``, ``failed``, ``cancelled``,
    ``rejected``), the served-without-simulating rate
    (``served_from_cache_fraction`` — cache hits over terminal
    submissions), dedup proof (``coalesced``), queue pressure
    (``queue_depth``, ``queue_depth_hwm``), per-job latency rollups
    (``queue_latency``, ``run_latency``), lifecycle watchers that
    raised (``listener_errors``), and the cache tier's own
    counters under ``cache`` (memory/disk hits, misses, stores,
    corruption and size evictions, full disk scans) or ``None`` when
    the service runs uncached.
    """
    raw = service if isinstance(service, dict) else service.stats()
    if "served_from_cache_fraction" in raw:
        return raw  # already rolled up — idempotent
    answered = raw["cache_hits"] + raw["executed"] + raw["failed"]
    return {
        "submissions": raw["submissions"],
        "cache_hits": raw["cache_hits"],
        "coalesced": raw["coalesced"],
        "executed": raw["executed"],
        "failed": raw["failed"],
        "cancelled": raw["cancelled"],
        "rejected": raw["rejected"],
        "quota_rejected": raw.get("quota_rejected", 0),
        "shed": raw.get("shed", 0),
        "worker_retries": raw.get("worker_retries", 0),
        "retried_ok": raw.get("retried_ok", 0),
        "drain_errors": raw.get("drain_errors", 0),
        "listener_errors": raw.get("listener_errors", 0),
        "served_from_cache_fraction": (
            raw["cache_hits"] / answered if answered else 0.0
        ),
        "queue_depth": raw["queue_depth"],
        "queue_depth_hwm": raw["queue_depth_hwm"],
        "queue_latency": raw["queue_latency"],
        "run_latency": raw["run_latency"],
        "cache": raw["cache"],
        "tenants": raw.get("tenants", {}),
        "journal": raw.get("journal"),
        "net": raw.get("net"),
    }


def service_stats_table(service, title="Service profile") -> Table:
    """A rendered summary of one service's counters."""
    stats = service_stats(service)
    table = Table(title, ["counter", "value"])
    for key in ("submissions", "cache_hits", "coalesced", "executed",
                "failed", "cancelled", "rejected", "quota_rejected",
                "shed", "worker_retries", "retried_ok",
                "listener_errors", "served_from_cache_fraction",
                "queue_depth", "queue_depth_hwm"):
        table.add(key, stats.get(key, 0))
    for family in ("queue_latency", "run_latency"):
        rollup = stats[family]
        for key in ("total_s", "mean_s", "max_s"):
            table.add(f"{family}_{key}", rollup[key])
    cache = stats["cache"]
    if cache is not None:
        for key in ("memory_hits", "disk_hits", "misses", "stores",
                    "corrupt_evictions", "size_evictions",
                    "disk_scans"):
            table.add(f"cache_{key}", cache[key])
    journal = stats.get("journal")
    if journal is not None:
        for key in ("size_bytes", "appends", "fsyncs", "compactions"):
            table.add(f"journal_{key}", journal[key])
    net = stats.get("net")
    if net is not None:
        for key in ("connections", "active_connections", "frames_in",
                    "frames_out", "http_requests", "rejected_auth",
                    "shed", "protocol_errors",
                    "streaming_subscribers", "stream_events"):
            table.add(f"net_{key}", net.get(key, 0))
    for tenant, counters in (stats.get("tenants") or {}).items():
        table.add(
            f"tenant[{tenant}]",
            f"sub {counters['submitted']} adm {counters['admitted']} "
            f"quota- {counters['quota_rejected']} "
            f"shed {counters['shed']}",
        )
    return table


def sweep_timing_table(sweep, title="Per-cell wall-clock summary"):
    """The :meth:`~repro.parallel.SweepResult.timing_summary` block
    as a table — diagnostic only; the numbers never enter a sweep's
    merged comparison payload.  Accepts a ``SweepResult`` or an
    already-computed summary dict."""
    summary = (sweep.timing_summary()
               if hasattr(sweep, "timing_summary") else sweep)
    table = Table(title, ["metric", "value"])
    for key in ("cells", "jobs", "sweep_wall_s", "total_cell_s",
                "mean_cell_s", "min_cell_s", "max_cell_s",
                "slowest_cell_index"):
        value = summary[key]
        table.add(key, "-" if value is None else value)
    return table


def flops_breakdown(machine) -> dict:
    """Per-node FLOP counts plus the machine totals."""
    per_node = {n.node_id: n.vau.flops for n in machine.nodes}
    total = sum(per_node.values())
    return {
        "per_node": per_node,
        "total": total,
        "imbalance": (
            max(per_node.values()) / (total / len(per_node))
            if total else 1.0
        ),
    }
