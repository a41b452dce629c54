"""Fault-schedule fuzzer.

Composes the fault stack end to end on a small machine: a
:class:`~repro.runtime.transport.ReliableTransport` carrying random
messages while a :class:`~repro.system.failures.MultiClassFailureInjector`
fires Poisson link/parity faults, deterministic node halts kill relays
mid-route, and latent parity bytes are planted in relay staging
buffers.  Optionally an entire event-engine case
(:mod:`repro.testing.gen_events`) runs on the same engine, interleaved
with the fault traffic.

The compared outcome is the full fault story: the engine's
:class:`~repro.events.FaultLog`, per-message send/receive results, the
transport's retry/redelivery counters, and the embedded event trace.
Both kernels must tell the identical story — fault handling rides the
same URGENT/heap ordering contract as everything else.
"""

import random

from repro.analysis import reliability_stats
from repro.core.machine import TSeriesMachine
from repro.events import Engine, FaultLog
from repro.runtime.transport import ReliableTransport
from repro.system.failures import (
    FAULT_LINK_STUCK,
    FAULT_LINK_TRANSIENT,
    FAULT_PARITY,
    MultiClassFailureInjector,
)
from repro.testing import gen_events

#: µs → ns
US = 1000


def generate(rng: random.Random) -> dict:
    """Draw one fault-schedule spec."""
    dimension = rng.choice([2, 2, 3])
    nodes = 1 << dimension
    horizon_us = rng.randint(300, 2000)
    # Poisson classes: MTBFs sized so a handful of faults land inside
    # the horizon.  Each class is optional.
    mtbf_us = {}
    if rng.random() < 0.8:
        mtbf_us[FAULT_LINK_TRANSIENT] = horizon_us // rng.randint(1, 5)
    if rng.random() < 0.5:
        mtbf_us[FAULT_LINK_STUCK] = horizon_us // rng.randint(1, 3)
    if rng.random() < 0.4:
        mtbf_us[FAULT_PARITY] = horizon_us // rng.randint(1, 4)
    messages = []
    for _ in range(rng.randint(2, 8)):
        src = rng.randrange(nodes)
        dst = rng.randrange(nodes)
        messages.append([
            src, dst,
            rng.choice([64, 256, 1024]),
            rng.randint(0, horizon_us // 2),
        ])
    halts = []
    if rng.random() < 0.35:
        halts.append([rng.randrange(nodes),
                      rng.randint(1, horizon_us // 2)])
    relay_parity = []
    for _ in range(rng.randint(0, 2)):
        relay_parity.append([rng.randrange(nodes),
                             rng.randint(0, horizon_us // 2)])
    events = gen_events.generate(rng) if rng.random() < 0.5 else None
    return {
        "kind": "faults",
        "dimension": dimension,
        "fault_seed": rng.randint(0, 2 ** 16),
        "horizon_us": horizon_us,
        "mtbf_us": mtbf_us,
        "messages": messages,
        "halts": halts,
        "relay_parity": relay_parity,
        "events": events,
    }


def execute(spec: dict) -> dict:
    """Build and run the faulted machine; JSON outcome."""
    eng = Engine()
    FaultLog(eng)
    machine = TSeriesMachine(spec["dimension"], engine=eng,
                             with_system=False)
    transport = ReliableTransport(machine)
    horizon_ns = spec["horizon_us"] * US
    results = []

    if spec["mtbf_us"]:
        injector = MultiClassFailureInjector(
            machine,
            {kind: us * 1e-6 for kind, us in spec["mtbf_us"].items()},
            seed=spec["fault_seed"],
            stuck_outage_ns=(50 * US, 500 * US),
        )
        eng.process(injector.run(horizon_ns), name="injector")
    else:
        injector = None

    def sender(index, src, dst, nbytes, delay_us):
        yield eng.timeout(delay_us * US)
        sent = yield from transport.send(src, dst, ("m", index), nbytes,
                                         tag=f"t{index}")
        results.append(["send", index, sent is not None, eng.now])

    def receiver(index, dst):
        envelope = yield from transport.recv(dst, tag=f"t{index}")
        results.append(["recv", index, envelope.payload[1], eng.now])

    mailmen = []
    for index, (src, dst, nbytes, delay_us) in enumerate(spec["messages"]):
        eng.process(sender(index, src, dst, nbytes, delay_us),
                    name=f"snd{index}")
        mailmen.append(eng.process(receiver(index, dst),
                                   name=f"rcv{index}"))

    def halter(node_id, at_us):
        yield eng.timeout(at_us * US)
        node = machine.node(node_id)
        if not node.halted:
            node.halt()
            results.append(["halt", node_id, eng.now])

    for node_id, at_us in spec["halts"]:
        eng.process(halter(node_id, at_us), name=f"halt{node_id}")

    def parity_planter(node_id, at_us):
        # A latent fault in the relay staging buffer: surfaces as a
        # NAK + retry on the next frame forwarded through this node.
        yield eng.timeout(at_us * US)
        node = machine.node(node_id)
        address = node.specs.memory_bytes - transport.relay_buffer_bytes
        node.memory.parity.inject_error(address)
        results.append(["plant", node_id, eng.now])

    for node_id, at_us in spec["relay_parity"]:
        eng.process(parity_planter(node_id, at_us), name=f"plant{node_id}")

    if spec["events"]:
        event_trace, event_procs = gen_events.build(spec["events"], eng)
    else:
        event_trace, event_procs = None, []

    eng.run()
    outcome = {
        "now": eng.now,
        "fault_log": eng.fault_log.as_json(),
        "results": results,
        "undelivered": [p.is_alive for p in mailmen],
        "counters": reliability_stats(transport),
    }
    if injector is not None:
        outcome["injected"] = dict(sorted(injector.injected.items()))
    if event_trace is not None:
        outcome["events"] = {
            "trace": event_trace,
            "alive": [p.is_alive for p in event_procs],
        }
    return outcome


def shrink_candidates(spec: dict):
    """Yield structurally smaller specs."""

    def variant(**kw):
        out = dict(spec)
        out.update(kw)
        return out

    messages = spec["messages"]
    for i in range(len(messages)):
        if len(messages) > 1:
            yield variant(messages=messages[:i] + messages[i + 1:])
    if spec["events"] is not None:
        yield variant(events=None)
    if spec["halts"]:
        yield variant(halts=[])
    if spec["relay_parity"]:
        yield variant(relay_parity=[])
    for kind in list(spec["mtbf_us"]):
        slim = {k: v for k, v in spec["mtbf_us"].items() if k != kind}
        yield variant(mtbf_us=slim)
    if spec["horizon_us"] > 100:
        yield variant(horizon_us=spec["horizon_us"] // 2)
    # Shrink the embedded event case with its own candidates.
    if spec["events"] is not None:
        for slim in gen_events.shrink_candidates(spec["events"]):
            yield variant(events=slim)
