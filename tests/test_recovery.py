"""End-to-end recovery orchestration.

Covers :mod:`repro.system.recovery` at every layer: the compressed
timescale specs, the remap policies (pure functions), heartbeat
detection latency as a measured quantity, and the full segmented
checkpoint/restart loop — node death, latent parity, and the
double-failure-same-snapshot regression — always against the
bit-identical oracle (a recovered run must equal the fault-free run).
"""

import json

import pytest

from repro.analysis import recovery_stats
from repro.core.config import MachineConfig
from repro.core.machine import TSeriesMachine
from repro.core.specs import PAPER_SPECS
from repro.events import Engine, FaultLog
from repro.events.engine import force_kernel
from repro.system.recovery import (
    FaultTolerantRun,
    HeartbeatMonitor,
    RecoveryCoordinator,
    RingStencilWorkload,
    compressed_timescale_specs,
)
from repro.topology.embeddings import fold_host, spare_node_map


def build_run(dimension=4, ranks=16, steps=16, interval=8, pad_ns=0):
    eng = Engine()
    FaultLog(eng)
    config = MachineConfig(dimension, specs=compressed_timescale_specs())
    machine = TSeriesMachine(config, engine=eng)
    workload = RingStencilWorkload(ranks=ranks, steps=steps,
                                   exchange_every=4, compute_pad_ns=pad_ns)
    run = FaultTolerantRun(machine, workload,
                           checkpoint_interval_steps=interval)
    return eng, machine, workload, run


def clean_digest(**kw):
    eng, machine, workload, run = build_run(**kw)
    run.execute()
    return workload.digest(run)


class TestCompressedSpecs:
    def test_memory_shrunk_rates_untouched(self):
        specs = compressed_timescale_specs()
        assert specs.memory_bytes == 32768
        assert specs.row_bytes == PAPER_SPECS.row_bytes
        assert 4 * (specs.bank_a_words + specs.bank_b_words) == 32768

    def test_rejects_partial_rows(self):
        with pytest.raises(ValueError):
            compressed_timescale_specs(memory_bytes=PAPER_SPECS.row_bytes + 1)


class TestRemapPolicies:
    def test_fold_host_prefers_nearest_live_neighbour(self):
        assert fold_host(5, set(), 4) == 5
        assert fold_host(5, {5}, 4) == 4        # 5 ^ (1 << 0)
        assert fold_host(5, {5, 4}, 4) == 7     # 5 ^ (1 << 1)
        assert fold_host(5, {5, 4, 7}, 4) == 1  # 5 ^ (1 << 2)
        with pytest.raises(ValueError):
            fold_host(0, set(range(8)), 3)

    def test_spare_node_map_assigns_spares_then_folds(self):
        mapping = spare_node_map(3, {1, 2}, spares={6, 7})
        assert mapping[1] == 6
        assert mapping[2] == 7
        exhausted = spare_node_map(3, {1, 2, 3}, spares={7})
        assert exhausted[1] == 7
        assert exhausted[2] == fold_host(2, {1, 2, 3, 7}, 3)
        assert exhausted[0] == 0

    def test_coordinator_remap_folds_onto_neighbour_slot(self):
        eng, machine, workload, run = build_run()
        assignment = {rank: (rank, 0) for rank in range(16)}
        new = run.coordinator.remap(assignment, {5})
        assert new[5] == (4, 1)  # folded onto 5^1, next free slot
        for rank in range(16):
            if rank != 5:
                assert new[rank] == (rank, 0)
        # Two co-located victims stack up distinct slots on the target.
        new = run.coordinator.remap(assignment, {4, 5})
        assert new[4] == (6, 1)
        assert new[5] == (7, 1)

    def test_coordinator_rejects_unknown_policy(self):
        eng, machine, workload, run = build_run()
        with pytest.raises(ValueError):
            RecoveryCoordinator(machine, run.service, run.transport,
                                policy="vote")


class TestHeartbeatDetection:
    def test_detection_latency_is_measured_and_bounded(self):
        eng = Engine()
        FaultLog(eng)
        config = MachineConfig(4, specs=compressed_timescale_specs())
        machine = TSeriesMachine(config, engine=eng)
        monitor = HeartbeatMonitor(machine, interval_ns=2_000_000,
                                   poll_ns=50_000)
        detected = eng.event()
        monitor.on_detect(lambda d: detected.succeed(d))
        monitor.start()
        halted_at = 3_141_000

        def killer():
            yield eng.timeout(halted_at)
            machine.node(9).halt()

        def waiter():
            detection = yield detected
            return detection

        eng.process(killer())
        detection = eng.run(until=eng.process(waiter()))
        monitor.stop()

        assert detection.node == 9
        assert detection.board == 1  # nodes 8..15 live on module 1
        assert detection.halted_at_ns == halted_at
        assert monitor.known_dead == {9}
        # Latency = heartbeat phase + poll + ring notice, all real.
        assert 0 < detection.latency_ns <= (monitor.interval_ns
                                            + monitor.poll_ns + 1_000_000)
        assert monitor.mean_latency_ns() == detection.latency_ns
        assert eng.fault_log.count("detect") == 1


class TestFaultTolerantRun:
    def test_validation(self):
        eng = Engine()
        config = MachineConfig(2, specs=compressed_timescale_specs())
        machine = TSeriesMachine(config, engine=eng)
        workload = RingStencilWorkload(ranks=5, steps=4)
        with pytest.raises(ValueError):
            FaultTolerantRun(machine, workload,
                             checkpoint_interval_steps=2)
        with pytest.raises(ValueError):
            FaultTolerantRun(machine,
                             RingStencilWorkload(ranks=4, steps=4),
                             checkpoint_interval_steps=0)
        with pytest.raises(ValueError):
            RingStencilWorkload(ranks=0, steps=4)

    def test_clean_run_commits_every_segment(self):
        eng, machine, workload, run = build_run(steps=8, interval=4)
        stats = run.execute()
        assert stats["committed_step"] == 8
        assert stats["recoveries"] == 0
        assert stats["segments_run"] == 2
        assert stats["segments_aborted"] == 0
        assert stats["snapshots_taken"] == 3  # ckpt0 + one per segment
        assert stats["lost_work_ns"] == 0
        assert workload.digest(run) == clean_digest(steps=8, interval=4)

    def test_node_death_recovers_bit_identical(self):
        reference = clean_digest()
        eng, machine, workload, run = build_run()

        def killer():
            yield eng.timeout(120_000_000)
            run.kill_node(5)

        eng.process(killer(), name="killer")
        stats = run.execute()
        assert stats["committed_step"] == 16
        assert stats["recoveries"] == 1
        assert stats["dead_nodes"] == [5]
        assert stats["assignment"]["5"] == [4, 1]
        assert workload.digest(run) == reference
        # The fault trace tells the whole story, in causal order.
        kinds = [r["kind"] for r in eng.fault_log.as_json()]
        for kind in ("node_halt", "detect", "recovered"):
            assert kind in kinds
        assert kinds.index("node_halt") < kinds.index("detect") \
            < kinds.index("recovered")
        rolled = recovery_stats(run)
        assert rolled["mean_detection_latency_ns"] > 0
        assert len(rolled["restore_ns"]) == 1
        assert rolled["recovery_elapsed_ns"][0] >= rolled["restore_ns"][0]

    def test_latent_parity_in_rank_block_recovers(self):
        reference = clean_digest(steps=8, interval=4, pad_ns=1_000_000)
        eng, machine, workload, run = build_run(steps=8, interval=4,
                                                pad_ns=1_000_000)
        block_addr = 8 * machine.specs.row_bytes  # rank 3, slot 0

        def planter():
            yield eng.timeout(5_000_000)
            machine.node(3).memory.parity.inject_error(block_addr + 8)

        eng.process(planter(), name="planter")
        stats = run.execute()
        assert stats["committed_step"] == 8
        assert stats["recoveries"] >= 1
        assert workload.digest(run) == reference
        kinds = eng.fault_log.kinds()
        assert "rank_parity" in kinds or "snapshot_parity" in kinds

    def test_double_failure_restores_reshipped_block(self):
        """Regression: a displaced rank's block is patched into its new
        host's snapshot image, so a *second* failure that restores the
        same snapshot must reproduce the post-remap layout instead of
        wiping the block."""
        kw = dict(dimension=3, ranks=8, steps=12, interval=12,
                  pad_ns=50_000_000)
        reference = clean_digest(**kw)
        eng, machine, workload, run = build_run(**kw)

        def killer():
            yield eng.timeout(100_000_000)
            run.kill_node(0)  # rank 0 folds onto node 1
            while len(run.coordinator.recoveries) < 1:
                yield eng.timeout(10_000_000)
            yield eng.timeout(100_000_000)  # mid-resegment, pre-commit
            run.kill_node(1)  # takes the reshipped block down with it

        eng.process(killer(), name="killer")
        stats = run.execute()
        assert stats["recoveries"] == 2
        assert stats["committed_step"] == 12
        assert stats["dead_nodes"] == [0, 1]
        # Both recoveries restored the *same* snapshot.
        tags = [r.tag for r in run.coordinator.recoveries]
        assert tags[0] == tags[1]
        assert workload.digest(run) == reference

    def test_kernels_agree_on_recovery_trace(self):
        def story():
            eng, machine, workload, run = build_run()

            def killer():
                yield eng.timeout(120_000_000)
                run.kill_node(5)

            eng.process(killer(), name="killer")
            stats = run.execute()
            return {"now": eng.now, "stats": stats,
                    "digest": workload.digest(run),
                    "fault_log": eng.fault_log.as_json()}

        with force_kernel("turbo"):
            turbo = json.loads(json.dumps(story()))
        with force_kernel("reference"):
            reference = json.loads(json.dumps(story()))
        assert turbo == reference
