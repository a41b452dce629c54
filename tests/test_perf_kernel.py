"""Fast/turbo-kernel regression tests.

The perf work in the event kernel and the CP interpreter must never
change a simulated-time number.  These tests run the same workloads on
every kernel tier (reference, fast, turbo) and demand bit-identical
traces, plus unit coverage for the pieces the optimized tiers added:
half-up delay rounding, the decoded-instruction cache and its
invalidation, basic-block translation and its safe-cost tables, and
the engine profiling counters.
"""

import pytest

from repro.analysis import engine_stats, engine_stats_table
from repro.cp import CPU, assemble
from repro.cp.isa import CYCLE_COSTS
from repro.events import Engine, Interrupt
from repro.events.channel import Channel, Store
from repro.events.engine import Timeout, URGENT
from repro.events.resources import Resource, hold
from repro.testing import gen_cp
from repro.testing.oracle import differential


def _mixed_workload():
    """A small model exercising every kernel path; returns the trace."""
    eng = Engine()
    trace = []
    chan = Channel(eng, name="c")
    store = Store(eng, capacity=2, name="s")
    port = Resource(eng, capacity=1, name="p")
    fired = eng.event().succeed("stale")

    def producer():
        for i in range(10):
            yield chan.put(i)
            yield store.put(i * i)
            trace.append(("put", eng.now, i))
            yield eng.timeout(3)

    def consumer():
        for _ in range(10):
            value = yield chan.get()
            squared = yield store.get()
            trace.append(("got", eng.now, value, squared))
            yield fired  # already-processed resume path
            trace.append(("revisit", eng.now))

    def contender(tag):
        for _ in range(5):
            yield from hold(eng, port, 7)
            trace.append(("held", eng.now, tag))

    def child(i):
        yield eng.timeout(i % 3)
        return i

    def spawner():
        for i in range(8):
            value = yield eng.process(child(i))
            trace.append(("spawned", eng.now, value))

    def victim():
        try:
            yield eng.timeout(1000)
        except Interrupt as exc:
            trace.append(("interrupted", eng.now, exc.cause))

    def attacker(proc):
        yield eng.timeout(11)
        proc.interrupt("bored")

    eng.process(producer())
    eng.process(consumer())
    eng.process(contender("a"))
    eng.process(contender("b"))
    eng.process(spawner())
    victim_proc = eng.process(victim())
    eng.process(attacker(victim_proc))
    eng.run()
    trace.append(("end", eng.now))
    return eng, trace


def _in_tier(monkeypatch, tier, fn):
    monkeypatch.setenv("REPRO_SLOW_KERNEL",
                       "1" if tier == "reference" else "0")
    return fn()


class TestKernelEquivalence:
    def test_mixed_workload_trace_identical(self, monkeypatch):
        eng_ref, ref = _in_tier(monkeypatch, "reference", _mixed_workload)
        assert not eng_ref.fast_kernel
        eng, trace = _in_tier(monkeypatch, "turbo", _mixed_workload)
        assert eng.fast_kernel
        assert trace == ref
        assert eng.now == eng_ref.now

    def test_run_until_time_identical(self, monkeypatch):
        def run(until):
            eng = Engine()
            ticks = []

            def ticker():
                while True:
                    yield eng.timeout(7)
                    ticks.append(eng.now)

            eng.process(ticker())
            eng.run(until=until)
            return eng.now, ticks

        for until in (1, 7, 50, 70):
            ref = _in_tier(monkeypatch, "reference", lambda: run(until))
            assert _in_tier(monkeypatch, "turbo",
                            lambda: run(until)) == ref


class TestTimeoutRounding:
    @pytest.mark.parametrize("delay,expected", [
        (2, 2),
        (2.0, 2),
        (2.4, 2),
        (2.5, 3),   # half-up, not banker's rounding
        (2.9, 3),   # int() would have truncated this to 2
        (0.5, 1),
        (0.4, 0),
    ])
    def test_fractional_delays_round_half_up(self, delay, expected):
        eng = Engine()
        assert Timeout(eng, delay).delay == expected

    @pytest.mark.parametrize("delay", [-1, -0.5, -2.5])
    def test_negative_delays_rejected(self, delay):
        eng = Engine()
        with pytest.raises(ValueError):
            eng.timeout(delay)

    def test_fractional_succeed_delay_rounds(self):
        eng = Engine()
        when = []
        ev = eng.event()
        ev.succeed("x", delay=2.5)
        ev.callbacks.append(lambda e: when.append(eng.now))
        eng.run()
        assert when == [3]


PROGRAM = """
    ldc 0
    stl 0
    ldc 10
    stl 1
loop:
    ldl 0
    adc 3
    stl 0
    ldl 1
    adc -1
    stl 1
    ldl 1
    cj done
    j loop
done:
    ldl 0
    terminate
"""


class TestDecodedCache:
    def _run(self):
        cpu = CPU(assemble(PROGRAM).code)
        cpu.run()
        return cpu.areg, cpu.instructions, cpu.cycles

    def test_cache_matches_reference_interpreter(self, monkeypatch):
        ref = _in_tier(monkeypatch, "reference", self._run)
        assert ref[0] == 30  # 10 iterations of +3
        assert _in_tier(monkeypatch, "turbo", self._run) == ref

    def test_cache_populated_only_on_fast_path(self, monkeypatch):
        monkeypatch.delenv("REPRO_SLOW_KERNEL", raising=False)
        cpu = CPU(assemble(PROGRAM).code)
        cpu.run()
        assert cpu._use_cache and cpu._decoded

        monkeypatch.setenv("REPRO_SLOW_KERNEL", "1")
        ref = CPU(assemble(PROGRAM).code)
        ref.run()
        assert not ref._use_cache and not ref._decoded

    def test_patch_code_invalidates_cache(self, monkeypatch):
        # ldc 5 / ldc 7 / add / terminate — then patch the second
        # constant after the first full run and rerun from entry.
        monkeypatch.delenv("REPRO_SLOW_KERNEL", raising=False)
        prog = assemble("ldc 5\nldc 7\nadd\nterminate")
        cpu = CPU(prog.code)
        cpu.run()
        assert cpu.areg == 12
        # Populated by the first run: decoded chains or translated
        # blocks.
        assert cpu._decoded or cpu._blocks

        patched = bytearray(assemble("ldc 5\nldc 9\nadd\nterminate").code)
        cpu.patch_code(0, patched)
        # Both caches dropped with the old code (the patch
        # overlaps every chain of this program).
        assert not cpu._decoded and not cpu._blocks

        cpu.iptr = 0
        cpu.halted = False
        cpu.run()
        assert cpu.areg == 14  # the patched constant took effect

    def test_patch_outside_code_store_rejected(self):
        from repro.cp import CPUError

        cpu = CPU(assemble("terminate").code)
        with pytest.raises(CPUError):
            cpu.patch_code(len(cpu.code), b"\x00")


#: A gen_cp spec whose patch pad sits inside a hot loop: the pad's
#: straight-line ldc/adc/eqc run translates into a basic block on the
#: turbo tier, and every patch lands *inside* that block's span.
_MID_BLOCK_PATCH_SPEC = {
    "kind": "cp",
    "units": [
        {"t": "arith", "ops": [["ldc", 7], ["stl", 3]]},
        {"t": "patchpad",
         "pad": [[0x4, 1], [0x8, 2], [0x4, 3], [0xC, 4],
                 [0x4, 5], [0x8, 6], [0x4, 7], [0x8, 8]],
         "reps": 6},
        {"t": "arith", "ops": [["ldl", 3], ["add"]]},
    ],
    "patches": [
        {"after": 20, "offset": 4, "byte": 0x4F},
        {"after": 45, "offset": 2, "byte": 0x8A},
    ],
}


class TestTurboBlocks:
    def _run_with_patches(self, spec):
        """Replay gen_cp's harness loop on the current tier; returns
        ``(outcome, cpu)`` so counters can be inspected."""
        from repro.cp.assembler import assemble as asm

        source = gen_cp.render(spec)
        program = asm(source)
        cpu = CPU(program.code, trace=True)
        pad = gen_cp._pad_address(spec, program)
        patches = sorted(spec["patches"], key=lambda p: p["after"])
        applied = 0
        while cpu.instructions < gen_cp.MAX_STEP_BYTES:
            if cpu.halted:
                break
            if cpu.oreg == 0:
                while (applied < len(patches)
                       and cpu.instructions >= patches[applied]["after"]):
                    patch = patches[applied]
                    cpu.patch_code(pad + patch["offset"],
                                   bytes([patch["byte"]]))
                    applied += 1
            barrier = gen_cp.MAX_STEP_BYTES
            if applied < len(patches):
                barrier = min(barrier, patches[applied]["after"])
            cpu.step_barrier = barrier
            cpu.step()
        return cpu.snapshot_state(), cpu

    def test_mid_block_patch_reexecutes_identically(self, monkeypatch):
        """A patch landing mid-block must invalidate the translated
        block and re-execute bit-identically on both tiers."""
        report = differential(gen_cp.execute, _MID_BLOCK_PATCH_SPEC)
        assert not report.diverged, report.summary()
        assert report.turbo["patches_applied"] == 2

    def test_mid_block_patch_invalidates_block(self, monkeypatch):
        monkeypatch.setenv("REPRO_SLOW_KERNEL", "0")
        state, cpu = self._run_with_patches(_MID_BLOCK_PATCH_SPEC)
        # The pad loop really was translated and re-translated: each
        # patch overlapped a live block and dropped it.
        assert cpu.block_translations >= 2
        assert cpu.block_invalidations >= 2
        assert cpu.block_hits > 0
        monkeypatch.setenv("REPRO_SLOW_KERNEL", "1")
        ref_state, ref_cpu = self._run_with_patches(_MID_BLOCK_PATCH_SPEC)
        assert ref_cpu.block_translations == 0
        assert state == ref_state

    def test_block_counters_and_tier_reported(self, monkeypatch):
        def run():
            cpu = CPU(assemble(PROGRAM).code)
            cpu.run()
            return cpu

        turbo = _in_tier(monkeypatch, "turbo", run)
        stats = turbo.cache_stats()
        assert stats["kernel_tier"] == "turbo"
        assert stats["block_translations"] > 0
        assert stats["block_hits"] > 0
        assert stats["block_chains"] >= 2 * stats["block_translations"]

        ref = _in_tier(monkeypatch, "reference", run)
        stats = ref.cache_stats()
        assert stats["kernel_tier"] == "reference"
        assert stats["decoded_hits"] == 0 and stats["block_hits"] == 0

    def test_step_barrier_pauses_block_at_chain_boundary(self, monkeypatch):
        monkeypatch.setenv("REPRO_SLOW_KERNEL", "0")
        # Eight single-byte safe instructions then terminate: one block.
        cpu = CPU(assemble("ldc 1\nadc 1\nadc 1\nadc 1\n"
                           "adc 1\nadc 1\nadc 1\nadc 1\nterminate").code)
        cpu.step_barrier = 3
        cpu.step()
        # Control returned at the first chain boundary at/after byte 3,
        # not at the end of the block.
        assert cpu.instructions == 3
        assert not cpu.halted
        cpu.step_barrier = None
        while not cpu.halted:
            cpu.step()
        assert cpu.areg == 8

    def test_safe_cost_tables_pinned_to_handlers(self, monkeypatch):
        """Every static block cost must equal what the live handler
        returns — a drifting handler cost would silently skew turbo
        cycle counts."""
        monkeypatch.setenv("REPRO_SLOW_KERNEL", "0")

        def fresh():
            cpu = CPU(assemble("terminate").code)
            # A benign, valid machine state for every safe handler:
            # Areg holds a word-aligned scratch address (valid for
            # ldnl/stnl, non-zero for div/rem), Breg/Creg small ints.
            cpu.areg, cpu.breg, cpu.creg = 0x1000, 0x1004, 8
            return cpu

        for op, cost in CPU._SAFE_PRIMARY_COST.items():
            cpu = fresh()
            handler = cpu._primary[op]
            assert handler(1) == cost, f"primary {op!r} cost drifted"
        for sec, cost in CPU._SAFE_SECONDARY_COST.items():
            cpu = fresh()
            handler = cpu._secondary[sec]
            assert handler(sec) == cost, f"secondary {sec!r} cost drifted"

    def test_unsafe_ops_stay_out_of_blocks(self):
        """Control transfer, scheduler and channel ops must end a
        block — a block containing one could not surface the chain
        boundary the harnesses synchronise on."""
        from repro.cp.isa import Op, Secondary

        for op in (Op.J, Op.CJ, Op.CALL, Op.PFIX, Op.NFIX, Op.OPR):
            assert op not in CPU._SAFE_PRIMARY_COST
        for sec in ("RET", "GCALL", "STARTP", "ENDP", "STOPP", "RUNP",
                    "STOPERR", "IN", "OUT", "OUTWORD", "TERMINATE"):
            assert getattr(Secondary, sec) not in CPU._SAFE_SECONDARY_COST


class TestEngineStats:
    def test_counters_and_stats_surface(self, monkeypatch):
        monkeypatch.delenv("REPRO_SLOW_KERNEL", raising=False)
        eng, _ = _mixed_workload()
        stats = engine_stats(eng)
        assert stats["fast_kernel"] is True
        assert stats["events_processed"] > 0
        assert stats["heap_pushes"] > 0
        assert stats["fast_lane_hits"] > 0
        assert 0.0 < stats["fast_lane_fraction"] < 1.0
        # Lane traffic plus heap traffic accounts for every event.
        assert stats["fast_lane_hits"] <= stats["events_processed"]
        text = engine_stats_table(eng).render()
        assert "Event-kernel profile" in text

    def test_reference_kernel_reports_no_lane_traffic(self, monkeypatch):
        monkeypatch.setenv("REPRO_SLOW_KERNEL", "1")
        eng, _ = _mixed_workload()
        stats = engine_stats(eng)
        assert stats["fast_kernel"] is False
        assert stats["kernel_tier"] == "reference"
        assert stats["fast_lane_hits"] == 0
        assert stats["fast_lane_fraction"] == 0.0

    def _cp_stats(self, monkeypatch, tier):
        from repro.core.specs import PAPER_SPECS

        def run():
            eng = Engine()
            cpu = CPU(assemble(PROGRAM).code)
            eng.run(until=eng.process(cpu.as_process(eng, PAPER_SPECS,
                                                     yield_every=16)))
            return engine_stats(eng)

        return _in_tier(monkeypatch, tier, run)

    def test_cp_cache_counters_pinned(self, monkeypatch):
        """The decoded/translated-cache counters for a fixed program
        are deterministic — pin them, so any change to chain decoding,
        block formation, or invalidation is a reviewed diff here."""
        stats = self._cp_stats(monkeypatch, "turbo")
        assert stats["kernel_tier"] == "turbo"
        assert stats["cp_cache"] == {
            "cpus": 1,
            "decoded_hits": 8,
            "decoded_misses": 3,
            "decoded_invalidations": 0,
            "block_hits": 14,
            "block_translations": 4,
            "block_chains": 26,
            "block_invalidations": 0,
        }

        stats = self._cp_stats(monkeypatch, "reference")
        assert stats["kernel_tier"] == "reference"
        cache = stats["cp_cache"]
        assert cache["cpus"] == 1
        assert all(v == 0 for k, v in cache.items() if k != "cpus")

    def test_stats_table_includes_cp_cache_rows(self, monkeypatch):
        monkeypatch.setenv("REPRO_SLOW_KERNEL", "0")
        from repro.core.specs import PAPER_SPECS

        eng = Engine()
        cpu = CPU(assemble(PROGRAM).code)
        eng.run(until=eng.process(cpu.as_process(eng, PAPER_SPECS)))
        text = engine_stats_table(eng).render()
        assert "kernel_tier" in text
        assert "cp_block_hits" in text
        assert "cp_decoded_hits" in text
