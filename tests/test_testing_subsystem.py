"""Unit tests for the differential-testing subsystem itself.

The fuzzer is only as good as its oracle and shrinker, so both are
tested directly: the oracle must flag any kernel-dependent behaviour
and stay quiet otherwise, and the shrinker must converge to a smaller
spec that still diverges.  Generator determinism (same seed → same
spec → same outcome) is what makes reproducer files meaningful.
"""

import json
import os
import random

import pytest

from repro.events.engine import force_kernel
from repro.testing import gen_cp, gen_events, gen_faults, gen_occam, \
    gen_service, gen_vector
from repro.testing.fuzz import GENERATORS, fuzz, main
from repro.testing.oracle import DiffReport, diff_outcomes, differential
from repro.testing.shrink import shrink, spec_size, write_repro

ALL_GENERATORS = sorted(GENERATORS)


class TestOracle:
    def test_identical_outcomes_agree(self):
        report = differential(lambda spec: {"x": 1, "y": [1.5, "a"]}, {})
        assert not report.diverged
        assert report.details == []

    def test_kernel_dependent_outcome_diverges(self):
        def probe(spec):
            return {"kernel": os.environ.get("REPRO_SLOW_KERNEL")}

        report = differential(probe, {})
        assert report.diverged
        assert any("kernel" in d for d in report.details)
        assert "!=" in report.summary()

    def test_diff_is_structural_and_type_strict(self):
        assert diff_outcomes({"a": 1}, {"a": 1}, "$") == []
        assert diff_outcomes({"a": 1}, {"a": 2}, "$") != []
        assert diff_outcomes({"a": 1}, {"a": 1.0}, "$") != []  # int≠float
        assert diff_outcomes([1, 2], [1, 2, 3], "$") != []
        assert diff_outcomes({"a": 1}, {"b": 1}, "$") != []

    def test_nested_paths_are_reported(self):
        diffs = diff_outcomes({"t": [[0, 1], [0, 2]]},
                              {"t": [[0, 1], [0, 3]]}, "$")
        assert any("t" in d for d in diffs)


class TestGeneratorDeterminism:
    @pytest.mark.parametrize("name", ALL_GENERATORS)
    def test_same_seed_same_spec(self, name):
        generator = GENERATORS[name]
        spec_a = generator.generate(random.Random(123))
        spec_b = generator.generate(random.Random(123))
        assert spec_a == spec_b

    @pytest.mark.parametrize("name", ALL_GENERATORS)
    def test_specs_are_json_round_trippable(self, name):
        generator = GENERATORS[name]
        spec = generator.generate(random.Random(7))
        assert json.loads(json.dumps(spec)) == spec

    @pytest.mark.parametrize("name", ALL_GENERATORS)
    def test_execute_is_deterministic_on_one_kernel(self, name):
        generator = GENERATORS[name]
        spec = generator.generate(random.Random(99))
        with force_kernel("turbo"):
            first = json.loads(json.dumps(generator.execute(spec)))
            second = json.loads(json.dumps(generator.execute(spec)))
        assert first == second

    @pytest.mark.parametrize("name", ALL_GENERATORS)
    def test_kernels_agree_on_sample_specs(self, name):
        generator = GENERATORS[name]
        for seed in (1, 2, 3):
            spec = generator.generate(random.Random(seed))
            report = differential(generator.execute, spec)
            assert not report.diverged, report.summary()

    @pytest.mark.parametrize("name", ALL_GENERATORS)
    def test_shrink_candidates_stay_valid(self, name):
        """Every first-level shrink candidate still executes."""
        generator = GENERATORS[name]
        spec = generator.generate(random.Random(5))
        candidates = list(generator.shrink_candidates(spec))
        assert candidates, "generator must offer shrink candidates"
        for candidate in candidates[:10]:
            generator.execute(candidate)  # must not raise


class _FakeGenerator:
    """A controllable generator: diverges iff 'bad' is in the items."""

    @staticmethod
    def execute(spec):
        diverging = "bad" in spec["items"]
        marker = os.environ.get("REPRO_SLOW_KERNEL") if diverging else "-"
        return {"marker": marker, "n": len(spec["items"])}

    @staticmethod
    def shrink_candidates(spec):
        items = spec["items"]
        for i in range(len(items)):
            if len(items) > 1:
                yield {"items": items[:i] + items[i + 1:]}


class TestShrinker:
    def test_shrinks_to_single_culprit(self):
        spec = {"items": ["a", "b", "bad", "c", "d", "e"]}
        small, report, used = shrink(_FakeGenerator, spec)
        assert small == {"items": ["bad"]}
        assert report.diverged
        assert used >= 1

    def test_rejects_non_diverging_spec(self):
        with pytest.raises(ValueError):
            shrink(_FakeGenerator, {"items": ["a", "b"]})

    def test_respects_execution_budget(self):
        spec = {"items": ["bad"] + [f"x{i}" for i in range(50)]}
        _, _, used = shrink(_FakeGenerator, spec, max_executions=5)
        assert used <= 5

    def test_spec_size_orders_structures(self):
        assert spec_size({"a": [1, 2, 3]}) > spec_size({"a": [1]})
        assert spec_size([]) == 1

    def test_write_repro_round_trips(self, tmp_path):
        report = DiffReport(
            diverged=True, details=["$.x: 1 != 2"],
            reference={"x": 2}, turbo={"x": 1},
        )
        path = write_repro(str(tmp_path), "fake", 7, 3,
                           {"items": ["bad"]}, report)
        with open(path) as handle:
            payload = json.load(handle)
        assert payload["generator"] == "fake"
        assert payload["spec"] == {"items": ["bad"]}
        assert payload["divergence"] == ["$.x: 1 != 2"]


class TestFuzzCampaign:
    def test_smoke_campaign_agrees(self, tmp_path):
        summary = fuzz(seed=2024, cases=12, budget_s=0,
                       names=ALL_GENERATORS, repro_dir=str(tmp_path))
        assert summary["executed"] == 12
        assert summary["repros"] == []
        assert summary["errors"] == []
        assert sum(s["cases"] for s in summary["stats"].values()) == 12

    def test_budget_caps_wall_clock(self, tmp_path):
        summary = fuzz(seed=1, cases=100_000, budget_s=1.0,
                       names=["events"], repro_dir=str(tmp_path))
        assert 0 < summary["executed"] < 100_000

    def test_cli_exit_codes(self, tmp_path, capsys):
        rc = main(["--seed", "3", "--cases", "4",
                   "--repro-dir", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "all cases agreed" in out

    def test_parallel_campaign_matches_serial(self, tmp_path):
        serial = fuzz(seed=2024, cases=10, budget_s=0,
                      names=ALL_GENERATORS,
                      repro_dir=str(tmp_path / "serial"))
        parallel = fuzz(seed=2024, cases=10, budget_s=0,
                        names=ALL_GENERATORS,
                        repro_dir=str(tmp_path / "parallel"), jobs=2)
        assert parallel["executed"] == serial["executed"]
        assert parallel["stats"] == serial["stats"]
        assert parallel["repros"] == serial["repros"] == []
        assert parallel["errors"] == serial["errors"] == []

    def test_cli_jobs_flag(self, tmp_path, capsys):
        rc = main(["--seed", "3", "--cases", "4", "--jobs", "2",
                   "--repro-dir", str(tmp_path)])
        assert rc == 0
        assert "all cases agreed" in capsys.readouterr().out

    def test_cli_rejects_unknown_generator(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["--generators", "nope", "--repro-dir", str(tmp_path)])


class TestForceKernel:
    def test_sets_and_restores_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_SLOW_KERNEL", raising=False)
        with force_kernel("reference"):
            assert os.environ["REPRO_SLOW_KERNEL"] == "1"
            with force_kernel("turbo"):
                assert os.environ["REPRO_SLOW_KERNEL"] == "0"
            assert os.environ["REPRO_SLOW_KERNEL"] == "1"
        assert "REPRO_SLOW_KERNEL" not in os.environ

    def test_restores_prior_value(self, monkeypatch):
        monkeypatch.setenv("REPRO_SLOW_KERNEL", "1")
        with force_kernel("turbo"):
            assert os.environ["REPRO_SLOW_KERNEL"] == "0"
        assert os.environ["REPRO_SLOW_KERNEL"] == "1"


class TestFaultGenerator:
    """Targeted coverage of the fault-schedule fuzzer: crafted specs
    that force each fault path, checked for kernel agreement."""

    def _burst_spec(self, **overrides):
        spec = {
            "kind": "faults", "dimension": 3, "fault_seed": 0,
            "horizon_us": 2000,
            "mtbf_us": {"link_transient": 30, "link_stuck": 120},
            "messages": [[src, src ^ 7, 256, 40 * src]
                         for src in range(8)],
            "halts": [], "relay_parity": [], "events": None,
        }
        spec.update(overrides)
        return spec

    def test_link_faults_force_retries_yet_deliver(self):
        outcome = gen_faults.execute(self._burst_spec())
        assert outcome["undelivered"] == [False] * 8
        # Exactly once, and each receiver gets its own message.
        received = sorted(result[1:3] for result in outcome["results"]
                          if result[0] == "recv")
        assert received == [[index, index] for index in range(8)]
        assert outcome["counters"]["retries"] > 0
        assert outcome["counters"]["checksum_failures"] > 0
        assert outcome["counters"]["frames_corrupted"] > 0
        assert outcome["counters"]["sends_failed"] == 0
        assert outcome["injected"]["link_transient"] > 0
        assert len(outcome["fault_log"]) > 0

    def test_halt_and_staging_parity_paths(self):
        spec = self._burst_spec(
            mtbf_us={},
            messages=[[0, 7, 256, 50]],
            halts=[[7, 10]],
            relay_parity=[[1, 5]],
        )
        outcome = gen_faults.execute(spec)
        # Node 7 died before the message: the last hop gives up after
        # bounded retries and the receiver never completes.
        assert outcome["undelivered"] == [True]
        assert outcome["counters"]["sends_failed"] == 1
        assert outcome["counters"]["halted_drops"] > 0
        # The staging-buffer parity trap on relay node 1 was hit and
        # reported as a structured fault, not a crash.
        assert outcome["counters"]["relay_parity_faults"] == 1
        kinds = {record["kind"] for record in outcome["fault_log"]}
        assert "relay_parity" in kinds
        assert "link_give_up" in kinds

    @pytest.mark.parametrize("name", ["burst", "halt"])
    def test_kernels_agree_on_crafted_specs(self, name):
        if name == "burst":
            spec = self._burst_spec()
        else:
            spec = self._burst_spec(
                mtbf_us={}, messages=[[0, 7, 256, 50]],
                halts=[[7, 10]], relay_parity=[[1, 5]],
            )
        report = differential(gen_faults.execute, spec)
        assert not report.diverged, report.summary()

    def test_shrink_candidates_drop_each_component(self):
        spec = self._burst_spec(halts=[[3, 100]],
                                relay_parity=[[1, 5]])
        candidates = list(gen_faults.shrink_candidates(spec))
        assert any(c["halts"] == [] for c in candidates)
        assert any(c["relay_parity"] == [] for c in candidates)
        assert any(c["mtbf_us"] == {"link_stuck": 120}
                   for c in candidates)
        assert any(c["horizon_us"] == 1000 for c in candidates)
        assert any(len(c["messages"]) == 7 for c in candidates)


class TestChaosGenerator:
    """The machine-room chaos generator: every axis it must draw, and
    a crafted server-front kill checked end to end."""

    def _server_kill_spec(self):
        # A 16-job batch sent over the wire, the server killed -9 by
        # its drainer mid-batch, every attack, then a restart that
        # must serve the whole batch and one stream byte-identical.
        jobs = [{"label": f"w{i:02d}", "x": 47 * (i + 2), "rounds": 3,
                 "priority": 0, "crash_worker": False}
                for i in range(16)]
        attacks = [{"name": name, "chunk": 3, "delta": 5, "junk": 4242}
                   for name in gen_service.ATTACKS]
        return {
            "kind": "service", "front": "server", "jobs": jobs,
            "phase1": 16, "kill": True, "kill_after": 8,
            "damage": {"journal": None, "cache": None},
            "attacks": attacks, "tenants": False, "quota_burst": None,
        }

    def test_draws_every_axis(self):
        specs = [gen_service.generate(random.Random(seed))
                 for seed in range(200)]
        assert {s["front"] for s in specs if s["kill"]} == \
            set(gen_service.FRONTS)
        assert {a["name"] for s in specs for a in s["attacks"]} == \
            set(gen_service.ATTACKS)
        for part, modes in (("journal", {"truncate", "flip"}),
                            ("cache", {"drop", "corrupt"})):
            assert {s["damage"][part][0] for s in specs
                    if s["damage"][part]} == modes
        assert any(s["quota_burst"] is not None for s in specs)
        crashing = [s for s in specs
                    if any(j["crash_worker"] for j in s["jobs"])]
        assert crashing
        # A crash needs a fork pool: killed drains and the server's
        # drainer run inline, where it would kill the process itself.
        assert all(s["front"] == "service" and not s["kill"]
                   for s in crashing)

    def test_shrink_offers_one_candidate_per_dropped_attack(self):
        spec = self._server_kill_spec()
        names = [attack["name"] for attack in spec["attacks"]]
        shorter = [[attack["name"] for attack in candidate["attacks"]]
                   for candidate in gen_service.shrink_candidates(spec)
                   if len(candidate["attacks"]) == len(names) - 1]
        assert shorter == [names[:i] + names[i + 1:]
                           for i in range(len(names))]

    def test_server_kill_then_restart_serves_every_job(self):
        report = differential(gen_service.execute,
                              self._server_kill_spec(),
                              invariant=gen_service.invariant)
        assert not report.diverged, report.summary()
        outcome = report.turbo
        assert outcome["violations"] == []
        assert outcome["child_exit"] == gen_service.KILL_EXIT
        assert [job["ok"] for job in outcome["jobs"]] == [True] * 16
        assert all(attack["ok"] for attack in outcome["attacks"])
        assert outcome["stream_ok"] is True
