"""Per-tenant metering, token-bucket quotas, and shedding."""

import pytest

from repro.service import (
    AdmissionError,
    JobError,
    JobSpec,
    QuotaError,
    SimulationService,
    TenantTable,
    job_key,
)
from repro.service.tenants import DEFAULT_TENANT


def _job(label, **extra):
    spec = {"label": label, "x": 7, "rounds": 2}
    spec.update(extra)
    return JobSpec(kind="service.chaos", spec=spec, tier="turbo")


class TestTenantTable:
    def test_unconfigured_tenant_is_unlimited(self):
        table = TenantTable(clock=lambda: 0.0)
        assert all(table.admit("anyone") for _ in range(100))

    def test_token_bucket_burst_then_refill(self):
        now = [0.0]
        table = TenantTable(clock=lambda: now[0])
        table.configure("a", rate=2.0, burst=3)
        assert [table.admit("a") for _ in range(4)] == \
            [True, True, True, False]
        now[0] = 1.0  # 2 tokens/s refill
        assert [table.admit("a") for _ in range(3)] == \
            [True, True, False]

    def test_burst_caps_the_bucket(self):
        now = [0.0]
        table = TenantTable(clock=lambda: now[0])
        table.configure("a", rate=100.0, burst=2)
        now[0] = 1e6  # a long idle must not bank unlimited tokens
        assert [table.admit("a") for _ in range(3)] == \
            [True, True, False]

    def test_none_tenant_meters_under_default(self):
        table = TenantTable(clock=lambda: 0.0)
        table.note(None, "submitted")
        assert table.stats()[DEFAULT_TENANT]["submitted"] == 1


class TestQuotaEnforcement:
    def test_exhausted_bucket_raises_structured_quota_error(self):
        tenants = TenantTable(clock=lambda: 0.0)
        tenants.configure("acct", rate=0.0, burst=1)
        service = SimulationService(use_cache=False, tenants=tenants)
        service.submit(_job("a"), tenant="acct")
        with pytest.raises(QuotaError) as err:
            service.submit(_job("b"), tenant="acct")
        record = err.value.as_json()
        assert record["error"] == "quota"
        assert record["tenant"] == "acct"
        assert service.stats()["quota_rejected"] == 1
        assert service.stats()["tenants"]["acct"]["quota_rejected"] == 1

    def test_quota_error_is_an_admission_error(self):
        assert issubclass(QuotaError, AdmissionError)

    def test_tenant_rides_jobspec_when_not_passed_to_submit(self):
        tenants = TenantTable(clock=lambda: 0.0)
        tenants.configure("acct", rate=0.0, burst=1)
        service = SimulationService(use_cache=False, tenants=tenants)
        service.submit(JobSpec(kind="service.chaos",
                               spec={"label": "a", "x": 1,
                                     "rounds": 1},
                               tier="turbo", tenant="acct"))
        with pytest.raises(QuotaError):
            service.submit(JobSpec(kind="service.chaos",
                                   spec={"label": "b", "x": 2,
                                         "rounds": 1},
                                   tier="turbo", tenant="acct"))

    def test_cache_hits_do_not_consume_tokens(self, tmp_path):
        from repro.service import ResultCache
        tenants = TenantTable(clock=lambda: 0.0)
        tenants.configure("acct", rate=0.0, burst=1)
        service = SimulationService(
            cache=ResultCache(root=str(tmp_path / "cache")),
            tenants=tenants,
        )
        service.submit(_job("a"), tenant="acct")
        service.drain()
        # Same key again: served from cache, no token spent, so a
        # *different* job still has the bucket's one remaining... none
        # — the first submit spent it.  But the repeat itself passes.
        repeat = service.submit(_job("a"), tenant="acct")
        assert repeat.status == "cached"
        assert service.stats()["tenants"]["acct"]["cache_hits"] == 1


class TestIdentitySafety:
    def test_tenant_never_reaches_the_job_key(self):
        spec = {"label": "same", "x": 3, "rounds": 2}
        key_a = job_key(JobSpec(kind="service.chaos", spec=spec,
                                tier="turbo", tenant="alice"))
        key_b = job_key(JobSpec(kind="service.chaos", spec=spec,
                                tier="turbo", tenant="bob"))
        key_none = job_key(JobSpec(kind="service.chaos", spec=spec,
                                   tier="turbo"))
        assert key_a == key_b == key_none

    def test_cross_tenant_dedup_and_cache_sharing(self, tmp_path):
        from repro.service import ResultCache
        service = SimulationService(
            cache=ResultCache(root=str(tmp_path / "cache")),
        )
        first = service.submit(_job("shared"), tenant="alice")
        second = service.submit(_job("shared"), tenant="bob")
        assert second is first  # coalesced across tenants
        service.drain()
        third = service.submit(_job("shared"), tenant="carol")
        assert third.status == "cached"
        stats = service.stats()["tenants"]
        assert stats["alice"]["executed"] == 1
        assert stats["bob"]["coalesced"] == 1
        assert stats["carol"]["cache_hits"] == 1


class TestShedding:
    def _service(self, tenants, max_pending=2):
        return SimulationService(use_cache=False, tenants=tenants,
                                 max_pending=max_pending,
                                 shed_on_full=True)

    def test_full_queue_sheds_lowest_precedence_first(self):
        tenants = TenantTable(clock=lambda: 0.0)
        tenants.configure("batch", precedence=0)
        tenants.configure("prod", precedence=10)
        service = self._service(tenants)
        cheap_a = service.submit(_job("a"), tenant="batch")
        cheap_b = service.submit(_job("b"), tenant="batch")
        urgent = service.submit(_job("c"), tenant="prod")
        assert urgent.status == "queued"
        shed = [f for f in (cheap_a, cheap_b) if f.status == "shed"]
        assert len(shed) == 1
        assert service.stats()["shed"] == 1
        assert service.stats()["tenants"]["batch"]["shed"] == 1
        service.drain()
        assert urgent.status == "done"

    def test_least_urgent_newest_job_is_the_victim(self):
        tenants = TenantTable(clock=lambda: 0.0)
        tenants.configure("batch", precedence=0)
        tenants.configure("prod", precedence=10)
        service = self._service(tenants, max_pending=3)
        service.submit(_job("keep"), priority=-5, tenant="batch")
        old = service.submit(_job("old"), priority=5, tenant="batch")
        new = service.submit(_job("new"), priority=5, tenant="batch")
        service.submit(_job("urgent"), tenant="prod")
        # Among the least-precedence tenant's jobs, the least urgent
        # priority loses, newest submission first.
        assert new.status == "shed"
        assert old.status == "queued"

    def test_no_eligible_victim_still_rejects(self):
        tenants = TenantTable(clock=lambda: 0.0)
        tenants.configure("batch", precedence=0)
        service = self._service(tenants)
        service.submit(_job("a"), tenant="batch")
        service.submit(_job("b"), tenant="batch")
        # Same precedence everywhere: shedding a peer would just
        # trade one tenant's job for another's — reject instead.
        with pytest.raises(AdmissionError):
            service.submit(_job("c"), tenant="batch")

    def test_shed_job_stays_shed_across_a_restart(self, tmp_path):
        from repro.service import ResultCache

        def journaled():
            tenants = TenantTable(clock=lambda: 0.0)
            tenants.configure("low", precedence=0)
            tenants.configure("high", precedence=5)
            return SimulationService(
                cache=ResultCache(root=str(tmp_path / "cache")),
                journal_dir=str(tmp_path / "journal"),
                tenants=tenants, max_pending=1, shed_on_full=True)

        first = journaled()
        low = first.submit(_job("low"), tenant="low")
        high = first.submit(_job("high"), tenant="high")
        assert low.status == "shed"
        assert high.status == "queued"
        # The shed is journaled: a restart owes only the survivor.
        second = journaled()
        assert second.journal_replay["recovered_pending"] == 1
        assert [f.key for f in second.recovered] == [high.key]

    def test_shed_future_raises_structured_error(self):
        tenants = TenantTable(clock=lambda: 0.0)
        tenants.configure("batch", precedence=0)
        tenants.configure("prod", precedence=10)
        service = self._service(tenants)
        futures = [service.submit(_job(label), tenant=tenant)
                   for label, tenant in (("v", "batch"), ("w", "batch"),
                                         ("u", "prod"))]
        [shed] = [f for f in futures if f.status == "shed"]
        with pytest.raises(JobError, match="shed"):
            shed.result(wait=False)
        with pytest.raises(JobError, match="shed"):
            shed.result()
