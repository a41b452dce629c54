"""Simulation-as-a-service: the machine-room layer over the simulator.

The paper's T Series was operated as a shared facility — many users
submitting vector jobs to one hypercube.  This package reproduces
that operating model for the *simulator*: jobs (workload spec ×
machine config × kernel tier × seed) are content-addressed
(:mod:`~repro.service.jobkey`), deduplicated and queued
(:mod:`~repro.service.scheduler`), served from a two-tier result
cache when an identical job already ran
(:mod:`~repro.service.cache`), and executed over the
:mod:`repro.parallel` fork pool otherwise.  ``python -m
repro.service`` is the command-line front door; batch files express
whole bench cell lists as one submission
(:mod:`~repro.service.api`), and the whole service fronts the
network through :mod:`~repro.service.net` (``python -m repro.service
serve``): a framed socket protocol plus an HTTP/1.1 adapter with
streaming job status.

The cache-correctness contract: a hit returns a payload
byte-identical (canonical JSON) to what a fresh simulation on the
addressed kernel tier would produce.  Keys fold in a schema version,
the golden-trace semantics fingerprint, and the runner's source
digest, so behavioural changes invalidate rather than alias.
"""

from repro.service.api import load_batch, run_batch
from repro.service.cache import ResultCache, default_cache_dir
from repro.service.jobkey import (
    JOB_KEY_SCHEMA_VERSION,
    JobSpec,
    canonical_json,
    job_key,
    payload_digest,
    semantics_fingerprint,
)
from repro.service.journal import JobJournal, default_journal_dir
from repro.service.net import (
    RemoteJobError,
    ServerThread,
    ServiceClient,
    ServiceServer,
    run_server,
)
from repro.service.scheduler import (
    AdmissionError,
    JobError,
    JobFuture,
    JobTimeout,
    QuotaError,
    SimulationService,
)
from repro.service.tenants import TenantTable
from repro.service.workloads import (
    UnknownWorkloadError,
    execute_job,
    register as register_workload,
    registered_kinds,
    unregister as unregister_workload,
)

__all__ = [
    "AdmissionError",
    "JOB_KEY_SCHEMA_VERSION",
    "JobError",
    "JobFuture",
    "JobJournal",
    "JobSpec",
    "JobTimeout",
    "QuotaError",
    "RemoteJobError",
    "ResultCache",
    "ServerThread",
    "ServiceClient",
    "ServiceServer",
    "SimulationService",
    "TenantTable",
    "UnknownWorkloadError",
    "canonical_json",
    "default_cache_dir",
    "default_journal_dir",
    "execute_job",
    "job_key",
    "load_batch",
    "payload_digest",
    "register_workload",
    "registered_kinds",
    "run_batch",
    "run_server",
    "semantics_fingerprint",
    "unregister_workload",
]
