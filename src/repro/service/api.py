"""Client-side helpers: batch files and run summaries.

A batch file is the machine-room submission format — one JSON
document describing many jobs::

    {"defaults": {"tier": "turbo"},
     "jobs": [
       {"kind": "vector", "spec": {...}},
       {"kind": "cp", "spec": {...}, "priority": 5},
       {"kind": "golden", "spec": {"name": "events_mixed"}}
     ]}

``defaults`` (optional) fills in missing ``tier``/``config``/``seed``
per job.  The bench cell lists (E8 configurations, A2 link factors,
E13b fault campaign) are expressible this way: one job per cell under
a registered ``bench.*`` kind.

:func:`run_batch` is what both the CLI and the CI smoke stage drive:
submit everything, drain once, and report per-job status plus the
service-stats rollup as one JSON-able summary.
"""

import json

from repro.service.jobkey import JobSpec


def load_batch(path: str, tenant=None) -> list:
    """Parse a batch file into ``(JobSpec, priority)`` pairs.

    ``tenant`` is the submitting tenant when neither the job entry
    nor the file's ``defaults`` name one (metering only — tenant is
    never part of the job key).
    """
    with open(path) as handle:
        document = json.load(handle)
    if not isinstance(document, dict) or "jobs" not in document:
        raise ValueError(f"{path}: batch file needs a 'jobs' array")
    defaults = document.get("defaults", {})
    if tenant is not None:
        defaults = {**defaults, "tenant": defaults.get("tenant", tenant)}
    pairs = []
    for index, entry in enumerate(document["jobs"]):
        if "kind" not in entry:
            raise ValueError(f"{path}: job {index} has no 'kind'")
        pairs.append((
            JobSpec(
                kind=entry["kind"],
                spec=entry.get("spec"),
                tier=entry.get("tier", defaults.get("tier")),
                config=entry.get("config", defaults.get("config")),
                seed=entry.get("seed", defaults.get("seed")),
                tenant=entry.get("tenant", defaults.get("tenant")),
            ),
            int(entry.get("priority", defaults.get("priority", 0))),
        ))
    return pairs


def run_batch(service, jobs, timeout=None) -> dict:
    """Submit ``(job, priority)`` pairs, drain, summarise.

    The summary is JSON-able: per-job records in submission order
    (status, key, payload digest, latencies) plus the service-stats
    rollup, with ``all_ok`` true only when every job ended ``done``
    or ``cached``.

    ``timeout`` (seconds) bounds the whole batch: the drain runs on a
    background thread and any job still unfinished at the deadline is
    reported with its non-terminal status (``all_ok`` false) instead
    of blocking forever.
    """
    import time as _time

    from repro.analysis.tracing import service_stats
    from repro.service.scheduler import JobError, JobTimeout
    futures = service.submit_batch(jobs)
    if timeout is None:
        service.drain()
    else:
        deadline = _time.monotonic() + float(timeout)
        for future in futures:
            remaining = max(0.001, deadline - _time.monotonic())
            try:
                future.result(timeout=remaining)
            except JobTimeout:
                pass  # reported via the future's status below
            except JobError:
                pass  # failed/cancelled/rejected: status is terminal
    records = []
    for index, future in enumerate(futures):
        record = future.as_json()
        record["index"] = index
        records.append(record)
    return {
        "jobs": records,
        "stats": service_stats(service),
        "all_ok": all(
            f.status in ("done", "cached") for f in futures
        ),
    }
