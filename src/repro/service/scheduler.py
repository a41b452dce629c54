"""The job scheduler: priority queue, coalescing, admission, futures,
durability.

The machine-room model: many clients submit jobs against one
simulator backend.  The scheduler's contract —

* **Priority queue, FIFO tie-break.**  Lower ``priority`` runs
  earlier; equal priorities run in submission order (a monotonic
  sequence number breaks ties, so the heap is deterministic).
* **In-flight dedup.**  Submitting a job whose key is already queued
  returns the *same* :class:`JobFuture`; the simulation runs once and
  every submitter observes the one result.  The coalescing counter is
  the proof the acceptance test asserts on.
* **Admission control.**  The queue is depth-bounded; a submit beyond
  the bound fails with a structured :class:`AdmissionError` — unless
  graceful degradation (``shed_on_full=True``) finds a queued job
  from a lower-precedence tenant to shed first.
* **Per-tenant quotas.**  A :class:`~repro.service.tenants.TenantTable`
  meters every tenant and token-buckets admission; over-quota submits
  fail with a structured :class:`QuotaError`.  The tenant id never
  joins the job key, so identical work from different tenants still
  coalesces.
* **Durability.**  With ``journal_dir=`` set, every transition
  replay acts on (SUBMIT, DONE, FAIL, CANCEL) is written ahead to a
  :class:`~repro.service.journal.JobJournal`; a job's start is not,
  since a running job is owed exactly like a queued one.  A
  restarted service replays the log: unfinished jobs re-enter the
  queue in original (priority, seq) order (exposed as
  ``service.recovered``), completed jobs are served from the result
  cache, and a completed job whose cache entry was lost is re-enqueued
  so it is still delivered.  Drains are chunked when journaled so a
  ``kill -9`` mid-drain loses at most the chunk in flight.  A result
  shows (``done()``, ``result()``, its DONE event) only once its DONE
  record is durable.
* **Bounded retry.**  A pool worker that dies mid-job is retried up
  to :data:`MAX_RETRIES` times with exponential backoff (the ARQ
  discipline from ``repro.runtime.transport``); only then does the
  future fail.  Deterministic runner exceptions fail immediately.
* **Cancellation.**  A queued future can be cancelled; the heap entry
  is lazily skipped at drain time.  Replayed (recovered) futures
  cancel the same way.
* **Crash isolation.**  Execution goes through
  :func:`repro.parallel.run_cells`; a worker that dies mid-job fails
  *that job's* future with a structured error — the service, the
  queue, and the other jobs in the batch are unaffected.

Results flow through the :class:`~repro.service.cache.ResultCache`
when one is attached: submits are answered from cache without
queueing, and completed simulations are stored for the next client.

The service is synchronous-by-default (``drain`` runs the queue on
the caller's thread, fanning out over the fork pool when
``pool_jobs > 1``) and thread-safe: concurrent submitters coalesce
under the service lock, execution happens *outside* it (so waiters
can time out), and ``JobFuture.result()`` from any thread drains or
waits as appropriate — ``result(timeout=…)`` raises a structured
:class:`JobTimeout` instead of blocking forever.  A timed wait hands
the queue to the service's one background drainer, a thread started
on first use that sleeps until woken; the network front-end wakes it
after each submit that queues a job.
"""

import heapq
import threading
import time

from repro.parallel import CellResult, resolve_jobs, run_cells
from repro.service.cache import ResultCache
from repro.service.jobkey import JobSpec, job_key, payload_digest
from repro.service.journal import JobJournal
from repro.service.tenants import TenantTable
from repro.service.workloads import UnknownTierError, execute_job

#: Retries of a job whose pool worker died, and the backoff before
#: the first (doubling per attempt).
MAX_RETRIES = 2
RETRY_BACKOFF_S = 0.05
#: A drain compacts the journal once its file exceeds this many
#: bytes.
COMPACT_BYTES = 4 << 20

#: Terminal future states.
_DONE_STATES = ("done", "cached", "failed", "cancelled", "rejected",
                "shed")

#: Lifecycle-event ops (one per journal record type, plus START when
#: a drain picks a job up and CACHED for cache-hit answers, neither
#: journaled) and the client-facing state each one announces.
EVENT_STATES = {
    "SUBMIT": "QUEUED",
    "START": "RUNNING",
    "DONE": "DONE",
    "FAIL": "FAILED",
    "CANCEL": "CANCELLED",
    "CACHED": "DONE",
}
#: Ops that end a lifecycle; a future emits at most one of them.
TERMINAL_OPS = ("DONE", "FAIL", "CANCEL", "CACHED")


class AdmissionError(RuntimeError):
    """Structured rejection: the queue is at its depth bound."""

    def __init__(self, key, queue_depth, limit):
        super().__init__(
            f"queue full: {queue_depth} pending >= limit {limit} "
            f"(job {key[:12]}…)"
        )
        self.key = key
        self.queue_depth = queue_depth
        self.limit = limit

    def as_json(self) -> dict:
        return {
            "error": "admission",
            "key": self.key,
            "queue_depth": self.queue_depth,
            "limit": self.limit,
        }


class QuotaError(AdmissionError):
    """Structured rejection: the submitting tenant is over quota."""

    def __init__(self, key, tenant, tokens):
        RuntimeError.__init__(
            self,
            f"tenant {tenant!r} over quota "
            f"({tokens:.2f} tokens; job {key[:12]}…)"
        )
        self.key = key
        self.tenant = tenant
        self.tokens = tokens

    def as_json(self) -> dict:
        return {
            "error": "quota",
            "key": self.key,
            "tenant": (str(self.tenant)
                       if self.tenant is not None else None),
            "tokens": self.tokens,
        }


class JobError(RuntimeError):
    """Raised by :meth:`JobFuture.result` when the job failed."""


class JobTimeout(JobError):
    """Raised by :meth:`JobFuture.result` when ``timeout=`` elapses
    before the job reaches a terminal state.  The job itself is
    unaffected — it stays queued/running and a later ``result()``
    can still deliver it."""

    def __init__(self, key, timeout_s, status):
        super().__init__(
            f"job {key[:12]}… not done after {timeout_s}s "
            f"(status {status!r})"
        )
        self.key = key
        self.timeout_s = timeout_s
        self.status = status

    def as_json(self) -> dict:
        return {
            "error": "timeout",
            "key": self.key,
            "timeout_s": self.timeout_s,
            "status": self.status,
        }


class LatencyTally:
    """Count, total and maximum of per-job latencies (seconds).

    Kept in place of a list of every sample, so a long-lived server's
    stats stay the same size however many jobs it has run.
    """

    __slots__ = ("jobs", "total_s", "max_s")

    def __init__(self):
        self.jobs = 0
        self.total_s = 0.0
        self.max_s = 0.0

    def add(self, seconds):
        self.max_s = max(self.max_s, seconds) if self.jobs else seconds
        self.jobs += 1
        self.total_s += seconds

    def rollup(self) -> dict:
        return {
            "jobs": self.jobs,
            "total_s": self.total_s,
            "mean_s": self.total_s / self.jobs if self.jobs else 0.0,
            "max_s": self.max_s,
        }


class JobFuture:
    """Handle on one submitted job (shared by coalesced submitters)."""

    def __init__(self, service, job: JobSpec, key: str, priority: int,
                 status: str, tenant=None):
        self._service = service
        self.job = job
        self.key = key
        self.priority = priority
        self.status = status
        self.tenant = tenant
        self.value = None
        self.error = None
        self._digest = None  # payload_digest(value), once resolved
        #: How many submissions this future absorbed (1 = no dedup).
        self.submits = 1
        #: Seconds spent queued (submit → drain start) and running
        #: (the pool's per-cell wall clock); cache hits keep both 0.
        self.queued_s = 0.0
        self.run_s = 0.0
        self._submitted = time.perf_counter()
        self._seq_hint = 0   # submission sequence (shed tie-break)
        #: Lifecycle events in emission order: SUBMIT, START and DONE
        #: or FAIL; SUBMIT and CANCEL; or CACHED alone.  A recovered
        #: future starts at START.
        self.events = []
        self._watchers = []

    def done(self) -> bool:
        return self.status in _DONE_STATES

    def watch(self, callback):
        """Call ``callback(event)`` with each of this future's events:
        those already emitted, then each new one, exactly once and in
        order.  Returns a function that stops delivery.  The callback
        runs under the event lock, on the emitting thread (or, for the
        replay, the calling one): it must enqueue and return, never
        block or call back into the service.  One that raises is
        counted in ``listener_errors``, never propagated.
        """
        service = self._service
        with service._events_lock:
            for event in self.events:
                service._deliver(callback, event)
            self._watchers.append(callback)

        def stop():
            with service._events_lock:
                if callback in self._watchers:
                    self._watchers.remove(callback)
        return stop

    def cancel(self) -> bool:
        """Cancel if still queued.  Cancelling a coalesced future
        cancels the job for every submitter that shares it."""
        return self._service._cancel(self)

    def result(self, wait=True, timeout=None):
        """The job's result payload.

        ``wait=True`` drains the service queue if the job is still
        pending; ``wait=False`` raises ``JobError`` when not done yet
        (poll with :meth:`done`).  ``timeout=`` (seconds) bounds the
        wait: the service's background drainer runs the queue and a
        job that has not reached a terminal state by the deadline
        raises a structured :class:`JobTimeout` — never blocks
        forever.
        Failed, cancelled, shed, and rejected jobs raise ``JobError``
        with the structured reason.
        """
        if not self.done():
            if not wait:
                raise JobError(f"job {self.key[:12]}… not done "
                               f"(status {self.status!r})")
            if timeout is None:
                self._service.drain()
            else:
                self._service._wait_for(self, timeout)
        if self.status in ("done", "cached"):
            return self.value
        raise JobError(
            f"job {self.key[:12]}… {self.status}: {self.error}"
        )

    def digest(self):
        """SHA-256 of the result payload (None until done), computed
        once per future: the journal record, the lifecycle event and
        every wire record reuse it."""
        if self.status not in ("done", "cached"):
            return None
        if self._digest is None:
            self._digest = payload_digest(self.value)
        return self._digest

    def as_json(self) -> dict:
        record = {
            "kind": self.job.kind,
            "key": self.key,
            "status": self.status,
            "priority": self.priority,
            "submits": self.submits,
            "digest": self.digest(),
            "queued_s": self.queued_s,
            "run_s": self.run_s,
        }
        if self.tenant is not None:
            record["tenant"] = self.tenant
        if self.error is not None:
            record["error"] = self.error
        return record

    def __repr__(self):
        return (f"<JobFuture {self.job.kind} {self.key[:12]}… "
                f"{self.status}>")


class SimulationService:
    """Simulation-as-a-service over the simulator's kernel tiers."""

    def __init__(self, cache=None, use_cache=True, max_pending=1024,
                 pool_jobs=None, journal_dir=None, tenants=None,
                 shed_on_full=False):
        #: ``cache=None`` with ``use_cache=True`` builds the default
        #: store; pass ``use_cache=False`` for a pure scheduler.
        self.cache = (cache or ResultCache()) if use_cache else None
        self.max_pending = int(max_pending)
        #: Worker count handed to the fork pool on each drain
        #: (``None`` = the ``REPRO_SWEEP_JOBS`` default, i.e. inline).
        self.pool_jobs = pool_jobs
        self.tenants = tenants if tenants is not None else TenantTable()
        self.shed_on_full = bool(shed_on_full)
        self._lock = threading.RLock()
        self._resolved = threading.Condition(self._lock)
        self._drain_lock = threading.Lock()
        self._drainer = None     # the background drain thread
        self._drain_wake = threading.Event()
        self._heap = []          # (priority, seq, future)
        self._seq = 0
        self._inflight = {}      # key -> queued/running future
        self.last_sweep = None   # SweepResult of the latest drain
        # Counters (rolled up by repro.analysis.service_stats).
        self.submissions = 0
        self.cache_hits = 0
        self.coalesced = 0
        self.executed = 0
        self.failed = 0
        self.cancelled = 0
        self.rejected = 0
        self.quota_rejected = 0
        self.shed = 0
        self.worker_retries = 0
        self.retried_ok = 0
        self.drain_errors = 0    # exceptions the background drain hit
        self.queue_depth_hwm = 0
        self.queue_latency = LatencyTally()  # submit → drain
        self.run_latency = LatencyTally()    # pool cell wall
        #: Guards every future's ``events`` and watchers.  Not the
        #: service lock: ``watch`` runs on the network event loop,
        #: and a drain holds the service lock over journal fsyncs.
        #: It is never held over disk I/O.
        self._events_lock = threading.Lock()
        self.listener_errors = 0  # watchers that raised
        #: Network front-end counters; a running
        #: :class:`repro.service.net.server.ServiceServer` attaches
        #: its counter block here so ``stats()`` (and the
        #: ``service_stats`` rollup) can surface the wire-level story.
        self.net = None
        # Durability: the write-ahead journal and its replay.
        self.journal = None
        self.journal_replay = None
        #: Futures re-enqueued from the journal on construction.
        self.recovered = []
        if journal_dir is not None:
            self.journal = JobJournal(journal_dir)
            self._replay_journal()

    # -- lifecycle events ---------------------------------------------

    def _emit(self, op, future, **fields):
        """Append one lifecycle event to ``future.events`` and deliver
        it to the future's watchers (see :meth:`JobFuture.watch`).

        Events are structured dicts — one per journal record type
        (``SUBMIT``/``DONE``/``FAIL``/``CANCEL``) plus ``START`` when
        a drain picks the job up and ``CACHED`` for submissions
        answered from the result cache, neither of them journaled —
        carrying ``op``, the client-facing ``state``
        (QUEUED/RUNNING/DONE/FAILED/CANCELLED), ``key``, ``kind``,
        ``priority``, ``tenant``, and op-specific fields (``digest``,
        ``error``, ``reason``).  Each sits on a status change that
        the scheduler makes once, so a coalesced duplicate submit or
        a retried worker never re-fires one.  SUBMIT is emitted under
        the service lock before the future can be popped; START and
        then DONE or FAIL follow on the draining thread, so one
        future's events need no further ordering.
        """
        event = {
            "op": op,
            "state": EVENT_STATES[op],
            "key": future.key,
            "kind": future.job.kind,
            "priority": future.priority,
            "tenant": future.tenant,
        }
        event.update(fields)
        with self._events_lock:
            future.events.append(event)
            for callback in future._watchers:
                self._deliver(callback, event)

    def _deliver(self, callback, event):
        try:
            callback(event)
        except Exception:
            self.listener_errors += 1

    # -- durability ---------------------------------------------------

    def _replay_journal(self):
        """Rebuild the queue from the write-ahead log.

        Unfinished jobs re-enter the heap with their original
        (priority, seq) so drain order is what it would have been;
        completed jobs whose cache entry is gone are re-enqueued too
        (counted ``done_cache_missing``) so every journaled job is
        still delivered after a restart.  A job journaled under a
        kernel tier this build no longer runs cannot be addressed; it
        is dropped and counted ``unaddressable``.
        """
        replay = self.journal.replay()
        stats = dict(replay.stats)
        stats["recovered_pending"] = 0
        stats["done_in_cache"] = 0
        stats["done_cache_missing"] = 0
        stats["unaddressable"] = 0
        entries = list(replay.pending())
        for key, entry in replay.entries.items():
            if entry["status"] != "done":
                continue
            if (self.cache is not None
                    and self.cache.get(key) is not None):
                stats["done_in_cache"] += 1
            elif entry["job"] is not None:
                stats["done_cache_missing"] += 1
                entries.append(entry)
        entries.sort(key=lambda e: (e["priority"], e["seq"]))
        with self._lock:
            self._seq = max(self._seq, replay.max_seq)
            for entry in entries:
                payload = entry["job"]
                job = JobSpec(
                    kind=payload["kind"], spec=payload.get("spec"),
                    tier=payload.get("tier"),
                    config=payload.get("config"),
                    seed=payload.get("seed"), opt=payload.get("opt"),
                    tenant=entry.get("tenant"),
                )
                try:
                    key = job_key(job)
                except UnknownTierError:
                    stats["unaddressable"] += 1
                    continue
                if key in self._inflight:
                    continue
                future = JobFuture(self, job, key, entry["priority"],
                                   "queued", tenant=entry.get("tenant"))
                future._seq_hint = entry["seq"]
                heapq.heappush(self._heap,
                               (entry["priority"], entry["seq"], future))
                self._inflight[key] = future
                self.recovered.append(future)
                stats["recovered_pending"] += 1
            self.queue_depth_hwm = max(self.queue_depth_hwm,
                                       len(self._inflight))
        self.journal_replay = stats

    def _journal_submit(self, future: JobFuture, seq: int):
        if self.journal is None:
            return
        self.journal.append(
            "SUBMIT", key=future.key, job=future.job.payload(),
            priority=future.priority, seq=seq, tenant=future.tenant,
        )

    def compact_journal(self):
        """Rewrite the journal down to the still-live jobs."""
        if self.journal is None:
            return
        with self._lock:
            live = [entry for entry in self._heap
                    if entry[2].status == "queued"]
            live.sort(key=lambda e: (e[0], e[1]))
            records = [
                {"key": future.key, "job": future.job.payload(),
                 "priority": priority, "seq": seq,
                 "tenant": future.tenant}
                for priority, seq, future in live
            ]
            self.journal.compact(records)

    def _maybe_compact(self):
        if (self.journal is not None
                and self.journal.size_bytes() > COMPACT_BYTES):
            self.compact_journal()

    # -- submission ---------------------------------------------------

    def queue_depth(self) -> int:
        # One atomic ``len``, without the service lock: the network
        # event loop asks, and a drain holds that lock over fsyncs.
        return len(self._inflight)

    def _shed_victim(self, tenant):
        """The queued future graceful degradation would shed to admit
        a submission from ``tenant`` — the lowest-precedence tenant's
        least-urgent, most-recent job — or ``None`` when every queued
        job outranks the newcomer."""
        queued = [(self.tenants.precedence(f.tenant), -f.priority, f)
                  for f in self._inflight.values()
                  if f.status == "queued"]
        if not queued:
            return None
        precedence, neg_priority, victim = min(
            queued, key=lambda item: (item[0], item[1],
                                      -item[2]._seq_hint))
        if precedence >= self.tenants.precedence(tenant):
            return None
        return victim

    def _shed(self, victim: JobFuture, tenant):
        victim.status = "shed"
        victim.error = (f"shed under queue pressure by tenant "
                        f"{tenant!r}")
        self._inflight.pop(victim.key, None)
        self.shed += 1
        self.tenants.note(victim.tenant, "shed")
        if self.journal is not None:
            self.journal.append("CANCEL", key=victim.key,
                                reason="shed")
        self._emit("CANCEL", victim, reason="shed")
        self._resolved.notify_all()

    def submit(self, job: JobSpec, priority: int = 0,
               tenant=None) -> JobFuture:
        """Queue one job; returns its (possibly shared) future.

        ``tenant`` (or ``job.tenant``) names the submitting tenant for
        quota and metering; it never affects the job key.  Resolution
        order: coalesce onto an in-flight duplicate, then answer from
        cache, then token-bucket the tenant (:class:`QuotaError`),
        then admit into the queue — shedding a lower-precedence
        tenant's queued job when ``shed_on_full`` is set, raising
        :class:`AdmissionError` at the depth bound otherwise.
        """
        job = job.resolved()
        if tenant is None:
            tenant = job.tenant
        key = job_key(job)
        with self._lock:
            self.submissions += 1
            self.tenants.note(tenant, "submitted")
            existing = self._inflight.get(key)
            if existing is not None:
                existing.submits += 1
                self.coalesced += 1
                self.tenants.note(tenant, "coalesced")
                return existing
            if self.cache is not None:
                value = self.cache.get(key)
                if value is not None:
                    self.cache_hits += 1
                    self.tenants.note(tenant, "cache_hits")
                    future = JobFuture(self, job, key, priority,
                                       "cached", tenant=tenant)
                    future.value = value
                    self._emit("CACHED", future, digest=future.digest())
                    return future
            if not self.tenants.admit(tenant):
                self.quota_rejected += 1
                self.tenants.note(tenant, "quota_rejected")
                raise QuotaError(
                    key, tenant, self.tenants.remaining_tokens(tenant)
                )
            if len(self._inflight) >= self.max_pending:
                victim = (self._shed_victim(tenant)
                          if self.shed_on_full else None)
                if victim is None:
                    self.rejected += 1
                    self.tenants.note(tenant, "rejected")
                    raise AdmissionError(key, len(self._inflight),
                                         self.max_pending)
                self._shed(victim, tenant)
            future = JobFuture(self, job, key, priority, "queued",
                               tenant=tenant)
            self._seq += 1
            future._seq_hint = self._seq
            self.tenants.note(tenant, "admitted")
            heapq.heappush(self._heap, (priority, self._seq, future))
            self._inflight[key] = future
            self.queue_depth_hwm = max(self.queue_depth_hwm,
                                       len(self._inflight))
            self._journal_submit(future, self._seq)
            self._emit("SUBMIT", future, seq=self._seq)
            return future

    def submit_batch(self, jobs) -> list:
        """Submit many ``(job, priority)`` pairs (or bare JobSpecs).

        Admission and quota failures become futures in the
        ``rejected`` state rather than raising, so one oversized batch
        still yields a per-job status report.
        """
        futures = []
        for entry in jobs:
            job, priority = (
                entry if isinstance(entry, tuple) else (entry, 0)
            )
            try:
                futures.append(self.submit(job, priority))
            except AdmissionError as exc:  # QuotaError included
                future = JobFuture(self, job.resolved(), exc.key,
                                   priority, "rejected",
                                   tenant=job.tenant)
                future.error = str(exc)
                futures.append(future)
        return futures

    def _cancel(self, future: JobFuture) -> bool:
        with self._lock:
            if future.status != "queued":
                return False
            future.status = "cancelled"
            future.error = "cancelled before execution"
            self._inflight.pop(future.key, None)
            self.cancelled += 1
            if self.journal is not None:
                self.journal.append("CANCEL", key=future.key,
                                    reason="cancelled")
            self._emit("CANCEL", future, reason="cancelled")
            self._resolved.notify_all()
            return True

    # -- execution ----------------------------------------------------

    def _pop_batch(self) -> list:
        """Pop every runnable future (cancelled entries skipped)."""
        batch = []
        while self._heap:
            _prio, _seq, future = heapq.heappop(self._heap)
            if future.status != "queued":
                continue  # lazily-deleted (cancelled / shed)
            future.status = "running"
            batch.append(future)
        if batch:
            start = time.perf_counter()
            for future in batch:
                future.queued_s = start - future._submitted
        return batch

    def _run_chunk(self, chunk, pool_jobs):
        """Execute one chunk through the fork pool and resolve it.

        Crashed workers (hard process deaths) are retried up to
        :data:`MAX_RETRIES` times with exponential backoff before their
        futures fail; deterministic runner exceptions fail
        immediately.  DONE/FAIL records are journaled with one fsync
        per chunk, *after* successful payloads enter the cache — so a
        journaled DONE always has a servable cache entry behind it
        (modulo later eviction) — and *before* any future of the chunk
        resolves or emits its event.
        """
        payloads = [future.job.payload() for future in chunk]
        for future in chunk:
            self._emit("START", future)
        # Pool mode (>1 worker) always forks, even for a single-cell
        # chunk — crash isolation is a property of the pool, not of
        # the chunk size, and the retry path depends on a dead worker
        # reporting as a crashed cell rather than taking us down.
        isolate = resolve_jobs(pool_jobs) > 1
        sweep = run_cells(execute_job, payloads, jobs=pool_jobs,
                          isolate=isolate)
        for attempt in range(1, MAX_RETRIES + 1):
            crashed = [i for i, cell in enumerate(sweep.results)
                       if not cell.ok and cell.crashed]
            if not crashed:
                break
            self.worker_retries += len(crashed)
            time.sleep(RETRY_BACKOFF_S * (1 << (attempt - 1)))
            retry = run_cells(execute_job,
                              [payloads[i] for i in crashed],
                              jobs=pool_jobs, isolate=True)
            for original, cell in zip(crashed, retry.results):
                if cell.ok:
                    self.retried_ok += 1
                sweep.results[original] = CellResult(
                    original, cell.ok, cell.value, cell.error,
                    cell.wall_s, cell.worker, crashed=cell.crashed,
                )
        self.last_sweep = sweep
        with self._lock:
            # Durable before visible: results enter the cache and the
            # DONE/FAIL batch reaches the journal before any status
            # flips, so no reader sees a result a crash would re-run.
            records = []
            for future, cell in zip(chunk, sweep.results):
                if cell.ok:
                    # The envelope checksum is the payload digest.
                    future._digest = (
                        self.cache.put(future.key, cell.value,
                                       job=future.job.payload())
                        if self.cache is not None
                        else payload_digest(cell.value))
                    records.append({"op": "DONE", "key": future.key,
                                    "digest": future._digest})
                else:
                    records.append({"op": "FAIL", "key": future.key,
                                    "error": cell.error})
            if self.journal is not None:
                self.journal.append_many(records)
            for future, cell in zip(chunk, sweep.results):
                future.run_s = cell.wall_s
                self.queue_latency.add(future.queued_s)
                self.run_latency.add(cell.wall_s)
                if cell.ok:
                    future.value = cell.value
                    future.status = "done"
                    self.executed += 1
                    self.tenants.note(future.tenant, "executed")
                    op, fields = "DONE", {"digest": future._digest}
                else:
                    future.error = cell.error
                    future.status = "failed"
                    self.failed += 1
                    self.tenants.note(future.tenant, "failed")
                    op, fields = "FAIL", {"error": future.error}
                self._inflight.pop(future.key, None)
                self._emit(op, future, **fields)
            self._resolved.notify_all()

    def drain(self, pool_jobs=None) -> list:
        """Run every queued job; returns the executed futures.

        The batch executes through the fork pool in strict
        (priority, submission) order; cancelled entries are skipped.
        Successful payloads are stored in the cache before their
        futures resolve.  Execution happens outside the service lock
        (submitters and timed waiters stay live); concurrent ``drain``
        calls serialize on a dedicated drain lock.  With a journal
        attached, the batch is executed in chunks so completions
        become durable incrementally — a process kill mid-drain loses
        at most the chunk in flight.
        """
        jobs = pool_jobs if pool_jobs is not None else self.pool_jobs
        executed = []
        with self._drain_lock:
            while True:
                with self._lock:
                    batch = self._pop_batch()
                if not batch:
                    break
                if self.journal is None:
                    chunk_size = len(batch)
                else:
                    chunk_size = max(1, resolve_jobs(jobs))
                for start in range(0, len(batch), chunk_size):
                    chunk = batch[start:start + chunk_size]
                    self._run_chunk(chunk, jobs)
                    executed.extend(chunk)
            self._maybe_compact()
        return executed

    # -- the background drainer --------------------------------------

    def _wake_drainer(self):
        """Have the background drainer run the queue, starting it on
        first use.  A timed ``result()`` wakes it, and so does the
        network front-end after each submit that queues a job."""
        with self._lock:
            if self._drainer is None:
                self._drainer = threading.Thread(
                    target=self._drain_loop, daemon=True,
                    name="repro-drain")
                self._drainer.start()
        self._drain_wake.set()

    def _drain_loop(self):
        me = threading.current_thread()
        # Once stopped, one more pass runs if a wake is pending.
        while self._drainer is me or self._drain_wake.is_set():
            self._drain_wake.wait()
            # Cleared before the pass: a job queued during it wakes
            # the flag again, so this pass or the next drains it.
            self._drain_wake.clear()
            try:
                if self.queue_depth():
                    self.drain()
            except Exception:
                self.drain_errors += 1

    def _stop_drainer(self, timeout=30.0):
        """Let the background drainer finish the queue, then stop it
        (waiting at most ``timeout`` seconds).  A later wake starts a
        fresh one."""
        with self._lock:
            thread, self._drainer = self._drainer, None
        if thread is not None:
            self._drain_wake.set()
            thread.join(timeout)

    def _wait_for(self, future: JobFuture, timeout):
        """Bounded wait for one future; the background drainer runs
        the queue.

        A pure condition-variable wait: every terminal transition
        (resolve, cancel, shed) notifies ``_resolved``, so the waiter
        sleeps the full remaining window instead of polling — the
        remote serving path parks hundreds of waiters here and a
        0.1 s poll loop per waiter would be a busy-wait in aggregate.
        A 0 (or elapsed) timeout still raises immediately without
        ever entering the wait.

        Raises :class:`JobTimeout` when the deadline passes first; the
        drain keeps running, so the job may still complete later.
        """
        deadline = time.monotonic() + float(timeout)
        self._wake_drainer()
        with self._resolved:
            while not future.done():
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise JobTimeout(future.key, timeout,
                                     future.status)
                self._resolved.wait(remaining)

    # -- stats --------------------------------------------------------

    def stats(self) -> dict:
        """Raw service counters (see
        :func:`repro.analysis.service_stats` for the rollup)."""
        with self._lock:
            journal = None
            if self.journal is not None:
                journal = self.journal.stats()
                journal["replay"] = self.journal_replay
            return {
                "submissions": self.submissions,
                "cache_hits": self.cache_hits,
                "coalesced": self.coalesced,
                "executed": self.executed,
                "failed": self.failed,
                "cancelled": self.cancelled,
                "rejected": self.rejected,
                "quota_rejected": self.quota_rejected,
                "shed": self.shed,
                "worker_retries": self.worker_retries,
                "retried_ok": self.retried_ok,
                "drain_errors": self.drain_errors,
                "queue_depth": len(self._inflight),
                "queue_depth_hwm": self.queue_depth_hwm,
                "queue_latency": self.queue_latency.rollup(),
                "run_latency": self.run_latency.rollup(),
                "cache": (self.cache.stats()
                          if self.cache is not None else None),
                "tenants": self.tenants.stats(),
                "journal": journal,
                "listener_errors": self.listener_errors,
                "net": (self.net.snapshot()
                        if self.net is not None else None),
            }
