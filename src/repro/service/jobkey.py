"""Canonical job keys: content addresses for simulation work.

A *job* is one unit of servable simulation: a workload spec run under
one machine configuration, one kernel tier, and one seed.  Two jobs
with the same key are guaranteed to produce byte-identical result
payloads, so the key is usable as a cache address and as a dedup
handle for in-flight coalescing.

The key is the SHA-256 of a canonical JSON document::

    {"schema":   <JOB_KEY_SCHEMA_VERSION>,
     "semantics": <digest of the golden-trace set>,
     "runner":    <digest of the registered runner's source>,
     "kind":      ..., "spec": ..., "config": ..., "seed": ...,
     "tier":      ..., "opt": ...}

Canonical means sorted keys, compact separators, and ``allow_nan``
off — the byte stream is a pure function of the job's value, never of
dict build order or float spelling accidents.

Invalidation is layered, cheapest first:

* **Schema version.**  ``JOB_KEY_SCHEMA_VERSION`` names the shape of
  the key document itself.  Bumping it orphans every existing cache
  entry at once.
* **Semantics fingerprint.**  The golden-trace files under
  ``tests/golden/`` pin the simulator's observable behaviour (the
  conformance suite diffs every kernel tier against them).  Their
  digest is folded into every key, so any intentional behaviour
  change — which must regenerate the goldens — silently invalidates
  the whole cache.  ``scripts/check_cache_version.py`` enforces the
  pairing: golden digests may not change without a schema bump.
* **Runner fingerprint.**  The source digest of the registered
  workload runner (see :mod:`repro.service.workloads`), so editing a
  bench cell function invalidates that kind's entries only.
"""

import dataclasses
import hashlib
import json
import os

#: Version of the job-key document shape.  Bump whenever the key
#: schema, the runner calling convention, or simulator semantics
#: change in a way the semantics fingerprint cannot see.  The pinned
#: pairing with the golden digest lives in
#: ``tests/golden/jobkey_schema.json`` and is enforced by
#: ``scripts/check_cache_version.py``.
#: v2: the key document gained the ``opt`` field (the Occam
#: optimization level — optimized and unoptimized compiles of the same
#: spec are different jobs), and the golden set gained the
#: ``occam_optimized`` workload.
JOB_KEY_SCHEMA_VERSION = 2


@dataclasses.dataclass(frozen=True)
class JobSpec:
    """Identity of one servable simulation.

    ``kind`` names a registered workload runner; ``spec`` is the
    JSON-able workload document it consumes.  ``tier`` picks the
    kernel tier (``None`` = resolve the ambient tier at submit time).
    ``config`` and ``seed`` are optional identity fields for runners
    whose spec does not embed them (the generator specs embed their
    own seeds; a bench cell might not) — they are folded into the key
    and handed to runners registered with ``takes="job"``.  ``opt`` is
    the Occam optimization level for runners that compile programs:
    ``-O0`` and ``-O2`` builds of the same spec reach the same
    variables but different instruction/cycle counters, so cached
    results are only sound when the level joins the key.  (Specs that
    embed their own ``"opt"`` field are already distinct; this field
    covers runners whose spec does not.)

    ``tenant`` names the submitting tenant for quota accounting and
    metering (:mod:`repro.service.tenants`).  It is *identity-safe*:
    deliberately excluded from both :meth:`payload` and
    :func:`job_key`, so identical work submitted by different tenants
    coalesces in flight and shares one cache entry.
    """

    kind: str
    spec: object = None
    tier: str = None
    config: object = None
    seed: object = None
    opt: object = None
    tenant: object = None

    def resolved(self) -> "JobSpec":
        """A copy with ``tier`` pinned to a concrete kernel tier."""
        if self.tier is not None:
            return self
        from repro.events.engine import kernel_tier
        return dataclasses.replace(self, tier=kernel_tier())

    def payload(self) -> dict:
        """The JSON document workers receive (tier must be resolved)."""
        return {
            "kind": self.kind,
            "spec": self.spec,
            "tier": self.tier,
            "config": self.config,
            "seed": self.seed,
            "opt": self.opt,
        }


def canonical_json(value) -> str:
    """The one true serialisation used for keys, checksums, and
    byte-identity comparisons: sorted keys, compact separators, NaN
    rejected (NaN breaks round-trip equality)."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


def payload_digest(value) -> str:
    """SHA-256 of a result payload's canonical JSON form."""
    return hashlib.sha256(canonical_json(value).encode()).hexdigest()


#: Cache of golden-set digests, keyed by directory (the directory is
#: stable within a process; tests pass explicit directories).
_FINGERPRINTS = {}


def semantics_fingerprint(golden_dir=None) -> str:
    """SHA-256 over the golden-trace digest set.

    Hashes the name and content of every golden workload file (the
    registry in :mod:`repro.testing.golden` names them — the pinned
    behavioural surface of the simulator).  A missing file is hashed
    as such rather than skipped, so a half-regenerated tree does not
    alias a complete one.
    """
    from repro.testing import golden as _golden
    directory = golden_dir or _golden.default_golden_dir()
    directory = os.path.abspath(directory)
    cached = _FINGERPRINTS.get(directory)
    if cached is not None:
        return cached
    digest = hashlib.sha256()
    for name in sorted(_golden.WORKLOADS):
        path = _golden.golden_path(directory, name)
        digest.update(name.encode())
        digest.update(b"\x00")
        try:
            with open(path, "rb") as handle:
                digest.update(handle.read())
        except OSError:
            digest.update(b"<missing>")
        digest.update(b"\x00")
    fingerprint = digest.hexdigest()
    _FINGERPRINTS[directory] = fingerprint
    return fingerprint


def job_key(job: JobSpec, semantics=None) -> str:
    """The content address of one job (a SHA-256 hex digest).

    ``semantics`` overrides the golden-set fingerprint (tests); the
    runner fingerprint is looked up from the workload registry, so the
    kind must be registered — and the tier must be a kernel tier this
    build runs — before its jobs can be addressed.
    """
    from repro.service import workloads
    job = job.resolved()
    workloads.check_tier(job.tier)
    document = {
        "schema": JOB_KEY_SCHEMA_VERSION,
        "semantics": semantics or semantics_fingerprint(),
        "runner": workloads.runner_fingerprint(job.kind),
        "kind": job.kind,
        "spec": job.spec,
        "config": job.config,
        "seed": job.seed,
        "tier": job.tier,
        "opt": job.opt,
    }
    return hashlib.sha256(canonical_json(document).encode()).hexdigest()


def schema_pin_path() -> str:
    """Where the schema-version ↔ golden-digest pairing is pinned."""
    from repro.testing import golden as _golden
    return os.path.join(_golden.default_golden_dir(),
                        "jobkey_schema.json")


def current_schema_pin() -> dict:
    """The pairing the current tree would pin."""
    return {
        "job_key_schema_version": JOB_KEY_SCHEMA_VERSION,
        "golden_fingerprint": semantics_fingerprint(),
    }
