"""The workload-runner registry: what a job *kind* means.

A runner is a plain function executing one workload spec on the
current kernel tier and returning a JSON-able result payload.  The
built-in kinds wrap the conformance generators (they are already
deterministic, spec-driven, and JSON-out — exactly the servable
shape) plus the golden workload registry; benches register their own
cell functions under ``bench.*`` names.

Each registration carries a *fingerprint* — by default the SHA-256 of
the runner's source text — which is folded into every job key, so
editing a runner invalidates exactly that kind's cache entries while
leaving the rest of the store warm.

``execute_job`` is the single entry point the scheduler hands to the
:func:`repro.parallel.run_cells` fork pool: module-level, driven
entirely by the job payload dict, and tier-pinning via
:func:`repro.events.engine.force_kernel` so a worker process runs the
job on the tier the key was addressed under.
"""

import hashlib
import inspect

from repro.events.engine import KERNEL_TIERS, force_kernel


class UnknownWorkloadError(KeyError):
    """Raised when a job names a kind nobody registered."""

    #: The structured error code the network front-end answers with.
    code = "unknown_kind"

    def as_json(self) -> dict:
        return {"error": self.code, "message": str(self)}


class UnknownTierError(UnknownWorkloadError):
    """Raised when a job names a kernel tier this build does not run
    (it is unaddressable the same way an unregistered kind is)."""

    code = "unknown_tier"


def check_tier(tier):
    """Raise :class:`UnknownTierError` unless ``tier`` is one of
    :data:`~repro.events.engine.KERNEL_TIERS`."""
    if tier not in KERNEL_TIERS:
        raise UnknownTierError(
            f"unknown kernel tier {tier!r}; known: {list(KERNEL_TIERS)}"
        )


class _Runner:
    __slots__ = ("fn", "fingerprint", "takes")

    def __init__(self, fn, fingerprint, takes):
        self.fn = fn
        self.fingerprint = fingerprint
        self.takes = takes


_RUNNERS = {}

#: Built-in kinds, each imported when a job of that kind is first
#: addressed, so a served process loads no simulator package until it
#: needs one (``tests/test_package_imports.py`` counts).  Each value is
#: ``(module, attribute)``; the attribute is a ``execute(spec) -> dict``
#: function.
_BUILTINS = {
    "cp": ("repro.testing.gen_cp", "execute"),
    "events": ("repro.testing.gen_events", "execute"),
    "occam": ("repro.testing.gen_occam", "execute"),
    "vector": ("repro.testing.gen_vector", "execute"),
    "faults": ("repro.testing.gen_faults", "execute"),
    # The service-layer chaos runner: pure arithmetic plus
    # marker-gated crash/kill side effects (see gen_service).
    "service.chaos": ("repro.testing.gen_service", "run_job"),
}


def _source_fingerprint(fn) -> str:
    """SHA-256 of the runner's source (falls back to its qualified
    name for builtins/callables without retrievable source)."""
    try:
        text = inspect.getsource(fn)
    except (OSError, TypeError):
        text = f"{getattr(fn, '__module__', '?')}.{getattr(fn, '__qualname__', repr(fn))}"
    return hashlib.sha256(text.encode()).hexdigest()


def register(kind: str, fn, fingerprint=None, takes="spec",
             replace=False):
    """Register a workload runner under ``kind``.

    ``takes="spec"`` (default) calls ``fn(job.spec)``;
    ``takes="job"`` calls ``fn(payload)`` with the whole job payload
    dict (kind, spec, tier, config, seed) for runners that consume
    the optional identity fields.  Re-registering an existing kind
    requires ``replace=True`` — an accidental collision would silently
    poison cache addressing.
    """
    if takes not in ("spec", "job"):
        raise ValueError(f"takes must be 'spec' or 'job', got {takes!r}")
    if kind in _RUNNERS and not replace:
        raise ValueError(f"workload kind {kind!r} already registered")
    _RUNNERS[kind] = _Runner(
        fn, fingerprint or _source_fingerprint(fn), takes
    )
    return fn


def unregister(kind: str):
    """Remove a registered kind (tests)."""
    _RUNNERS.pop(kind, None)


def _golden_runner(spec: dict) -> dict:
    """Run one named golden workload on the current tier."""
    from repro.testing import golden as _golden
    name = spec["name"]
    workload = _golden.WORKLOADS[name]
    return _golden._normalise(workload())


def _load_builtin(kind: str) -> bool:
    if kind == "golden":
        register("golden", _golden_runner)
        return True
    entry = _BUILTINS.get(kind)
    if entry is None:
        return False
    module_name, attr = entry
    module = __import__(module_name, fromlist=[attr])
    register(kind, getattr(module, attr))
    return True


def resolve(kind: str) -> _Runner:
    """The runner registered under ``kind`` (loading builtins)."""
    runner = _RUNNERS.get(kind)
    if runner is None and _load_builtin(kind):
        runner = _RUNNERS[kind]
    if runner is None:
        known = sorted(set(_RUNNERS) | set(_BUILTINS) | {"golden"})
        raise UnknownWorkloadError(
            f"unknown workload kind {kind!r}; registered: {known}"
        )
    return runner


def runner_fingerprint(kind: str) -> str:
    """The fingerprint folded into job keys for this kind."""
    return resolve(kind).fingerprint


def registered_kinds() -> list:
    """Every currently addressable kind (builtins included)."""
    return sorted(set(_RUNNERS) | set(_BUILTINS) | {"golden"})


def execute_job(payload: dict):
    """Run one job payload; the fork pool's cell function.

    The tier was resolved at submit time and is part of the job's
    identity, so the runner executes under ``force_kernel`` no matter
    what the worker's ambient environment says.
    """
    tier = payload["tier"]
    check_tier(tier)
    runner = resolve(payload["kind"])
    with force_kernel(tier=tier):
        if runner.takes == "job":
            return runner.fn(payload)
        return runner.fn(payload["spec"])
