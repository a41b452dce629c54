"""Sensitivity self-test: a fixed delay wrapped around one public
function from outside moves that layer's metric and the mapped
end-to-end metrics beyond their bounds on the workload that exercises
the function, and leaves the workload that bypasses it within bounds.

Each case runs the benchmark CLI eight times (baseline and delayed,
measured and traced, on both workloads), so it takes a few minutes.
"""

import json
import os
import subprocess
import sys

import pytest

import run

SEED = 5

#: (delayed function, seconds per call, predicted workload, bypass
#: workload, per-layer metric, mapped end-to-end metrics).  sim_control
#: never calls execute_chain (LINPACK eliminates with single forms), and
#: wire_warm serves cache hits only, so it never stores.
CASES = [
    ("repro.fpu.vector_forms:VectorArithmeticUnit.execute_chain", 0.006,
     "sim_vector", "sim_control", "fpu.self_ms_per_op",
     ("ops_per_s", "latency_p50_ms")),
    ("repro.service.cache:ResultCache.put", 0.008,
     "wire_cold", "wire_warm", "service.cache.put_ms_per_op",
     ("latency_p50_ms", "ops_per_s")),
]


def declared():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as handle:
        document = json.load(handle)
    return {metric["name"]: metric
            for metric in document["end_to_end"] + document["per_layer"]}


def bench(workload, trace, delay=None):
    env = dict(os.environ)
    env.pop(run.DELAY_ENV, None)
    if delay is not None:
        env[run.DELAY_ENV] = f"{delay[0]}={delay[1]}"
    out = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload",
         workload, "--seed", str(SEED), "--seconds", "1", "--trace",
         str(trace)],
        cwd=run.ROOT, env=env, capture_output=True, text=True,
        timeout=600, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"], out.stdout
    return {name: m["value"] for name, m in result["metrics"].items()}


def worsening(metric, base, new):
    """How much worse ``new`` is than ``base``, as a share of base."""
    if base == new:
        return 0.0
    if metric["better"] == "lower":
        return new / base - 1.0
    return base / new - 1.0


@pytest.mark.parametrize("case", CASES, ids=[case[2] for case in CASES])
def test_a_delayed_layer_moves_only_the_workload_that_uses_it(case):
    qual, seconds, predicted, bypass, layer_metric, e2e = case
    metrics = declared()
    for workload, should_move in ((predicted, True), (bypass, False)):
        base = {**bench(workload, 0), **bench(workload, 1)}
        slow = {**bench(workload, 0, (qual, seconds)),
                **bench(workload, 1, (qual, seconds))}
        for name in e2e + (layer_metric,):
            bound = metrics[name].get("bound", metrics[e2e[0]]["bound"])
            change = worsening(metrics[name], base[name], slow[name])
            if should_move:
                assert change > bound, (workload, name, base[name],
                                        slow[name])
            else:
                assert abs(change) <= bound, (workload, name,
                                              base[name], slow[name])
