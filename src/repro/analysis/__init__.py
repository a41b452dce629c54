"""Analysis used by the benchmark harness.

Public surface:

* :mod:`repro.analysis.performance` — rates, efficiency, speedup.
* :mod:`repro.analysis.balance` — the 1 : 13 : 130 derivation.
* :mod:`repro.analysis.overlap` — gather/compute overlap curves.
* :mod:`repro.analysis.checkpoint_opt` — snapshot-interval optimum.
* :class:`Table`, :func:`series` — bench output formatting.
"""

from repro import _lazy

# Resolved on first use: the service layer imports the stats views
# from ``repro.analysis.tracing`` without the simulator behind the
# other modules.
__getattr__, __dir__ = _lazy.exports(globals(), {
    "repro.analysis.balance": (
        "PAPER_RATIO", "PAPER_TIMES_US", "balance_table",
        "derived_ratio", "derived_times_ns", "ops_to_hide_gather",
        "ops_to_hide_link"),
    "repro.analysis.checkpoint_opt": (
        "best_interval", "expected_overhead_fraction", "interval_sweep",
        "mtbf_for_interval", "optimal_interval_band",
        "simulate_checkpointing", "young_interval_s"),
    "repro.analysis.overlap": (
        "knee_ops", "link_intensity_model", "measure_overlap",
        "overlap_efficiency_model", "overlap_sweep"),
    "repro.analysis.performance": (
        "bandwidth_mb_s", "efficiency", "mflops", "parallel_efficiency",
        "relative_error", "seconds", "speedup"),
    "repro.analysis.report": ("Table", "series"),
    "repro.analysis.scaled_speedup": (
        "amdahl_speedup", "gustafson_speedup", "measured_scaled_saxpy",
        "measured_scaled_stencil"),
    "repro.analysis.tracing": (
        "TraceProbe", "all_fabric_links", "busiest_component",
        "engine_stats", "engine_stats_table", "flops_breakdown",
        "machine_utilization", "node_utilization", "recovery_stats",
        "reliability_stats", "service_stats", "service_stats_table",
        "sweep_timing_table", "utilization_table"),
})

__all__ = [
    "PAPER_RATIO",
    "PAPER_TIMES_US",
    "Table",
    "TraceProbe",
    "all_fabric_links",
    "amdahl_speedup",
    "balance_table",
    "gustafson_speedup",
    "measured_scaled_saxpy",
    "measured_scaled_stencil",
    "bandwidth_mb_s",
    "best_interval",
    "busiest_component",
    "engine_stats",
    "engine_stats_table",
    "flops_breakdown",
    "machine_utilization",
    "node_utilization",
    "utilization_table",
    "derived_ratio",
    "derived_times_ns",
    "efficiency",
    "expected_overhead_fraction",
    "interval_sweep",
    "knee_ops",
    "link_intensity_model",
    "measure_overlap",
    "mflops",
    "mtbf_for_interval",
    "ops_to_hide_gather",
    "ops_to_hide_link",
    "optimal_interval_band",
    "overlap_efficiency_model",
    "overlap_sweep",
    "parallel_efficiency",
    "recovery_stats",
    "relative_error",
    "reliability_stats",
    "seconds",
    "series",
    "service_stats",
    "service_stats_table",
    "sweep_timing_table",
    "simulate_checkpointing",
    "speedup",
    "young_interval_s",
]
