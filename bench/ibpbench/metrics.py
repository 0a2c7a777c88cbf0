"""Workload and metric names, units and directions; BENCHMARK.json lists the same.

This module imports nothing from ibpcheck, so the parent process, which
never imports the package, can use it.
"""

from __future__ import annotations

WORKLOADS = ("search", "grid-solve", "classify-synthesize", "cli-instances")

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("ops_per_s", "ops/s", "higher"),
    ("op_p50_ms", "ms", "lower"),
    ("op_tail_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

# Per-layer counts and self times are divided by the ops of the traced phase.
_PER_OP_TIMES = (
    "equilibrium.solve_icwe.cg",
    "equilibrium.solve_icwe.exact",
    "equilibrium.verify_wardrop",
    "core_graph.enumerate_simple_paths",
    "core_graph.decompose_blocks",
    "core_graph.od_subnetwork",
    "core_graph.validate",
    "topology.decide_ibp_free",
    "topology.is_series_parallel",
    "topology.is_linearly_independent",
    "topology.is_sli",
    "topology.classify_common_blocks",
    "paradox.find_gadget_embedding",
    "paradox.lift_instance",
    "paradox.synthesize_ibp_witness",
    "paradox.check_ibp",
    "paradox.random_search_ibp",
    "instance_io.load_instance",
    "instance_io.save_instance",
    "cli.main",
)
_PER_OP_COUNTS = (
    "equilibrium.solve_icwe.cg.calls",
    "equilibrium.solve_icwe.exact.calls",
    "equilibrium.solve_icwe.sweeps",
    "equilibrium.feasible_paths.calls",
    "equilibrium.feasible_paths.paths",
    "core_graph.enumerate_simple_paths.calls",
    "core_graph.enumerate_simple_paths.paths",
    "core_graph.apply_embedding_step.calls",
)
_PER_OP_FAILED = (
    "core_graph.enumerate_simple_paths",
    "equilibrium.solve_icwe",
    "equilibrium.verify_wardrop",
    "topology.decide_ibp_free",
    "paradox.find_gadget_embedding",
    "paradox.synthesize_ibp_witness",
    "paradox.check_ibp",
    "paradox.random_search_ibp",
    "instance_io.load_instance",
)
_RATIOS = (
    ("equilibrium.solve_icwe.auto_exact_share", "lower"),
    ("paradox.search.hit_ratio", "higher"),
    ("paradox.search.confirm_ratio", "higher"),
    ("failed_frac", "lower"),
    ("trace.overhead_frac", "lower"),
)

PER_LAYER = (
    tuple((f"{name}.self_s", "s/op", "lower") for name in _PER_OP_TIMES)
    + tuple((name, "1/op", "lower") for name in _PER_OP_COUNTS)
    + tuple((f"{name}.failed", "1/op", "lower") for name in _PER_OP_FAILED)
    + tuple((name, "ratio", better) for name, better in _RATIOS)
)


def per_layer_values(
    totals: dict, ops: int, counters, failed_frac: float, overhead_frac: float
) -> dict[str, float]:
    """Every per-layer metric from span totals of a traced phase of `ops` ops."""
    auto = totals.get("equilibrium.solve_icwe.auto.calls", 0.0)
    trials = totals.get("paradox.search.trials", 0.0)
    hits = totals.get("paradox.search.hits", 0.0)
    ratios = {
        "equilibrium.solve_icwe.auto_exact_share": (
            totals.get("equilibrium.solve_icwe.auto.exact", 0.0) / auto if auto else 0.0
        ),
        "paradox.search.hit_ratio": hits / trials if trials else 0.0,
        "paradox.search.confirm_ratio": (
            counters.search_confirmed / counters.search_hits if counters.search_hits else 0.0
        ),
        "failed_frac": failed_frac,
        "trace.overhead_frac": overhead_frac,
    }
    return {
        name: ratios[name] if name in ratios else totals.get(name, 0.0) / ops
        for name, _, _ in PER_LAYER
    }
