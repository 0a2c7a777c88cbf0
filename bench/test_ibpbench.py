"""Self-tests of the benchmark: PYTHONPATH=src python -m pytest -q bench"""

import json
import random
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from ibpbench import generators as gen  # noqa: E402
from ibpbench import harness, metrics, tracing, workloads  # noqa: E402
from ibpcheck import core_graph, topology  # noqa: E402
from ibpcheck.errors import PathCapExceeded  # noqa: E402


@pytest.mark.parametrize("name", metrics.WORKLOADS)
def test_generators_repeat_exactly_for_a_seed(name, tmp_path):
    if name == "cli-instances":
        decks = []
        for run in ("a", "b"):
            workloads.make(name, BENCH_DIR.parent).setup(7, tmp_path / run)
            decks.append(
                {p.name: p.read_bytes() for p in sorted((tmp_path / run / "instances").iterdir())}
            )
        assert decks[0] == decks[1]
        return
    first = workloads.make(name, BENCH_DIR.parent).setup(7, tmp_path)
    second = workloads.make(name, BENCH_DIR.parent).setup(7, tmp_path)
    other = workloads.make(name, BENCH_DIR.parent).setup(8, tmp_path)
    assert first == second
    assert first != other


def test_game_specs_repeat_exactly_for_a_seed():
    def draw(seed):
        rng = random.Random(seed)
        return (
            [gen.grid_game(rng, 3, 4, c) for c in gen.LATENCY_CLASSES]
            + [gen.random_multi_od_network(rng, 5, 3, 2) for _ in range(5)]
            + [gen.parallel_links_game(rng, n) for n in range(2, 15)]
        )

    assert json.dumps(draw(3)) == json.dumps(draw(3))
    assert json.dumps(draw(3)) != json.dumps(draw(4))


@pytest.mark.parametrize(
    "n, expected",
    [(5, 50), (19, 50), (20, 50), (21, 52), (30, 66), (100, 90), (1000, 99), (9999, 99), (10000, 99.9)],
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, expected):
    q = harness.tail_percentile(n)
    assert q == expected
    values = list(range(n))
    if n >= 20:
        beyond = sum(v > harness.percentile(values, q) for v in values)
        assert beyond >= harness.TAIL_BEYOND


def _span(name, start, end, parent, failed=False, attrs=None):
    return [name, start, end, parent, 0, failed, attrs]


def test_self_time_subtracts_the_time_children_cover():
    spans = [
        _span("op", 0.0, 10.0, -1),
        _span("equilibrium.solve_icwe", 1.0, 9.0, 0, attrs=("cg", 4, "auto")),
        _span("equilibrium.feasible_paths", 1.0, 3.0, 1, attrs=5),
        _span("core_graph.enumerate_simple_paths", 1.5, 2.5, 2, attrs=5),
        _span("equilibrium.feasible_paths", 4.0, 5.0, 1, attrs=2),
    ]
    assert tracing.self_times(spans) == pytest.approx([2.0, 5.0, 1.0, 1.0, 1.0])
    totals = tracing.layer_totals(spans)
    assert totals["equilibrium.solve_icwe.cg.self_s"] == pytest.approx(5.0)
    assert totals["equilibrium.solve_icwe.cg.calls"] == 1
    assert totals["equilibrium.solve_icwe.sweeps"] == 4
    assert totals["equilibrium.solve_icwe.auto.calls"] == 1
    assert totals["equilibrium.solve_icwe.auto.exact"] == 0
    assert totals["equilibrium.feasible_paths.paths"] == 7
    assert totals["equilibrium.feasible_paths.self_s"] == pytest.approx(2.0)
    assert "op.self_s" not in totals


def test_self_time_counts_overlapping_children_once():
    spans = [
        _span("op", 0.0, 10.0, -1),
        _span("core_graph.validate", 2.0, 6.0, 0),
        _span("core_graph.validate", 4.0, 8.0, 0),
    ]
    assert tracing.self_times(spans)[0] == pytest.approx(4.0)


def test_tracer_wraps_every_binding_site_and_restores_them():
    from ibpcheck import paradox

    original = paradox.solve_icwe
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert paradox.solve_icwe is not original
        with tracer.root("op", 0):
            paradox.check_ibp(paradox.gadget_instance())
    finally:
        tracer.uninstall()
    assert paradox.solve_icwe is original
    names = [record[tracing.NAME] for record in tracer.spans]
    assert names.count("equilibrium.solve_icwe") == 2
    totals = tracing.layer_totals(tracer.spans)
    assert totals["paradox.check_ibp.calls"] == 1
    assert totals["equilibrium.solve_icwe.exact.calls"] == 2


class _CapWorkload:
    """Decides 14 diamonds in series, which exceeds the default path cap."""

    def __init__(self):
        spec = gen.diamonds_in_series(14)
        self.graph = core_graph.MultiGraph(spec["vertices"], spec["edges"], spec["od_pairs"])

    def op(self, item):
        return topology.decide_ibp_free(self.graph)

    def check(self, item, result, counters):
        return None


def test_path_cap_exceeded_is_one_failed_op_not_a_crash():
    with pytest.raises(PathCapExceeded):
        _CapWorkload().op(None)
    elapsed, failure = harness.run_one(_CapWorkload(), None, workloads.Counters())
    phase = harness.PhaseResult(samples=[[elapsed]], scales=[1.0])
    phase.record(0, failure)
    assert phase.attempted_items == {0} and phase.failed_items == {0}
    assert phase.failures == {"PathCapExceeded": 1}
    assert phase.wrong == 0


def test_failures_count_each_item_once_whatever_the_passes():
    phase = harness.PhaseResult(samples=[[1.0, 1.0, 1.0], [1.0, 1.0], [1.0, 1.0], []])
    for index in (0, 1, 2, 0, 1, 2, 0):
        phase.record(index, workloads.Failure("PathCapExceeded") if index == 1 else None)
    assert phase.ops == 7 and phase.failed_ops == 2
    assert phase.attempted_items == {0, 1, 2} and phase.failed_items == {1}


class _Counting:
    """Counts its ops; each one sleeps long enough to pass a short deadline."""

    def __init__(self):
        self.ops = 0

    def op(self, item):
        self.ops += 1
        time.sleep(0.002)

    def check(self, item, result, counters):
        return None


def test_a_covering_phase_tries_every_item_past_its_deadline():
    workload = _Counting()
    phase = harness.run_phase(workload, list(range(20)), 0.001, workloads.Counters(), cover=True)
    assert workload.ops == 20 and phase.attempted_items == set(range(20))
    uncovered = harness.run_phase(_Counting(), list(range(20)), 0.001, workloads.Counters())
    assert len(uncovered.attempted_items) < 20


def test_benchmark_json_names_the_metrics_the_harness_prints():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(metrics.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(
        metrics.END_TO_END
    )
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(metrics.PER_LAYER)


def test_demo_output_check_accepts_the_published_numbers():
    from ibpcheck import cli

    item = workloads.CliItem(["demo"], 0, workloads.demo_reproduces_paradox)
    result = workloads.CliInstances(BENCH_DIR.parent / "fixtures").op(item)
    assert result[0] == 0 and workloads.demo_reproduces_paradox(result[1])
    assert not workloads.demo_reproduces_paradox(result[1].replace("after:  48", "after:  49"))
    assert cli.EXIT_IBP_INCONCLUSIVE == 21
