"""Acceptance suite: one test per shipping criterion, each printing a verdict line.

Run with `pytest -s tests/test_acceptance.py` to see the PASS lines as the
criteria complete; any assertion failure marks the criterion red.
"""

import random
import time

import pytest

from ibpcheck.cli import run_demo
from ibpcheck.core_graph import EmbeddingStep, MultiGraph, decompose_blocks
from ibpcheck.equilibrium import solve_icwe, verify_wardrop
from ibpcheck.paradox import (
    GadgetVariant,
    check_ibp,
    cycle_diagnostics,
    gadget_graph,
    gadget_instance,
    random_search_ibp,
    synthesize_ibp_witness,
)
from ibpcheck.topology import IBP_FREE, NOT_IBP_FREE, decide_ibp_free

from conftest import (
    chain_with_gadget_middle,
    cycle_graph,
    doubled_series_pairs_in_parallel,
    k4_three_terminals,
    random_affine_game,
    random_sli_chain_game,
    seeded_start,
    triangle_two_od,
    two_parallel_pairs_in_series,
)
from oracles import (
    check_series_decomposition,
    is_linearly_independent,
    is_series_parallel_by_definition,
    lift_by_replay,
)


def _report(number: int, description: str, started: float, limit: float) -> None:
    elapsed = time.monotonic() - started
    assert elapsed < limit, f"criterion {number} took {elapsed:.2f}s (limit {limit}s)"
    print(f"ACCEPTANCE {number} PASS ({elapsed:.2f}s): {description}")


def test_criterion_1_gadget_reproduction():
    started = time.monotonic()
    summary = run_demo()
    for variant in ("origin", "destination"):
        data = summary[variant]
        assert data["before"] == pytest.approx(47.0, abs=1e-6)
        assert data["after"] == pytest.approx(48.0, abs=1e-6)
        assert data["type1_flows"][("e2", "e4")] == pytest.approx(3.0, abs=1e-6)
        assert data["type1_flows"][("e2", "e3")] == pytest.approx(2.0, abs=1e-6)
        assert sorted(data["type2_flows"].values()) == pytest.approx(
            [1.0, 4.0], abs=1e-6
        )
    _report(1, "demo reproduces 47 -> 48 with the published splits", started, 1.0)


def test_criterion_2_classification_ground_truth():
    started = time.monotonic()

    t0 = time.monotonic()
    assert decide_ibp_free(gadget_graph()).verdict == NOT_IBP_FREE
    assert time.monotonic() - t0 < 1.0

    t0 = time.monotonic()
    assert decide_ibp_free(triangle_two_od()).verdict == IBP_FREE
    assert time.monotonic() - t0 < 1.0

    t0 = time.monotonic()
    g = two_parallel_pairs_in_series()
    cls = decide_ibp_free(g).per_od[0]
    assert cls.is_sli and not cls.is_li
    assert not is_linearly_independent(g, None, *g.od_pairs[0])
    assert time.monotonic() - t0 < 1.0

    t0 = time.monotonic()
    g = doubled_series_pairs_in_parallel()
    cls = decide_ibp_free(g).per_od[0]
    assert cls.is_sp and not cls.is_sli
    assert is_series_parallel_by_definition(g, None, *g.od_pairs[0])
    assert time.monotonic() - t0 < 1.0

    _report(2, "gadget/cycle/SLI/SP fixtures classify as published", started, 5.0)


def test_criterion_3_constructive_necessity():
    started = time.monotonic()
    for graph in (gadget_graph(), k4_three_terminals(), chain_with_gadget_middle()):
        witness = synthesize_ibp_witness(graph)
        verdict = check_ibp(witness)
        assert verdict.margin > 1e-4
    _report(3, "synthesized witnesses all have margin > 1e-4", started, 5.0)


def test_criterion_4_cycle_immunity():
    started = time.monotonic()
    surviving = 0
    for n in (2, 3, 4, 5):
        cycle = cycle_graph(2 * n, [(f"c{i}", f"c{i + n}") for i in range(n)])
        outcome = random_search_ibp(
            cycle, trials=1000, seed=20240 + n, stop_at_first=False
        )
        assert outcome.trials_run == 1000
        for trial, candidate in outcome.hits:
            verdict = check_ibp(candidate, backend="exact")
            if not verdict.occurs:
                continue  # solver disagreement; candidate already refuted
            diagnostics = cycle_diagnostics(
                candidate, verdict.before_result, verdict.after_result
            )
            if not diagnostics.refutes_ibp:
                surviving += 1
    assert surviving == 0
    _report(4, "4000 seeded trials on cycles produce no surviving witness", started, 60.0)


def test_criterion_5_solver_soundness():
    started = time.monotonic()
    rng = random.Random(50505)
    for _ in range(50):
        game = random_affine_game(rng)
        exact = solve_icwe(game, backend="exact")
        cg = solve_icwe(game, backend="cg")
        for eid in game.graph.edge_ids:
            latency = game.latencies[eid]
            assert (
                abs(
                    latency(exact.edge_flows.get(eid, 0.0))
                    - latency(cg.edge_flows.get(eid, 0.0))
                )
                <= 1e-6
            )
        assert verify_wardrop(game, cg, epsilon=1e-8).passed
        assert verify_wardrop(game, exact, epsilon=1e-8).passed
    _report(5, "cg equals exact on 50 affine games; wardrop passes at 1e-8", started, 60.0)


def test_criterion_6_essential_uniqueness():
    started = time.monotonic()
    rng = random.Random(60606)
    for _ in range(20):
        game = random_affine_game(rng)
        results = [
            solve_icwe(game, backend="cg", start=seeded_start(game, s))
            for s in (None, 1, 2, 3, 4)
        ]
        for eid in game.graph.edge_ids:
            latency = game.latencies[eid]
            values = [latency(r.edge_flows.get(eid, 0.0)) for r in results]
            assert max(values) - min(values) <= 1e-5
    _report(6, "edge latencies agree across 5 starts on 20 games", started, 60.0)


def test_criterion_7_series_decomposition():
    started = time.monotonic()
    rng = random.Random(70707)
    for _ in range(10):
        game = random_sli_chain_game(rng)
        result = solve_icwe(game)
        decomposition = decompose_blocks(game.graph)
        assert check_series_decomposition(
            game, result, decomposition, tolerance=1e-6
        )
    _report(7, "global latency equals block-local sums on 10 chain games", started, 30.0)


def _lift_corpus():
    """Ten (target, steps, source) pairs exercising deletions and contractions."""
    corpus = []
    for variant in GadgetVariant:
        source = gadget_instance(variant)
        g = source.game.graph
        corpus.append((g, [], source))
        subdivided = MultiGraph(
            list(g.vertices) + ["m"],
            [e for e in g.edges if e[0] != "e2"]
            + [("e2a", "u", "m"), ("e2b", "m", "w")],
            g.od_pairs,
        )
        corpus.append((subdivided, [EmbeddingStep.contract("e2a", "u")], source))
        corpus.append((subdivided, [EmbeddingStep.contract("e2b", "w")], source))
        chorded = MultiGraph(
            g.vertices, list(g.edges) + [("x1", "u", "v")], g.od_pairs
        )
        corpus.append((chorded, [EmbeddingStep.delete("x1")], source))
        both = MultiGraph(
            subdivided.vertices,
            list(subdivided.edges) + [("x2", "u", "w")],
            g.od_pairs,
        )
        corpus.append(
            (both, [EmbeddingStep.delete("x2"), EmbeddingStep.contract("e2a", "u")], source)
        )
    return corpus


def test_criterion_8_lift_soundness():
    started = time.monotonic()
    corpus = _lift_corpus()
    assert len(corpus) == 10
    for target, steps, source in corpus:
        source_verdict = check_ibp(source)
        lifted = lift_by_replay(target, steps, source)
        verdict = check_ibp(lifted)
        assert verdict.occurs == source_verdict.occurs
        assert abs(verdict.margin - source_verdict.margin) <= 1e-6
    _report(8, "10 lifted instances preserve occurrence and margin", started, 10.0)
