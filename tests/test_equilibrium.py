import hashlib
import math
import os
import random
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from ibpcheck import paradox
from ibpcheck.core_graph import MultiGraph, decompose_blocks
from ibpcheck.equilibrium import (
    CONSERVATION_EPS,
    DEFAULT_MAX_ITERATIONS,
    DEFAULT_TOLERANCE,
    FLOW_EPS,
    PIVOTS,
    EquilibriumResult,
    LatencyFunction,
    RoutingGame,
    TravelerType,
    WardropReport,
    feasible_paths,
    solve_icwe,
    verify_wardrop,
    _CostCore,
    _line_search,
    _solve_support,
)
from ibpcheck.errors import (
    BackendUnavailable,
    DidNotConverge,
    InvalidNetwork,
    NoFeasiblePath,
)
from ibpcheck.instance_io import load_instance

from conftest import (
    FIXTURE_STEMS,
    GRID_LATENCY_DEGREES,
    chain_with_gadget_middle,
    cycle_graph,
    gadget_game,
    gadget_multigraph,
    k4_three_terminals,
    long_path_game,
    pigou_game,
    random_affine_game,
    random_grid_game,
    random_sli_chain_game,
    seeded_start,
)
from oracles import (
    beckmann_potential,
    block_local_game,
    check_series_decomposition,
    equal_cost_terms,
    latency_integral,
    solve_by_full_sweeps,
    total_rate,
)


# -- latency functions -------------------------------------------------------


def test_negative_coefficients_rejected():
    with pytest.raises(InvalidNetwork):
        LatencyFunction((1.0, -0.5))


def test_zero_latency_allowed_and_evaluates():
    z = LatencyFunction.zero()
    assert z(3.7) == 0.0
    assert latency_integral(z, 3.7) == 0.0


def test_polynomial_evaluation_and_integral():
    lat = LatencyFunction((1.0, 2.0, 3.0))  # 1 + 2x + 3x^2
    assert lat(2.0) == 1 + 4 + 12
    assert latency_integral(lat, 2.0) == pytest.approx(2 + 4 + 8)


# -- feasible paths -----------------------------------------------------------


def test_gadget_type1_has_one_path_before_extension():
    game = gadget_game()
    assert feasible_paths(game, 0) == (("e2", "e3"),)


def test_gadget_type1_has_two_paths_after_extension():
    game = gadget_game(extended=True)
    assert feasible_paths(game, 0) == (("e2", "e3"), ("e2", "e4"))


def test_rate_zero_dummy_with_empty_info_is_fine():
    game = gadget_game()
    dummy = RoutingGame(
        game.graph, game.latencies, list(game.types) + [TravelerType(0.0, 0, ())]
    )
    assert feasible_paths(dummy, 2) == ()


def test_positive_rate_without_path_raises():
    game = gadget_game()
    broken = RoutingGame(
        game.graph, game.latencies, [TravelerType(1.0, 0, {"e2"})]
    )
    with pytest.raises(NoFeasiblePath):
        feasible_paths(broken, 0)


def test_a_bare_string_info_set_is_rejected():
    # with one-letter edge ids, "bc" read as its characters is a real o-d path
    g = MultiGraph(
        ["o", "m", "d"], [("a", "o", "d"), ("b", "o", "m"), ("c", "m", "d")], [("o", "d")]
    )
    for info in ("bc", "b", ""):
        with pytest.raises(InvalidNetwork, match="collection of edge ids"):
            TravelerType(1.0, 0, info)
    latencies = {eid: LatencyFunction((1.0,)) for eid in g.edge_ids}
    game = RoutingGame(g, latencies, [TravelerType(1.0, 0, ("b", "c"))])
    assert solve_icwe(game).path_flows[0] == {("b", "c"): 1.0}


# -- potential ------------------------------------------------------------------


def _simpson(fn, hi, n=2000):
    if hi == 0:
        return 0.0
    h = hi / n
    total = fn(0) + fn(hi)
    for k in range(1, n):
        total += fn(k * h) * (4 if k % 2 else 2)
    return total * h / 3


def test_potential_zero_flow():
    assert beckmann_potential(gadget_game(), {}) == 0.0


def test_potential_single_edge_linear():
    g = MultiGraph(["s", "t"], [("e", "s", "t")], [("s", "t")])
    game = RoutingGame(g, {"e": LatencyFunction((0.0, 1.0))}, [TravelerType(2.0, 0, {"e"})])
    assert beckmann_potential(game, {"e": 2.0}) == pytest.approx(2.0)


def test_potential_matches_quadrature_on_gadget_flows():
    game = gadget_game()
    flows = {"e1": 5.0, "e2": 5.0, "e3": 5.0, "e4": 5.0}
    expected = sum(
        _simpson(game.latencies[eid], flows[eid]) for eid in sorted(flows)
    )
    assert beckmann_potential(game, flows) == pytest.approx(expected, abs=1e-9)


# -- solving ----------------------------------------------------------------------


@pytest.mark.parametrize("backend", ["exact", "cg"])
def test_pigou_routes_everything_on_the_congestible_edge(backend):
    result = solve_icwe(pigou_game(), backend=backend)
    assert result.edge_flows.get("fast", 0.0) == pytest.approx(1.0, abs=1e-9)
    assert result.edge_flows.get("flat", 0.0) == pytest.approx(0.0, abs=1e-9)
    assert result.type_latencies[0] == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("variant", ["origin", "destination"])
@pytest.mark.parametrize("backend", ["exact", "cg"])
def test_gadget_pre_extension_latency_is_47(variant, backend):
    result = solve_icwe(gadget_game(variant), backend=backend)
    assert result.type_latencies[0] == pytest.approx(47.0, abs=1e-6)
    assert result.max_wardrop_violation <= 1e-8


def test_gadget_pre_extension_edge_flows_variant_a():
    result = solve_icwe(gadget_game("origin"), backend="exact")
    for eid in ("e1", "e2", "e3", "e4"):
        assert result.edge_flows.get(eid, 0.0) == pytest.approx(5.0, abs=1e-9)


@pytest.mark.parametrize("variant", ["origin", "destination"])
@pytest.mark.parametrize("backend", ["exact", "cg"])
def test_gadget_post_extension_latency_is_48_with_paper_splits(variant, backend):
    game = gadget_game(variant, extended=True)
    result = solve_icwe(game, backend=backend)
    assert result.type_latencies[0] == pytest.approx(48.0, abs=1e-6)
    type1 = result.path_flows[0]
    assert type1[("e2", "e3")] == pytest.approx(2.0, abs=1e-6)
    assert type1[("e2", "e4")] == pytest.approx(3.0, abs=1e-6)
    type2 = sorted(result.path_flows[1].values())
    assert type2 == pytest.approx([1.0, 4.0], abs=1e-6)


def test_rate_zero_type_gets_latency_zero():
    game = gadget_game()
    padded = RoutingGame(
        game.graph, game.latencies, list(game.types) + [TravelerType(0.0, 0, ())]
    )
    result = solve_icwe(padded)
    assert result.type_latencies[2] == 0.0


@pytest.mark.parametrize("seed", [0, 1, 3])
def test_type_spread_below_flow_eps_is_skipped_in_sweeps(seed):
    g = MultiGraph(["s", "t"], [("a", "s", "t"), ("b", "s", "t"), ("c", "s", "t")], [("s", "t")])
    latencies = {
        "a": LatencyFunction((0.0, 1.0)),
        "b": LatencyFunction((1.0, 1.0)),
        "c": LatencyFunction((2.0, 1.0)),
    }
    everything = {"a", "b", "c"}
    game = RoutingGame(
        g, latencies, [TravelerType(1.0, 0, everything), TravelerType(2e-9, 0, everything)]
    )
    result = solve_icwe(game, backend="cg", start=seeded_start(game, seed))
    assert verify_wardrop(game, result).passed


def _tiny_rate_game():
    """One type with rate 2e-9, below FLOW_EPS per path, on links x, 1+x, 2+x."""
    g = MultiGraph(["s", "t"], [("a", "s", "t"), ("b", "s", "t"), ("c", "s", "t")], [("s", "t")])
    latencies = {
        "a": LatencyFunction((0.0, 1.0)),
        "b": LatencyFunction((1.0, 1.0)),
        "c": LatencyFunction((2.0, 1.0)),
    }
    return RoutingGame(g, latencies, [TravelerType(2e-9, 0, {"a", "b", "c"})])


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_tiny_rate_spread_by_a_seeded_start_still_moves_to_the_cheapest_link(seed):
    game = _tiny_rate_game()
    result = solve_icwe(game, backend="cg", start=seeded_start(game, seed))
    assert list(result.path_flows[0]) == [("a",)]
    assert result.path_flows[0][("a",)] == pytest.approx(2e-9, rel=1e-12)
    assert result.type_latencies[0] == pytest.approx(2e-9, rel=1e-12)
    assert result.iterations > 0
    assert verify_wardrop(game, result).passed


@pytest.mark.parametrize("seed", [None, 0, 1, 2, 3, 4])
def test_tiny_rate_auto_polishes_onto_the_cheapest_link(seed):
    # rate 2e-9 on three paths: the used-path floor is 0, not FLOW_EPS
    game = _tiny_rate_game()
    result = solve_icwe(game, start=seeded_start(game, seed))
    assert result.backend == "exact"
    assert list(result.path_flows[0]) == [("a",)]
    assert result.path_flows[0][("a",)] == pytest.approx(2e-9, rel=1e-12)
    assert result.type_latencies[0] == pytest.approx(2e-9, rel=1e-12)
    assert verify_wardrop(game, result).passed


ABSOLUTE_GAP = pytest.mark.xfail(
    strict=True,
    reason="the absolute Wardrop gap accepts the tiny rate all on link a (gap 2e-9)",
)


@pytest.mark.parametrize("seed", [pytest.param(None, marks=ABSOLUTE_GAP), 0, 1, 3])
def test_tiny_rate_next_to_a_unit_rate_auto_finds_the_rational_equilibrium(seed):
    g = MultiGraph(["s", "t"], [("a", "s", "t"), ("b", "s", "t"), ("c", "s", "t")], [("s", "t")])
    latencies = {
        "a": LatencyFunction((0.0, 1.0)),
        "b": LatencyFunction((1.0, 1.0)),
        "c": LatencyFunction((2.0, 1.0)),
    }
    everything = {"a", "b", "c"}
    game = RoutingGame(
        g, latencies, [TravelerType(1.0, 0, everything), TravelerType(2e-9, 0, everything)]
    )
    auto = solve_icwe(game, start=seeded_start(game, seed))
    assert auto.backend == "exact"
    # links a and b carry 1 + r/2 and r/2 for the tiny rate r; the
    # enumerator accepts everything on a, within its absolute gap
    half = Fraction(2e-9) / 2
    want = {"a": 1 + half, "b": 1 + half, "c": Fraction(2)}
    for eid, latency in want.items():
        got = game.latencies[eid](auto.edge_flows.get(eid, 0.0))
        assert abs(Fraction(got) - latency) <= 1e-15
    assert verify_wardrop(game, auto).passed


def test_tiny_rate_flow_left_on_a_costlier_link_fails_wardrop_check():
    game = _tiny_rate_game()
    for flows in (
        {("a",): 1.125e-9, ("c",): 8.75e-10},  # one path above FLOW_EPS
        {("a",): 1.5e-10, ("b",): 9.75e-10, ("c",): 8.75e-10},  # none above it
    ):
        bad = EquilibriumResult(
            path_flows=(flows,),
            edge_flows={},
            type_latencies=(0.0,),
            max_wardrop_violation=0.0,
            backend="hand",
            iterations=0,
        )
        report = verify_wardrop(game, bad)
        assert not report.passed
        worst_gap = 2.0 + 8.75e-10 - flows[("a",)]  # link c against link a
        assert report.max_violation == pytest.approx(worst_gap, rel=1e-12)


def _quadratic_two_link_game():
    """Rate 2 on links x^2 and 2: the equilibrium sends sqrt(2) on the first."""
    g = MultiGraph(["s", "t"], [("e", "s", "t"), ("f", "s", "t")], [("s", "t")])
    return RoutingGame(
        g,
        {"e": LatencyFunction((0.0, 0.0, 1.0)), "f": LatencyFunction((2.0,))},
        [TravelerType(2.0, 0, {"e", "f"})],
    )


def test_exact_backend_rejects_nonaffine():
    with pytest.raises(BackendUnavailable):
        solve_icwe(_quadratic_two_link_game(), backend="exact")


def test_cg_handles_quadratic_latency():
    result = solve_icwe(_quadratic_two_link_game(), backend="cg")
    assert result.edge_flows["e"] == pytest.approx(math.sqrt(2.0), abs=1e-6)
    assert result.type_latencies[0] == pytest.approx(2.0, abs=1e-6)


def test_auto_polishes_the_quadratic_two_link_game():
    game = _quadratic_two_link_game()
    result = solve_icwe(game)
    assert result.backend == "exact"
    assert result.edge_flows["e"] == pytest.approx(math.sqrt(2.0), abs=1e-12)
    assert result.type_latencies[0] == pytest.approx(2.0, abs=1e-12)
    assert verify_wardrop(game, result).passed


@pytest.mark.parametrize("backend", ["auto", "cg", "exact"])
@pytest.mark.parametrize("tolerance", [math.nan, -1.0, math.inf])
def test_tolerance_must_be_finite_and_nonnegative(backend, tolerance):
    with pytest.raises(ValueError, match="tolerance"):
        solve_icwe(pigou_game(), tolerance=tolerance, backend=backend)


def test_zero_tolerance_is_allowed():
    assert verify_wardrop(pigou_game(), solve_icwe(pigou_game(), tolerance=0.0)).passed


def test_did_not_converge_when_no_iterations_allowed():
    with pytest.raises(DidNotConverge):
        solve_icwe(gadget_game(extended=True), backend="cg", max_iterations=0)


@pytest.mark.parametrize("backend", ["auto", "cg", "exact"])
def test_negative_iteration_budget_is_a_value_error(backend):
    with pytest.raises(ValueError, match="max_iterations"):
        solve_icwe(pigou_game(), max_iterations=-1, backend=backend)


def _grid_games(seed, per_degree=2, **kwargs):
    rng = random.Random(seed)
    return [
        random_grid_game(rng, degree, **kwargs)
        for degree in GRID_LATENCY_DEGREES
        for _ in range(per_degree)
    ]


def _edge_sums(path_flows):
    sums = {}
    for flows in path_flows:
        for path, amount in flows.items():
            for eid in path:
                sums[eid] = sums.get(eid, 0.0) + amount
    return sums


def test_cg_reported_violation_matches_the_independent_check_on_grids():
    rng = random.Random(2718)
    sparse = [random_grid_game(rng, 1, sparse=True) for _ in range(4)]
    solves = [(game, "cg") for game in _grid_games(3407)]
    solves += [(game, "exact") for game in sparse]
    for game, backend in solves:
        result = solve_icwe(game, backend=backend)
        assert result.backend == backend
        report = verify_wardrop(game, result, epsilon=DEFAULT_TOLERANCE)
        assert report.passed
        assert result.max_wardrop_violation == pytest.approx(
            report.max_violation, rel=1e-12, abs=0.0
        )
        # what the cost core relies on: results read edge sums rebuilt from
        # scratch, and a type's latency is its cheapest used path
        assert result.edge_flows == _edge_sums(result.path_flows)
        for j, flows in enumerate(result.path_flows):
            used = [p for p, x in flows.items() if x > FLOW_EPS]
            assert result.type_latencies[j] == min(
                game.path_latency(p, result.edge_flows) for p in used
            )


def test_same_start_seed_gives_identical_flows_on_grids():
    for game in _grid_games(5113, per_degree=1):
        first = solve_icwe(game, backend="cg", start=seeded_start(game, 17))
        second = solve_icwe(game, backend="cg", start=seeded_start(game, 17))
        assert [list(f.items()) for f in first.path_flows] == [
            list(f.items()) for f in second.path_flows
        ]


def test_did_not_converge_without_iterations_on_grids():
    for game in _grid_games(2029, per_degree=1):
        with pytest.raises(DidNotConverge) as info:
            solve_icwe(game, backend="cg", max_iterations=0)
        assert info.value.violation > DEFAULT_TOLERANCE


def test_backends_agree_on_sparse_affine_grids():
    rng = random.Random(7321)
    for _ in range(3):
        game = random_grid_game(rng, 1, sparse=True)
        exact = solve_icwe(game, backend="exact")
        cg = solve_icwe(game, backend="cg")
        for eid in game.graph.edge_ids:
            le = game.latencies[eid](exact.edge_flows.get(eid, 0.0))
            lc = game.latencies[eid](cg.edge_flows.get(eid, 0.0))
            assert abs(le - lc) <= 1e-6


# -- starts -----------------------------------------------------------------------------


def _gadget_start(type0):
    """A start for the gadget game: type 0's flows as given, type 1 split 1/4."""
    return (type0, {("e1", "e4"): 1.0, ("e2",): 4.0})


@pytest.mark.parametrize("backend", ["auto", "cg"])
@pytest.mark.parametrize(
    "start, match",
    [
        # e4 is outside type 0's information set before the extension
        (_gadget_start({("e2", "e3"): 3.0, ("e2", "e4"): 2.0}), "not feasible"),
        (_gadget_start({("e2", "e3"): 6.0, ("e1",): -1.0}), "not feasible"),
        (({("e2", "e3"): 5.0}, {("e1", "e4"): 6.0, ("e2",): -1.0}), "finite and >= 0"),
        (({("e2", "e3"): 5.0}, {("e1", "e4"): math.nan, ("e2",): 5.0}), "finite and >= 0"),
        (_gadget_start({("e2", "e3"): 5.0 + 2 * CONSERVATION_EPS}), "sum to"),
        (_gadget_start({("e2", "e3"): 5.0 - 2 * CONSERVATION_EPS}), "sum to"),
        (_gadget_start({}), "sum to"),
        (({("e2", "e3"): 5.0},), "for 1 types, the game has 2"),
        ((), "for 0 types, the game has 2"),
    ],
)
def test_an_infeasible_start_is_a_value_error(start, match, backend):
    with pytest.raises(ValueError, match=match):
        solve_icwe(gadget_game(), backend=backend, start=start)


def test_a_start_within_the_conservation_bound_is_taken_as_given():
    game = gadget_game()
    start = _gadget_start({("e2", "e3"): 5.0 + 0.5 * CONSERVATION_EPS})
    result = solve_icwe(game, backend="cg", start=start)
    assert result.type_latencies[0] == pytest.approx(47.0, abs=1e-6)
    assert result.path_flows[0] == {("e2", "e3"): 5.0 + 0.5 * CONSERVATION_EPS}
    assert verify_wardrop(game, result).passed


def test_a_start_that_uses_no_path_of_an_active_type_is_a_value_error():
    # rate 2.5e-9 on two links: the used-path floor is FLOW_EPS, and both
    # start flows sit at it, within the conservation bound of the rate
    g = MultiGraph(["s", "t"], [("a", "s", "t"), ("b", "s", "t")], [("s", "t")])
    latencies = {"a": LatencyFunction((0.0, 1.0)), "b": LatencyFunction((1.0, 1.0))}
    game = RoutingGame(g, latencies, [TravelerType(2.5e-9, 0, {"a", "b"})])
    with pytest.raises(ValueError, match="use no path"):
        solve_icwe(game, backend="cg", start=({("a",): FLOW_EPS, ("b",): FLOW_EPS},))


@pytest.mark.parametrize("backend", ["auto", "cg"])
def test_an_inactive_type_keeps_no_flow_from_its_start(backend):
    g = MultiGraph(["s", "t"], [("a", "s", "t"), ("b", "s", "t")], [("s", "t")])
    latencies = {"a": LatencyFunction((0.0, 1.0)), "b": LatencyFunction((1.0, 1.0))}
    everything = {"a", "b"}
    game = RoutingGame(
        g, latencies, [TravelerType(1.0, 0, everything), TravelerType(5e-10, 0, everything)]
    )
    start = ({("a",): 0.5, ("b",): 0.5}, {("b",): 5e-10})
    result = solve_icwe(game, backend=backend, start=start)
    assert result.path_flows[1] == {}
    assert result.type_latencies[1] == 0.0
    assert result.path_flows[0] == {("a",): pytest.approx(1.0, abs=1e-9)}


def test_a_start_at_the_equilibrium_needs_no_sweep():
    for variant in ("origin", "destination"):
        game = gadget_game(variant, extended=True)
        cold = solve_icwe(game, backend="cg")
        assert cold.iterations > 0
        warm = solve_icwe(game, backend="cg", start=cold.path_flows)
        assert warm.iterations == 0
        assert warm.path_flows == cold.path_flows
        assert warm.type_latencies == cold.type_latencies


def test_paths_given_zero_flow_are_left_out():
    game = gadget_game()
    # the equilibrium: type 1 entirely on e1-e4, every edge at flow 5
    start = ({("e2", "e3"): 5.0}, {("e2",): 0.0, ("e1", "e4"): 5.0})
    result = solve_icwe(game, backend="cg", max_iterations=0, start=start)
    assert result.path_flows[1] == {("e1", "e4"): 5.0}


def test_exact_ignores_the_start():
    rng = random.Random(4242)
    games = [gadget_game(v, e) for v in ("origin", "destination") for e in (False, True)]
    games += [random_affine_game(rng) for _ in range(5)]
    for game in games:
        cold = repr(solve_icwe(game, backend="exact"))
        assert repr(solve_icwe(game, backend="exact", start=seeded_start(game, 3))) == cold
        # not even read: an infeasible start changes nothing either
        assert repr(solve_icwe(game, backend="exact", start=())) == cold


# -- line search ------------------------------------------------------------------------


def _line_search_shift(game, edge_flows, source, target, gamma_max):
    """Reference line search: binomial expansion of the move's potential
    derivative around the current flows, then 100 bisection steps."""
    gain = set(target) - set(source)
    drop = set(source) - set(target)
    deriv = [0.0]  # coefficients of dPhi/dgamma

    def accumulate(coeffs, f, s, sign):
        # sign * latency(f + s * gamma), expanded in powers of gamma
        for m, c in enumerate(coeffs):
            if c == 0.0:
                continue
            if m >= len(deriv):
                deriv.extend([0.0] * (m - len(deriv) + 1))
            for k in range(m + 1):
                deriv[k] += sign * c * math.comb(m, k) * f ** (m - k) * s**k

    for eid in gain:
        accumulate(game.latencies[eid].coefficients, edge_flows.get(eid, 0.0), 1.0, 1.0)
    for eid in drop:
        accumulate(game.latencies[eid].coefficients, edge_flows.get(eid, 0.0), -1.0, -1.0)

    def value(x):
        acc = 0.0
        for c in reversed(deriv):
            acc = acc * x + c
        return acc

    if deriv[0] >= 0.0:
        return 0.0
    if value(gamma_max) <= 0.0:
        return gamma_max
    if all(c == 0.0 for c in deriv[2:]):  # affine: exact crossing
        return min(max(-deriv[0] / deriv[1], 0.0), gamma_max)
    lo, hi = 0.0, gamma_max
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if value(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _exact_root(game, edge_flows, source, target, gamma_max):
    """The move's optimal shift in rational arithmetic, to 2**-90 gamma_max."""

    def g(gamma):
        total = Fraction(0)
        moves = ((set(target) - set(source), 1), (set(source) - set(target), -1))
        for eids, sign in moves:
            for eid in eids:
                x = Fraction(edge_flows[eid]) + sign * gamma
                acc = Fraction(0)
                for c in reversed(game.latencies[eid].coefficients):
                    acc = acc * x + Fraction(c)
                total += sign * acc
        return total

    lo, hi = Fraction(0), Fraction(gamma_max)
    if g(lo) >= 0:
        return 0.0
    if g(hi) <= 0:
        return gamma_max
    for _ in range(90):
        mid = (lo + hi) / 2
        if g(mid) < 0:
            lo = mid
        else:
            hi = mid
    return float(lo)


def _random_move(rng):
    """Random source/target paths over parallel edges, possibly sharing some."""
    degree = rng.randint(1, 4)
    eids = [f"e{i}" for i in range(rng.randint(2, 7))]
    latencies = {}
    for eid in eids:
        coeffs = [rng.uniform(0.0, 10.0) for _ in range(rng.randint(0, degree) + 1)]
        latencies[eid] = LatencyFunction([c if rng.random() < 0.7 else 0.0 for c in coeffs])
    graph = MultiGraph(["s", "t"], [(eid, "s", "t") for eid in eids], [("s", "t")])
    game = RoutingGame(graph, latencies, [])
    rng.shuffle(eids)
    split = rng.randint(1, len(eids) - 1)
    shared = [eid for eid in eids if rng.random() < 0.2]
    target = tuple(eids[:split] + [e for e in shared if e not in eids[:split]])
    source = tuple(eids[split:] + [e for e in shared if e in eids[:split]])
    gamma_max = 10 ** rng.uniform(-9.0, 3.0)
    edge_flows = {
        eid: 0.0 if rng.random() < 0.1 else 10 ** rng.uniform(-3.0, 4.0) for eid in eids
    }
    for eid in source:  # source edges carry at least the source path's flow
        edge_flows[eid] = max(edge_flows[eid], gamma_max)
    return game, edge_flows, source, target, gamma_max


def test_line_search_matches_the_bisection_oracle():
    rng = random.Random(1994)
    for _ in range(2000):
        game, edge_flows, source, target, gamma_max = _random_move(rng)
        lat = game.latencies

        def edges(eids):
            return [(lat[e].coefficients[: lat[e].degree + 1], edge_flows[e]) for e in eids]

        gain, drop = set(target) - set(source), set(source) - set(target)
        slope = sum(lat[e](edge_flows[e]) for e in gain) - sum(
            lat[e](edge_flows[e]) for e in drop
        )
        got = _line_search(edges(gain), edges(drop), slope, gamma_max)
        want = _line_search_shift(game, edge_flows, source, target, gamma_max)
        bound = 1e-12 * max(1.0, gamma_max)
        if abs(got - want) > bound:
            # The oracle expands around f and cancels catastrophically when
            # f - gamma is near 0; exact arithmetic decides who is right.
            exact = _exact_root(game, edge_flows, source, target, gamma_max)
            assert abs(got - exact) <= bound < abs(want - exact)


# -- verification -------------------------------------------------------------------


def test_solver_output_passes_wardrop_check():
    game = gadget_game("origin", extended=True)
    result = solve_icwe(game)
    report = verify_wardrop(game, result, epsilon=1e-6)
    assert report.passed


def test_hand_built_bad_flow_fails_wardrop_check():
    from ibpcheck.equilibrium import EquilibriumResult

    game = gadget_game("origin")
    bad = EquilibriumResult(
        path_flows=({("e2", "e3"): 5.0}, {("e2",): 5.0}),
        edge_flows={},
        type_latencies=(0.0, 0.0),
        max_wardrop_violation=0.0,
        backend="hand",
        iterations=0,
    )
    report = verify_wardrop(game, bad, epsilon=1e-6)
    assert not report.passed
    assert report.max_violation == pytest.approx(30.0)


@pytest.mark.parametrize("excess", [2 * CONSERVATION_EPS, -2 * CONSERVATION_EPS])
def test_flows_that_miss_the_rate_fail_wardrop_check(excess):
    game = gadget_game("origin", extended=True)
    result = solve_icwe(game)
    assert verify_wardrop(game, result).passed
    flows = list(result.path_flows)
    path, amount = max(flows[1].items())
    flows[1] = {**flows[1], path: amount + excess}
    report = verify_wardrop(game, replace(result, path_flows=tuple(flows)))
    assert report.max_violation <= DEFAULT_TOLERANCE  # only conservation fails
    assert not report.passed


def _gadget_with_type_2_at(rate):
    game = gadget_game()
    first, second = game.types
    return RoutingGame(
        game.graph, game.latencies, (first, TravelerType(rate, second.od_index, second.info_set))
    )


@pytest.mark.parametrize("backend", ["cg", "auto"])
def test_a_large_rate_equilibrium_passes_the_wardrop_check(backend):
    """At rate 1e12 type 2's two flows sum to one ulp under the rate."""
    game = _gadget_with_type_2_at(1e12)
    result = solve_icwe(game, backend=backend)
    assert 0 < 1e12 - sum(result.path_flows[1].values()) <= math.ulp(1e12)
    assert verify_wardrop(game, result) == WardropReport(max_violation=0.0, passed=True)


@pytest.mark.parametrize(
    "ulps, passed", [(-3, True), (1, True), (-4, False), (2, False), (10_000, False)]
)
def test_a_large_rate_sum_off_by_more_than_rounding_fails_the_wardrop_check(ulps, passed):
    """The 1e12 equilibrium's two flows sum to one ulp under 1e12.  Checked
    against a rate `ulps` ulps off 1e12, they may miss it by two ulps of
    rounding and by no more."""
    result = solve_icwe(_gadget_with_type_2_at(1e12))
    report = verify_wardrop(_gadget_with_type_2_at(1e12 + ulps * math.ulp(1e12)), result)
    assert report.max_violation <= DEFAULT_TOLERANCE  # only conservation may fail
    assert report.passed == passed


def test_zero_rate_game_with_empty_flow_passes():
    game = gadget_game()
    empty = RoutingGame(
        game.graph, game.latencies, [TravelerType(0.0, 0, ()), TravelerType(0.0, 1, ())]
    )
    result = solve_icwe(empty)
    assert verify_wardrop(empty, result).passed


def test_conservation_is_exact_on_random_games():
    rng = random.Random(42)
    for _ in range(10):
        game = random_affine_game(rng)
        result = solve_icwe(game)
        for j, t in enumerate(game.types):
            assert abs(sum(result.path_flows[j].values()) - t.rate) <= 1e-12


# -- backend agreement and uniqueness (smoke; the acceptance suite scales up) --------


def test_backends_agree_on_random_affine_games():
    rng = random.Random(808)
    for _ in range(15):
        game = random_affine_game(rng)
        exact = solve_icwe(game, backend="exact")
        cg = solve_icwe(game, backend="cg")
        for eid in game.graph.edge_ids:
            le = game.latencies[eid](exact.edge_flows.get(eid, 0.0))
            lc = game.latencies[eid](cg.edge_flows.get(eid, 0.0))
            assert abs(le - lc) <= 1e-6


# -- auto: cg sweeps, then one equal-cost solve on the support they found ----------


def _edge_latency_gap(game, first, second):
    return max(
        abs(lat(first.edge_flows.get(eid, 0.0)) - lat(second.edge_flows.get(eid, 0.0)))
        for eid, lat in game.latencies.items()
    )


def test_auto_agrees_with_exact_on_affine_corpora():
    rng = random.Random(50505)  # criterion 5's games
    games = [random_affine_game(rng) for _ in range(50)]
    rng = random.Random(150)
    games += [random_affine_game(rng) for _ in range(150)]
    for seed, count in ((7321, 3), (2718, 4)):  # the sparse affine grids above
        rng = random.Random(seed)
        games += [random_grid_game(rng, 1, sparse=True) for _ in range(count)]
    for game in games:
        auto = solve_icwe(game)
        exact = solve_icwe(game, backend="exact")
        assert _edge_latency_gap(game, auto, exact) <= 1e-9
        assert verify_wardrop(game, auto, epsilon=1e-8).passed


def test_auto_drops_the_negative_path_of_a_singular_support(monkeypatch):
    # Three types on three parallel links.  The edge flows (7, 3, 6) are
    # unique, the path flows are not: on the support cg ends with, the
    # least-norm solution sends -0.75 along type 1's link g01.  One polish
    # drops that path and solves again.
    import ibpcheck.equilibrium as equilibrium

    g = MultiGraph(["s", "t"], [(e, "s", "t") for e in ("g00", "g01", "g02")], [("s", "t")])
    latencies = {
        "g00": LatencyFunction((2.0, 1.0)),
        "g01": LatencyFunction((3.0, 2.0)),
        "g02": LatencyFunction((3.0, 1.0)),
    }
    types = [
        TravelerType(6.0, 0, {"g01", "g02"}),
        TravelerType(8.0, 0, {"g00", "g01", "g02"}),
        TravelerType(2.0, 0, {"g01"}),
    ]
    game = RoutingGame(g, latencies, types)
    supports = _record_supports(monkeypatch)
    solve_support = equilibrium._solve_support
    polishes = []

    def record(*args):
        polishes.append(args[1])
        return solve_support(*args)

    monkeypatch.setattr(equilibrium, "_solve_support", record)
    result = solve_icwe(game)
    assert result.backend == "exact"
    # one polish, two solves; type 1's paths are g00, g01, g02, and the
    # second solve is without g01
    assert polishes == [((0, 1), (0, 1, 2), (0,))]
    assert supports == [((0, 1), (0, 1, 2), (0,)), ((0, 1), (0, 2), (0,))]
    assert all(x >= 0.0 for flows in result.path_flows for x in flows.values())
    for eid, want in (("g00", 7.0), ("g01", 3.0), ("g02", 6.0)):
        assert result.edge_flows[eid] == pytest.approx(want, abs=1e-12)
    assert result.type_latencies == pytest.approx((9.0, 9.0, 9.0), abs=1e-12)
    assert verify_wardrop(game, result).passed


def test_auto_with_one_path_types_converges_at_the_first_sweep():
    # before the extension type 1 has one path and type 2 two
    game = gadget_game()
    auto = solve_icwe(game)
    assert (auto.backend, auto.iterations) == ("exact", 0)
    assert auto.type_latencies == pytest.approx((47.0, 20.0), abs=1e-12)
    assert _edge_latency_gap(game, auto, solve_icwe(game, backend="exact")) == 0.0


def test_solve_on_a_path_longer_than_the_recursion_limit():
    game = long_path_game(3000)
    assert sys.getrecursionlimit() < 3000
    result = solve_icwe(game)
    assert result.type_latencies == pytest.approx((9000.0,), abs=1e-9)
    assert verify_wardrop(game, result).passed


def test_auto_with_a_one_path_type_next_to_a_contested_one():
    game = gadget_game("destination", extended=True)
    padded = RoutingGame(
        game.graph,
        game.latencies,
        list(game.types) + [TravelerType(3.0, 0, {"e2", "e3"})],  # one path
    )
    auto = solve_icwe(padded)
    exact = solve_icwe(padded, backend="exact")
    assert auto.backend == "exact"
    assert _edge_latency_gap(padded, auto, exact) <= 1e-12
    assert verify_wardrop(padded, auto).passed


@pytest.mark.parametrize("rate", [0.0, 5e-10])
def test_auto_with_no_active_type_returns_empty_flows(rate):
    game = gadget_game()
    idle = RoutingGame(
        game.graph, game.latencies, [TravelerType(rate, 0, {"e2", "e3"}), TravelerType(0.0, 1, ())]
    )
    result = solve_icwe(idle)
    assert (result.backend, result.iterations) == ("exact", 0)
    assert result.path_flows == ({}, {})
    assert result.type_latencies == (0.0, 0.0)
    assert verify_wardrop(idle, result).passed


def test_auto_returns_the_cg_result_when_every_polish_is_rejected(monkeypatch):
    import ibpcheck.equilibrium as equilibrium

    games = [random_grid_game(random.Random(seed), 1) for seed in (11, 12, 13)]
    games += [gadget_game(extended=True), _tiny_rate_game()]
    games += [
        random_grid_game(random.Random(seed), degree)
        for seed, degree in ((14, 2), (15, 2), (16, 4), (17, 4))
    ]
    solve_support = equilibrium._solve_support
    calls = []

    def reject(*args, **kwargs):
        calls.append(solve_support(*args, **kwargs))  # loads its Newton iterates
        return None

    monkeypatch.setattr(equilibrium, "_solve_support", reject)
    for game in games:
        calls.clear()
        auto = solve_icwe(game, start=seeded_start(game, 2))
        assert calls  # every game was polished at least once
        cg = solve_icwe(game, backend="cg", start=seeded_start(game, 2))
        assert repr(auto) == repr(cg)


def test_a_newton_iterate_whose_latency_overflows_is_rejected():
    # From half the equilibrium flow on x^50, the first Newton step lands
    # near 1e13, where the latency overflows: the polish rejects, it does
    # not raise, and the sweeps still find the equilibrium.
    g = MultiGraph(["s", "t"], [("a", "s", "t"), ("b", "s", "t")], [("s", "t")])
    latencies = {"a": LatencyFunction([0.0] * 50 + [1.0]), "b": LatencyFunction((1.0,))}
    game = RoutingGame(g, latencies, [TravelerType(2.0, 0, {"a", "b"})])
    core = _CostCore(game, [feasible_paths(game, 0)])
    core.load([{0: 0.5, 1: 1.5}])
    assert _solve_support(core, [(0, 1)], DEFAULT_TOLERANCE) is None
    result = solve_icwe(game)
    assert result.edge_flows["a"] == pytest.approx(1.0, rel=1e-12)
    assert verify_wardrop(game, result).passed


# -- the active-set polish: pivots on a rejected support ------------------------------


def _parallel_links(coefficients, rate):
    """One type of `rate` on parallel links l0, l1, ... with these latency
    coefficients, and its cost core; path k is link k."""
    ids = [f"l{k}" for k in range(len(coefficients))]
    g = MultiGraph(["s", "t"], [(eid, "s", "t") for eid in ids], [("s", "t")])
    latencies = {eid: LatencyFunction(c) for eid, c in zip(ids, coefficients)}
    game = RoutingGame(g, latencies, [TravelerType(rate, 0, ids)])
    return game, _CostCore(game, [feasible_paths(game, 0)])


def _record_supports(monkeypatch):
    """The supports the equal-cost system is solved on, in order."""
    import ibpcheck.equilibrium as equilibrium

    solve = equilibrium._equal_cost_flows
    supports = []

    def record(core, support, *args):
        supports.append(tuple(map(tuple, support)))
        return solve(core, support, *args)

    monkeypatch.setattr(equilibrium, "_equal_cost_flows", record)
    return supports


@pytest.mark.parametrize("degree, latency", [(1, 1.5), (2, 1.5625)])
def test_the_polish_drops_a_path_the_equilibrium_leaves_empty(degree, latency, monkeypatch):
    # x^d, 1 + x^d and 10 with rate 2: on the held support of all three
    # links the equal costs need a negative flow on the constant link; one
    # pivot drops it and the support {l0, l1} is accepted.
    x_d = (0.0,) * degree + (1.0,)
    game, core = _parallel_links([x_d, (1.0, *x_d[1:]), (10.0,)], 2.0)
    core.load([{0: 0.5, 1: 0.5, 2: 1.0}])
    supports = _record_supports(monkeypatch)
    flows = _solve_support(core, [(0, 1, 2)], DEFAULT_TOLERANCE)
    assert supports == [((0, 1, 2),), ((0, 1),)]
    result = core.result(flows, "exact", 0)
    assert ("l2",) not in result.path_flows[0]
    assert result.type_latencies[0] == pytest.approx(latency, rel=1e-12)
    assert verify_wardrop(game, result).passed


@pytest.mark.parametrize("degree", [1, 2])
def test_the_polish_grows_a_support_that_misses_the_cheapest_path(degree, monkeypatch):
    # x^d, 1 + x^d and 0.5 + x^d with rate 3: on {l0, l1} the equal-cost
    # flows leave l2 cheaper than both; one pivot adds it.
    x_d = (0.0,) * degree + (1.0,)
    game, core = _parallel_links([x_d, (1.0, *x_d[1:]), (0.5, *x_d[1:])], 3.0)
    core.load([{0: 1.5, 1: 1.5}])
    supports = _record_supports(monkeypatch)
    flows = _solve_support(core, [(0, 1)], DEFAULT_TOLERANCE)
    assert supports == [((0, 1),), ((0, 1, 2),)]
    result = core.result(flows, "exact", 0)
    assert verify_wardrop(game, result).passed
    reference = solve_icwe(game, backend="cg", tolerance=1e-12)
    assert _edge_latency_gap(game, result, reference) <= 1e-9


def test_the_polish_rejects_after_pivots_bound(monkeypatch):
    # PIVOTS + 2 equal links 1 + x: from one link, each pivot adds the next,
    # and the last one is never reached
    game, core = _parallel_links([(1.0, 1.0)] * (PIVOTS + 2), PIVOTS + 2.0)
    core.load([{0: PIVOTS + 2.0}])
    supports = _record_supports(monkeypatch)
    assert _solve_support(core, [(0,)], DEFAULT_TOLERANCE) is None
    assert supports == [(tuple(range(size)),) for size in range(1, PIVOTS + 2)]
    assert solve_icwe(game).backend == "exact"  # the sweeps reach every link


def test_auto_returns_the_cg_result_when_no_support_passes_the_gap(monkeypatch):
    # With every gadget latency x 1e4, the extended game's equilibrium
    # support misses the absolute gap by rounding, and no path lies outside
    # it: the polish rejects without pivoting and the sweeps' result returns.
    base = paradox.gadget_instance()
    latencies = {
        eid: LatencyFunction([c * 1e4 for c in fn.coefficients])
        for eid, fn in base.game.latencies.items()
    }
    scaled = RoutingGame(base.game.graph, latencies, base.game.types)
    before = solve_icwe(scaled)
    after = paradox.extended_game(paradox.IBPInstance(scaled, base.extension))
    supports = _record_supports(monkeypatch)
    auto = solve_icwe(after, start=before.path_flows)
    assert supports == [((0, 1), (0, 1))]
    assert repr(auto) == repr(solve_icwe(after, backend="cg", start=before.path_flows))


def _steep_flat_tie_game(slope):
    """ROADMAP item 15's repro: one type of rate 3 from v1 to v2 over
    (g00, g01) at cost 2.5, (g00, g02) at cost 1 and g03 at 1e-12 + slope x;
    its latency is 1 at equilibrium."""
    g = MultiGraph(
        ["v0", "v1", "v2"],
        [("g00", "v1", "v0"), ("g01", "v2", "v0"), ("g02", "v0", "v2"), ("g03", "v2", "v1")],
        [("v1", "v2")],
    )
    latencies = {
        "g00": LatencyFunction((0.0,)),
        "g01": LatencyFunction((2.5,)),
        "g02": LatencyFunction((1.0,)),
        "g03": LatencyFunction((1e-12, slope)),
    }
    return RoutingGame(g, latencies, [TravelerType(3.0, 0, {"g00", "g01", "g02", "g03"})])


def test_the_polish_drops_the_dear_paths_of_a_support_no_flow_solves(monkeypatch):
    # One type of rate 3 from v1 to v2: (g00, g01) costs 2.5, (g00, g02)
    # costs 1, and g03 costs 1e-12 + 1e6 x.  On the support of all three,
    # no flow equalizes the two constant costs.  On the swept table g03
    # costs 2.5 too, so the first pivot keeps (g00, g02) alone; the second
    # adds the then cheaper g03, and that support is accepted at latency 1.
    # The sweeps alone crawl: cg raises after DEFAULT_MAX_ITERATIONS.
    game = _steep_flat_tie_game(1e6)
    supports = _record_supports(monkeypatch)
    auto = solve_icwe(game)
    assert auto.backend == "exact"
    assert auto.type_latencies[0] == pytest.approx(1.0, rel=1e-12)
    assert verify_wardrop(game, auto).passed
    assert supports == [((0, 1, 2),), ((1,),), ((1, 2),)]
    exact = solve_icwe(game, backend="exact")
    assert auto.type_latencies[0] == pytest.approx(exact.type_latencies[0], rel=1e-12)


@pytest.mark.parametrize(
    "slope",
    [pytest.param(10.0**e, id=f"1e{e}") for e in (0, 1, 2, 3, 4, 5, 6, 8, 9)]
    + [
        pytest.param(
            1e7,
            id="1e7",
            marks=pytest.mark.xfail(
                strict=True,
                raises=DidNotConverge,
                reason="ROADMAP item 15: auto stops after DEFAULT_MAX_ITERATIONS "
                "sweeps at gap 1.5, and exact raises SolverError",
            ),
        )
    ],
)
def test_auto_solves_the_steep_flat_tie_across_slopes(slope):
    game = _steep_flat_tie_game(slope)
    auto = solve_icwe(game)
    assert auto.backend == "exact"
    assert auto.type_latencies[0] == pytest.approx(1.0, rel=1e-9)
    assert verify_wardrop(game, auto).passed


# Rejected polishes on the 90 games below: 52 of 142 polishes when a
# rejected support went back to the sweeps, 0 of 90 with the pivots.
def test_the_pivoting_polish_is_accepted_on_grid_corpora(monkeypatch):
    import ibpcheck.equilibrium as equilibrium

    solve_support = equilibrium._solve_support
    polished = []

    def record(*args):
        flows = solve_support(*args)
        polished.append(flows is not None)
        return flows

    monkeypatch.setattr(equilibrium, "_solve_support", record)
    for degree in GRID_LATENCY_DEGREES:
        rng = random.Random(7919 + degree)
        for _ in range(30):
            game = random_grid_game(rng, degree)
            auto = solve_icwe(game)
            assert auto.backend == "exact"
            assert verify_wardrop(game, auto).passed
            reference = solve_icwe(game, backend="cg", tolerance=1e-11)
            for eid, latency in game.latencies.items():
                want = latency(reference.edge_flows.get(eid, 0.0))
                got = latency(auto.edge_flows.get(eid, 0.0))
                assert got == pytest.approx(want, rel=1e-9, abs=0.0)
    assert (len(polished), polished.count(False)) == (90, 0)


def test_auto_polishes_quadratic_and_quartic_grids():
    # Newton's method on the support the sweeps settled on, against cg run
    # to a tighter tolerance
    for degree, seed in ((2, 2022), (4, 4044)):
        rng = random.Random(seed)
        sweeps = {"auto": 0, "cg": 0}
        for _ in range(10):
            game = random_grid_game(rng, degree)
            auto = solve_icwe(game)
            cg = solve_icwe(game, backend="cg")
            reference = solve_icwe(game, backend="cg", tolerance=1e-11)
            assert auto.backend == "exact"
            assert auto.iterations <= cg.iterations
            sweeps["auto"] += auto.iterations
            sweeps["cg"] += cg.iterations
            assert verify_wardrop(game, auto, epsilon=1e-8).passed
            for eid, latency in game.latencies.items():
                want = latency(reference.edge_flows.get(eid, 0.0))
                got = latency(auto.edge_flows.get(eid, 0.0))
                assert got == pytest.approx(want, rel=1e-9, abs=0.0)
        assert 2 * sweeps["auto"] < sweeps["cg"]


def test_equal_cost_system_matches_the_definition():
    rng = random.Random(1618)
    games = [random_grid_game(rng, 1) for _ in range(10)] + [gadget_game(extended=True)]
    for game in games:
        type_paths = [feasible_paths(game, j) for j in range(len(game.types))]
        core = _CostCore(game, type_paths)
        support = [
            sorted(rng.sample(range(len(type_paths[j])), min(3, len(type_paths[j]))))
            for j in core.active
        ]
        paths = [type_paths[j][k] for j, ks in zip(core.active, support) for k in ks]
        const, interact = equal_cost_terms(game, paths)
        a_mat, b_vec = core.equal_cost_system(support)
        n = len(paths)
        np.testing.assert_allclose(a_mat[:n, :n], interact, rtol=1e-12, atol=0)
        np.testing.assert_allclose(-b_vec[:n], const, rtol=1e-12, atol=0)
        assert list(b_vec[n:]) == [game.types[j].rate for j in core.active]


# Solves affine games in a fresh interpreter and prints one repr per result.
_HASH_SEED_SCRIPT = """
import random
from conftest import gadget_game, random_affine_game, random_grid_game
from ibpcheck.equilibrium import solve_icwe

rng = random.Random(2718)
for _ in range(20):
    print(repr(solve_icwe(random_grid_game(rng, 1))))
for variant in ("origin", "destination"):
    for extended in (False, True):
        print(repr(solve_icwe(gadget_game(variant, extended))))
rng = random.Random(2819)
for _ in range(20):
    print(repr(solve_icwe(random_affine_game(rng), backend="exact")))
"""


def test_affine_results_do_not_depend_on_the_hash_seed():
    # edge ids are strings, so any sum taken in set order moves last digits
    # with PYTHONHASHSEED; `auto` and `exact` must give the same floats
    import ibpcheck

    path = os.pathsep.join(
        [str(Path(ibpcheck.__file__).resolve().parent.parent), str(Path(__file__).parent)]
    )
    outputs = [
        subprocess.run(
            [sys.executable, "-c", _HASH_SEED_SCRIPT],
            env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path),
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        for seed in ("0", "7")
    ]
    assert outputs[0].count("EquilibriumResult(") == 44
    assert outputs[0] == outputs[1]


# sha256 of repr(solve_icwe(game, backend="cg")), recorded before `auto` began
# polishing: the sweeps themselves must not move.  From CPython 3.12 on,
# sum() of floats is compensated, which moves last digits.
CG_RESULT_DIGESTS = (
    "e86bd1ef0b3b1fbe",
    "fd3d6f7694ef7ebb",
    "2bfdf6d971c93192",
    "a995948a7efbb3ef",
    "8eb2399504aadf34",
    "4128a19e18e6b123",
    "f931680be9dcca6b",
    "6b8a423be242778b",
    "8d26981e0df0af6b",
    "4e5b553cf33da730",
)


@pytest.mark.skipif(sys.version_info >= (3, 12), reason="sum() of floats changed in 3.12")
def test_cg_results_are_unchanged_on_grid_and_gadget_games():
    games = _grid_games(3407)
    games += [gadget_game(v, e) for v in ("origin", "destination") for e in (False, True)]
    digests = tuple(
        hashlib.sha256(repr(solve_icwe(game, backend="cg")).encode()).hexdigest()[:16]
        for game in games
    )
    assert digests == CG_RESULT_DIGESTS


# sha256 of repr(solve_icwe(game, backend="exact")) on 20 affine games,
# recorded before `auto`'s polish pivoted: the support enumerator solves
# each support without pivoting, so its results must not move.
EXACT_RESULT_DIGESTS = (
    "ac64b3622c1e777d",
    "9297d3a40c242dea",
    "2a08c59ee0a46bd7",
    "4b7ec62b8bcda04b",
    "4c4abf89f56a384c",
    "5ccc443faa6c0d2e",
    "8190f9e4bc89873c",
    "7815eea896edadea",
    "3faae5d5494cea1a",
    "4f840ddee9068da6",
    "57230b199008b2be",
    "8d2d4716b25e8570",
    "7315cadc15b967e3",
    "01db0568adc62cf9",
    "7944162f4a7e7ed5",
    "e1705134b202d529",
    "a40b0340f058eaee",
    "7533010f052d9efe",
    "9b9b10b07f7723b6",
    "4dea39e4527bf01f",
)


@pytest.mark.skipif(sys.version_info >= (3, 12), reason="sum() of floats changed in 3.12")
def test_exact_results_are_unchanged_on_affine_games():
    rng = random.Random(2819)
    digests = tuple(
        hashlib.sha256(
            repr(solve_icwe(random_affine_game(rng), backend="exact")).encode()
        ).hexdigest()[:16]
        for _ in range(20)
    )
    assert digests == EXACT_RESULT_DIGESTS


# -- the sweep kernel against the plain sweeps -------------------------------------------


def _assert_identical(game, backend, start=None, max_iterations=DEFAULT_MAX_ITERATIONS):
    """`solve_icwe` and `solve_by_full_sweeps` give the same floats, or both
    raise DidNotConverge with the same gap; returns the result, if any."""
    outcomes = []
    for solve in (solve_icwe, solve_by_full_sweeps):
        try:
            outcomes.append(
                solve(game, backend=backend, start=start, max_iterations=max_iterations)
            )
        except DidNotConverge as exc:
            outcomes.append((exc.iterations, exc.violation))
    got, want = outcomes
    assert got == want
    assert repr(got) == repr(want)  # exact floats, signed zeros and dict order
    return got


SEARCH_GRAPHS = {  # the `search` benchmark's shapes; cycles with antipodal OD pairs
    **{
        f"cycle{n}": cycle_graph(2 * n, [(f"c{i}", f"c{i + n}") for i in range(n)])
        for n in (2, 3, 4, 5)
    },
    "gadget-origin": gadget_multigraph("origin"),
    "gadget-destination": gadget_multigraph("destination"),
    "k4": k4_three_terminals(),
    "gadget-chain": chain_with_gadget_middle(),
}


@pytest.mark.parametrize("name", sorted(SEARCH_GRAPHS))
@pytest.mark.parametrize("backend", ["cg", "auto"])
def test_sweeps_match_the_plain_sweeps_on_search_games(name, backend, monkeypatch):
    # the games a seeded search draws, solved before and, from that
    # equilibrium, after the extension, as `check_ibp` does
    instances = []

    def record(instance, **kwargs):
        instances.append(instance)
        return check_ibp(instance, **kwargs)

    check_ibp = paradox.check_ibp
    monkeypatch.setattr(paradox, "check_ibp", record)
    paradox.random_search_ibp(SEARCH_GRAPHS[name], 25, seed=4099, stop_at_first=False)
    monkeypatch.undo()
    assert len(instances) >= 20
    for instance in instances:
        before = _assert_identical(instance.game, backend)
        _assert_identical(paradox.extended_game(instance), backend, start=before.path_flows)


@pytest.mark.parametrize("degree", GRID_LATENCY_DEGREES)
def test_sweeps_match_the_plain_sweeps_on_grids(degree):
    rng = random.Random(6007 + degree)
    for _ in range(30):
        game = random_grid_game(rng, degree)
        for backend in ("cg", "auto"):
            _assert_identical(game, backend)
        _assert_identical(game, "cg", max_iterations=3)  # both give up, on the same gap


@pytest.mark.parametrize("stem", [s for s in FIXTURE_STEMS if s != "malformed"])
def test_sweeps_match_the_plain_sweeps_on_fixtures(stem):
    game, extension = load_instance(Path(__file__).parent.parent / "fixtures" / f"{stem}.json")
    for backend in ("cg", "auto"):
        before = _assert_identical(game, backend)
        if extension is not None:
            after = paradox.extended_game(paradox.IBPInstance(game, extension))
            _assert_identical(after, backend, start=before.path_flows)


def test_did_not_converge_reports_the_whole_gap():
    # Two types on disjoint links of one OD pair never meet, so each type's
    # gap is that of its own game.  Type 1's is the larger, and the sweep's
    # convergence test stops at type 0: the error must still carry the whole.
    graph = MultiGraph(["s", "t"], [(f"e{i}", "s", "t") for i in range(6)], [("s", "t")])
    # One sweep moves half of each type's rate to its second link, the third
    # stays empty: the gaps are 1.5 and 4.5 + 0.5 * 4.5**2.
    latencies = {f"e{i}": LatencyFunction((0.0, 1.0, 0.5 * (i > 2))) for i in range(6)}
    types = [TravelerType(3.0, 0, {"e0", "e1", "e2"}), TravelerType(9.0, 0, {"e3", "e4", "e5"})]

    def gap(types):
        with pytest.raises(DidNotConverge) as info:
            solve_icwe(RoutingGame(graph, latencies, types), backend="cg", max_iterations=1)
        return info.value.violation

    alone = [gap([t]) for t in types]
    assert alone == [1.5, 4.5 + 0.5 * 4.5**2]
    assert gap(types) == alone[1]
    with pytest.raises(DidNotConverge) as info:
        solve_by_full_sweeps(RoutingGame(graph, latencies, types), max_iterations=1)
    assert info.value.violation == alone[1]


def test_an_affine_latency_is_its_line_bit_for_bit():
    # what the sweep's inline update relies on: Horner over the coefficients,
    # trailing zeros and negative zeros included, is slope * x + constant
    rng = random.Random(53)
    values = [0.0, -0.0, 1e-300, -1e-17, 5e-324, 1.0, 3.5, 1e12]
    for _ in range(500):
        c0 = rng.choice([0.0, -0.0, 5e-324, rng.uniform(0.0, 100.0)])
        c1 = rng.choice([0.0, -0.0, rng.uniform(0.0, 10.0)])
        fn = LatencyFunction([c0, c1] + [rng.choice([0.0, -0.0])] * rng.randint(0, 3))
        (line,) = _CostCore(
            RoutingGame(MultiGraph(["s", "t"], [("e", "s", "t")], []), {"e": fn}, []), []
        ).lines
        for x in values + [rng.uniform(-1e-9, 1e3)]:
            assert (line[0] * x + line[1]).hex() == fn(x).hex()


def test_distinct_starts_reach_the_same_edge_latencies():
    rng = random.Random(911)
    game = random_affine_game(rng)
    results = [
        solve_icwe(game, backend="cg", start=seeded_start(game, s))
        for s in (None, 1, 2, 3, 4)
    ]
    for eid in game.graph.edge_ids:
        values = [
            game.latencies[eid](r.edge_flows.get(eid, 0.0)) for r in results
        ]
        assert max(values) - min(values) <= 1e-5


def test_raising_one_rate_never_lowers_the_optimal_potential():
    rng = random.Random(5150)
    for _ in range(8):
        game = random_affine_game(rng)
        base = solve_icwe(game, backend="exact")
        j = rng.randrange(len(game.types))
        bumped_types = list(game.types)
        bumped_types[j] = TravelerType(
            bumped_types[j].rate + 1.0,
            bumped_types[j].od_index,
            bumped_types[j].info_set,
        )
        bumped_game = RoutingGame(game.graph, game.latencies, bumped_types)
        bumped = solve_icwe(bumped_game, backend="exact")
        assert (
            beckmann_potential(bumped_game, bumped.edge_flows)
            >= beckmann_potential(game, base.edge_flows) - 1e-9
        )


def test_wardrop_tolerance_bounds_potential_gap():
    # a flow passing verify_wardrop at tau is within tau * total_rate of optimal
    rng = random.Random(616)
    for _ in range(8):
        game = random_affine_game(rng)
        tau = 1e-8
        cg = solve_icwe(game, backend="cg", tolerance=tau)
        exact = solve_icwe(game, backend="exact")
        gap = beckmann_potential(game, cg.edge_flows) - beckmann_potential(
            game, exact.edge_flows
        )
        assert gap <= tau * total_rate(game) + 1e-9


# -- block-local games ----------------------------------------------------------------


def _two_pigou_chain():
    g = MultiGraph(
        ["s", "m", "t"],
        [("a1", "s", "m"), ("a2", "s", "m"), ("b1", "m", "t"), ("b2", "m", "t")],
        [("s", "t")],
    )
    latencies = {
        "a1": LatencyFunction((0.0, 1.0)),
        "a2": LatencyFunction((1.0,)),
        "b1": LatencyFunction((0.0, 2.0)),
        "b2": LatencyFunction((3.0,)),
    }
    return RoutingGame(g, latencies, [TravelerType(1.0, 0, g.edge_ids)])


def test_block_local_rates_follow_the_chain_rule():
    game = _two_pigou_chain()
    dec = decompose_blocks(game.graph)
    for block_id in range(len(dec.blocks)):
        local = block_local_game(game, block_id, dec)
        assert local.types[0].rate == 1.0  # the type crosses both blocks


def test_type_confined_to_one_block_is_dummy_elsewhere():
    g = MultiGraph(
        ["s", "m", "t"],
        [("a1", "s", "m"), ("a2", "s", "m"), ("b1", "m", "t"), ("b2", "m", "t")],
        [("s", "t"), ("s", "m")],
    )
    latencies = {eid: LatencyFunction((1.0,)) for eid in g.edge_ids}
    game = RoutingGame(
        g,
        latencies,
        [TravelerType(1.0, 0, g.edge_ids), TravelerType(2.0, 1, {"a1", "a2"})],
    )
    dec = decompose_blocks(g)
    blocks_by_edges = {edges: block_id for block_id, edges in enumerate(dec.blocks)}
    right = blocks_by_edges[frozenset({"b1", "b2"})]
    local = block_local_game(game, right, dec)
    assert local.types[1].rate == 0.0
    left = blocks_by_edges[frozenset({"a1", "a2"})]
    local = block_local_game(game, left, dec)
    assert local.types[1].rate == 2.0


def test_single_block_local_game_is_the_original():
    game = gadget_game()
    dec = decompose_blocks(game.graph)
    local = block_local_game(game, 0, dec)
    assert local.graph.edge_ids == game.graph.edge_ids
    assert [t.rate for t in local.types] == [t.rate for t in game.types]
    assert [t.info_set for t in local.types] == [t.info_set for t in game.types]


def test_series_decomposition_on_two_pigou_chain():
    game = _two_pigou_chain()
    result = solve_icwe(game)
    dec = decompose_blocks(game.graph)
    assert check_series_decomposition(game, result, dec)


def test_series_decomposition_single_block_and_dummy_type():
    game = gadget_game()
    padded = RoutingGame(
        game.graph, game.latencies, list(game.types) + [TravelerType(0.0, 0, ())]
    )
    result = solve_icwe(padded)
    dec = decompose_blocks(padded.graph)
    assert check_series_decomposition(padded, result, dec)


def test_series_decomposition_on_random_chains():
    rng = random.Random(2468)
    for _ in range(4):
        game = random_sli_chain_game(rng)
        result = solve_icwe(game)
        dec = decompose_blocks(game.graph)
        assert check_series_decomposition(game, result, dec)
