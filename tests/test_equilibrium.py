import math
import random
from fractions import Fraction

import pytest

from ibpcheck.core_graph import MultiGraph, decompose_blocks
from ibpcheck.equilibrium import (
    DEFAULT_TOLERANCE,
    LatencyFunction,
    RoutingGame,
    TravelerType,
    beckmann_potential,
    block_local_game,
    check_series_decomposition,
    feasible_paths,
    solve_icwe,
    verify_wardrop,
    _line_search,
)
from ibpcheck.errors import (
    BackendUnavailable,
    DidNotConverge,
    InvalidNetwork,
    NoFeasiblePath,
)

from conftest import (
    GRID_LATENCY_DEGREES,
    gadget_game,
    pigou_game,
    random_affine_game,
    random_grid_game,
    random_sli_chain_game,
)


# -- latency functions -------------------------------------------------------


def test_negative_coefficients_rejected():
    with pytest.raises(InvalidNetwork):
        LatencyFunction((1.0, -0.5))


def test_zero_latency_allowed_and_evaluates():
    z = LatencyFunction.zero()
    assert z(3.7) == 0.0
    assert z.integral(3.7) == 0.0


def test_polynomial_evaluation_and_integral():
    lat = LatencyFunction((1.0, 2.0, 3.0))  # 1 + 2x + 3x^2
    assert lat(2.0) == 1 + 4 + 12
    assert lat.integral(2.0) == pytest.approx(2 + 4 + 8)


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
    result = solve_icwe(game, backend="cg", start_seed=seed)
    assert verify_wardrop(game, result).passed


def test_exact_backend_rejects_nonaffine():
    g = MultiGraph(["s", "t"], [("e", "s", "t"), ("f", "s", "t")], [("s", "t")])
    game = RoutingGame(
        g,
        {"e": LatencyFunction((0.0, 0.0, 1.0)), "f": LatencyFunction((2.0,))},
        [TravelerType(2.0, 0, {"e", "f"})],
    )
    with pytest.raises(BackendUnavailable):
        solve_icwe(game, backend="exact")


def test_cg_handles_quadratic_latency():
    g = MultiGraph(["s", "t"], [("e", "s", "t"), ("f", "s", "t")], [("s", "t")])
    game = RoutingGame(
        g,
        {"e": LatencyFunction((0.0, 0.0, 1.0)), "f": LatencyFunction((2.0,))},
        [TravelerType(2.0, 0, {"e", "f"})],
    )
    result = solve_icwe(game, backend="cg")
    assert result.edge_flows["e"] == pytest.approx(math.sqrt(2.0), abs=1e-6)
    assert result.type_latencies[0] == pytest.approx(2.0, abs=1e-6)


def test_did_not_converge_when_no_iterations_allowed():
    with pytest.raises(DidNotConverge):
        solve_icwe(gadget_game(extended=True), backend="cg", max_iterations=0)


def _grid_games(seed, per_degree=2, **kwargs):
    rng = random.Random(seed)
    return [
        random_grid_game(rng, degree, **kwargs)
        for degree in GRID_LATENCY_DEGREES
        for _ in range(per_degree)
    ]


def test_cg_reported_violation_matches_the_independent_check_on_grids():
    for game in _grid_games(3407):
        result = solve_icwe(game, backend="cg")
        report = verify_wardrop(game, result, epsilon=DEFAULT_TOLERANCE)
        assert report.passed
        assert result.max_wardrop_violation == pytest.approx(
            report.max_violation, rel=1e-12, abs=0.0
        )


def test_same_start_seed_gives_identical_flows_on_grids():
    for game in _grid_games(5113, per_degree=1):
        first = solve_icwe(game, backend="cg", start_seed=17)
        second = solve_icwe(game, backend="cg", start_seed=17)
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


def test_distinct_starts_reach_the_same_edge_latencies():
    rng = random.Random(911)
    game = random_affine_game(rng)
    results = [
        solve_icwe(game, backend="cg", start_seed=s) for s in (None, 1, 2, 3, 4)
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
        assert gap <= tau * game.total_rate + 1e-9


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
    for block in dec.blocks:
        local = block_local_game(game, block.id, dec)
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
    blocks_by_edges = {dec.block_edges(b.id): b.id for b in dec.blocks}
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
