import itertools
import math
import random
from pathlib import Path

import pytest

import ibpcheck.paradox as paradox
from ibpcheck.core_graph import EmbeddingStep, MultiGraph, is_cycle
from ibpcheck.equilibrium import (
    DEFAULT_TOLERANCE,
    EquilibriumResult,
    LatencyFunction,
    RoutingGame,
    TravelerType,
    solve_icwe,
    verify_wardrop,
)
from ibpcheck.errors import (
    InvalidNetwork,
    PreconditionViolated,
    UnsupportedFailureSite,
    WitnessVerificationFailed,
)
from ibpcheck.instance_io import load_instance
from ibpcheck.paradox import (
    DEFAULT_DECISION_THRESHOLD,
    GadgetVariant,
    IBPInstance,
    InformationExtension,
    check_ibp,
    cycle_diagnostics,
    extended_game,
    find_gadget_embedding,
    gadget_graph,
    gadget_instance,
    lift_instance,
    random_search_ibp,
    synthesize_ibp_witness,
)

from conftest import (
    FIXTURE_STEMS,
    chain_with_gadget_middle,
    cycle_graph,
    diamonds_in_series,
    gadget_multigraph,
    grid_graph,
    k4_three_terminals,
    second_od_pair_disconnected,
    triangle_two_od,
    wheatstone,
)
from oracles import (
    _is_gadget_shaped,
    gadget_embedding_by_rebuilding,
    gadget_match_by_search,
    lift_by_replay,
    replay_embedding,
)


# -- instance plumbing -----------------------------------------------------------


def test_extension_must_be_nonempty():
    with pytest.raises(InvalidNetwork):
        InformationExtension(())


def test_extension_rejects_a_bare_string():
    # with one-letter edge ids, "bc" read as its characters is a valid extension
    g = MultiGraph(
        ["o", "m", "d"], [("a", "o", "d"), ("b", "o", "m"), ("c", "m", "d")], [("o", "d")]
    )
    latencies = {eid: LatencyFunction((1.0,)) for eid in g.edge_ids}
    game = RoutingGame(g, latencies, [TravelerType(1.0, 0, ("a",))])
    for added in ("bc", "b"):
        with pytest.raises(InvalidNetwork, match="collection of edge ids"):
            InformationExtension(added)
    instance = IBPInstance(game, InformationExtension(("b", "c")))
    assert instance.extension.added_edges == {"b", "c"}


def test_extension_must_be_disjoint_from_type1_info():
    inst = gadget_instance()
    with pytest.raises(InvalidNetwork):
        IBPInstance(inst.game, InformationExtension({"e3"}))


def test_extended_game_widens_only_type1():
    inst = gadget_instance()
    post = extended_game(inst)
    assert post.types[0].info_set == {"e2", "e3", "e4"}
    assert post.types[1].info_set == inst.game.types[1].info_set


# -- the built-in gadget -----------------------------------------------------------


@pytest.mark.parametrize(
    "variant", [GadgetVariant.ORIGIN2_AT_ORIGIN1, GadgetVariant.ORIGIN2_AT_DESTINATION1]
)
def test_gadget_margin_is_one(variant):
    verdict = check_ibp(gadget_instance(variant))
    assert verdict.latency_before == pytest.approx(47.0, abs=1e-9)
    assert verdict.latency_after == pytest.approx(48.0, abs=1e-9)
    assert verdict.margin == pytest.approx(1.0, abs=1e-9)
    assert verdict.occurs and verdict.label == "occurs"


def test_gadget_pre_extension_edge_flows():
    verdict = check_ibp(gadget_instance(GadgetVariant.ORIGIN2_AT_ORIGIN1))
    flows = verdict.before_result.edge_flows
    assert [flows.get(e, 0.0) for e in ("e1", "e2", "e3", "e4")] == pytest.approx(
        [5.0, 5.0, 5.0, 5.0]
    )


def test_dominated_extension_changes_nothing():
    base = gadget_instance()
    g = base.game.graph
    graph = MultiGraph(
        g.vertices,
        list(g.edges) + [("e5", "w", "v")],
        g.od_pairs,
    )
    latencies = dict(base.game.latencies)
    latencies["e5"] = LatencyFunction((1000.0,))
    game = RoutingGame(graph, latencies, base.game.types)
    verdict = check_ibp(IBPInstance(game, InformationExtension({"e5"})))
    assert verdict.margin == pytest.approx(0.0, abs=1e-9)
    assert not verdict.occurs and verdict.label == "not-occurs"


@pytest.mark.parametrize("scale", [1e-4, 1.0, 1e2, 1e4])
def test_scaling_every_gadget_latency_keeps_the_label_and_scales_the_latencies(scale):
    base = gadget_instance()
    latencies = {
        eid: LatencyFunction([c * scale for c in fn.coefficients])
        for eid, fn in base.game.latencies.items()
    }
    instance = IBPInstance(
        RoutingGame(base.game.graph, latencies, base.game.types), base.extension
    )
    verdict = check_ibp(instance)
    assert verdict.label == "occurs"
    assert verdict.latency_before == pytest.approx(47.0 * scale, rel=1e-12)
    assert verdict.latency_after == pytest.approx(48.0 * scale, rel=1e-12)
    after = extended_game(instance)
    assert verify_wardrop(instance.game, verdict.before_result).passed
    assert verify_wardrop(after, verdict.after_result).passed
    # At 1e4 the polished solution misses the absolute gap by rounding, so
    # the sweeps go on and their result comes back.
    assert verdict.after_result.backend == ("cg" if scale == 1e4 else "exact")


@pytest.mark.parametrize("backend", ["cg", "auto"])
@pytest.mark.parametrize("rate", [1e12, 1e14])
def test_a_large_rate_starts_the_after_game_from_the_before_flows(rate, backend):
    """At rate 1e12 the before flows of type 2 sum to one ulp under it; the
    after game still starts there.  Type 2 floods e2, so type 1 never takes
    the revealed e4 and nothing changes."""
    base = gadget_instance()
    first, second = base.game.types
    types = (first, TravelerType(rate, second.od_index, second.info_set))
    instance = IBPInstance(RoutingGame(base.game.graph, base.game.latencies, types), base.extension)
    verdict = check_ibp(instance, backend=backend)
    assert verdict.label == "not-occurs"
    assert verdict.margin == pytest.approx(0.0, abs=1e-9 * rate)


def _parallel_links_instance(n_links):
    """One type on n parallel links with a shared free-flow time; it knows
    half of them and the extension reveals the rest."""
    rng = random.Random(n_links)
    ids = [f"l{i:02d}" for i in range(n_links)]
    graph = MultiGraph(["s", "t"], [(eid, "s", "t") for eid in ids], [("s", "t")])
    free = rng.uniform(1.0, 10.0)
    latencies = {eid: LatencyFunction((free, rng.uniform(0.5, 4.0))) for eid in ids}
    known = ids[: n_links // 2]
    game = RoutingGame(graph, latencies, [TravelerType(7.0, 0, known)])
    return IBPInstance(game, InformationExtension(set(ids) - set(known)))


def test_auto_never_enumerates_supports(monkeypatch):
    import ibpcheck.equilibrium as equilibrium

    def enumerate_supports(*args):
        raise AssertionError("auto called the support enumerator")

    monkeypatch.setattr(equilibrium, "_solve_exact", enumerate_supports)
    fixtures = Path(__file__).resolve().parent.parent / "fixtures"
    solved = 0
    for stem in FIXTURE_STEMS:
        if stem == "malformed":
            continue
        game, extension = load_instance(fixtures / f"{stem}.json")
        if extension is None:
            result = solve_icwe(game)
            assert verify_wardrop(game, result).passed
        else:
            verdict = check_ibp(IBPInstance(game, extension))
            assert verdict.label == ("occurs" if stem == "gadget" else "not-occurs")
        solved += 1
    assert solved == 8
    verdict = check_ibp(_parallel_links_instance(12))
    assert verdict.label == "not-occurs"
    assert verdict.after_result.backend == "exact"
    assert len(verdict.after_result.path_flows[0]) == 12


# -- lifting ------------------------------------------------------------------------


def test_zero_step_lift_is_identity():
    src = gadget_instance()
    lifted = lift_by_replay(src.game.graph, [], src)
    assert lifted.game.graph.edge_ids == src.game.graph.edge_ids
    assert lifted.extension.added_edges == src.extension.added_edges
    assert check_ibp(lifted).margin == pytest.approx(1.0, abs=1e-9)


def _subdivided_gadget():
    """Gadget with e1 subdivided into e1a + e1b through a fresh vertex."""
    return MultiGraph(
        ["u", "v", "w", "m"],
        [
            ("e1a", "u", "m"),
            ("e1b", "m", "v"),
            ("e2", "u", "w"),
            ("e3", "w", "v"),
            ("e4", "w", "v"),
        ],
        [("u", "v"), ("u", "w")],
    )


def test_lift_through_one_contraction():
    target = _subdivided_gadget()
    steps = [EmbeddingStep.contract("e1a", "u")]
    lifted = lift_by_replay(target, steps, gadget_instance())
    assert lifted.game.latencies["e1a"].coefficients == (0.0,)
    for t in lifted.game.types:
        assert "e1a" in t.info_set
    verdict = check_ibp(lifted)
    assert verdict.occurs
    assert verdict.margin == pytest.approx(1.0, abs=1e-6)


def test_lift_through_one_deletion():
    g = gadget_graph()
    target = MultiGraph(
        g.vertices, list(g.edges) + [("chord", "u", "v")], g.od_pairs
    )
    steps = [EmbeddingStep.delete("chord")]
    lifted = lift_by_replay(target, steps, gadget_instance())
    assert lifted.game.latencies["chord"].coefficients == (0.0,)
    for t in lifted.game.types:
        assert "chord" not in t.info_set
    assert check_ibp(lifted).margin == pytest.approx(1.0, abs=1e-6)


def test_wrong_steps_are_rejected():
    src = gadget_instance()
    with pytest.raises(PreconditionViolated, match="matches neither gadget placement"):
        lift_by_replay(_subdivided_gadget(), [], src)
    with pytest.raises(PreconditionViolated, match="yield the other gadget placement"):
        lift_by_replay(gadget_graph(GadgetVariant.ORIGIN2_AT_DESTINATION1), [], src)


def test_lift_soundness_over_corpus():
    source = gadget_instance()
    corpus = []

    corpus.append((source.game.graph, []))
    corpus.append((_subdivided_gadget(), [EmbeddingStep.contract("e1a", "u")]))
    g = gadget_graph()
    corpus.append(
        (
            MultiGraph(g.vertices, list(g.edges) + [("chord", "u", "v")], g.od_pairs),
            [EmbeddingStep.delete("chord")],
        )
    )
    base_margin = check_ibp(source).margin
    for target, steps in corpus:
        lifted = lift_by_replay(target, steps, source)
        verdict = check_ibp(lifted)
        assert verdict.occurs
        assert abs(verdict.margin - base_margin) <= 1e-6


# -- embedding search -----------------------------------------------------------------


def test_gadget_embeds_into_itself_with_no_steps():
    assert find_gadget_embedding(gadget_graph()) == ([], gadget_graph())


def test_cycles_are_rejected():
    with pytest.raises(PreconditionViolated, match="cycles are immune"):
        find_gadget_embedding(triangle_two_od())


def test_coincident_terminals_are_rejected():
    g = MultiGraph(
        ["a", "b", "c"],
        [("e1", "a", "b"), ("e2", "b", "c"), ("e3", "c", "a"), ("e4", "a", "b")],
        [("a", "b"), ("b", "a")],
    )
    with pytest.raises(PreconditionViolated):
        find_gadget_embedding(g)


def _assert_reduction_matches_rebuilding(block):
    """The working-graph reduction takes the rebuilding greedy's steps, and
    the graph it returns is the replay of those steps."""
    steps, reduced = find_gadget_embedding(block)
    assert steps == gadget_embedding_by_rebuilding(block)
    assert reduced == replay_embedding(block, steps)


def test_k4_embedding_replays_to_gadget_shape():
    block = k4_three_terminals()
    steps, _ = find_gadget_embedding(block)
    assert steps
    assert _is_gadget_shaped(replay_embedding(block, steps))
    _assert_reduction_matches_rebuilding(block)


@pytest.mark.parametrize("rows, cols", [(4, 7), (6, 6), (10, 10)])
def test_corner_grids_embed_and_lift_to_a_verified_paradox(rows, cols):
    """Grids with more simple paths than the 10,000-path cap still embed."""
    corners = [("g0_0", f"g{rows - 1}_{cols - 1}"), (f"g0_{cols - 1}", f"g{rows - 1}_0")]
    block = grid_graph(rows, cols, corners)
    steps, reduced = find_gadget_embedding(block)
    replayed = replay_embedding(block, steps)
    assert _is_gadget_shaped(replayed)
    lifted = lift_instance(block, steps, reduced)
    assert lifted == lift_instance(block, steps, replayed)
    verdict = check_ibp(lifted)
    assert verdict.occurs
    assert verdict.margin == pytest.approx(1.0, abs=1e-6)
    _assert_reduction_matches_rebuilding(block)


def random_two_od_blocks():
    """Seeded random 2-connected multigraphs on up to five vertices, each with
    two OD pairs of different terminal sets that both cover every edge."""
    from ibpcheck.core_graph import biconnected_blocks
    from conftest import chain_edges, random_connected_multigraph

    rng = random.Random(321)
    for _ in range(600):
        g = random_connected_multigraph(rng, max_vertices=5, max_extra=4)
        if len(g.vertices) < 3:
            continue
        blocks, _ = biconnected_blocks(g)
        if len(blocks) != 1:
            continue
        vs = sorted(g.vertices)
        o1, d1 = rng.sample(vs, 2)
        o2, d2 = rng.sample(vs, 2)
        if {o1, d1} == {o2, d2}:
            continue
        cand = MultiGraph(g.vertices, g.edges, [(o1, d1), (o2, d2)])
        if any(chain_edges(cand, i) != cand.edge_ids for i in (0, 1)):
            continue
        yield cand


def test_embedding_dichotomy_on_random_two_od_blocks():
    """2-connected non-coincident blocks: cycle XOR gadget-embeddable."""
    tested = 0
    synthesized = 0
    for cand in random_two_od_blocks():
        tested += 1
        if is_cycle(cand):
            with pytest.raises(PreconditionViolated, match="cycles are immune"):
                find_gadget_embedding(cand)
        else:
            steps, reduced = find_gadget_embedding(cand)
            assert isinstance(steps, list)
            assert _is_gadget_shaped(reduced)
            _assert_reduction_matches_rebuilding(cand)
            if synthesized < 8:  # tie the verdict to an end-to-end witness
                assert check_ibp(synthesize_ibp_witness(cand)).occurs
                synthesized += 1
    assert tested >= 20


# -- the gadget match -------------------------------------------------------------------


def _assert_match_agrees(reduced):
    variant, perm, emap = paradox._gadget_match(reduced)
    assert (variant, perm, dict(emap)) == gadget_match_by_search(reduced)
    return variant


def _renamed_gadgets(variant):
    """The gadget placement under every vertex relabelling, both OD orders,
    both orientations of each pair and every assignment of fresh edge ids,
    with the edges listed in a shuffled order."""
    rng = random.Random(23)
    g = gadget_graph(variant)
    for image in itertools.permutations(("a", "b", "c")):
        vmap = dict(zip(g.vertices, image))
        for order in ((0, 1), (1, 0)):
            for flips in itertools.product((False, True), repeat=2):
                od_pairs = []
                for k, flip in zip(order, flips):
                    o, d = g.od_pairs[k]
                    od_pairs.append((vmap[d], vmap[o]) if flip else (vmap[o], vmap[d]))
                for ids in itertools.permutations(("x1", "x2", "x3", "x4")):
                    edges = [(i, vmap[u], vmap[v]) for i, (_, u, v) in zip(ids, g.edges)]
                    rng.shuffle(edges)
                    yield MultiGraph(image, edges, od_pairs)


@pytest.mark.parametrize("variant", list(GadgetVariant))
def test_gadget_match_agrees_with_the_search_under_every_renaming(variant):
    count = 0
    for reduced in _renamed_gadgets(variant):
        assert _assert_match_agrees(reduced) is variant
        count += 1
    assert count == 6 * 2 * 4 * 24


def test_gadget_match_agrees_with_the_search_on_every_reduced_corpus_block(monkeypatch):
    reduced_graphs = []

    def recording(block):
        steps, reduced = find_gadget_embedding(block)
        reduced_graphs.append(reduced)
        return steps, reduced

    monkeypatch.setattr(paradox, "find_gadget_embedding", recording)
    for g in _synthesis_corpus():  # fixtures, k4, gadget chain, random blocks
        synthesize_ibp_witness(g)
    for n in range(3, 11):  # corner grids up to 10x10, reduced directly
        recording(grid_graph(n, n, [("g0_0", f"g{n - 1}_{n - 1}"), (f"g0_{n - 1}", f"g{n - 1}_0")]))
    variants = [_assert_match_agrees(reduced) for reduced in reduced_graphs]
    assert len(variants) >= 50 and set(variants) == set(GadgetVariant)


@pytest.mark.parametrize(
    "vertices, edges, od_pairs",
    [
        (
            ["u", "v", "w"],
            [("e1", "u", "v"), ("e2", "u", "w"), ("e3", "w", "v"), ("e4", "w", "v")],
            [("u", "v"), ("v", "u")],
        ),
        (
            ["u", "v", "w"],
            [("e1", "u", "v"), ("e2", "u", "v"), ("e3", "u", "v"), ("e4", "w", "v")],
            [("u", "v"), ("u", "w")],
        ),
        (
            ["u", "v", "w", "m"],
            [("e1", "u", "m"), ("e5", "m", "v"), ("e2", "u", "w"), ("e3", "w", "v"), ("e4", "w", "v")],
            [("u", "v"), ("u", "w")],
        ),
    ],
    ids=["equal-terminal-sets", "tripled-side", "four-vertices"],
)
def test_gadget_match_rejects_what_is_not_gadget_shaped(vertices, edges, od_pairs):
    g = MultiGraph(vertices, edges, od_pairs)
    with pytest.raises(PreconditionViolated, match="matches neither gadget placement"):
        paradox._gadget_match(g)
    with pytest.raises(PreconditionViolated, match="matches neither gadget placement"):
        gadget_match_by_search(g)


# -- witness synthesis ------------------------------------------------------------------


def test_synthesize_on_gadget_graph():
    witness = synthesize_ibp_witness(gadget_graph())
    assert check_ibp(witness).margin > 1e-4


def test_synthesize_on_k4():
    witness = synthesize_ibp_witness(k4_three_terminals())
    verdict = check_ibp(witness)
    assert verdict.occurs


def test_synthesize_on_a_block_with_a_late_embedding():
    """The cycle-and-ear search found no embedding here; greedy reduction does."""
    g = MultiGraph(
        [f"v{i}" for i in range(5)],
        [
            ("g00", "v0", "v1"),
            ("g01", "v0", "v2"),
            ("g02", "v1", "v3"),
            ("g03", "v1", "v4"),
            ("g04", "v2", "v4"),
            ("g05", "v2", "v3"),
        ],
        [("v3", "v0"), ("v4", "v3")],
    )
    assert check_ibp(synthesize_ibp_witness(g)).occurs


def test_synthesize_on_three_block_chain():
    witness = synthesize_ibp_witness(chain_with_gadget_middle())
    verdict = check_ibp(witness)
    assert verdict.occurs
    assert verdict.margin == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize(
    "make",
    [
        k4_three_terminals,
        gadget_graph,
        lambda: grid_graph(5, 5, [("g0_0", "g4_4"), ("g0_4", "g4_0")]),
    ],
    ids=["k4", "gadget", "corner-grid-5x5"],
)
def test_synthesis_never_replays_the_embedding(make):
    import ibpcheck
    import ibpcheck.core_graph as core_graph
    import ibpcheck.paradox as paradox

    for names in (vars(paradox), vars(core_graph), ibpcheck.__all__):
        assert "apply_embedding_step" not in names
    assert check_ibp(synthesize_ibp_witness(make())).occurs


def test_synthesize_rejects_ibp_free_networks():
    with pytest.raises(PreconditionViolated):
        synthesize_ibp_witness(triangle_two_od())


def test_synthesize_unsupported_for_sli_failures():
    with pytest.raises(UnsupportedFailureSite):
        synthesize_ibp_witness(wheatstone())


def test_other_verdict_blocks_always_admit_synthesis():
    from ibpcheck.topology import NOT_IBP_FREE, OTHER, common_blocks, decide_ibp_free

    for g in (gadget_graph(), chain_with_gadget_middle()):
        report = decide_ibp_free(g)
        assert report.verdict == NOT_IBP_FREE
        table = common_blocks(g, report.decomposition)
        kinds = [v.kind for verdicts in table.values() for v in verdicts]
        assert OTHER in kinds
        assert check_ibp(synthesize_ibp_witness(g)).occurs


# -- verification from the transported gadget equilibria ---------------------------------


@pytest.mark.parametrize("variant", list(GadgetVariant))
def test_gadget_equilibria_are_the_exact_solutions(variant):
    instance = gadget_instance(variant)
    games = (instance.game, extended_game(instance))
    for game, flows in zip(games, paradox._GADGET_EQUILIBRIA[variant]):
        exact = solve_icwe(game, backend="exact")
        for want, got in zip(flows, exact.path_flows):
            used = {path: x for path, x in got.items() if x > 1e-9}
            assert used.keys() == want.keys()
            for path, x in want.items():
                assert used[path] == pytest.approx(x, abs=1e-9)


def _images(reduced):
    """Gadget edge -> the edge that stands for it, along `reduced`'s match."""
    return {s: t for t, s in paradox._gadget_match(reduced)[2].items()}


def _transported_starts(instance, reduced):
    """Per game of `instance`, before and after, (game, the gadget's
    equilibrium carried to it along `reduced`'s match)."""
    variant = paradox._gadget_match(reduced)[0]
    images = _images(reduced)
    games = (instance.game, extended_game(instance))
    return [
        (game, paradox._lift_flows(game, images, flows))
        for game, flows in zip(games, paradox._GADGET_EQUILIBRIA[variant])
    ]


def _synthesize_and_record(g):
    """Synthesize on `g` with every solver call an error; return the witness
    and the gadget-shaped graph its block was reduced to."""
    reductions = []

    def recording(block):
        steps, reduced = find_gadget_embedding(block)
        reductions.append(reduced)
        return steps, reduced

    def no_solver(*args, **kwargs):
        raise AssertionError("synthesis called a solver")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(paradox, "find_gadget_embedding", recording)
        mp.setattr(paradox, "solve_icwe", no_solver)
        witness = synthesize_ibp_witness(g)
    (reduced,) = reductions
    return witness, reduced


def _as_result(path_flows):
    """`path_flows` in a result's shape, for `verify_wardrop`, which reads
    nothing else."""
    return EquilibriumResult(tuple(path_flows), {}, (), 0.0, "cg", 0)


def _certified_type1_latencies(games, starts):
    """Type 1's exact latency in the before and the after game."""
    return [
        paradox._certified_latencies(game, start, which)[0]
        for game, start, which in zip(games, starts, ("before", "after"))
    ]


def _assert_verified_from_the_gadget(witness, reduced):
    """Each start transported along `reduced`'s match is an equilibrium with
    no Wardrop gap, the exact check finds type 1 at the gadget's 47 and 48,
    and re-solving the witness from scratch finds the same margin of 1."""
    starts = _transported_starts(witness, reduced)
    for game, start in starts:
        report = verify_wardrop(game, _as_result(start))
        assert report.passed and report.max_violation == 0.0
    assert _certified_type1_latencies(*zip(*starts)) == [47, 48]
    assert check_ibp(witness).margin == pytest.approx(1.0, abs=1e-6)


def _synthesis_corpus():
    fixtures = Path(__file__).resolve().parent.parent / "fixtures"
    for stem in ("chain3", "gadget", "gadget_dominated", "gadget_pre", "k4"):
        yield load_instance(fixtures / f"{stem}.json")[0].graph
    yield from (k4_three_terminals(), chain_with_gadget_middle())
    yield from (gadget_multigraph(variant) for variant in ("origin", "destination"))
    for n in (3, 4, 5):
        yield grid_graph(n, n, [("g0_0", f"g{n - 1}_{n - 1}"), (f"g0_{n - 1}", f"g{n - 1}_0")])
    yield from (g for g in random_two_od_blocks() if not is_cycle(g))


def test_synthesis_verifies_from_the_transported_gadget_equilibria():
    count = 0
    for g in _synthesis_corpus():
        _assert_verified_from_the_gadget(*_synthesize_and_record(g))
        count += 1
    assert count >= 40


def test_synthesis_verifies_random_multigraphs_from_the_gadget_equilibria():
    """Seeded random multigraphs with two or three OD pairs: every one with
    a common block that is neither coincident nor a cycle."""
    from conftest import random_connected_multigraph

    rng = random.Random(2207)
    count = 0
    for _ in range(400):
        g = random_connected_multigraph(rng, max_vertices=6, max_extra=4)
        if len(g.vertices) < 3:
            continue
        pairs = [tuple(rng.sample(sorted(g.vertices), 2)) for _ in range(rng.choice((2, 3)))]
        g = MultiGraph(g.vertices, g.edges, pairs)
        try:
            witness, reduced = _synthesize_and_record(g)
        except (InvalidNetwork, PreconditionViolated, UnsupportedFailureSite):
            continue
        _assert_verified_from_the_gadget(witness, reduced)
        count += 1
    assert count >= 30


@pytest.mark.parametrize("rows, cols", [(4, 7), (6, 6), (10, 10)])
def test_corner_grid_lifts_carry_the_gadget_equilibria(rows, cols):
    """The lifted instance of a grid block with more simple paths than the
    enumeration cap carries the same transported equilibria."""
    corners = [("g0_0", f"g{rows - 1}_{cols - 1}"), (f"g0_{cols - 1}", f"g{rows - 1}_0")]
    block = grid_graph(rows, cols, corners)
    steps, reduced = find_gadget_embedding(block)
    _assert_verified_from_the_gadget(lift_instance(block, steps, reduced), reduced)


def test_a_start_that_is_no_equilibrium_fails_the_certificate(monkeypatch):
    """With type 2 all on one path after the extension, the start is
    feasible but not an equilibrium: synthesis raises instead of solving."""
    graphs = (k4_three_terminals(), chain_with_gadget_middle(), gadget_multigraph("destination"))
    skewed = {
        variant: (before, (after[0], {max(after[1], key=after[1].get): 5.0}))
        for variant, (before, after) in paradox._GADGET_EQUILIBRIA.items()
    }
    monkeypatch.setattr(paradox, "_GADGET_EQUILIBRIA", skewed)
    for g in graphs:
        with pytest.raises(WitnessVerificationFailed, match="^after game, type 1: used path .* costs"):
            _synthesize_and_record(g)


def _lifted_certificate(g):
    """A witness synthesized on `g`, the edges standing for the gadget's,
    and its two games with their transported starts, free to edit."""
    witness, reduced = _synthesize_and_record(g)
    games, starts = zip(*_transported_starts(witness, reduced))
    return witness, _images(reduced), list(games), list(starts)


def _with_game(witness, latencies=None, types=None):
    """`witness` with its latencies or types replaced, as (before, after)."""
    game = witness.game
    edited = IBPInstance(
        RoutingGame(game.graph, latencies or game.latencies, types or game.types),
        witness.extension,
    )
    return [edited.game, extended_game(edited)]


def _move_a_used_flow(witness, images, games, starts):
    after_type1 = starts[1][0]
    (kept, moved) = sorted(after_type1)
    after_type1[kept] += after_type1.pop(moved)
    return games, starts


def _raise_an_e3_coefficient(witness, images, games, starts):
    latencies = dict(witness.game.latencies)
    e3 = images["e3"]
    c0, *rest = latencies[e3].coefficients
    latencies[e3] = LatencyFunction((c0 + 1.0, *rest))
    return _with_game(witness, latencies=latencies), starts


def _drop_e4_from_type_2(witness, images, games, starts):
    first, second = witness.game.types
    narrowed = TravelerType(second.rate, second.od_index, second.info_set - {images["e4"]})
    return _with_game(witness, types=(first, narrowed)), starts


def _leave_the_information_set(witness, images, games, starts):
    (via_e4,) = [p for p in starts[1][0] if images["e4"] in p]
    starts[0][0] = {via_e4: witness.game.types[0].rate}
    return games, starts


@pytest.mark.parametrize(
    "mutate, match",
    [
        (_move_a_used_flow, "after game, type 1: used path .* costs"),
        (_raise_an_e3_coefficient, "after game, type 1: used path .* costs"),
        (_drop_e4_from_type_2, "before game, type 2: used path .* inside its information set"),
        (_leave_the_information_set, "before game, type 1: used path .* inside its information set"),
    ],
)
@pytest.mark.parametrize("make", [k4_three_terminals, chain_with_gadget_middle])
def test_the_exact_check_rejects_a_mutated_certificate(make, mutate, match):
    witness, images, games, starts = _lifted_certificate(make())
    assert _certified_type1_latencies(games, starts) == [47, 48]
    games, starts = mutate(witness, images, games, starts)
    with pytest.raises(WitnessVerificationFailed, match=match):
        _certified_type1_latencies(games, starts)


@pytest.mark.parametrize("variant", list(GadgetVariant))
def test_the_exact_check_certifies_a_binary_scaled_gadget_in_fractions(variant):
    """Every latency coefficient times 2**-20, rates unchanged: the same
    flows are the equilibria, and every latency scales exactly."""
    from fractions import Fraction

    base = gadget_instance(variant)
    scale = 2.0**-20
    latencies = {
        eid: LatencyFunction([c * scale for c in fn.coefficients])
        for eid, fn in base.game.latencies.items()
    }
    instance = IBPInstance(
        RoutingGame(base.game.graph, latencies, base.game.types), base.extension
    )
    games = (instance.game, extended_game(instance))
    before, after = _certified_type1_latencies(games, paradox._GADGET_EQUILIBRIA[variant])
    assert (before, after) == (Fraction(47, 2**20), Fraction(48, 2**20))
    margin = after - before
    assert type(margin) is Fraction and margin == 2.0**-20


# -- one decision inside synthesis ---------------------------------------------------------


def test_synthesis_walks_the_blocks_once_and_classifies_no_chain(monkeypatch):
    import ibpcheck.core_graph as core_graph
    import ibpcheck.topology as topology

    walks, reductions = [], []
    biconnected_blocks, sp_reduce = core_graph.biconnected_blocks, topology._sp_reduce

    def counting_walk(graph):
        walks.append(graph)
        return biconnected_blocks(graph)

    def counting_reduce(*args):
        reductions.append(args)
        return sp_reduce(*args)

    monkeypatch.setattr(core_graph, "biconnected_blocks", counting_walk)
    monkeypatch.setattr(topology, "_sp_reduce", counting_reduce)
    for g in (k4_three_terminals(), chain_with_gadget_middle()):
        walks.clear()
        synthesize_ibp_witness(g)
        assert walks == [g]
        assert reductions == []


def test_synthesis_errors_are_the_verdicts_errors():
    from ibpcheck.errors import PathCapExceeded
    from ibpcheck.topology import decide_ibp_free

    g = second_od_pair_disconnected()
    with pytest.raises(InvalidNetwork) as from_verdict:
        decide_ibp_free(g)
    with pytest.raises(InvalidNetwork) as from_synthesis:
        synthesize_ibp_witness(g)
    assert str(from_synthesis.value) == str(from_verdict.value) == (
        "graph fails validation: connected=False, uncovered_edges=['e3', 'e4'], "
        "uncovered_vertices=['c', 'd', 'e']"
    )
    with pytest.raises(PreconditionViolated, match="network is IBP-free; no witness exists"):
        synthesize_ibp_witness(triangle_two_od())
    with pytest.raises(UnsupportedFailureSite, match="single-OD \\(SLI-condition\\) failures"):
        synthesize_ibp_witness(wheatstone())
    with pytest.raises(PathCapExceeded, match="more than 10000"):
        synthesize_ibp_witness(diamonds_in_series(14))
    # 1,262,816 paths per pair, but validation counts none: a witness
    witness = synthesize_ibp_witness(grid_graph(6, 6, [("g0_0", "g5_5"), ("g0_5", "g5_0")]))
    assert check_ibp(witness).margin == pytest.approx(1.0, abs=1e-6)


# -- randomized search ------------------------------------------------------------------


@pytest.mark.parametrize("threshold", [math.nan, -0.5, math.inf])
def test_check_ibp_rejects_a_bad_threshold_before_solving(monkeypatch, threshold):
    import ibpcheck.paradox as paradox

    def solve(*args, **kwargs):
        raise AssertionError("solved before checking the threshold")

    monkeypatch.setattr(paradox, "solve_icwe", solve)
    with pytest.raises(ValueError, match="decision_threshold"):
        check_ibp(gadget_instance(), decision_threshold=threshold)


@pytest.mark.parametrize(
    "kwargs, match",
    [
        ({"trials": -1}, "trials"),
        ({"coeff_range": (5, 1)}, "coeff_range"),
        ({"coeff_range": (-1, 3)}, "coeff_range"),
        ({"rate_range": (5, 1)}, "rate_range"),
        ({"rate_range": (-3, 0)}, "rate_range"),
        ({"decision_threshold": math.nan}, "decision_threshold"),
        ({"decision_threshold": -1.0}, "decision_threshold"),
    ],
)
def test_search_rejects_bad_numbers_before_the_first_trial(monkeypatch, kwargs, match):
    import ibpcheck.paradox as paradox

    def trial(*args, **kwargs):
        raise AssertionError("ran a trial before checking the arguments")

    monkeypatch.setattr(paradox, "check_ibp", trial)
    with pytest.raises(ValueError, match=match):
        random_search_ibp(gadget_graph(), **{"trials": 3, "seed": 0, **kwargs})


def test_search_without_an_od_0_path_raises_before_the_first_trial(monkeypatch):
    import ibpcheck.paradox as paradox

    def trial(*args, **kwargs):
        raise AssertionError("ran a trial on a network without an OD 0 path")

    monkeypatch.setattr(paradox, "check_ibp", trial)
    g = second_od_pair_disconnected()
    swapped = MultiGraph(g.vertices, g.edges, list(reversed(g.od_pairs)))
    with pytest.raises(InvalidNetwork, match=r"OD 0 \(c -> a\) has no path"):
        random_search_ibp(swapped, trials=3, seed=0)


def test_search_with_a_disconnected_later_od_pair_raises_before_the_first_trial(monkeypatch):
    import ibpcheck.paradox as paradox

    def trial(*args, **kwargs):
        raise AssertionError("ran a trial on a network with a disconnected OD pair")

    monkeypatch.setattr(paradox, "check_ibp", trial)
    with pytest.raises(InvalidNetwork, match=r"OD 1 \(c -> a\) has no path"):
        random_search_ibp(second_od_pair_disconnected(), trials=3, seed=0)


def test_zero_trials_finds_nothing():
    outcome = random_search_ibp(gadget_graph(), trials=0, seed=1)
    assert outcome.witness is None
    assert outcome.trials_run == 0


def test_search_finds_a_witness_on_the_gadget_graph():
    outcome = random_search_ibp(
        gadget_graph(), trials=1000, seed=7, coeff_range=(0, 22)
    )
    assert outcome.witness is not None
    assert (outcome.witness_trial, outcome.witness) == outcome.hits[0]
    verdict = check_ibp(outcome.witness)
    assert verdict.occurs


def test_search_transcripts_are_reproducible():
    a = random_search_ibp(cycle_graph(4, [("c0", "c2"), ("c1", "c3")]), 50, seed=11)
    b = random_search_ibp(cycle_graph(4, [("c0", "c2"), ("c1", "c3")]), 50, seed=11)
    assert a.transcript == b.transcript
    assert a.witness_trial == b.witness_trial


def test_search_on_small_cycle_finds_nothing():
    outcome = random_search_ibp(
        cycle_graph(4, [("c0", "c2"), ("c1", "c3")]), trials=60, seed=3
    )
    assert outcome.witness is None


# -- the after game starts from the before equilibrium ----------------------------------


@pytest.mark.parametrize(
    "variant", [GadgetVariant.ORIGIN2_AT_ORIGIN1, GadgetVariant.ORIGIN2_AT_DESTINATION1]
)
def test_gadget_warm_cg_after_game_gives_47_to_48(variant):
    instance = gadget_instance(variant)
    verdict = check_ibp(instance, backend="cg")
    assert verdict.latency_before == pytest.approx(47.0, abs=1e-6)
    assert verdict.latency_after == pytest.approx(48.0, abs=1e-6)
    assert verdict.label == "occurs"
    assert verify_wardrop(extended_game(instance), verdict.after_result).passed


# The graph shapes of the benchmark's search deck.
SEARCH_SHAPES = {
    **{
        f"cycle{n}": lambda n=n: cycle_graph(2 * n, [(f"c{i}", f"c{i + n}") for i in range(n)])
        for n in (2, 3, 4, 5)
    },
    "gadget-origin": lambda: gadget_multigraph("origin"),
    "gadget-destination": lambda: gadget_multigraph("destination"),
    "k4": k4_three_terminals,
    "gadget-chain": chain_with_gadget_middle,
}


def _label(margin):
    if margin > DEFAULT_DECISION_THRESHOLD:
        return "occurs"
    return "inconclusive" if margin > DEFAULT_TOLERANCE else "not-occurs"


@pytest.mark.parametrize("shape", sorted(SEARCH_SHAPES))
def test_warm_after_solve_agrees_with_a_cold_one_in_fewer_sweeps(monkeypatch, shape):
    import ibpcheck.paradox as paradox

    checked = []

    def recording_check(instance, **kwargs):
        verdict = check_ibp(instance, **kwargs)
        checked.append((instance, verdict))
        return verdict

    monkeypatch.setattr(paradox, "check_ibp", recording_check)
    random_search_ibp(SEARCH_SHAPES[shape](), trials=200, seed=1, stop_at_first=False)
    assert len(checked) == 200
    warm_sweeps = cold_sweeps = 0
    for instance, verdict in checked:
        after = extended_game(instance)
        cold = solve_icwe(after, backend="cg")
        warm = verdict.after_result
        assert verdict.label == _label(cold.type_latencies[0] - verdict.latency_before)
        assert abs(warm.type_latencies[0] - cold.type_latencies[0]) <= 1e-6
        assert verify_wardrop(after, warm, epsilon=1e-8).passed
        warm_sweeps += warm.iterations
        cold_sweeps += cold.iterations
    assert warm_sweeps < cold_sweeps


# -- cycle diagnostics -------------------------------------------------------------------


def _solved_cycle_instance(rates=(3.0, 3.0)):
    g = cycle_graph(4, [("c0", "c2"), ("c1", "c3")])
    latencies = {
        "r0": LatencyFunction((1.0, 1.0)),
        "r1": LatencyFunction((2.0, 1.0)),
        "r2": LatencyFunction((0.0, 2.0)),
        "r3": LatencyFunction((1.0,)),
    }
    types = [
        TravelerType(rates[0], 0, {"r0", "r1"}),
        TravelerType(rates[1], 1, g.edge_ids),
    ]
    instance = IBPInstance(
        RoutingGame(g, latencies, types), InformationExtension({"r2", "r3"})
    )
    verdict = check_ibp(instance)
    return instance, verdict


def test_equal_rates_violate_the_dominance_condition():
    instance, verdict = _solved_cycle_instance()
    diag = cycle_diagnostics(
        instance, verdict.before_result, verdict.after_result
    )
    assert not diag.rate_condition_holds
    assert diag.refutes_ibp
    assert not verdict.occurs  # cycles are immune; search agrees


def test_diagnostics_require_a_cycle():
    inst = gadget_instance()
    verdict = check_ibp(inst)
    with pytest.raises(PreconditionViolated, match="defined for cycle networks only"):
        cycle_diagnostics(inst, verdict.before_result, verdict.after_result)


def test_diagnostics_require_normal_form():
    g = cycle_graph(3, [("c0", "c1"), ("c1", "c2")])
    latencies = {eid: LatencyFunction((1.0,)) for eid in g.edge_ids}
    types = [TravelerType(1.0, 0, {"r0"})]  # one type, two OD pairs
    instance = IBPInstance(
        RoutingGame(g, latencies, types), InformationExtension({"r1"})
    )
    verdict = check_ibp(instance)
    with pytest.raises(PreconditionViolated, match="one traveler type per OD pair"):
        cycle_diagnostics(instance, verdict.before_result, verdict.after_result)


def test_synthetic_flows_violating_latency_increase_are_flagged():
    instance, verdict = _solved_cycle_instance(rates=(2.0, 5.0))
    # fabricate an "after" result identical to "before": no latency increase
    fake_after = EquilibriumResult(
        path_flows=verdict.before_result.path_flows,
        edge_flows=verdict.before_result.edge_flows,
        type_latencies=verdict.before_result.type_latencies,
        max_wardrop_violation=0.0,
        backend="hand",
        iterations=0,
    )
    diag = cycle_diagnostics(instance, verdict.before_result, fake_after)
    assert not diag.latency_condition_holds
    assert diag.refutes_ibp
