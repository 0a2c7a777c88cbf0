import math
import random
from pathlib import Path

import pytest

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
    IsCycleError,
    NotACycle,
    NotNormalForm,
    PreconditionViolated,
    StepsDoNotReproduceSource,
    UnsupportedFailureSite,
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
    lift_by_replay,
    replay_embedding,
)


# -- instance plumbing -----------------------------------------------------------


def test_extension_must_be_nonempty():
    with pytest.raises(InvalidNetwork):
        InformationExtension(())


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
    with pytest.raises(StepsDoNotReproduceSource):
        lift_by_replay(_subdivided_gadget(), [], src)
    with pytest.raises(StepsDoNotReproduceSource):  # the other placement
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
    with pytest.raises(IsCycleError):
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


def test_embedding_dichotomy_on_random_two_od_blocks():
    """2-connected non-coincident blocks: cycle XOR gadget-embeddable."""
    from ibpcheck.core_graph import biconnected_blocks
    from conftest import chain_edges, random_connected_multigraph

    rng = random.Random(321)
    tested = 0
    synthesized = 0
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
        tested += 1
        if is_cycle(cand):
            with pytest.raises(IsCycleError):
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
    with pytest.raises(NotACycle):
        cycle_diagnostics(inst, verdict.before_result, verdict.after_result)


def test_diagnostics_require_normal_form():
    g = cycle_graph(3, [("c0", "c1"), ("c1", "c2")])
    latencies = {eid: LatencyFunction((1.0,)) for eid in g.edge_ids}
    types = [TravelerType(1.0, 0, {"r0"})]  # one type, two OD pairs
    instance = IBPInstance(
        RoutingGame(g, latencies, types), InformationExtension({"r1"})
    )
    verdict = check_ibp(instance)
    with pytest.raises(NotNormalForm):
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
