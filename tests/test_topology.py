import itertools
import random

import pytest

from ibpcheck import core_graph
from ibpcheck.core_graph import (
    MultiGraph,
    Subnetwork,
    decompose_blocks,
    od_subnetwork,
    validate,
)
from ibpcheck.errors import NotSingleOd, PreconditionNotSli
from ibpcheck.topology import (
    CYCLE,
    COINCIDENT,
    IBP_FREE,
    NOT_IBP_FREE,
    OTHER,
    OppositeTraversal,
    PathWithoutPrivateEdge,
    check_sufficient_coincident,
    classify_common_blocks,
    classify_single_od,
    decide_ibp_free,
    is_linearly_independent,
    is_linearly_independent_recursive,
    is_series_parallel,
    is_series_parallel_by_definition,
    is_sli,
)

from conftest import (
    chain_with_gadget_middle,
    diamonds_in_series,
    doubled_series_pairs_in_parallel,
    gadget_multigraph,
    grid_graph,
    random_connected_multigraph,
    random_single_od_subnetwork,
    triangle_two_od,
    two_parallel_pairs_in_series,
    wheatstone,
)


def single_od(graph: MultiGraph) -> Subnetwork:
    return od_subnetwork(graph, 0)


# -- series-parallel -------------------------------------------------------------


def test_single_edge_is_sp():
    g = MultiGraph(["u", "v"], [("e", "u", "v")], [("u", "v")])
    ok, witness = is_series_parallel(single_od(g))
    assert ok and witness is None


def test_wheatstone_is_not_sp_with_witness():
    ok, witness = is_series_parallel(single_od(wheatstone()))
    assert not ok
    assert isinstance(witness, OppositeTraversal)
    assert witness.edge == "w3"
    assert set(witness.path_a) != set(witness.path_b)


def test_two_parallel_two_edge_paths_are_sp():
    g = MultiGraph(
        ["o", "a", "b", "d"],
        [("e1", "o", "a"), ("e2", "a", "d"), ("e3", "o", "b"), ("e4", "b", "d")],
        [("o", "d")],
    )
    ok, _ = is_series_parallel(single_od(g))
    assert ok


def test_not_single_od_raises():
    g = wheatstone()
    bogus = Subnetwork(
        parent=g, edge_subset=frozenset({"w1", "w2", "w3"}), terminal_pair=("o", "d")
    )
    with pytest.raises(NotSingleOd):
        is_series_parallel(bogus)


# -- linear independence -----------------------------------------------------------


def test_parallel_pair_is_li():
    g = MultiGraph(["u", "v"], [("a", "u", "v"), ("b", "u", "v")], [("u", "v")])
    ok, _ = is_linearly_independent(single_od(g))
    assert ok


def test_series_of_two_parallel_pairs_is_not_li():
    ok, witness = is_linearly_independent(single_od(two_parallel_pairs_in_series()))
    assert not ok
    assert isinstance(witness, PathWithoutPrivateEdge)
    assert len(witness.path) == 2


def test_edge_plus_parallel_pair_in_series_is_li():
    g = MultiGraph(
        ["o", "m", "t"],
        [("e", "o", "m"), ("p1", "m", "t"), ("p2", "m", "t")],
        [("o", "t")],
    )
    assert is_linearly_independent(single_od(g))[0]
    assert is_linearly_independent_recursive(single_od(g))


def test_gadget_subnetworks_are_li():
    g = gadget_multigraph()
    for i in (0, 1):
        assert is_linearly_independent(od_subnetwork(g, i))[0]


# -- SLI ----------------------------------------------------------------------------


def test_series_of_parallel_pairs_is_sli_but_not_li():
    net = single_od(two_parallel_pairs_in_series())
    assert not is_linearly_independent(net)[0]
    ok, chain = is_sli(net)
    assert ok
    assert len(chain) == 2
    assert all(b.is_li for b in chain)


def test_parallel_doubling_is_sp_but_not_sli():
    net = single_od(doubled_series_pairs_in_parallel())
    assert is_series_parallel(net)[0]
    ok, chain = is_sli(net)
    assert not ok
    assert len(chain) == 1


def test_single_edge_is_sli():
    g = MultiGraph(["u", "v"], [("e", "u", "v")], [("u", "v")])
    assert is_sli(single_od(g))[0]


def test_wheatstone_is_not_sli():
    assert not is_sli(single_od(wheatstone()))[0]


# -- recognizer agreement and containment on a random corpus -------------------------


def test_class_containment_and_recognizer_agreement():
    rng = random.Random(20240818)
    checked = 0
    for _ in range(80):
        net = random_single_od_subnetwork(rng, max_vertices=7)
        sp, _ = is_series_parallel(net)
        sp_def, _ = is_series_parallel_by_definition(net)
        assert sp == sp_def
        li, _ = is_linearly_independent(net)
        assert li == is_linearly_independent_recursive(net)
        sli, chain = is_sli(net)
        for b in chain:
            block = Subnetwork(net.parent, b.edges, (b.origin, b.destination))
            assert b.is_li == is_linearly_independent(block)[0]
        if li:
            assert sli
        if sli:
            assert sp
        checked += 1
    assert checked == 80


def test_recognizers_need_no_path_enumeration():
    g = diamonds_in_series(20)  # 2^20 simple paths, far above the default cap
    net = od_subnetwork(g, 0)
    assert net.edge_subset == g.edge_ids
    assert len(decompose_blocks(g).chains[0]) == 20
    assert is_series_parallel(net) == (True, None)
    ok, chain = is_sli(net)
    assert ok and len(chain) == 20
    assert not is_linearly_independent_recursive(net)


# -- common blocks ---------------------------------------------------------------------


def test_triangle_two_od_is_one_cycle_common_block():
    g = triangle_two_od()
    entry = classify_common_blocks(g, 0, 1)
    assert not entry.disjoint
    assert len(entry.verdicts) == 1
    assert entry.verdicts[0].kind == CYCLE
    # the two subnetworks intersect exactly in the union of the common blocks
    shared = od_subnetwork(g, 0).edge_subset & od_subnetwork(g, 1).edge_subset
    assert shared == decompose_blocks(g).block_edges(entry.verdicts[0].block_id)


def test_coincident_middle_block():
    # two ODs share the middle parallel pair with identical terminals
    g = MultiGraph(
        ["a", "m", "n", "b"],
        [
            ("l1", "a", "m"),
            ("mid1", "m", "n"),
            ("mid2", "m", "n"),
            ("r1", "n", "b"),
        ],
        [("a", "n"), ("m", "b")],
    )
    entry = classify_common_blocks(g, 0, 1)
    assert not entry.disjoint
    assert [v.kind for v in entry.verdicts] == [COINCIDENT]


def test_disjoint_subnetworks():
    g = MultiGraph(
        ["a", "m", "b"],
        [("l1", "a", "m"), ("l2", "a", "m"), ("r1", "m", "b"), ("r2", "m", "b")],
        [("a", "m"), ("m", "b")],
    )
    entry = classify_common_blocks(g, 0, 1)
    assert entry.disjoint


def test_classify_requires_sli():
    g = MultiGraph(
        wheatstone().vertices,
        wheatstone().edges,
        [("o", "d"), ("a", "b")],
    )
    with pytest.raises(PreconditionNotSli):
        classify_common_blocks(g, 0, 1)


def test_gadget_common_block_is_other():
    entry = classify_common_blocks(gadget_multigraph(), 0, 1)
    assert [v.kind for v in entry.verdicts] == [OTHER]


# -- final verdict ----------------------------------------------------------------------


def test_gadget_graph_is_not_ibp_free():
    report = decide_ibp_free(gadget_multigraph())
    assert report.verdict == NOT_IBP_FREE
    assert report.failure_site.condition == "common-block"
    assert report.failure_site.od_pair_indices == (0, 1)


def test_triangle_two_od_is_ibp_free():
    report = decide_ibp_free(triangle_two_od())
    assert report.verdict == IBP_FREE
    assert report.failure_site is None


def test_wheatstone_fails_sli_condition():
    report = decide_ibp_free(wheatstone())
    assert report.verdict == NOT_IBP_FREE
    assert report.failure_site.condition == "sli"
    assert report.failure_site.od_index == 0


def test_chain_with_gadget_middle_fails_common_block():
    report = decide_ibp_free(chain_with_gadget_middle())
    assert report.verdict == NOT_IBP_FREE
    assert report.failure_site.condition == "common-block"


def test_sufficient_condition_implies_ibp_free():
    coincident = MultiGraph(
        ["a", "m", "n", "b"],
        [
            ("l1", "a", "m"),
            ("mid1", "m", "n"),
            ("mid2", "m", "n"),
            ("r1", "n", "b"),
        ],
        [("a", "n"), ("m", "b")],
    )
    assert check_sufficient_coincident(coincident)
    assert decide_ibp_free(coincident).verdict == IBP_FREE


def test_sufficiency_is_not_necessity_on_shared_cycle():
    g = triangle_two_od()
    assert not check_sufficient_coincident(g)
    assert decide_ibp_free(g).verdict == IBP_FREE


def test_disjoint_subnetworks_satisfy_sufficient_condition():
    g = MultiGraph(
        ["a", "m", "b"],
        [("l1", "a", "m"), ("l2", "a", "m"), ("r1", "m", "b"), ("r2", "m", "b")],
        [("a", "m"), ("m", "b")],
    )
    assert check_sufficient_coincident(g)
    assert decide_ibp_free(g).verdict == IBP_FREE


def test_classify_single_od_containment_flags():
    cls = classify_single_od(single_od(two_parallel_pairs_in_series()))
    assert (cls.is_sp, cls.is_li, cls.is_sli) == (True, False, True)
    cls = classify_single_od(single_od(wheatstone()))
    assert (cls.is_sp, cls.is_li, cls.is_sli) == (False, False, False)
    cls = classify_single_od(single_od(doubled_series_pairs_in_parallel()))
    assert (cls.is_sp, cls.is_li, cls.is_sli) == (True, False, False)


# -- one pass over the block decomposition ----------------------------------------------


def test_decide_ibp_free_enumerates_only_in_validate(monkeypatch):
    calls = []
    enumerate_simple_paths = core_graph.enumerate_simple_paths

    def counting(*args, **kwargs):
        calls.append(args[1:3])
        return enumerate_simple_paths(*args, **kwargs)

    monkeypatch.setattr(core_graph, "enumerate_simple_paths", counting)
    w = wheatstone()
    for g in (
        MultiGraph(w.vertices, w.edges, [("o", "d"), ("o", "b")]),
        grid_graph(4, 4, [("g0_0", "g3_3"), ("g0_3", "g3_0")]),
    ):
        calls.clear()
        report = decide_ibp_free(g)
        assert not report.per_od[0].is_sp  # a witness would need enumeration
        assert calls == list(g.od_pairs)  # one coverage walk per OD pair


def test_one_pass_verdict_agrees_with_per_subnetwork_route():
    rng = random.Random(20261018)
    decided = non_sp = pairs = 0
    for _ in range(400):
        g = random_connected_multigraph(rng, max_vertices=7, max_extra=5)
        if len(g.vertices) < 2:
            continue
        od = [tuple(rng.sample(sorted(g.vertices), 2)) for _ in range(rng.randint(1, 3))]
        g = MultiGraph(g.vertices, g.edges, od)
        if not validate(g).ok:
            continue
        report = decide_ibp_free(g)
        decided += 1
        for i, cls in enumerate(report.per_od):
            sub = od_subnetwork(g, i)
            assert cls == classify_single_od(sub)
            # reduction == definition is asserted inside is_series_parallel
            sp, witness = is_series_parallel(sub)
            assert (sp, witness is None) == (cls.is_sp, cls.is_sp)
            non_sp += not sp
        entries = dict(report.pairwise)
        for i, j in itertools.combinations(range(len(od)), 2):
            if (i, j) in entries:
                assert entries[(i, j)] == classify_common_blocks(g, i, j)
                pairs += 1
            else:
                with pytest.raises(PreconditionNotSli):
                    classify_common_blocks(g, i, j)
    assert decided > 100 and non_sp > 10 and pairs > 50
