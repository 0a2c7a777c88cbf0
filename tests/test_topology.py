import itertools
import random

import pytest

from ibpcheck import core_graph, topology
from ibpcheck.core_graph import (
    MultiGraph,
    ValidationReport,
    decompose_blocks,
    validate,
)
from ibpcheck.errors import InvalidNetwork, PathCapExceeded
from ibpcheck.topology import (
    CYCLE,
    COINCIDENT,
    IBP_FREE,
    NOT_IBP_FREE,
    OTHER,
    SingleOdClass,
    common_blocks,
    decide_ibp_free,
)

from conftest import (
    chain_edges,
    chain_with_gadget_middle,
    diamonds_in_series,
    doubled_series_pairs_in_parallel,
    gadget_multigraph,
    grid_graph,
    random_connected_multigraph,
    random_single_od_subnetwork,
    second_od_pair_disconnected,
    triangle_two_od,
    two_parallel_pairs_in_series,
    wheatstone,
)
from oracles import (
    edges_crossed_both_ways,
    is_linearly_independent,
    is_series_parallel_by_definition,
)


def single_od(graph: MultiGraph) -> SingleOdClass:
    return decide_ibp_free(graph).per_od[0]


def pair(graph: MultiGraph, i=0, j=1):
    return common_blocks(graph, decompose_blocks(graph), i, j)


def all_common_blocks_coincident(g: MultiGraph) -> bool:
    """Stricter sufficient condition: every OD is SLI, every common block coincident.

    Implies IBP-free, but not conversely: a shared cycle block with
    different terminal sets is immune yet not coincident.
    """
    report = decide_ibp_free(g)
    return all(cls.is_sli for cls in report.per_od) and all(
        v.kind == COINCIDENT for _, entry in report.pairwise for v in entry.verdicts
    )


# -- series-parallel -------------------------------------------------------------


def test_single_edge_is_sp():
    g = MultiGraph(["u", "v"], [("e", "u", "v")], [("u", "v")])
    assert single_od(g).is_sp
    assert is_series_parallel_by_definition(g, None, "u", "v")


def test_wheatstone_is_not_sp_with_witness():
    assert not single_od(wheatstone()).is_sp
    # the definition's witness: the bridge is crossed in both directions
    assert edges_crossed_both_ways(wheatstone(), None, "o", "d") == ["w3"]


def test_two_parallel_two_edge_paths_are_sp():
    g = MultiGraph(
        ["o", "a", "b", "d"],
        [("e1", "o", "a"), ("e2", "a", "d"), ("e3", "o", "b"), ("e4", "b", "d")],
        [("o", "d")],
    )
    assert single_od(g).is_sp


# -- linear independence -----------------------------------------------------------


def test_parallel_pair_is_li():
    g = MultiGraph(["u", "v"], [("a", "u", "v"), ("b", "u", "v")], [("u", "v")])
    assert single_od(g).is_li
    assert is_linearly_independent(g, None, "u", "v")


def test_series_of_two_parallel_pairs_is_not_li():
    g = two_parallel_pairs_in_series()
    assert not single_od(g).is_li
    assert not is_linearly_independent(g, None, "o", "t")


def test_edge_plus_parallel_pair_in_series_is_li():
    g = MultiGraph(
        ["o", "m", "t"],
        [("e", "o", "m"), ("p1", "m", "t"), ("p2", "m", "t")],
        [("o", "t")],
    )
    assert single_od(g).is_li
    assert is_linearly_independent(g, None, "o", "t")


def test_gadget_subnetworks_are_li():
    g = gadget_multigraph()
    report = decide_ibp_free(g)
    for i, (o, d) in enumerate(g.od_pairs):
        assert report.per_od[i].is_li
        assert is_linearly_independent(g, chain_edges(g, i), o, d)


# -- SLI ----------------------------------------------------------------------------


def test_series_of_parallel_pairs_is_sli_but_not_li():
    g = two_parallel_pairs_in_series()
    report = decide_ibp_free(g)
    assert report.per_od[0].is_sli and not report.per_od[0].is_li
    chain = report.decomposition.chain_blocks(0)
    assert len(chain) == 2
    assert all(is_linearly_independent(g, *block) for block in chain)


def test_parallel_doubling_is_sp_but_not_sli():
    report = decide_ibp_free(doubled_series_pairs_in_parallel())
    assert report.per_od[0].is_sp and not report.per_od[0].is_sli
    assert len(report.decomposition.chains[0]) == 1


def test_single_edge_is_sli():
    g = MultiGraph(["u", "v"], [("e", "u", "v")], [("u", "v")])
    assert single_od(g).is_sli


def test_wheatstone_is_not_sli():
    assert not single_od(wheatstone()).is_sli


# -- recognizer agreement and containment on a random corpus -------------------------


def test_class_containment_and_recognizer_agreement():
    rng = random.Random(20240818)
    checked = 0
    for _ in range(80):
        net = random_single_od_subnetwork(rng, max_vertices=7)
        report = decide_ibp_free(net)
        cls = report.per_od[0]
        o, d = net.od_pairs[0]
        assert cls.is_sp == is_series_parallel_by_definition(net, None, o, d)
        assert cls.is_li == is_linearly_independent(net, None, o, d)
        chain = report.decomposition.chain_blocks(0)
        assert cls.is_sli == all(is_linearly_independent(net, *b) for b in chain)
        if cls.is_li:
            assert cls.is_sli
        if cls.is_sli:
            assert cls.is_sp
        checked += 1
    assert checked == 80


def test_recognizers_need_no_path_enumeration(monkeypatch):
    def no_enumeration(*args, **kwargs):
        raise AssertionError("the verdict enumerated paths")

    monkeypatch.setattr(
        topology, "validate", lambda g: ValidationReport(True, (), (), decompose_blocks(g))
    )
    monkeypatch.setattr(core_graph, "enumerate_simple_paths", no_enumeration)
    g = diamonds_in_series(20)  # 2^20 simple paths, far above the default cap
    report = decide_ibp_free(g)
    assert report.verdict == IBP_FREE
    assert len(report.decomposition.chains[0]) == 20
    assert report.per_od[0] == SingleOdClass(is_sp=True, is_li=False, is_sli=True)


# -- common blocks ---------------------------------------------------------------------


def test_triangle_two_od_is_one_cycle_common_block():
    g = triangle_two_od()
    entry = pair(g)
    assert not entry.disjoint
    assert len(entry.verdicts) == 1
    assert entry.verdicts[0].kind == CYCLE
    # the two subnetworks intersect exactly in the union of the common blocks
    shared = chain_edges(g, 0) & chain_edges(g, 1)
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
    entry = pair(g)
    assert not entry.disjoint
    assert [v.kind for v in entry.verdicts] == [COINCIDENT]


def test_disjoint_subnetworks():
    g = MultiGraph(
        ["a", "m", "b"],
        [("l1", "a", "m"), ("l2", "a", "m"), ("r1", "m", "b"), ("r2", "m", "b")],
        [("a", "m"), ("m", "b")],
    )
    entry = pair(g)
    assert entry.disjoint


def test_gadget_common_block_is_other():
    entry = pair(gadget_multigraph())
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
    assert all_common_blocks_coincident(coincident)
    assert decide_ibp_free(coincident).verdict == IBP_FREE


def test_sufficiency_is_not_necessity_on_shared_cycle():
    g = triangle_two_od()
    assert not all_common_blocks_coincident(g)
    assert decide_ibp_free(g).verdict == IBP_FREE


def test_disjoint_subnetworks_satisfy_sufficient_condition():
    g = MultiGraph(
        ["a", "m", "b"],
        [("l1", "a", "m"), ("l2", "a", "m"), ("r1", "m", "b"), ("r2", "m", "b")],
        [("a", "m"), ("m", "b")],
    )
    assert all_common_blocks_coincident(g)
    assert decide_ibp_free(g).verdict == IBP_FREE


def test_classify_single_od_containment_flags():
    cls = single_od(two_parallel_pairs_in_series())
    assert (cls.is_sp, cls.is_li, cls.is_sli) == (True, False, True)
    cls = single_od(wheatstone())
    assert (cls.is_sp, cls.is_li, cls.is_sli) == (False, False, False)
    cls = single_od(doubled_series_pairs_in_parallel())
    assert (cls.is_sp, cls.is_li, cls.is_sli) == (True, False, False)


# -- one pass over the block decomposition ----------------------------------------------


def test_decide_ibp_free_never_enumerates_paths(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the verdict path listed simple paths")

    monkeypatch.setattr(core_graph, "enumerate_simple_paths", refuse)
    w = wheatstone()
    for g, sp in (
        (MultiGraph(w.vertices, w.edges, [("o", "d"), ("o", "b")]), False),
        (grid_graph(4, 4, [("g0_0", "g3_3"), ("g0_3", "g3_0")]), False),
        (chain_with_gadget_middle(), True),
        (diamonds_in_series(13), True),
    ):
        assert decide_ibp_free(g).per_od[0].is_sp == sp
    # the cap still holds, read off the per-block counts
    with pytest.raises(PathCapExceeded, match="more than 10000"):
        decide_ibp_free(diamonds_in_series(14))


def test_decide_ibp_free_builds_one_block_decomposition(monkeypatch):
    walks = []
    biconnected_blocks = core_graph.biconnected_blocks

    def counting(graph):
        walks.append(graph)
        return biconnected_blocks(graph)

    monkeypatch.setattr(core_graph, "biconnected_blocks", counting)
    for g in (chain_with_gadget_middle(), diamonds_in_series(5), triangle_two_od()):
        walks.clear()
        decide_ibp_free(g)
        assert walks == [g]  # validate's walk, shared with the verdict


def test_a_disconnected_od_pair_is_an_invalid_network_not_no_path():
    with pytest.raises(InvalidNetwork) as raised:  # a NoPath would escape this
        decide_ibp_free(second_od_pair_disconnected())
    assert str(raised.value) == (
        "graph fails validation: connected=False, uncovered_edges=['e3', 'e4'], "
        "uncovered_vertices=['c', 'd', 'e']"
    )


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
        dec = decompose_blocks(g)
        assert report.decomposition == dec
        decided += 1
        for i, cls in enumerate(report.per_od):
            o, d = od[i]
            edges = chain_edges(g, i)
            assert cls.is_sp == is_series_parallel_by_definition(g, edges, o, d)
            assert cls.is_li == is_linearly_independent(g, edges, o, d)
            sli = all(is_linearly_independent(g, *b) for b in dec.chain_blocks(i))
            assert cls.is_sli == sli
            non_sp += not cls.is_sp
        entries = dict(report.pairwise)
        for i, j in itertools.combinations(range(len(od)), 2):
            both_sli = report.per_od[i].is_sli and report.per_od[j].is_sli
            assert ((i, j) in entries) == both_sli
            if both_sli:
                assert entries[(i, j)] == common_blocks(g, dec, i, j)
                pairs += 1
    assert decided > 100 and non_sp > 10 and pairs > 50
