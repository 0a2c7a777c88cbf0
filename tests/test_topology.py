import itertools
import random

import pytest

from ibpcheck import core_graph, topology
from ibpcheck.core_graph import MultiGraph, decompose_blocks, validate
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
    classify_chain_by_union,
    common_blocks_of_pair,
    edges_crossed_both_ways,
    failure_site_by_pair_scan,
    is_linearly_independent,
    is_series_parallel_by_definition,
)


def single_od(graph: MultiGraph) -> SingleOdClass:
    return decide_ibp_free(graph).per_od[0]


def pair(graph: MultiGraph, i=0, j=1):
    """The verdicts of the blocks OD chains i and j share; () when disjoint."""
    return common_blocks(graph, decompose_blocks(graph)).get((i, j), ())


def all_common_blocks_coincident(g: MultiGraph) -> bool:
    """Stricter sufficient condition: every OD is SLI, every common block coincident.

    Implies IBP-free, but not conversely: a shared cycle block with
    different terminal sets is immune yet not coincident.
    """
    report = decide_ibp_free(g)
    table = common_blocks(g, report.decomposition)
    return all(cls.is_sli for cls in report.per_od) and all(
        v.kind == COINCIDENT for verdicts in table.values() for v in verdicts
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
    chain = report.decomposition.chains[0]
    assert len(chain) == 2
    assert all(is_linearly_independent(g, b.edges, b.origin, b.destination) for b in chain)


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
        chain = report.decomposition.chains[0]
        assert cls.is_sli == all(
            is_linearly_independent(net, b.edges, b.origin, b.destination) for b in chain
        )
        assert cls == classify_chain_by_union(net, chain, o, d)
        if cls.is_li:
            assert cls.is_sli
        if cls.is_sli:
            assert cls.is_sp
        checked += 1
    assert checked == 80


def test_recognizers_need_no_path_enumeration(monkeypatch):
    def no_enumeration(*args, **kwargs):
        raise AssertionError("the verdict enumerated paths")

    monkeypatch.setattr(topology, "validate", decompose_blocks)
    monkeypatch.setattr(core_graph, "enumerate_simple_paths", no_enumeration)
    g = diamonds_in_series(20)  # 2^20 simple paths, far above the default cap
    report = decide_ibp_free(g)
    assert report.verdict == IBP_FREE
    assert len(report.decomposition.chains[0]) == 20
    assert report.per_od[0] == SingleOdClass(is_sp=True, is_li=False, is_sli=True)


# -- common blocks ---------------------------------------------------------------------


def test_triangle_two_od_is_one_cycle_common_block():
    g = triangle_two_od()
    verdicts = pair(g)
    assert len(verdicts) == 1
    assert verdicts[0].kind == CYCLE
    # the two subnetworks intersect exactly in the union of the common blocks
    shared = chain_edges(g, 0) & chain_edges(g, 1)
    assert shared == decompose_blocks(g).blocks[verdicts[0].block_id]


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
    assert [v.kind for v in pair(g)] == [COINCIDENT]


def test_disjoint_subnetworks():
    g = MultiGraph(
        ["a", "m", "b"],
        [("l1", "a", "m"), ("l2", "a", "m"), ("r1", "m", "b"), ("r2", "m", "b")],
        [("a", "m"), ("m", "b")],
    )
    assert pair(g) == ()
    assert common_blocks(g, decompose_blocks(g)) == {}


def test_gadget_common_block_is_other():
    assert [v.kind for v in pair(gadget_multigraph())] == [OTHER]


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


def test_the_verdict_reduces_each_link_once_and_tests_each_block_once(monkeypatch):
    # 201 OD pairs along 400 diamonds, each spanning at most 12 of them; half
    # of the pairs end at a diamond's middle vertex, so a diamond shared
    # with a pair passing through is a cycle with another terminal set
    d = diamonds_in_series(400)
    ends = [f"j{min(k + 12, 400)}" if k % 4 == 0 else f"a{k + 11}" for k in range(0, 389, 2)]
    ends += [f"j{min(k + 12, 400)}" for k in range(390, 400, 2)]
    pairs = [(f"j{2 * n}", end) for n, end in enumerate(ends)] + [("j0", "j1")]
    g = MultiGraph(d.vertices, d.edges, pairs)
    dec = decompose_blocks(g)
    table = common_blocks(g, dec)
    mixed = [v.block_id for verdicts in table.values() for v in verdicts if v.kind != COINCIDENT]
    reductions = []
    sp_reduce = topology._sp_reduce

    def counting_reduce(graph, edges, s, t):
        reductions.append(edges)
        return sp_reduce(graph, edges, s, t)

    monkeypatch.setattr(topology, "_sp_reduce", counting_reduce)
    report = decide_ibp_free(g)
    assert len(pairs) == 201 and report.verdict == IBP_FREE
    assert max(len(chain) for chain in report.decomposition.chains) <= 12
    chains = report.decomposition.chains
    links = {(link.block_id, link.origin, link.destination) for c in chains for link in c}
    assert len(reductions) == len(links) < sum(map(len, chains))  # one per (block, terminals)
    # blocks that some two chains enter with different terminals, each met many times
    assert len(mixed) > 3 * len(set(mixed)) > 200
    # each such block's kind, read off its size, is the whole-graph cycle test's
    for i, j in itertools.combinations(range(len(pairs)), 2):
        assert table.get((i, j), ()) == common_blocks_of_pair(g, dec, i, j)


def test_the_verdict_reduces_each_block_once_for_its_terminals(monkeypatch):
    # 201 OD pairs along 400 diamonds, each crossing up to 12 of them between
    # the same joints: 2,371 links, but only 400 (block, terminals) keys
    d = diamonds_in_series(400)
    pairs = [(f"j{k}", f"j{min(k + 12, 400)}") for k in range(0, 400, 2)] + [("j0", "j1")]
    g = MultiGraph(d.vertices, d.edges, pairs)
    reductions = []
    sp_reduce = topology._sp_reduce

    def counting_reduce(graph, edges, s, t):
        reductions.append((edges, s, t))
        return sp_reduce(graph, edges, s, t)

    monkeypatch.setattr(topology, "_sp_reduce", counting_reduce)
    report = decide_ibp_free(g)
    dec = report.decomposition
    assert len(pairs) == 201 and report.verdict == IBP_FREE
    assert sum(map(len, dec.chains)) == 2371
    assert len(reductions) == len(set(reductions)) == 400
    monkeypatch.undo()
    for cls, chain, (o, t) in zip(report.per_od, dec.chains, pairs):
        assert cls == classify_chain_by_union(g, chain, o, t)


def test_a_disconnected_od_pair_is_an_invalid_network_not_no_path():
    with pytest.raises(InvalidNetwork) as raised:  # validate flags the empty chain
        decide_ibp_free(second_od_pair_disconnected())
    assert str(raised.value) == (
        "graph fails validation: connected=False, uncovered_edges=['e3', 'e4'], "
        "uncovered_vertices=['c', 'd', 'e']"
    )


def test_one_pass_verdict_agrees_with_per_subnetwork_route():
    rng = random.Random(20261018)
    decided = non_sp = pairs = shared = 0
    for _ in range(400):
        g = random_connected_multigraph(rng, max_vertices=7, max_extra=5)
        if len(g.vertices) < 2:
            continue
        od = [tuple(rng.sample(sorted(g.vertices), 2)) for _ in range(rng.randint(1, 3))]
        g = MultiGraph(g.vertices, g.edges, od)
        try:
            validate(g)
        except InvalidNetwork:
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
            sli = all(
                is_linearly_independent(g, b.edges, b.origin, b.destination)
                for b in dec.chains[i]
            )
            assert cls.is_sli == sli
            assert cls == classify_chain_by_union(g, dec.chains[i], o, d)
            non_sp += not cls.is_sp
        table = common_blocks(g, dec)
        assert list(table) == sorted(table)
        for i, j in itertools.combinations(range(len(od)), 2):
            expected = common_blocks_of_pair(g, dec, i, j)
            assert ((i, j) in table) == bool(expected)
            assert table.get((i, j), ()) == expected
            pairs += report.per_od[i].is_sli and report.per_od[j].is_sli
            shared += bool(expected)
        assert report.failure_site == failure_site_by_pair_scan(g, dec, report.per_od)
    assert decided > 100 and non_sp > 10 and pairs > 50 and shared > 50
