import itertools
import random
import re
import sys
from fractions import Fraction

import pytest

from ibpcheck.core_graph import (
    EmbeddingStep,
    MultiGraph,
    biconnected_blocks,
    cheapest_path,
    connected_components,
    decompose_blocks,
    enumerate_simple_paths,
    is_cycle,
    is_simple_path,
    validate,
)
from ibpcheck.errors import EdgeNotFound, InvalidNetwork, PathCapExceeded
from ibpcheck.topology import IBP_FREE, NOT_IBP_FREE, common_blocks, decide_ibp_free

from conftest import (
    chain_edges,
    diamonds_in_series,
    gadget_multigraph,
    grid_graph,
    long_path_game,
    random_connected_multigraph,
    series_bundles,
    triangle_two_od,
    two_parallel_pairs_in_series,
)
from oracles import (
    GraphOperationError,
    TerminalMergeForbidden,
    apply_embedding_step,
    path_vertices,
    simple_paths,
    validate_by_enumeration,
)


# -- construction and validation ----------------------------------------------


def test_loop_edges_rejected():
    with pytest.raises(InvalidNetwork):
        MultiGraph(["a"], [("e", "a", "a")], [])


def test_duplicate_edge_ids_rejected():
    with pytest.raises(InvalidNetwork):
        MultiGraph(["a", "b"], [("e", "a", "b"), ("e", "b", "a")], [])


def test_equal_od_terminals_rejected():
    with pytest.raises(InvalidNetwork):
        MultiGraph(["a", "b"], [("e", "a", "b")], [("a", "a")])


def test_single_edge_network_is_valid():
    g = MultiGraph(["u", "v"], [("e", "u", "v")], [("u", "v")])
    validate(g)


def test_gadget_graph_is_valid():
    validate(gadget_multigraph())


def _fault_message(connected, uncovered_edges, uncovered_vertices) -> str:
    return (
        f"graph fails validation: connected={connected}, "
        f"uncovered_edges={list(uncovered_edges)}, "
        f"uncovered_vertices={list(uncovered_vertices)}"
    )


def _validation_outcome(g: MultiGraph):
    """What validate gives: its decomposition or its InvalidNetwork message."""
    try:
        return validate(g)
    except InvalidNetwork as exc:
        return str(exc)


def test_pendant_edge_not_on_any_od_path_is_flagged():
    g = MultiGraph(
        ["x", "y", "z", "p"],
        [("t1", "x", "y"), ("t2", "y", "z"), ("t3", "z", "x"), ("pe", "z", "p")],
        [("x", "y")],
    )
    with pytest.raises(InvalidNetwork, match=re.escape(_fault_message(True, ["pe"], ["p"]))):
        validate(g)
    with pytest.raises(InvalidNetwork, match="uncovered_edges=\\['pe'\\]"):
        decide_ibp_free(g)


def test_validate_covers_the_vertices_of_every_od_path():
    # literal definition: a vertex is covered when some simple OD path visits it
    rng = random.Random(4242)
    for _ in range(150):
        g = random_connected_multigraph(rng, max_vertices=7)
        if len(g.vertices) < 2:
            continue
        pairs = [tuple(rng.sample(sorted(g.vertices), 2)) for _ in range(rng.randint(1, 2))]
        g = MultiGraph(g.vertices, g.edges, pairs)
        visited = {
            v
            for o, d in pairs
            for path in enumerate_simple_paths(g, o, d)
            for v in path_vertices(g, path, o)
        }
        outcome = _validation_outcome(g)
        uncovered = sorted(set(g.vertices) - visited)
        if isinstance(outcome, str):
            assert outcome.endswith(f", uncovered_vertices={uncovered}")
        else:
            assert uncovered == []


def test_disconnected_graph_reported():
    g = MultiGraph(
        ["a", "b", "c", "d"],
        [("e1", "a", "b"), ("e2", "c", "d")],
        [("a", "b")],
    )
    with pytest.raises(InvalidNetwork, match=re.escape(_fault_message(False, ["e2"], ["c", "d"]))):
        validate(g)


def _random_validation_case(rng: random.Random) -> MultiGraph:
    """A multigraph that may be disconnected, with 1-3 OD pairs.

    A vertex left off the spanning tree starts a second component or stays
    isolated; tree edges give pendant edges.  One case in eight also joins
    two vertices by a chain of parallel-edge bundles whose path count
    straddles the default enumeration cap, and puts an OD pair on its ends.
    """
    n = rng.randint(2, 8)
    vs = [f"v{i}" for i in range(n)]
    edges = []
    for i in range(1, n):
        if rng.random() < 0.85:
            edges.append((f"g{len(edges):02d}", vs[i], vs[rng.randrange(i)]))
    for _ in range(rng.randint(0, 5)):
        u, v = rng.sample(vs, 2)
        edges.append((f"g{len(edges):02d}", u, v))
    pairs = [tuple(rng.sample(vs, 2)) for _ in range(rng.randint(1, 3))]
    if rng.random() < 0.125:
        ends = rng.sample(vs, 2)
        chain = series_bundles([rng.randint(6, 14) for _ in range(4)])
        at = {"j0": ends[0], "j4": ends[1]}
        vs += [v for v in chain.vertices if v not in at]
        edges += [(eid, at.get(u, u), at.get(v, v)) for eid, u, v in chain.edges]
        pairs[0] = tuple(ends)
    return MultiGraph(vs, edges, pairs)


def test_validate_agrees_with_the_enumerating_oracle():
    rng = random.Random(1313)
    disconnected = isolated_terminals = uncovered = capped = bundled = 0
    for _ in range(300):
        g = _random_validation_case(rng)
        try:
            expected = validate_by_enumeration(g)
        except PathCapExceeded:  # validate has no cap; list every path uncapped
            expected = validate_by_enumeration(g, capped=False)
            capped += 1
        else:  # the bundle-collapsing route agrees with the whole path set
            assert validate_by_enumeration(g, capped=False) == expected
        dec = decompose_blocks(g)
        if expected.ok:
            assert validate(g) == dec
        else:
            with pytest.raises(InvalidNetwork) as raised:
                validate(g)
            assert str(raised.value) == _fault_message(
                expected.connected, expected.uncovered_edges, expected.uncovered_vertices
            )
        components = connected_components(g)
        for (o, d), chain in zip(g.od_pairs, dec.chains):
            joined = any(o in comp and d in comp for comp in components)
            assert (chain != ()) == joined  # a disconnected pair's chain is empty
            for link in chain:
                assert link.edges == dec.blocks[link.block_id]
        disconnected += not expected.connected
        isolated_terminals += any(not g.adjacency[v] for pair in g.od_pairs for v in pair)
        uncovered += bool(expected.uncovered_edges)
        bundled += any(eid.startswith("b") for eid in g.edge_ids)
    assert disconnected > 30 and isolated_terminals > 10 and uncovered > 100
    assert capped > 10 and bundled > 5


def _k4s_in_series(k, bond=0):
    """k copies of K4 joined at cut vertices, then a bundle of `bond` parallel
    edges, one OD pair end to end: 5^k * max(1, bond) paths."""
    edges = []
    for i in range(k):
        quad = [f"j{i}", f"x{i}", f"y{i}", f"j{i + 1}"]
        edges += [
            (f"k{i}_{a}{b}", quad[a], quad[b]) for a, b in itertools.combinations(range(4), 2)
        ]
    edges += [(f"b{i}", f"j{k}", f"j{k + 1}") for i in range(bond)]
    vertices = {v for _, u, w in edges for v in (u, w)}
    return MultiGraph(vertices, edges, [("j0", f"j{k + bool(bond)}")])


def _corner_grid(n):
    return grid_graph(n, n, [("g0_0", f"g{n - 1}_{n - 1}"), (f"g0_{n - 1}", f"g{n - 1}_0")])


def test_validate_path_cap_boundary():
    """`validate` counts no paths.  The cap's boundary is the verdict's, on a
    series-parallel chain; a chain that is not SP is never SLI, so it gets
    its verdict whatever its path count."""
    under = (series_bundles([10, 10, 10, 10]), series_bundles([10_000]))  # exactly 10,000
    over = (series_bundles([10, 10, 10, 10, 2]), series_bundles([10_001]), diamonds_in_series(14))
    not_sp = (
        _k4s_in_series(5),  # 5^5 paths
        _k4s_in_series(6),  # 15,625 paths
        _k4s_in_series(4, bond=16),  # 10,000 paths
        _k4s_in_series(4, bond=17),
        _corner_grid(5),  # 8,512 paths per pair
        _corner_grid(6),  # 1,262,816 paths per pair
    )
    for g in (*under, *over, *not_sp):
        assert validate(g) == decompose_blocks(g)
    for g in under:
        assert decide_ibp_free(g).verdict == IBP_FREE
    for g in over:
        with pytest.raises(PathCapExceeded, match="more than 10000"):
            decide_ibp_free(g)
    for g in not_sp:
        report = decide_ibp_free(g)
        assert report.verdict == NOT_IBP_FREE and not report.per_od[0].is_sp
        assert report.failure_site.condition == "sli"
    # an invalid network is reported as such, past the cap or not
    d = diamonds_in_series(14)
    pendant = MultiGraph((*d.vertices, "p"), (*d.edges, ("pe", "j0", "p")), d.od_pairs)
    with pytest.raises(InvalidNetwork, match=re.escape(_fault_message(True, ["pe"], ["p"]))):
        decide_ibp_free(pendant)


def test_validate_raises_no_path_cap(monkeypatch):
    import ibpcheck.core_graph as core_graph

    def refuse(*args, **kwargs):
        raise AssertionError("validate listed simple paths")

    monkeypatch.setattr(core_graph, "enumerate_simple_paths", refuse)
    k4s = _k4s_in_series(8, bond=3)
    for g in (
        diamonds_in_series(14),
        diamonds_in_series(20),
        diamonds_in_series(200),
        grid_graph(10, 10, [("g0_0", "g9_9")]),
        _corner_grid(10),
        k4s,
    ):
        assert validate(g) == decompose_blocks(g)
    assert len(decompose_blocks(k4s).chains[0]) == 9


# -- path enumeration -----------------------------------------------------------


def test_parallel_edges_give_two_paths():
    g = MultiGraph(["u", "v"], [("a", "u", "v"), ("b", "u", "v")], [("u", "v")])
    assert enumerate_simple_paths(g, "u", "v") == (("a",), ("b",))


def test_gadget_paths_within_restricted_edge_sets():
    g = gadget_multigraph()
    assert enumerate_simple_paths(g, "u", "v", {"e2", "e3", "e4"}) == (
        ("e2", "e3"),
        ("e2", "e4"),
    )
    assert enumerate_simple_paths(g, "u", "v", {"e2", "e3"}) == (("e2", "e3"),)


def test_paths_ordered_lexicographically():
    g = gadget_multigraph()
    paths = enumerate_simple_paths(g, "u", "v")
    assert paths == (("e1",), ("e2", "e3"), ("e2", "e4"))
    assert list(paths) == sorted(paths)


def test_path_cap_enforced():
    # 2^13 = 8,192 paths fit under the 10,000-path cap; 2^14 = 16,384 do not
    g = diamonds_in_series(13)
    assert len(enumerate_simple_paths(g, "j0", "j13")) == 2**13
    g = diamonds_in_series(14)
    with pytest.raises(PathCapExceeded, match="more than 10000"):
        enumerate_simple_paths(g, "j0", "j14")


def test_same_endpoints_rejected():
    g = gadget_multigraph()
    with pytest.raises(ValueError):
        enumerate_simple_paths(g, "u", "u")


def _oracle_count_paths(g: MultiGraph, s: str, t: str) -> int:
    """Independent recursive count over adjacency, no ordering logic."""

    def rec(v, used_vertices, used_edges):
        if v == t:
            return 1
        total = 0
        for eid, other in g.adjacency[v]:
            if eid in used_edges or other in used_vertices:
                continue
            total += rec(other, used_vertices | {other}, used_edges | {eid})
        return total

    return rec(s, {s}, set())


def test_enumeration_matches_recursive_oracle_on_random_graphs():
    rng = random.Random(20240817)
    for _ in range(60):
        g = random_connected_multigraph(rng, max_vertices=8)
        if len(g.vertices) < 2:
            continue
        s, t = rng.sample(sorted(g.vertices), 2)
        paths = enumerate_simple_paths(g, s, t)
        assert paths == simple_paths(g, s, t)
        assert len(paths) == _oracle_count_paths(g, s, t)
        assert list(paths) == sorted(set(paths))  # distinct, in lexicographic order


def test_enumeration_walks_a_path_longer_than_the_recursion_limit():
    n = 3000
    assert sys.getrecursionlimit() < n
    g = long_path_game(n).graph
    (path,) = enumerate_simple_paths(g, "v0", f"v{n}")
    assert path == tuple(sorted(g.edge_ids))


# -- OD subnetworks --------------------------------------------------------------


def test_gadget_od0_subnetwork_covers_all_edges():
    assert chain_edges(gadget_multigraph(), 0) == frozenset({"e1", "e2", "e3", "e4"})


def test_od_pair_inside_one_block_stays_in_it():
    g = two_parallel_pairs_in_series()
    g2 = MultiGraph(g.vertices, g.edges, [("o", "m")])
    assert chain_edges(g2, 0) == frozenset({"a1", "a2"})


def test_two_triangles_far_ends_cover_everything():
    g = MultiGraph(
        ["o", "a", "m", "b", "d"],
        [
            ("e1", "o", "a"),
            ("e2", "a", "m"),
            ("e3", "o", "m"),
            ("e4", "m", "b"),
            ("e5", "b", "d"),
            ("e6", "m", "d"),
        ],
        [("o", "d")],
    )
    assert chain_edges(g, 0) == g.edge_ids


def test_od_subnetwork_idempotent_on_random_graphs():
    rng = random.Random(7)
    for _ in range(40):
        g = random_connected_multigraph(rng)
        if len(g.vertices) < 2:
            continue
        s, t = rng.sample(sorted(g.vertices), 2)
        if not enumerate_simple_paths(g, s, t):
            continue
        g_od = MultiGraph(g.vertices, g.edges, [(s, t)])
        sub = g_od.induced(chain_edges(g_od), [(s, t)])
        assert chain_edges(sub) == sub.edge_ids


def _chain_by_enumeration(g: MultiGraph, o: str, d: str):
    """The OD chain from the subnetwork's own blocks, walked from o to d."""
    paths = simple_paths(g, o, d)
    sub = g.induced({eid for p in paths for eid in p}, [(o, d)])
    blocks, _ = biconnected_blocks(sub)
    vertices = {bl: {w for eid in bl for w in sub.endpoints(eid)} for bl in blocks}
    chain, entry, rest = [], o, set(blocks)
    while rest:
        (bl,) = [b for b in rest if entry in vertices[b]]
        rest.remove(bl)
        if rest:
            (leave,) = {w for w in vertices[bl] if any(w in vertices[b] for b in rest)}
        else:
            leave = d
        chain.append((bl, entry, leave))
        entry = leave
    return chain


def test_chains_match_enumerated_subnetworks_on_random_graphs():
    rng = random.Random(20241018)
    for _ in range(150):
        g = random_connected_multigraph(rng, max_vertices=8, max_extra=5)
        if len(g.vertices) < 2:
            continue
        pairs = [tuple(rng.sample(sorted(g.vertices), 2)) for _ in range(rng.randint(1, 3))]
        g = MultiGraph(g.vertices, g.edges, pairs)
        dec = decompose_blocks(g)
        on_paths = []
        for i, (o, d) in enumerate(pairs):
            paths = simple_paths(g, o, d)
            on_paths.append({eid for p in paths for eid in p})
            assert chain_edges(g, i) == on_paths[i]
            chain = [(link.edges, link.origin, link.destination) for link in dec.chains[i]]
            assert chain == _chain_by_enumeration(g, o, d)
        # two OD subnetworks intersect exactly in the union of their common blocks
        table = common_blocks(g, dec)
        for i, j in itertools.combinations(range(len(pairs)), 2):
            verdicts = table.get((i, j), ())
            shared = {eid for v in verdicts for eid in dec.blocks[v.block_id]}
            assert on_paths[i] & on_paths[j] == shared
            assert (not verdicts) == (not shared)


# -- block decomposition -----------------------------------------------------------


def test_single_cycle_is_one_block_without_cut_vertices():
    g = triangle_two_od()
    dec = decompose_blocks(g)
    assert len(dec.blocks) == 1
    assert dec.cut_vertices == frozenset()


def test_two_triangles_sharing_a_vertex():
    g = MultiGraph(
        ["a", "b", "m", "c", "d"],
        [
            ("e1", "a", "b"),
            ("e2", "b", "m"),
            ("e3", "a", "m"),
            ("e4", "m", "c"),
            ("e5", "c", "d"),
            ("e6", "m", "d"),
        ],
        [("a", "d")],
    )
    dec = decompose_blocks(g)
    assert len(dec.blocks) == 2
    assert dec.cut_vertices == frozenset({"m"})


def test_four_block_chain_order_and_terminals():
    # chain v1 - B1 - v2 - B2 - v3 - B3 - v4 - B4 - v5, mixed block shapes
    g = MultiGraph(
        ["v1", "v2", "v3", "v4", "v5", "i1", "i2"],
        [
            ("p1", "v1", "v2"),
            ("p2", "v1", "v2"),
            ("q1", "v2", "i1"),
            ("q2", "i1", "v3"),
            ("q3", "v2", "v3"),
            ("s1", "v3", "v4"),
            ("u1", "v4", "i2"),
            ("u2", "i2", "v5"),
            ("u3", "v4", "v5"),
        ],
        [("v1", "v5")],
    )
    dec = decompose_blocks(g)
    chain = dec.chains[0]
    assert [link.origin for link in chain] == ["v1", "v2", "v3", "v4"]
    assert [link.destination for link in chain] == ["v2", "v3", "v4", "v5"]
    expected = [
        frozenset({"p1", "p2"}),
        frozenset({"q1", "q2", "q3"}),
        frozenset({"s1"}),
        frozenset({"u1", "u2", "u3"}),
    ]
    assert [link.edges for link in chain] == expected


def test_blocks_partition_edges_on_random_graphs():
    rng = random.Random(99)
    for _ in range(40):
        g = random_connected_multigraph(rng)
        blocks, _ = biconnected_blocks(g)
        all_edges = [eid for bl in blocks for eid in bl]
        assert sorted(all_edges) == sorted(g.edge_ids)


def test_cut_vertex_removal_disconnects_random_graphs():
    rng = random.Random(123)
    for _ in range(30):
        g = random_connected_multigraph(rng, max_vertices=7)
        if len(g.vertices) < 3:
            continue
        _, cuts = biconnected_blocks(g)
        for v in g.vertices:
            kept = [e for e in g.edges if v not in (e[1], e[2])]
            rest = [w for w in g.vertices if w != v]
            if not rest:
                continue
            h = MultiGraph(rest, kept, [])
            n_comps = len(connected_components(h))
            if v in cuts:
                assert n_comps > 1
            else:
                assert n_comps == 1


# -- minor operations -----------------------------------------------------------


def test_contract_triangle_edge_gives_parallel_pair():
    g = triangle_two_od()
    h = apply_embedding_step(
        MultiGraph(g.vertices, g.edges, []), EmbeddingStep.contract("t2", "y")
    )
    assert len(h.vertices) == 2
    assert sorted(h.edge_ids) == ["t1", "t3"]
    assert sorted(eid for eid, w in h.adjacency["x"] if w == "y") == ["t1", "t3"]


def test_delete_edge_from_gadget():
    g = gadget_multigraph()
    h = apply_embedding_step(g, EmbeddingStep.delete("e1"))
    assert h.edge_ids == frozenset({"e2", "e3", "e4"})
    assert h.od_pairs == g.od_pairs


def test_contracting_an_od_pair_edge_is_forbidden():
    g = gadget_multigraph()
    with pytest.raises(TerminalMergeForbidden):
        apply_embedding_step(g, EmbeddingStep.contract("e1", "u"))


def test_contracting_edge_with_parallel_partner_is_rejected():
    g = gadget_multigraph()
    with pytest.raises(GraphOperationError):
        apply_embedding_step(g, EmbeddingStep.contract("e3", "w"))


def test_contraction_rehomes_terminal():
    g = MultiGraph(
        ["a", "b", "c"],
        [("e1", "a", "b"), ("e2", "b", "c")],
        [("a", "c")],
    )
    h = apply_embedding_step(g, EmbeddingStep.contract("e2", "m"))
    assert h.od_pairs == (("a", "m"),)
    assert h.edge_ids == frozenset({"e1"})


def test_terminal_guard_is_total_on_random_graphs():
    rng = random.Random(5)
    for _ in range(40):
        g = random_connected_multigraph(rng)
        if len(g.vertices) < 2:
            continue
        s, t = rng.sample(sorted(g.vertices), 2)
        g = MultiGraph(g.vertices, g.edges, [(s, t)])
        for eid, u, v in g.edges:
            try:
                h = apply_embedding_step(g, EmbeddingStep.contract(eid, u))
            except (TerminalMergeForbidden, GraphOperationError):
                continue
            for o, d in h.od_pairs:
                assert o != d


# -- cycle predicate ---------------------------------------------------------------


def test_triangle_is_cycle():
    assert is_cycle(triangle_two_od())


def test_gadget_is_not_cycle():
    assert not is_cycle(gadget_multigraph())


def test_two_parallel_edges_are_a_degenerate_cycle():
    g = MultiGraph(["u", "v"], [("a", "u", "v"), ("b", "u", "v")], [])
    assert is_cycle(g)


def test_single_edge_is_not_a_cycle():
    g = MultiGraph(["u", "v"], [("a", "u", "v")], [])
    assert not is_cycle(g)


def test_a_cycle_beside_an_isolated_vertex_is_not_a_cycle():
    edges = [("r0", "a", "b"), ("r1", "b", "c"), ("r2", "c", "a")]
    assert not is_cycle(MultiGraph(["a", "b", "c", "z"], edges, []))
    assert is_cycle(MultiGraph(["a", "b", "c"], edges, []))
    two_triangles = edges + [("s0", "x", "y"), ("s1", "y", "z"), ("s2", "z", "x")]
    assert not is_cycle(MultiGraph(["a", "b", "c", "x", "y", "z"], two_triangles, []))


def test_edge_subset_variant():
    g = gadget_multigraph()
    assert is_cycle(g.induced({"e3", "e4"}, []))
    assert is_cycle(g.induced({"e1", "e2", "e3"}, []))
    assert not is_cycle(g.induced({"e1", "e2"}, []))


def test_cycle_splits_into_two_edge_disjoint_paths():
    rng = random.Random(31)
    for n in (2, 3, 4, 5, 6):
        vs = [f"c{i}" for i in range(n)]
        edges = [(f"r{i}", vs[i], vs[(i + 1) % n]) for i in range(n)]
        g = MultiGraph(vs, edges, [])
        assert is_cycle(g)
        for _ in range(4):
            a, b = rng.sample(vs, 2)
            paths = enumerate_simple_paths(g, a, b)
            assert len(paths) == 2
            assert set(paths[0]) & set(paths[1]) == set()
            assert set(paths[0]) | set(paths[1]) == set(g.edge_ids)


# -- cheapest paths -----------------------------------------------------------------


def test_cheapest_path_is_a_least_cost_enumerated_path():
    """On random multigraphs, edge subsets and nonnegative int or Fraction
    costs (zeros and ties included), `cheapest_path` is None exactly when
    no simple path exists; otherwise it is one of the enumerated simple
    paths inside the subset, and its cost is theirs at the least."""
    rng = random.Random(35)
    reached = unreached = 0
    for trial in range(400):
        g = random_connected_multigraph(rng)
        s, t = rng.sample(sorted(g.vertices), 2)
        allowed = frozenset(e for e in sorted(g.edge_ids) if rng.random() < 0.7)
        if trial % 2:
            cost = {e: Fraction(rng.randint(0, 6), rng.randint(1, 4)) for e in sorted(g.edge_ids)}
        else:
            cost = {e: rng.randint(0, 6) for e in sorted(g.edge_ids)}
        paths = enumerate_simple_paths(g, s, t, allowed)
        found = cheapest_path(g, s, t, allowed, cost)
        if not paths:
            assert found is None
            unreached += 1
            continue
        dist, path = found
        assert path in paths and is_simple_path(g, path, s, t, allowed)
        assert dist == sum(cost[e] for e in path) == min(sum(cost[e] for e in p) for p in paths)
        reached += 1
    assert reached > 200 and unreached > 30


def test_is_simple_path_rejects_revisits_foreign_edges_and_wrong_ends():
    g = gadget_multigraph()
    assert is_simple_path(g, ("e2", "e3"), "u", "v", g.edge_ids)
    assert not is_simple_path(g, ("e2", "e3"), "u", "v", {"e2"})  # e3 outside the set
    assert not is_simple_path(g, ("e2", "e3", "e4", "e3"), "u", "v", g.edge_ids)  # w twice
    assert not is_simple_path(g, ("e2",), "u", "v", g.edge_ids)  # ends at w
    assert not is_simple_path(g, ("e3",), "u", "v", g.edge_ids)  # does not leave u


def test_unknown_edge_ids_raise_edge_not_found():
    g = gadget_multigraph()
    with pytest.raises(EdgeNotFound, match="nope"):
        g.endpoints("nope")
    with pytest.raises(EdgeNotFound, match="nope"):
        g.induced({"e1", "nope"}, [])
