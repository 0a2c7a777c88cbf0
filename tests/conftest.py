"""Shared fixtures: hand-built networks, games, and seeded random corpora."""

import random

import pytest

from ibpcheck.core_graph import MultiGraph, enumerate_simple_paths, od_subnetwork
from ibpcheck.equilibrium import LatencyFunction, RoutingGame, TravelerType


def gadget_multigraph(variant="origin"):
    """The 3-vertex, 4-edge two-OD gadget (doubled w-v side).

    variant "origin": second OD pair is (u, w); "destination": (v, w).
    """
    od2 = ("u", "w") if variant == "origin" else ("v", "w")
    return MultiGraph(
        vertices=["u", "v", "w"],
        edges=[("e1", "u", "v"), ("e2", "u", "w"), ("e3", "w", "v"), ("e4", "w", "v")],
        od_pairs=[("u", "v"), od2],
    )


def triangle_two_od():
    """Cycle on three vertices with two distinct OD pairs (IBP-free)."""
    return MultiGraph(
        vertices=["x", "y", "z"],
        edges=[("t1", "x", "y"), ("t2", "y", "z"), ("t3", "z", "x")],
        od_pairs=[("x", "y"), ("y", "z")],
    )


def wheatstone():
    """Cycle through o,d with an ear between the two arcs: not SP."""
    return MultiGraph(
        vertices=["o", "a", "b", "d"],
        edges=[
            ("w1", "o", "a"),
            ("w2", "o", "b"),
            ("w3", "a", "b"),
            ("w4", "a", "d"),
            ("w5", "b", "d"),
        ],
        od_pairs=[("o", "d")],
    )


def two_parallel_pairs_in_series():
    """Two parallel pairs joined at a cut vertex: SLI but not LI."""
    return MultiGraph(
        vertices=["o", "m", "t"],
        edges=[("a1", "o", "m"), ("a2", "o", "m"), ("b1", "m", "t"), ("b2", "m", "t")],
        od_pairs=[("o", "t")],
    )


def doubled_series_pairs_in_parallel():
    """Parallel composition of two copies of the series network: SP, not SLI."""
    return MultiGraph(
        vertices=["o", "m1", "m2", "t"],
        edges=[
            ("a1", "o", "m1"),
            ("a2", "o", "m1"),
            ("b1", "m1", "t"),
            ("b2", "m1", "t"),
            ("c1", "o", "m2"),
            ("c2", "o", "m2"),
            ("d1", "m2", "t"),
            ("d2", "m2", "t"),
        ],
        od_pairs=[("o", "t")],
    )


def k4_three_terminals():
    """Complete graph on four vertices, two OD pairs over three terminals."""
    return MultiGraph(
        vertices=["n1", "n2", "n3", "n4"],
        edges=[
            ("k12", "n1", "n2"),
            ("k13", "n1", "n3"),
            ("k14", "n1", "n4"),
            ("k23", "n2", "n3"),
            ("k24", "n2", "n4"),
            ("k34", "n3", "n4"),
        ],
        od_pairs=[("n1", "n2"), ("n1", "n3")],
    )


def chain_with_gadget_middle():
    """Parallel pair, then the gadget block, then another parallel pair.

    OD 0 spans blocks 1-2 with gadget terminals (u, v); OD 1 spans blocks 2-3
    with gadget terminals (w, v): one common block, non-coincident, no cycle.
    """
    return MultiGraph(
        vertices=["p", "u", "v", "w", "q"],
        edges=[
            ("a1", "p", "u"),
            ("a2", "p", "u"),
            ("e1", "u", "v"),
            ("e2", "u", "w"),
            ("e3", "w", "v"),
            ("e4", "w", "v"),
            ("b1", "v", "q"),
            ("b2", "v", "q"),
        ],
        od_pairs=[("p", "v"), ("w", "q")],
    )


def cycle_graph(n_vertices, od_pairs):
    vs = [f"c{i}" for i in range(n_vertices)]
    edges = [
        (f"r{i}", vs[i], vs[(i + 1) % n_vertices]) for i in range(n_vertices)
    ]
    return MultiGraph(vs, edges, od_pairs)


def random_connected_multigraph(rng: random.Random, max_vertices=7, max_extra=4):
    """Random connected multigraph: spanning tree plus extra (maybe parallel) edges."""
    n = rng.randint(2, max_vertices)
    vs = [f"v{i}" for i in range(n)]
    edges = []
    eid = 0
    for i in range(1, n):
        j = rng.randrange(i)
        edges.append((f"g{eid:02d}", vs[i], vs[j]))
        eid += 1
    for _ in range(rng.randint(0, max_extra)):
        u, v = rng.sample(vs, 2) if n > 1 else (vs[0], vs[0])
        edges.append((f"g{eid:02d}", u, v))
        eid += 1
    return MultiGraph(vs, edges, od_pairs=[])


def random_single_od_subnetwork(rng: random.Random, max_vertices=7):
    """A random valid single-OD network, built as an OD subnetwork."""
    while True:
        g = random_connected_multigraph(rng, max_vertices=max_vertices)
        if len(g.vertices) < 2:
            continue
        s, t = rng.sample(sorted(g.vertices), 2)
        if not enumerate_simple_paths(g, s, t):
            continue
        with_od = MultiGraph(g.vertices, g.edges, [(s, t)])
        return od_subnetwork(with_od, 0)


def gadget_game(variant="origin", extended=False):
    """The gadget's routing game: rates 5/5, type-1 info {e2,e3} (+e4 when extended)."""
    from ibpcheck.paradox import GadgetVariant, extended_game, gadget_instance

    gv = (
        GadgetVariant.ORIGIN2_AT_ORIGIN1
        if variant == "origin"
        else GadgetVariant.ORIGIN2_AT_DESTINATION1
    )
    instance = gadget_instance(gv)
    return extended_game(instance) if extended else instance.game


def pigou_game():
    graph = MultiGraph(["s", "t"], [("fast", "s", "t"), ("flat", "s", "t")], [("s", "t")])
    latencies = {"fast": LatencyFunction((0.0, 1.0)), "flat": LatencyFunction((1.0,))}
    return RoutingGame(graph, latencies, [TravelerType(1.0, 0, {"fast", "flat"})])


def random_affine_game(rng: random.Random, max_total_paths=12, max_types=3):
    """Small random affine game; every positive-rate type has a feasible path."""
    while True:
        g = random_connected_multigraph(rng, max_vertices=5, max_extra=3)
        if len(g.vertices) < 2:
            continue
        n_types = rng.randint(1, max_types)
        od_pairs = []
        infos = []
        ok = True
        for _ in range(n_types):
            s, t = rng.sample(sorted(g.vertices), 2)
            paths = enumerate_simple_paths(g, s, t)
            if not paths:
                ok = False
                break
            base = set(rng.choice(paths))
            extras = {e for e in sorted(g.edge_ids) if rng.random() < 0.4}
            od_pairs.append((s, t))
            infos.append(frozenset(base | extras))
        if not ok:
            continue
        graph = MultiGraph(g.vertices, g.edges, od_pairs)
        types = [
            TravelerType(rate=float(rng.randint(1, 8)), od_index=i, info_set=infos[i])
            for i in range(n_types)
        ]
        latencies = {
            eid: LatencyFunction((float(rng.randint(0, 8)), float(rng.randint(0, 5))))
            for eid in sorted(graph.edge_ids)
        }
        game = RoutingGame(graph, latencies, types)
        total = 0
        for j in range(n_types):
            total += len(
                enumerate_simple_paths(
                    graph, *graph.od_pairs[types[j].od_index], types[j].info_set
                )
            )
        if 2 <= total <= max_total_paths:
            return game


def _li_block(rng: random.Random, prefix: str, entry: str, leave: str):
    """Random LI block between two vertices: edge, parallel bundle, or triangle."""
    shape = rng.choice(["edge", "pair", "triple", "triangle"])
    if shape == "edge":
        return [(f"{prefix}0", entry, leave)], []
    if shape == "pair":
        return [(f"{prefix}0", entry, leave), (f"{prefix}1", entry, leave)], []
    if shape == "triple":
        return [
            (f"{prefix}0", entry, leave),
            (f"{prefix}1", entry, leave),
            (f"{prefix}2", entry, leave),
        ], []
    mid = f"{prefix}m"
    return [
        (f"{prefix}0", entry, leave),
        (f"{prefix}1", entry, mid),
        (f"{prefix}2", mid, leave),
    ], [mid]


def random_sli_chain_game(rng: random.Random, max_blocks=4):
    """Chain of random LI blocks with one or two traveler types along it."""
    n_blocks = rng.randint(2, max_blocks)
    joints = [f"j{i}" for i in range(n_blocks + 1)]
    edges = []
    vertices = set(joints)
    for b in range(n_blocks):
        block_edges, extra = _li_block(rng, f"b{b}_", joints[b], joints[b + 1])
        edges.extend(block_edges)
        vertices.update(extra)
    od_pairs = [(joints[0], joints[-1])]
    if n_blocks >= 3 and rng.random() < 0.7:
        od_pairs.append((joints[1], joints[-1]))
    graph = MultiGraph(vertices, edges, od_pairs)
    types = []
    for i, (o, d) in enumerate(od_pairs):
        paths = enumerate_simple_paths(graph, o, d)
        base = set(rng.choice(paths))
        extras = {e for e in sorted(graph.edge_ids) if rng.random() < 0.5}
        types.append(
            TravelerType(
                rate=float(rng.randint(1, 5)), od_index=i, info_set=base | extras
            )
        )
    latencies = {
        eid: LatencyFunction((float(rng.randint(0, 6)), float(rng.randint(0, 4))))
        for eid in sorted(graph.edge_ids)
    }
    return RoutingGame(graph, latencies, types)


def _lattice_path(rng: random.Random, rows, cols, start, end):
    """Edge ids of a random shortest lattice path between two grid corners."""
    (r, c), (r1, c1) = start, end
    dr, dc = (1 if r1 > r else -1), (1 if c1 > c else -1)
    moves = ["r"] * abs(r1 - r) + ["c"] * abs(c1 - c)
    rng.shuffle(moves)
    path = []
    for move in moves:
        if move == "r":
            path.append(f"v{min(r, r + dr)}_{c}")
            r += dr
        else:
            path.append(f"h{r}_{min(c, c + dc)}")
            c += dc
    return path


GRID_LATENCY_DEGREES = (1, 2, 4)


def random_grid_game(rng: random.Random, degree, rows=3, cols=4, sparse=False):
    """Three types on a rows x cols lattice with latencies of degree 1, 2 or 4.

    Types 0 and 2 travel between the top-left and bottom-right corners, type
    1 between the other two.  Dense: type 0 knows every edge, the others a
    random lattice path plus each other edge with probability 0.7.  Sparse:
    every type knows the union of two random lattice paths, so the game has
    few enough paths for the exact backend.  Degree 4 is the BPR function
    t0 (1 + 0.15 (x / capacity)^4).
    """
    vertices = [f"g{r}_{c}" for r in range(rows) for c in range(cols)]
    edges = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((f"h{r}_{c}", f"g{r}_{c}", f"g{r}_{c + 1}"))
            if r + 1 < rows:
                edges.append((f"v{r}_{c}", f"g{r}_{c}", f"g{r + 1}_{c}"))
    all_edges = sorted(e[0] for e in edges)
    corners = [((0, 0), (rows - 1, cols - 1)), ((0, cols - 1), (rows - 1, 0))]
    graph = MultiGraph(
        vertices,
        edges,
        [(f"g{a[0]}_{a[1]}", f"g{b[0]}_{b[1]}") for a, b in corners],
    )

    def latency():
        t0 = rng.uniform(1.0, 10.0)
        if degree == 4:
            capacity = rng.uniform(2.0, 6.0)
            return LatencyFunction((t0, 0.0, 0.0, 0.0, 0.15 * t0 / capacity**4))
        coeffs = [t0, rng.uniform(0.5, 4.0)]
        if degree == 2:
            coeffs.append(rng.uniform(0.05, 0.5))
        return LatencyFunction(coeffs)

    while True:
        latencies = {eid: latency() for eid in all_edges}
        types = []
        for j, od in enumerate((0, 1, 0)):
            start, end = corners[od]
            info = set(_lattice_path(rng, rows, cols, start, end))
            if sparse:
                info |= set(_lattice_path(rng, rows, cols, start, end))
            elif j == 0:
                info = set(all_edges)
            else:
                info |= {e for e in all_edges if rng.random() < 0.7}
            types.append(TravelerType(float(rng.randint(2, 6)), od, info))
        if not sparse or sum(
            len(enumerate_simple_paths(graph, *graph.od_pairs[t.od_index], t.info_set))
            for t in types
        ) <= 12:
            return RoutingGame(graph, latencies, types)


@pytest.fixture
def gadget_graph_a():
    return gadget_multigraph("origin")


@pytest.fixture
def gadget_graph_c():
    return gadget_multigraph("destination")
