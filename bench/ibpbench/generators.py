"""Seeded input generators for the benchmark workloads.

Every generator returns plain data (lists, dicts, strings and floats), so
that the same seed gives byte-identical inputs and the package sees only
the objects built from them.  The hand-built networks mirror the ones in
the test suite, but are copied here on purpose: editing a test must not
shift a benchmark workload.

A graph spec is ``{"vertices": [...], "edges": [[id, u, v], ...],
"od_pairs": [[o, d], ...]}``.  A game spec adds ``"latencies"`` (edge id to
constant-first coefficients), ``"types"`` (``[rate, od_index, info_set]``)
and optionally ``"extension"`` (edge ids revealed to type 1).
"""

from __future__ import annotations

import random


def graph_spec(vertices, edges, od_pairs) -> dict:
    return {
        "vertices": sorted(set(vertices)),
        "edges": [list(e) for e in edges],
        "od_pairs": [list(p) for p in od_pairs],
    }


# -- hand-built networks -------------------------------------------------------


def gadget(variant: str = "origin") -> dict:
    """Three vertices, four edges, doubled w-v side, two OD pairs."""
    od2 = ["u", "w"] if variant == "origin" else ["v", "w"]
    return graph_spec(
        ["u", "v", "w"],
        [["e1", "u", "v"], ["e2", "u", "w"], ["e3", "w", "v"], ["e4", "w", "v"]],
        [["u", "v"], od2],
    )


def triangle_two_od() -> dict:
    return graph_spec(
        ["x", "y", "z"],
        [["t1", "x", "y"], ["t2", "y", "z"], ["t3", "z", "x"]],
        [["x", "y"], ["y", "z"]],
    )


def wheatstone() -> dict:
    return graph_spec(
        ["o", "a", "b", "d"],
        [["w1", "o", "a"], ["w2", "o", "b"], ["w3", "a", "b"], ["w4", "a", "d"], ["w5", "b", "d"]],
        [["o", "d"]],
    )


def two_parallel_pairs_in_series() -> dict:
    return graph_spec(
        ["o", "m", "t"],
        [["a1", "o", "m"], ["a2", "o", "m"], ["b1", "m", "t"], ["b2", "m", "t"]],
        [["o", "t"]],
    )


def doubled_series_pairs_in_parallel() -> dict:
    return graph_spec(
        ["o", "m1", "m2", "t"],
        [
            ["a1", "o", "m1"], ["a2", "o", "m1"], ["b1", "m1", "t"], ["b2", "m1", "t"],
            ["c1", "o", "m2"], ["c2", "o", "m2"], ["d1", "m2", "t"], ["d2", "m2", "t"],
        ],
        [["o", "t"]],
    )


def k4_three_terminals() -> dict:
    vs = ["n1", "n2", "n3", "n4"]
    edges = [[f"k{a[1]}{b[1]}", a, b] for i, a in enumerate(vs) for b in vs[i + 1:]]
    return graph_spec(vs, edges, [["n1", "n2"], ["n1", "n3"]])


def chain_with_gadget_middle() -> dict:
    """Parallel pair, the gadget block, another parallel pair; one common block."""
    return graph_spec(
        ["p", "u", "v", "w", "q"],
        [
            ["a1", "p", "u"], ["a2", "p", "u"],
            ["e1", "u", "v"], ["e2", "u", "w"], ["e3", "w", "v"], ["e4", "w", "v"],
            ["b1", "v", "q"], ["b2", "v", "q"],
        ],
        [["p", "v"], ["w", "q"]],
    )


def cycle(n_vertices: int, od_pairs) -> dict:
    vs = [f"c{i}" for i in range(n_vertices)]
    edges = [[f"r{i}", vs[i], vs[(i + 1) % n_vertices]] for i in range(n_vertices)]
    return graph_spec(vs, edges, od_pairs)


def antipodal_cycle(n_pairs: int) -> dict:
    """The criterion-4 cycle: 2n vertices, OD pair i joins opposite vertices."""
    return cycle(2 * n_pairs, [[f"c{i}", f"c{i + n_pairs}"] for i in range(n_pairs)])


# Ground truth of the hand-built networks, as published for the topology test.
FIXTURE_NETWORKS = {
    "gadget-origin": (gadget("origin"), False),
    "gadget-destination": (gadget("destination"), False),
    "k4": (k4_three_terminals(), False),
    "gadget-chain": (chain_with_gadget_middle(), False),
    "triangle": (triangle_two_od(), True),
    "cycle4": (cycle(4, [["c0", "c1"], ["c2", "c3"]]), True),
    "wheatstone": (wheatstone(), False),
    "parallel-pairs-series": (two_parallel_pairs_in_series(), True),
    "series-pairs-parallel": (doubled_series_pairs_in_parallel(), False),
}


# -- parametric families ----------------------------------------------------------


def grid(rows: int, cols: int, od_pairs) -> dict:
    """rows x cols lattice; vertex g{r}_{c}, edges h{r}_{c} (right), v{r}_{c} (down)."""
    vs = [f"g{r}_{c}" for r in range(rows) for c in range(cols)]
    edges = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append([f"h{r}_{c}", f"g{r}_{c}", f"g{r}_{c + 1}"])
            if r + 1 < rows:
                edges.append([f"v{r}_{c}", f"g{r}_{c}", f"g{r + 1}_{c}"])
    return graph_spec(vs, edges, od_pairs)


def monotone_grid_path(rng: random.Random, rows: int, cols: int, start, end) -> list[str]:
    """Edge ids of a random shortest lattice path between two grid corners."""
    (r, c), (r1, c1) = start, end
    dr, dc = (1 if r1 > r else -1), (1 if c1 > c else -1)
    moves = ["r"] * abs(r1 - r) + ["c"] * abs(c1 - c)
    rng.shuffle(moves)
    path = []
    for move in moves:
        if move == "r":
            top = min(r, r + dr)
            path.append(f"v{top}_{c}")
            r += dr
        else:
            left = min(c, c + dc)
            path.append(f"h{r}_{left}")
            c += dc
    return path


def diamonds_in_series(k: int, second_od_from: int | None = None) -> dict:
    """k diamonds joined at cut vertices s0..sk: 2**k simple s0-sk paths.

    With `second_od_from = j`, a second OD pair (s_j, s_k) shares blocks
    j..k-1 with the first, entering and leaving each at the same cut
    vertices, so every common block is coincident and the network stays
    IBP-free.
    """
    vs = [f"s{i}" for i in range(k + 1)]
    edges = []
    for i in range(k):
        a, b = f"a{i}", f"b{i}"
        vs += [a, b]
        edges += [
            [f"d{i}a0", f"s{i}", a], [f"d{i}a1", a, f"s{i + 1}"],
            [f"d{i}b0", f"s{i}", b], [f"d{i}b1", b, f"s{i + 1}"],
        ]
    od = [["s0", f"s{k}"]]
    if second_od_from is not None:
        od.append([f"s{second_od_from}", f"s{k}"])
    return graph_spec(vs, edges, od)


def parallel_links(n_links: int) -> dict:
    return graph_spec(
        ["s", "t"], [[f"l{i:02d}", "s", "t"] for i in range(n_links)], [["s", "t"]]
    )


def _paths(spec: dict, s: str, t: str) -> list[list[str]]:
    """All simple s-t paths, by depth-first search."""
    adj: dict[str, list[tuple[str, str]]] = {v: [] for v in spec["vertices"]}
    for eid, u, v in spec["edges"]:
        adj[u].append((eid, v))
        adj[v].append((eid, u))
    found: list[list[str]] = []
    stack = [(s, [], {s})]
    while stack:
        v, path, seen = stack.pop()
        for eid, w in sorted(adj[v], reverse=True):
            if w == t:
                found.append(path + [eid])
            elif w not in seen:
                stack.append((w, path + [eid], seen | {w}))
    return found


def random_multi_od_network(rng: random.Random, n: int, n_extra: int, n_od: int) -> dict:
    """Random connected multigraph on n vertices with n_od OD pairs.

    A random spanning tree plus n_extra extra, possibly parallel, edges; only
    edges that lie on some simple OD path are kept, and draws whose kept
    edges fall apart are redrawn, so the network passes validation.
    """
    while True:
        vs = [f"v{i}" for i in range(n)]
        edges = [[f"g{i - 1:02d}", vs[i], vs[rng.randrange(i)]] for i in range(1, n)]
        for extra in range(n_extra):
            u, v = rng.sample(vs, 2)
            edges.append([f"g{n - 1 + extra:02d}", u, v])
        od = [rng.sample(vs, 2) for _ in range(n_od)]
        spec = graph_spec(vs, edges, od)
        used = {eid for o, d in od for p in _paths(spec, o, d) for eid in p}
        kept = [e for e in edges if e[0] in used]
        kept_vs = {w for _, a, b in kept for w in (a, b)}
        if len(kept) >= 3 and _connected(kept_vs, kept) and all(
            o in kept_vs and d in kept_vs for o, d in od
        ):
            return graph_spec(kept_vs, kept, od)


def _connected(vertices, edges) -> bool:
    if not vertices:
        return False
    reached = {min(vertices)}
    grew = True
    while grew:
        grew = False
        for _, a, b in edges:
            if (a in reached) != (b in reached):
                reached |= {a, b}
                grew = True
    return reached == set(vertices)


# -- games --------------------------------------------------------------------------


def affine(rng: random.Random) -> list[float]:
    return [round(rng.uniform(1.0, 10.0), 3), round(rng.uniform(0.5, 4.0), 3)]


def quadratic(rng: random.Random) -> list[float]:
    return affine(rng) + [round(rng.uniform(0.05, 0.5), 3)]


def bpr_quartic(rng: random.Random) -> list[float]:
    """Free-flow time t0 times 1 + 0.15 (x / capacity)^4, expanded."""
    t0 = round(rng.uniform(1.0, 10.0), 3)
    capacity = round(rng.uniform(2.0, 6.0), 3)
    return [t0, 0.0, 0.0, 0.0, 0.15 * t0 / capacity**4]


LATENCY_CLASSES = {"affine": affine, "quadratic": quadratic, "quartic": bpr_quartic}


def grid_game(rng: random.Random, rows: int, cols: int, latency_class: str) -> dict:
    """Three types on a grid: one with full information, two with subsets.

    Type 0 and type 2 travel corner to opposite corner, type 1 along the
    other diagonal.  A partial information set is a random shortest lattice
    path plus each other edge with probability 0.7.
    """
    top_left, bottom_right = (0, 0), (rows - 1, cols - 1)
    top_right, bottom_left = (0, cols - 1), (rows - 1, 0)
    name = lambda rc: f"g{rc[0]}_{rc[1]}"
    spec = grid(rows, cols, [[name(top_left), name(bottom_right)], [name(top_right), name(bottom_left)]])
    all_edges = [e[0] for e in spec["edges"]]

    def partial(start, end) -> list[str]:
        base = set(monotone_grid_path(rng, rows, cols, start, end))
        return sorted(base | {e for e in all_edges if rng.random() < 0.7})

    draw = LATENCY_CLASSES[latency_class]
    spec["latencies"] = {eid: draw(rng) for eid in all_edges}
    spec["types"] = [
        [float(rng.randint(2, 6)), 0, sorted(all_edges)],
        [float(rng.randint(2, 6)), 1, partial(top_right, bottom_left)],
        [float(rng.randint(2, 6)), 0, partial(top_left, bottom_right)],
    ]
    return spec


GADGET_LATENCIES = {"e1": [0.0], "e2": [0.0, 4.0], "e3": [22.0, 1.0], "e4": [10.0, 2.0]}


def gadget_game(variant: str = "origin", scale: float = 1.0) -> dict:
    """The published 47 -> 48 paradox instance, every latency times `scale`."""
    spec = gadget(variant)
    spec["latencies"] = {e: [c * scale for c in cs] for e, cs in GADGET_LATENCIES.items()}
    spec["types"] = [[5.0, 0, ["e2", "e3"]], [5.0, 1, ["e1", "e2", "e4"]]]
    spec["extension"] = ["e4"]
    return spec


def parallel_links_game(rng: random.Random, n_links: int, scale: float = 1.0) -> dict:
    """One type on n parallel links; it knows about half of them.

    The extension reveals the rest, so the instance file also serves
    check-ibp.  Parallel links are series-parallel, hence IBP-free: the
    paradox must never be reported.  All links share one free-flow time,
    so every known link carries flow at equilibrium and the `exact`
    backend's support search costs the same from seed to seed.
    """
    spec = parallel_links(n_links)
    ids = [e[0] for e in spec["edges"]]
    free = rng.uniform(1.0, 10.0)
    spec["latencies"] = {
        e: [round(free * scale, 6), round(rng.uniform(0.5, 4.0) * scale, 6)] for e in ids
    }
    known = sorted(rng.sample(ids, max(1, n_links // 2)))
    spec["types"] = [[float(rng.randint(2, 12)), 0, known]]
    if len(known) < n_links:
        spec["extension"] = sorted(set(ids) - set(known))
    return spec


def instance_document(spec: dict) -> dict:
    """The instance-file form of a game spec (docs/instance.schema.json)."""
    data = {
        "schema_version": 1,
        "vertices": list(spec["vertices"]),
        "edges": [
            {"id": eid, "endpoints": [u, v], "latency": list(spec["latencies"][eid])}
            for eid, u, v in spec["edges"]
        ],
        "od_pairs": [{"origin": o, "destination": d} for o, d in spec["od_pairs"]],
        "types": [
            {"rate": rate, "od_index": od, "info_set": sorted(info)}
            for rate, od, info in spec["types"]
        ],
    }
    if spec.get("extension"):
        data["extension"] = {"added_edges": sorted(spec["extension"])}
    return data
