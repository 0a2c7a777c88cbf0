"""Undirected multigraph core: paths, blocks, and minor operations.

Networks are undirected connected multigraphs with named parallel edges,
no loops, and a list of origin-destination (OD) terminal pairs.  All values
are immutable; every operation returns fresh objects, so everything here is
safe to call from multiple threads.

`decompose_blocks` gives the biconnected blocks of the whole graph and, from
one walk of its block-cut tree, every OD pair's block chain in linear time
per pair; the union of a chain's blocks is that pair's OD subnetwork.
`validate` reads coverage off the same chains without listing a path: an
edge is covered iff it lies in a chain block.  It still raises past the
10,000-path cap until ROADMAP item 1 moves the cap's pin; a pair's path
count is the product of its per-block counts, and a per-block degree bound
settles most pairs, a frontier DP counting the rest exactly.  The report
hands the decomposition on to the topology verdict.  Path enumeration is
exhaustive and capped (default 10,000 paths, past which it raises); it
serves the solver's path sets, the randomized search, the cycle
diagnostics and the test oracles, not `validate`, the topology verdict or
the gadget embedding.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field
from functools import cached_property
from math import prod
from typing import Iterable, Optional, Sequence

from .errors import (
    EdgeNotFound,
    GraphOperationError,
    InvalidNetwork,
    NoPath,
    PathCapExceeded,
    TerminalMergeForbidden,
)

DEFAULT_PATH_CAP = 10_000

Path = tuple[str, ...]  # ordered edge-id sequence
ChainBlock = tuple[frozenset[str], str, str]  # block edges, entry, leave


@dataclass(frozen=True)
class MultiGraph:
    """Undirected multigraph with edge ids, parallel edges, and OD pairs.

    A path is an edge-id sequence, never a vertex sequence: with parallel
    edges only the ids disambiguate which copy a path uses.
    """

    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str, str], ...]  # (edge id, endpoint, endpoint)
    od_pairs: tuple[tuple[str, str], ...]

    def __init__(
        self,
        vertices: Iterable[str],
        edges: Iterable[Sequence[str]],
        od_pairs: Iterable[Sequence[str]],
    ):
        object.__setattr__(self, "vertices", tuple(sorted(set(vertices))))
        object.__setattr__(
            self, "edges", tuple((str(e[0]), str(e[1]), str(e[2])) for e in edges)
        )
        object.__setattr__(
            self, "od_pairs", tuple((str(p[0]), str(p[1])) for p in od_pairs)
        )
        self._check_structure()

    def _check_structure(self) -> None:
        vertex_set = set(self.vertices)
        seen_ids = set()
        for eid, u, v in self.edges:
            if eid in seen_ids:
                raise InvalidNetwork(f"duplicate edge id {eid!r}")
            seen_ids.add(eid)
            if u == v:
                raise InvalidNetwork(f"edge {eid!r} is a loop at {u!r}")
            if u not in vertex_set or v not in vertex_set:
                raise InvalidNetwork(f"edge {eid!r} has an unknown endpoint")
        for o, d in self.od_pairs:
            if o == d:
                raise InvalidNetwork(f"OD pair ({o!r}, {d!r}) has equal terminals")
            if o not in vertex_set or d not in vertex_set:
                raise InvalidNetwork(f"OD pair ({o!r}, {d!r}) names unknown vertices")

    # -- lookups -------------------------------------------------------------

    @cached_property
    def edge_map(self) -> dict[str, tuple[str, str]]:
        return {eid: (u, v) for eid, u, v in self.edges}

    @cached_property
    def edge_ids(self) -> frozenset[str]:
        return frozenset(self.edge_map)

    @cached_property
    def adjacency(self) -> dict[str, tuple[tuple[str, str], ...]]:
        """Per vertex: (edge id, other endpoint) sorted by edge id."""
        adj: dict[str, list[tuple[str, str]]] = {v: [] for v in self.vertices}
        for eid, u, v in self.edges:
            adj[u].append((eid, v))
            adj[v].append((eid, u))
        return {v: tuple(sorted(inc)) for v, inc in adj.items()}

    def endpoints(self, eid: str) -> tuple[str, str]:
        try:
            return self.edge_map[eid]
        except KeyError:
            raise EdgeNotFound(eid) from None

    def parallel_ids(self, u: str, v: str) -> tuple[str, ...]:
        """Ids of all edges joining u and v, sorted."""
        pair = frozenset((u, v))
        return tuple(
            sorted(eid for eid, a, b in self.edges if frozenset((a, b)) == pair)
        )

    @property
    def terminals(self) -> frozenset[str]:
        return frozenset(v for pair in self.od_pairs for v in pair)

    def path_vertices(self, path: Path, start: str) -> tuple[str, ...]:
        """Vertex sequence of an edge path beginning at `start`."""
        seq = [start]
        for eid in path:
            u, v = self.endpoints(eid)
            if seq[-1] == u:
                seq.append(v)
            elif seq[-1] == v:
                seq.append(u)
            else:
                raise ValueError(f"edge {eid!r} does not continue the path")
        return tuple(seq)

    def induced(
        self, edge_subset: Iterable[str], od_pairs: Iterable[Sequence[str]]
    ) -> "MultiGraph":
        """Subgraph on an edge subset, keeping only incident vertices."""
        keep = set(edge_subset)
        edges = [e for e in self.edges if e[0] in keep]
        missing = keep - {e[0] for e in edges}
        if missing:
            raise EdgeNotFound(sorted(missing)[0])
        vertices = {u for _, u, v in edges} | {v for _, u, v in edges}
        return MultiGraph(vertices, edges, od_pairs)


# -- validation ----------------------------------------------------------------


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of :func:`validate`; downstream operations need `ok`."""

    connected: bool
    uncovered_edges: tuple[str, ...]
    uncovered_vertices: tuple[str, ...]
    decomposition: Optional[BlockDecomposition] = field(compare=False, repr=False)

    @property
    def ok(self) -> bool:
        return (
            self.connected
            and not self.uncovered_edges
            and not self.uncovered_vertices
        )


def connected_components(graph: MultiGraph) -> list[frozenset[str]]:
    seen: set[str] = set()
    comps = []
    for v in graph.vertices:
        if v in seen:
            continue
        comp = {v}
        queue = deque([v])
        while queue:
            cur = queue.popleft()
            for _, other in graph.adjacency[cur]:
                if other not in comp:
                    comp.add(other)
                    queue.append(other)
        seen |= comp
        comps.append(frozenset(comp))
    return comps


def validate(graph: MultiGraph) -> ValidationReport:
    """Report connectivity and OD-path coverage (construction rejects loops).

    Every edge and every vertex must lie on at least one simple OD path;
    violating elements are listed rather than raised so callers can render
    a full diagnosis.  Coverage is read off the OD chains: a simple o-d path
    is one simple entry-leave path in each chain block, and every edge of a
    block lies on such a path (a bond's edges are paths themselves, and a
    2-connected block has a simple path through any edge between any two
    distinct vertices), so an edge is covered iff it lies in a chain block.
    A disconnected pair covers nothing.

    No path is listed.  Raises PathCapExceeded once a pair has more than
    `DEFAULT_PATH_CAP` simple paths, the product of its per-block counts;
    the cap stays until ROADMAP item 1 moves the benchmark's pin on it.  A
    pair whose per-block degree bounds multiply to at most the cap is under
    it; only otherwise are its blocks' paths counted exactly, by a frontier
    DP, and a bound never stands in for a count.

    The report carries the block decomposition it was read from, or None
    when some OD pair is disconnected (where `decompose_blocks` raises).
    """
    blocks, cuts, chains = _block_cut_chains(graph)
    covered_edges: set[str] = set()
    for chain in chains:
        links = [
            (link.origin, link.destination, blocks[link.block_id].edges)
            for link in chain or ()
        ]
        for _, _, edges in links:
            covered_edges |= edges
        if prod(_path_bound(graph, *link) for link in links) <= DEFAULT_PATH_CAP:
            continue
        count = 1
        for link in links:
            count *= _count_simple_paths(graph, *link)
            if count > DEFAULT_PATH_CAP:
                raise PathCapExceeded(DEFAULT_PATH_CAP)
    # an OD path has at least one edge, so its vertices are its edges' endpoints
    covered_vertices = {v for eid in covered_edges for v in graph.endpoints(eid)}
    return ValidationReport(
        connected=len(connected_components(graph)) <= 1,
        uncovered_edges=tuple(sorted(graph.edge_ids - covered_edges)),
        uncovered_vertices=tuple(sorted(set(graph.vertices) - covered_vertices)),
        decomposition=(
            None if None in chains else BlockDecomposition(blocks, cuts, tuple(chains))
        ),
    )


def _path_bound(graph: MultiGraph, s: str, t: str, edges: frozenset[str]) -> int:
    """Upper bound on the simple s-t paths over `edges`: deg(s) times
    max(1, deg - 1) for every other vertex but t, degrees taken on `edges`.

    A path picks one of deg(s) edges at s and, at each later vertex, one of
    the deg - 1 edges it did not arrive by, so one such choice per vertex
    fixes it.  Exact on a bond (deg(s) parallel edges) and a cycle (2).
    """
    degree = Counter(v for eid in edges for v in graph.edge_map[eid])
    bound = degree[s]
    for v, d in degree.items():
        if v != s and v != t:
            bound *= max(1, d - 1)
    return bound


def _count_simple_paths(
    graph: MultiGraph, s: str, t: str, edges: frozenset[str]
) -> int:
    """Number of simple s-t paths over `edges`, by a frontier DP.

    Knuth's SIMPATH: the edges are decided one at a time in BFS order from
    s.  A vertex is on the frontier from its first edge to its last, and a
    state records each frontier vertex's mate: itself while it has no
    chosen edge, -1 once it has two, else the other end of its path
    fragment.  s and t take one edge, every other vertex none or two, and
    no edge may close a fragment into a cycle.  Counts are exact ints.
    """
    pos = {s: 0}
    queue = deque([s])
    while queue:
        v = queue.popleft()
        for eid, w in graph.adjacency[v]:
            if eid in edges and w not in pos:
                pos[w] = len(pos)
                queue.append(w)
    if t not in pos:
        return 0
    S, T = 0, pos[t]
    order = sorted(  # edges of s's component, as (vertex, later vertex, id)
        (*sorted((pos[u], pos[v])), eid)
        for eid in edges
        for u, v in (graph.edge_map[eid],)
        if u in pos
    )
    last = {}  # vertex -> index of its last edge, where it leaves the frontier
    for k, (u, v, _) in enumerate(order):
        last[u] = last[v] = k

    total = 0
    frontier: list[int] = []
    states: dict[tuple[int, ...], int] = {(): 1}  # mates of frontier -> paths
    for k, (u, v, _) in enumerate(order):
        for w in (u, v):
            if w not in frontier:
                frontier.append(w)
                states = {st + (w,): n for st, n in states.items()}
        index = {w: i for i, w in enumerate(frontier)}
        iu, iv = index[u], index[v]
        u_end, v_end = u in (S, T), v in (S, T)
        # after its last edge a vertex leaves the frontier: s and t with
        # their one edge, any other vertex with none or two
        gone = sorted(
            ((index[w], w, w in (S, T)) for w in (u, v) if last[w] == k), reverse=True
        )
        nxt: dict[tuple[int, ...], int] = {}

        def settle(m: tuple[int, ...], n: int) -> None:
            for i, w, end in gone:
                x = m[i]
                if (x == w or x == -1) if end else (x != w and x != -1):
                    return
                m = m[:i] + m[i + 1 :]
            nxt[m] = nxt.get(m, 0) + n

        for st, n in states.items():
            settle(st, n)  # edge left out
            mu, mv = st[iu], st[iv]
            if mu == -1 or mv == -1 or mu == v:  # interior, or closes a cycle
                continue
            if (u_end and mu != u) or (v_end and mv != v):
                continue  # a terminal takes one edge
            m = list(st)
            if mu == u:
                m[iu] = mv
            else:
                m[iu] = -1
                j = index.get(mu)
                if j is not None:
                    m[j] = mv
            if mv == v:
                m[iv] = mu
            else:
                m[iv] = -1
                j = index.get(mv)
                if j is not None:
                    m[j] = mu
            if {mu, mv} == {S, T}:  # the fragment runs from s to t
                if all(x == w or x == -1 or w in (S, T) for w, x in zip(frontier, m)):
                    total += n  # every later edge left out; no open fragment
            else:
                settle(tuple(m), n)
        states = nxt
        for _, w, _ in gone:
            frontier.remove(w)
    return total


# -- simple path enumeration ---------------------------------------------------


def enumerate_simple_paths(
    graph: MultiGraph,
    s: str,
    t: str,
    allowed_edges: Optional[Iterable[str]] = None,
    max_paths: int = DEFAULT_PATH_CAP,
) -> tuple[Path, ...]:
    """All simple s-t paths as edge-id sequences, lexicographically ordered.

    `allowed_edges` restricts the usable edge set (information sets, blocks).
    Raises PathCapExceeded once more than `max_paths` paths are found.  It
    serves the solver's path sets, the randomized search, the diagnostics
    and the test oracles; `validate` counts paths and never lists them.
    """
    if s == t:
        raise ValueError("path enumeration requires distinct endpoints")
    allowed = graph.edge_ids if allowed_edges is None else frozenset(allowed_edges)
    if s not in graph.adjacency or t not in graph.adjacency:
        return ()

    paths: list[Path] = []
    path: list[str] = []
    visited = {s}

    def walk(v: str) -> None:
        for eid, other in graph.adjacency[v]:  # sorted by edge id -> lex order
            if eid not in allowed or other in visited:
                continue
            path.append(eid)
            if other == t:
                if len(paths) >= max_paths:
                    raise PathCapExceeded(max_paths)
                paths.append(tuple(path))
            else:
                visited.add(other)
                walk(other)
                visited.remove(other)
            path.pop()

    walk(s)
    return tuple(paths)


# -- biconnected decomposition ---------------------------------------------------


@dataclass(frozen=True)
class Block:
    id: int
    edges: frozenset[str]


@dataclass(frozen=True)
class ChainLink:
    """One block of an OD chain together with its induced terminal pair."""

    block_id: int
    origin: str
    destination: str


@dataclass(frozen=True)
class BlockDecomposition:
    blocks: tuple[Block, ...]
    cut_vertices: frozenset[str]
    chains: tuple[tuple[ChainLink, ...], ...]  # per OD index

    def block_edges(self, block_id: int) -> frozenset[str]:
        return self.blocks[block_id].edges

    def chain_blocks(self, i: int) -> tuple[ChainBlock, ...]:
        """OD i's chain as (block edges, entry, leave) triples."""
        return tuple(
            (self.block_edges(link.block_id), link.origin, link.destination)
            for link in self.chains[i]
        )


def biconnected_blocks(graph: MultiGraph) -> tuple[list[frozenset[str]], set[str]]:
    """Hopcroft-Tarjan on a multigraph; parallel edges share one block.

    Only the entering edge id is skipped at each vertex, so a second parallel
    edge back to the parent correctly acts as a back edge.
    """
    disc: dict[str, int] = {}
    low: dict[str, int] = {}
    estack: list[str] = []
    blocks: list[frozenset[str]] = []
    cuts: set[str] = set()
    counter = 0

    for root in graph.vertices:
        if root in disc:
            continue
        disc[root] = low[root] = counter
        counter += 1
        root_children = 0
        stack: list[tuple[str, Optional[str], Iterable]] = [
            (root, None, iter(graph.adjacency[root]))
        ]
        while stack:
            v, in_edge, it = stack[-1]
            step = next(it, None)
            if step is None:
                stack.pop()
                if stack:
                    u = stack[-1][0]
                    low[u] = min(low[u], low[v])
                    if low[v] >= disc[u]:
                        if u == root:
                            root_children += 1
                        else:
                            cuts.add(u)
                        block: set[str] = set()
                        while True:
                            eid = estack.pop()
                            block.add(eid)
                            if eid == in_edge:
                                break
                        blocks.append(frozenset(block))
                continue
            eid, w = step
            if eid == in_edge:
                continue
            if w not in disc:
                disc[w] = low[w] = counter
                counter += 1
                estack.append(eid)
                stack.append((w, eid, iter(graph.adjacency[w])))
            elif disc[w] < disc[v]:
                estack.append(eid)
                low[v] = min(low[v], disc[w])
        if root_children >= 2:
            cuts.add(root)
    return blocks, cuts


def _block_cut_chains(
    graph: MultiGraph,
) -> tuple[tuple[Block, ...], frozenset[str], list[Optional[tuple[ChainLink, ...]]]]:
    """`decompose_blocks`'s blocks, cut vertices and chains, where a
    disconnected OD pair's chain is None."""
    blocks, cuts = biconnected_blocks(graph)
    # tree nodes: a block is its index, a cut vertex is its name
    tree: dict[object, list] = {v: [] for v in cuts}
    home: dict[str, int] = {}  # non-cut vertex -> its only block
    for bi, bl in enumerate(blocks):
        tree[bi] = []
        for v in {w for eid in bl for w in graph.endpoints(eid)}:
            if v in cuts:
                tree[v].append(bi)
                tree[bi].append(v)
            else:
                home[v] = bi

    chains: list[Optional[tuple[ChainLink, ...]]] = []
    for o, d in graph.od_pairs:
        src = o if o in cuts else home.get(o)
        dst = d if d in cuts else home.get(d)
        prev: dict[object, object] = {src: None}
        queue = deque([src])
        while queue and dst not in prev:
            cur = queue.popleft()
            for nxt in tree.get(cur, ()):  # an isolated terminal has no node
                if nxt not in prev:
                    prev[nxt] = cur
                    queue.append(nxt)
        if dst is None or dst not in prev:
            chains.append(None)
            continue
        nodes = [dst]
        while prev[nodes[-1]] is not None:
            nodes.append(prev[nodes[-1]])
        nodes.reverse()
        chain = []
        entry = o
        for k, node in enumerate(nodes):
            if isinstance(node, int):
                leave = nodes[k + 1] if k + 1 < len(nodes) else d
                chain.append(ChainLink(node, entry, leave))
                entry = leave
        chains.append(tuple(chain))
    return tuple(Block(i, bl) for i, bl in enumerate(blocks)), frozenset(cuts), chains


def decompose_blocks(graph: MultiGraph) -> BlockDecomposition:
    """Biconnected blocks and cut vertices of the graph, and each OD chain.

    OD i's chain lists the blocks on the block-cut-tree path from o to d,
    each with the vertex where the path enters and leaves it.  In a
    2-connected block every edge lies on a simple path between any two
    distinct vertices, so the chain's blocks are exactly the blocks of the
    o-d subnetwork and their union is every edge on a simple o-d path.
    Raises NoPath when a pair is disconnected.
    """
    blocks, cuts, chains = _block_cut_chains(graph)
    for (o, d), chain in zip(graph.od_pairs, chains):
        if chain is None:
            raise NoPath(f"terminals {o!r} and {d!r} are disconnected")
    return BlockDecomposition(blocks, cuts, tuple(chains))


# -- minor operations ------------------------------------------------------------


@dataclass(frozen=True)
class EmbeddingStep:
    """One edge deletion or contraction of a nice-embedding sequence."""

    kind: str  # "delete" | "contract"
    edge: str
    merged_vertex_name: Optional[str] = None

    def __post_init__(self):
        if self.kind not in ("delete", "contract"):
            raise ValueError(f"unknown step kind {self.kind!r}")
        if self.kind == "contract" and not self.merged_vertex_name:
            raise ValueError("contract steps need a merged vertex name")

    @staticmethod
    def delete(edge: str) -> "EmbeddingStep":
        return EmbeddingStep("delete", edge)

    @staticmethod
    def contract(edge: str, merged_vertex_name: str) -> "EmbeddingStep":
        return EmbeddingStep("contract", edge, merged_vertex_name)


def apply_embedding_step(graph: MultiGraph, step: EmbeddingStep) -> MultiGraph:
    """Delete or contract one edge, preserving OD terminal distinctness.

    Contraction re-homes any terminal sitting on the contracted edge to the
    merged vertex and refuses to merge the two terminals of a single OD pair.
    Parallel partners of a contracted edge would become loops, which the graph
    type forbids, so that contraction is rejected too.
    """
    u, v = graph.endpoints(step.edge)

    if step.kind == "delete":
        edges = [e for e in graph.edges if e[0] != step.edge]
        used = {w for _, a, b in edges for w in (a, b)}
        isolated = set(graph.vertices) - used
        if isolated & graph.terminals:
            raise GraphOperationError(
                f"deleting {step.edge!r} would isolate a terminal vertex"
            )
        return MultiGraph(used, edges, graph.od_pairs)

    # contract
    for o, d in graph.od_pairs:
        if {o, d} == {u, v}:
            raise TerminalMergeForbidden(
                f"contracting {step.edge!r} would merge OD pair ({o!r}, {d!r})"
            )
    if len(graph.parallel_ids(u, v)) > 1:
        raise GraphOperationError(
            f"contracting {step.edge!r} would turn a parallel edge into a loop"
        )
    name = step.merged_vertex_name
    assert name is not None
    if name in graph.vertices and name not in (u, v):
        raise GraphOperationError(f"merged vertex name {name!r} already in use")

    def rename(w: str) -> str:
        return name if w in (u, v) else w

    edges = [
        (eid, rename(a), rename(b)) for eid, a, b in graph.edges if eid != step.edge
    ]
    vertices = {rename(w) for w in graph.vertices}
    od_pairs = [(rename(o), rename(d)) for o, d in graph.od_pairs]
    return MultiGraph(vertices, edges, od_pairs)


def is_cycle(graph: MultiGraph, edge_subset: Optional[Iterable[str]] = None) -> bool:
    """True iff the (sub)graph is a single cycle.

    A pair of parallel edges counts as a degenerate 2-cycle; a single edge
    does not.
    """
    if edge_subset is None:
        edge_ids = graph.edge_ids
    else:
        edge_ids = frozenset(edge_subset)
    if len(edge_ids) < 2:
        return False
    degree: dict[str, int] = {}
    for eid in edge_ids:
        u, v = graph.endpoints(eid)
        degree[u] = degree.get(u, 0) + 1
        degree[v] = degree.get(v, 0) + 1
    if len(edge_ids) != len(degree):
        return False
    if any(d != 2 for d in degree.values()):
        return False
    # degree-2 everywhere and |E| == |V|: connected iff one component
    start = next(iter(degree))
    seen = {start}
    queue = deque([start])
    while queue:
        cur = queue.popleft()
        for eid, other in graph.adjacency[cur]:
            if eid in edge_ids and other not in seen:
                seen.add(other)
                queue.append(other)
    return len(seen) == len(degree)
