"""Undirected multigraph core: paths, blocks, and embedding steps.

Networks are undirected connected multigraphs with named parallel edges,
no loops, and a list of origin-destination (OD) terminal pairs.  All values
are immutable; every operation returns fresh objects, so everything here is
safe to call from multiple threads.

`decompose_blocks` is the one block-cut walk: it gives the biconnected
blocks of the whole graph and, from one walk of its block-cut tree, every
OD pair's block chain in linear time per pair.  A chain is a tuple of
`ChainLink`s, each carrying its block's id, entry and leave vertices and
edges; the union of a chain's blocks is that pair's OD subnetwork, and a
disconnected pair's chain is empty.  `validate` reads coverage off the same
chains without listing or counting a path: an edge is covered iff it lies
in a chain block.  It returns the decomposition to the topology verdict or
raises InvalidNetwork naming every fault.  Path enumeration is exhaustive
and capped (it raises past 10,000 paths); it serves the solver's path sets,
the randomized search and the cycle diagnostics, not `validate`, the
topology verdict or the gadget embedding.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence

from .errors import EdgeNotFound, InvalidNetwork, PathCapExceeded

DEFAULT_PATH_CAP = 10_000

Path = tuple[str, ...]  # ordered edge-id sequence


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


def validate(graph: MultiGraph) -> BlockDecomposition:
    """The graph's `decompose_blocks` result, once it is connected and every
    edge and vertex lies on a simple OD path (construction rejects loops).

    Otherwise raises InvalidNetwork naming every fault: connectivity and the
    uncovered edges and vertices.  Coverage is read off the OD chains: a
    simple o-d path is one simple entry-leave path in each chain block, and
    every edge of a block lies on such a path (a bond's edges are paths
    themselves, and a 2-connected block has a simple path through any edge
    between any two distinct vertices), so an edge is covered iff it lies in
    a chain block.  A disconnected pair's chain is empty and covers nothing.
    No path is listed or counted.
    """
    dec = decompose_blocks(graph)
    covered_edges: set[str] = set()
    for chain in dec.chains:
        for link in chain:
            covered_edges |= link.edges
    # an OD path has at least one edge, so its vertices are its edges' endpoints
    covered_vertices = {v for eid in covered_edges for v in graph.endpoints(eid)}
    connected = len(connected_components(graph)) <= 1
    uncovered_edges = sorted(graph.edge_ids - covered_edges)
    uncovered_vertices = sorted(set(graph.vertices) - covered_vertices)
    if not connected or uncovered_edges or uncovered_vertices:
        raise InvalidNetwork(
            f"graph fails validation: connected={connected}, "
            f"uncovered_edges={uncovered_edges}, uncovered_vertices={uncovered_vertices}"
        )
    return dec


# -- simple path enumeration ---------------------------------------------------


def enumerate_simple_paths(
    graph: MultiGraph,
    s: str,
    t: str,
    allowed_edges: Optional[Iterable[str]] = None,
) -> tuple[Path, ...]:
    """All simple s-t paths as edge-id sequences, lexicographically ordered.

    `allowed_edges` restricts the usable edge set (information sets, blocks).
    Raises PathCapExceeded once more than DEFAULT_PATH_CAP paths are found.
    The depth-first walk keeps its own stack, as `biconnected_blocks` does,
    so a long path is not bounded by the recursion limit.  It serves the
    solver's path sets, the randomized search and the cycle diagnostics;
    `validate` never lists paths.
    """
    if s == t:
        raise ValueError("path enumeration requires distinct endpoints")
    allowed = graph.edge_ids if allowed_edges is None else frozenset(allowed_edges)
    if s not in graph.adjacency or t not in graph.adjacency:
        return ()

    adjacency = graph.adjacency  # sorted by edge id -> lex order
    cap = DEFAULT_PATH_CAP
    paths: list[Path] = []
    path: list[str] = []  # edges from s to the top vertex of the stack
    on_path = [s]
    visited = {s}
    stack = [iter(adjacency[s])]
    while stack:
        for eid, other in stack[-1]:
            if eid not in allowed or other in visited:
                continue
            if other == t:
                if len(paths) >= cap:
                    raise PathCapExceeded(cap)
                paths.append((*path, eid))
            else:
                path.append(eid)
                on_path.append(other)
                visited.add(other)
                stack.append(iter(adjacency[other]))
                break
        else:
            stack.pop()
            if path:
                path.pop()
                visited.remove(on_path.pop())
    return tuple(paths)


# -- biconnected decomposition ---------------------------------------------------


@dataclass(frozen=True)
class ChainLink:
    """One block of an OD chain: its id, the vertices where the chain enters
    and leaves it, and its edges."""

    block_id: int
    origin: str
    destination: str
    edges: frozenset[str]


@dataclass(frozen=True)
class BlockDecomposition:
    blocks: tuple[frozenset[str], ...]  # edge sets, indexed by block id
    cut_vertices: frozenset[str]
    chains: tuple[tuple[ChainLink, ...], ...]  # per OD index; () if disconnected


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


def decompose_blocks(graph: MultiGraph) -> BlockDecomposition:
    """Biconnected blocks and cut vertices of the graph, and each OD chain.

    OD i's chain lists the blocks on the block-cut-tree path from o to d,
    each with the vertex where the path enters and leaves it.  In a
    2-connected block every edge lies on a simple path between any two
    distinct vertices, so the chain's blocks are exactly the blocks of the
    o-d subnetwork and their union is every edge on a simple o-d path.  A
    disconnected pair, an isolated terminal's included, has the empty chain.
    """
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

    chains: list[tuple[ChainLink, ...]] = []
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
            chains.append(())
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
                chain.append(ChainLink(node, entry, leave, blocks[node]))
                entry = leave
        chains.append(tuple(chain))
    return BlockDecomposition(tuple(blocks), frozenset(cuts), tuple(chains))


# -- embedding steps -------------------------------------------------------------


@dataclass(frozen=True)
class EmbeddingStep:
    """One edge deletion or contraction of a nice-embedding sequence, as
    `paradox.find_gadget_embedding` returns them."""

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


def is_cycle(graph: MultiGraph) -> bool:
    """True iff the graph is a single cycle.

    A pair of parallel edges counts as a degenerate 2-cycle; a single edge
    does not.
    """
    if len(graph.edges) < 2:
        return False
    degree = Counter(v for _, u, w in graph.edges for v in (u, w))
    if len(graph.edges) != len(degree) or any(d != 2 for d in degree.values()):
        return False
    # degree-2 everywhere and |E| == |V|: connected iff one component
    start = next(iter(degree))
    seen = {start}
    queue = deque([start])
    while queue:
        for _, other in graph.adjacency[queue.popleft()]:
            if other not in seen:
                seen.add(other)
                queue.append(other)
    return len(seen) == len(degree)
