"""Reference implementations, straight from the definitions, for the tests.

The single-OD classes are a fold of per-block series/parallel reductions
in `ibpcheck.topology`, and `validate` reads coverage block by block along
the OD chains; the functions here evaluate the literal definitions by
enumerating every o-d path instead, with their own uncapped walker
`simple_paths`, so they are exponential in the path count.  The verdict's earlier routes stay here as second routes too: one
reduction over a chain's union for SP and LI, and a pair-by-pair scan of
the common blocks for the failure site.  So does the `cg` sweep as first
written, with a full Wardrop gap every sweep, fresh move edge sets and a
line search on every shift, and a latency call for every moved edge.  The block-local games and the
series-decomposition check restate the SLI consequence that each type's
latency is the sum of its latencies in the blocks of its chain.  The
Beckmann potential (the edge-wise integral of the latencies, minimized by
every equilibrium) and the total rate are evaluated here too, since only
the tests need them.  The gadget embedding's greedy reduction runs here
as first written, rebuilding the graph and its block decomposition for
every candidate step instead of editing one working graph.  An embedding's
step list is checked by replay: `apply_embedding_step` builds the graph
each step leaves, and `lift_by_replay` lifts the gadget through the graph
the replay ends on, where the library lifts through the graph its
reduction returns.  The gadget match is searched as first written, over
every OD order and vertex map, where the library reads it off the shared
terminal.  The tests compare the library against them.
"""

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from ibpcheck.core_graph import (
    BlockDecomposition,
    ChainLink,
    EmbeddingStep,
    MultiGraph,
    Path,
    biconnected_blocks,
    connected_components,
    enumerate_simple_paths,
    is_cycle,
)
from ibpcheck.equilibrium import (
    DEFAULT_MAX_ITERATIONS,
    DEFAULT_TOLERANCE,
    FLOW_EPS,
    EquilibriumResult,
    LatencyFunction,
    RoutingGame,
    TravelerType,
    _CostCore,
    _line_search,
    _solve_support,
    _start_flows,
    feasible_paths,
    solve_icwe,
)
from ibpcheck.errors import (
    DidNotConverge,
    IbpcheckError,
    PreconditionViolated,
    SolverError,
)
from ibpcheck.paradox import (
    GadgetVariant,
    IBPInstance,
    gadget_graph,
    gadget_instance,
    lift_instance,
)
from ibpcheck.topology import (
    COINCIDENT,
    CYCLE,
    OTHER,
    CommonBlockVerdict,
    FailureSite,
    SingleOdClass,
    _sp_reduce,
)


def latency_integral(latency: LatencyFunction, x: float) -> float:
    """Antiderivative at x with F(0) = 0, in closed form."""
    acc = 0.0
    for k in reversed(range(len(latency.coefficients))):
        acc = acc * x + latency.coefficients[k] / (k + 1)
    return acc * x


def beckmann_potential(game: RoutingGame, edge_flows: dict[str, float]) -> float:
    """Edge-wise integral of latencies; minimizers are the equilibria."""
    return sum(
        latency_integral(lat, edge_flows.get(eid, 0.0)) for eid, lat in game.latencies.items()
    )


def total_rate(game: RoutingGame) -> float:
    return sum(t.rate for t in game.types)


def equal_cost_terms(game: RoutingGame, paths: list[tuple[str, ...]]):
    """The data of an affine game's equal-cost system on the given paths:
    each path's constant cost, and for each ordered pair of paths the sum of
    the slopes of the edges they share."""

    def coefficient(eid: str, k: int) -> float:
        c = game.latencies[eid].coefficients
        return c[k] if len(c) > k else 0.0

    const = [sum(coefficient(e, 0) for e in p) for p in paths]
    interact = [
        [sum(coefficient(e, 1) for e in sorted(set(p) & set(q))) for q in paths] for p in paths
    ]
    return const, interact


def solve_by_full_sweeps(
    game: RoutingGame,
    tolerance: float = DEFAULT_TOLERANCE,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
    backend: str = "cg",
    start=None,
) -> EquilibriumResult:
    """`solve_icwe` with backend "cg" or "auto", sweeping the plain way.

    Every sweep computes every contested type's gap, every shift builds its
    move's edge sets afresh and calls `_line_search`, and every moved edge
    calls its `LatencyFunction`; path costs are summed from `map`.  The
    start, the polish and the result are the library's own.  The sweeps
    `solve_icwe` runs must give exactly these floats.
    """
    core = _CostCore(game, [feasible_paths(game, j) for j in range(len(game.types))])
    polish = {"cg": False, "auto": True}[backend]
    flows = _start_flows(core, start)
    core.load(flows)
    edge_flow, edge_lat, edge_sets = core.edge_flow, core.edge_lat, core.edge_sets

    def path_costs(j):
        return [sum(map(core.lat, p)) for p in core.paths[j]]

    def gap():
        worst_gap = 0.0
        for j in core.contested:
            cost = path_costs(j)
            worst = max(cost[k] for k, x in flows[j].items() if x > core.floors[j])
            worst_gap = max(worst_gap, worst - min(cost))
        return worst_gap

    def shift_each_type():
        for j in core.contested:
            cost = path_costs(j)
            best = cost.index(min(cost))
            _, worst = max((cost[k], k) for k, x in flows[j].items() if x > core.floors[j])
            if worst == best or cost[worst] - cost[best] <= tolerance * 1e-3:
                continue
            gain = edge_sets[j][best] - edge_sets[j][worst]
            drop = edge_sets[j][worst] - edge_sets[j][best]
            gamma = _line_search(
                [(core.coeffs[e], edge_flow[e]) for e in gain],
                [(core.coeffs[e], edge_flow[e]) for e in drop],
                sum(map(core.lat, gain)) - sum(map(core.lat, drop)),
                flows[j][worst],
            )
            if gamma <= 0.0:
                continue
            remaining = flows[j][worst] - gamma
            if remaining <= FLOW_EPS * 1e-3:
                gamma += remaining
                del flows[j][worst]
            else:
                flows[j][worst] = remaining
            flows[j][best] = flows[j].get(best, 0.0) + gamma
            for e in gain:
                edge_flow[e] += gamma
                edge_lat[e] = core.functions[e](edge_flow[e])
            for e in drop:
                edge_flow[e] -= gamma
                edge_lat[e] = core.functions[e](edge_flow[e])
            core.costs.clear()

    previous = tried = None
    for sweep in range(max_iterations + 1):
        if sweep:
            shift_each_type()
        violation = gap()
        if violation <= tolerance:
            core.load(flows)
            violation = gap()
        if polish:
            support = core.support(flows)
            if (violation <= tolerance or support == previous) and support != tried:
                tried = support
                saved = edge_flow[:], edge_lat[:]
                polished = _solve_support(core, support, tolerance)
                if polished is not None:
                    return core.result(polished, "exact", sweep)
                edge_flow[:], edge_lat[:] = saved
                core.costs.clear()
            previous = support
        if violation <= tolerance:
            return core.result(flows, "cg", sweep)
    raise DidNotConverge(max_iterations, violation)


@dataclass(frozen=True)
class ValidationRecord:
    """Connectivity and the elements on no simple OD path."""

    connected: bool
    uncovered_edges: tuple[str, ...]
    uncovered_vertices: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return self.connected and not self.uncovered_edges and not self.uncovered_vertices


def validate_by_enumeration(graph: MultiGraph, capped: bool = True) -> ValidationRecord:
    """Coverage from every OD pair's whole simple-path set.

    Capped, the paths are `enumerate_simple_paths`'s, which raises
    PathCapExceeded when some pair has more than 10,000 simple paths.
    Uncapped, they are `simple_paths`'s on the graph with one edge kept per
    bundle of parallel edges: a simple path through one edge of a bundle
    runs through any other in its place, so a bundle's edges are covered
    together, and far fewer paths are listed.
    """
    if capped:
        covered_edges = {
            eid
            for o, d in graph.od_pairs
            for path in enumerate_simple_paths(graph, o, d)
            for eid in path
        }
    else:
        bundles: dict[frozenset[str], tuple[str, str, str]] = {}  # endpoints -> one edge
        for edge in graph.edges:
            bundles.setdefault(frozenset(edge[1:]), edge)
        one_per_bundle = MultiGraph(graph.vertices, bundles.values(), graph.od_pairs)
        covered = {
            frozenset(graph.endpoints(eid))
            for o, d in graph.od_pairs
            for path in simple_paths(one_per_bundle, o, d)
            for eid in path
        }
        covered_edges = {eid for eid, u, v in graph.edges if frozenset((u, v)) in covered}
    covered_vertices = {v for eid in covered_edges for v in graph.endpoints(eid)}
    return ValidationRecord(
        connected=len(connected_components(graph)) <= 1,
        uncovered_edges=tuple(sorted(graph.edge_ids - covered_edges)),
        uncovered_vertices=tuple(sorted(set(graph.vertices) - covered_vertices)),
    )


def path_vertices(graph: MultiGraph, path: Path, start: str) -> tuple[str, ...]:
    """Vertex sequence of an edge path beginning at `start`."""
    seq = [start]
    for eid in path:
        u, v = graph.endpoints(eid)
        if seq[-1] == u:
            seq.append(v)
        elif seq[-1] == v:
            seq.append(u)
        else:
            raise ValueError(f"edge {eid!r} does not continue the path")
    return tuple(seq)


def simple_paths(
    graph: MultiGraph, s: str, t: str, allowed_edges: Optional[Iterable[str]] = None
) -> tuple[Path, ...]:
    """Every simple s-t path inside `allowed_edges`, sorted, with no cap.

    A recursive walk straight from the definition, sharing nothing with
    `enumerate_simple_paths`; the recursion depth is the longest path, so
    it suits the small graphs of the tests.
    """
    allowed = graph.edge_ids if allowed_edges is None else frozenset(allowed_edges)
    incident: dict[str, list[tuple[str, str]]] = {v: [] for v in graph.vertices}
    for eid, u, v in graph.edges:
        if eid in allowed:
            incident[u].append((eid, v))
            incident[v].append((eid, u))
    found: list[Path] = []

    def walk(v: str, seen: frozenset[str], path: Path) -> None:
        if v == t:
            found.append(path)
            return
        for eid, w in incident[v]:
            if w not in seen:
                walk(w, seen | {w}, (*path, eid))

    if s in incident and t in incident:
        walk(s, frozenset((s,)), ())
    return tuple(sorted(found))


def edges_crossed_both_ways(
    graph: MultiGraph, edges: Optional[Iterable[str]], o: str, d: str
) -> list[str]:
    """Sorted edges that two o-d paths inside `edges` cross in opposite directions."""
    directions: dict[str, set[tuple[str, str]]] = {}
    for path in simple_paths(graph, o, d, edges):
        seq = path_vertices(graph, path, o)
        for eid, u, v in zip(path, seq, seq[1:]):
            directions.setdefault(eid, set()).add((u, v))
    return sorted(eid for eid, used in directions.items() if len(used) == 2)


def is_series_parallel_by_definition(
    graph: MultiGraph, edges: Optional[Iterable[str]], o: str, d: str
) -> bool:
    """SP: no edge is crossed in opposite directions by two o-d paths."""
    return not edges_crossed_both_ways(graph, edges, o, d)


def is_linearly_independent(
    graph: MultiGraph, edges: Optional[Iterable[str]], o: str, d: str
) -> bool:
    """LI: every o-d path owns an edge that no other o-d path uses."""
    paths = simple_paths(graph, o, d, edges)
    uses = Counter(eid for path in paths for eid in path)
    return all(any(uses[eid] == 1 for eid in path) for path in paths)


def classify_chain_by_union(
    graph: MultiGraph, chain: Sequence[ChainLink], o: str, d: str
) -> SingleOdClass:
    """SP and LI from one reduction over the chain's union; SLI asks each block."""
    union = frozenset().union(*(link.edges for link in chain))
    sp, li, _ = _sp_reduce(graph, union, o, d)
    blocks_li = (_sp_reduce(graph, b.edges, b.origin, b.destination)[1] for b in chain)
    sli = li or (sp and all(blocks_li))
    return SingleOdClass(is_sp=sp, is_li=li, is_sli=sli)


def common_blocks_of_pair(
    graph: MultiGraph, dec: BlockDecomposition, i: int, j: int
) -> tuple[CommonBlockVerdict, ...]:
    """Classify each block shared by OD chains i and j, in sorted-edge order."""
    in_j = {link.block_id: link for link in dec.chains[j]}
    verdicts = []
    for li in sorted(dec.chains[i], key=lambda link: sorted(link.edges)):
        lj = in_j.get(li.block_id)
        if lj is None:
            continue
        if {li.origin, li.destination} == {lj.origin, lj.destination}:
            kind = COINCIDENT
        elif is_cycle(graph.induced(li.edges, [])):
            kind = CYCLE
        else:
            kind = OTHER
        verdicts.append(
            CommonBlockVerdict(
                block_id=li.block_id,
                kind=kind,
                terminal_set_in_i=(li.origin, li.destination),
                terminal_set_in_j=(lj.origin, lj.destination),
            )
        )
    return tuple(verdicts)


def failure_site_by_pair_scan(
    graph: MultiGraph, dec: BlockDecomposition, per_od: Sequence[SingleOdClass]
) -> Optional[FailureSite]:
    """The first non-SLI OD index, else the first other block of the first
    pair of SLI chains, in pair order, that has one."""
    for i, cls in enumerate(per_od):
        if not cls.is_sli:
            return FailureSite(condition="sli", od_index=i)
    for i, j in itertools.combinations(range(len(per_od)), 2):
        for v in common_blocks_of_pair(graph, dec, i, j):
            if v.kind == OTHER:
                return FailureSite(
                    condition="common-block", od_pair_indices=(i, j), block_id=v.block_id
                )
    return None


def block_local_game(
    game: RoutingGame, block_id: int, decomposition: BlockDecomposition
) -> RoutingGame:
    """Restrict the game to one block of the block chains.

    Types whose OD chain crosses the block keep their rate, with terminals
    and information set induced by the block; all other types ride along as
    rate-0 dummies so type indices stay aligned with the parent game.
    """
    edges = decomposition.blocks[block_id]
    local_pairs: list[tuple[str, str]] = []
    od_to_local: dict[int, int] = {}
    for od_index, chain in enumerate(decomposition.chains):
        for link in chain:
            if link.block_id == block_id:
                od_to_local[od_index] = len(local_pairs)
                local_pairs.append((link.origin, link.destination))
    if not local_pairs:
        raise SolverError(f"block {block_id} lies on no OD chain")

    graph = game.graph.induced(edges, local_pairs)
    latencies = {eid: game.latencies[eid] for eid in edges}
    types = []
    for t in game.types:
        if t.od_index in od_to_local:
            types.append(
                TravelerType(
                    rate=t.rate,
                    od_index=od_to_local[t.od_index],
                    info_set=t.info_set & edges,
                )
            )
        else:
            types.append(TravelerType(rate=0.0, od_index=0, info_set=()))
    return RoutingGame(graph, latencies, types)


def check_series_decomposition(
    game: RoutingGame,
    result: EquilibriumResult,
    decomposition: BlockDecomposition,
    tolerance: float = 1e-6,
) -> bool:
    """Each type's latency must equal the sum of its block-local latencies.

    Valid whenever the graph satisfies the SLI condition, because each OD
    subnetwork is then its block chain connected in series.
    """
    sums = [0.0] * len(game.types)
    for block_id in range(len(decomposition.blocks)):
        local = block_local_game(game, block_id, decomposition)
        local_result = solve_icwe(local)
        for j in range(len(game.types)):
            sums[j] += local_result.type_latencies[j]
    return all(
        abs(sums[j] - result.type_latencies[j]) <= tolerance
        for j in range(len(game.types))
    )


class TerminalMergeForbidden(IbpcheckError):
    """A contraction would merge the two terminals of one OD pair."""


class GraphOperationError(IbpcheckError):
    """An edge deletion/contraction cannot be applied to this graph."""


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
        if any(w in isolated for pair in graph.od_pairs for w in pair):
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
    if [w for _, w in graph.adjacency[u]].count(v) > 1:
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


def replay_embedding(target: MultiGraph, steps: Sequence[EmbeddingStep]) -> MultiGraph:
    """The graph `steps` leave of `target`, one rebuilt graph per step."""
    for step in steps:
        target = apply_embedding_step(target, step)
    return target


def _is_gadget_shaped(g: MultiGraph) -> bool:
    """Three vertices, one doubled and two single sides, two OD pairs on
    different terminal sets."""
    if len(g.vertices) != 3 or len(g.edges) != 4 or len(g.od_pairs) != 2:
        return False
    counts = Counter(frozenset((u, v)) for _, u, v in g.edges)
    if sorted(counts.values()) != [1, 1, 2]:
        return False
    return frozenset(g.od_pairs[0]) != frozenset(g.od_pairs[1])


def _gadget_placement(g: MultiGraph) -> GadgetVariant:
    """Which gadget a gadget-shaped graph is: OD 2 meets OD 1 on the doubled
    side at OD 1's destination, off it at OD 1's origin."""
    counts = Counter(frozenset((u, v)) for _, u, v in g.edges)
    doubled = next(pair for pair, n in counts.items() if n == 2)
    shared = set(g.od_pairs[0]) & set(g.od_pairs[1])
    if shared <= doubled:
        return GadgetVariant.ORIGIN2_AT_DESTINATION1
    return GadgetVariant.ORIGIN2_AT_ORIGIN1


def _vertex_isomorphisms(h: MultiGraph, src: MultiGraph):
    """Yield (od permutation, vertex map h->src) respecting OD pairs as sets."""
    if (
        len(h.vertices) != len(src.vertices)
        or len(h.edges) != len(src.edges)
        or len(h.od_pairs) != len(src.od_pairs)
    ):
        return
    src_pairs = Counter(frozenset((u, v)) for _, u, v in src.edges)
    for perm in itertools.permutations(range(len(src.od_pairs))):
        for image in itertools.permutations(src.vertices):
            vmap = dict(zip(h.vertices, image))
            if any(
                {vmap[o], vmap[d]} != set(src.od_pairs[perm[k]])
                for k, (o, d) in enumerate(h.od_pairs)
            ):
                continue
            if Counter(frozenset((vmap[u], vmap[v])) for _, u, v in h.edges) == src_pairs:
                yield perm, vmap


def _edge_correspondence(h: MultiGraph, src: MultiGraph, vmap) -> dict[str, str]:
    """Bijection of edge ids under a vertex map; parallels pair off in id order."""
    by_pair_src: dict[frozenset, list[str]] = {}
    for eid, u, v in sorted(src.edges):
        by_pair_src.setdefault(frozenset((u, v)), []).append(eid)
    emap: dict[str, str] = {}
    taken: Counter = Counter()
    for eid, u, v in sorted(h.edges):
        pair = frozenset((vmap[u], vmap[v]))
        emap[eid] = by_pair_src[pair][taken[pair]]
        taken[pair] += 1
    return emap


def gadget_match_by_search(
    reduced: MultiGraph,
) -> tuple[GadgetVariant, tuple[int, ...], dict[str, str]]:
    """The first gadget placement `reduced` matches, found by trying both OD
    orders and all six vertex maps per placement, origin placement first:
    (placement, OD permutation, edge map reduced -> gadget)."""
    for variant in GadgetVariant:
        src = gadget_graph(variant)
        match = next(_vertex_isomorphisms(reduced, src), None)
        if match is not None:
            perm, vmap = match
            return variant, perm, _edge_correspondence(reduced, src, vmap)
    raise PreconditionViolated("the reduced block matches neither gadget placement")


def lift_by_replay(
    target: MultiGraph, steps: Sequence[EmbeddingStep], source: IBPInstance
) -> IBPInstance:
    """Lift `source`, one of the two `gadget_instance` placements, to
    `target` through the graph that replaying `steps` leaves.

    Raises PreconditionViolated unless the replay ends on the network
    of `source`'s placement (up to renaming); the lifting itself is the
    library's `lift_instance`.
    """
    variant = next((v for v in GadgetVariant if gadget_instance(v) == source), None)
    if variant is None:
        raise ValueError("source must be one of the gadget instances")
    replayed = replay_embedding(target, steps)
    if _is_gadget_shaped(replayed) and _gadget_placement(replayed) is not variant:
        raise PreconditionViolated("replayed steps yield the other gadget placement")
    return lift_instance(target, steps, replayed)


def _keeps_invariant(g: MultiGraph) -> bool:
    """2-connected, not a cycle, and the two terminal sets differ."""
    return (
        frozenset(g.od_pairs[0]) != frozenset(g.od_pairs[1])
        and not is_cycle(g)
        and len(biconnected_blocks(g)[0]) == 1
    )


def _first_contraction(g: MultiGraph) -> Optional[tuple[EmbeddingStep, MultiGraph]]:
    """The least-id contraction that keeps the invariant, with its result."""
    pairs = {frozenset(pair) for pair in g.od_pairs}
    terminals = {w for pair in g.od_pairs for w in pair}
    for eid in sorted(g.edge_ids):
        u, v = g.endpoints(eid)
        if frozenset((u, v)) in pairs or [w for _, w in g.adjacency[u]].count(v) > 1:
            continue
        names = [w for w in (u, v) if w in terminals] or [u, v]
        step = EmbeddingStep.contract(eid, min(names))
        reduced = apply_embedding_step(g, step)
        if _keeps_invariant(reduced):
            return step, reduced
    return None


def gadget_embedding_by_rebuilding(block: MultiGraph) -> list[EmbeddingStep]:
    """The greedy gadget embedding with every candidate rebuilt as a graph.

    Each candidate deletion or contraction builds a fresh `MultiGraph`
    through `apply_embedding_step` and reruns the block decomposition on it,
    so the invariant (2-connected, not a cycle, differing terminal sets) is
    read off the literal graph.  The choices are the library's: per round,
    delete every edge in id order whose deletion keeps the invariant (an
    edge with an endpoint of degree <= 2 is skipped), stop at the gadget's
    shape, else make the least-id contraction that keeps it.
    """
    if len(block.od_pairs) != 2:
        raise PreconditionViolated("gadget embedding needs exactly two OD pairs")
    if frozenset(block.od_pairs[0]) == frozenset(block.od_pairs[1]):
        raise PreconditionViolated("terminal sets coincide; block is coincident")
    if is_cycle(block):
        raise PreconditionViolated("cycles are immune; no gadget embedding exists")
    if len(biconnected_blocks(block)[0]) != 1:
        raise PreconditionViolated("input is not 2-connected")

    steps: list[EmbeddingStep] = []
    g = block
    while True:
        for eid in sorted(g.edge_ids):
            if min(len(g.adjacency[v]) for v in g.endpoints(eid)) <= 2:
                continue
            step = EmbeddingStep.delete(eid)
            reduced = apply_embedding_step(g, step)
            if _keeps_invariant(reduced):
                g = reduced
                steps.append(step)
        if _is_gadget_shaped(g):
            return steps
        contraction = _first_contraction(g)
        if contraction is None:
            raise PreconditionViolated("no gadget embedding found for this block")
        step, g = contraction
        steps.append(step)
