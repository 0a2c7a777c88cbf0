"""Informational Braess' paradox: checking, witness construction, search.

The constructive side mirrors the characterization's necessity argument: any
2-connected non-cycle block whose two terminal sets differ admits a nice
embedding (edge deletions and contractions that never merge an OD pair) of
the minimal paradox gadget.  `find_gadget_embedding` finds one by greedy
one-edge reduction: it keeps the block 2-connected, not a cycle and with
differing terminal sets, deletes every edge it can in one id-ordered sweep,
then makes the least-id contraction it can, until the gadget's shape is
left.  The reduction edits one working graph (each edge's endpoints, each
vertex's incidences and the OD pairs) in place, undoes a rejected step and
builds the reduced graph once; no paths or cycles are enumerated.
`lift_instance` then transports the gadget's known paradox from the reduced
graph back through the embedding (contracted edges become latency-free and
join every information set), and synthesis carries it from block to whole
graph by zeroing latencies off the block and granting full information
elsewhere.  Synthesis runs exactly these two public steps, and no step is
ever replayed: the replay that checks a step list is a test oracle.

The lift carries the gadget's two integer equilibria along with its
instance, so synthesis certifies a witness from them and calls no solver:
each gadget path with flow becomes the one whole-graph path of its type
that uses no other gadget edge, and an exact check in integers (a Fraction
only for a non-integral number) confirms that those flows are equilibria of
both games and that type 1's latency rises.  Both walk the graph with
`core_graph.cheapest_path`; the embedding's early-exit block check is the
only walk kept here.  Re-solving a witness from scratch with `check_ibp` is
the second route, kept in the tests.

`check_ibp` solves the game before the extension, then the game after it
from the before equilibrium.  With "cg" the second solve is skipped when
the before equilibrium is still one: only type 1's information set grows,
so every other type keeps its paths and their costs, and only type 1's
paths are priced again.  The result built from the before one is the
result the warm-started sweeps would return at sweep 0, float for float;
anything else goes to the solver.

Every public value is immutable; search trials run sequentially for
reproducibility, with any witness reported at its lowest trial index.
"""

from __future__ import annotations

import functools
import math
import random
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from types import MappingProxyType
from typing import Mapping, Optional, Sequence

from .core_graph import (
    EmbeddingStep,
    MultiGraph,
    Path,
    cheapest_path,
    connected_components,
    enumerate_simple_paths,
    is_cycle,
    is_simple_path,
    validate,
)
from .equilibrium import (
    CONSERVATION_EPS,
    DEFAULT_TOLERANCE,
    FLOW_EPS,
    EquilibriumResult,
    LatencyFunction,
    RoutingGame,
    TravelerType,
    feasible_paths,
    solve_icwe,
)
from .errors import (
    InvalidArgument,
    InvalidNetwork,
    PreconditionViolated,
    UnsupportedFailureSite,
    WitnessVerificationFailed,
)
from .topology import IBP_FREE, OTHER, common_blocks, decide_ibp_free

DEFAULT_DECISION_THRESHOLD = 1e-4
CYCLE_SLACK = 1e-9  # margin of cycle_diagnostics' strict inequalities

OCCURS = "occurs"
NOT_OCCURS = "not-occurs"
INCONCLUSIVE = "inconclusive"


# -- instances -------------------------------------------------------------------


@dataclass(frozen=True)
class InformationExtension:
    """Extra edges revealed to type 1 (the first type, by convention)."""

    added_edges: frozenset[str]

    def __init__(self, added_edges):
        if isinstance(added_edges, str):  # not the set of its characters
            raise InvalidNetwork(f"added edges must be a collection of edge ids: {added_edges!r}")
        edges = frozenset(added_edges)
        if not edges:
            raise InvalidNetwork("an information extension must add edges")
        object.__setattr__(self, "added_edges", edges)


@dataclass(frozen=True)
class IBPInstance:
    game: RoutingGame
    extension: InformationExtension

    def __post_init__(self):
        if not self.game.types:
            raise InvalidNetwork("instance needs at least one traveler type")
        if not self.extension.added_edges <= self.game.graph.edge_ids:
            raise InvalidNetwork("extension references unknown edges")
        if self.extension.added_edges & self.game.types[0].info_set:
            raise InvalidNetwork("extension must be disjoint from type 1's info set")


def extended_game(instance: IBPInstance) -> RoutingGame:
    """The post-extension game: type 1 learns the added edges."""
    first = instance.game.types[0]
    widened = TravelerType(
        rate=first.rate,
        od_index=first.od_index,
        info_set=first.info_set | instance.extension.added_edges,
    )
    return RoutingGame(
        instance.game.graph,
        instance.game.latencies,
        (widened,) + instance.game.types[1:],
    )


@dataclass(frozen=True)
class IBPVerdict:
    latency_before: float
    latency_after: float
    margin: float
    occurs: bool
    label: str  # OCCURS | NOT_OCCURS | INCONCLUSIVE
    before_result: EquilibriumResult
    after_result: EquilibriumResult


def _check_threshold(decision_threshold: float) -> None:
    if not 0.0 <= decision_threshold < math.inf:
        raise InvalidArgument(
            f"decision_threshold must be finite and nonnegative, got {decision_threshold}"
        )


def _unmoved_after(
    game: RoutingGame, before: EquilibriumResult, tolerance: float
) -> Optional[EquilibriumResult]:
    """The "cg" result of the extended `game` started from `before`, a "cg"
    result of the game before, when those sweeps would stop at sweep 0;
    None when they might sweep or raise.

    Only type 1's paths differ between the games, so the sweep-0 gap is
    the larger of `before`'s whole gap and type 1's gap under the extended
    game's used-path floor; that floor is at most the floor before, so type
    1's gap can only grow.  Each path is priced by `path_latency` at
    `before`'s edge flows, the edge sums the start loads: the same `sum`
    of the same latencies as the cost core.  Falls through when type 1 uses
    no path (as when it is inactive, and so carries no flow), when its gap
    is not finite, or when some type's flows miss its rate by more than
    CONSERVATION_EPS, which is stricter than the start's own check.
    """
    if not all(
        abs(sum(f.values()) - t.rate) <= CONSERVATION_EPS
        for t, f in zip(game.types, before.path_flows)
    ):
        return None
    paths = feasible_paths(game, 0)
    floor = FLOW_EPS if game.types[0].rate > FLOW_EPS * len(paths) else 0.0
    cost = {p: game.path_latency(p, before.edge_flows) for p in paths}
    # each path before is one after; one that were not would make the gap inf
    used = [cost.get(p, math.inf) for p, x in before.path_flows[0].items() if x > floor]
    if not used:
        return None
    gap = max(used) - min(cost.values())
    if not gap <= tolerance:  # also when it is not a number
        return None
    return EquilibriumResult(
        path_flows=tuple(dict(f) for f in before.path_flows),
        edge_flows=dict(before.edge_flows),
        type_latencies=(min(used), *before.type_latencies[1:]),
        max_wardrop_violation=max(before.max_wardrop_violation, gap),
        backend="cg",
        iterations=0,
    )


def check_ibp(
    instance: IBPInstance,
    tolerance: float = DEFAULT_TOLERANCE,
    decision_threshold: float = DEFAULT_DECISION_THRESHOLD,
    backend: str = "auto",
) -> IBPVerdict:
    """Solve both games and compare type 1's equilibrium latency.

    The after game starts from the before equilibrium's path flows.  That
    start is feasible: the extension only adds edges to type 1's information
    set, so each of its paths before is still a path after, and every other
    type keeps its paths and every rate is unchanged.  Near the before
    equilibrium, the sweeps only have to move the flow the revealed edges
    attract ("exact" ignores the start).

    With "cg", the after game is not solved again when the before
    equilibrium is still one: when no path the extension opens to type 1
    costs less, at the before flows, than its costliest used path, within
    the tolerance.  Every other type keeps its paths and their costs, so
    the result is built from the before result, and it is the one the
    warm-started sweeps would return at sweep 0, float for float.  "auto"
    polishes even at sweep 0, and "exact" ignores the start, so both
    always solve.

    The decision threshold sits well above solver tolerance; margins between
    the two are labeled inconclusive rather than treated as paradoxes.  A
    threshold or tolerance that is not finite and nonnegative raises
    InvalidArgument before anything is solved.
    """
    _check_threshold(decision_threshold)
    before = solve_icwe(instance.game, tolerance=tolerance, backend=backend)
    game = extended_game(instance)
    after = _unmoved_after(game, before, tolerance) if backend == "cg" else None
    if after is None:
        after = solve_icwe(game, tolerance=tolerance, backend=backend, start=before.path_flows)
    margin = after.type_latencies[0] - before.type_latencies[0]
    occurs = margin > decision_threshold
    label = OCCURS if occurs else (INCONCLUSIVE if margin > tolerance else NOT_OCCURS)
    return IBPVerdict(
        latency_before=before.type_latencies[0],
        latency_after=after.type_latencies[0],
        margin=margin,
        occurs=occurs,
        label=label,
        before_result=before,
        after_result=after,
    )


# -- the minimal paradox gadget -----------------------------------------------------


class GadgetVariant(Enum):
    """Placement of the second OD pair relative to the first."""

    ORIGIN2_AT_ORIGIN1 = "origin"
    ORIGIN2_AT_DESTINATION1 = "destination"


GADGET_LATENCIES = {
    "e1": (0.0,),
    "e2": (0.0, 4.0),
    "e3": (22.0, 1.0),
    "e4": (10.0, 2.0),
}

# Per placement, the gadget's equilibrium path flows of each type before and
# after e4 is revealed: type 1 pays 47, then 48.  The edge latencies are
# unique (Acemoglu et al. 2018); these splits are the integer ones.
_GADGET_EQUILIBRIA = {
    GadgetVariant.ORIGIN2_AT_ORIGIN1: (
        ({("e2", "e3"): 5.0}, {("e1", "e4"): 5.0}),
        ({("e2", "e3"): 2.0, ("e2", "e4"): 3.0}, {("e1", "e4"): 4.0, ("e2",): 1.0}),
    ),
    GadgetVariant.ORIGIN2_AT_DESTINATION1: (
        ({("e2", "e3"): 5.0}, {("e4",): 5.0}),
        ({("e2", "e3"): 2.0, ("e2", "e4"): 3.0}, {("e4",): 4.0, ("e1", "e2"): 1.0}),
    ),
}


def gadget_graph(variant: GadgetVariant = GadgetVariant.ORIGIN2_AT_ORIGIN1) -> MultiGraph:
    """Three vertices, four edges, doubled w-v side, two OD pairs."""
    od2 = ("u", "w") if variant is GadgetVariant.ORIGIN2_AT_ORIGIN1 else ("v", "w")
    return MultiGraph(
        vertices=["u", "v", "w"],
        edges=[("e1", "u", "v"), ("e2", "u", "w"), ("e3", "w", "v"), ("e4", "w", "v")],
        od_pairs=[("u", "v"), od2],
    )


def gadget_instance(
    variant: GadgetVariant = GadgetVariant.ORIGIN2_AT_ORIGIN1,
) -> IBPInstance:
    """The built-in paradox witness: revealing e4 raises type 1 from 47 to 48."""
    graph = gadget_graph(variant)
    latencies = {eid: LatencyFunction(c) for eid, c in GADGET_LATENCIES.items()}
    types = (
        TravelerType(rate=5.0, od_index=0, info_set={"e2", "e3"}),
        TravelerType(rate=5.0, od_index=1, info_set={"e1", "e2", "e4"}),
    )
    return IBPInstance(
        game=RoutingGame(graph, latencies, types),
        extension=InformationExtension({"e4"}),
    )


# Read-only sources of every lift; `gadget_instance` hands out fresh copies.
_GADGET_SOURCES = {variant: gadget_instance(variant) for variant in GadgetVariant}


# -- instance lifting ------------------------------------------------------------------


def _edge_correspondence(h: MultiGraph, src: MultiGraph, vmap) -> dict[str, str]:
    """Bijection of edge ids under a vertex map; parallels pair off in id order."""
    by_pair_src: dict[frozenset, list[str]] = {}
    for eid, u, v in src.edges:
        by_pair_src.setdefault(frozenset((u, v)), []).append(eid)
    for ids in by_pair_src.values():
        ids.sort()
    emap: dict[str, str] = {}
    taken: dict[frozenset, int] = {}
    for eid, u, v in sorted(h.edges):
        pair = frozenset((vmap[u], vmap[v]))
        k = taken.get(pair, 0)
        emap[eid] = by_pair_src[pair][k]
        taken[pair] = k + 1
    return emap


@functools.lru_cache(maxsize=1)  # synthesis reads the match lift_instance just made
def _gadget_match(
    reduced: MultiGraph,
) -> tuple[GadgetVariant, tuple[int, ...], Mapping[str, str]]:
    """The gadget placement `reduced` matches: (placement, OD permutation,
    read-only edge map reduced -> gadget).

    A gadget-shaped graph's two OD pairs share exactly one terminal, and
    that fixes the match.  If neither pair is the doubled side, it is the
    origin placement in the given OD order; otherwise it is the destination
    placement, with the pair on the doubled side as OD 2.  The shared
    terminal maps to the gadget's shared terminal, and each other terminal
    to the other end of the OD pair it plays.  Parallel edges pair off in
    id order.  Any other graph raises PreconditionViolated.
    """
    ends = [(u, v) for _, u, v in reduced.edges]
    if not _has_gadget_shape(len(reduced.vertices), ends, reduced.od_pairs):
        raise PreconditionViolated("the reduced block matches neither gadget placement")
    sides = Counter(frozenset(uv) for uv in ends)
    doubled = next(side for side, n in sides.items() if n == 2)
    pairs = [frozenset(pair) for pair in reduced.od_pairs]
    if doubled in pairs:
        variant = GadgetVariant.ORIGIN2_AT_DESTINATION1
        perm = (1, 0) if pairs[0] == doubled else (0, 1)
    else:
        variant, perm = GadgetVariant.ORIGIN2_AT_ORIGIN1, (0, 1)
    src = _GADGET_SOURCES[variant].game.graph
    src_pairs = [frozenset(src.od_pairs[p]) for p in perm]
    (shared,) = pairs[0] & pairs[1]
    (src_shared,) = src_pairs[0] & src_pairs[1]
    vmap = {shared: src_shared}
    for pair, src_pair in zip(pairs, src_pairs):
        (v,) = pair - {shared}
        (vmap[v],) = src_pair - {src_shared}
    return variant, perm, MappingProxyType(_edge_correspondence(reduced, src, vmap))


def lift_instance(
    block: MultiGraph, steps: Sequence[EmbeddingStep], reduced: MultiGraph
) -> IBPInstance:
    """Transport the gadget's paradox to `block`, which `steps` reduce to
    `reduced`, as `find_gadget_embedding` returns them.

    The placement is read off `reduced`'s shared terminal: OD 2 at OD 1's
    origin when neither OD pair is the doubled side, else at its
    destination, with the pair on the doubled side as OD 2 (OD pairs in
    either order and either orientation); PreconditionViolated is raised
    when `reduced` is not gadget-shaped.  Deleted edges get zero latency
    and stay out of every information set; contracted edges get zero
    latency and join every information set, so each gadget path lifts to
    an equal-latency block path.  The steps are not replayed: only their
    contracted edges are read.
    """
    variant, perm, emap = _gadget_match(reduced)
    source = _GADGET_SOURCES[variant]
    inv_emap = {s: t for t, s in emap.items()}
    inv_perm = {p: k for k, p in enumerate(perm)}
    contracted = frozenset(s.edge for s in steps if s.kind == "contract")

    zero = LatencyFunction.zero()
    latencies = {
        eid: source.game.latencies[emap[eid]] if eid in emap else zero
        for eid in block.edge_ids
    }
    types = []
    for t in source.game.types:
        info = {inv_emap[e] for e in t.info_set} | contracted
        types.append(TravelerType(t.rate, inv_perm[t.od_index], info))
    added = frozenset(inv_emap[e] for e in source.extension.added_edges)
    return IBPInstance(
        game=RoutingGame(block, latencies, types),
        extension=InformationExtension(added),
    )


def _lift_flows(
    game: RoutingGame, images: dict[str, str], flows: Sequence[dict[Path, float]]
) -> list[dict[Path, float]]:
    """Carry gadget path flows to `game`, in which edge `images[e]` stands
    for gadget edge e and type k for the gadget's type k.

    A gadget path lifts to its type's o-d path that uses no image of another
    gadget edge.  Inside the embedded block that path is unique, since the
    contracted edges form one tree per merged vertex and deleted edges lie
    in no information set; elsewhere every edge is latency-free, and any
    fewest-edge path there will do.
    """
    graph = game.graph
    unit = dict.fromkeys(graph.edge_ids, 1)
    lifted = []
    for t, type_flows in zip(game.types, flows):
        o, d = graph.od_pairs[t.od_index]
        lifted.append(
            {
                cheapest_path(
                    graph, o, d, t.info_set - {images[e] for e in images if e not in path}, unit
                )[1]: x
                for path, x in type_flows.items()
            }
        )
    return lifted


# -- gadget embedding search -------------------------------------------------------------


def _has_gadget_shape(n_vertices: int, ends, od_pairs) -> bool:
    """Three vertices, one doubled and two single sides, two OD pairs on
    different terminal sets; `ends` holds each edge's two endpoints."""
    if n_vertices != 3 or len(ends) != 4 or len(od_pairs) != 2:
        return False
    counts = Counter(frozenset(uv) for uv in ends)
    if sorted(counts.values()) != [1, 1, 2]:
        return False
    return frozenset(od_pairs[0]) != frozenset(od_pairs[1])


def _one_block(inc: dict[str, dict[str, str]]) -> bool:
    """Whether the graph with incidences `inc` (vertex -> edge id -> other
    end) is connected and 2-connected or a single edge.

    A lowpoint DFS (Hopcroft-Tarjan), which skips only the entering edge id,
    so a parallel edge back to the parent is a back edge.  It stops at the
    second block: a block closing below the root, or a second one at it.
    """
    root = next(iter(inc))
    disc = {root: 0}
    low = {root: 0}
    closed_at_root = 0
    stack = [(root, None, iter(inc[root].items()))]
    while stack:
        v, in_edge, it = stack[-1]
        for eid, w in it:
            if w not in disc:
                disc[w] = low[w] = len(disc)
                stack.append((w, eid, iter(inc[w].items())))
                break
            if eid != in_edge and disc[w] < low[v]:
                low[v] = disc[w]
        else:
            stack.pop()
            if stack:
                u = stack[-1][0]
                if low[v] >= disc[u]:
                    closed_at_root += 1
                    if len(stack) > 1 or closed_at_root > 1:
                        return False
                elif low[v] < low[u]:
                    low[u] = low[v]
    return len(disc) == len(inc)


def _move_ends(
    inc: dict[str, dict[str, str]],
    ends: dict[str, tuple[str, str]],
    eids: Sequence[str],
    old: str,
    new: str,
) -> None:
    """Move the ends that edges `eids` have at vertex `old` to vertex `new`."""
    for e in eids:
        w = inc[old].pop(e)
        inc[w][e] = new
        inc[new][e] = w
        a, b = ends[e]
        ends[e] = (new if a == old else a, new if b == old else b)


def find_gadget_embedding(block: MultiGraph) -> tuple[list[EmbeddingStep], MultiGraph]:
    """Nicely embed the paradox gadget into a 2-connected non-cycle block.

    Returns the steps and the gadget-shaped graph they leave of the block.
    Greedy one-edge reduction under an invariant: the working graph stays
    2-connected, is never a cycle, and its two terminal sets differ.  Each
    round sweeps the edges once in id order and deletes every edge whose
    deletion keeps the invariant (an edge with an endpoint of degree <= 2 is
    skipped unchecked: deleting it leaves a vertex of degree <= 1).  It then
    contracts the least-id edge whose contraction keeps the invariant; the
    merged vertex keeps a terminal's name, otherwise the lesser name, and an
    OD pair is never merged.  The loop stops once the graph is the gadget's
    shape.  PreconditionViolated is raised for a block without exactly two
    OD pairs, with coincident terminal sets, that is a cycle or is not
    2-connected, and if no step keeps the invariant.

    Every choice is the first in edge-id order, so the step list is a pure
    function of the block's edges and OD pairs.  The working graph is the
    edges' endpoints, each vertex's incidences and the OD pairs, edited in
    place: a deletion or contraction is made, kept if the invariant holds
    and undone otherwise, so no candidate builds a graph, and the reduced
    graph is built once at the end.  Each invariant check is one lowpoint
    DFS, so the search takes O(|E|^3) time at worst and enumerates no paths.
    """
    if len(block.od_pairs) != 2:
        raise PreconditionViolated("gadget embedding needs exactly two OD pairs")
    if frozenset(block.od_pairs[0]) == frozenset(block.od_pairs[1]):
        raise PreconditionViolated("terminal sets coincide; block is coincident")
    if is_cycle(block):
        raise PreconditionViolated("cycles are immune; no gadget embedding exists")
    ends = {eid: (u, v) for eid, u, v in block.edges}
    inc: dict[str, dict[str, str]] = {v: {} for v in block.vertices}
    for eid, u, v in block.edges:
        inc[u][eid] = v
        inc[v][eid] = u
    if not _one_block(inc):
        raise PreconditionViolated("input is not 2-connected")
    od = block.od_pairs

    def keeps_invariant() -> bool:
        # one block with every degree 2 is a cycle
        return (
            frozenset(od[0]) != frozenset(od[1])
            and any(len(i) != 2 for i in inc.values())
            and _one_block(inc)
        )

    steps: list[EmbeddingStep] = []
    while True:
        for eid in sorted(ends):
            u, v = ends[eid]
            if len(inc[u]) <= 2 or len(inc[v]) <= 2:
                continue
            del inc[u][eid], inc[v][eid]
            if keeps_invariant():
                del ends[eid]
                steps.append(EmbeddingStep.delete(eid))
            else:
                inc[u][eid], inc[v][eid] = v, u
        if _has_gadget_shape(len(inc), ends.values(), od):
            break
        pairs = {frozenset(pair) for pair in od}
        terminals = {w for pair in od for w in pair}
        for eid in sorted(ends):
            u, v = ends[eid]
            if frozenset((u, v)) in pairs or list(inc[u].values()).count(v) > 1:
                continue
            name = min([w for w in (u, v) if w in terminals] or [u, v])
            gone = v if name == u else u
            del inc[u][eid], inc[v][eid]
            moved = list(inc[gone])
            _move_ends(inc, ends, moved, gone, name)
            del inc[gone]
            kept_od, od = od, tuple(tuple(name if w == gone else w for w in p) for p in od)
            if keeps_invariant():
                del ends[eid]
                steps.append(EmbeddingStep.contract(eid, name))
                break
            inc[gone] = {}
            _move_ends(inc, ends, moved, name, gone)
            inc[u][eid], inc[v][eid] = v, u
            od = kept_od
        else:
            raise PreconditionViolated("no gadget embedding found for this block")

    edges = [(eid, *ends[eid]) for eid, _, _ in block.edges if eid in ends]
    return steps, MultiGraph(inc, edges, od)


# -- exact witness certificates ----------------------------------------------------------


def _exact(x: float):
    """`x` as an exact number: an int when it is integral, else a Fraction."""
    if x.is_integer():
        return int(x)
    from fractions import Fraction  # only a non-integral certificate needs it

    return Fraction(x)


def _certified_latencies(
    game: RoutingGame, flows: Sequence[Mapping[Path, float]], which: str
) -> list:
    """Each type's equilibrium latency in `game`, exactly, when the per-type
    path flows `flows` are an exact Wardrop equilibrium of it.

    Every coefficient, rate and flow is read as an int or, when it is not
    integral, a Fraction, so no sum rounds.  Per type, the flows must be
    nonnegative and sum to its rate, each used path (one with flow) must be
    a simple o-d path inside its information set, and each must cost the
    type's o-d distance over its information set under the loaded edge
    costs, which is the latency returned.  Anything else raises
    WitnessVerificationFailed, naming the `which` game and the type.
    """
    load: dict[str, object] = {}
    for k, type_flows in enumerate(flows, start=1):
        for path, x in type_flows.items():
            if not 0.0 <= x < math.inf:
                raise WitnessVerificationFailed(
                    f"{which} game, type {k}: flow {x} on {path} is not finite and >= 0"
                )
            x = _exact(x)
            for e in path:
                load[e] = load.get(e, 0) + x
    cost = {}
    for e, fn in game.latencies.items():
        x, acc = load.get(e, 0), 0
        for c in reversed(fn.coefficients):
            acc = acc * x + _exact(c)
        cost[e] = acc

    graph = game.graph
    latencies = []
    for k, (t, type_flows) in enumerate(zip(game.types, flows, strict=True), start=1):
        where = f"{which} game, type {k}"
        o, d = graph.od_pairs[t.od_index]
        cheapest = cheapest_path(graph, o, d, t.info_set, cost)
        if cheapest is None:
            raise WitnessVerificationFailed(f"{where}: no {o}-{d} path inside its information set")
        dist = cheapest[0]
        total = 0
        for path, x in type_flows.items():
            total += _exact(x)
            if x == 0.0:
                continue
            if not is_simple_path(graph, path, o, d, t.info_set):
                raise WitnessVerificationFailed(
                    f"{where}: used path {path} is no {o}-{d} path inside its information set"
                )
            used = sum(cost[e] for e in path)
            if used != dist:
                raise WitnessVerificationFailed(
                    f"{where}: used path {path} costs {used}, its cheapest path {dist}"
                )
        if total != _exact(t.rate):
            raise WitnessVerificationFailed(f"{where}: flows sum to {total}, not its rate {t.rate}")
        latencies.append(dist)
    return latencies


# -- witness synthesis ----------------------------------------------------------------


def synthesize_ibp_witness(g: MultiGraph) -> IBPInstance:
    """Build a concrete paradox instance on a network that is not IBP-free.

    Works through the first common block of two OD chains that is neither
    coincident nor a cycle, in pair order and then block-id order: reduce
    the block to the gadget's shape once, transport the gadget's instance
    to the block, then to the whole graph (zero latencies off the block,
    full information on the other chain blocks), by `find_gadget_embedding`
    and `lift_instance`.  Such a block alone shows the graph is not
    IBP-free, so the chains are classified only when there is none, to tell
    an IBP-free graph (PreconditionViolated) from an SLI failure
    (UnsupportedFailureSite).

    The result is certified from the gadget's equilibria, transported along
    the same match, with no solver: they must be exact equilibria of both
    games, and type 1's exact latency must rise by more than
    DEFAULT_DECISION_THRESHOLD, or WitnessVerificationFailed is raised.  A
    start that is no exact equilibrium is a fault of the lift, not a warm
    start.
    """
    dec = validate(g)
    others = [
        (pair, v)
        for pair, verdicts in common_blocks(g, dec).items()
        for v in verdicts
        if v.kind == OTHER
    ]
    if not others:
        if decide_ibp_free(g).verdict == IBP_FREE:
            raise PreconditionViolated("network is IBP-free; no witness exists")
        raise UnsupportedFailureSite(
            "witness synthesis needs a non-cycle non-coincident common block; "
            "single-OD (SLI-condition) failures are out of scope"
        )
    (i, j), v = min(others, key=lambda site: (site[0], site[1].block_id))
    block_graph = g.induced(dec.blocks[v.block_id], [v.terminal_set_in_i, v.terminal_set_in_j])
    steps, reduced = find_gadget_embedding(block_graph)
    block_instance = lift_instance(block_graph, steps, reduced)

    zero = LatencyFunction.zero()
    latencies = {eid: block_instance.game.latencies.get(eid, zero) for eid in g.edge_ids}
    types = []
    for t in block_instance.game.types:
        g_od = (i, j)[t.od_index]
        other = (link.edges for link in dec.chains[g_od] if link.block_id != v.block_id)
        types.append(TravelerType(t.rate, g_od, t.info_set.union(*other)))
    witness = IBPInstance(
        game=RoutingGame(g, latencies, types),
        extension=block_instance.extension,
    )

    variant, _, emap = _gadget_match(reduced)
    images = {s: t for t, s in emap.items()}
    before, after = (
        _certified_latencies(game, _lift_flows(game, images, flows), which)[0]
        for game, flows, which in zip(
            (witness.game, extended_game(witness)), _GADGET_EQUILIBRIA[variant], ("before", "after")
        )
    )
    margin = after - before
    if not margin > DEFAULT_DECISION_THRESHOLD:
        raise WitnessVerificationFailed(
            f"constructed witness raises type 1's latency by {margin}, expected > "
            f"{DEFAULT_DECISION_THRESHOLD}"
        )
    return witness


# -- randomized search -----------------------------------------------------------------


@dataclass(frozen=True)
class SearchOutcome:
    trials_run: int
    transcript: tuple[str, ...]
    hits: tuple[tuple[int, IBPInstance], ...] = ()  # (trial, instance), by trial

    @property
    def witness(self) -> Optional[IBPInstance]:
        return self.hits[0][1] if self.hits else None

    @property
    def witness_trial(self) -> Optional[int]:
        return self.hits[0][0] if self.hits else None


def random_search_ibp(
    g: MultiGraph,
    trials: int,
    seed: int,
    rate_range: tuple[int, int] = (1, 10),
    coeff_range: tuple[int, int] = (0, 10),
    decision_threshold: float = DEFAULT_DECISION_THRESHOLD,
    backend: str = "cg",
    stop_at_first: bool = True,
) -> SearchOutcome:
    """Sample affine integer games and report the first paradox found.

    One traveler type per OD pair; type 1 gets a random information set built
    around one of its paths, everyone else full information; the extension
    reveals a random nonempty part of the rest.  Fully reproducible: the
    transcript is a pure function of the seed.  Raises InvalidArgument before
    the first trial unless the seed, trials, the coefficient bounds and the
    rate bounds are integers, trials >= 0, 0 <= coefficients low <= high,
    max(rates low, 1) <= rates high, both high bounds convert to finite
    floats (every draw is made a float) and the threshold is finite and
    >= 0, and InvalidNetwork when some OD pair has no path: OD 0's paths
    carry type 1's information set, and every later type sees the whole
    graph.
    """
    integral = lambda *values: all(hasattr(v, "__index__") for v in values)  # as randint takes
    if not integral(trials) or trials < 0:
        raise InvalidArgument(f"trials must be a nonnegative integer, got {trials!r}")
    if not integral(seed):
        raise InvalidArgument(f"seed must be an integer, got {seed!r}")
    if not integral(*coeff_range) or not 0 <= coeff_range[0] <= coeff_range[1]:
        raise InvalidArgument(f"coeff_range needs integers 0 <= low <= high, got {coeff_range}")
    if not integral(*rate_range) or not max(rate_range[0], 1) <= rate_range[1]:
        raise InvalidArgument(f"rate_range needs integers, max(low, 1) <= high, got {rate_range}")
    for name, bounds in (("coeff_range", coeff_range), ("rate_range", rate_range)):
        try:
            float(bounds[1])
        except OverflowError:  # a bound this large is left out of the message
            raise InvalidArgument(f"{name} needs a high bound that fits a float") from None
    _check_threshold(decision_threshold)
    type1_paths = enumerate_simple_paths(g, *g.od_pairs[0])
    if not type1_paths:
        raise InvalidNetwork(
            "OD 0 ({} -> {}) has no path for type 1's information set".format(*g.od_pairs[0])
        )
    components = connected_components(g)
    for k, (o, d) in enumerate(g.od_pairs[1:], start=1):
        if not any(o in comp and d in comp for comp in components):
            raise InvalidNetwork(f"OD {k} ({o} -> {d}) has no path for type {k + 1}")
    rng = random.Random(seed)
    edge_ids = sorted(g.edge_ids)
    transcript = [f"seed={seed} trials={trials}"]
    hits: list[tuple[int, IBPInstance]] = []
    for trial in range(trials):
        latencies = {
            eid: LatencyFunction(
                (
                    float(rng.randint(coeff_range[0], coeff_range[1])),
                    float(rng.randint(coeff_range[0], coeff_range[1])),
                )
            )
            for eid in edge_ids
        }
        rates = [
            float(rng.randint(max(rate_range[0], 1), rate_range[1]))
            for _ in g.od_pairs
        ]
        base = set(rng.choice(type1_paths))
        info1 = set(base)
        for eid in edge_ids:
            if eid not in info1 and rng.random() < 0.5:
                info1.add(eid)
        rest = [e for e in edge_ids if e not in info1]
        if not rest:
            drop = [e for e in sorted(info1) if e not in base]
            if not drop:
                transcript.append(f"trial {trial}: skipped (no extension possible)")
                continue
            info1.discard(drop[-1])
            rest = [drop[-1]]
        added = {e for e in rest if rng.random() < 0.5}
        if not added:
            added = {rng.choice(rest)}

        types = [TravelerType(rates[0], 0, info1)]
        for k in range(1, len(g.od_pairs)):
            types.append(TravelerType(rates[k], k, g.edge_ids))
        instance = IBPInstance(
            game=RoutingGame(g, latencies, types),
            extension=InformationExtension(added),
        )
        verdict = check_ibp(
            instance, decision_threshold=decision_threshold, backend=backend
        )
        transcript.append(
            f"trial {trial}: before={verdict.latency_before:.9g} "
            f"after={verdict.latency_after:.9g} margin={verdict.margin:.9g} "
            f"label={verdict.label}"
        )
        if verdict.occurs:
            hits.append((trial, instance))
            if stop_at_first:
                break
    return SearchOutcome(
        trials_run=len(transcript) - 1,  # one line per trial run
        transcript=tuple(transcript),
        hits=tuple(hits),
    )


# -- cycle diagnostics ---------------------------------------------------------------


@dataclass(frozen=True)
class CycleDiagnostics:
    latency_condition_holds: bool
    rate_condition_holds: bool

    @property
    def refutes_ibp(self) -> bool:
        """True when some necessary condition fails, so no paradox is possible."""
        return not (self.latency_condition_holds and self.rate_condition_holds)


def cycle_diagnostics(
    instance: IBPInstance,
    before_result: EquilibriumResult,
    after_result: EquilibriumResult,
) -> CycleDiagnostics:
    """Evaluate the two cycle necessary conditions on a solved instance pair.

    On a cycle, a paradox forces (a) every type's drained arc to get strictly
    slower and (b) every rate to be strictly below the sum of the others.  A
    purported cycle witness that fails either condition is refuted; cycles
    admitting a confirmed paradox would contradict the characterization, so
    this distinguishes solver artifacts from genuine trouble.  Raises
    PreconditionViolated unless the network is a cycle with one type per OD
    pair, in OD order.
    """
    g = instance.game.graph
    if not is_cycle(g):
        raise PreconditionViolated("diagnostics are defined for cycle networks only")
    if len(instance.game.types) != len(g.od_pairs):
        raise PreconditionViolated("expected exactly one traveler type per OD pair")
    for j, t in enumerate(instance.game.types):
        if t.od_index != j:
            raise PreconditionViolated("type order must follow OD order")

    total_rate = sum(t.rate for t in instance.game.types)
    latency_ok = True
    rate_ok = True
    for j, t in enumerate(instance.game.types):
        arcs = enumerate_simple_paths(g, *g.od_pairs[j])
        assert len(arcs) == 2
        before_flows = before_result.path_flows[j]
        after_flows = after_result.path_flows[j]
        drained = max(  # its flow weakly decreases after the extension
            arcs,
            key=lambda p: (before_flows.get(p, 0.0) - after_flows.get(p, 0.0), p),
        )
        lat_before = instance.game.path_latency(drained, before_result.edge_flows)
        lat_after = instance.game.path_latency(drained, after_result.edge_flows)
        latency_ok = latency_ok and lat_after - lat_before > CYCLE_SLACK
        rate_ok = rate_ok and t.rate < total_rate - t.rate - CYCLE_SLACK
    return CycleDiagnostics(latency_condition_holds=latency_ok, rate_condition_holds=rate_ok)
