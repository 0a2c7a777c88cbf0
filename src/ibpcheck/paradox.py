"""Informational Braess' paradox: checking, witness construction, search.

The constructive side mirrors the characterization's necessity argument: any
2-connected non-cycle block whose two terminal sets differ admits a nice
embedding (edge deletions and contractions that never merge an OD pair) of
the minimal paradox gadget; instance lifting then transports the gadget's
known paradox through the embedding (contracted edges become latency-free
and join every information set) and, block to whole graph, by zeroing
latencies off the block and granting full information elsewhere.

Everything operates on immutable values; search trials run sequentially for
reproducibility, with any witness reported at its lowest trial index.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

from .core_graph import (
    DEFAULT_PATH_CAP,
    EmbeddingStep,
    MultiGraph,
    Path,
    apply_embedding_step,
    biconnected_blocks,
    enumerate_simple_paths,
    is_cycle,
)
from .equilibrium import (
    DEFAULT_TOLERANCE,
    EquilibriumResult,
    LatencyFunction,
    RoutingGame,
    TravelerType,
    solve_icwe,
)
from .errors import (
    InvalidNetwork,
    IsCycleError,
    NotACycle,
    NotNormalForm,
    PreconditionViolated,
    StepsDoNotReproduceSource,
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


def check_ibp(
    instance: IBPInstance,
    tolerance: float = DEFAULT_TOLERANCE,
    decision_threshold: float = DEFAULT_DECISION_THRESHOLD,
    backend: str = "auto",
) -> IBPVerdict:
    """Solve both games and compare type 1's equilibrium latency.

    The decision threshold sits well above solver tolerance; margins between
    the two are labeled inconclusive rather than treated as paradoxes.
    """
    before = solve_icwe(instance.game, tolerance=tolerance, backend=backend)
    after = solve_icwe(extended_game(instance), tolerance=tolerance, backend=backend)
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


# -- instance lifting ------------------------------------------------------------------


def _vertex_isomorphisms(h: MultiGraph, src: MultiGraph):
    """Yield (od permutation, vertex map h->src) respecting OD pairs as sets."""
    if (
        len(h.vertices) != len(src.vertices)
        or len(h.edges) != len(src.edges)
        or len(h.od_pairs) != len(src.od_pairs)
    ):
        return
    h_vs = list(h.vertices)
    for perm in itertools.permutations(range(len(src.od_pairs))):
        for image in itertools.permutations(src.vertices):
            vmap = dict(zip(h_vs, image))
            if any(
                {vmap[o], vmap[d]} != set(src.od_pairs[perm[k]])
                for k, (o, d) in enumerate(h.od_pairs)
            ):
                continue
            h_pairs = Counter(
                frozenset((vmap[u], vmap[v])) for _, u, v in h.edges
            )
            src_pairs = Counter(frozenset((u, v)) for _, u, v in src.edges)
            if h_pairs == src_pairs:
                yield perm, vmap


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


def lift_instance(
    target: MultiGraph,
    steps: Sequence[EmbeddingStep],
    source_instance: IBPInstance,
) -> IBPInstance:
    """Transport a paradox instance backwards through an embedding.

    Replaying `steps` on `target` must reproduce the source graph (up to
    renaming; OD pairs may be matched in either order and either orientation).
    Deleted edges get zero latency and stay out of every information set;
    contracted edges get zero latency and join every information set, so each
    source path lifts to an equal-latency target path.
    """
    h = target
    for step in steps:
        h = apply_embedding_step(h, step)

    src_graph = source_instance.game.graph
    match = None
    for perm, vmap in _vertex_isomorphisms(h, src_graph):
        match = (perm, vmap)
        break
    if match is None:
        raise StepsDoNotReproduceSource(
            "replayed steps do not yield the source instance's network"
        )
    perm, vmap = match
    emap = _edge_correspondence(h, src_graph, vmap)
    inv_emap = {s: t for t, s in emap.items()}
    inv_perm = {perm[k]: k for k in range(len(perm))}
    contracted = frozenset(s.edge for s in steps if s.kind == "contract")

    latencies = {}
    for eid in target.edge_ids:
        if eid in emap:
            latencies[eid] = source_instance.game.latencies[emap[eid]]
        else:
            latencies[eid] = LatencyFunction.zero()
    types = []
    for t in source_instance.game.types:
        info = {inv_emap[e] for e in t.info_set} | contracted
        types.append(TravelerType(t.rate, inv_perm[t.od_index], info))
    added = frozenset(inv_emap[e] for e in source_instance.extension.added_edges)
    return IBPInstance(
        game=RoutingGame(target, latencies, types),
        extension=InformationExtension(added),
    )


# -- gadget embedding search -------------------------------------------------------------


def _all_cycles(g: MultiGraph, max_paths: int) -> list[tuple[str, ...]]:
    """Every simple cycle once, as an edge tuple starting at its least edge id."""
    cycles = []
    for eid in sorted(g.edge_ids):
        a, b = g.endpoints(eid)
        allowed = {e for e in g.edge_ids if e > eid}
        for path in enumerate_simple_paths(g, b, a, allowed, max_paths=max_paths):
            cycles.append((eid,) + path)
    cycles.sort(key=lambda c: (len(c), tuple(sorted(c))))
    return cycles


def _cycle_vertices(g: MultiGraph, cycle: tuple[str, ...]) -> tuple[str, ...]:
    a, _ = g.endpoints(cycle[0])
    return g.path_vertices(cycle, a)  # closed walk, first == last


def _pair_arcs(g: MultiGraph, cycle: tuple[str, ...], p: str, q: str):
    """The two arcs of `cycle` between p and q, as (edge tuple, vertex set)."""
    closed = _cycle_vertices(g, cycle)
    ring = closed[:-1]
    i, j = sorted((ring.index(p), ring.index(q)))
    arc1 = cycle[i:j]
    arc1_vs = set(closed[i : j + 1])
    arc2 = cycle[j:] + cycle[:i]
    arc2_vs = set(closed[j:]) | set(closed[1 : i + 1])
    return (arc1, arc1_vs), (arc2, arc2_vs)


def _is_gadget_shaped(g: MultiGraph) -> bool:
    if len(g.vertices) != 3 or len(g.edges) != 4 or len(g.od_pairs) != 2:
        return False
    counts = Counter(frozenset((u, v)) for _, u, v in g.edges)
    if sorted(counts.values()) != [1, 1, 2]:
        return False
    return frozenset(g.od_pairs[0]) != frozenset(g.od_pairs[1])


def _contract_everything_allowed(
    wg: MultiGraph, steps: list[EmbeddingStep], x: str, y: str
) -> tuple[MultiGraph, str, str]:
    """Contract lex-least admissible edges until none remain.

    Admissible: never merge two terminals, never merge the attachment points
    x and y, never create a loop.  Merged vertices inherit terminal and
    attachment names, terminal names winning.
    """
    cur_x, cur_y = x, y
    while True:
        terminals = {v for pair in wg.od_pairs for v in pair}
        pick = None
        for eid in sorted(wg.edge_ids):
            p, q = wg.endpoints(eid)
            if p in terminals and q in terminals:
                continue
            if {p, q} == {cur_x, cur_y}:
                continue
            if len(wg.parallel_ids(p, q)) > 1:
                continue
            pick = (eid, p, q)
            break
        if pick is None:
            return wg, cur_x, cur_y
        eid, p, q = pick
        if p in terminals:
            name = p
        elif q in terminals:
            name = q
        elif p in (cur_x, cur_y):
            name = p
        elif q in (cur_x, cur_y):
            name = q
        else:
            name = min(p, q)
        step = EmbeddingStep.contract(eid, name)
        wg = apply_embedding_step(wg, step)
        steps.append(step)
        for old in (p, q):
            if old == name:
                continue
            if cur_x == old:
                cur_x = name
            elif cur_y == old:
                cur_y = name


def _try_reduce(
    block: MultiGraph,
    cycle: tuple[str, ...],
    ear: tuple[str, ...],
    x: str,
    y: str,
    full_terminals: frozenset[str],
) -> Optional[list[EmbeddingStep]]:
    """Delete everything outside cycle+ear, contract maximally, finish to gadget."""
    steps: list[EmbeddingStep] = []
    wg = block
    keep = set(cycle) | set(ear)
    for eid in sorted(block.edge_ids - keep):
        step = EmbeddingStep.delete(eid)
        wg = apply_embedding_step(wg, step)
        steps.append(step)
    wg, cur_x, cur_y = _contract_everything_allowed(wg, steps, x, y)

    if len(full_terminals) == 3:
        return steps if _is_gadget_shaped(wg) else None

    # four distinct terminals: one final cross-pair contraction
    set0 = set(wg.od_pairs[0])
    set1 = set(wg.od_pairs[1])
    for eid in sorted(wg.edge_ids):
        p, q = wg.endpoints(eid)
        if {p, q} == {cur_x, cur_y}:
            continue
        crosses = (p in set0 and q in set1) or (p in set1 and q in set0)
        if not crosses:
            continue
        if len(wg.parallel_ids(p, q)) > 1:
            continue
        step = EmbeddingStep.contract(eid, min(p, q))
        candidate = apply_embedding_step(wg, step)
        if _is_gadget_shaped(candidate):
            return steps + [step]
    return None


def find_gadget_embedding(
    block: MultiGraph, max_paths: int = DEFAULT_PATH_CAP
) -> list[EmbeddingStep]:
    """Nicely embed the paradox gadget into a 2-connected non-cycle block.

    Follows the constructive dichotomy: pick a cycle through one OD pair that
    reaches all but at most one terminal, attach an ear through the remaining
    terminal between two points x, y of one arc, delete the rest, contract
    maximally (never merging terminals, nor x with y), and finish with one
    cross-pair contraction when all four terminals are distinct.  Choices are
    explored in lexicographic order with backtracking, so the step list is
    canonical; success is machine-checked by replay.
    """
    if len(block.od_pairs) != 2:
        raise PreconditionViolated("gadget embedding needs exactly two OD pairs")
    set0 = frozenset(block.od_pairs[0])
    set1 = frozenset(block.od_pairs[1])
    if set0 == set1:
        raise PreconditionViolated("terminal sets coincide; block is coincident")
    if is_cycle(block):
        raise IsCycleError("cycles are immune; no gadget embedding exists")
    blocks, _ = biconnected_blocks(block)
    if len(blocks) != 1:
        raise PreconditionViolated("input is not 2-connected")

    terminals = set0 | set1
    cycles = _all_cycles(block, max_paths)
    for pair_a_idx in (0, 1):
        pair_a = frozenset(block.od_pairs[pair_a_idx])
        for cycle in cycles:
            on_cycle = set(_cycle_vertices(block, cycle))
            if not pair_a <= on_cycle:
                continue
            off = terminals - on_cycle
            if len(off) > 1:
                continue
            z_off = next(iter(off)) if off else None

            if z_off is None:
                ear_edges = sorted(block.edge_ids - set(cycle))
            else:
                ear_edges = sorted(
                    eid
                    for eid in block.edge_ids - set(cycle)
                    if z_off in block.endpoints(eid)
                )
            for eid in ear_edges:
                for x, y in itertools.combinations(sorted(on_cycle), 2):
                    interior_ok = (set(block.vertices) - on_cycle) | {x, y}
                    allowed = {
                        e
                        for e, u, v in block.edges
                        if u in interior_ok and v in interior_ok and e not in cycle
                    }
                    try:
                        ears = enumerate_simple_paths(
                            block, x, y, allowed, max_paths=max_paths
                        )
                    except ValueError:
                        continue
                    for ear in ears:
                        if eid not in ear:
                            continue
                        oa, da = sorted(pair_a)
                        arcs = _pair_arcs(block, cycle, oa, da)
                        if not any({x, y} <= arc_vs for _, arc_vs in arcs):
                            continue
                        steps = _try_reduce(block, cycle, ear, x, y, terminals)
                        if steps is not None:
                            replayed = block
                            for step in steps:
                                replayed = apply_embedding_step(replayed, step)
                            assert _is_gadget_shaped(replayed)
                            return steps
    raise PreconditionViolated("no gadget embedding found for this block")


# -- witness synthesis ----------------------------------------------------------------


def _lift_block_instance(
    block_graph: MultiGraph, steps: Sequence[EmbeddingStep]
) -> Optional[IBPInstance]:
    for variant in GadgetVariant:
        try:
            return lift_instance(block_graph, steps, gadget_instance(variant))
        except StepsDoNotReproduceSource:
            continue
    return None


def synthesize_ibp_witness(
    g: MultiGraph, max_paths: int = DEFAULT_PATH_CAP
) -> IBPInstance:
    """Build a concrete paradox instance on a network that is not IBP-free.

    Works through a common block of two OD chains that is neither coincident
    nor a cycle: embed the gadget there, lift its instance to the block, then
    to the whole graph (zero latencies off the block, full information on the
    other chain blocks).  The result is verified by solving both games.
    """
    report = decide_ibp_free(g, max_paths=max_paths)
    if report.verdict == IBP_FREE:
        raise PreconditionViolated("network is IBP-free; no witness exists")
    dec = report.decomposition

    candidates = (
        (i, j, v)
        for i, j in itertools.combinations(range(len(g.od_pairs)), 2)
        for v in sorted(common_blocks(g, dec, i, j).verdicts, key=lambda v: v.block_id)
        if v.kind == OTHER
    )
    for i, j, v in candidates:
        bid = v.block_id
        block_edges = dec.block_edges(bid)
        block_graph = g.induced(block_edges, [v.terminal_set_in_i, v.terminal_set_in_j])
        try:
            steps = find_gadget_embedding(block_graph, max_paths=max_paths)
        except (IsCycleError, PreconditionViolated):
            continue
        block_instance = _lift_block_instance(block_graph, steps)
        if block_instance is None:
            continue

        latencies = {}
        for eid in g.edge_ids:
            if eid in block_edges:
                latencies[eid] = block_instance.game.latencies[eid]
            else:
                latencies[eid] = LatencyFunction.zero()
        block_od_to_global = {0: i, 1: j}
        types = []
        for t in block_instance.game.types:
            g_od = block_od_to_global[t.od_index]
            other_edges: set[str] = set()
            for link in dec.chains[g_od]:
                if link.block_id != bid:
                    other_edges |= dec.block_edges(link.block_id)
            types.append(TravelerType(t.rate, g_od, t.info_set | other_edges))
        witness = IBPInstance(
            game=RoutingGame(g, latencies, types),
            extension=block_instance.extension,
        )
        verdict = check_ibp(witness)
        if not verdict.occurs:
            raise WitnessVerificationFailed(
                f"constructed witness has margin {verdict.margin}, expected > "
                f"{DEFAULT_DECISION_THRESHOLD}"
            )
        return witness
    raise UnsupportedFailureSite(
        "witness synthesis needs a non-cycle non-coincident common block; "
        "single-OD (SLI-condition) failures are out of scope"
    )


# -- randomized search -----------------------------------------------------------------


@dataclass(frozen=True)
class SearchOutcome:
    witness: Optional[IBPInstance]
    witness_trial: Optional[int]
    trials_run: int
    transcript: tuple[str, ...]
    hits: tuple[tuple[int, IBPInstance], ...] = ()


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
    transcript is a pure function of the seed.
    """
    rng = random.Random(seed)
    edge_ids = sorted(g.edge_ids)
    type1_paths = enumerate_simple_paths(g, *g.od_pairs[0])
    transcript = [f"seed={seed} trials={trials}"]
    hits: list[tuple[int, IBPInstance]] = []
    ran = 0
    for trial in range(trials):
        ran += 1
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
        witness=hits[0][1] if hits else None,
        witness_trial=hits[0][0] if hits else None,
        trials_run=ran,
        transcript=tuple(transcript),
        hits=tuple(hits),
    )


# -- cycle diagnostics ---------------------------------------------------------------


@dataclass(frozen=True)
class TypeDiagnostic:
    type_index: int
    drained_arc: Path  # flow weakly decreases after the extension
    drained_latency_before: float
    drained_latency_after: float
    latency_increases: bool  # necessary for a paradox
    rate: float
    others_rate: float
    rate_not_dominant: bool  # necessary for a paradox


@dataclass(frozen=True)
class CycleDiagnostics:
    per_type: tuple[TypeDiagnostic, ...]
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
    this distinguishes solver artifacts from genuine trouble.
    """
    g = instance.game.graph
    if not is_cycle(g):
        raise NotACycle("diagnostics are defined for cycle networks only")
    if len(instance.game.types) != len(g.od_pairs):
        raise NotNormalForm("expected exactly one traveler type per OD pair")
    for j, t in enumerate(instance.game.types):
        if t.od_index != j:
            raise NotNormalForm("type order must follow OD order")

    total_rate = sum(t.rate for t in instance.game.types)
    diagnostics = []
    latency_ok = True
    rate_ok = True
    for j, t in enumerate(instance.game.types):
        arcs = enumerate_simple_paths(g, *g.od_pairs[j])
        assert len(arcs) == 2
        before_flows = before_result.path_flows[j]
        after_flows = after_result.path_flows[j]
        drained = max(
            arcs,
            key=lambda p: (before_flows.get(p, 0.0) - after_flows.get(p, 0.0), p),
        )
        lat_before = instance.game.path_latency(drained, before_result.edge_flows)
        lat_after = instance.game.path_latency(drained, after_result.edge_flows)
        increases = lat_after - lat_before > CYCLE_SLACK
        others = total_rate - t.rate
        not_dominant = t.rate < others - CYCLE_SLACK
        diagnostics.append(
            TypeDiagnostic(
                type_index=j,
                drained_arc=drained,
                drained_latency_before=lat_before,
                drained_latency_after=lat_after,
                latency_increases=increases,
                rate=t.rate,
                others_rate=others,
                rate_not_dominant=not_dominant,
            )
        )
        latency_ok = latency_ok and increases
        rate_ok = rate_ok and not_dominant
    return CycleDiagnostics(
        per_type=tuple(diagnostics),
        latency_condition_holds=latency_ok,
        rate_condition_holds=rate_ok,
    )
