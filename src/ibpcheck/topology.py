"""Single-OD network classes (SP / LI / SLI) and the IBP-freeness verdict.

A multi-OD network is immune to the informational Braess' paradox exactly
when every OD subnetwork is SLI and every block shared by two subnetworks is
either coincident (same terminal set in both) or a cycle.  This module
recognizes the single-OD classes and renders that verdict with a witness for
the failing condition.

No recognizer enumerates paths.  One terminal-aware series/parallel
reduction decides SP and, by carrying LI and single-path flags through its
merges, the recursive LI definition; SLI requires LI of every block of the
OD chain, which `core_graph.block_chains` reads off the block-cut tree; the
same chain checks that every edge lies on a terminal path.  The literal
definitions -- no edge crossed in opposite directions, every path owning a
private edge -- enumerate paths; they are the test oracles and run on the
verdict path only to extract a witness after a failed SP or LI test.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .core_graph import (
    DEFAULT_PATH_CAP,
    BlockDecomposition,
    ChainBlock,
    MultiGraph,
    Path,
    Subnetwork,
    decompose_blocks,
    is_cycle,
    od_subnetwork,
    validate,
)
from .errors import (
    EdgeNotFound,
    InvalidNetwork,
    NoPath,
    NotSingleOd,
    PreconditionNotSli,
)

IBP_FREE = "ibp-free"
NOT_IBP_FREE = "not-ibp-free"

COINCIDENT = "coincident"
CYCLE = "cycle"
OTHER = "other"


# -- result types -------------------------------------------------------------


@dataclass(frozen=True)
class OppositeTraversal:
    """Two OD paths crossing one edge in opposite directions."""

    edge: str
    path_a: Path
    path_b: Path


@dataclass(frozen=True)
class PathWithoutPrivateEdge:
    path: Path


@dataclass(frozen=True)
class SingleOdClass:
    is_sp: bool
    is_li: bool
    is_sli: bool
    witness: Optional[object]  # OppositeTraversal | PathWithoutPrivateEdge

    def __post_init__(self):
        if self.is_li and not self.is_sli:
            raise AssertionError("LI network classified as non-SLI")
        if self.is_sli and not self.is_sp:
            raise AssertionError("SLI network classified as non-SP")


@dataclass(frozen=True)
class CommonBlockVerdict:
    block_id: int
    kind: str  # COINCIDENT | CYCLE | OTHER
    terminal_set_in_i: tuple[str, str]
    terminal_set_in_j: tuple[str, str]


@dataclass(frozen=True)
class PairwiseEntry:
    disjoint: bool
    verdicts: tuple[CommonBlockVerdict, ...]
    induced_matches: bool  # intersection edges == union of common blocks


@dataclass(frozen=True)
class FailureSite:
    condition: str  # "sli" | "common-block"
    od_index: Optional[int] = None
    od_pair_indices: Optional[tuple[int, int]] = None
    block_id: Optional[int] = None

    def describe(self) -> str:
        if self.condition == "sli":
            return f"SLI condition fails for OD index {self.od_index}"
        i, j = self.od_pair_indices
        return (
            f"common block condition fails for OD pair ({i}, {j})"
            f" at block {self.block_id}"
        )


@dataclass(frozen=True)
class TopologyReport:
    per_od: tuple[SingleOdClass, ...]
    pairwise: tuple[tuple[tuple[int, int], PairwiseEntry], ...]
    decomposition: BlockDecomposition
    verdict: str  # IBP_FREE | NOT_IBP_FREE
    failure_site: Optional[FailureSite]


# -- series-parallel ------------------------------------------------------------


def _check_single_od(net: Subnetwork) -> tuple[ChainBlock, ...]:
    """The terminals' block chain, once every edge is known to lie on it."""
    try:
        chain = net.chain
    except (InvalidNetwork, EdgeNotFound, NoPath):
        chain = ()  # a terminal or an edge is missing, or they are disconnected
    covered = frozenset().union(*(edges for edges, _, _ in chain))
    if covered != net.edge_subset:
        stray = sorted(net.edge_subset - covered)
        raise NotSingleOd(f"edges on no terminal path: {stray}")
    return chain


def _sp_reduce(
    graph: MultiGraph, edge_subset: frozenset[str], s: str, t: str
) -> tuple[bool, bool]:
    """Series/parallel reduction down to a single terminal edge.

    Returns (is SP, is LI).  Parallel edges merge as they appear, so the
    shrinking network stays simple and a worklist of vertices whose degree
    changed finds every series splice (Valdes, Tarjan & Lawler 1982).  Each
    edge stands for a subnetwork and carries two flags, LI and path (a
    single path), which evaluate the recursive LI definition bottom-up: a
    parallel merge is LI iff both parts are, and is never a path; a series
    splice is LI iff both parts are and one is a path, and is a path iff
    both are.
    """
    flags: dict[frozenset[str], tuple[bool, bool]] = {}  # edge -> (LI, path)
    neighbours: dict[str, set[str]] = {}

    def add(u: str, v: str, li: bool, path: bool) -> None:
        edge = frozenset((u, v))
        if edge in flags:
            li, path = li and flags[edge][0], False
        flags[edge] = (li, path)
        neighbours.setdefault(u, set()).add(v)
        neighbours.setdefault(v, set()).add(u)

    for eid in edge_subset:
        add(*graph.endpoints(eid), True, True)
    work = list(neighbours)
    while work:
        v = work.pop()
        if v in (s, t) or len(neighbours.get(v, ())) != 2:
            continue
        a, b = neighbours.pop(v)
        li_a, path_a = flags.pop(frozenset((v, a)))
        li_b, path_b = flags.pop(frozenset((v, b)))
        neighbours[a].discard(v)
        neighbours[b].discard(v)
        add(a, b, li_a and li_b and (path_a or path_b), path_a and path_b)
        work += (a, b)
    sp = flags.keys() == {frozenset((s, t))}
    return sp, sp and flags[frozenset((s, t))][0]


def _oriented_edge_directions(
    graph: MultiGraph, paths: tuple[Path, ...], start: str
) -> dict[str, dict[tuple[str, str], Path]]:
    directions: dict[str, dict[tuple[str, str], Path]] = {}
    for path in paths:
        seq = graph.path_vertices(path, start)
        for eid, u, v in zip(path, seq, seq[1:]):
            directions.setdefault(eid, {}).setdefault((u, v), path)
    return directions


def is_series_parallel_by_definition(
    net: Subnetwork,
) -> tuple[bool, Optional[OppositeTraversal]]:
    """Literal definition: no edge is crossed in opposite directions.

    Exponential in the path count; used as the oracle cross-check for the
    reduction recognizer and to extract failure witnesses.
    """
    o, _ = net.terminal_pair
    directions = _oriented_edge_directions(net.parent, net.paths, o)
    for eid in sorted(directions):
        used = directions[eid]
        if len(used) == 2:
            (pa, pb) = (used[k] for k in sorted(used))
            return False, OppositeTraversal(edge=eid, path_a=pa, path_b=pb)
    return True, None


def is_series_parallel(net: Subnetwork) -> tuple[bool, Optional[OppositeTraversal]]:
    """Reduction-based SP test; witness extracted on failure."""
    _check_single_od(net)
    if _sp_reduce(net.parent, net.edge_subset, *net.terminal_pair)[0]:
        return True, None
    ok, witness = is_series_parallel_by_definition(net)
    if ok:
        raise AssertionError("SP recognizers disagree; reduction says no")
    return False, witness


# -- linear independence ----------------------------------------------------------


def is_linearly_independent(
    net: Subnetwork,
) -> tuple[bool, Optional[PathWithoutPrivateEdge]]:
    """Every OD path must own an edge no other OD path uses.

    The literal definition, exponential in the path count: the oracle for
    the recursive recognizer and the source of failure witnesses.
    """
    _check_single_od(net)
    paths = net.paths
    for idx, path in enumerate(paths):
        others = set()
        for jdx, q in enumerate(paths):
            if jdx != idx:
                others.update(q)
        if not (set(path) - others):
            return False, PathWithoutPrivateEdge(path)
    return True, None


def is_linearly_independent_recursive(net: Subnetwork) -> bool:
    """Recursive recognizer: single edge, parallel of LI, or edge + LI in series.

    The definition is evaluated bottom-up along the series/parallel reduction.
    """
    _check_single_od(net)
    return _sp_reduce(net.parent, net.edge_subset, *net.terminal_pair)[1]


# -- series of linearly independent ------------------------------------------------


@dataclass(frozen=True)
class SliChainBlock:
    edges: frozenset[str]
    origin: str
    destination: str
    is_li: bool


def is_sli(net: Subnetwork) -> tuple[bool, tuple[SliChainBlock, ...]]:
    """Decompose into the OD block chain and require each block to be LI."""
    chain_blocks = tuple(
        SliChainBlock(
            edges=edges,
            origin=entry,
            destination=leave,
            is_li=_sp_reduce(net.parent, edges, entry, leave)[1],
        )
        for edges, entry, leave in _check_single_od(net)
    )
    return all(b.is_li for b in chain_blocks), chain_blocks


def classify_single_od(net: Subnetwork) -> SingleOdClass:
    sp, sp_witness = is_series_parallel(net)
    if not sp:
        return SingleOdClass(is_sp=False, is_li=False, is_sli=False, witness=sp_witness)
    if is_linearly_independent_recursive(net):
        return SingleOdClass(is_sp=True, is_li=True, is_sli=True, witness=None)
    _, li_witness = is_linearly_independent(net)
    sli, _ = is_sli(net)
    return SingleOdClass(is_sp=True, is_li=False, is_sli=sli, witness=li_witness)


# -- common blocks across OD pairs ---------------------------------------------------


def classify_common_blocks(
    g: MultiGraph,
    i: int,
    j: int,
    decomposition: Optional[BlockDecomposition] = None,
) -> PairwiseEntry:
    """Classify each block shared by subnetworks i and j.

    Requires both subnetworks to be SLI (otherwise blocks sharing an edge need
    not coincide).  Terminal order is ignored when testing coincidence.
    """
    sub_i = od_subnetwork(g, i)
    sub_j = od_subnetwork(g, j)
    for idx, sub in ((i, sub_i), (j, sub_j)):
        ok, _ = is_sli(sub)
        if not ok:
            raise PreconditionNotSli(f"OD subnetwork {idx} is not SLI")

    intersection = sub_i.edge_subset & sub_j.edge_subset
    if not intersection:
        return PairwiseEntry(disjoint=True, verdicts=(), induced_matches=True)

    dec = decomposition or decompose_blocks(g)
    chain_i = {dec.block_edges(l.block_id): l for l in dec.chains[i]}
    chain_j = {dec.block_edges(l.block_id): l for l in dec.chains[j]}

    verdicts = []
    matched: set[str] = set()
    for edges in sorted(chain_i, key=sorted):
        if edges not in chain_j:
            continue
        li = chain_i[edges]
        lj = chain_j[edges]
        set_i = {li.origin, li.destination}
        set_j = {lj.origin, lj.destination}
        if set_i == set_j:
            kind = COINCIDENT
        elif is_cycle(g, edges):
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
        matched |= edges
    return PairwiseEntry(
        disjoint=False,
        verdicts=tuple(verdicts),
        induced_matches=matched == intersection,
    )


def decide_ibp_free(g: MultiGraph, max_paths: int = DEFAULT_PATH_CAP) -> TopologyReport:
    """Full verdict: SLI condition plus the coincident-or-cycle block condition.

    The conditions are conjunctive, so the verdict short-circuits on the first
    failure; pairwise entries are still produced for every pair whose two
    subnetworks are SLI.
    """
    report = validate(g, max_paths=max_paths)
    if not report.ok:
        raise InvalidNetwork(
            "graph fails validation: "
            f"connected={report.connected}, "
            f"uncovered_edges={list(report.uncovered_edges)}, "
            f"uncovered_vertices={list(report.uncovered_vertices)}"
        )

    dec = decompose_blocks(g)
    per_od = []
    for i in range(len(g.od_pairs)):
        per_od.append(classify_single_od(od_subnetwork(g, i, max_paths=max_paths)))
    failure: Optional[FailureSite] = None
    for i, cls in enumerate(per_od):
        if not cls.is_sli:
            failure = FailureSite(condition="sli", od_index=i)
            break

    pairwise = []
    for i, j in itertools.combinations(range(len(g.od_pairs)), 2):
        if not (per_od[i].is_sli and per_od[j].is_sli):
            continue
        entry = classify_common_blocks(g, i, j, decomposition=dec)
        pairwise.append(((i, j), entry))
        if failure is not None:
            continue
        bad = next(
            (v for v in entry.verdicts if v.kind == OTHER),
            None,
        )
        if bad is not None:
            failure = FailureSite(
                condition="common-block", od_pair_indices=(i, j), block_id=bad.block_id
            )
        elif not entry.induced_matches:
            failure = FailureSite(condition="common-block", od_pair_indices=(i, j))

    return TopologyReport(
        per_od=tuple(per_od),
        pairwise=tuple(pairwise),
        decomposition=dec,
        verdict=NOT_IBP_FREE if failure else IBP_FREE,
        failure_site=failure,
    )


def check_sufficient_coincident(g: MultiGraph) -> bool:
    """Stricter sufficient condition: every common block coincident.

    Implies the full verdict is IBP-free, but not conversely: a shared cycle
    block with different terminal sets is immune yet not coincident.
    """
    per_od = []
    for i in range(len(g.od_pairs)):
        ok, _ = is_sli(od_subnetwork(g, i))
        per_od.append(ok)
    if not all(per_od):
        return False
    dec = decompose_blocks(g)
    for i, j in itertools.combinations(range(len(g.od_pairs)), 2):
        entry = classify_common_blocks(g, i, j, decomposition=dec)
        if entry.disjoint:
            continue
        if not entry.induced_matches:
            return False
        if any(v.kind != COINCIDENT for v in entry.verdicts):
            return False
    return True
