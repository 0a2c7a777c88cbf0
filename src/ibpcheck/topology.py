"""Single-OD network classes (SP / LI / SLI) and the IBP-freeness verdict.

A multi-OD network is immune to the informational Braess' paradox exactly
when every OD subnetwork is SLI and every block shared by two subnetworks is
either coincident (same terminal set in both) or a cycle.  This module
recognizes the single-OD classes and renders that verdict with the site of
the failing condition.

The verdict reads everything off one block decomposition of the whole
graph: each OD chain is its list of blocks.  One terminal-aware
series/parallel reduction over the chain's union decides SP and, by
carrying LI and single-path flags through its merges, the recursive LI
definition; a chain that is not LI is SLI iff the same reduction finds every
one of its blocks LI.  `common_blocks` applies the coincident / cycle /
other rule to the blocks two chains share.  Nothing on the verdict path
enumerates paths except `validate`'s coverage check.

The literal definitions -- no edge crossed in opposite directions, every
path owning a private edge -- enumerate paths.  They are the test oracles,
and the public `is_series_parallel` and `is_linearly_independent` call them
to return a failure witness on demand.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

from .core_graph import (
    DEFAULT_PATH_CAP,
    BlockDecomposition,
    ChainBlock,
    MultiGraph,
    Path,
    Subnetwork,
    decompose_blocks,
    is_cycle,
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


def _is_sli(graph: MultiGraph, chain: Sequence[ChainBlock]) -> bool:
    return all(_sp_reduce(graph, *block)[1] for block in chain)


def _classify_chain(
    graph: MultiGraph, chain: Sequence[ChainBlock], o: str, d: str
) -> SingleOdClass:
    """SP and LI from one reduction over the chain's union; SLI asks each block."""
    union = frozenset().union(*(edges for edges, _, _ in chain))
    sp, li = _sp_reduce(graph, union, o, d)
    sli = li or (sp and _is_sli(graph, chain))
    return SingleOdClass(is_sp=sp, is_li=li, is_sli=sli)


def classify_single_od(net: Subnetwork) -> SingleOdClass:
    return _classify_chain(net.parent, _check_single_od(net), *net.terminal_pair)


# -- common blocks across OD pairs ---------------------------------------------------


def common_blocks(
    g: MultiGraph, dec: BlockDecomposition, i: int, j: int
) -> PairwiseEntry:
    """Classify each block shared by OD chains i and j of `dec`.

    A shared block is coincident when its terminal sets in the two chains
    are equal (order ignored), else a cycle or other.  Blocks partition the
    edges, so the two OD subnetworks meet exactly in their shared blocks.
    """
    in_j = {link.block_id: link for link in dec.chains[j]}
    verdicts = []
    by_edges = lambda link: sorted(dec.block_edges(link.block_id))
    for li in sorted(dec.chains[i], key=by_edges):
        lj = in_j.get(li.block_id)
        if lj is None:
            continue
        if {li.origin, li.destination} == {lj.origin, lj.destination}:
            kind = COINCIDENT
        elif is_cycle(g, dec.block_edges(li.block_id)):
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
    return PairwiseEntry(disjoint=not verdicts, verdicts=tuple(verdicts))


def classify_common_blocks(g: MultiGraph, i: int, j: int) -> PairwiseEntry:
    """`common_blocks` of OD pairs i and j, once both are known to be SLI.

    In a pair that is not SLI, blocks sharing an edge need not coincide.
    """
    dec = decompose_blocks(g)
    for idx in (i, j):
        if not _is_sli(g, dec.chain_blocks(idx)):
            raise PreconditionNotSli(f"OD subnetwork {idx} is not SLI")
    return common_blocks(g, dec, i, j)


def decide_ibp_free(g: MultiGraph, max_paths: int = DEFAULT_PATH_CAP) -> TopologyReport:
    """Full verdict: SLI condition plus the coincident-or-cycle block condition.

    The conditions are conjunctive, so the failure site is the first one
    found; pairwise entries are still produced for every pair whose two
    subnetworks are SLI.  `max_paths` caps `validate`'s path enumeration.
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
    per_od = tuple(
        _classify_chain(g, dec.chain_blocks(i), o, d)
        for i, (o, d) in enumerate(g.od_pairs)
    )
    failure: Optional[FailureSite] = None
    for i, cls in enumerate(per_od):
        if not cls.is_sli:
            failure = FailureSite(condition="sli", od_index=i)
            break

    pairwise = []
    for i, j in itertools.combinations(range(len(g.od_pairs)), 2):
        if not (per_od[i].is_sli and per_od[j].is_sli):
            continue
        entry = common_blocks(g, dec, i, j)
        pairwise.append(((i, j), entry))
        bad = next((v for v in entry.verdicts if v.kind == OTHER), None)
        if failure is None and bad is not None:
            failure = FailureSite(
                condition="common-block", od_pair_indices=(i, j), block_id=bad.block_id
            )

    return TopologyReport(
        per_od=per_od,
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
    dec = decompose_blocks(g)
    pairs = range(len(g.od_pairs))
    return all(_is_sli(g, dec.chain_blocks(i)) for i in pairs) and all(
        v.kind == COINCIDENT
        for i, j in itertools.combinations(pairs, 2)
        for v in common_blocks(g, dec, i, j).verdicts
    )
