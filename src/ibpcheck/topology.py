"""Single-OD network classes (SP / LI / SLI) and the IBP-freeness verdict.

A multi-OD network is immune to the informational Braess' paradox exactly
when every OD subnetwork is SLI and every block shared by two subnetworks is
either coincident (same terminal set in both) or a cycle.  `decide_ibp_free`
renders that verdict, with the site of the failing condition, and its
`TopologyReport` carries every per-OD class and pairwise entry.

The verdict reads everything off one block decomposition of the whole
graph, the `decompose_blocks` walk `validate` read its coverage check from:
each OD chain is its tuple of `ChainLink`s, and every step below reads a
link's block edges, entry and leave.  One terminal-aware series/parallel
reduction over the chain's union decides SP and, by carrying LI and
single-path flags through its merges, the recursive LI definition; a chain
that is not LI is SLI iff the same reduction finds every one of its blocks
LI.  `common_blocks` applies the coincident / cycle / other rule to the
blocks two chains share.  Nothing on the verdict path enumerates paths:
`validate` reads coverage off the chain blocks and only counts paths, for
the 10,000-path cap that stays until ROADMAP item 1 moves its pin; the
literal, enumerating definitions live in the tests as oracles.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

from .core_graph import BlockDecomposition, ChainLink, MultiGraph, is_cycle, validate
from .errors import InvalidNetwork

IBP_FREE = "ibp-free"
NOT_IBP_FREE = "not-ibp-free"

COINCIDENT = "coincident"
CYCLE = "cycle"
OTHER = "other"


# -- result types -------------------------------------------------------------


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
    verdicts: tuple[CommonBlockVerdict, ...]

    @property
    def disjoint(self) -> bool:
        return not self.verdicts


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
    """The topology API: `per_od[i]` holds OD i's classes, `pairwise` the
    common-block entry of every pair of SLI subnetworks in index order."""

    per_od: tuple[SingleOdClass, ...]
    pairwise: tuple[tuple[tuple[int, int], PairwiseEntry], ...]
    decomposition: BlockDecomposition
    verdict: str  # IBP_FREE | NOT_IBP_FREE
    failure_site: Optional[FailureSite]


# -- single-OD classes -----------------------------------------------------------


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


def _classify_chain(
    graph: MultiGraph, chain: Sequence[ChainLink], o: str, d: str
) -> SingleOdClass:
    """SP and LI from one reduction over the chain's union; SLI asks each block."""
    union = frozenset().union(*(link.edges for link in chain))
    sp, li = _sp_reduce(graph, union, o, d)
    blocks_li = (_sp_reduce(graph, b.edges, b.origin, b.destination)[1] for b in chain)
    sli = li or (sp and all(blocks_li))
    return SingleOdClass(is_sp=sp, is_li=li, is_sli=sli)


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
    for li in sorted(dec.chains[i], key=lambda link: sorted(link.edges)):
        lj = in_j.get(li.block_id)
        if lj is None:
            continue
        if {li.origin, li.destination} == {lj.origin, lj.destination}:
            kind = COINCIDENT
        elif is_cycle(g, li.edges):
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
    return PairwiseEntry(tuple(verdicts))


def decide_ibp_free(g: MultiGraph) -> TopologyReport:
    """Full verdict: SLI condition plus the coincident-or-cycle block condition.

    The conditions are conjunctive, so the failure site is the first one
    found; pairwise entries are still produced for every pair whose two
    subnetworks are SLI.
    """
    report = validate(g)
    if not report.ok:
        raise InvalidNetwork(
            "graph fails validation: "
            f"connected={report.connected}, "
            f"uncovered_edges={list(report.uncovered_edges)}, "
            f"uncovered_vertices={list(report.uncovered_vertices)}"
        )

    dec = report.decomposition  # validation ran the block walk already
    per_od = tuple(
        _classify_chain(g, dec.chains[i], o, d)
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
