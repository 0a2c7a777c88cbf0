"""Single-OD network classes (SP / LI / SLI) and the IBP-freeness verdict.

A multi-OD network is immune to the informational Braess' paradox exactly
when every OD subnetwork is SLI and every block shared by two subnetworks is
either coincident (same terminal set in both) or a cycle.  `decide_ibp_free`
renders that verdict, with the site of the failing condition, and its
`TopologyReport` carries every per-OD class.

The verdict reads everything off one block decomposition of the whole
graph, the `decompose_blocks` walk that `validate` checks coverage on and
returns: each OD chain is its tuple of `ChainLink`s, a series of blocks.
One terminal-aware series/parallel reduction per (block, terminal pair)
decides the block's SP and, by carrying LI and single-path flags through
its merges, the recursive LI definition; chains that cross a block between
the same terminals share it, and each chain's classes are a fold over its
links.  `common_blocks` groups the links of all chains by block and applies
the coincident / cycle / other rule once per shared block, reading a
block's cycle-ness off its size, giving the table of every pair of chains
that meet.  Nothing on the verdict path enumerates paths: `validate` reads
coverage off the chain blocks and only counts paths, for the 10,000-path
cap that stays until ROADMAP item 1 moves its pin; the literal, enumerating
definitions live in the tests as oracles.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

from .core_graph import BlockDecomposition, ChainLink, MultiGraph, validate

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
    """The topology API: `per_od[i]` holds OD i's classes; the common-block
    table is `common_blocks(graph, decomposition)`."""

    per_od: tuple[SingleOdClass, ...]
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
    graph: MultiGraph,
    chain: Sequence[ChainLink],
    reduced: dict[tuple[int, str, str], tuple[bool, bool]],
) -> SingleOdClass:
    """Fold the per-block reductions over the chain, a series of blocks.

    The series is SP iff every block is, SLI iff every block is LI, and LI
    iff it is SLI with at most one block that is not a single edge: a
    block of two or more edges is 2-connected, so never a single path.
    `reduced` maps (block id, origin, destination) to the reduction of that
    link; a link not in it is reduced and added, so chains that cross a
    block between the same terminals share one reduction.
    """
    blocks = []
    for link in chain:
        key = (link.block_id, link.origin, link.destination)
        if key not in reduced:
            reduced[key] = _sp_reduce(graph, link.edges, link.origin, link.destination)
        blocks.append(reduced[key])
    sli = all(li for _, li in blocks)
    return SingleOdClass(
        is_sp=all(sp for sp, _ in blocks),
        is_li=sli and sum(len(link.edges) > 1 for link in chain) <= 1,
        is_sli=sli,
    )


# -- common blocks across OD pairs ---------------------------------------------------


def common_blocks(
    g: MultiGraph, dec: BlockDecomposition
) -> dict[tuple[int, int], tuple[CommonBlockVerdict, ...]]:
    """Classify every block that two OD chains of `dec` share, in one pass.

    Maps each pair (i, j), i < j, whose chains share a block to its
    verdicts; pairs come in index order and each pair's verdicts in the
    order of the blocks' sorted edge lists.  A shared block is coincident
    when its terminal sets in the two chains are equal (order ignored),
    else a cycle or other, tested at most once per block.  Blocks partition
    the edges, so two OD subnetworks meet exactly in their shared blocks,
    and a pair that is absent is disjoint.
    """
    crossing: dict[int, list[tuple[int, ChainLink]]] = {}
    for i, chain in enumerate(dec.chains):
        for link in chain:
            crossing.setdefault(link.block_id, []).append((i, link))
    table: dict[tuple[int, int], list[CommonBlockVerdict]] = {}
    for bid in sorted(crossing, key=lambda b: sorted(dec.blocks[b])):
        cycle = None
        for (i, li), (j, lj) in itertools.combinations(crossing[bid], 2):
            if {li.origin, li.destination} == {lj.origin, lj.destination}:
                kind = COINCIDENT
            else:
                if cycle is None:
                    # a block is 2-connected or one edge, and a 2-connected
                    # graph with as many vertices as edges has every degree
                    # 2: a cycle exactly when it has 2+ edges and |V| == |E|
                    edges = dec.blocks[bid]
                    ends = {v for eid in edges for v in g.edge_map[eid]}
                    cycle = len(edges) >= 2 and len(ends) == len(edges)
                kind = CYCLE if cycle else OTHER
            table.setdefault((i, j), []).append(
                CommonBlockVerdict(
                    block_id=bid,
                    kind=kind,
                    terminal_set_in_i=(li.origin, li.destination),
                    terminal_set_in_j=(lj.origin, lj.destination),
                )
            )
    return {pair: tuple(table[pair]) for pair in sorted(table)}


def decide_ibp_free(g: MultiGraph) -> TopologyReport:
    """Full verdict: SLI condition plus the coincident-or-cycle block condition.

    The conditions are conjunctive, so the failure site is the first one
    found: the least OD index whose chain is not SLI, else the first other
    entry of the `common_blocks` table, which is only built once every
    chain is SLI.
    """
    dec = validate(g)  # validation ran the block walk already
    reduced: dict[tuple[int, str, str], tuple[bool, bool]] = {}  # one per (block, terminals)
    per_od = tuple(_classify_chain(g, chain, reduced) for chain in dec.chains)
    failure = next(
        (FailureSite(condition="sli", od_index=i) for i, c in enumerate(per_od) if not c.is_sli),
        None,
    )
    if failure is None:
        failure = next(
            (
                FailureSite(condition="common-block", od_pair_indices=pair, block_id=v.block_id)
                for pair, verdicts in common_blocks(g, dec).items()
                for v in verdicts
                if v.kind == OTHER
            ),
            None,
        )
    return TopologyReport(
        per_od=per_od,
        decomposition=dec,
        verdict=NOT_IBP_FREE if failure else IBP_FREE,
        failure_site=failure,
    )
