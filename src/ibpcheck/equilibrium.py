"""Information-constrained Wardrop equilibria via potential minimization.

All traveler types share the same edge latencies; information sets only shape
each type's feasible path polytope.  The classic aggregated convex potential
(edge-wise integral of latencies) therefore remains valid: its minimizers
over the product of per-type path-flow simplices are exactly the equilibria,
and every equilibrium induces the same per-edge latencies.  The potential
itself is never evaluated here; the tests' oracles do that.

One cost core (``_CostCore``) serves both backends and result building: a
table of edge flows and cached edge latencies on renumbered edges and paths,
the path costs read off it, the used-path rule, the Wardrop gap (worst used
path cost minus cheapest path cost), the equal-cost system on one support,
linearized at the table's flows (``equal_cost_system``), and the one builder
of ``EquilibriumResult``.  Its path sets are every type's ``feasible_paths``,
with one graph walk per type that no earlier type covers: a type whose
information set lies inside an earlier type's on the same OD pair keeps
that type's paths inside its own set, in their order (``_type_paths``).
``FLOW_EPS`` is the one used-path threshold: a path is used when it carries
more than ``FLOW_EPS``, or any flow at all for a type whose rate is at most
``FLOW_EPS`` per path.  The system is built from the core's own renumbered
paths and latency coefficients, adding terms in edge order, so affine
results do not depend on how the edge ids hash.

Three backends:

* ``cg``    -- pairwise conditional-gradient on path flows: per type, shift
  mass from the costliest used path to the cheapest feasible path, by the
  zero of the move's potential derivative: closed form when the moved
  edges are affine, safeguarded Newton otherwise.  A shift updates the
  table on the edges it moves, an affine edge's latency inline from its
  (slope, constant) pair.  Cached per solve: per type, one list of path
  costs, which the shifts and the convergence test share until the table
  moves; per move (type, to path, from path), its gained and dropped edges
  as tuples in frozenset order with their pairs, getters of their
  latencies and, when affine, their slope sum.  The convergence test stops
  at the first type over tolerance; at convergence the table is loaded
  afresh if it moved, and the result takes that test's whole gap.  None of
  these shortcuts changes a float of the result.  Any polynomial latency.
* ``auto``  -- the default: ``cg`` sweeps, polished for every polynomial
  game.  Once the used-path support has held for a full sweep, and again at
  convergence, each support at most once in a row, the polish
  (``_solve_support``) has the equal-cost system on that support solved
  by least squares (``_equal_cost_flows``, which only solves: linearized at
  the table's flows and solved again at each solution until the flows stop
  moving, which is Newton's method; an affine system is exact after one
  solve).  The system is built once per support, and each Newton step
  rewrites only its block of path costs in place.  ``_solve_support`` alone
  accepts or pivots: a solution is accepted when it solves the system, no
  flow is negative and, with each type's rounding absorbed into its largest
  flow (``_support_flows``, shared with ``exact``), it passes the Wardrop
  gap.  The polish is an active-set step: a rejected solution changes the
  support and the system is solved again, at most ``PIVOTS`` times.  Paths
  with negative flow leave the support; if the flows are nonnegative but
  fail the gap, each type's cheapest path outside the support joins it; if
  no solution solves the system, the paths that cost more than their
  type's cheapest support path by more than the gap leave.  The edge
  latencies of an equilibrium are unique but its path flows need not be,
  so a singular system has many solutions; least squares returns the one
  of least norm, and a rejected one is pivoted like any other.  An
  accepted solution is returned with backend ``"exact"``; a polish that
  runs out of pivots, or of paths to drop or add, leaves the sweeps as
  they were, so ``auto`` never returns a worse answer than ``cg``.
* ``exact`` -- for affine latencies on small instances: enumerate supports of
  used paths, per type by size then index, and keep the first whose
  equal-cost system has a unique solution that is an equilibrium, checked
  exactly: the system is read as integers (every float is a dyadic
  rational) and solved by fraction-free elimination, a singular support is
  skipped, and the solution must have no negative flow and no feasible path
  cheaper than its type's cost level.  The flows come back as the nearest
  floats and no tolerance is read, so no absolute bound decides the answer
  when every latency is rescaled; costs that overflow a float, and so have
  no nearest floats, raise DidNotConverge as ``cg`` does.  An oracle only,
  never on ``auto``'s route.

numpy is imported only where a float system is built, that is by the
polish; the ``cg`` sweeps and ``exact`` run without it.

``cg`` and ``auto`` start from each active type's whole rate on its first
path, or from ``start``: per-type path flows in the shape of
``EquilibriumResult.path_flows``.  A start is feasible when every path it
names is one of the type's ``feasible_paths`` (inside its information set),
no flow is negative, and each type's flows sum to its rate within
``CONSERVATION_EPS``, or within one ulp of the rate per positive flow when
that is more (a large rate's sum rounds); anything else raises InvalidArgument.
``verify_wardrop`` holds a result's flows to the same bound.  The potential
is convex, so the start changes the sweeps but not the equilibrium edge
latencies.  ``exact`` enumerates supports and ignores ``start``.

``result.backend`` names the method that produced the returned flows:
``"exact"`` for the solution of the equal-cost system on one support,
checked by the Wardrop gap after the polish and exactly by the ``exact``
backend, and ``"cg"`` for sweep flows.

``verify_wardrop`` stays outside the core: it rebuilds everything from the
path-keyed result, as a check independent of either solver.  The other
independent route, solving each block of an SLI chain on its own and
summing the latencies, is a test oracle (``tests/oracles.py``).

Games and results are immutable values and both solvers are deterministic
single-threaded procedures, so independent games may be solved concurrently.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Callable, Collection, Iterable, Mapping, Optional, Sequence

from .core_graph import MultiGraph, Path, enumerate_simple_paths
from .errors import (
    BackendUnavailable,
    DidNotConverge,
    InvalidArgument,
    InvalidNetwork,
    NoFeasiblePath,
    SolverError,
)

if TYPE_CHECKING:
    import numpy as np  # imported at run time only where a float system is built

DEFAULT_TOLERANCE = 1e-8
FLOW_EPS = 1e-9  # the one used-path threshold, absolute; see _CostCore.floors
CONSERVATION_EPS = 1e-9  # how far a type's flows may sum from its rate
DEFAULT_MAX_ITERATIONS = 50_000
EXACT_PATH_LIMIT = 12
NEWTON_STEPS = 8  # the most systems `_equal_cost_flows` solves on one support
PIVOTS = 4  # the most support changes `_solve_support` makes before it rejects
NEWTON_RESOLUTION = 1e-8  # edge flows "stop moving", relative to the largest


@dataclass(frozen=True)
class LatencyFunction:
    """Polynomial latency, coefficients constant-first.

    Nonnegative coefficients are enforced: they guarantee the function is
    nonnegative and nondecreasing on the whole flow range.  A negative zero
    is stored as 0.0; then, for finite x, a latency of degree at most one
    evaluates to exactly `c1 * x + c0`, which the `cg` sweep computes
    inline.  The constant zero function is allowed (free edges used by
    instance lifting).
    """

    coefficients: tuple[float, ...]

    def __init__(self, coefficients: Iterable[float]):
        try:  # c + 0 turns -0.0 into 0.0 and refuses a str, as TravelerType does
            coeffs = tuple([float(c + 0) for c in coefficients])
        except (ArithmeticError, TypeError, ValueError):  # 10**400, None, "5", Decimal("sNaN")
            raise InvalidNetwork("latency coefficients must be finite numbers") from None
        if not coeffs:
            coeffs = (0.0,)
        if not all(0.0 <= c < math.inf for c in coeffs):
            raise InvalidNetwork(
                f"latency coefficients must be finite and nonnegative: {coeffs}"
            )
        object.__setattr__(self, "coefficients", coeffs)

    def __call__(self, x: float) -> float:
        acc = 0.0
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc

    @property
    def degree(self) -> int:
        deg = len(self.coefficients) - 1
        while deg > 0 and self.coefficients[deg] == 0.0:
            deg -= 1
        return deg

    @staticmethod
    def zero() -> "LatencyFunction":
        return LatencyFunction((0.0,))


@dataclass(frozen=True)
class TravelerType:
    """A traveler population: rate, OD pair index, and known edge set."""

    rate: float
    od_index: int
    info_set: frozenset[str]

    def __init__(self, rate: float, od_index: int, info_set: Iterable[str]):
        try:
            finite = 0.0 <= rate and float(rate) < math.inf
        except (OverflowError, TypeError):  # 10**400, "5"
            finite = False
        if not finite:
            raise InvalidNetwork("traveler rate must be finite and nonnegative")
        if not hasattr(od_index, "__index__"):  # 1.5 and "1" are no OD index
            raise InvalidNetwork(f"OD index must be an integer, got {od_index!r}")
        if isinstance(info_set, str):  # not the set of its characters
            raise InvalidNetwork(f"info set must be a collection of edge ids: {info_set!r}")
        object.__setattr__(self, "rate", float(rate))
        object.__setattr__(self, "od_index", int(od_index))
        object.__setattr__(self, "info_set", frozenset(info_set))


@dataclass(frozen=True)
class RoutingGame:
    graph: MultiGraph
    latencies: Mapping[str, LatencyFunction]
    types: tuple[TravelerType, ...]

    def __init__(
        self,
        graph: MultiGraph,
        latencies: Mapping[str, LatencyFunction],
        types: Sequence[TravelerType],
    ):
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "latencies", dict(latencies))
        object.__setattr__(self, "types", tuple(types))
        if set(self.latencies) != set(graph.edge_ids):
            raise InvalidNetwork("latencies must cover exactly the edge set")
        for t in self.types:
            if not 0 <= t.od_index < len(graph.od_pairs):
                raise InvalidNetwork(f"type references unknown OD index {t.od_index}")
            if not t.info_set <= graph.edge_ids:
                raise InvalidNetwork("info set references unknown edges")

    def path_latency(self, path: Path, edge_flows: Mapping[str, float]) -> float:
        return sum(self.latencies[eid](edge_flows.get(eid, 0.0)) for eid in path)


def feasible_paths(game: RoutingGame, j: int) -> tuple[Path, ...]:
    """Type j's OD paths inside its information set, lexicographically
    ordered; InvalidArgument unless j is an integer index of a type."""
    if not hasattr(j, "__index__") or not 0 <= j < len(game.types):
        raise InvalidArgument(f"type index {j!r} names none of the game's {len(game.types)} types")
    t = game.types[j]
    o, d = game.graph.od_pairs[t.od_index]
    return _routable(game, j, enumerate_simple_paths(game.graph, o, d, t.info_set))


def _routable(game: RoutingGame, j: int, paths: tuple[Path, ...]) -> tuple[Path, ...]:
    """`paths`, type j's feasible paths, unless the type has a rate and none."""
    rate = game.types[j].rate
    if rate > 0 and not paths:
        raise NoFeasiblePath(f"type {j} has rate {rate} but no feasible path")
    return paths


def _type_paths(game: RoutingGame) -> list[tuple[Path, ...]]:
    """Every type's `feasible_paths`, type by type, walking the graph once
    per OD pair and information set that no earlier type covers.

    A type whose information set lies inside that of an earlier type on its
    OD pair keeps the earlier type's paths that lie in its own set, in their
    order: a walk restricted to fewer edges finds exactly those paths, in
    the same order, so this is the tuple `feasible_paths` lists.  Errors
    come at the same type's turn: `NoFeasiblePath` at that type's, and the
    path cap only at the earlier type's, which lists at least as many.
    """
    type_paths: list[tuple[Path, ...]] = []
    for j, t in enumerate(game.types):
        for s, paths in zip(game.types, type_paths):  # the earlier types
            if s.od_index == t.od_index and t.info_set <= s.info_set:
                inside = tuple(filter(t.info_set.issuperset, paths))
                type_paths.append(_routable(game, j, inside))
                break
        else:
            type_paths.append(feasible_paths(game, j))
    return type_paths


# -- results -------------------------------------------------------------------


@dataclass(frozen=True)
class EquilibriumResult:
    path_flows: tuple[dict[Path, float], ...]  # per type
    edge_flows: dict[str, float]
    type_latencies: tuple[float, ...]
    max_wardrop_violation: float
    backend: str
    iterations: int


@dataclass(frozen=True)
class WardropReport:
    max_violation: float
    passed: bool


def verify_wardrop(
    game: RoutingGame,
    result: EquilibriumResult,
    epsilon: float = DEFAULT_TOLERANCE,
) -> WardropReport:
    """Re-derive everything from the path flows and check the equilibrium.

    Deliberately independent of any solver: edge flows are rebuilt from
    scratch and the violation is the worst gap between a used path and its
    type's cheapest feasible path.  A path is used when it carries more than
    FLOW_EPS or, for a type whose rate is at most FLOW_EPS per feasible
    path, any flow at all; a used path that is not feasible for its type
    (outside its information set) makes the violation infinite, and so does
    a negative or non-finite amount, which is no flow.  Passing also needs
    every type's flows to sum to its rate within the bound a `start` meets
    (see `solve_icwe`).  InvalidArgument is raised unless the result gives
    flows for exactly the game's types and `epsilon` is finite and
    nonnegative, as `solve_icwe` requires of `tolerance`.
    """
    if len(result.path_flows) != len(game.types):
        raise InvalidArgument(
            f"result gives flows for {len(result.path_flows)} types, "
            f"the game has {len(game.types)}"
        )
    if not 0.0 <= epsilon < math.inf:
        raise InvalidArgument(f"epsilon must be finite and nonnegative, got {epsilon}")
    edge_flows: dict[str, float] = {}
    for flows in result.path_flows:
        for path, amount in flows.items():
            for eid in path:
                edge_flows[eid] = edge_flows.get(eid, 0.0) + amount

    worst = 0.0
    conserved = True
    for j, t in enumerate(game.types):
        flows = result.path_flows[j]
        conserved = conserved and _conserves(flows.values(), t.rate)
        if not all(0.0 <= x < math.inf for x in flows.values()):
            worst = math.inf
        candidates = feasible_paths(game, j)
        if candidates:
            latencies = {p: game.path_latency(p, edge_flows) for p in candidates}
            best = min(latencies.values())
            floor = FLOW_EPS if t.rate > FLOW_EPS * len(candidates) else 0.0
            for p, amount in flows.items():
                if amount > floor:
                    worst = max(worst, latencies.get(p, math.inf) - best)
    return WardropReport(max_violation=worst, passed=worst <= epsilon and conserved)


def _conserves(flows: Collection[float], rate: float) -> bool:
    """Whether a type's flows sum to its rate: within CONSERVATION_EPS, or
    within one ulp of the rate per flow when that is more, which allows a
    large rate's float rounding and nothing else."""
    return abs(sum(flows) - rate) <= max(CONSERVATION_EPS, len(flows) * math.ulp(rate))


# -- the cost core shared by both backends ------------------------------------------


def _edge_getter(path: tuple[int, ...]):
    """A function from a table keyed by edge to `path`'s entries, as a tuple."""
    if len(path) == 1:
        (e,) = path
        return lambda lat: (lat[e],)
    return operator.itemgetter(*path)


class _CostCore:
    """One table of edge flows and latencies, read by solving and by results.

    Edges and paths are renumbered to ints.  A flow table is one dict per
    type from an index into that type's paths to its flow, in the insertion
    order of the path-keyed result.  A path's cost is the sum of its cached
    edge latencies in path order, read by one `operator.itemgetter` per
    path: the same floats as `RoutingGame.path_latency`.  Types with rate
    at most FLOW_EPS are inactive: they carry no flow and get latency 0.
    `coeffs` holds each edge's latency coefficients without trailing zeros,
    `lines` each edge's (slope, constant) when its degree is at most 1 and
    None otherwise, and `affine` says that every edge has a line.
    """

    def __init__(self, game: RoutingGame, type_paths: Sequence[tuple[Path, ...]]):
        self.game = game
        self.type_paths = type_paths
        self.edge_ids = sorted(game.latencies)
        position = {eid: e for e, eid in enumerate(self.edge_ids)}
        self.functions = [game.latencies[eid] for eid in self.edge_ids]
        self.coeffs = [fn.coefficients[: fn.degree + 1] for fn in self.functions]
        self.lines = [
            ((c[1] if len(c) == 2 else 0.0), c[0]) if len(c) <= 2 else None
            for c in self.coeffs
        ]
        self.affine = None not in self.lines
        self.paths = [[_edge_getter(p)(position) for p in tp] for tp in type_paths]
        self.getters = [[_edge_getter(p) for p in tp] for tp in self.paths]
        self.active = [j for j, t in enumerate(game.types) if t.rate > FLOW_EPS]
        # a type with one path is always at equilibrium
        self.contested = [j for j in self.active if len(type_paths[j]) > 1]
        # The used-path rule: a path is used when it carries more than its
        # type's floor: FLOW_EPS, or 0 for a rate at most FLOW_EPS per path.
        # It is chosen per type, not per flow table, so a tiny rate spread
        # thin by a given start is neither hidden at the start nor after a
        # shift lifts one of its paths above FLOW_EPS.
        self.floors = [
            FLOW_EPS if t.rate > FLOW_EPS * len(tp) else 0.0
            for t, tp in zip(game.types, type_paths)
        ]
        self.edge_flow = [0.0] * len(self.edge_ids)
        self.edge_lat = [0.0] * len(self.edge_ids)
        # per type, its path costs, valid until the table moves
        self.costs: list[Optional[list[float]]] = [None] * len(type_paths)

    def load(self, flows: Sequence[Mapping[int, float]]) -> None:
        """Rebuild the edge sums from scratch, adding in `verify_wardrop`'s order."""
        edge_flow = [0.0] * len(self.edge_ids)
        for j, f in enumerate(flows):
            paths = self.paths[j]
            for k, amount in f.items():
                for e in paths[k]:
                    edge_flow[e] += amount
        self.edge_flow[:] = edge_flow
        self.edge_lat[:] = [
            fn(x) if line is None else line[0] * x + line[1]
            for fn, line, x in zip(self.functions, self.lines, edge_flow)
        ]
        self.costs[:] = [None] * len(self.costs)

    def path_costs(self, j: int) -> list[float]:
        cost = self.costs[j]
        if cost is None:
            lat = self.edge_lat
            cost = self.costs[j] = [sum(get(lat)) for get in self.getters[j]]
        return cost

    def violation(
        self, flows: Sequence[Mapping[int, float]], bound: float = math.inf
    ) -> float:
        """The Wardrop gap: worst used-path cost minus the cheapest path cost.

        Types are checked in order, and the first whose gap exceeds `bound`
        ends the check: the value returned is then above `bound`, but may
        fall short of the whole gap.  Without `bound`, every type is read.
        A gap that is not a number (costs that overflowed to inf) is inf.
        """
        gap, costs = 0.0, self.costs
        for j in self.contested:
            cost = costs[j] or self.path_costs(j)
            floor, high = self.floors[j], None
            for k, x in flows[j].items():  # the costliest used path, as `max` picks it
                if x > floor and (high is None or cost[k] > high):
                    high = cost[k]
            high -= min(cost)
            if not high <= gap:  # as `max(gap, high)` picks it, but a NaN gap is inf
                gap = high if high > gap else math.inf
                if gap > bound:
                    break
        return gap

    def support(self, flows: Sequence[Mapping[int, float]]) -> tuple[tuple[int, ...], ...]:
        """Per active type, the sorted indices of its used paths."""
        return tuple(
            tuple(sorted(k for k, x in flows[j].items() if x > self.floors[j]))
            for j in self.active
        )

    @cached_property
    def _derivatives(self) -> np.ndarray:
        """Each edge's derivative coefficients, constant-first, one row per
        edge; only a non-affine core reads them."""
        import numpy as np

        width = max(map(len, self.coeffs))
        return np.array(
            [[k * c[k] if k < len(c) else 0.0 for k in range(1, width)] for c in self.coeffs]
        )

    def equal_cost_system(
        self, support: Sequence[Sequence[int]]
    ) -> tuple[np.ndarray, np.ndarray, Callable[[], None]]:
        """The equal-cost system on one support, as (A, b, refresh).

        `support` lists, per active type in order, the indices of its used
        paths.  The unknowns are those paths' flows, in order, then one cost
        per type.  Every latency is replaced by its tangent at the table's
        current edge flow f: slope l'(f), constant l(f) - l'(f) f.  An affine
        core keeps its own coefficients, so its system is exact and does not
        read the table.  A path's row says its cost (the constants of its
        edges plus, for every used path, that path's flow times the slopes of
        the edges the two share) equals its type's cost; a type's row says
        its flows sum to its rate.  Costs are summed in edge order from the
        support's incidence rows, so the system does not depend on how edge
        ids hash.

        Only the path rows' cost block reads the table.  `refresh()`
        rewrites that block in place, linearized at the table's flows then,
        so a Newton loop builds the incidence rows and the conservation rows
        and columns once per support; the refreshed system is the one a new
        call would build.
        """
        import numpy as np

        paths = [self.paths[j][k] for j, ks in zip(self.active, support) for k in ks]
        n, dim, width = len(paths), len(paths) + len(support), len(self.edge_ids)
        rows = np.zeros((n, width))
        rows.put([r * width + e for r, p in enumerate(paths) for e in p], 1.0)
        a_mat = np.zeros((dim, dim))
        b_vec = np.zeros(dim)
        row = 0
        for tpos, (j, ks) in enumerate(zip(self.active, support)):
            a_mat[row : row + len(ks), n + tpos] = -1.0
            a_mat[n + tpos, row : row + len(ks)] = 1.0
            b_vec[n + tpos] = self.game.types[j].rate
            row += len(ks)

        def refresh() -> None:
            if self.affine:
                slope, const = map(np.array, zip(*self.lines))
            else:
                flow = np.array(self.edge_flow)
                slope = np.zeros_like(flow)
                for column in reversed(self._derivatives.T):  # Horner: l'(f) per edge
                    slope = slope * flow + column
                const = np.array(self.edge_lat) - slope * flow
            a_mat[:n, :n] = (rows * slope) @ rows.T
            b_vec[:n] = -(rows @ const)

        refresh()
        return a_mat, b_vec, refresh

    def result(
        self, flows: Sequence[Mapping[int, float]], backend: str, iterations: int, gap: float
    ) -> EquilibriumResult:
        """The path-keyed result of the loaded flows, whose whole gap is `gap`."""
        latencies = [0.0] * len(self.type_paths)
        for j in self.active:
            cost = self.path_costs(j)
            floor = self.floors[j]
            latencies[j] = min([cost[k] for k, x in flows[j].items() if x > floor])
        touched = dict.fromkeys(
            e for j, f in enumerate(flows) for k in f for e in self.paths[j][k]
        )
        return EquilibriumResult(
            path_flows=tuple(
                {tp[k]: x for k, x in f.items()} for tp, f in zip(self.type_paths, flows)
            ),
            edge_flows={self.edge_ids[e]: self.edge_flow[e] for e in touched},
            type_latencies=tuple(latencies),
            max_wardrop_violation=gap,
            backend=backend,
            iterations=iterations,
        )


# -- solving the equal-cost system on one support ---------------------------------


def _support_flows(
    core: _CostCore, support: Sequence[Sequence[int]], values: Iterable[float]
) -> list[dict[int, float]]:
    """Per type, the flows `values` gives the paths of `support`, in its
    order, with each active type's rounding, its rate minus the sum of its
    flows, added to its largest flow."""
    flows: list[dict[int, float]] = [{} for _ in core.type_paths]
    values = iter(values)
    for j, ks in zip(core.active, support):
        f = flows[j] = {k: next(values) for k in ks}
        gap = core.game.types[j].rate - sum(f.values())
        if gap != 0.0:
            f[max(f, key=f.get)] += gap
    return flows


def _equal_cost_flows(core: _CostCore, support: Sequence[Sequence[int]]) -> Optional[list[float]]:
    """The flows of `support`'s paths, in its order, on which every path of
    a type costs the same, or None when no solution solves the system or a
    latency overflows at a Newton iterate.

    `support` lists, per active type in order, the indices of the paths it
    uses.  An affine system is solved once; any other is linearized at the
    table's flows and solved again at each solution until the flows stop
    moving.  The table is left holding the last iterate loaded, if any.
    """
    import numpy as np

    if not support:  # no active type: the empty flows
        return []
    n = sum(map(len, support))  # the path-flow unknowns come first
    a_mat, b_vec, refresh = core.equal_cost_system(support)
    for step in range(NEWTON_STEPS):
        if step:  # linearized again at the last solution's flows
            refresh()
        solution = np.linalg.lstsq(a_mat, b_vec, rcond=None)[0]
        if core.affine or not np.isfinite(solution).all():
            break
        before = core.edge_flow[:]
        iterate: list[dict[int, float]] = [{} for _ in core.type_paths]
        values = iter(solution[:n].tolist())
        for j, ks in zip(core.active, support):
            iterate[j] = {k: next(values) for k in ks}
        core.load(iterate)
        if not all(map(math.isfinite, core.edge_lat)):
            return None  # diverged: a latency overflowed
        moved = max(abs(x - y) for x, y in zip(core.edge_flow, before))
        if moved <= NEWTON_RESOLUTION * max(before):
            break
    if not np.isfinite(solution).all() or np.abs(a_mat @ solution - b_vec).max() > 1e-7:
        return None
    return solution[:n].tolist()


def _solve_support(
    core: _CostCore, support: Sequence[Sequence[int]], tolerance: float
) -> Optional[list[dict[int, float]]]:
    """The polish: accepted equal-cost flows on `support`, or on a support at
    most PIVOTS pivots away from it, or None.  A solution is accepted when
    no flow is below -1e-9 and, clipped at zero with each type's rounding
    absorbed, its flows pass the Wardrop gap.  The table is left holding
    whatever was loaded last; on acceptance, the returned flows."""
    for _ in range(PIVOTS + 1):
        x = _equal_cost_flows(core, support)
        flows = None
        if x is not None:  # clipped at zero, each type's rounding absorbed
            flows = _support_flows(core, support, [max(v, 0.0) for v in x])
        if x is not None and min(x, default=0.0) < -1e-9:
            # the paths with negative flow leave
            values = iter(x)
            pivoted = [tuple(k for k in ks if next(values) >= -1e-9) for ks in support]
        elif flows is None or any(v < 0.0 for f in flows for v in f.values()):
            # no solution solved the system, or a type's rounding outweighed its
            # largest flow: on the loaded table, unless a latency overflowed,
            # the paths dearer than their type's cheapest support path by more
            # than the gap leave
            if not all(map(math.isfinite, core.edge_lat)):
                return None
            pivoted = []
            for j, ks in zip(core.active, support):
                cost = core.path_costs(j)
                cheapest = min(cost[k] for k in ks)
                pivoted.append(tuple(k for k in ks if cost[k] <= cheapest + tolerance))
        else:
            core.load(flows)
            if core.violation(flows, tolerance) <= tolerance:
                return flows
            # over the gap on the loaded table: each type's cheapest path joins
            # its support, if it is not in it yet
            pivoted = []
            for j, ks in zip(core.active, support):
                cost = core.path_costs(j)
                best = cost.index(min(cost))
                pivoted.append(ks if best in ks else tuple(sorted((*ks, best))))
        if () in pivoted or pivoted == list(support):  # a type left without a path, or no move
            return None
        support = pivoted
    return None


# -- exact backend: affine support enumeration ------------------------------------------


def _bareiss_solve(rows: list[list[int]]) -> Optional[tuple[list[int], int]]:
    """Solve the integer system given as augmented rows [A | b] by
    fraction-free elimination (Bareiss, Math. Comp. 22, 1968), in place.

    Returns (X, d) with d > 0 and A X = d b, so X / d is the solution, or
    None when A is singular.  Every division is exact: each pivot is a minor
    of A, the last one its determinant up to sign, and d times the solution
    is integral by Cramer's rule.
    """
    m = len(rows)
    previous = 1
    for k in range(m):
        pivot = next((i for i in range(k, m) if rows[i][k]), None)
        if pivot is None:
            return None
        rows[k], rows[pivot] = rows[pivot], rows[k]
        top = rows[k]
        p = top[k]
        for row in rows[k + 1 :]:
            a = row[k]
            row[k:] = [(p * x - a * y) // previous for x, y in zip(row[k:], top[k:])]
        previous = p
    det = previous
    scaled = [0] * m
    for i in reversed(range(m)):
        row = rows[i]
        rest = sum(row[c] * scaled[c] for c in range(i + 1, m))
        scaled[i] = (det * row[m] - rest) // row[i]
    if det < 0:
        return [-x for x in scaled], -det
    return scaled, det


def _solve_exact(core: _CostCore) -> EquilibriumResult:
    """Try every support, smallest first per type, and keep the first whose
    equal-cost system has an equilibrium for its unique solution; an oracle,
    never `auto`'s route.

    Every float is a dyadic rational, so each edge's slope and constant are
    read as integers over one power of two, each rate as an integer over
    its own, and the system on a support is solved exactly in integers.  A
    singular support is skipped: flow can move along a null direction at
    unchanged costs until a path empties, so a nonsingular optimal support
    exists.  A support is accepted when no flow is negative and no feasible
    path of a type costs less than that type's cost level, both checked
    exactly; its flows come back as the nearest floats, each type's
    rounding absorbed into its largest flow.  Raises DidNotConverge when
    their Wardrop gap is infinite: the costs overflowed a float.
    """
    if not core.affine:
        raise BackendUnavailable("exact backend requires affine latencies")
    active = core.active
    counts = [len(core.paths[j]) for j in active]
    if sum(counts) > EXACT_PATH_LIMIT:
        raise BackendUnavailable(
            f"exact backend limited to {EXACT_PATH_LIMIT} paths, got {sum(counts)}"
        )
    if not active:  # the empty flows are the equilibrium
        flows: list[dict[int, float]] = [{} for _ in core.type_paths]
        core.load(flows)
        return core.result(flows, "exact", 0, core.violation(flows))
    ratios = [x.as_integer_ratio() for line in core.lines for x in line]
    scale = max(den for _, den in ratios)
    slope = [num * (scale // den) for num, den in ratios[0::2]]
    const = [num * (scale // den) for num, den in ratios[1::2]]
    rates = [core.game.types[j].rate.as_integer_ratio() for j in active]
    # every path of an active type, type after type: its constant cost and
    # the slopes it shares with each other path, all times `scale`
    edge_sets = [frozenset(p) for j in active for p in core.paths[j]]
    base = [sum(const[e] for e in p) for p in edge_sets]
    shared = [[sum(slope[e] for e in p & q) for q in edge_sets] for p in edge_sets]
    first = list(itertools.accumulate(counts, initial=0))
    # per-type candidate supports: nonempty subsets ordered by size then index
    per_type_subsets = [
        [ks for size in range(1, m + 1) for ks in itertools.combinations(range(m), size)]
        for m in counts
    ]
    for support in itertools.product(*per_type_subsets):
        # unknowns: the support's flows, then each type's cost times `scale`
        used = [(t, first[t] + k) for t, ks in enumerate(support) for k in ks]
        n, m = len(used), len(used) + len(active)
        rows = []
        for t, p in used:
            row = [shared[p][q] for _, q in used] + [0] * (m - n) + [-base[p]]
            row[n + t] = -1
            rows.append(row)
        for t, (num, den) in enumerate(rates):
            rows.append([den if s == t else 0 for s, _ in used] + [0] * (m - n) + [num])
        solved = _bareiss_solve(rows)
        if solved is None:
            continue
        scaled, det = solved
        if min(scaled[:n]) < 0:
            continue
        load = [(q, x) for (_, q), x in zip(used, scaled)]
        if any(  # a path cheaper than its type's level, all times `scale * det`
            base[p] * det + sum(shared[p][q] * x for q, x in load) < level
            for t, level in enumerate(scaled[n:])
            for p in range(first[t], first[t + 1])
        ):
            continue
        flows = _support_flows(core, support, [x / det for x in scaled[:n]])
        core.load(flows)
        violation = core.violation(flows)
        if violation == math.inf:  # costs that overflowed a float: no answer to round to
            raise DidNotConverge(1, violation)
        return core.result(flows, "exact", 1, violation)
    raise SolverError("exact backend found no optimal support (degenerate input?)")


# -- conditional-gradient backend ----------------------------------------------------


def _affine_step(slope: float, rise: float, gamma_max: float) -> float:
    """The zero of the line slope + rise * gamma, clipped to [0, gamma_max]:
    the step of a move whose edges are all affine."""
    if slope >= 0.0:
        return 0.0
    if slope + rise * gamma_max <= 0.0:
        return gamma_max
    return min(-slope / rise, gamma_max)


def _line_search(
    gain: Sequence[tuple[tuple[float, ...], float]],
    drop: Sequence[tuple[tuple[float, ...], float]],
    slope: float,
    gamma_max: float,
) -> float:
    """Amount in [0, gamma_max] to move onto the `gain` edges off the `drop` edges.

    Each edge is given as (latency coefficients without trailing zeros,
    current flow).  The move's potential derivative
    g(gamma) = sum_gain l(f + gamma) - sum_drop l(f - gamma) is nondecreasing
    (convexity) and equals `slope` at 0, so the minimizer is its zero
    crossing: `_affine_step` when every edge is affine, otherwise safeguarded
    Newton on Horner evaluations inside the sign-change bracket, stopping once
    a step is below the resolution of the flows it moves.
    """
    moves = [(c, f, 1.0) for c, f in gain] + [(c, f, -1.0) for c, f in drop]
    if all(len(c) <= 2 for c, _, _ in moves):  # g is a line, rising by the slopes' sum
        rise = sum((c[1] for c, _, _ in moves if len(c) == 2), 0.0)
        return _affine_step(slope, rise, gamma_max)
    if slope >= 0.0:
        return 0.0

    def g(gamma: float) -> tuple[float, float]:
        value = deriv = 0.0
        for coeffs, f, sign in moves:
            x = f + sign * gamma
            v = d = 0.0
            for c in reversed(coeffs):
                d = d * x + v
                v = v * x + c
            value += sign * v
            deriv += d
        return value, deriv

    value, _ = g(gamma_max)
    if value <= 0.0:
        return gamma_max
    lo, hi = 0.0, gamma_max
    gamma = gamma_max * slope / (slope - value)  # regula falsi start
    resolution = 2.0**-50 * (gamma_max + max(f for _, f, _ in moves))
    for _ in range(100):
        value, deriv = g(gamma)
        if value < 0.0:
            lo = gamma
        elif value > 0.0:
            hi = gamma
        else:
            return gamma
        step = gamma - value / deriv if deriv > 0.0 else 0.5 * (lo + hi)
        if abs(step - gamma) <= resolution:
            return min(max(step, lo), hi)
        gamma = step if lo < step < hi else 0.5 * (lo + hi)
    return gamma


def _start_flows(
    core: _CostCore, start: Optional[Sequence[Mapping[Path, float]]]
) -> list[dict[int, float]]:
    """Per type, flow by index into its paths: all on the first path, or
    `start`'s flows, which must be feasible (see `solve_icwe`).  Inactive
    types keep no flow; paths given zero flow are left out."""
    flows: list[dict[int, float]] = [{} for _ in core.type_paths]
    if start is None:
        for j in core.active:
            flows[j] = {0: core.game.types[j].rate}
        return flows
    if len(start) != len(core.type_paths):
        raise InvalidArgument(
            f"start gives flows for {len(start)} types, the game has {len(core.type_paths)}"
        )
    for j, (paths, given) in enumerate(zip(core.type_paths, start)):
        index = dict(zip(paths, range(len(paths))))
        alloc: dict[int, float] = {}
        for path, amount in given.items():
            if path not in index:
                raise InvalidArgument(f"start path {path} is not feasible for type {j}")
            if not 0.0 <= amount < math.inf:
                raise InvalidArgument(
                    f"start flow {amount} on {path} of type {j} is not finite and >= 0"
                )
            if amount > 0.0:
                alloc[index[path]] = float(amount)
        rate = core.game.types[j].rate
        if not _conserves(alloc.values(), rate):
            raise InvalidArgument(
                f"start flows of type {j} sum to {sum(alloc.values())}, not its rate {rate}"
            )
        if j in core.active:
            if max(alloc.values()) <= core.floors[j]:
                raise InvalidArgument(
                    f"start flows of type {j} use no path: none is above FLOW_EPS"
                )
            flows[j] = alloc
    return flows


def _solve_cg(
    core: _CostCore,
    tolerance: float,
    max_iterations: int,
    start: Optional[Sequence[Mapping[Path, float]]],
    polish: bool,
) -> EquilibriumResult:
    """Pairwise conditional-gradient sweeps on the cost core's table, from
    `start` (see `solve_icwe`), until the Wardrop gap is at most `tolerance`;
    with `polish`, the ``auto`` backend of the module docstring.  Raises
    DidNotConverge after `max_iterations` sweeps, or after the first sweep
    whose gap is not finite."""
    flows = _start_flows(core, start)
    core.load(flows)
    functions, coeffs, paths, path_costs = core.functions, core.coeffs, core.paths, core.path_costs
    edge_flow, edge_lat, costs = core.edge_flow, core.edge_lat, core.costs
    contested = [(j, flows[j], core.floors[j]) for j in core.contested]
    unknown = [None] * len(costs)
    # per edge (edge, slope, constant), the slope None above degree 1
    steps = [(e, *(line or (None, None))) for e, line in enumerate(core.lines)]
    # (type, to path, from path) -> the gained and the dropped edges' steps
    # in frozenset order, their latency getters, their slope sum or None
    moves: dict[tuple[int, int, int], tuple] = {}
    loaded = True  # the table holds the sums `load` builds from `flows`
    previous = tried = None  # the support after the last sweep; the last one polished
    for sweep in range(max_iterations + 1):
        for j, f, floor in contested if sweep else ():
            cost = costs[j] or path_costs(j)
            best = cost.index(low := min(cost))
            worst = -1  # the costliest used path, the last of equals, as `max` picks it
            for k, x in f.items():
                if x > floor and (worst < 0 or cost[k] > high or cost[k] == high and k > worst):
                    high, worst = cost[k], k
            if worst == best or high - low <= tolerance * 1e-3:
                continue
            move = moves.get((j, best, worst))
            if move is None:
                p, q = frozenset(paths[j][best]), frozenset(paths[j][worst])
                gain_at, drop_at = _edge_getter(tuple(p - q)), _edge_getter(tuple(q - p))
                gain, drop = gain_at(steps), drop_at(steps)
                slopes = [a for _, a, _ in (*gain, *drop)]
                rise = None if None in slopes else sum(slopes, 0.0)
                move = moves[j, best, worst] = gain, drop, gain_at, drop_at, rise
            gain, drop, gain_at, drop_at, rise = move
            slope = sum(gain_at(edge_lat)) - sum(drop_at(edge_lat))
            if rise is None:
                gamma = _line_search(
                    [(coeffs[e], edge_flow[e]) for e, _, _ in gain],
                    [(coeffs[e], edge_flow[e]) for e, _, _ in drop],
                    slope,
                    f[worst],
                )
            else:
                gamma = _affine_step(slope, rise, f[worst])
            if not gamma > 0.0:  # also a NaN step, from costs that overflowed
                continue
            remaining = f[worst] - gamma
            if remaining <= FLOW_EPS * 1e-3:
                gamma += remaining  # empty the source exactly
                del f[worst]
            else:
                f[worst] = remaining
            f[best] = f.get(best, 0.0) + gamma
            for edges, step in ((gain, gamma), (drop, -gamma)):
                for e, a, b in edges:
                    x = edge_flow[e] = edge_flow[e] + step
                    edge_lat[e] = functions[e](x) if a is None else a * x + b
            costs[:] = unknown
            loaded = False
        gap = core.violation(flows, tolerance)  # above tolerance: maybe not the whole gap
        if gap <= tolerance and not loaded:
            core.load(flows)
            loaded = True
            gap = core.violation(flows, tolerance)
        if polish:
            support = core.support(flows)
            if (gap <= tolerance or support == previous) and support != tried:
                tried = support
                saved = edge_flow[:], edge_lat[:]
                polished = _solve_support(core, support, tolerance)
                if polished is not None:
                    return core.result(polished, "exact", sweep, core.violation(polished))
                edge_flow[:], edge_lat[:] = saved  # sweep on as if never polished
                costs[:] = unknown
            previous = support
        if gap <= tolerance:
            return core.result(flows, "cg", sweep, gap)  # not over: the whole gap
        if sweep and not math.isfinite(gap):  # overflowed costs: no later sweep lowers it
            raise DidNotConverge(sweep, gap)
    raise DidNotConverge(max_iterations, core.violation(flows))


# -- public solver ---------------------------------------------------------------------


def solve_icwe(
    game: RoutingGame,
    tolerance: float = DEFAULT_TOLERANCE,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
    backend: str = "auto",
    start: Optional[Sequence[Mapping[Path, float]]] = None,
) -> EquilibriumResult:
    """Compute an ICWE flow: minimize the potential over per-type path flows.

    `backend` is one of the module docstring's: "cg" runs the
    conditional-gradient sweeps alone; "auto" polishes them and never
    returns a worse answer than "cg"; "exact" tries every support (affine
    latencies, at most EXACT_PATH_LIMIT paths), solves each in exact integer
    arithmetic and serves as an oracle.  Only the polish imports numpy.

    "cg" and "auto" start from `start` when it is given: per type, a
    mapping from paths to flows, as in `result.path_flows`.  Every path
    must be one of the type's `feasible_paths`, every flow nonnegative, and
    each type's flows must sum to its rate within CONSERVATION_EPS, or
    within one `math.ulp(rate)` per positive flow when that is more, which
    allows a large rate's float rounding and nothing else; otherwise
    InvalidArgument is raised, as it is when no flow of an active type is
    used (above FLOW_EPS); types with rate at most FLOW_EPS keep no flow.  The
    result of another game is a feasible start whenever each type's paths
    there are still feasible here, as when only information sets grew.
    "exact" ignores `start` and `tolerance`: it returns the floats nearest
    an exact equilibrium.  Without a start, each type starts on its first
    path.

    `result.backend` names the method that produced the returned flows:
    "exact" for an equal-cost solution on one support, "cg" for sweep flows.
    `result.iterations` counts sweeps, also for a polished result; the
    enumerator reports 1 (0 with no active type).  A `tolerance` that is
    not finite and nonnegative, a `max_iterations` that is not a
    nonnegative integer, or an unknown `backend` raises InvalidArgument
    before any path is listed, also for "exact".
    """
    if not 0.0 <= tolerance < math.inf:
        raise InvalidArgument(f"tolerance must be finite and nonnegative, got {tolerance}")
    if not hasattr(max_iterations, "__index__") or max_iterations < 0:  # an int, as range() takes
        raise InvalidArgument(
            f"max_iterations must be a nonnegative integer, got {max_iterations!r}"
        )
    if backend not in ("auto", "cg", "exact"):
        raise InvalidArgument(f"unknown backend {backend!r}")
    core = _CostCore(game, _type_paths(game))
    if backend == "exact":
        return _solve_exact(core)
    return _solve_cg(core, tolerance, max_iterations, start, polish=backend == "auto")
