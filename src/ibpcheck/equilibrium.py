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
of ``EquilibriumResult``.  ``FLOW_EPS`` is the one used-path threshold: a path
is used when it carries more than ``FLOW_EPS``, or any flow at all for a type
whose rate is at most ``FLOW_EPS`` per path.  The system is built from the
core's own renumbered paths and latency coefficients, adding terms in edge
order, so affine results do not depend on how the edge ids hash.

Three backends:

* ``cg``    -- pairwise conditional-gradient on path flows: per type, shift
  mass from the costliest used path to the cheapest feasible path.  A shift
  updates the table only on the edges it moves, an affine edge's latency
  inline; path costs, the line search's starting slope and the per-sweep
  convergence test read it.  The convergence test stops at the first type
  over tolerance, and the result is built from a freshly loaded table.  The
  step size is the zero of the move's potential derivative: closed form
  when the moved edges are affine, safeguarded Newton otherwise.  Each move
  (type, to path, from path) is cached per solve with its edges and, when
  affine, its slope sum.  None of these shortcuts changes a float of the
  result.  Works for any polynomial latencies.
* ``auto``  -- the default: ``cg`` sweeps, polished for every polynomial
  game.  Once the used-path support has held for a full sweep, and again at
  convergence, each support at most once in a row, the polish
  (``_solve_support``) solves the equal-cost system on that support
  (``_equal_cost_flows``, the only caller of the system builder) by least
  squares: linearized at the table's flows and solved again at each
  solution until the flows stop moving, which is Newton's method; an affine
  system is exact after one solve.  A solution is accepted when it solves
  the system, no flow is negative and it passes the Wardrop gap.  The
  polish is an active-set step: a rejected solution changes the support and
  the system is solved again, at most ``PIVOTS`` times.  Paths with
  negative flow leave the support; if the flows are nonnegative but fail
  the gap, each type's cheapest path outside the support joins it; if no
  solution solves the system, the paths that cost more than their type's
  cheapest support path by more than the gap leave.  The
  edge latencies of an equilibrium are unique but its path flows need not
  be, so a singular system has many solutions; least squares returns the
  one of least norm, and a rejected one is pivoted like any other.  An
  accepted solution is returned with backend ``"exact"``; a polish that
  runs out of pivots, or of paths to drop or add, leaves the sweeps as they
  were, so ``auto`` never returns a worse answer than ``cg``.
* ``exact`` -- for affine latencies on small instances: enumerate supports of
  used paths, per type by size then index, and keep the first whose
  ``_equal_cost_flows`` solution is feasible and passes the same Wardrop
  gap, without pivoting.  An oracle only, never on ``auto``'s route.

``cg`` and ``auto`` start from each active type's whole rate on its first
path, or from ``start``: per-type path flows in the shape of
``EquilibriumResult.path_flows``.  A start is feasible when every path it
names is one of the type's ``feasible_paths`` (inside its information set),
no flow is negative, and each type's flows sum to its rate within
``CONSERVATION_EPS``, or within one ulp of the rate per positive flow when
that is more (a large rate's sum rounds); anything else raises ValueError.
``verify_wardrop`` holds a result's flows to the same bound.  The potential
is convex, so the start changes the sweeps but not the equilibrium edge
latencies.  ``exact`` enumerates supports and ignores ``start``.

``result.backend`` names the method that produced the returned flows:
``"exact"`` for the solution of the equal-cost system on one support,
checked by the Wardrop gap, and ``"cg"`` for sweep flows.

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
from typing import Collection, Iterable, Mapping, Optional, Sequence

import numpy as np

from .core_graph import MultiGraph, Path, enumerate_simple_paths
from .errors import (
    BackendUnavailable,
    DidNotConverge,
    InvalidNetwork,
    NoFeasiblePath,
    SolverError,
)

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
        coeffs = tuple(float(c) + 0.0 for c in coefficients)  # -0.0 + 0.0 is 0.0
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
        if not 0.0 <= rate < math.inf:
            raise InvalidNetwork("traveler rate must be finite and nonnegative")
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
    """Type j's OD paths inside its information set, lexicographically ordered."""
    t = game.types[j]
    o, d = game.graph.od_pairs[t.od_index]
    paths = enumerate_simple_paths(game.graph, o, d, t.info_set)
    if t.rate > 0 and not paths:
        raise NoFeasiblePath(f"type {j} has rate {t.rate} but no feasible path")
    return paths


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
    path, any flow at all.  Passing also needs every type's flows to sum to
    its rate within the bound a `start` meets (see `solve_icwe`).
    """
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
        candidates = feasible_paths(game, j)
        if candidates:
            latencies = {p: game.path_latency(p, edge_flows) for p in candidates}
            best = min(latencies.values())
            floor = FLOW_EPS if t.rate > FLOW_EPS * len(candidates) else 0.0
            for p, amount in flows.items():
                if amount > floor:
                    worst = max(worst, latencies[p] - best)
    return WardropReport(max_violation=worst, passed=worst <= epsilon and conserved)


def _conserves(flows: Collection[float], rate: float) -> bool:
    """Whether a type's flows sum to its rate: within CONSERVATION_EPS, or
    within one ulp of the rate per flow when that is more, which allows a
    large rate's float rounding and nothing else."""
    return abs(sum(flows) - rate) <= max(CONSERVATION_EPS, len(flows) * math.ulp(rate))


# -- the cost core shared by both backends ------------------------------------------


def _edge_getter(path: tuple[int, ...]):
    """A function from the edge latencies to `path`'s, as a tuple in path order."""
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
        self.paths = [[tuple(position[eid] for eid in p) for p in tp] for tp in type_paths]
        self.getters = [[_edge_getter(p) for p in tp] for tp in self.paths]
        self.edge_sets = [[frozenset(p) for p in tp] for tp in self.paths]
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
        self.lat = self.edge_lat.__getitem__
        self.costs: dict[int, list[float]] = {}  # per type, valid until the table moves

    def load(self, flows: Sequence[Mapping[int, float]]) -> None:
        """Rebuild the edge sums from scratch, adding in `verify_wardrop`'s order."""
        edge_flow = [0.0] * len(self.edge_ids)
        for j, f in enumerate(flows):
            paths = self.paths[j]
            for k, amount in f.items():
                for e in paths[k]:
                    edge_flow[e] += amount
        self.edge_flow[:] = edge_flow
        self.edge_lat[:] = [fn(x) for fn, x in zip(self.functions, edge_flow)]
        self.costs.clear()

    def path_costs(self, j: int) -> list[float]:
        cost = self.costs.get(j)
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
        """
        gap, costs = 0.0, self.costs
        for j in self.contested:
            cost = costs.get(j)
            if cost is None:
                cost = self.path_costs(j)
            floor = self.floors[j]
            worst = max([cost[k] for k, x in flows[j].items() if x > floor])
            gap = max(gap, worst - min(cost))
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
    def _system_table(self) -> tuple[np.ndarray, list[int], np.ndarray, np.ndarray]:
        """What every equal-cost system slices, built on first use (plain
        `cg` never builds a system): the incidence rows of all paths, type
        after type; the first row of each type; and each edge's constant
        and slope."""
        first = list(itertools.accumulate(map(len, self.paths), initial=0))
        width = len(self.edge_ids)
        rows = np.zeros((first[-1], width))
        paths = itertools.chain.from_iterable(self.paths)
        rows.put([r * width + e for r, p in enumerate(paths) for e in p], 1.0)
        const = np.array([c[0] for c in self.coeffs])
        slope = np.array([c[1] if len(c) > 1 else 0.0 for c in self.coeffs])
        return rows, first, const, slope

    @cached_property
    def _derivatives(self) -> np.ndarray:
        """Each edge's derivative coefficients, constant-first, one row per
        edge; only a non-affine core reads them."""
        width = max(map(len, self.coeffs))
        return np.array(
            [[k * c[k] if k < len(c) else 0.0 for k in range(1, width)] for c in self.coeffs]
        )

    def equal_cost_system(
        self, support: Sequence[Sequence[int]]
    ) -> tuple[np.ndarray, np.ndarray]:
        """The equal-cost system on one support, as (A, b).

        `support` lists, per active type in order, the indices of its used
        paths.  The unknowns are those paths' flows, in order, then one cost
        per type.  Every latency is replaced by its tangent at the table's
        current edge flow f: slope l'(f), constant l(f) - l'(f) f.  An affine
        core keeps its own coefficients, so its system is exact and does not
        read the table.  A path's row says its cost (the constants of its
        edges plus, for every used path, that path's flow times the slopes of
        the edges the two share) equals its type's cost; a type's row says
        its flows sum to its rate.  Costs are summed in edge order from the
        paths' incidence rows, so the system does not depend on how edge ids
        hash.
        """
        incidence, first, const, slope = self._system_table
        rows = incidence[[first[j] + k for j, ks in zip(self.active, support) for k in ks]]
        if not self.affine:
            flow = np.array(self.edge_flow)
            slope = np.zeros_like(flow)
            for column in reversed(self._derivatives.T):  # Horner: l'(f) per edge
                slope = slope * flow + column
            const = np.array(self.edge_lat) - slope * flow
        n, dim = len(rows), len(rows) + len(support)
        a_mat = np.zeros((dim, dim))
        b_vec = np.zeros(dim)
        a_mat[:n, :n] = (rows * slope) @ rows.T
        b_vec[:n] = -(rows @ const)
        row = 0
        for tpos, (j, ks) in enumerate(zip(self.active, support)):
            a_mat[row : row + len(ks), n + tpos] = -1.0
            a_mat[n + tpos, row : row + len(ks)] = 1.0
            b_vec[n + tpos] = self.game.types[j].rate
            row += len(ks)
        return a_mat, b_vec

    def result(
        self, flows: Sequence[Mapping[int, float]], backend: str, iterations: int
    ) -> EquilibriumResult:
        """The path-keyed result of the flows the table was last loaded with."""
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
            max_wardrop_violation=self.violation(flows),
            backend=backend,
            iterations=iterations,
        )


# -- solving the equal-cost system on one support ---------------------------------


def _equal_cost_flows(
    core: _CostCore, support: Sequence[Sequence[int]], tolerance: float
) -> tuple[Optional[list[dict[int, float]]], Optional[list[dict[int, float]]]]:
    """Flows on which every used path of a type costs the same, on one support.

    `support` lists, per active type in order, the indices of the paths it
    uses.  Returns (accepted, rejected): the accepted flows, or the last
    solution, per type and unclipped, when it solved the system but had a
    flow below -1e-9 or a Wardrop gap above `tolerance`; the other is None,
    and both are None when no solution solved the system.  The table is left
    holding whatever was loaded last: the accepted flows, or, after a failed
    gap, the rejected solution with its flows clipped at zero.
    """
    game = core.game
    if not support:  # no active type: the empty flows are the equilibrium
        flows: list[dict[int, float]] = [{} for _ in game.types]
        core.load(flows)
        return flows, None
    n = sum(map(len, support))  # the path-flow unknowns come first

    def unpack(x: Sequence[float]) -> list[dict[int, float]]:
        flows: list[dict[int, float]] = [{} for _ in game.types]
        values = iter(x)
        for j, ks in zip(core.active, support):
            flows[j] = {k: next(values) for k in ks}
        return flows

    for _ in range(NEWTON_STEPS):
        a_mat, b_vec = core.equal_cost_system(support)
        solution = np.linalg.lstsq(a_mat, b_vec, rcond=None)[0]
        if core.affine or not np.isfinite(solution).all():
            break
        before = core.edge_flow[:]
        core.load(unpack(solution[:n].tolist()))
        if not all(map(math.isfinite, core.edge_lat)):
            return None, None  # diverged: a latency overflowed
        moved = max(abs(x - y) for x, y in zip(core.edge_flow, before))
        if moved <= NEWTON_RESOLUTION * max(before):
            break

    if not np.isfinite(solution).all() or np.abs(a_mat @ solution - b_vec).max() > 1e-7:
        return None, None
    x = solution[:n].tolist()
    if min(x) < -1e-9:
        return None, unpack(x)
    flows = unpack([max(v, 0.0) for v in x])
    for j in core.active:  # absorb solver rounding into the largest flow
        gap = game.types[j].rate - sum(flows[j].values())
        if gap != 0.0:
            top = max(flows[j], key=flows[j].get)
            flows[j][top] += gap
            if flows[j][top] < 0:
                return None, None
    core.load(flows)
    if core.violation(flows, tolerance) <= tolerance:
        return flows, None
    return None, unpack(x)


def _solve_support(
    core: _CostCore, support: Sequence[Sequence[int]], tolerance: float
) -> Optional[list[dict[int, float]]]:
    """The polish: accepted equal-cost flows on `support`, or on a support at
    most PIVOTS pivots away from it, or None.  The table is left holding
    whatever was loaded last; on acceptance, the returned flows."""
    flows, rejected = _equal_cost_flows(core, support, tolerance)
    for _ in range(PIVOTS):
        if flows is not None:
            break
        if rejected is None:
            # no solution solved the system: on the loaded table, unless a
            # latency overflowed, the paths dearer than their type's cheapest
            # support path by more than the gap leave
            if not all(map(math.isfinite, core.edge_lat)):
                return None
            kept = []
            for j, ks in zip(core.active, support):
                cost = core.path_costs(j)
                cheapest = min(cost[k] for k in ks)
                kept.append(tuple(k for k in ks if cost[k] <= cheapest + tolerance))
            if kept == list(support):
                return None
            support = kept
        elif any(x < -1e-9 for f in rejected for x in f.values()):
            # the paths with negative flow leave; no type may be left without one
            support = [
                tuple(k for k in ks if rejected[j][k] >= -1e-9)
                for j, ks in zip(core.active, support)
            ]
            if () in support:
                return None
        else:
            # nonnegative but over the gap on the loaded table: each type's
            # cheapest path joins its support, if it is not in it yet
            grown = []
            for j, ks in zip(core.active, support):
                cost = core.path_costs(j)
                best = cost.index(min(cost))
                grown.append(ks if best in ks else tuple(sorted((*ks, best))))
            if grown == list(support):
                return None
            support = grown
        flows, rejected = _equal_cost_flows(core, support, tolerance)
    return flows


# -- exact backend: affine support enumeration ------------------------------------------


def _solve_exact(core: _CostCore, tolerance: float) -> EquilibriumResult:
    """Try every support, smallest first per type, and keep the first one
    whose equal-cost solution passes; an oracle, never `auto`'s route."""
    if not core.affine:
        raise BackendUnavailable("exact backend requires affine latencies")
    counts = [len(core.paths[j]) for j in core.active]
    if sum(counts) > EXACT_PATH_LIMIT:
        raise BackendUnavailable(
            f"exact backend limited to {EXACT_PATH_LIMIT} paths, got {sum(counts)}"
        )
    # per-type candidate supports: nonempty subsets ordered by size then index
    per_type_subsets = [
        [ks for size in range(1, m + 1) for ks in itertools.combinations(range(m), size)]
        for m in counts
    ]
    bound = max(tolerance, 1e-9)
    for support in itertools.product(*per_type_subsets):
        flows, _ = _equal_cost_flows(core, support, bound)
        if flows is not None:
            return core.result(flows, "exact", 1 if support else 0)
    raise SolverError("exact backend found no optimal support (degenerate input?)")


# -- conditional-gradient backend ----------------------------------------------------


def _affine_rise(coefficients: Iterable[tuple[float, ...]]) -> Optional[float]:
    """The sum of the slopes, in the order given, of edges with these
    trimmed latency coefficients; None when one has degree above 1."""
    rise = 0.0
    for coeffs in coefficients:
        if len(coeffs) > 2:
            return None
        if len(coeffs) == 2:
            rise += coeffs[1]
    return rise


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
    rise = _affine_rise(coeffs for coeffs, _ in (*gain, *drop))
    if rise is not None:  # g is a line
        return _affine_step(slope, rise, gamma_max)
    if slope >= 0.0:
        return 0.0
    moves = [(c, f, 1.0) for c, f in gain] + [(c, f, -1.0) for c, f in drop]

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
        raise ValueError(
            f"start gives flows for {len(start)} types, the game has {len(core.type_paths)}"
        )
    active = set(core.active)
    for j, (paths, given) in enumerate(zip(core.type_paths, start)):
        index = {p: k for k, p in enumerate(paths)}
        alloc: dict[int, float] = {}
        for path, amount in given.items():
            if path not in index:
                raise ValueError(f"start path {path} is not feasible for type {j}")
            if not 0.0 <= amount < math.inf:
                raise ValueError(
                    f"start flow {amount} on {path} of type {j} is not finite and >= 0"
                )
            if amount > 0.0:
                alloc[index[path]] = float(amount)
        rate = core.game.types[j].rate
        if not _conserves(alloc.values(), rate):
            raise ValueError(
                f"start flows of type {j} sum to {sum(alloc.values())}, not its rate {rate}"
            )
        if j in active:
            if max(alloc.values()) <= core.floors[j]:
                raise ValueError(f"start flows of type {j} use no path: none is above FLOW_EPS")
            flows[j] = alloc
    return flows


def _solve_cg(
    core: _CostCore,
    tolerance: float,
    max_iterations: int,
    start: Optional[Sequence[Mapping[Path, float]]],
    polish: bool = False,
) -> EquilibriumResult:
    """Pairwise conditional-gradient sweeps on the cost core's table, from
    `start` (see `solve_icwe`), until the Wardrop gap is at most `tolerance`;
    with `polish`, the ``auto`` backend of the module docstring.  Raises
    DidNotConverge after `max_iterations` sweeps."""
    flows = _start_flows(core, start)
    core.load(flows)
    functions, coeffs, lines, edge_sets = core.functions, core.coeffs, core.lines, core.edge_sets
    edge_flow, edge_lat, costs = core.edge_flow, core.edge_lat, core.costs
    lat, floors, path_costs = core.lat, core.floors, core.path_costs
    # (type, to path, from path) -> (gained edges, dropped edges, affine rise or None)
    moves: dict[tuple[int, int, int], tuple[frozenset, frozenset, Optional[float]]] = {}

    def shift_each_type() -> None:
        for j in core.contested:
            cost = costs.get(j)
            if cost is None:
                cost = path_costs(j)
            best = cost.index(min(cost))
            floor = floors[j]
            _, worst = max([(cost[k], k) for k, x in flows[j].items() if x > floor])
            if worst == best or cost[worst] - cost[best] <= tolerance * 1e-3:
                continue
            move = moves.get((j, best, worst))
            if move is None:
                gain = edge_sets[j][best] - edge_sets[j][worst]
                drop = edge_sets[j][worst] - edge_sets[j][best]
                rise = _affine_rise(coeffs[e] for e in (*gain, *drop))
                move = moves[j, best, worst] = gain, drop, rise
            gain, drop, rise = move
            slope = sum(map(lat, gain)) - sum(map(lat, drop))
            if rise is None:
                gamma = _line_search(
                    [(coeffs[e], edge_flow[e]) for e in gain],
                    [(coeffs[e], edge_flow[e]) for e in drop],
                    slope,
                    flows[j][worst],
                )
            else:
                gamma = _affine_step(slope, rise, flows[j][worst])
            if gamma <= 0.0:
                continue
            remaining = flows[j][worst] - gamma
            if remaining <= FLOW_EPS * 1e-3:
                gamma += remaining  # empty the source exactly
                del flows[j][worst]
            else:
                flows[j][worst] = remaining
            flows[j][best] = flows[j].get(best, 0.0) + gamma
            for edges, step in ((gain, gamma), (drop, -gamma)):
                for e in edges:
                    x = edge_flow[e] = edge_flow[e] + step
                    line = lines[e]
                    edge_lat[e] = functions[e](x) if line is None else line[0] * x + line[1]
            costs.clear()

    previous = tried = None  # the support after the last sweep; the last one polished
    for sweep in range(max_iterations + 1):
        if sweep:
            shift_each_type()
        gap = core.violation(flows, tolerance)  # above tolerance: maybe not the whole gap
        if gap <= tolerance:
            core.load(flows)
            gap = core.violation(flows, tolerance)
        if polish:
            support = core.support(flows)
            if (gap <= tolerance or support == previous) and support != tried:
                tried = support
                saved = edge_flow[:], edge_lat[:]
                polished = _solve_support(core, support, tolerance)
                if polished is not None:
                    return core.result(polished, "exact", sweep)
                edge_flow[:], edge_lat[:] = saved  # sweep on as if never polished
                costs.clear()
            previous = support
        if gap <= tolerance:
            return core.result(flows, "cg", sweep)
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
    latencies, at most EXACT_PATH_LIMIT paths) and serves as an oracle.

    "cg" and "auto" start from `start` when it is given: per type, a
    mapping from paths to flows, as in `result.path_flows`.  Every path
    must be one of the type's `feasible_paths`, every flow nonnegative, and
    each type's flows must sum to its rate within CONSERVATION_EPS, or
    within one `math.ulp(rate)` per positive flow when that is more, which
    allows a large rate's float rounding and nothing else; otherwise
    ValueError is raised, as it is when no flow of an active type is used
    (above FLOW_EPS); types with rate at most FLOW_EPS keep no flow.  The
    result of another game is a feasible start whenever each type's paths
    there are still feasible here, as when only information sets grew.
    "exact" ignores `start`.  Without one, each type starts on its first
    path.

    `result.backend` names the method that produced the returned flows:
    "exact" for an equal-cost solution on one support, "cg" for sweep flows.
    `result.iterations` counts sweeps, also for a polished result; the
    enumerator reports 1 (0 with no active type).  A `tolerance` that is
    not finite and nonnegative, or a negative `max_iterations`, raises
    ValueError.
    """
    if not 0.0 <= tolerance < math.inf:
        raise ValueError(f"tolerance must be finite and nonnegative, got {tolerance}")
    if max_iterations < 0:
        raise ValueError(f"max_iterations must be nonnegative, got {max_iterations}")
    type_paths = [feasible_paths(game, j) for j in range(len(game.types))]
    core = _CostCore(game, type_paths)
    if backend == "auto":
        return _solve_cg(core, tolerance, max_iterations, start, polish=True)
    if backend == "exact":
        return _solve_exact(core, tolerance)
    if backend == "cg":
        return _solve_cg(core, tolerance, max_iterations, start)
    raise ValueError(f"unknown backend {backend!r}")
