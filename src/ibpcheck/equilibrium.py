"""Information-constrained Wardrop equilibria via potential minimization.

All traveler types share the same edge latencies; information sets only shape
each type's feasible path polytope.  The classic aggregated convex potential
(edge-wise integral of latencies) therefore remains valid: its minimizers
over the product of per-type path-flow simplices are exactly the equilibria,
and every equilibrium induces the same per-edge latencies.

One cost core (``_CostCore``) serves both backends and result building: a
table of edge flows and cached edge latencies on renumbered edges and paths,
the path costs read off it, the used-path rule, the Wardrop gap (worst used
path cost minus cheapest path cost) and the one builder of
``EquilibriumResult``.  ``FLOW_EPS`` is the one used-path threshold: a path
is used when it carries more than ``FLOW_EPS``, or any flow at all for a type
whose rate is at most ``FLOW_EPS`` per path.

Two solver backends:

* ``cg``    -- pairwise conditional-gradient on path flows: per type, shift
  mass from the costliest used path to the cheapest feasible path.  A shift
  updates the table only on the edges it moves; path costs, the line
  search's starting slope and the per-sweep convergence test read it.  The
  result is built from a freshly loaded table.  The step size is the zero of
  the move's potential derivative: closed form when the moved edges are
  affine, safeguarded Newton otherwise.  Works for any polynomial latencies.
* ``exact`` -- for affine latencies on small instances: enumerate supports of
  used paths, solve the equal-latency linear system per support, load it
  into the table and keep the first support whose solution is feasible and
  passes the same Wardrop gap.  Serves as the oracle for ``cg``.

``verify_wardrop`` stays outside the core: it rebuilds everything from the
path-keyed result, as a check independent of either solver.

Games and results are immutable values and both solvers are deterministic
single-threaded procedures, so independent games may be solved concurrently.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .core_graph import (
    DEFAULT_PATH_CAP,
    BlockDecomposition,
    MultiGraph,
    Path,
    enumerate_simple_paths,
)
from .errors import (
    BackendUnavailable,
    DidNotConverge,
    InvalidNetwork,
    NoFeasiblePath,
    SolverError,
)

DEFAULT_TOLERANCE = 1e-8
FLOW_EPS = 1e-9  # the one used-path threshold, absolute; see _CostCore.floors
DEFAULT_MAX_ITERATIONS = 50_000
EXACT_PATH_LIMIT = 12


@dataclass(frozen=True)
class LatencyFunction:
    """Polynomial latency, coefficients constant-first.

    Nonnegative coefficients are enforced: they guarantee the function is
    nonnegative and nondecreasing on the whole flow range.  The constant zero
    function is allowed (free edges used by instance lifting).
    """

    coefficients: tuple[float, ...]

    def __init__(self, coefficients: Iterable[float]):
        coeffs = tuple(float(c) for c in coefficients)
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

    def integral(self, x: float) -> float:
        """Antiderivative at x with F(0) = 0, in closed form."""
        acc = 0.0
        for k in reversed(range(len(self.coefficients))):
            acc = acc * x + self.coefficients[k] / (k + 1)
        return acc * x

    @property
    def degree(self) -> int:
        deg = len(self.coefficients) - 1
        while deg > 0 and self.coefficients[deg] == 0.0:
            deg -= 1
        return deg

    @property
    def is_affine(self) -> bool:
        return self.degree <= 1

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

    @property
    def total_rate(self) -> float:
        return sum(t.rate for t in self.types)

    def path_latency(self, path: Path, edge_flows: Mapping[str, float]) -> float:
        return sum(self.latencies[eid](edge_flows.get(eid, 0.0)) for eid in path)


def feasible_paths(
    game: RoutingGame, j: int, max_paths: int = DEFAULT_PATH_CAP
) -> tuple[Path, ...]:
    """Type j's OD paths inside its information set, lexicographically ordered."""
    t = game.types[j]
    o, d = game.graph.od_pairs[t.od_index]
    paths = enumerate_simple_paths(game.graph, o, d, t.info_set, max_paths=max_paths)
    if t.rate > 0 and not paths:
        raise NoFeasiblePath(f"type {j} has rate {t.rate} but no feasible path")
    return paths


def beckmann_potential(game: RoutingGame, edge_flows: Mapping[str, float]) -> float:
    """Edge-wise integral of latencies; minimizers are the equilibria."""
    return sum(
        lat.integral(edge_flows.get(eid, 0.0)) for eid, lat in game.latencies.items()
    )


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
class TypeWardropCheck:
    type_index: int
    conservation_error: float
    violation: float


@dataclass(frozen=True)
class WardropReport:
    per_type: tuple[TypeWardropCheck, ...]
    max_violation: float
    passed: bool


def verify_wardrop(
    game: RoutingGame,
    result: EquilibriumResult,
    epsilon: float = DEFAULT_TOLERANCE,
) -> WardropReport:
    """Re-derive everything from the path flows and check the equilibrium.

    Deliberately independent of any solver: edge flows are rebuilt from
    scratch and the per-type violation is the worst gap between a used path
    and that type's cheapest feasible path.  A path is used when it carries
    more than FLOW_EPS or, for a type whose rate is at most FLOW_EPS per
    feasible path, any flow at all.
    """
    edge_flows: dict[str, float] = {}
    for flows in result.path_flows:
        for path, amount in flows.items():
            for eid in path:
                edge_flows[eid] = edge_flows.get(eid, 0.0) + amount

    checks = []
    worst = 0.0
    for j, t in enumerate(game.types):
        flows = result.path_flows[j]
        conservation = abs(sum(flows.values()) - t.rate)
        violation = 0.0
        candidates = feasible_paths(game, j)
        if candidates:
            latencies = {p: game.path_latency(p, edge_flows) for p in candidates}
            best = min(latencies.values())
            floor = FLOW_EPS if t.rate > FLOW_EPS * len(candidates) else 0.0
            for p, amount in flows.items():
                if amount > floor:
                    violation = max(violation, latencies[p] - best)
        checks.append(
            TypeWardropCheck(
                type_index=j, conservation_error=conservation, violation=violation
            )
        )
        worst = max(worst, violation)
    passed = worst <= epsilon and all(c.conservation_error <= 1e-9 for c in checks)
    return WardropReport(per_type=tuple(checks), max_violation=worst, passed=passed)


# -- the cost core shared by both backends ------------------------------------------


class _CostCore:
    """One table of edge flows and latencies, read by solving and by results.

    Edges and paths are renumbered to ints.  A flow table is one dict per
    type from an index into that type's paths to its flow, in the insertion
    order of the path-keyed result.  A path's cost is the sum of its cached
    edge latencies in path order, the same floats as
    `RoutingGame.path_latency`.  Types with rate at most FLOW_EPS are
    inactive: they carry no flow and get latency 0.
    """

    def __init__(self, game: RoutingGame, type_paths: Sequence[tuple[Path, ...]]):
        self.game = game
        self.type_paths = type_paths
        self.edge_ids = sorted(game.latencies)
        position = {eid: e for e, eid in enumerate(self.edge_ids)}
        self.functions = [game.latencies[eid] for eid in self.edge_ids]
        self.coeffs = [fn.coefficients[: fn.degree + 1] for fn in self.functions]
        self.paths = [[tuple(position[eid] for eid in p) for p in tp] for tp in type_paths]
        self.edge_sets = [[frozenset(p) for p in tp] for tp in self.paths]
        self.active = [j for j, t in enumerate(game.types) if t.rate > FLOW_EPS]
        # a type with one path is always at equilibrium
        self.contested = [j for j in self.active if len(type_paths[j]) > 1]
        # The used-path rule: a path is used when it carries more than its
        # type's floor: FLOW_EPS, or 0 for a rate at most FLOW_EPS per path.
        # It is chosen per type, not per flow table, so a tiny rate spread
        # thin by a seeded start is neither hidden at the start nor after a
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
            cost = self.costs[j] = [sum(map(self.lat, p)) for p in self.paths[j]]
        return cost

    def violation(self, flows: Sequence[Mapping[int, float]]) -> float:
        """The Wardrop gap: worst used-path cost minus the cheapest path cost."""
        gap = 0.0
        for j in self.contested:
            cost = self.path_costs(j)
            floor = self.floors[j]
            worst = max([cost[k] for k, x in flows[j].items() if x > floor])
            gap = max(gap, worst - min(cost))
        return gap

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


# -- exact backend: affine active-set enumeration ------------------------------------


def _solve_exact(core: _CostCore, tolerance: float) -> EquilibriumResult:
    game = core.game
    if not all(lat.is_affine for lat in game.latencies.values()):
        raise BackendUnavailable("exact backend requires affine latencies")
    if not core.active:
        flows: list[dict[int, float]] = [{} for _ in game.types]
        core.load(flows)
        return core.result(flows, "exact", 0)
    flat = [(j, k) for j in core.active for k in range(len(core.type_paths[j]))]
    if len(flat) > EXACT_PATH_LIMIT:
        raise BackendUnavailable(
            f"exact backend limited to {EXACT_PATH_LIMIT} paths, got {len(flat)}"
        )

    def aff(eid: str) -> tuple[float, float]:
        c = game.latencies[eid].coefficients
        return (c[0], c[1] if len(c) > 1 else 0.0)

    flat_paths = [core.type_paths[j][k] for j, k in flat]
    const_cost = [sum(aff(e)[0] for e in p) for p in flat_paths]
    interact = np.zeros((len(flat), len(flat)))
    for a, pa in enumerate(flat_paths):
        sa = set(pa)
        for b, pb in enumerate(flat_paths):
            interact[a, b] = sum(aff(e)[1] for e in sa & set(pb))

    # per-type candidate supports: nonempty subsets ordered by size then index
    per_type_subsets: list[list[tuple[int, ...]]] = []
    for j in core.active:
        indices = [i for i, (tj, _) in enumerate(flat) if tj == j]
        subsets = []
        for size in range(1, len(indices) + 1):
            subsets.extend(itertools.combinations(indices, size))
        per_type_subsets.append(subsets)

    n_types = len(core.active)
    for support in itertools.product(*per_type_subsets):
        chosen = [i for subset in support for i in subset]
        n = len(chosen)
        dim = n + n_types
        a_mat = np.zeros((dim, dim))
        b_vec = np.zeros(dim)
        row = 0
        for tpos, subset in enumerate(support):
            for i in subset:
                for col, i2 in enumerate(chosen):
                    a_mat[row, col] = interact[i, i2]
                a_mat[row, n + tpos] = -1.0
                b_vec[row] = -const_cost[i]
                row += 1
        for tpos, subset in enumerate(support):
            for col, i2 in enumerate(chosen):
                if i2 in subset:
                    a_mat[row, col] = 1.0
            b_vec[row] = game.types[core.active[tpos]].rate
            row += 1

        solution, *_ = np.linalg.lstsq(a_mat, b_vec, rcond=None)
        if not np.all(np.isfinite(solution)):
            continue
        if np.max(np.abs(a_mat @ solution - b_vec)) > 1e-7:
            continue
        x = solution[:n]
        if np.min(x) < -1e-9:
            continue

        flows = [{} for _ in game.types]
        for col, i in enumerate(chosen):
            j, k = flat[i]
            flows[j][k] = max(float(x[col]), 0.0)
        feasible = True
        for j in core.active:  # absorb solver rounding into the largest flow
            total = sum(flows[j].values())
            gap = game.types[j].rate - total
            if flows[j] and gap != 0.0:
                top = max(flows[j], key=flows[j].get)
                flows[j][top] += gap
                if flows[j][top] < 0:
                    feasible = False
                    break
        if not feasible:
            continue
        core.load(flows)
        if core.violation(flows) <= max(tolerance, 1e-9):
            return core.result(flows, "exact", 1)
    raise SolverError("exact backend found no optimal support (degenerate input?)")


# -- conditional-gradient backend ----------------------------------------------------


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
    crossing: closed form when every edge is affine, otherwise safeguarded
    Newton on Horner evaluations inside the sign-change bracket, stopping once
    a step is below the resolution of the flows it moves.
    """
    if slope >= 0.0:
        return 0.0
    rise = 0.0
    for coeffs, _ in (*gain, *drop):
        if len(coeffs) > 2:
            break
        if len(coeffs) == 2:
            rise += coeffs[1]
    else:  # every edge affine: g is a line
        if slope + rise * gamma_max <= 0.0:
            return gamma_max
        return min(-slope / rise, gamma_max)
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


def _start_flows(core: _CostCore, start_seed: Optional[int]) -> list[dict[int, float]]:
    """Per type, flow by index into its paths: all on the first path, or
    spread at random when a seed is given."""
    rng = random.Random(start_seed) if start_seed is not None else None
    flows: list[dict[int, float]] = [{} for _ in core.type_paths]
    for j in core.active:
        rate = core.game.types[j].rate
        if rng is None:
            flows[j] = {0: rate}
        else:
            weights = [rng.random() + 1e-9 for _ in core.type_paths[j]]
            total = sum(weights)
            alloc = {k: rate * w / total for k, w in enumerate(weights)}
            # force exact conservation
            drift = rate - sum(alloc.values())
            alloc[0] += drift
            flows[j] = alloc
    return flows


def _solve_cg(
    core: _CostCore,
    tolerance: float,
    max_iterations: int,
    start_seed: Optional[int],
) -> EquilibriumResult:
    """Pairwise conditional gradient on the cost core's table.

    A shift re-evaluates only the latencies of the edges it moves, so the
    running edge sums drift from a fresh load; the result is built from a
    fresh one, and sweeping goes on from it while its gap is above tolerance.
    """
    flows = _start_flows(core, start_seed)
    core.load(flows)
    functions, coeffs, edge_sets = core.functions, core.coeffs, core.edge_sets
    edge_flow, edge_lat = core.edge_flow, core.edge_lat
    lat, floors = core.lat, core.floors

    def shift_each_type() -> None:
        for j in core.contested:
            cost = core.path_costs(j)
            best = cost.index(min(cost))
            floor = floors[j]
            _, worst = max([(cost[k], k) for k, x in flows[j].items() if x > floor])
            if worst == best or cost[worst] - cost[best] <= tolerance * 1e-3:
                continue
            gain = edge_sets[j][best] - edge_sets[j][worst]
            drop = edge_sets[j][worst] - edge_sets[j][best]
            gamma = _line_search(
                [(coeffs[e], edge_flow[e]) for e in gain],
                [(coeffs[e], edge_flow[e]) for e in drop],
                sum(map(lat, gain)) - sum(map(lat, drop)),
                flows[j][worst],
            )
            if gamma <= 0.0:
                continue
            remaining = flows[j][worst] - gamma
            if remaining <= FLOW_EPS * 1e-3:
                gamma += remaining  # empty the source exactly
                del flows[j][worst]
            else:
                flows[j][worst] = remaining
            flows[j][best] = flows[j].get(best, 0.0) + gamma
            for e in gain:
                edge_flow[e] += gamma
                edge_lat[e] = functions[e](edge_flow[e])
            for e in drop:
                edge_flow[e] -= gamma
                edge_lat[e] = functions[e](edge_flow[e])
            core.costs.clear()

    for sweep in range(max_iterations + 1):
        if sweep:
            shift_each_type()
        gap = core.violation(flows)
        if gap <= tolerance:
            core.load(flows)
            gap = core.violation(flows)
            if gap <= tolerance:
                return core.result(flows, "cg", sweep)
    raise DidNotConverge(max_iterations, gap)


# -- public solver ---------------------------------------------------------------------


def solve_icwe(
    game: RoutingGame,
    tolerance: float = DEFAULT_TOLERANCE,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
    backend: str = "auto",
    start_seed: Optional[int] = None,
    max_paths: int = DEFAULT_PATH_CAP,
) -> EquilibriumResult:
    """Compute an ICWE flow: minimize the potential over per-type path flows.

    backend "exact" enumerates active path sets (affine latencies, at most
    EXACT_PATH_LIMIT paths); "cg" runs the conditional-gradient iteration;
    "auto" picks "exact" when eligible, falling back to "cg".
    """
    type_paths = [feasible_paths(game, j, max_paths=max_paths) for j in range(len(game.types))]
    core = _CostCore(game, type_paths)
    if backend == "auto":
        affine = all(lat.is_affine for lat in game.latencies.values())
        n_paths = sum(len(type_paths[j]) for j in core.active)
        backend = "exact" if affine and n_paths <= EXACT_PATH_LIMIT else "cg"
    if backend == "exact":
        return _solve_exact(core, tolerance)
    if backend == "cg":
        return _solve_cg(core, tolerance, max_iterations, start_seed)
    raise ValueError(f"unknown backend {backend!r}")


# -- block-local games ------------------------------------------------------------------


def block_local_game(
    game: RoutingGame, block_id: int, decomposition: BlockDecomposition
) -> RoutingGame:
    """Restrict the game to one block of the block chains.

    Types whose OD chain crosses the block keep their rate, with terminals
    and information set induced by the block; all other types ride along as
    rate-0 dummies so type indices stay aligned with the parent game.
    """
    edges = decomposition.block_edges(block_id)
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
    for block in decomposition.blocks:
        local = block_local_game(game, block.id, decomposition)
        local_result = solve_icwe(local)
        for j in range(len(game.types)):
            sums[j] += local_result.type_latencies[j]
    return all(
        abs(sums[j] - result.type_latencies[j]) <= tolerance
        for j in range(len(game.types))
    )
