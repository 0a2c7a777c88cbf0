"""Information-constrained Wardrop equilibria via potential minimization.

All traveler types share the same edge latencies; information sets only shape
each type's feasible path polytope.  The classic aggregated convex potential
(edge-wise integral of latencies) therefore remains valid: its minimizers
over the product of per-type path-flow simplices are exactly the equilibria,
and every equilibrium induces the same per-edge latencies.

Two solver backends:

* ``cg``    -- pairwise conditional-gradient on path flows: per type, shift
  mass from the costliest used path to the cheapest feasible path.  One cost
  core serves the whole iteration: a table of cached edge latencies, updated
  only on the edges a shift moves, from which path costs, the line search's
  starting slope and the per-sweep convergence test are all read.  The step
  size is the zero of the move's potential derivative: closed form when the
  moved edges are affine, safeguarded Newton otherwise.  Works for any
  polynomial latencies.
* ``exact`` -- for affine latencies on small instances: enumerate supports of
  used paths, solve the equal-latency linear system per support, keep the
  first support whose solution is feasible and optimal.  Serves as the
  solver-independent oracle for ``cg``.

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
DEFAULT_FLOW_EPS = 1e-9
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
    flow_eps: float = DEFAULT_FLOW_EPS,
) -> WardropReport:
    """Re-derive everything from the path flows and check the equilibrium.

    Deliberately independent of any solver: edge flows are rebuilt from
    scratch and the per-type violation is the worst gap between a used path
    and that type's cheapest feasible path.
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
            for p, amount in flows.items():
                if amount > flow_eps:
                    violation = max(violation, latencies[p] - best)
        checks.append(
            TypeWardropCheck(
                type_index=j, conservation_error=conservation, violation=violation
            )
        )
        worst = max(worst, violation)
    passed = worst <= epsilon and all(c.conservation_error <= 1e-9 for c in checks)
    return WardropReport(per_type=tuple(checks), max_violation=worst, passed=passed)


# -- shared solver scaffolding -----------------------------------------------------


def _active_types(game: RoutingGame, flow_eps: float) -> list[int]:
    return [j for j, t in enumerate(game.types) if t.rate > flow_eps]


def _edge_flows_of(path_flows: Sequence[Mapping[Path, float]]) -> dict[str, float]:
    acc: dict[str, float] = {}
    for flows in path_flows:
        for path, amount in flows.items():
            for eid in path:
                acc[eid] = acc.get(eid, 0.0) + amount
    return acc


def _build_result(
    game: RoutingGame,
    type_paths: Sequence[tuple[Path, ...]],
    path_flows: Sequence[Mapping[Path, float]],
    backend: str,
    iterations: int,
    flow_eps: float,
) -> EquilibriumResult:
    edge_flows = _edge_flows_of(path_flows)
    latencies_by_type = []
    violation = 0.0
    for j, paths in enumerate(type_paths):
        if game.types[j].rate <= flow_eps or not paths:
            latencies_by_type.append(0.0)
            continue
        lat = {p: game.path_latency(p, edge_flows) for p in paths}
        best = min(lat.values())
        used = [p for p in paths if path_flows[j].get(p, 0.0) > flow_eps]
        for p in used:
            violation = max(violation, lat[p] - best)
        latencies_by_type.append(min(lat[p] for p in used) if used else best)
    return EquilibriumResult(
        path_flows=tuple(dict(f) for f in path_flows),
        edge_flows=edge_flows,
        type_latencies=tuple(latencies_by_type),
        max_wardrop_violation=violation,
        backend=backend,
        iterations=iterations,
    )


# -- exact backend: affine active-set enumeration ------------------------------------


def _solve_exact(
    game: RoutingGame,
    type_paths: Sequence[tuple[Path, ...]],
    tolerance: float,
    flow_eps: float,
    path_limit: int,
) -> EquilibriumResult:
    if not all(lat.is_affine for lat in game.latencies.values()):
        raise BackendUnavailable("exact backend requires affine latencies")
    active = _active_types(game, flow_eps)
    if not active:
        return _build_result(
            game, type_paths, [{} for _ in game.types], "exact", 0, flow_eps
        )
    flat: list[tuple[int, Path]] = [(j, p) for j in active for p in type_paths[j]]
    if len(flat) > path_limit:
        raise BackendUnavailable(
            f"exact backend limited to {path_limit} paths, got {len(flat)}"
        )

    def aff(eid: str) -> tuple[float, float]:
        c = game.latencies[eid].coefficients
        return (c[0], c[1] if len(c) > 1 else 0.0)

    const_cost = [sum(aff(e)[0] for e in p) for _, p in flat]
    interact = np.zeros((len(flat), len(flat)))
    for a, (_, pa) in enumerate(flat):
        sa = set(pa)
        for b, (_, pb) in enumerate(flat):
            interact[a, b] = sum(aff(e)[1] for e in sa & set(pb))

    # per-type candidate supports: nonempty subsets ordered by size then index
    per_type_subsets: list[list[tuple[int, ...]]] = []
    for j in active:
        indices = [k for k, (tj, _) in enumerate(flat) if tj == j]
        subsets = []
        for size in range(1, len(indices) + 1):
            subsets.extend(itertools.combinations(indices, size))
        per_type_subsets.append(subsets)

    n_types = len(active)
    for support in itertools.product(*per_type_subsets):
        chosen = [k for subset in support for k in subset]
        n = len(chosen)
        dim = n + n_types
        a_mat = np.zeros((dim, dim))
        b_vec = np.zeros(dim)
        row = 0
        for tpos, subset in enumerate(support):
            for k in subset:
                for col, k2 in enumerate(chosen):
                    a_mat[row, col] = interact[k, k2]
                a_mat[row, n + tpos] = -1.0
                b_vec[row] = -const_cost[k]
                row += 1
        for tpos, subset in enumerate(support):
            for col, k2 in enumerate(chosen):
                if k2 in subset:
                    a_mat[row, col] = 1.0
            b_vec[row] = game.types[active[tpos]].rate
            row += 1

        solution, *_ = np.linalg.lstsq(a_mat, b_vec, rcond=None)
        if not np.all(np.isfinite(solution)):
            continue
        if np.max(np.abs(a_mat @ solution - b_vec)) > 1e-7:
            continue
        x = solution[:n]
        if np.min(x) < -1e-9:
            continue

        path_flows: list[dict[Path, float]] = [dict() for _ in game.types]
        for col, k in enumerate(chosen):
            j, p = flat[k]
            path_flows[j][p] = max(float(x[col]), 0.0)
        feasible = True
        for j in active:  # absorb solver rounding into the largest flow
            total = sum(path_flows[j].values())
            gap = game.types[j].rate - total
            if path_flows[j] and gap != 0.0:
                top = max(path_flows[j], key=path_flows[j].get)
                path_flows[j][top] += gap
                if path_flows[j][top] < 0:
                    feasible = False
                    break
        if not feasible:
            continue
        candidate = _build_result(
            game, type_paths, path_flows, "exact", 1, flow_eps
        )
        if candidate.max_wardrop_violation <= max(tolerance, 1e-9):
            return candidate
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


def _start_flows(
    game: RoutingGame,
    type_paths: Sequence[tuple[Path, ...]],
    flow_eps: float,
    start_seed: Optional[int],
) -> list[dict[int, float]]:
    """Per type, flow by index into type_paths: all on the first path, or
    spread at random when a seed is given."""
    rng = random.Random(start_seed) if start_seed is not None else None
    flows: list[dict[int, float]] = []
    for j, t in enumerate(game.types):
        if t.rate <= flow_eps or not type_paths[j]:
            flows.append({})
            continue
        if rng is None:
            flows.append({0: t.rate})
        else:
            weights = [rng.random() + 1e-9 for _ in type_paths[j]]
            total = sum(weights)
            alloc = {k: t.rate * w / total for k, w in enumerate(weights)}
            # force exact conservation
            drift = t.rate - sum(alloc.values())
            alloc[0] += drift
            flows.append(alloc)
    return flows


def _solve_cg(
    game: RoutingGame,
    type_paths: Sequence[tuple[Path, ...]],
    tolerance: float,
    max_iterations: int,
    flow_eps: float,
    start_seed: Optional[int],
) -> EquilibriumResult:
    """Pairwise conditional gradient over one table of cached edge latencies.

    Edges and paths are renumbered; flows[j] maps path index to flow and keeps
    the insertion order of the path-keyed result.  A path's cost is the sum
    of its cached edge latencies in path order, the same floats as
    `RoutingGame.path_latency`; a shift re-evaluates only the edges it moves.
    """
    edge_ids = sorted(game.latencies)
    position = {eid: e for e, eid in enumerate(edge_ids)}
    functions = [game.latencies[eid] for eid in edge_ids]
    coeffs = [fn.coefficients[: fn.degree + 1] for fn in functions]
    paths = [[tuple(position[eid] for eid in p) for p in tp] for tp in type_paths]
    edge_sets = [[frozenset(p) for p in tp] for tp in paths]
    flows = _start_flows(game, type_paths, flow_eps, start_seed)
    edge_flow = [0.0] * len(edge_ids)
    edge_lat = [0.0] * len(edge_ids)
    lat = edge_lat.__getitem__
    costs: dict[int, list[float]] = {}  # per type, valid until the next shift

    def load_edges() -> None:
        # same summation order as _edge_flows_of, hence the same floats
        edge_flow[:] = [0.0] * len(edge_ids)
        for j, f in enumerate(flows):
            for k, amount in f.items():
                for e in paths[j][k]:
                    edge_flow[e] += amount
        edge_lat[:] = [fn(x) for fn, x in zip(functions, edge_flow)]
        costs.clear()

    load_edges()
    active = [j for j in _active_types(game, flow_eps) if len(type_paths[j]) > 1]

    def path_costs(j: int) -> list[float]:
        cost = costs.get(j)
        if cost is None:
            cost = costs[j] = [sum(map(lat, p)) for p in paths[j]]
        return cost

    def wardrop_gap() -> float:
        gap = 0.0
        for j in active:
            cost = path_costs(j)
            used = [cost[k] for k, x in flows[j].items() if x > flow_eps]
            if used:
                gap = max(gap, max(used) - min(cost))
        return gap

    def shift_each_type() -> None:
        for j in active:
            cost = path_costs(j)
            used = [(cost[k], k) for k, x in flows[j].items() if x > flow_eps]
            if not used:
                continue  # spread below flow_eps everywhere, as wardrop_gap sees it
            best = cost.index(min(cost))
            _, worst = max(used)
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
            if remaining <= flow_eps * 1e-3:
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
            costs.clear()

    for sweep in range(max_iterations + 1):
        if sweep:
            shift_each_type()
        gap = wardrop_gap()
        if gap <= tolerance:
            path_flows = [
                {type_paths[j][k]: x for k, x in f.items()} for j, f in enumerate(flows)
            ]
            result = _build_result(game, type_paths, path_flows, "cg", sweep, flow_eps)
            if result.max_wardrop_violation <= tolerance:
                return result
            load_edges()  # the running edge sums drifted across the tolerance
    raise DidNotConverge(max_iterations, gap)


# -- public solver ---------------------------------------------------------------------


def solve_icwe(
    game: RoutingGame,
    tolerance: float = DEFAULT_TOLERANCE,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
    backend: str = "auto",
    start_seed: Optional[int] = None,
    flow_eps: float = DEFAULT_FLOW_EPS,
    max_paths: int = DEFAULT_PATH_CAP,
    exact_path_limit: int = EXACT_PATH_LIMIT,
) -> EquilibriumResult:
    """Compute an ICWE flow: minimize the potential over per-type path flows.

    backend "exact" enumerates active path sets (affine latencies, small path
    counts only); "cg" runs the conditional-gradient iteration; "auto" picks
    "exact" when eligible, falling back to "cg".
    """
    type_paths = [feasible_paths(game, j, max_paths=max_paths) for j in range(len(game.types))]

    if backend == "auto":
        affine = all(lat.is_affine for lat in game.latencies.values())
        n_paths = sum(
            len(type_paths[j]) for j in _active_types(game, flow_eps)
        )
        backend = "exact" if affine and n_paths <= exact_path_limit else "cg"
    if backend == "exact":
        return _solve_exact(game, type_paths, tolerance, flow_eps, exact_path_limit)
    if backend == "cg":
        return _solve_cg(
            game, type_paths, tolerance, max_iterations, flow_eps, start_seed
        )
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
    **solve_kwargs,
) -> bool:
    """Each type's latency must equal the sum of its block-local latencies.

    Valid whenever the graph satisfies the SLI condition, because each OD
    subnetwork is then its block chain connected in series.
    """
    sums = [0.0] * len(game.types)
    for block in decomposition.blocks:
        local = block_local_game(game, block.id, decomposition)
        local_result = solve_icwe(local, **solve_kwargs)
        for j in range(len(game.types)):
            sums[j] += local_result.type_latencies[j]
    return all(
        abs(sums[j] - result.type_latencies[j]) <= tolerance
        for j in range(len(game.types))
    )
