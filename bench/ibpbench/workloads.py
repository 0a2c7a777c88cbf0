"""The four benchmark workloads: seeded inputs, the timed op, output checks.

A workload builds a deck of items from the seed during set-up.  The
harness runs `op(item)` under the op timer, cycling through the deck, and
`check(item, result)` outside it.  Package functions are always looked up
through their module at call time, so that traced runs see the wrapped
bindings.

`op` lets any `IbpcheckError` escape; the harness counts it as a failed op
of that kind.  Expected negative outcomes are caught inside `op` and
checked like any other result.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

from ibpcheck import cli, core_graph, equilibrium, errors, paradox, topology

from . import generators as gen

DECISION_THRESHOLD = paradox.DEFAULT_DECISION_THRESHOLD
WARDROP_EPSILON = 1e-8


@dataclass(frozen=True)
class Failure:
    """Why an op failed.  `wrong` marks an answer that is false, not absent."""

    kind: str
    wrong: bool = False


@dataclass
class Counters:
    """Outcome counts that only the checks can see."""

    search_hits: int = 0
    search_confirmed: int = 0


# -- building package objects from specs ----------------------------------------------


def build_graph(spec: dict) -> core_graph.MultiGraph:
    return core_graph.MultiGraph(spec["vertices"], spec["edges"], spec["od_pairs"])


def build_game(spec: dict) -> equilibrium.RoutingGame:
    return equilibrium.RoutingGame(
        build_graph(spec),
        {eid: equilibrium.LatencyFunction(c) for eid, c in spec["latencies"].items()},
        [equilibrium.TravelerType(rate, od, info) for rate, od, info in spec["types"]],
    )


# -- search -----------------------------------------------------------------------------


@dataclass(frozen=True)
class SearchItem:
    graph: core_graph.MultiGraph
    is_cycle: bool
    seed: int


class Search:
    """One paradox-search trial per op, with the `cg` backend.

    Thousands of tiny affine games with 2-4 paths per type and two solves
    per trial: per-call solver overhead dominates and topology is never
    called.
    """

    name = "search"
    deck_size = 4096

    def setup(self, seed: int, workdir: Path) -> list[SearchItem]:
        rng = random.Random(seed)
        specs = [gen.antipodal_cycle(n) for n in (2, 3, 4, 5)]
        specs += [gen.gadget("origin"), gen.gadget("destination")]
        specs += [gen.k4_three_terminals(), gen.chain_with_gadget_middle()]
        graphs = [(build_graph(s), i < 4) for i, s in enumerate(specs)]
        return [
            SearchItem(*graphs[i % len(graphs)], rng.getrandbits(32))
            for i in range(self.deck_size)
        ]

    def op(self, item: SearchItem):
        return paradox.random_search_ibp(item.graph, trials=1, seed=item.seed, backend="cg")

    def check(self, item: SearchItem, outcome, counters: Counters) -> Optional[Failure]:
        if outcome.trials_run != 1:
            return Failure("trials_run", wrong=True)
        for _, candidate in outcome.hits:
            counters.search_hits += 1
            verdict = paradox.check_ibp(candidate, backend="exact")
            if not verdict.occurs:
                continue  # refuted by the exact backend
            counters.search_confirmed += 1
            if item.is_cycle:
                diagnostics = paradox.cycle_diagnostics(
                    candidate, verdict.before_result, verdict.after_result
                )
                if not diagnostics.refutes_ibp:
                    return Failure("cycle_paradox", wrong=True)
        return None


# -- grid-solve -----------------------------------------------------------------------------


class GridSolve:
    """One `solve_icwe` per op on a 3x4 grid with three traveler types.

    The only workload with non-affine latencies (quadratic and BPR-style
    quartic, which use the bisection line search) and with wide working
    sets of up to 38 paths per type.
    """

    name = "grid-solve"
    deck_size = 498  # 166 games per latency class
    classes = ("affine", "quadratic", "quartic")

    def setup(self, seed: int, workdir: Path) -> list:
        rng = random.Random(seed)
        return [
            build_game(gen.grid_game(rng, 3, 4, self.classes[i % len(self.classes)]))
            for i in range(self.deck_size)
        ]

    def op(self, game):
        return equilibrium.solve_icwe(game)

    def check(self, game, result, counters: Counters) -> Optional[Failure]:
        report = equilibrium.verify_wardrop(game, result, epsilon=WARDROP_EPSILON)
        return None if report.passed else Failure("wardrop")


# -- classify-synthesize ---------------------------------------------------------------------


@dataclass(frozen=True)
class NetworkItem:
    label: str
    graph: core_graph.MultiGraph
    ibp_free: Optional[bool]  # ground truth, None when unknown


class ClassifySynthesize:
    """`decide_ibp_free`, then `synthesize_ibp_witness` when it is not free.

    Exercises topology, blocks and path enumeration, plus gadget embedding
    and lifting; the solver only sees gadget-sized witnesses.  Fourteen
    diamonds in series exceed the default path cap today.
    """

    name = "classify-synthesize"
    random_rounds = 72  # 4 shapes each

    def setup(self, seed: int, workdir: Path) -> list[NetworkItem]:
        rng = random.Random(seed)
        fixtures = [
            NetworkItem(label, build_graph(spec), free)
            for label, (spec, free) in gen.FIXTURE_NETWORKS.items()
        ]
        grids = [
            NetworkItem(f"grid{r}x{c}", build_graph(gen.grid(
                r, c, [["g0_0", f"g{r - 1}_{c - 1}"], [f"g0_{c - 1}", f"g{r - 1}_0"]]
            )), False)
            for r, c in ((5, 5), (4, 5), (4, 4), (3, 4), (3, 3))
        ]
        # Each chain length with one OD pair and with a second one entering at
        # the middle cut vertex: pairs of near-equal cost, the same for every
        # seed, so the tail rank never sits between two very different items.
        diamonds = [
            NetworkItem(f"diamonds{k}", build_graph(gen.diamonds_in_series(k, second)), True)
            for k in range(2, 15)
            for second in (None, k // 2)
        ]
        # Networks of at most seven edges stay cheaper than the chains and
        # grids that make up the tail.  With three extra edges about three in
        # four are not IBP-free and go on to synthesis, so the median item
        # sits inside that cost mode rather than in the gap below it, where
        # the seed's share of free networks would move it.
        shapes = [(n, 3, od) for n in (4, 5) for od in (2, 3)]
        randoms = [
            NetworkItem("random", build_graph(gen.random_multi_od_network(rng, *shape)), None)
            for shape in shapes * self.random_rounds
        ]
        return fixtures + grids + diamonds + randoms

    def op(self, item: NetworkItem):
        report = topology.decide_ibp_free(item.graph)
        if report.verdict == topology.IBP_FREE:
            return report, None
        try:
            return report, paradox.synthesize_ibp_witness(item.graph)
        except errors.UnsupportedFailureSite as exc:
            return report, exc

    def check(self, item: NetworkItem, result, counters: Counters) -> Optional[Failure]:
        report, witness = result
        free = report.verdict == topology.IBP_FREE
        if item.ibp_free is not None and free != item.ibp_free:
            return Failure("wrong_verdict", wrong=True)
        if free:
            return None
        if isinstance(witness, errors.UnsupportedFailureSite):
            if report.failure_site.condition == "sli":
                return None  # expected: synthesis covers common blocks only
            return Failure("UnsupportedFailureSite")
        if paradox.check_ibp(witness).margin <= DECISION_THRESHOLD:
            return Failure("witness_margin", wrong=True)
        return None


# -- cli-instances ----------------------------------------------------------------------------

# Exit codes of each subcommand on the shipped fixtures.  Exit 2 is the
# documented answer to a malformed file or to check-ibp without extension.
FIXTURE_EXITS = {
    "chain3": (10, 0, 2, 0, 0),
    "cycle4_two_od": (0, 0, 2, 4, 0),
    "gadget": (10, 0, 20, 0, 0),
    "gadget_dominated": (10, 0, 0, 0, 0),
    "gadget_pre": (10, 0, 2, 0, 0),
    "k4": (10, 0, 2, 0, 0),
    "malformed": (2, 2, 2, 2, 2),
    "pigou": (0, 0, 2, 4, 0),
    "triangle_two_od": (0, 0, 2, 4, 0),
}
FIXTURE_COMMANDS = ("classify", "solve", "check-ibp", "synthesize", "search")
ERROR_EXITS = (2, 3)
# Files scaled by at least 10^FIXED_FROM_EXPONENT draw their latencies from
# this fixed stream instead of the seed.  Whether `exact` fails on such a
# file depends on the draw, and a failure count that moved with the seed
# would not compare between runs with different seeds.
FIXED_FROM_EXPONENT = 3
FIXED_STREAM_SEED = 0


@dataclass
class CliItem:
    argv: list[str]
    expected_exit: int
    check_output: Optional[Callable[[str], bool]] = None
    reference: Optional[tuple] = None  # (exit code, stdout, stderr) of the first run


def demo_reproduces_paradox(stdout: str) -> bool:
    """47 -> 48 for both variants, type-1 splits 3/2, type-2 splits 1/4."""
    blocks = stdout.split("variant: ")[1:]
    if len(blocks) != 2:
        return False
    for block in blocks:
        lines = [line.strip() for line in block.splitlines()]
        type1 = sorted(float(l.rsplit(": ", 1)[1]) for l in lines if l.startswith("type 1 on"))
        type2 = sorted(float(l.rsplit(": ", 1)[1]) for l in lines if l.startswith("type 2 on"))
        if not (
            "type-1 latency before: 47" in lines
            and "type-1 latency after:  48" in lines
            and _close(type1, [2.0, 3.0])
            and _close(type2, [1.0, 4.0])
        ):
            return False
    return True


def _close(values, expected) -> bool:
    return len(values) == len(expected) and all(
        abs(a - b) <= 1e-6 for a, b in zip(values, expected)
    )


class CliInstances:
    """One in-process `cli.main(argv)` per op over fixtures and generated files.

    Parallel-link networks with 2-14 links straddle the 12-path switch of
    `auto` to `exact`; every latency of a share of the files is scaled by
    10^0..10^4, which at 10^4 trips the absolute Wardrop tolerance of
    `exact` today.
    """

    name = "cli-instances"

    def __init__(self, fixtures_dir: Path):
        self.fixtures_dir = fixtures_dir

    def setup(self, seed: int, workdir: Path) -> list[CliItem]:
        rng = random.Random(seed)
        fixed = random.Random(FIXED_STREAM_SEED)
        files = workdir / "instances"
        files.mkdir(parents=True)
        deck = [CliItem(["demo"], 0, demo_reproduces_paradox)]
        for stem, exits in FIXTURE_EXITS.items():
            path = files / f"{stem}.json"
            shutil.copyfile(self.fixtures_dir / f"{stem}.json", path)
            for command, code in zip(FIXTURE_COMMANDS, exits):
                argv = [command, str(path)]
                if command == "search":
                    argv += ["--trials", "10", "--seed", str(rng.getrandbits(16))]
                deck.append(CliItem(argv, code))
        for copy in range(4):
            for n_links in range(2, 15):
                # The costliest `exact` files keep unit scale: a scaled file
                # fails at a seed-dependent point of the support search, and
                # those few files set the tail.  The cheaper ones carry the
                # rescaled share.
                exponent = 0 if 9 <= n_links <= 12 else (n_links + 2 * copy) % 5
                draw = fixed if exponent >= FIXED_FROM_EXPONENT else rng
                spec = gen.parallel_links_game(draw, n_links, 10.0**exponent)
                path = files / f"parallel{n_links:02d}_{copy}_e{exponent}.json"
                path.write_text(json.dumps(gen.instance_document(spec), indent=2))
                # Parallel links are series-parallel: IBP-free, no paradox.
                deck += [
                    CliItem(["classify", str(path)], 0),
                    CliItem(["solve", str(path)], 0),
                    CliItem(["check-ibp", str(path)], 0),
                ]
        for exponent in range(5):
            path = files / f"gadget_e{exponent}.json"
            spec = gen.gadget_game("origin", 10.0**exponent)
            path.write_text(json.dumps(gen.instance_document(spec), indent=2))
            deck += [CliItem(["check-ibp", str(path)], 20), CliItem(["solve", str(path)], 0)]
        return deck

    def op(self, item: CliItem):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(item.argv)
        return code, out.getvalue(), err.getvalue()

    def check(self, item: CliItem, result, counters: Counters) -> Optional[Failure]:
        code, stdout, _ = result
        if code != item.expected_exit:
            # No answer (input or solver error) or an undecided one is a
            # failure; a definite answer other than the truth is wrong.
            undecided = code in ERROR_EXITS or code == cli.EXIT_IBP_INCONCLUSIVE
            return Failure(f"exit_{code}", wrong=not undecided)
        if item.check_output is not None and not item.check_output(stdout):
            return Failure("demo_mismatch", wrong=True)
        if item.reference is None:
            item.reference = result
        elif result != item.reference:
            return Failure("bytes_changed", wrong=True)
        return None


def make(name: str, repo_root: Path):
    workloads = {
        "search": Search,
        "grid-solve": GridSolve,
        "classify-synthesize": ClassifySynthesize,
        "cli-instances": lambda: CliInstances(repo_root / "fixtures"),
    }
    return workloads[name]()

