"""Command-line front end: classify, solve, check-ibp, synthesize, search, demo.

Exit codes are banded: 0 for success or a negative finding, 10 for a
not-IBP-free topology verdict, 20/21 for paradox occurs/inconclusive, and
2/3/4 for input errors, solver failures, and unsupported synthesis targets.
All numeric output uses 9 significant digits so reports are byte-stable.

Flags parse as plain numbers: the library function that takes each one
checks it, and one out of range raises `InvalidArgument` (exit 2) before
anything is solved.

`main` builds its parser on the first call and reuses it for the rest of
the process; it looks the subcommand function (`cmd_` + the command name,
`-` as `_`) up in this module when the command runs, so a function
replaced on the module after that first call is the one that runs.
`build_parser` still returns a fresh parser on every call.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from pathlib import Path as FilePath

from .equilibrium import (
    DEFAULT_MAX_ITERATIONS,
    DEFAULT_TOLERANCE,
    EquilibriumResult,
    solve_icwe,
)
from .errors import (
    IbpcheckError,
    InstanceFileError,
    PreconditionViolated,
    SolverError,
    UnsupportedFailureSite,
)
from .instance_io import load_instance, save_instance
from .paradox import (
    DEFAULT_DECISION_THRESHOLD,
    GadgetVariant,
    IBPInstance,
    check_ibp,
    gadget_instance,
    random_search_ibp,
    synthesize_ibp_witness,
)
from .topology import IBP_FREE, common_blocks, decide_ibp_free

EXIT_OK = 0
EXIT_INPUT_ERROR = 2
EXIT_SOLVER_ERROR = 3
EXIT_UNSUPPORTED = 4
EXIT_NOT_IBP_FREE = 10
EXIT_IBP_OCCURS = 20
EXIT_IBP_INCONCLUSIVE = 21


def _fmt(x: float) -> str:
    return format(float(x), ".9g")


# -- subcommands -------------------------------------------------------------------


def cmd_classify(args) -> int:
    game, _ = load_instance(args.file)
    g = game.graph
    report = decide_ibp_free(g)
    print(
        f"network: {len(g.vertices)} vertices, {len(g.edges)} edges, "
        f"{len(g.od_pairs)} OD pairs"
    )
    flags = lambda b: "yes" if b else "no"
    for i, cls in enumerate(report.per_od):
        o, d = g.od_pairs[i]
        print(
            f"OD {i} ({o} -> {d}): SP={flags(cls.is_sp)} "
            f"LI={flags(cls.is_li)} SLI={flags(cls.is_sli)}"
        )
    print("blocks:")
    for bid, edges in enumerate(report.decomposition.blocks):
        print(f"  block {bid}: {', '.join(sorted(edges))}")
    cuts = sorted(report.decomposition.cut_vertices)
    print(f"cut vertices: {', '.join(cuts) if cuts else '(none)'}")
    sli = [i for i, cls in enumerate(report.per_od) if cls.is_sli]
    if len(sli) > 1:
        table = common_blocks(g, report.decomposition)
        print("common blocks:")
        for i, j in itertools.combinations(sli, 2):
            if (i, j) not in table:
                print(f"  OD pair ({i}, {j}): disjoint")
            for v in table.get((i, j), ()):
                ti = ",".join(sorted(v.terminal_set_in_i))
                tj = ",".join(sorted(v.terminal_set_in_j))
                print(
                    f"  OD pair ({i}, {j}): block {v.block_id} kind={v.kind} "
                    f"terminals {{{ti}}} vs {{{tj}}}"
                )
    if report.verdict == IBP_FREE:
        print("verdict: IBP-FREE")
        return EXIT_OK
    print("verdict: NOT-IBP-FREE")
    print(f"failure: {report.failure_site.describe()}")
    return EXIT_NOT_IBP_FREE


def _result_to_dict(game, result: EquilibriumResult) -> dict:
    return {
        "backend": result.backend,
        "iterations": result.iterations,
        "max_wardrop_violation": result.max_wardrop_violation,
        "type_latencies": list(result.type_latencies),
        "edge_flows": {
            eid: result.edge_flows.get(eid, 0.0) for eid in sorted(game.graph.edge_ids)
        },
        "path_flows": [
            [
                {"path": list(path), "flow": amount}
                for path, amount in sorted(flows.items())
            ]
            for flows in result.path_flows
        ],
    }


def cmd_solve(args) -> int:
    game, _ = load_instance(args.file)
    result = solve_icwe(game, tolerance=args.tol, max_iterations=args.max_iters)
    if args.json:
        print(json.dumps(_result_to_dict(game, result), indent=2, sort_keys=True))
        return EXIT_OK
    print(f"backend: {result.backend}")
    for j, latency in enumerate(result.type_latencies):
        print(f"type {j}: rate={_fmt(game.types[j].rate)} latency={_fmt(latency)}")
    print("edge flows:")
    for eid in sorted(game.graph.edge_ids):
        flow = result.edge_flows.get(eid, 0.0)
        print(f"  {eid}: flow={_fmt(flow)} latency={_fmt(game.latencies[eid](flow))}")
    print(f"max wardrop violation: {_fmt(result.max_wardrop_violation)}")
    return EXIT_OK


def cmd_check_ibp(args) -> int:
    game, extension = load_instance(args.file)
    if extension is None:
        raise InstanceFileError("check-ibp needs an instance with an extension block")
    verdict = check_ibp(
        IBPInstance(game, extension),
        tolerance=args.tol,
        decision_threshold=args.threshold,
    )
    print(f"type-1 latency before: {_fmt(verdict.latency_before)}")
    print(f"type-1 latency after:  {_fmt(verdict.latency_after)}")
    print(f"margin: {_fmt(verdict.margin)}")
    print(f"verdict: {verdict.label}")
    if verdict.label == "occurs":
        return EXIT_IBP_OCCURS
    if verdict.label == "inconclusive":
        return EXIT_IBP_INCONCLUSIVE
    return EXIT_OK


def cmd_synthesize(args) -> int:
    game, _ = load_instance(args.file)
    witness = synthesize_ibp_witness(game.graph)
    out_path = FilePath(args.file).with_suffix(".witness.json")
    save_instance(out_path, witness.game, witness.extension)
    verdict = check_ibp(witness)
    print(f"witness written: {out_path}")
    print(f"margin: {_fmt(verdict.margin)}")
    return EXIT_OK


def cmd_search(args) -> int:
    game, _ = load_instance(args.file)  # extension, if any, is ignored
    outcome = random_search_ibp(
        game.graph,
        trials=args.trials,
        seed=args.seed,
        rate_range=(args.rate_lo, args.rate_hi),
        coeff_range=(args.coeff_lo, args.coeff_hi),
        decision_threshold=args.threshold,
    )
    print(f"seed: {args.seed}")
    print(f"trials run: {outcome.trials_run}")
    if outcome.witness is None:
        print("no witness found")
        return EXIT_OK
    verdict = check_ibp(outcome.witness)
    out_path = FilePath(args.file).with_suffix(".search-witness.json")
    save_instance(out_path, outcome.witness.game, outcome.witness.extension)
    print(f"witness found at trial {outcome.witness_trial}, margin {_fmt(verdict.margin)}")
    print(f"witness written: {out_path}")
    return EXIT_OK


def run_demo() -> dict:
    """Both gadget placements end to end; returns the numbers it prints."""
    summary = {}
    for variant in GadgetVariant:
        verdict = check_ibp(gadget_instance(variant))
        type1 = verdict.after_result.path_flows[0]
        type2 = verdict.after_result.path_flows[1]
        summary[variant.value] = {
            "before": verdict.latency_before,
            "after": verdict.latency_after,
            "margin": verdict.margin,
            "type1_flows": dict(type1),
            "type2_flows": dict(type2),
        }
    return summary


def cmd_demo(_args) -> int:
    summary = run_demo()
    for variant in GadgetVariant:
        data = summary[variant.value]
        placement = (
            "second origin at the first origin"
            if variant is GadgetVariant.ORIGIN2_AT_ORIGIN1
            else "second origin at the first destination"
        )
        print(f"variant: {placement}")
        print(f"  type-1 latency before: {_fmt(data['before'])}")
        print(f"  type-1 latency after:  {_fmt(data['after'])}")
        print(f"  margin: {_fmt(data['margin'])}")
        print("  post-extension flows:")
        for label, flows in (("type 1", data["type1_flows"]), ("type 2", data["type2_flows"])):
            for path, amount in sorted(flows.items()):
                print(f"    {label} on {'-'.join(path)}: {_fmt(amount)}")
    return EXIT_OK


# -- parser ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ibpcheck",
        description=(
            "Decide whether a traffic network is immune to the informational "
            "Braess' paradox, solve information-constrained equilibria, and "
            "construct or search for paradox witnesses."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    threshold_help = (
        "absolute latency margin, after minus before, above which the paradox "
        "occurs (default: %(default)s)"
    )

    p = sub.add_parser("classify", help="topology verdict for a network file")
    p.add_argument("file", help="JSON instance file")

    p = sub.add_parser("solve", help="compute the equilibrium of a game file")
    p.add_argument("file", help="JSON instance file; an extension block is ignored")
    p.add_argument(
        "--tol",
        type=float,
        default=DEFAULT_TOLERANCE,
        help="absolute Wardrop gap accepted on path costs (default: %(default)s)",
    )
    p.add_argument(
        "--max-iters",
        type=int,
        default=DEFAULT_MAX_ITERATIONS,
        help="most solver sweeps before failing with exit 3 (default: %(default)s)",
    )
    p.add_argument("--json", action="store_true", help="print the equilibrium as JSON")

    p = sub.add_parser("check-ibp", help="compare latencies before/after the extension")
    p.add_argument("file", help="JSON instance file with an extension block")
    p.add_argument(
        "--tol",
        type=float,
        default=DEFAULT_TOLERANCE,
        help=(
            "absolute Wardrop gap accepted on path costs; a margin at or below "
            "it is no paradox (default: %(default)s)"
        ),
    )
    p.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_DECISION_THRESHOLD,
        help=threshold_help,
    )

    p = sub.add_parser("synthesize", help="construct a paradox witness instance")
    p.add_argument("file", help="JSON instance file; the witness goes to <stem>.witness.json")

    p = sub.add_parser("search", help="randomized paradox search over a network")
    p.add_argument(
        "file", help="JSON instance file; a witness goes to <stem>.search-witness.json"
    )
    p.add_argument(
        "--trials",
        type=int,
        default=1000,
        help="random affine games to try, stopping at the first paradox (default: %(default)s)",
    )
    p.add_argument(
        "--seed", type=int, default=0, help="seed of the random games (default: %(default)s)"
    )
    p.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_DECISION_THRESHOLD,
        help=threshold_help,
    )
    p.add_argument(
        "--rate-lo",
        type=int,
        default=1,
        help="least integer type rate; below 1 counts as 1 (default: %(default)s)",
    )
    p.add_argument(
        "--rate-hi", type=int, default=10, help="greatest integer type rate (default: %(default)s)"
    )
    p.add_argument(
        "--coeff-lo",
        type=int,
        default=0,
        help="least integer coefficient a, b of a latency a + b*x (default: %(default)s)",
    )
    p.add_argument(
        "--coeff-hi",
        type=int,
        default=10,
        help="greatest integer coefficient a, b of a latency a + b*x (default: %(default)s)",
    )

    sub.add_parser("demo", help="reproduce the built-in 47 -> 48 paradox")

    return parser


_parser = None  # built by the first `main` call, then shared


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return command(args)
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER_ERROR
    except (UnsupportedFailureSite, PreconditionViolated) as exc:
        print(f"unsupported: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except IbpcheckError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


def entrypoint() -> None:
    sys.exit(main())
