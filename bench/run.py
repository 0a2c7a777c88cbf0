"""Benchmark of the ibpcheck package: one seeded workload per invocation.

    python3 bench/run.py --workload search --seed 1 --seconds 15 --trace 0

Run from anywhere; the package is imported from ``src/`` next to this
directory, never from an installed copy.  Each workload runs in its own
single-threaded child process, so set-up time and peak memory are the
workload's own.  Set-up is measured in five fresh processes and the
median reported.  With ``--trace 0`` the end-to-end metrics are printed;
with ``--trace 1`` a run with tracing off is followed by one with spans
around every public call of the six layer modules, and the per-layer
metrics are printed.  The last line of standard output is a JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
``attempted`` and ``failed`` count deck items (distinct inputs), and every
run tries each item of the deck at least once.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

from ibpbench import metrics

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
SRC_DIR = REPO_ROOT / "src"
OUT_DIR = REPO_ROOT / ".bench_out"
SETUP_RUNS = 5
SETUP_KERNEL_RUNS = 25
TIME_LIMIT_S = 170.0
# `exact` calls np.linalg.lstsq; a BLAS thread pool would break the
# single-threaded closed loop.
THREAD_PINS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=metrics.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", choices=("setup", "run"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


# -- child process: one workload -----------------------------------------------------------


def child(args) -> dict:
    """Set up, warm up and, unless only set-up is measured, run the phases."""
    import ibpcheck

    if Path(ibpcheck.__file__).resolve().parent != SRC_DIR / "ibpcheck":
        raise SystemExit(f"error: imported ibpcheck from {ibpcheck.__file__}, not {SRC_DIR}")
    from ibpbench import calibration, harness, tracing, workloads

    workload = workloads.make(args.workload, REPO_ROOT)
    workdir = OUT_DIR / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        deck = workload.setup(args.seed, workdir)
        counters = workloads.Counters()
        harness.run_one(workload, deck[0], counters)  # warm-up, not an op sample
        # Ops should not pay for scanning the deck in full collections.
        gc.collect()
        gc.freeze()
        setup_raw_s = time.perf_counter() - _STARTED
        kernel_times = [calibration.sample() for _ in range(SETUP_KERNEL_RUNS)]
        setup_s = setup_raw_s * calibration.scale(kernel_times)
        if args.child == "setup":
            return {"setup_s": setup_s}
        if not args.trace:
            phase = harness.run_phase(workload, deck, args.seconds, counters, cover=True)
            return {
                "setup_s": setup_s,
                "phase": phase.summary(),
                **item_counts([phase]),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
        half = args.seconds / 2
        untraced = harness.run_phase(workload, deck, half, counters, cover=True)
        tracer = tracing.Tracer()
        counters = workloads.Counters()
        tracer.install()
        try:
            traced = harness.run_phase(workload, deck, half, counters, tracer)
        finally:
            tracer.uninstall()
        plain, spanned = untraced.summary(), traced.summary()
        counts = item_counts([untraced, traced])
        common = untraced.attempted_items & traced.attempted_items
        values = metrics.per_layer_values(
            tracing.layer_totals(tracer.spans),
            traced.ops,
            counters,
            failed_frac=counts["failed"] / counts["attempted"],
            # Over the items both phases reached: the untraced phase covers
            # the deck, the traced one may not.
            overhead_frac=1.0 - traced.rate(common) / untraced.rate(common),
        )
        trace_file = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(trace_file)
        return {
            "setup_s": setup_s,
            "phase": plain,
            "traced_phase": spanned,
            **counts,
            "per_layer": values,
            "spans": len(tracer.spans),
            "trace_file": str(trace_file.relative_to(REPO_ROOT)),
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def item_counts(phases) -> dict:
    """Deck items tried and items with a failed op, over all phases."""
    attempted = set().union(*(phase.attempted_items for phase in phases))
    failed = set().union(*(phase.failed_items for phase in phases))
    return {"attempted": len(attempted), "failed": len(failed)}


# -- parent process --------------------------------------------------------------------------


def run_child(args, mode: str, deadline: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC_DIR), str(BENCH_DIR)])
    env["PYTHONHASHSEED"] = "0"
    env.update({name: "1" for name in THREAD_PINS})
    command = [
        sys.executable, str(Path(__file__).resolve()), "--child", mode,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    completed = subprocess.run(
        command, env=env, capture_output=True, text=True,
        timeout=max(1.0, deadline - time.perf_counter()),
    )
    sys.stderr.write(completed.stderr)
    if completed.returncode != 0:
        raise RuntimeError(f"{mode} child exited with {completed.returncode}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def report(args, setups: list[float], result: dict) -> dict:
    """Print the human-readable lines; return the final JSON object."""
    phases = [result["phase"]] + ([result["traced_phase"]] if args.trace else [])
    attempted, failed = result["attempted"], result["failed"]
    wrong = sum(p["wrong"] for p in phases)
    plain = result["phase"]
    print(f"workload {args.workload}, seed {args.seed}: closed loop, 1 client, {args.seconds:g} s")
    print(
        f"  times in reference seconds; this machine ran at {plain['speed_scale']:.3f}"
        " reference seconds per second (median over calibration chunks)"
    )
    print(f"  setup_s      {statistics.median(setups):.4f} s   (median of {len(setups)} set-ups)")
    print(
        f"  ops_per_s    {plain['ops_per_s']:.3f} ops/s   ({plain['items']} deck items, "
        f"{plain['ops']} ops, median per item)"
    )
    print(f"  op_p50_ms    {plain['op_p50_ms']:.4f} ms   (n={plain['items']})")
    print(f"  op_tail_ms   {plain['op_tail_ms']:.4f} ms   (p{plain['tail_percentile']:g}, n={plain['items']})")
    print(
        f"  failed_frac  {failed / attempted:.4f}   ({failed}/{attempted} deck items; "
        f"{plain['failed_ops']}/{plain['ops']} ops)"
    )
    if "peak_rss_mb" in result:
        print(f"  peak_rss_mb  {result['peak_rss_mb']:.1f} MB")
    for phase, label in zip(phases, ("", "traced ")):
        for kind, count in phase["failures"].items():
            print(f"  {label}failed op: {kind} x{count}")
    if args.trace:
        traced = result["traced_phase"]
        print(f"  traced: {traced['ops']} ops, {result['spans']} spans -> {result['trace_file']}")
        values = result["per_layer"]
        out = {name: {"value": values[name], "unit": unit} for name, unit, _ in metrics.PER_LAYER}
        for name, entry in out.items():
            print(f"  {name:48s} {entry['value']:.6g} {entry['unit']}")
    else:
        values = {
            "setup_s": statistics.median(setups),
            "ops_per_s": plain["ops_per_s"],
            "op_p50_ms": plain["op_p50_ms"],
            "op_tail_ms": plain["op_tail_ms"],
            "peak_rss_mb": result["peak_rss_mb"],
        }
        out = {name: {"value": values[name], "unit": unit} for name, unit, _ in metrics.END_TO_END}
    if wrong:
        print(f"  INCORRECT: {wrong} ops gave a wrong answer")
    return {"correct": wrong == 0, "attempted": attempted, "failed": failed, "metrics": out}


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.child:
        print(json.dumps(child(args)))
        return 0
    if not (SRC_DIR / "ibpcheck" / "__init__.py").is_file():
        print(f"error: no ibpcheck package under {SRC_DIR}", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + TIME_LIMIT_S
    try:
        setups = [run_child(args, "setup", deadline)["setup_s"] for _ in range(SETUP_RUNS - 1)]
        result = run_child(args, "run", deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append(result["setup_s"])
    print(json.dumps(report(args, setups, result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
