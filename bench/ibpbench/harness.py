"""The closed loop that times ops, and the statistics it reports.

One caller sends the next op only after the previous one returns.  A
phase cycles through the workload's deck from its first item, so an
untraced and a traced phase run the same mix.

Failures are counted per deck item, not per op: an item is one input, its
op is deterministic, and the passes of the deck only repeat it to time it
again.  An item fails if any of its ops failed.  A phase that must cover
its deck runs on past its deadline until it has tried every item once, so
the items attempted and failed depend on the seed alone, not on how many
passes the host's speed allowed.
"""

from __future__ import annotations

import contextlib
import gc
import math
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field

from ibpcheck.errors import IbpcheckError

from . import calibration
from .workloads import Counters, Failure

# Percentiles considered for the tail, highest first.
TAIL_PERCENTILES = (99.99, 99.9) + tuple(range(99, 49, -1))
TAIL_BEYOND = 10
CALIBRATE_EVERY_S = 0.05


def _rank(q: float, n: int) -> int:
    """1-based nearest rank of percentile q among n values."""
    return max(1, math.ceil(round(q / 100.0 * n, 9)))


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[_rank(q, len(sorted_values)) - 1]


def tail_percentile(n: int) -> float:
    """The highest percentile with at least ten samples beyond it.

    Falls back to the median when there are too few samples for any.
    """
    for q in TAIL_PERCENTILES:
        if n - _rank(q, n) >= TAIL_BEYOND:
            return q
    return 50


@dataclass
class PhaseResult:
    """Per deck item, its op time in each round that reached it.

    Times are in reference seconds (see `calibration`).  An item's latency
    is the median over the times the deck came round to it; items the
    phase never reached are left out.
    """

    samples: list[list[float]]
    scales: list[float] = field(default_factory=list)
    ops: int = 0
    failures: dict[str, int] = field(default_factory=dict)
    failed_items: set[int] = field(default_factory=set)
    wrong: int = 0

    @property
    def attempted_items(self) -> set[int]:
        return {index for index, times in enumerate(self.samples) if times}

    @property
    def failed_ops(self) -> int:
        return sum(self.failures.values())

    def record(self, index: int, failure: Failure | None) -> None:
        self.ops += 1
        if failure is None:
            return
        self.failures[failure.kind] = self.failures.get(failure.kind, 0) + 1
        self.failed_items.add(index)
        self.wrong += failure.wrong

    def rate(self, items) -> float:
        """Items per reference second over the given items' latencies."""
        return len(items) / sum(statistics.median(self.samples[index]) for index in items)

    def summary(self) -> dict:
        ordered = sorted(statistics.median(times) for times in self.samples if times)
        n = len(ordered)
        q = tail_percentile(n)
        return {
            "items": n,
            "ops": self.ops,
            "speed_scale": statistics.median(self.scales),
            "ops_per_s": n / sum(ordered),
            "op_p50_ms": 1e3 * percentile(ordered, 50),
            "op_tail_ms": 1e3 * percentile(ordered, q),
            "tail_percentile": q,
            "failed_items": len(self.failed_items),
            "failed_ops": self.failed_ops,
            "failures": dict(sorted(self.failures.items())),
            "wrong": self.wrong,
        }


def guarded(call, *args) -> tuple[object, Failure | None]:
    """Run a call into the package; an error it raises becomes a failure.

    Only the package's own errors are expected; anything else is a defect
    in the program and marks the run incorrect, but the run continues.
    """
    try:
        return call(*args), None
    except IbpcheckError as exc:
        return None, Failure(type(exc).__name__)
    except Exception as exc:  # noqa: BLE001 - the loop must keep running
        traceback.print_exc(file=sys.stderr)
        return None, Failure(f"crash:{type(exc).__name__}", wrong=True)


def run_one(workload, item, counters: Counters, tracer=None, op_id: int = 0):
    """One op and, if it returned, its check; gives (op seconds, failure)."""
    op_span = tracer.root("op", op_id) if tracer else contextlib.nullcontext()
    with op_span:
        started = time.perf_counter()
        result, failure = guarded(workload.op, item)
        elapsed = time.perf_counter() - started
    if failure is None:
        check_span = tracer.root("check", op_id) if tracer else contextlib.nullcontext()
        with check_span:
            verdict, check_error = guarded(workload.check, item, result, counters)
        failure = check_error or verdict
    return elapsed, failure


def run_phase(
    workload, deck, seconds: float, counters: Counters, tracer=None, cover: bool = False
) -> PhaseResult:
    """Cycle through the deck for `seconds`, one op at a time.

    With `cover`, the phase also runs until every item has had one op.

    The calibration kernel runs before the first op and again after every
    `CALIBRATE_EVERY_S` of op time.  The ops between two kernel runs form a
    chunk, and their times are scaled by the mean of those two kernel
    times, which follows the host's speed as it drifts.
    """
    phase = PhaseResult(samples=[[] for _ in deck])
    deadline = time.perf_counter() + seconds
    before = calibration.sample()
    chunk: list[tuple[int, float]] = []
    chunk_time = 0.0
    op_id = 0
    while True:
        index = op_id % len(deck)
        gc.collect()  # charge no op for garbage an earlier op left
        elapsed, failure = run_one(workload, deck[index], counters, tracer, op_id)
        phase.record(index, failure)
        chunk.append((index, elapsed))
        chunk_time += elapsed
        op_id += 1
        done = time.perf_counter() >= deadline and (not cover or op_id >= len(deck))
        if chunk_time >= CALIBRATE_EVERY_S or done:
            after = calibration.sample()
            scale = calibration.scale([before, after])
            for position, raw in chunk:
                phase.samples[position].append(raw * scale)
            phase.scales.append(scale)
            before, chunk, chunk_time = after, [], 0.0
        if done:
            return phase
