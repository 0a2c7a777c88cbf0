"""Machine-speed calibration, so that timings from a shared host compare.

On a host shared with other tenants, the speed of one core drifts by
20-40 % over periods of seconds as neighbours come and go, and no amount of
repetition within a 20-second run averages that out.  The harness runs this
fixed kernel between ops and scales every time it reports by
``REFERENCE_S / median kernel time`` measured alongside: the figures read
as times on a machine where the kernel takes ``REFERENCE_S``.

The kernel never calls ibpcheck, so a change to the package cannot move
it.  It does the package's kind of work (simple-path search over dicts,
tuples and frozensets, then polynomial latencies along each path) in pure
Python, so neighbours slow it about as much as they slow an op.
"""

from __future__ import annotations

import statistics
import time

REFERENCE_S = 0.002
_SIDE = 4


def _grid_adjacency() -> dict:
    adjacency: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for r in range(_SIDE):
        for c in range(_SIDE):
            adjacency[(r, c)] = [
                (r + dr, c + dc)
                for dr, dc in ((0, 1), (1, 0), (0, -1), (-1, 0))
                if 0 <= r + dr < _SIDE and 0 <= c + dc < _SIDE
            ]
    return adjacency


_ADJACENCY = _grid_adjacency()
_TARGET = (_SIDE - 1, _SIDE - 1)
PATHS = 184  # simple corner-to-corner paths of the 4x4 grid


def kernel() -> float:
    """Enumerate the 184 corner-to-corner paths and price each one."""
    total = 0.0
    found = 0
    stack = [((0, 0), frozenset([(0, 0)]), ())]
    while stack:
        vertex, seen, path = stack.pop()
        for other in _ADJACENCY[vertex]:
            if other == _TARGET:
                found += 1
                for r, c in path:
                    x = 0.5 * (r + c)
                    total += 1.0 + x * (2.0 + x * 0.25)
            elif other not in seen:
                stack.append((other, seen | {other}, path + (other,)))
    if found != PATHS:
        raise AssertionError(f"calibration kernel found {found} paths, expected {PATHS}")
    return total


def sample() -> float:
    """Seconds one kernel run takes now."""
    started = time.perf_counter()
    kernel()
    return time.perf_counter() - started


def scale(samples) -> float:
    """Factor that turns a time measured alongside `samples` into reference time."""
    return REFERENCE_S / statistics.median(samples)
