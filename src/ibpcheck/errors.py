"""Exception hierarchy shared by all ibpcheck modules.

A bad argument raises `InvalidArgument` from the function that takes it, so
the CLI checks no argument itself: it maps each family to an exit code.
"""


class IbpcheckError(Exception):
    """Base class for every error raised by this package."""


class InvalidArgument(IbpcheckError, ValueError):
    """An argument breaks its documented rule (a range, a count, a name)."""


# -- graph layer -------------------------------------------------------------

class InvalidNetwork(IbpcheckError):
    """A multigraph violates a structural invariant (loops, bad ids, ...), or
    fails `validate`: it is disconnected or has an edge or vertex on no OD
    path."""


class EdgeNotFound(IbpcheckError, KeyError):
    """An operation referenced an edge id that is not in the graph."""


class PathCapExceeded(IbpcheckError):
    """Simple-path enumeration hit the configured cap, or the verdict met a
    series-parallel OD chain with more simple paths than the cap.

    Enumeration is exhaustive and worst-case exponential; the cap turns a
    runaway instance into an explicit error instead of a hang.  The verdict
    counts paths in its series-parallel reduction for free and keeps the cap
    only until ROADMAP item 1 moves the benchmark's pin on it.
    """

    def __init__(self, cap: int):
        super().__init__(f"more than {cap} simple paths, the path cap")
        self.cap = cap


# -- equilibrium layer -------------------------------------------------------

class SolverError(IbpcheckError):
    """Base class for equilibrium-solver failures."""


class NoFeasiblePath(SolverError):
    """A traveler type with positive rate has no path inside its info set."""


class DidNotConverge(SolverError):
    """The iterative solver exceeded max_iterations above tolerance."""

    def __init__(self, iterations: int, violation: float):
        super().__init__(
            f"no equilibrium after {iterations} iterations "
            f"(wardrop violation {violation:.3e})"
        )
        self.iterations = iterations
        self.violation = violation


class BackendUnavailable(SolverError):
    """The requested solver backend cannot handle this game."""


# -- paradox layer -----------------------------------------------------------

class PreconditionViolated(IbpcheckError):
    """An operation's stated precondition does not hold for the input: a
    block the gadget embedding cannot reduce, a reduced graph of neither
    gadget placement, a witness sought on an IBP-free network, or cycle
    diagnostics on a non-cycle or not one type per OD pair in OD order."""


class UnsupportedFailureSite(IbpcheckError):
    """Witness synthesis only handles non-cycle non-coincident common blocks."""


class WitnessVerificationFailed(IbpcheckError):
    """A constructed witness failed its own paradox check (internal bug)."""


# -- instance files ----------------------------------------------------------

class InstanceFileError(IbpcheckError):
    """An instance file is malformed; message names the offending field."""
