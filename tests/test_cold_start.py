"""Only the polish imports numpy.

`import ibpcheck`, the topology verdict, synthesis, the `cg` sweeps and the
`exact` backend run in pure Python; numpy loads the first time `auto`
polishes.  Each script runs in a fresh interpreter, since the other test
modules import numpy.
"""

import os
import subprocess
import sys
from pathlib import Path

import ibpcheck

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

# Prints a line per step, and after the last one the repr of an `auto` solve.
_COLD_SCRIPT = """
import contextlib, io, sys

def step(name):
    print(name, "numpy" in sys.modules)

import ibpcheck
step("import")
from ibpcheck import (
    check_ibp, decide_ibp_free, gadget_graph, gadget_instance, random_search_ibp,
    solve_icwe, synthesize_ibp_witness,
)
from ibpcheck.cli import main

decide_ibp_free(gadget_graph())
step("decide_ibp_free")
synthesize_ibp_witness(gadget_graph())
step("synthesize_ibp_witness")
outcome = random_search_ibp(gadget_graph(), trials=20, seed=13, backend="cg")
step("random_search_ibp")
verdict = check_ibp(outcome.hits[0][1], backend="exact")
assert verdict.occurs
step("check_ibp exact")
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["classify", sys.argv[1] + "/gadget.json"]) == 10
    assert main(["search", sys.argv[1] + "/cycle4_two_od.json", "--trials", "20"]) == 0
step("cli classify and search")
result = solve_icwe(gadget_instance().game)
step("solve_icwe")
print(repr(result))
"""

# The same solve after an eager numpy import.
_EAGER_SCRIPT = """
import numpy
from ibpcheck import gadget_instance, solve_icwe
print(repr(solve_icwe(gadget_instance().game)))
"""


def _run(script, *args):
    return subprocess.run(
        [sys.executable, "-c", script, *args],
        env=dict(os.environ, PYTHONPATH=str(Path(ibpcheck.__file__).resolve().parent.parent)),
        capture_output=True,
        text=True,
        check=True,
    ).stdout.splitlines()


def test_only_the_polish_imports_numpy():
    *steps, result = _run(_COLD_SCRIPT, str(FIXTURES))
    assert steps == [
        "import False",
        "decide_ibp_free False",
        "synthesize_ibp_witness False",
        "random_search_ibp False",
        "check_ibp exact False",
        "cli classify and search False",
        "solve_icwe True",
    ]
    assert result == _run(_EAGER_SCRIPT)[0]
