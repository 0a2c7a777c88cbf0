import argparse
import copy
import inspect
import json
import math
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from ibpcheck import cli, errors, instance_io
from ibpcheck.cli import build_parser, main
from ibpcheck.core_graph import EmbeddingStep, MultiGraph, enumerate_simple_paths
from ibpcheck.equilibrium import (
    DEFAULT_MAX_ITERATIONS,
    DEFAULT_TOLERANCE,
    LatencyFunction,
    RoutingGame,
    TravelerType,
    solve_icwe,
    verify_wardrop,
)
from ibpcheck.instance_io import (
    instance_to_dict,
    load_instance,
    parse_instance,
    save_instance,
)
from ibpcheck.errors import InstanceFileError, InvalidNetwork
from ibpcheck.paradox import (
    DEFAULT_DECISION_THRESHOLD,
    check_ibp,
    gadget_graph,
    gadget_instance,
    random_search_ibp,
)

from conftest import (
    FIXTURE_STEMS,
    diamonds_in_series,
    long_path_game,
    pigou_game,
    second_od_pair_disconnected,
    wheatstone,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
GOLDEN = Path(__file__).resolve().parent / "golden"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- instance files -------------------------------------------------------------


def test_fixture_round_trip_is_field_exact(tmp_path):
    for name in (
        "gadget.json",
        "gadget_pre.json",
        "pigou.json",
        "triangle_two_od.json",
        "chain3.json",
        "k4.json",
        "cycle4_two_od.json",
    ):
        game, ext = load_instance(FIXTURES / name)
        out = tmp_path / name
        save_instance(out, game, ext)
        game2, ext2 = load_instance(out)
        assert instance_to_dict(game, ext) == instance_to_dict(game2, ext2)
        assert game2.graph == game.graph
        assert game2.types == game.types
        assert game2.latencies == game.latencies
        assert ext2 == ext


def test_unknown_top_level_field_rejected():
    with pytest.raises(InstanceFileError, match="unknown fields"):
        parse_instance(
            {
                "schema_version": 1,
                "vertices": [],
                "edges": [],
                "od_pairs": [],
                "types": [],
                "extra": 1,
            }
        )


def test_unknown_nested_field_rejected():
    data = json.loads((FIXTURES / "gadget.json").read_text())
    data["edges"][0]["color"] = "red"
    with pytest.raises(InstanceFileError, match=r"edges\[0\]"):
        parse_instance(data)


def test_wrong_schema_version_rejected():
    with pytest.raises(InstanceFileError, match="schema_version"):
        parse_instance({"schema_version": 2, "vertices": [], "edges": [], "od_pairs": [], "types": []})


# gadget.json with one object replaced by one that lacks or mistypes several
# fields, and the error its first fault in schema order gives
MULTI_FAULT = (
    ("od_pairs", {"origin": 3}, "od_pairs[0]: missing field 'destination'"),
    ("edges", {"endpoints": ["u", "v"]}, "edges[0]: missing field 'id'"),
    ("types", {}, "types[0]: missing field 'rate'"),
)

_PARSE_EACH = """
import json, sys
from ibpcheck.errors import InstanceFileError
from ibpcheck.instance_io import parse_instance
for data in json.load(sys.stdin):
    try:
        parse_instance(data)
        print("accepted")
    except InstanceFileError as exc:
        print(exc)
"""


def test_a_file_with_several_faults_names_the_first_under_every_hash_seed():
    corpus = []
    for section, obj, _ in MULTI_FAULT:
        data = json.loads((FIXTURES / "gadget.json").read_text())
        data[section][0] = obj
        corpus.append(data)
    paths = [str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    path = os.pathsep.join(filter(None, paths))
    outputs = [
        subprocess.run(
            [sys.executable, "-c", _PARSE_EACH],
            input=json.dumps(corpus),
            env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path),
            capture_output=True,
            text=True,
            check=True,
            timeout=120,
        ).stdout
        for seed in ("1", "2")
    ]
    assert outputs[0] == outputs[1] == "".join(f"{message}\n" for *_, message in MULTI_FAULT)


def test_the_field_tuples_are_the_schemas_required_lists():
    schema = json.loads((FIXTURES.parent / "docs" / "instance.schema.json").read_text())
    items = {name: schema["properties"][name]["items"] for name in ("edges", "od_pairs", "types")}
    tuples = {
        instance_io._TOP_FIELDS: schema,
        instance_io._EDGE_FIELDS: items["edges"],
        instance_io._OD_FIELDS: items["od_pairs"],
        instance_io._TYPE_FIELDS: items["types"],
        instance_io._EXTENSION_FIELDS: schema["properties"]["extension"],
    }
    for fields, obj in tuples.items():
        assert fields == tuple(obj["required"])
    # instance_to_dict writes every object's fields in the same order
    data = instance_to_dict(*load_instance(FIXTURES / "gadget.json"))
    assert tuple(data) == (*instance_io._TOP_FIELDS, "extension")
    assert {tuple(e) for e in data["edges"]} == {instance_io._EDGE_FIELDS}
    assert {tuple(p) for p in data["od_pairs"]} == {instance_io._OD_FIELDS}
    assert {tuple(t) for t in data["types"]} == {instance_io._TYPE_FIELDS}
    assert tuple(data["extension"]) == instance_io._EXTENSION_FIELDS


def _field_paths(node, prefix=()):
    """The key path of every value below `node`, in document order."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _field_paths(value, prefix + (key,))


ODD_VALUES = (True, False, None, 0, 1, 1.0, -1, 0.5, 2, "x", "", [], {}, ["x"], [1])


def test_what_the_parser_accepts_the_published_schema_accepts():
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads((FIXTURES.parent / "docs" / "instance.schema.json").read_text())
    validator = jsonschema.Draft7Validator(schema)
    rng = random.Random(2025)
    fixtures = [
        json.loads((FIXTURES / f"{stem}.json").read_text())
        for stem in ("gadget", "pigou", "k4", "cycle4_two_od")
    ]
    accepted = version_true = 0
    for _ in range(2000):  # one field of one fixture set to an odd value
        data = copy.deepcopy(rng.choice(fixtures))
        *parents, key = rng.choice(list(_field_paths(data)))
        node = data
        for parent in parents:
            node = node[parent]
        node[key] = copy.deepcopy(rng.choice(ODD_VALUES))
        version_true += parents == [] and key == "schema_version" and node[key] is True
        try:
            parse_instance(data)
        except InstanceFileError:
            continue
        accepted += 1
        assert validator.is_valid(data), (parents, key, node[key])
    assert accepted > 100 and version_true > 0


def test_negative_latency_coefficient_rejected():
    data = json.loads((FIXTURES / "gadget.json").read_text())
    data["edges"][0]["latency"] = [-1.0]
    with pytest.raises(InstanceFileError):
        parse_instance(data)


@pytest.mark.parametrize(
    "edit",
    [
        lambda d: d["edges"][0].update(latency=[True]),
        lambda d: d["types"][0].update(rate=True),
        lambda d: d["types"][0].update(od_index=True),
    ],
    ids=["latency", "rate", "od_index"],
)
def test_boolean_numbers_rejected(edit):
    data = json.loads((FIXTURES / "gadget.json").read_text())  # two OD pairs
    edit(data)
    with pytest.raises(InstanceFileError):
        parse_instance(data)


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_non_finite_numbers_rejected_by_constructors(value):
    with pytest.raises(InvalidNetwork):
        LatencyFunction([0.0, value])
    with pytest.raises(InvalidNetwork):
        TravelerType(value, 0, {"e"})


@pytest.mark.parametrize(
    "edit",
    [
        lambda d: d["edges"][0].update(latency=[math.nan]),
        lambda d: d["edges"][0].update(latency=[0.0, math.inf]),
        lambda d: d["types"][0].update(rate=math.inf),
        lambda d: d["types"][0].update(rate=math.nan),
    ],
    ids=["latency-nan", "latency-inf", "rate-inf", "rate-nan"],
)
def test_non_finite_numbers_in_a_file_exit_2(edit, tmp_path, capsys):
    data = json.loads((FIXTURES / "pigou.json").read_text())
    edit(data)
    path = tmp_path / "pigou.json"
    path.write_text(json.dumps(data))  # json writes NaN and Infinity literally
    code, out, err = run_cli(capsys, "solve", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ")


def test_fixtures_match_the_published_schema():
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads(
        (FIXTURES.parent / "docs" / "instance.schema.json").read_text()
    )
    for stem in FIXTURE_STEMS:
        if stem == "malformed":
            continue
        jsonschema.validate(json.loads((FIXTURES / f"{stem}.json").read_text()), schema)
    witnesses = sorted(GOLDEN.glob("*.synthesize.json")) + [GOLDEN / "gadget.search-witness.json"]
    assert len(witnesses) == 6
    for path in witnesses:
        jsonschema.validate(json.loads(path.read_text()), schema)


@pytest.mark.parametrize(
    "edit, message",
    [
        (
            lambda d: d["types"][0].update(rate=10**400),
            "types[0]: rate must be a finite number",
        ),
        (
            lambda d: d["edges"][0]["latency"].__setitem__(0, 10**309),
            "edges[0]: latency must be a nonempty array of finite coefficients (constant first)",
        ),
    ],
    ids=["rate-10^400", "coefficient-10^309"],
)
def test_an_integer_past_the_float_range_exits_2(edit, message, tmp_path, capsys):
    data = json.loads((FIXTURES / "pigou.json").read_text())
    edit(data)
    path = tmp_path / "pigou.json"
    path.write_text(json.dumps(data))
    assert run_cli(capsys, "classify", str(path)) == (2, "", f"error: {message}\n")


# -- classify ----------------------------------------------------------------------


def test_classify_gadget_not_ibp_free(capsys):
    code, out, _ = run_cli(capsys, "classify", str(FIXTURES / "gadget.json"))
    assert code == 10
    assert "verdict: NOT-IBP-FREE" in out
    assert "common block condition" in out


def test_classify_triangle_ibp_free(capsys):
    code, out, _ = run_cli(capsys, "classify", str(FIXTURES / "triangle_two_od.json"))
    assert code == 0
    assert "verdict: IBP-FREE" in out
    assert "kind=cycle" in out


def test_classify_malformed_file(capsys):
    code, _, err = run_cli(capsys, "classify", str(FIXTURES / "malformed.json"))
    assert code == 2
    assert "unknown fields" in err


def test_classify_missing_file(capsys):
    code, _, err = run_cli(capsys, "classify", str(FIXTURES / "nope.json"))
    assert code == 2
    assert "cannot read" in err


@pytest.mark.parametrize(
    "content, reason",
    [
        pytest.param(b"\xff\xfe{}", "not UTF-8 text at byte 0", id="utf-16-byte-order-mark"),
        pytest.param(b"[" * 200_000, "JSON nested too deeply", id="deep-nesting"),
        pytest.param(
            b"[" + b"9" * 5000 + b"]",
            "a number has too many digits",
            id="long-integer",
            marks=pytest.mark.skipif(
                not hasattr(sys, "get_int_max_str_digits"), reason="no integer digit limit"
            ),
        ),
    ],
)
def test_an_unreadable_instance_file_exits_2(content, reason, tmp_path, capsys):
    path = tmp_path / "instance.json"
    path.write_bytes(content)
    assert run_cli(capsys, "classify", str(path)) == (2, "", f"error: {path}: {reason}\n")


def test_classify_past_the_path_cap_states_the_cap(tmp_path, capsys):
    g = diamonds_in_series(14)  # 2^14 simple paths
    game = RoutingGame(
        g,
        {eid: LatencyFunction((1.0, 1.0)) for eid in g.edge_ids},
        [TravelerType(1.0, 0, g.edge_ids)],
    )
    path = tmp_path / "diamonds14.json"
    save_instance(path, game)
    code, out, err = run_cli(capsys, "classify", str(path))
    assert (code, out) == (2, "")
    assert "10000" in err and "max_paths" not in err


def test_classify_with_a_disconnected_od_pair_lists_the_uncovered_edges(tmp_path, capsys):
    g = second_od_pair_disconnected()
    game = RoutingGame(
        g,
        {eid: LatencyFunction((1.0, 1.0)) for eid in g.edge_ids},
        [TravelerType(1.0, 0, ("e1", "e2"))],
    )
    path = tmp_path / "disconnected.json"
    save_instance(path, game)
    assert run_cli(capsys, "classify", str(path)) == (
        2,
        "",
        "error: graph fails validation: connected=False, uncovered_edges=['e3', 'e4'], "
        "uncovered_vertices=['c', 'd', 'e']\n",
    )


def test_classify_marks_two_od_pairs_with_no_common_block_disjoint(tmp_path, capsys):
    g = MultiGraph(["a", "b", "c"], [("ab", "a", "b"), ("bc", "b", "c")], [("a", "b"), ("b", "c")])
    latencies = {eid: LatencyFunction((1.0,)) for eid in g.edge_ids}
    types = [TravelerType(1.0, 0, ("ab",)), TravelerType(1.0, 1, ("bc",))]
    path = tmp_path / "path.json"
    save_instance(path, RoutingGame(g, latencies, types))
    code, out, err = run_cli(capsys, "classify", str(path))
    assert (code, err) == (0, "")
    assert out.endswith("common blocks:\n  OD pair (0, 1): disjoint\nverdict: IBP-FREE\n")


# -- solve -------------------------------------------------------------------------


def test_solve_gadget_pre(capsys):
    code, out, _ = run_cli(capsys, "solve", str(FIXTURES / "gadget_pre.json"))
    assert code == 0
    assert "type 0: rate=5 latency=47" in out


def test_solve_pigou(capsys):
    code, out, _ = run_cli(capsys, "solve", str(FIXTURES / "pigou.json"))
    assert code == 0
    assert "type 0: rate=1 latency=1" in out


def test_solve_json_output(capsys):
    code, out, _ = run_cli(capsys, "solve", str(FIXTURES / "gadget_pre.json"), "--json")
    assert code == 0
    data = json.loads(out)
    assert data["type_latencies"][0] == pytest.approx(47.0)
    assert data["edge_flows"]["e2"] == pytest.approx(5.0)


def test_solve_infeasible_info_set(tmp_path, capsys):
    data = json.loads((FIXTURES / "gadget_pre.json").read_text())
    data["types"][0]["info_set"] = ["e2"]  # no u-v path inside
    bad = tmp_path / "infeasible.json"
    bad.write_text(json.dumps(data))
    code, _, err = run_cli(capsys, "solve", str(bad))
    assert code == 3
    assert "no feasible path" in err


def test_solve_on_a_3000_edge_path(tmp_path, capsys):
    game = long_path_game(3000)
    path = tmp_path / "long_path.json"
    save_instance(path, game)
    code, out, _ = run_cli(capsys, "solve", str(path))
    assert code == 0
    assert "type 0: rate=2 latency=9000" in out


@pytest.mark.parametrize("name", [stem for stem in FIXTURE_STEMS if stem != "malformed"])
def test_solve_prints_the_gap_verify_wardrop_finds(name, capsys):
    # the printed gap is the result's own; verify_wardrop rebuilds it from
    # the path flows alone
    path = FIXTURES / f"{name}.json"
    code, out, _ = run_cli(capsys, "solve", str(path))
    assert code == 0
    game, _ = load_instance(path)
    check = verify_wardrop(game, solve_icwe(game))
    assert out.splitlines()[-1] == f"max wardrop violation: {cli._fmt(check.max_violation)}"


# -- check-ibp ------------------------------------------------------------------------


def test_check_ibp_gadget(capsys):
    code, out, _ = run_cli(capsys, "check-ibp", str(FIXTURES / "gadget.json"))
    assert code == 20
    assert "margin: 1" in out
    assert "verdict: occurs" in out


def test_check_ibp_dominated_extension(capsys):
    code, out, _ = run_cli(capsys, "check-ibp", str(FIXTURES / "gadget_dominated.json"))
    assert code == 0
    assert "verdict: not-occurs" in out


def test_check_ibp_missing_extension(capsys):
    code, _, err = run_cli(capsys, "check-ibp", str(FIXTURES / "gadget_pre.json"))
    assert code == 2
    assert "extension" in err


def test_check_ibp_inconclusive_band(capsys):
    # a margin of 1 sits inside (tol, threshold] when the threshold is raised
    code, out, _ = run_cli(
        capsys, "check-ibp", str(FIXTURES / "gadget.json"), "--threshold", "2.0"
    )
    assert code == 21
    assert "verdict: inconclusive" in out


# -- synthesize -----------------------------------------------------------------------


def test_synthesize_gadget_writes_verified_witness(tmp_path, capsys):
    src = tmp_path / "gadget.json"
    shutil.copy(FIXTURES / "gadget.json", src)
    code, out, _ = run_cli(capsys, "synthesize", str(src))
    assert code == 0
    witness_path = tmp_path / "gadget.witness.json"
    assert witness_path.exists()
    assert "margin: 1" in out
    code, out, _ = run_cli(capsys, "check-ibp", str(witness_path))
    assert code == 20


def test_synthesize_chain_fixture(tmp_path, capsys):
    src = tmp_path / "chain3.json"
    shutil.copy(FIXTURES / "chain3.json", src)
    code, out, _ = run_cli(capsys, "synthesize", str(src))
    assert code == 0
    game, ext = load_instance(tmp_path / "chain3.witness.json")
    assert ext is not None


def test_synthesize_on_ibp_free_network_is_unsupported(tmp_path, capsys):
    src = tmp_path / "triangle_two_od.json"
    shutil.copy(FIXTURES / "triangle_two_od.json", src)
    code, _, err = run_cli(capsys, "synthesize", str(src))
    assert code == 4
    assert "unsupported" in err


def test_synthesize_on_an_sli_failure_exits_4(tmp_path, capsys):
    g = wheatstone()
    game = RoutingGame(
        g,
        {eid: LatencyFunction((1.0, 1.0)) for eid in g.edge_ids},
        [TravelerType(1.0, 0, g.edge_ids)],
    )
    path = tmp_path / "wheatstone.json"
    save_instance(path, game)
    assert run_cli(capsys, "synthesize", str(path)) == (
        4,
        "",
        "unsupported: witness synthesis needs a non-cycle non-coincident common block; "
        "single-OD (SLI-condition) failures are out of scope\n",
    )
    assert not (tmp_path / "wheatstone.witness.json").exists()


# -- search ---------------------------------------------------------------------------


def test_search_zero_trials(capsys):
    code, out, _ = run_cli(
        capsys, "search", str(FIXTURES / "cycle4_two_od.json"), "--trials", "0"
    )
    assert code == 0
    assert "no witness found" in out


def test_search_on_cycle_finds_nothing(capsys):
    code, out, _ = run_cli(
        capsys,
        "search",
        str(FIXTURES / "cycle4_two_od.json"),
        "--trials",
        "40",
        "--seed",
        "5",
    )
    assert code == 0
    assert "no witness found" in out


def test_search_finds_witness_on_gadget(tmp_path, capsys):
    src = tmp_path / "gadget.json"
    shutil.copy(FIXTURES / "gadget.json", src)
    code, out, _ = run_cli(
        capsys,
        "search",
        str(src),
        "--trials",
        "1000",
        "--seed",
        "7",
        "--coeff-hi",
        "22",
    )
    witness = tmp_path / "gadget.search-witness.json"
    assert (code, out) == (
        0,
        "seed: 7\n"
        "trials run: 480\n"
        "witness found at trial 479, margin 0.125874126\n"  # check_ibp's re-check
        f"witness written: {witness}\n",
    )
    assert witness.read_text() == (GOLDEN / "gadget.search-witness.json").read_text()


def test_search_without_an_od_0_path_exits_2(tmp_path, capsys):
    g = second_od_pair_disconnected()
    swapped = MultiGraph(g.vertices, g.edges, list(reversed(g.od_pairs)))
    game = RoutingGame(
        swapped,
        {eid: LatencyFunction((1.0, 1.0)) for eid in swapped.edge_ids},
        [TravelerType(1.0, 1, ("e1", "e2"))],
    )
    path = tmp_path / "od0_disconnected.json"
    save_instance(path, game)
    code, out, err = run_cli(capsys, "search", str(path), "--trials", "3")
    assert (code, out) == (2, "")
    assert err.startswith("error: OD 0 (c -> a) has no path")
    assert "Traceback" not in err


def test_search_with_a_disconnected_later_od_pair_exits_2(tmp_path, capsys):
    g = second_od_pair_disconnected()
    game = RoutingGame(
        g,
        {eid: LatencyFunction((1.0, 1.0)) for eid in g.edge_ids},
        [TravelerType(1.0, 0, ("e1", "e2"))],
    )
    path = tmp_path / "od1_disconnected.json"
    save_instance(path, game)
    code, out, err = run_cli(capsys, "search", str(path), "--trials", "3")
    assert (code, out) == (2, "")
    assert err.startswith("error: OD 1 (c -> a) has no path")
    assert "Traceback" not in err


def test_search_output_is_deterministic(capsys):
    args = ("search", str(FIXTURES / "cycle4_two_od.json"), "--trials", "25", "--seed", "9")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


# -- golden output -------------------------------------------------------------------
# The CLI's byte-stable output, captured once; a test failing here means the
# output changed, which must be deliberate and recorded with new golden files.

CLASSIFY_GOLDEN = json.loads((GOLDEN / "classify.json").read_text())


@pytest.mark.parametrize("name", sorted(CLASSIFY_GOLDEN))
def test_classify_output_matches_golden(name, capsys):
    code, out, _ = run_cli(capsys, "classify", str(FIXTURES / f"{name}.json"))
    assert (code, out) == (CLASSIFY_GOLDEN[name]["exit"], CLASSIFY_GOLDEN[name]["stdout"])


SOLVE_GOLDEN = json.loads((GOLDEN / "solve.json").read_text())


@pytest.mark.parametrize("command", ["solve", "check-ibp"])
@pytest.mark.parametrize("name", FIXTURE_STEMS)
def test_solve_and_check_ibp_output_matches_golden(name, command, capsys):
    code, out, _ = run_cli(capsys, command, str(FIXTURES / f"{name}.json"))
    want = SOLVE_GOLDEN[name][command]
    assert (code, out) == (want["exit"], want["stdout"])


@pytest.mark.parametrize("name", ["chain3", "gadget", "gadget_dominated", "gadget_pre", "k4"])
def test_synthesized_witness_matches_golden(name, tmp_path, capsys):
    src = tmp_path / f"{name}.json"
    shutil.copy(FIXTURES / f"{name}.json", src)
    code, _, _ = run_cli(capsys, "synthesize", str(src))
    assert code == 0
    written = (tmp_path / f"{name}.witness.json").read_text()
    assert written == (GOLDEN / f"{name}.synthesize.json").read_text()


# -- demo -----------------------------------------------------------------------------


def test_demo_reports_both_variants(capsys):
    code, out, _ = run_cli(capsys, "demo")
    assert code == 0
    assert out.count("margin: 1") == 2
    assert "type-1 latency before: 47" in out
    assert "type-1 latency after:  48" in out
    assert "type 1 on e2-e4: 3" in out
    assert "type 2 on e1-e4: 4" in out  # the published post-extension split


def test_demo_output_is_byte_stable(capsys):
    _, out1, _ = run_cli(capsys, "demo")
    _, out2, _ = run_cli(capsys, "demo")
    assert out1 == out2


def test_exit_codes_are_a_function_of_verdicts(capsys):
    # same command, same verdict, same code; distinct verdicts, distinct codes
    code_free, _, _ = run_cli(capsys, "classify", str(FIXTURES / "triangle_two_od.json"))
    code_not, _, _ = run_cli(capsys, "classify", str(FIXTURES / "gadget.json"))
    code_occurs, _, _ = run_cli(capsys, "check-ibp", str(FIXTURES / "gadget.json"))
    code_no, _, _ = run_cli(capsys, "check-ibp", str(FIXTURES / "gadget_dominated.json"))
    assert (code_free, code_not, code_occurs, code_no) == (0, 10, 20, 0)


ERROR_FAMILY = [
    cls
    for _, cls in inspect.getmembers(errors, inspect.isclass)
    if issubclass(cls, errors.IbpcheckError)
]
ERROR_ARGS = {errors.PathCapExceeded: (10_000,), errors.DidNotConverge: (7, 0.5)}


@pytest.mark.parametrize("cls", ERROR_FAMILY, ids=lambda cls: cls.__name__)
def test_every_error_family_exits_in_its_band(cls, monkeypatch, capsys):
    exc = cls(*ERROR_ARGS.get(cls, ("boom",)))

    def fail(_args):
        raise exc

    monkeypatch.setattr(cli, "cmd_demo", fail)
    if issubclass(cls, errors.SolverError):
        code, prefix = 3, "solver error: "
    elif issubclass(cls, (errors.UnsupportedFailureSite, errors.PreconditionViolated)):
        code, prefix = 4, "unsupported: "
    else:
        code, prefix = 2, "error: "
    assert run_cli(capsys, "demo") == (code, "", f"{prefix}{exc}\n")
    if issubclass(cls, KeyError):
        assert f"{exc}" == "'boom'"  # a KeyError quotes its text


def _two_link_game(rate):
    g = MultiGraph(["s", "t"], [("a", "s", "t"), ("b", "s", "t")], [("s", "t")])
    latencies = {"a": LatencyFunction((0.0, 1.0)), "b": LatencyFunction((1.0, 1.0))}
    return RoutingGame(g, latencies, [TravelerType(rate, 0, {"a", "b"})])


def _diamonds_game(k):
    g = diamonds_in_series(k)
    latencies = {eid: LatencyFunction((1.0, 1.0)) for eid in g.edge_ids}
    return RoutingGame(g, latencies, [TravelerType(1.0, 0, g.edge_ids)])


def _search(**kwargs):
    return lambda: random_search_ibp(gadget_graph(), **{"trials": 3, "seed": 0, **kwargs})


# One case per documented argument rule of the library; the CLI checks none
# of them itself and relies on each raising an IbpcheckError (exit 2).
ARGUMENT_RULES = {
    "solve-tolerance-nan": (lambda: solve_icwe(pigou_game(), tolerance=math.nan), "tolerance"),
    "solve-tolerance-negative": (lambda: solve_icwe(pigou_game(), tolerance=-1.0), "tolerance"),
    "solve-tolerance-inf-exact": (
        lambda: solve_icwe(pigou_game(), tolerance=math.inf, backend="exact"),
        "tolerance",
    ),
    "solve-max-iterations-negative": (
        lambda: solve_icwe(pigou_game(), max_iterations=-1),
        "max_iterations",
    ),
    "solve-max-iterations-float": (
        lambda: solve_icwe(pigou_game(), max_iterations=10.0),
        "max_iterations",
    ),
    # past the path cap, so the backend must be checked before the paths are listed
    "solve-backend-unknown": (
        lambda: solve_icwe(_diamonds_game(14), backend="newton"),
        "backend",
    ),
    "solve-start-type-count": (lambda: solve_icwe(pigou_game(), start=()), "for 0 types"),
    "solve-start-path-infeasible": (
        lambda: solve_icwe(pigou_game(), start=({("a",): 1.0},)),
        "not feasible",
    ),
    "solve-start-flow-negative": (
        lambda: solve_icwe(pigou_game(), start=({("fast",): 2.0, ("flat",): -1.0},)),
        "finite and >= 0",
    ),
    "solve-start-flow-nan": (
        lambda: solve_icwe(pigou_game(), start=({("fast",): math.nan},)),
        "finite and >= 0",
    ),
    "solve-start-sum": (lambda: solve_icwe(pigou_game(), start=({("fast",): 0.5},)), "sum to"),
    "solve-start-no-used-path": (
        lambda: solve_icwe(
            _two_link_game(2.5e-9), backend="cg", start=({("a",): 1e-9, ("b",): 1e-9},)
        ),
        "use no path",
    ),
    "check-threshold-nan": (
        lambda: check_ibp(gadget_instance(), decision_threshold=math.nan),
        "decision_threshold",
    ),
    "check-threshold-negative": (
        lambda: check_ibp(gadget_instance(), decision_threshold=-1e-4),
        "decision_threshold",
    ),
    "check-tolerance-inf": (
        lambda: check_ibp(gadget_instance(), tolerance=math.inf),
        "tolerance",
    ),
    "search-trials-negative": (_search(trials=-1), "trials"),
    "search-trials-float": (_search(trials=3.0), "trials"),
    "search-threshold-inf": (_search(decision_threshold=math.inf), "decision_threshold"),
    "search-coeff-low-negative": (_search(coeff_range=(-1, 10)), "coeff_range"),
    "search-coeff-low-above-high": (_search(coeff_range=(5, 1)), "coeff_range"),
    "search-coeff-float": (_search(coeff_range=(0, 10.0)), "coeff_range"),
    "search-coeff-high-overflows": (_search(coeff_range=(0, 2**1024)), "coeff_range"),
    "search-rate-high-below-1": (_search(rate_range=(-3, 0)), "rate_range"),
    "search-rate-low-above-high": (_search(rate_range=(5, 1)), "rate_range"),
    "search-rate-float": (_search(rate_range=(1.0, 10)), "rate_range"),
    "search-rate-high-overflows": (_search(rate_range=(1, 10**400)), "rate_range"),
    "paths-same-endpoints": (
        lambda: enumerate_simple_paths(gadget_graph(), "u", "u"),
        "distinct endpoints",
    ),
    "step-kind-unknown": (lambda: EmbeddingStep("merge", "e1"), "step kind"),
    "step-contract-unnamed": (lambda: EmbeddingStep("contract", "e1"), "merged vertex"),
}


@pytest.mark.parametrize("case", ARGUMENT_RULES)
def test_every_argument_rule_raises_invalid_argument(case):
    call, match = ARGUMENT_RULES[case]
    with pytest.raises(errors.InvalidArgument, match=match) as info:
        call()
    assert isinstance(info.value, errors.IbpcheckError)
    assert isinstance(info.value, ValueError)


def test_parser_defaults_are_the_module_constants():
    parser = build_parser()
    solve = parser.parse_args(["solve", "f.json"])
    assert (solve.tol, solve.max_iters) == (DEFAULT_TOLERANCE, DEFAULT_MAX_ITERATIONS)
    check = parser.parse_args(["check-ibp", "f.json"])
    assert (check.tol, check.threshold) == (DEFAULT_TOLERANCE, DEFAULT_DECISION_THRESHOLD)
    search = parser.parse_args(["search", "f.json"])
    assert search.threshold == DEFAULT_DECISION_THRESHOLD


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "pigou.json", "--max-iters", "-5"],
        ["solve", "pigou.json", "--tol", "nan"],
        ["solve", "pigou.json", "--tol", "-1"],
        ["check-ibp", "gadget.json", "--tol", "inf"],
        ["check-ibp", "gadget.json", "--threshold", "nan"],
        ["check-ibp", "gadget.json", "--threshold=-1e-4"],
        ["search", "gadget.json", "--trials", "-1"],
        ["search", "gadget.json", "--threshold", "nan"],
        ["search", "gadget.json", "--rate-lo", "5", "--rate-hi", "1"],
        ["search", "gadget.json", "--rate-hi", "0"],
        ["search", "gadget.json", "--coeff-lo", "5", "--coeff-hi", "1"],
        ["search", "gadget.json", "--coeff-lo", "-1"],
    ],
)
def test_out_of_range_numbers_exit_2_without_a_traceback(argv, capsys):
    # the flags parse as plain numbers; the library rejects them, nothing is solved
    command, name, *flags = argv
    code, out, err = run_cli(capsys, command, str(FIXTURES / name), *flags)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("flag", ["--coeff-hi", "--rate-hi"])
def test_search_bounds_that_overflow_a_float_exit_2_before_the_first_trial(
    flag, monkeypatch, capsys
):
    import ibpcheck.paradox as paradox

    def trial(*args, **kwargs):
        raise AssertionError("ran a trial with a bound past the float range")

    monkeypatch.setattr(paradox, "enumerate_simple_paths", trial)
    monkeypatch.setattr(paradox, "check_ibp", trial)
    argv = ("search", str(FIXTURES / "pigou.json"), "--trials", "2", flag, "1" + "0" * 400)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    name = {"--coeff-hi": "coeff_range", "--rate-hi": "rate_range"}[flag]
    assert err == f"error: {name} needs a high bound that fits a float\n"


def test_a_search_whose_costs_overflow_exits_3_without_a_traceback(capsys):
    argv = ("search", str(FIXTURES / "gadget.json"), "--trials", "3", "--coeff-hi", "1" + "0" * 308)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (3, "")
    assert err == "solver error: no equilibrium after 1 iterations (wardrop violation inf)\n"


EXTREMES = (10**400, 10**309, 2**1023, 1e308, 1.7e308, 1e300, 1e-300, 5e-324, 1e-12, 1e12, 0)
DOCUMENTED_EXITS = {0, 2, 3, 4, 10, 20, 21}


def test_extreme_rates_and_coefficients_exit_with_a_documented_code(tmp_path, capsys):
    """Seeded boundary fuzz: one or two rates or latency coefficients of a
    fixture set to an extreme, then one command.  Every run ends in a
    documented exit code and never in a traceback.  `solve` gets 500 sweeps,
    so a game whose costs overflow fails in milliseconds."""
    rng = random.Random(2020)
    stems = ("gadget", "gadget_dominated", "pigou", "triangle_two_od", "chain3")
    exits = []
    for run in range(80):
        data = json.loads((FIXTURES / f"{rng.choice(stems)}.json").read_text())
        for _ in range(rng.randint(1, 2)):
            value = rng.choice(EXTREMES)
            if rng.random() < 0.5:
                rng.choice(data["types"])["rate"] = value
            else:
                latency = rng.choice(data["edges"])["latency"]
                latency[rng.randrange(len(latency))] = value
        path = tmp_path / f"run{run}.json"
        path.write_text(json.dumps(data))
        command = rng.choice(("classify", "solve", "check-ibp", "synthesize"))
        flags = ("--max-iters", "500") if command == "solve" else ()
        code, _, err = run_cli(capsys, command, str(path), *flags)
        assert code in DOCUMENTED_EXITS and "Traceback" not in err, (run, code, err)
        exits.append(code)
    assert {0, 2, 10} <= set(exits)


# -- one parser per process ---------------------------------------------------------
# `main` builds its parser once and reuses it; a call must not see what an
# earlier call parsed, and must run the subcommand bound on the module now.


@pytest.fixture
def fresh_parser(monkeypatch):
    """Make the next `main` call the first one of the process."""
    monkeypatch.setattr(cli, "_parser", None)


def test_plain_solve_after_solve_json_prints_text(fresh_parser, capsys):
    path = str(FIXTURES / "gadget_pre.json")
    first = run_cli(capsys, "solve", path)
    assert first[1].startswith("backend: ")
    run_cli(capsys, "solve", path, "--json")
    assert run_cli(capsys, "solve", path) == first


def test_plain_search_after_a_seeded_one_uses_seed_0(fresh_parser, capsys):
    path = str(FIXTURES / "pigou.json")
    first = run_cli(capsys, "search", path)
    assert first[1].startswith("seed: 0\ntrials run: 1000\n")
    flags = ("--seed", "3", "--trials", "7", "--coeff-hi", "4", "--threshold", "2")
    assert run_cli(capsys, "search", path, *flags)[1].startswith("seed: 3\ntrials run: 7\n")
    assert run_cli(capsys, "search", path) == first


def test_a_rejected_call_leaves_the_next_one_as_a_first_call(fresh_parser, capsys):
    # the flag error comes after --threshold 2.0 was parsed (that would make
    # the verdict inconclusive, exit 21, if it leaked into the next call)
    path = str(FIXTURES / "gadget.json")
    first = run_cli(capsys, "check-ibp", path)
    assert first[0] == 20
    with pytest.raises(SystemExit) as info:
        main(["check-ibp", path, "--threshold", "2.0", "--no-such-flag"])
    assert info.value.code == 2
    capsys.readouterr()
    assert run_cli(capsys, "check-ibp", path) == first


def test_a_subcommand_replaced_after_the_first_call_runs(fresh_parser, monkeypatch, capsys):
    path = str(FIXTURES / "gadget.json")
    assert run_cli(capsys, "classify", path)[0] == 10
    seen = []
    monkeypatch.setattr(cli, "cmd_classify", lambda args: seen.append(args.file) or 42)
    assert run_cli(capsys, "classify", path) == (42, "", "")
    assert seen == [path]


def test_three_calls_build_the_parser_once(fresh_parser, monkeypatch, capsys):
    builds = []

    def counting_build():
        builds.append(None)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counting_build)
    run_cli(capsys, "demo")
    run_cli(capsys, "classify", str(FIXTURES / "k4.json"))
    run_cli(capsys, "solve", str(FIXTURES / "pigou.json"))
    assert len(builds) == 1


def test_python_dash_m_prints_what_main_prints(capsys):
    # the one-shot path, whose parser is always new, against the reused one
    paths = [str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    done = subprocess.run(
        [sys.executable, "-m", "ibpcheck", "demo"], capture_output=True, env=env, timeout=120
    )
    code, out, _ = run_cli(capsys, "demo")
    assert done.returncode == code == 0
    assert done.stdout == out.encode()


def test_every_flag_has_help():
    parser = build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert sorted(commands.choices) == [
        "check-ibp",
        "classify",
        "demo",
        "search",
        "solve",
        "synthesize",
    ]
    missing = [
        f"{name} {action.option_strings}"
        for name, p in [("ibpcheck", parser), *commands.choices.items()]
        for action in p._actions
        if action.option_strings and not action.help
    ]
    assert missing == []
