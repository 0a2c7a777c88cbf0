import json
import shutil
from pathlib import Path

import pytest

from ibpcheck.cli import build_parser, main
from ibpcheck.equilibrium import DEFAULT_MAX_ITERATIONS, DEFAULT_TOLERANCE
from ibpcheck.instance_io import (
    instance_to_dict,
    load_instance,
    parse_instance,
    save_instance,
)
from ibpcheck.errors import InstanceFileError
from ibpcheck.paradox import DEFAULT_DECISION_THRESHOLD

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


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


def test_negative_latency_coefficient_rejected():
    data = json.loads((FIXTURES / "gadget.json").read_text())
    data["edges"][0]["latency"] = [-1.0]
    with pytest.raises(InstanceFileError):
        parse_instance(data)


def test_fixtures_match_the_published_schema():
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads(
        (FIXTURES.parent / "docs" / "instance.schema.json").read_text()
    )
    for path in sorted(FIXTURES.glob("*.json")):
        if path.name == "malformed.json":
            continue
        jsonschema.validate(json.loads(path.read_text()), schema)


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
    assert code == 0
    assert "witness found" in out
    assert (tmp_path / "gadget.search-witness.json").exists()


def test_search_output_is_deterministic(capsys):
    args = ("search", str(FIXTURES / "cycle4_two_od.json"), "--trials", "25", "--seed", "9")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


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


def test_parser_defaults_are_the_module_constants():
    parser = build_parser()
    solve = parser.parse_args(["solve", "f.json"])
    assert (solve.tol, solve.max_iters) == (DEFAULT_TOLERANCE, DEFAULT_MAX_ITERATIONS)
    check = parser.parse_args(["check-ibp", "f.json"])
    assert (check.tol, check.threshold) == (DEFAULT_TOLERANCE, DEFAULT_DECISION_THRESHOLD)
    search = parser.parse_args(["search", "f.json"])
    assert search.threshold == DEFAULT_DECISION_THRESHOLD
