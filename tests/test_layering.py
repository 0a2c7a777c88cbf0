"""Modules talk to each other through public names only."""

import ast
from pathlib import Path

import ibpcheck

PACKAGE = Path(ibpcheck.__file__).parent


def test_no_private_names_imported_across_modules():
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.ImportFrom):
                continue
            internal = node.level > 0 or (node.module or "").split(".")[0] == "ibpcheck"
            if internal:
                offenders += [
                    f"{path.name}: {node.module}.{alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    assert offenders == []


# The package's public names: a new export is a visible edit here.
PUBLIC_NAMES = [
    "BlockDecomposition",
    "EmbeddingStep",
    "EquilibriumResult",
    "GadgetVariant",
    "IBPInstance",
    "IBPVerdict",
    "InformationExtension",
    "LatencyFunction",
    "MultiGraph",
    "RoutingGame",
    "TopologyReport",
    "TravelerType",
    "check_ibp",
    "common_blocks",
    "cycle_diagnostics",
    "decide_ibp_free",
    "decompose_blocks",
    "enumerate_simple_paths",
    "extended_game",
    "feasible_paths",
    "find_gadget_embedding",
    "gadget_graph",
    "gadget_instance",
    "instance_to_dict",
    "is_cycle",
    "lift_instance",
    "load_instance",
    "parse_instance",
    "random_search_ibp",
    "save_instance",
    "solve_icwe",
    "synthesize_ibp_witness",
    "validate",
    "verify_wardrop",
]


def test_all_lists_exactly_the_names_init_imports():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imported = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
    ]
    assert sorted(imported) == sorted(ibpcheck.__all__) == PUBLIC_NAMES


# Every defaulted parameter of a public function: a new knob is a visible edit here.
PUBLIC_DEFAULTED_KEYWORDS = [
    ("cli.main", "argv"),
    ("core_graph.enumerate_simple_paths", "allowed_edges"),
    ("equilibrium.verify_wardrop", "epsilon"),
    ("equilibrium.solve_icwe", "tolerance"),
    ("equilibrium.solve_icwe", "max_iterations"),
    ("equilibrium.solve_icwe", "backend"),
    ("equilibrium.solve_icwe", "start"),
    ("instance_io.instance_to_dict", "extension"),
    ("instance_io.save_instance", "extension"),
    ("paradox.check_ibp", "tolerance"),
    ("paradox.check_ibp", "decision_threshold"),
    ("paradox.check_ibp", "backend"),
    ("paradox.gadget_graph", "variant"),
    ("paradox.gadget_instance", "variant"),
    ("paradox.random_search_ibp", "rate_range"),
    ("paradox.random_search_ibp", "coeff_range"),
    ("paradox.random_search_ibp", "decision_threshold"),
    ("paradox.random_search_ibp", "backend"),
    ("paradox.random_search_ibp", "stop_at_first"),
]


def test_public_defaulted_keywords_are_pinned():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            defaulted = positional[len(positional) - len(args.defaults):]
            defaulted += [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            found += [(f"{path.stem}.{node.name}", a.arg) for a in defaulted]
    assert found == PUBLIC_DEFAULTED_KEYWORDS
    assert len(found) == 19
