"""Informational Braess' paradox toolkit.

Decide whether a multi-OD traffic network is immune to the informational
Braess' paradox, compute information-constrained Wardrop equilibria, and
construct or search for concrete paradox witnesses.
"""

from .core_graph import (
    BlockDecomposition,
    EmbeddingStep,
    MultiGraph,
    decompose_blocks,
    enumerate_simple_paths,
    is_cycle,
    validate,
)
from .equilibrium import (
    EquilibriumResult,
    LatencyFunction,
    RoutingGame,
    TravelerType,
    feasible_paths,
    solve_icwe,
    verify_wardrop,
)
from .instance_io import instance_to_dict, load_instance, parse_instance, save_instance
from .paradox import (
    GadgetVariant,
    IBPInstance,
    IBPVerdict,
    InformationExtension,
    check_ibp,
    cycle_diagnostics,
    extended_game,
    find_gadget_embedding,
    gadget_graph,
    gadget_instance,
    lift_instance,
    random_search_ibp,
    synthesize_ibp_witness,
)
from .topology import (
    TopologyReport,
    common_blocks,
    decide_ibp_free,
)

__version__ = "0.1.0"

__all__ = [
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
