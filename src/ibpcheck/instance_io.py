"""Instance files: a strict JSON schema for games and extensions.

Schema version 1.  Latency functions are serialized as coefficient arrays,
constant term first.  Unknown fields are rejected everywhere so that typos
fail loudly instead of silently changing the game.
"""

from __future__ import annotations

import json
import math
from pathlib import Path as FilePath
from typing import Optional

from .core_graph import MultiGraph
from .equilibrium import LatencyFunction, RoutingGame, TravelerType
from .errors import InstanceFileError, InvalidNetwork
from .paradox import IBPInstance, InformationExtension

SCHEMA_VERSION = 1

_TOP_FIELDS = {"schema_version", "vertices", "edges", "od_pairs", "types", "extension"}
_EDGE_FIELDS = {"id", "endpoints", "latency"}
_OD_FIELDS = {"origin", "destination"}
_TYPE_FIELDS = {"rate", "od_index", "info_set"}
_EXTENSION_FIELDS = {"added_edges"}


def _require(cond: bool, where: str, message: str) -> None:
    if not cond:
        raise InstanceFileError(f"{where}: {message}")


def _check_fields(obj: dict, allowed: set, where: str) -> None:
    _require(isinstance(obj, dict), where, "expected an object")
    unknown = set(obj) - allowed
    _require(not unknown, where, f"unknown fields {sorted(unknown)}")


def _is_number(x) -> bool:
    """A JSON number that is finite as a float; an integer past the float
    range is not."""
    if not isinstance(x, (int, float)) or isinstance(x, bool):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


def parse_instance(data: dict) -> tuple[RoutingGame, Optional[InformationExtension]]:
    _check_fields(data, _TOP_FIELDS, "top level")
    version = data.get("schema_version")
    _require(  # the schema's "const": 1 takes 1.0 but not true
        _is_number(version) and version == SCHEMA_VERSION,
        "schema_version",
        f"expected {SCHEMA_VERSION}, got {version!r}",
    )
    for field in ("vertices", "edges", "od_pairs", "types"):
        _require(field in data, "top level", f"missing field {field!r}")
        _require(isinstance(data[field], list), field, "expected a list")

    vertices = data["vertices"]
    _require(
        all(isinstance(v, str) for v in vertices), "vertices", "entries must be strings"
    )

    edges = []
    latencies = {}
    for k, edge in enumerate(data["edges"]):
        where = f"edges[{k}]"
        _check_fields(edge, _EDGE_FIELDS, where)
        for field in _EDGE_FIELDS:
            _require(field in edge, where, f"missing field {field!r}")
        _require(isinstance(edge["id"], str), where, "id must be a string")
        ends = edge["endpoints"]
        _require(
            isinstance(ends, list)
            and len(ends) == 2
            and all(isinstance(v, str) for v in ends),
            where,
            "endpoints must be two vertex names",
        )
        coeffs = edge["latency"]
        _require(
            isinstance(coeffs, list)
            and coeffs
            and all(_is_number(c) for c in coeffs),
            where,
            "latency must be a nonempty array of finite coefficients (constant first)",
        )
        edges.append((edge["id"], ends[0], ends[1]))
        try:
            latencies[edge["id"]] = LatencyFunction(coeffs)
        except InvalidNetwork as exc:
            raise InstanceFileError(f"{where}: {exc}") from None

    od_pairs = []
    for k, pair in enumerate(data["od_pairs"]):
        where = f"od_pairs[{k}]"
        _check_fields(pair, _OD_FIELDS, where)
        for field in _OD_FIELDS:
            _require(field in pair, where, f"missing field {field!r}")
            _require(isinstance(pair[field], str), where, f"{field} must be a string")
        od_pairs.append((pair["origin"], pair["destination"]))

    try:
        graph = MultiGraph(vertices, edges, od_pairs)
    except InvalidNetwork as exc:
        raise InstanceFileError(f"network: {exc}") from None

    types = []
    for k, typ in enumerate(data["types"]):
        where = f"types[{k}]"
        _check_fields(typ, _TYPE_FIELDS, where)
        for field in _TYPE_FIELDS:
            _require(field in typ, where, f"missing field {field!r}")
        _require(_is_number(typ["rate"]), where, "rate must be a finite number")
        _require(
            isinstance(typ["od_index"], int)
            and not isinstance(typ["od_index"], bool)
            and 0 <= typ["od_index"] < len(od_pairs),
            where,
            f"od_index must be an integer in [0, {len(od_pairs)})",
        )
        info = typ["info_set"]
        _require(
            isinstance(info, list) and all(isinstance(e, str) for e in info),
            where,
            "info_set must be a list of edge ids",
        )
        try:
            types.append(TravelerType(typ["rate"], typ["od_index"], info))
        except InvalidNetwork as exc:
            raise InstanceFileError(f"{where}: {exc}") from None

    try:
        game = RoutingGame(graph, latencies, types)
    except InvalidNetwork as exc:
        raise InstanceFileError(f"game: {exc}") from None

    extension = None
    if "extension" in data:
        where = "extension"
        _check_fields(data["extension"], _EXTENSION_FIELDS, where)
        added = data["extension"].get("added_edges")
        _require(
            isinstance(added, list) and all(isinstance(e, str) for e in added),
            where,
            "added_edges must be a list of edge ids",
        )
        try:
            extension = InformationExtension(added)
            IBPInstance(game, extension)  # full cross-validation
        except InvalidNetwork as exc:
            raise InstanceFileError(f"{where}: {exc}") from None
    return game, extension


def load_instance(path) -> tuple[RoutingGame, Optional[InformationExtension]]:
    try:
        text = FilePath(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InstanceFileError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise InstanceFileError(f"{path}: not UTF-8 text at byte {exc.start}") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceFileError(f"{path}: invalid JSON at line {exc.lineno}") from None
    except ValueError:  # an integer literal past the interpreter's digit limit
        raise InstanceFileError(f"{path}: a number has too many digits") from None
    except RecursionError:
        raise InstanceFileError(f"{path}: JSON nested too deeply") from None
    return parse_instance(data)


def instance_to_dict(
    game: RoutingGame, extension: Optional[InformationExtension] = None
) -> dict:
    data = {
        "schema_version": SCHEMA_VERSION,
        "vertices": list(game.graph.vertices),
        "edges": [
            {
                "id": eid,
                "endpoints": [u, v],
                "latency": list(game.latencies[eid].coefficients),
            }
            for eid, u, v in game.graph.edges
        ],
        "od_pairs": [
            {"origin": o, "destination": d} for o, d in game.graph.od_pairs
        ],
        "types": [
            {
                "rate": t.rate,
                "od_index": t.od_index,
                "info_set": sorted(t.info_set),
            }
            for t in game.types
        ],
    }
    if extension is not None:
        data["extension"] = {"added_edges": sorted(extension.added_edges)}
    return data


def save_instance(
    path, game: RoutingGame, extension: Optional[InformationExtension] = None
) -> None:
    payload = json.dumps(instance_to_dict(game, extension), indent=2) + "\n"
    FilePath(path).write_text(payload, encoding="utf-8")
