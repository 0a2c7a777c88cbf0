"""Instance files: a strict JSON schema for games and extensions.

Schema version 1.  Latency functions are serialized as coefficient arrays,
constant term first.  Unknown fields are rejected everywhere so that typos
fail loudly instead of silently changing the game.  A malformed file's
error names its first fault, with required fields taken in the order
`docs/instance.schema.json` lists them; an `extension` needs `added_edges`.
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

# Each object's required fields, in schema order (the top level may add "extension").
_TOP_FIELDS = ("schema_version", "vertices", "edges", "od_pairs", "types")
_EDGE_FIELDS = ("id", "endpoints", "latency")
_OD_FIELDS = ("origin", "destination")
_TYPE_FIELDS = ("rate", "od_index", "info_set")
_EXTENSION_FIELDS = ("added_edges",)


def _require(cond: bool, where: str, message: str) -> None:
    if not cond:
        raise InstanceFileError(f"{where}: {message}")


def _fields(obj, where: str, names: tuple, optional: tuple = ()) -> list:
    """`obj`'s values of `names`, after checking in this order that it is an
    object, has no field outside `names` and `optional`, and has all `names`."""
    _require(isinstance(obj, dict), where, "expected an object")
    for name in obj:  # a plain loop: the common case makes no comprehension frame
        if name not in names and name not in optional:
            unknown = sorted(n for n in obj if n not in names and n not in optional)
            raise InstanceFileError(f"{where}: unknown fields {unknown}")
    try:
        return [obj[name] for name in names]
    except KeyError as exc:  # the first one missing, in `names` order
        raise InstanceFileError(f"{where}: missing field {exc.args[0]!r}") from None


def _build(where: str, make, *args):
    """`make(*args)`, with its InvalidNetwork reported as a fault at `where`."""
    try:
        return make(*args)
    except InvalidNetwork as exc:
        raise InstanceFileError(f"{where}: {exc}") from None


def _is_number(x) -> bool:
    """A JSON number that is finite as a float; an integer past the float
    range is not."""
    if not isinstance(x, (int, float)) or isinstance(x, bool):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


def _is_strings(x) -> bool:
    return isinstance(x, list) and all(isinstance(e, str) for e in x)


def parse_instance(data: dict) -> tuple[RoutingGame, Optional[InformationExtension]]:
    _fields(data, "top level", (), (*_TOP_FIELDS, "extension"))  # an object, no unknown field
    version = data.get("schema_version")  # before the missing fields: a missing one is None
    _require(  # the schema's "const": 1 takes 1.0 but not true
        _is_number(version) and version == SCHEMA_VERSION,
        "schema_version",
        f"expected {SCHEMA_VERSION}, got {version!r}",
    )
    _, *lists = _fields(data, "top level", _TOP_FIELDS, ("extension",))
    for field, value in zip(_TOP_FIELDS[1:], lists):
        _require(isinstance(value, list), field, "expected a list")
    vertices, edge_data, pair_data, type_data = lists
    _require(_is_strings(vertices), "vertices", "entries must be strings")

    edges = []
    latencies = {}
    for k, edge in enumerate(edge_data):
        where = f"edges[{k}]"
        eid, ends, coeffs = _fields(edge, where, _EDGE_FIELDS)
        _require(isinstance(eid, str), where, "id must be a string")
        _require(_is_strings(ends) and len(ends) == 2, where, "endpoints must be two vertex names")
        _require(
            isinstance(coeffs, list) and coeffs and all(_is_number(c) for c in coeffs),
            where,
            "latency must be a nonempty array of finite coefficients (constant first)",
        )
        edges.append((eid, *ends))
        latencies[eid] = _build(where, LatencyFunction, coeffs)

    od_pairs = []
    for k, pair in enumerate(pair_data):
        where = f"od_pairs[{k}]"
        ends = _fields(pair, where, _OD_FIELDS)
        for field, end in zip(_OD_FIELDS, ends):
            _require(isinstance(end, str), where, f"{field} must be a string")
        od_pairs.append(tuple(ends))

    graph = _build("network", MultiGraph, vertices, edges, od_pairs)

    types = []
    for k, typ in enumerate(type_data):
        where = f"types[{k}]"
        rate, od_index, info = _fields(typ, where, _TYPE_FIELDS)
        _require(_is_number(rate), where, "rate must be a finite number")
        _require(
            isinstance(od_index, int)
            and not isinstance(od_index, bool)
            and 0 <= od_index < len(od_pairs),
            where,
            f"od_index must be an integer in [0, {len(od_pairs)})",
        )
        _require(_is_strings(info), where, "info_set must be a list of edge ids")
        types.append(_build(where, TravelerType, rate, od_index, info))

    game = _build("game", RoutingGame, graph, latencies, types)

    extension = None
    if "extension" in data:
        (added,) = _fields(data["extension"], "extension", _EXTENSION_FIELDS)
        _require(_is_strings(added), "extension", "added_edges must be a list of edge ids")
        extension = _build("extension", InformationExtension, added)
        _build("extension", IBPInstance, game, extension)  # full cross-validation
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
