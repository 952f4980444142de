"""JSON file formats for instances and solutions.

One UTF-8 JSON document per file.  Every document carries `"kind"` and
`"version": 1`; unknown fields are rejected so that typos fail loudly.
Rational values are written as integers or `"p/q"` strings and parsed
exactly.  Serialization is canonical (sorted keys, fixed separators), so
equal values produce byte-identical files.

Instance kinds: `shm` (hypergraph matching), `cacq` (college admission with
common quotas), `smf` (multicommodity flow, optionally carrying a fractional
flow).  Solution kinds: `shm-solution`, `cacq-solution`, `smf-solution`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError
from .model import (
    Arc,
    CacqEdge,
    CacqInstance,
    CollegeSet,
    Commodity,
    FlowInstance,
    HyperEdge,
    HypergraphInstance,
)
from .orders import WeakOrder
from .polytope import _is_int

FORMAT_VERSION = 1


def parse_rational(value) -> Fraction:
    if isinstance(value, bool):
        raise InputError(f"expected a rational, got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"bad rational literal {value!r}") from exc
    raise InputError(f"expected a rational, got {value!r}")


def rational_to_json(value: Fraction):
    value = Fraction(value)
    if value.denominator == 1:
        return int(value)
    return f"{value.numerator}/{value.denominator}"


def canonical_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _expect_keys(doc: dict, required: set[str], optional: set[str] = frozenset()):
    if not isinstance(doc, dict):
        raise InputError("document must be a JSON object")
    keys = set(doc)
    unknown = keys - required - set(optional)
    if unknown:
        raise InputError(f"unknown fields: {sorted(unknown)}")
    missing = required - keys
    if missing:
        raise InputError(f"missing fields: {sorted(missing)}")


def _string(value, what: str) -> str:
    if not isinstance(value, str):
        raise InputError(f"{what} must be a string, got {value!r}")
    return value


def _string_list(value, what: str) -> list[str]:
    if not isinstance(value, list):
        raise InputError(f"{what} must be an array")
    return [_string(v, what) for v in value]


def _nonneg_int(value, what: str) -> int:
    if not _is_int(value) or value < 0:
        raise InputError(f"{what} must be a nonnegative integer, got {value!r}")
    return value


def _weak_order(value, what: str, alt_parser=None) -> WeakOrder:
    if not isinstance(value, list):
        raise InputError(f"{what} must be an array of tie-group arrays")
    groups = []
    for group in value:
        if not isinstance(group, list):
            raise InputError(f"{what} must be an array of tie-group arrays")
        if alt_parser is None:
            groups.append(tuple(_string(a, what) for a in group))
        else:
            groups.append(tuple(alt_parser(a) for a in group))
    try:
        return WeakOrder(tuple(groups))
    except InputError as exc:
        raise InputError(f"{what}: {exc}") from exc


def _weak_order_json(order: WeakOrder) -> list:
    return [list(group) for group in order.tie_groups]


def _capacity_map(value, what: str) -> dict[str, int]:
    if not isinstance(value, dict):
        raise InputError(f"{what} must be an object")
    return {_string(k, what): _nonneg_int(v, f"{what}[{k}]") for k, v in value.items()}


def _commodity_index(value) -> int:
    if not _is_int(value) or value < 1:
        raise InputError(f"commodity index must be a positive integer, got {value!r}")
    return value


# ---------------------------------------------------------------------------
# instances
# ---------------------------------------------------------------------------


def parse_shm(doc: dict) -> HypergraphInstance:
    _expect_keys(doc, {"kind", "version", "vertices", "edges", "capacities", "preferences"})
    if doc["kind"] != "shm" or doc["version"] != FORMAT_VERSION:
        raise InputError("expected kind 'shm' version 1")
    edges = []
    if not isinstance(doc["edges"], list):
        raise InputError("edges must be an array")
    for e in doc["edges"]:
        _expect_keys(e, {"id", "vertices"})
        edges.append(HyperEdge(_string(e["id"], "edge id"), tuple(_string_list(e["vertices"], "edge vertices"))))
    prefs = doc["preferences"]
    if not isinstance(prefs, dict):
        raise InputError("preferences must be an object")
    return HypergraphInstance(
        vertices=tuple(_string_list(doc["vertices"], "vertices")),
        edges=tuple(edges),
        capacities=_capacity_map(doc["capacities"], "capacities"),
        preferences={_string(v, "vertex"): _weak_order(o, f"preferences[{v}]") for v, o in prefs.items()},
    )


def shm_to_doc(inst: HypergraphInstance) -> dict:
    return {
        "kind": "shm",
        "version": FORMAT_VERSION,
        "vertices": list(inst.vertices),
        "edges": [{"id": e.id, "vertices": list(e.vertices)} for e in inst.edges],
        "capacities": dict(inst.capacities),
        "preferences": {v: _weak_order_json(o) for v, o in inst.preferences.items()},
    }


def parse_cacq(doc: dict) -> CacqInstance:
    _expect_keys(
        doc,
        {
            "kind",
            "version",
            "students",
            "colleges",
            "edges",
            "college_quotas",
            "college_preferences",
            "college_sets",
            "student_preferences",
        },
    )
    if doc["kind"] != "cacq" or doc["version"] != FORMAT_VERSION:
        raise InputError("expected kind 'cacq' version 1")
    edges = []
    if not isinstance(doc["edges"], list):
        raise InputError("edges must be an array")
    for e in doc["edges"]:
        _expect_keys(e, {"id", "student", "college"})
        edges.append(
            CacqEdge(
                _string(e["id"], "edge id"),
                _string(e["student"], "edge student"),
                _string(e["college"], "edge college"),
            )
        )
    sets = []
    if not isinstance(doc["college_sets"], list):
        raise InputError("college_sets must be an array")
    for cs in doc["college_sets"]:
        _expect_keys(cs, {"id", "colleges", "quota", "master_list"})
        sets.append(
            CollegeSet(
                id=_string(cs["id"], "set id"),
                colleges=tuple(_string_list(cs["colleges"], "set colleges")),
                quota=_nonneg_int(cs["quota"], "set quota"),
                master=_weak_order(cs["master_list"], f"master_list[{cs['id']}]"),
            )
        )
    cprefs = doc["college_preferences"]
    sprefs = doc["student_preferences"]
    if not isinstance(cprefs, dict) or not isinstance(sprefs, dict):
        raise InputError("preference maps must be objects")
    return CacqInstance(
        students=tuple(_string_list(doc["students"], "students")),
        colleges=tuple(_string_list(doc["colleges"], "colleges")),
        edges=tuple(edges),
        college_quotas=_capacity_map(doc["college_quotas"], "college_quotas"),
        college_prefs={_string(c, "college"): _weak_order(o, f"college_preferences[{c}]") for c, o in cprefs.items()},
        sets=tuple(sets),
        student_prefs={_string(s, "student"): _weak_order(o, f"student_preferences[{s}]") for s, o in sprefs.items()},
    )


def cacq_to_doc(inst: CacqInstance) -> dict:
    return {
        "kind": "cacq",
        "version": FORMAT_VERSION,
        "students": list(inst.students),
        "colleges": list(inst.colleges),
        "edges": [{"id": e.id, "student": e.student, "college": e.college} for e in inst.edges],
        "college_quotas": dict(inst.college_quotas),
        "college_preferences": {c: _weak_order_json(o) for c, o in inst.college_prefs.items()},
        "college_sets": [
            {"id": cs.id, "colleges": list(cs.colleges), "quota": cs.quota, "master_list": _weak_order_json(cs.master)}
            for cs in inst.sets
        ],
        "student_preferences": {s: _weak_order_json(o) for s, o in inst.student_prefs.items()},
    }


@dataclass(frozen=True)
class SmfDocument:
    instance: FlowInstance
    flow: dict | None


def _parse_flow_values(flow_doc, arcs, k) -> dict:
    if not isinstance(flow_doc, list) or len(flow_doc) != k:
        raise InputError(f"flow must be an array of {k} per-commodity objects")
    arc_ids = {a.id for a in arcs}
    flow = {}
    for j, per in enumerate(flow_doc, start=1):
        if not isinstance(per, dict):
            raise InputError("per-commodity flow must be an object")
        for aid, value in per.items():
            if aid not in arc_ids:
                raise InputError(f"flow references unknown arc {aid!r}")
            flow[(aid, j)] = parse_rational(value)
        for aid in arc_ids:
            flow.setdefault((aid, j), Fraction(0))
    return flow


def _flow_json(inst: FlowInstance, flow: dict) -> list:
    return [
        {a.id: rational_to_json(flow[(a.id, j)]) for a in inst.arcs if flow.get((a.id, j), 0) != 0}
        for j in range(1, inst.num_commodities + 1)
    ]


def _parse_commodity_capacities(ccaps_doc, k) -> dict:
    if not isinstance(ccaps_doc, list) or len(ccaps_doc) != k:
        raise InputError(f"commodity_capacities must be an array of {k} objects")
    return {
        (aid, j): q
        for j, per in enumerate(ccaps_doc, start=1)
        for aid, q in _capacity_map(per, f"commodity_capacities[{j}]").items()
    }


def parse_smf(doc: dict) -> SmfDocument:
    _expect_keys(
        doc,
        {
            "kind",
            "version",
            "vertices",
            "arcs",
            "commodities",
            "capacity",
            "commodity_capacities",
            "vertex_preferences",
            "arc_preferences",
        },
        optional={"flow"},
    )
    if doc["kind"] != "smf" or doc["version"] != FORMAT_VERSION:
        raise InputError("expected kind 'smf' version 1")
    arcs = []
    if not isinstance(doc["arcs"], list):
        raise InputError("arcs must be an array")
    for a in doc["arcs"]:
        _expect_keys(a, {"id", "tail", "head"})
        arcs.append(Arc(_string(a["id"], "arc id"), _string(a["tail"], "arc tail"), _string(a["head"], "arc head")))
    commodities = []
    if not isinstance(doc["commodities"], list):
        raise InputError("commodities must be an array")
    for c in doc["commodities"]:
        _expect_keys(c, {"source", "sink"})
        commodities.append(Commodity(_string(c["source"], "source"), _string(c["sink"], "sink")))
    k = len(commodities)
    commodity_capacity = _parse_commodity_capacities(doc["commodity_capacities"], k)
    vprefs_doc = doc["vertex_preferences"]
    if not isinstance(vprefs_doc, list) or len(vprefs_doc) != k:
        raise InputError(f"vertex_preferences must be an array of {k} objects")
    vertex_prefs = {}
    for j, per in enumerate(vprefs_doc, start=1):
        if not isinstance(per, dict):
            raise InputError("per-commodity vertex preferences must be an object")
        for v, order in per.items():
            vertex_prefs[(_string(v, "vertex"), j)] = _weak_order(order, f"vertex_preferences[{j}][{v}]")
    aprefs_doc = doc["arc_preferences"]
    if not isinstance(aprefs_doc, dict):
        raise InputError("arc_preferences must be an object")
    arc_prefs = {
        _string(a, "arc"): _weak_order(o, f"arc_preferences[{a}]", alt_parser=_commodity_index)
        for a, o in aprefs_doc.items()
    }
    inst = FlowInstance(
        vertices=tuple(_string_list(doc["vertices"], "vertices")),
        arcs=tuple(arcs),
        commodities=tuple(commodities),
        capacity=_capacity_map(doc["capacity"], "capacity"),
        commodity_capacity=commodity_capacity,
        vertex_prefs=vertex_prefs,
        arc_prefs=arc_prefs,
    )
    flow = _parse_flow_values(doc["flow"], arcs, k) if "flow" in doc else None
    return SmfDocument(instance=inst, flow=flow)


def smf_to_doc(inst: FlowInstance, flow: dict | None = None) -> dict:
    k = inst.num_commodities
    doc = {
        "kind": "smf",
        "version": FORMAT_VERSION,
        "vertices": list(inst.vertices),
        "arcs": [{"id": a.id, "tail": a.tail, "head": a.head} for a in inst.arcs],
        "commodities": [{"source": c.source, "sink": c.sink} for c in inst.commodities],
        "capacity": dict(inst.capacity),
        "commodity_capacities": [
            {a.id: inst.commodity_capacity[(a.id, j)] for a in inst.arcs} for j in range(1, k + 1)
        ],
        "vertex_preferences": [
            {v: _weak_order_json(inst.vertex_prefs[(v, j)]) for v in inst.vertices if (v, j) in inst.vertex_prefs}
            for j in range(1, k + 1)
        ],
        "arc_preferences": {a.id: _weak_order_json(inst.arc_prefs[a.id]) for a in inst.arcs},
    }
    if flow is not None:
        doc["flow"] = _flow_json(inst, flow)
    return doc


# ---------------------------------------------------------------------------
# solutions
# ---------------------------------------------------------------------------


def parse_shm_solution(doc: dict) -> tuple[dict[str, int], list[str]]:
    """Returns (revised capacities, matched edge ids)."""
    _expect_keys(doc, {"kind", "version", "capacities", "matching"})
    if doc["kind"] != "shm-solution" or doc["version"] != FORMAT_VERSION:
        raise InputError("expected kind 'shm-solution' version 1")
    return _capacity_map(doc["capacities"], "capacities"), _string_list(doc["matching"], "matching")


def shm_solution_to_doc(capacities: dict[str, int], matched: list[str]) -> dict:
    return {
        "kind": "shm-solution",
        "version": FORMAT_VERSION,
        "capacities": dict(capacities),
        "matching": sorted(matched),
    }


def parse_cacq_solution(doc: dict) -> tuple[dict[str, int], list[str]]:
    """Returns (revised set quotas, matched edge ids)."""
    _expect_keys(doc, {"kind", "version", "quotas", "matching"})
    if doc["kind"] != "cacq-solution" or doc["version"] != FORMAT_VERSION:
        raise InputError("expected kind 'cacq-solution' version 1")
    return _capacity_map(doc["quotas"], "quotas"), _string_list(doc["matching"], "matching")


def cacq_solution_to_doc(quotas: dict[str, int], matched: list[str]) -> dict:
    return {
        "kind": "cacq-solution",
        "version": FORMAT_VERSION,
        "quotas": dict(quotas),
        "matching": sorted(matched),
    }


def parse_smf_solution(doc: dict, inst: FlowInstance) -> tuple[dict[str, int], dict, dict]:
    """Returns (aggregate capacities, per-commodity capacities, flow)."""
    _expect_keys(doc, {"kind", "version", "capacity", "commodity_capacities", "flow"})
    if doc["kind"] != "smf-solution" or doc["version"] != FORMAT_VERSION:
        raise InputError("expected kind 'smf-solution' version 1")
    k = inst.num_commodities
    ccaps = _parse_commodity_capacities(doc["commodity_capacities"], k)
    flow = _parse_flow_values(doc["flow"], inst.arcs, k)
    return _capacity_map(doc["capacity"], "capacity"), ccaps, flow


def smf_solution_to_doc(inst: FlowInstance, capacity: dict, ccaps: dict, flow: dict) -> dict:
    k = inst.num_commodities
    return {
        "kind": "smf-solution",
        "version": FORMAT_VERSION,
        "capacity": dict(capacity),
        "commodity_capacities": [{a.id: ccaps[(a.id, j)] for a in inst.arcs} for j in range(1, k + 1)],
        "flow": _flow_json(inst, flow),
    }


def parse_document(text: str):
    """Parse any instance document; returns the typed instance or SmfDocument."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "kind" not in doc:
        raise InputError("document must be an object with a 'kind' field")
    kind = doc["kind"]
    if kind == "shm":
        return parse_shm(doc)
    if kind == "cacq":
        return parse_cacq(doc)
    if kind == "smf":
        return parse_smf(doc)
    raise InputError(f"unknown document kind {kind!r}")
