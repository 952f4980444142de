"""End-to-end solver for stable hypergraph matching with capacities.

The pipeline finds revised capacities within max-edge-size - 1 of the
originals together with an integral matching that is stable for them:

1. break preference ties deterministically,
2. append per-vertex saturation edges (strictly worst singletons), which
   forces every fractional stable matching to fill all capacities,
3. build the dominance problem whose matrix stacks the incidence rows over
   an identity block and solve it for a fractional stable point,
4. round iteratively: delete a capacity row whose fractional column mass is
   at most the maximum edge size (or, when a single fractional component
   remains, the aggregate capacity row), then re-maximize the size-weighted
   sum over the surviving equalities with all integer components fixed,
5. read the revised capacities off the rounded vector, strip the gadget
   edges, verify stability of the result on the original instance, and
   check `capacity_bounds`, the bound `nearstable verify` reports too.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Mapping

from .errors import InputError, InternalError, PreconditionError
from .model import CapacityRevision, HyperEdge, HypergraphInstance, require_valid
from .orders import WeakOrder, break_ties
from .polytope import LinearRow, _is_integral, exact, iterative_rounding, scale, sparse
from .scarf import (
    DEFAULT_PIVOT_BUDGET,
    ScarfBuild,
    TraceSink,
    solve_scarf,
)


def break_instance_ties(inst: HypergraphInstance) -> HypergraphInstance:
    """Refine every vertex order to a strict one; fallback is declared edge order."""
    fallback = {e.id: i for i, e in enumerate(inst.edges)}
    return HypergraphInstance(
        vertices=inst.vertices,
        edges=inst.edges,
        capacities=dict(inst.capacities),
        preferences={v: break_ties(order, fallback) for v, order in inst.preferences.items()},
    )


def add_saturation_gadget(inst: HypergraphInstance) -> HypergraphInstance:
    """Append q(v) singleton edges per vertex, strictly worst in that order.

    With the gadget in place every fractional stable matching saturates
    every vertex, so the capacity rows can be imposed as equalities.
    """
    used = {e.id for e in inst.edges}
    edges = list(inst.edges)
    extra: dict[str, list[str]] = {v: [] for v in inst.vertices}
    for v in inst.vertices:
        for t in range(1, inst.capacities[v] + 1):
            eid = f"{v}~g{t}"
            while eid in used:
                eid += "~"
            used.add(eid)
            edges.append(HyperEdge(id=eid, vertices=(v,)))
            extra[v].append(eid)
    preferences = {}
    for v in inst.vertices:
        groups = list(inst.preferences[v].tie_groups)
        groups.extend((eid,) for eid in extra[v])
        preferences[v] = WeakOrder(tuple(groups))
    return HypergraphInstance(
        vertices=inst.vertices,
        edges=tuple(edges),
        capacities=dict(inst.capacities),
        preferences=preferences,
    )


def build_shm_scarf(inst: HypergraphInstance) -> ScarfBuild:
    """Incidence rows (bound q(v)) over an identity block (bound 1).

    Vertex row orders follow the strict preferences; identity rows are
    trivially ordered.  Zero-capacity vertices cannot carry a positive row
    bound, so their incident edges are pre-fixed to zero and both the rows
    and columns leave the problem.
    """
    for v in inst.vertices:
        if not inst.preferences[v].is_strict:
            raise PreconditionError(f"vertex {v!r} still has ties; break them first")
    dead = {v for v in inst.vertices if inst.capacities[v] == 0}
    fixed_zero = tuple(e.id for e in inst.edges if any(v in dead for v in e.vertices))
    incident = inst.incident()
    rows = [
        (inst.capacities[v], set(incident[v]), [eid for group in inst.preferences[v].tie_groups for eid in group])
        for v in inst.vertices
        if v not in dead
    ]
    rows += [(1, {e.id}, (e.id,)) for e in inst.edges if e.id not in fixed_zero]
    return ScarfBuild.from_rows([e.id for e in inst.edges], fixed_zero, rows)


def _vertex_loads(inst: HypergraphInstance, values: Mapping) -> dict:
    loads = {v: 0 for v in inst.vertices}
    for e in inst.edges:
        value = values.get(e.id, 0)
        if value == 0:
            continue
        for v in e.vertices:
            loads[v] += value
    return loads


def _shm_rule(vertices, rows, ell, point, fractional, active):
    """First vertex row with fractional mass at most L, else the aggregate row.

    Row i < len(vertices) is vertex i; the aggregate row comes last and may
    go once at most one edge is fractional.
    """
    aggregate = len(vertices)
    for i in active:
        if i < aggregate and sum(1 for j, _ in rows[i].coeffs if j in fractional) <= ell:
            return i, vertices[i], "vertex", f"vertex {vertices[i]}"
    if aggregate in active and len(fractional) <= 1:
        return aggregate, "aggregate", "aggregate", "aggregate aggregate"
    return None


def round_shm(inst: HypergraphInstance, x_star: Mapping, trace: TraceSink | None = None):
    """Iterative rounding of a saturating fractional stable vector.

    `inst` is the gadgeted instance; every vertex row must be tight at the
    input.  Returns the integral vector and a per-iteration trace of
    (deleted row, fractional count, objective value).
    """
    edges = [e.id for e in inst.edges]
    index = {eid: i for i, eid in enumerate(edges)}
    loads = _vertex_loads(inst, x_star)
    for v in inst.vertices:
        if loads[v] != inst.capacities[v]:
            raise PreconditionError(f"vertex row {v!r} is not tight at the fractional point")
    incident = inst.incident()
    objective = tuple(len(e.vertices) for e in inst.edges)
    rows = [
        LinearRow(tuple((j, 1) for j in sorted(index[eid] for eid in incident[v])), "eq", inst.capacities[v])
        for v in inst.vertices
    ]
    rows.append(LinearRow(sparse(objective), "eq", sum(inst.capacities[v] for v in inst.vertices)))
    z, steps = iterative_rounding(
        [Fraction(x_star[eid]) for eid in edges],
        rows,
        partial(_shm_rule, inst.vertices, rows, inst.max_edge_size),
        upper=1,
        objective=objective,
        trace=trace,
    )
    return dict(zip(edges, z)), steps


def compute_shm_capacities(inst: HypergraphInstance, x_star: Mapping, y: Mapping) -> CapacityRevision:
    """Revised capacities under which the rounded matching is stable.

    For each vertex: the rounded load if the vertex row was tight at the
    fractional point, otherwise the larger of the original capacity and
    the rounded load.
    """
    for e in inst.edges:
        xv = Fraction(x_star[e.id])
        if _is_integral(xv) and y[e.id] != xv:
            raise PreconditionError(f"rounded vector changes integral component {e.id!r}")
    return CapacityRevision.read_off(inst.capacities, _vertex_loads(inst, x_star), _vertex_loads(inst, y))


def strip_gadget(matching: Mapping, gadget_ids) -> dict:
    gadget = set(gadget_ids)
    return {eid: value for eid, value in matching.items() if eid not in gadget}


@dataclass(frozen=True)
class ShmReport:
    blocking_edges: tuple
    capacity_violations: tuple
    value_violations: tuple

    @property
    def ok(self) -> bool:
        return not (self.blocking_edges or self.capacity_violations or self.value_violations)


def verify_shm(inst: HypergraphInstance, capacities: Mapping, matching: Mapping) -> ShmReport:
    """Stability and feasibility report; weak orders are handled directly.

    An edge blocks when its own value is below one and every member vertex
    is either unsaturated or holds an edge it strictly disprefers.  Works
    for fractional and integral matchings alike.  The values are scaled to
    integers over one common denominator `den`, so loads compare with
    `capacity * den`.  A saturated vertex objects to exactly the edges it
    ranks strictly above the worst edge it uses, found once per vertex.
    """
    missing = [v for v in inst.vertices if v not in capacities]
    if missing:
        raise InputError(f"capacities missing for vertices: {missing}")
    unknown = sorted(capacities.keys() - set(inst.vertices))
    if unknown:
        raise InputError(f"capacities given for unknown vertices: {unknown}")
    unknown = sorted(set(matching) - {e.id for e in inst.edges})
    if unknown:
        raise InputError(f"matching references unknown edges: {unknown}")
    values = {e.id: exact(matching.get(e.id, 0)) for e in inst.edges}
    nums, den = scale(list(values.values()))
    x = dict(zip(values, nums))
    value_violations = tuple(eid for eid, v in x.items() if v < 0 or v > den)
    loads = _vertex_loads(inst, x)
    capacity_violations = tuple(v for v in inst.vertices if loads[v] > capacities[v] * den)
    incident = inst.incident()
    # Per saturated vertex: its ranks and the worst rank it holds (-1 if none).
    ranks, worst = {}, {}
    for v in inst.vertices:
        if loads[v] >= capacities[v] * den:
            ranks[v] = rank = inst.preferences[v].ranks()
            worst[v] = max((rank[eid] for eid in incident[v] if x[eid] > 0), default=-1)
    blocking = tuple(
        e.id
        for e in inst.edges
        if x[e.id] < den and all(v not in worst or ranks[v][e.id] < worst[v] for v in e.vertices)
    )
    return ShmReport(
        blocking_edges=blocking,
        capacity_violations=capacity_violations,
        value_violations=value_violations,
    )


def capacity_bounds(inst: HypergraphInstance, revised: Mapping) -> dict:
    """The shm revision bound, as `solve_shm` certifies it and `verify` reports it.

    With L the largest edge size, every vertex capacity moves by at most
    L - 1 and the capacities' total change lies in [0, L - 1].
    """
    return CapacityRevision(inst.capacities, revised).bounds("vertex", inst.max_edge_size - 1, signed_sum=True)


@dataclass(frozen=True)
class ShmResult:
    revision: CapacityRevision
    matching: dict  # original edge id -> 0/1
    gadget_matching: dict  # gadgeted edge id -> 0/1
    fractional: dict  # gadgeted edge id -> Fraction
    certificate: dict
    rounding_steps: list


def solve_shm(
    inst: HypergraphInstance,
    pivot_budget: int = DEFAULT_PIVOT_BUDGET,
    trace: TraceSink | None = None,
) -> ShmResult:
    """Full pipeline with the near-feasibility bounds asserted as certificates.

    Guarantees on every run: the revision meets `capacity_bounds` (per
    vertex at most max-edge-size - 1, total between 0 and max-edge-size - 1),
    and a verifier pass with zero blocking edges on the original instance.
    """
    require_valid(inst)
    strict = break_instance_ties(inst)
    gadgeted = add_saturation_gadget(strict)
    build = build_shm_scarf(gadgeted)
    point = solve_scarf(build.problem, pivot_budget=pivot_budget, trace=trace)
    x_star = build.expand(point)
    y, steps = round_shm(gadgeted, x_star, trace=trace)
    revision = compute_shm_capacities(gadgeted, x_star, y)
    gadget_report = verify_shm(gadgeted, revision.revised, y)
    if not gadget_report.ok:
        raise InternalError("rounded matching unstable on the gadgeted instance")
    matching = strip_gadget(y, (e.id for e in gadgeted.edges[len(strict.edges):]))
    report = verify_shm(inst, revision.revised, matching)
    if not report.ok:
        raise InternalError("stripped matching unstable on the original instance")
    bounds = capacity_bounds(inst, revision.revised)
    violations = bounds.pop("violations")
    if violations:
        raise InternalError(f"capacity revision bounds violated: {violations}")
    matched_real = sum(len(e.vertices) * matching[e.id] for e in inst.edges)
    certificate = {
        "pipeline": "shm",
        "max_edge_size": inst.max_edge_size,
        "bounds": bounds,
        "capacities": {
            v: {
                "original": revision.original[v],
                "revised": revision.revised[v],
            }
            for v in inst.vertices
        },
        "stripped_matched_capacity": matched_real,
        "verifier": {
            "blocking_edges": list(report.blocking_edges),
            "capacity_violations": list(report.capacity_violations),
            "stable": report.ok,
        },
        "iterations": len(steps),
    }
    return ShmResult(
        revision=revision,
        matching=matching,
        gadget_matching=y,
        fractional=x_star,
        certificate=certificate,
        rounding_steps=steps,
    )
