"""Stable multicommodity flow: verification and iterative rounding.

The pipeline takes a fractional stable flow (from the instance file or the
bundled generator), rounds each commodity to integers along fractional
cycles and source-sink paths, and emits revised aggregate capacities.
Commodity-specific capacities never change; aggregate capacities move by at
most k - 1 (k = number of commodities).  In the default mode every
commodity's flow size drifts by strictly less than one; the balanced mode
trades that for an aggregate drift below one with per-commodity drift
below two.  `flow_bounds` states the bounds both modes share once, for
`round_stable_flow`'s self-check and for `nearstable verify`.

Each entry point reads its flow once (through `exact`) and builds the
network maps (`arc_by_id`, `outgoing`, `incoming`) once per call; one
helper, `_unbalanced`, checks flow conservation for the verifier and after
every rounding step.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import floor
from typing import Mapping

from .errors import InputError, InternalError, PreconditionError, UnstableInputError
from .model import CapacityRevision, FlowInstance, require_valid
from .polytope import ZERO, _is_integral, exact, scale
from .scarf import TraceSink


@dataclass(frozen=True)
class BlockingWalk:
    commodity: int
    vertices: tuple[str, ...]
    arcs: tuple[str, ...]


@dataclass(frozen=True)
class FlowReport:
    kirchhoff_violations: tuple
    capacity_violations: tuple
    commodity_capacity_violations: tuple
    negative_values: tuple
    blocking_walks: tuple

    @property
    def feasible(self) -> bool:
        return not (
            self.kirchhoff_violations
            or self.capacity_violations
            or self.commodity_capacity_violations
            or self.negative_values
        )

    @property
    def stable(self) -> bool:
        return not self.blocking_walks

    @property
    def ok(self) -> bool:
        return self.feasible and self.stable


def flow_size(inst: FlowInstance, flow: Mapping, j: int) -> int | Fraction:
    """Commodity j's flow out of its source; an int when the flow's values there are."""
    source = inst.commodities[j - 1].source
    return sum(exact(flow.get((a.id, j), 0)) for a in inst.arcs if a.tail == source)


def _unbalanced(inst: FlowInstance, values: Mapping, j: int, outgoing, incoming) -> list[str]:
    """The vertices other than commodity j's terminals where its flow is not conserved."""
    terminals = (inst.commodities[j - 1].source, inst.commodities[j - 1].sink)
    return [
        v
        for v in inst.vertices
        if v not in terminals and sum(values[(a, j)] for a in outgoing[v]) != sum(values[(a, j)] for a in incoming[v])
    ]


def _find_blocking_walk(inst: FlowInstance, j: int, x, totals, cap, com_cap, arc_ranks, network) -> BlockingWalk | None:
    """Breadth-first search over usable arcs for one commodity.

    An arc is usable when it has commodity capacity left and either spare
    aggregate capacity or a strictly less preferred commodity routed on it.
    Valid walk starts leave the source or improve on a positive outgoing
    arc at their tail; valid ends enter the sink or improve at their head.
    Every blocking walk collapses to such a path, so the search is
    complete.  `x`, `totals`, `cap` and `com_cap` are the scaled integers
    of `verify_flow`; `arc_ranks` maps each arc to its commodity ranks, and
    `network` is (`arc_by_id`, `outgoing`, `incoming`).
    """
    source = inst.commodities[j - 1].source
    sink = inst.commodities[j - 1].sink
    arc_map, outgoing, incoming = network
    others = [i for i in range(1, inst.num_commodities + 1) if i != j]
    vertex_ranks = {v: order.ranks() for (v, i), order in inst.vertex_prefs.items() if i == j}

    def usable(aid: str) -> bool:
        if x[(aid, j)] >= com_cap[(aid, j)]:
            return False
        if totals[aid] < cap[aid]:
            return True
        ranks = arc_ranks[aid]
        return any(x[(aid, other)] > 0 and ranks[j] < ranks[other] for other in others)

    def improves_at(v: str, aid: str, candidates) -> bool:
        ranks = vertex_ranks[v]
        return any(x[(b, j)] > 0 and ranks[aid] < ranks[b] for b in candidates)

    usable_ids = [a.id for a in inst.arcs if usable(a.id)]
    usable_set = set(usable_ids)
    starts = [
        aid
        for aid in usable_ids
        if arc_map[aid].tail == source or improves_at(arc_map[aid].tail, aid, outgoing[arc_map[aid].tail])
    ]

    def is_end(aid: str) -> bool:
        head = arc_map[aid].head
        return head == sink or improves_at(head, aid, incoming[head])

    parent: dict[str, str | None] = {}
    queue = []
    for aid in starts:
        if aid not in parent:
            parent[aid] = None
            queue.append(aid)
    pos = 0
    while pos < len(queue):
        aid = queue[pos]
        pos += 1
        if is_end(aid):
            chain = [aid]
            while parent[chain[-1]] is not None:
                chain.append(parent[chain[-1]])
            chain.reverse()
            vertices = [arc_map[chain[0]].tail] + [arc_map[c].head for c in chain]
            return BlockingWalk(commodity=j, vertices=tuple(vertices), arcs=tuple(chain))
        head = arc_map[aid].head
        for nxt in outgoing[head]:
            if nxt in usable_set and nxt not in parent:
                parent[nxt] = aid
                queue.append(nxt)
    return None


def verify_flow(
    inst: FlowInstance,
    flow: Mapping,
    capacity: Mapping | None = None,
    commodity_capacity: Mapping | None = None,
) -> FlowReport:
    """Kirchhoff, capacity, and blocking-walk report for a multiflow.

    Capacity overrides allow re-checking a rounded flow against revised
    capacities.  Weak preference orders are handled directly.  The flow is
    read once and scaled to integers over one common denominator `den`, so
    values and per-arc totals compare with `capacity * den`; the totals are
    shared by the capacity check and every commodity's walk search.
    """
    capacity = inst.capacity if capacity is None else capacity
    ccap = inst.commodity_capacity if commodity_capacity is None else commodity_capacity
    commodities = range(1, inst.num_commodities + 1)
    keys = [(a.id, j) for a in inst.arcs for j in commodities]
    missing = [a.id for a in inst.arcs if a.id not in capacity] + [key for key in keys if key not in ccap]
    if missing:
        raise InputError(f"capacities missing for: {missing[:5]}")
    unknown = sorted(capacity.keys() - {a.id for a in inst.arcs}) + sorted(ccap.keys() - set(keys))
    if unknown:
        raise InputError(f"capacities given for unknown arcs: {unknown[:5]}")
    nums, den = scale([exact(flow.get(key, 0)) for key in keys])
    x = dict(zip(keys, nums))
    totals = {a.id: sum(x[(a.id, j)] for j in commodities) for a in inst.arcs}
    cap = {a.id: capacity[a.id] * den for a in inst.arcs}
    com_cap = {key: ccap[key] * den for key in keys}
    outgoing, incoming = inst.outgoing(), inst.incoming()
    network = (inst.arc_by_id(), outgoing, incoming)
    arc_ranks = {aid: order.ranks() for aid, order in inst.arc_prefs.items()}
    walks = (_find_blocking_walk(inst, j, x, totals, cap, com_cap, arc_ranks, network) for j in commodities)
    return FlowReport(
        kirchhoff_violations=tuple((v, j) for j in commodities for v in _unbalanced(inst, x, j, outgoing, incoming)),
        capacity_violations=tuple(a.id for a in inst.arcs if totals[a.id] > cap[a.id]),
        commodity_capacity_violations=tuple(key for key in keys if x[key] > com_cap[key]),
        negative_values=tuple(key for key in keys if x[key] < 0),
        blocking_walks=tuple(walk for walk in walks if walk is not None),
    )


# ---------------------------------------------------------------------------
# fractional structures and rounding
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AugmentingStructure:
    kind: str  # "cycle" or "st_path"
    arcs: tuple  # (arc id, forward) along the traversal orientation
    vertices: tuple[str, ...]
    eps_up: Fraction  # step that raises forward arcs to the next integer
    eps_down: Fraction  # step that lowers forward arcs to the previous integer


def find_fractional_structure(inst: FlowInstance, values: Mapping, j: int) -> AugmentingStructure:
    """A cycle or source-sink path of fractional arcs, in the undirected sense.

    Greedy walk preferring to start at the commodity's source, extending
    along the lowest-id unused fractional arc.  Flow conservation makes a
    dead end impossible anywhere except the source and the sink, so the
    walk always closes a cycle (any revisit, its start included) or
    connects the source to the sink.  A walk that starts away from the
    terminals and dead-ends at one (possible only where conservation
    fails) is read once from that end, with every arc's orientation
    flipped.
    """
    source = inst.commodities[j - 1].source
    sink = inst.commodities[j - 1].sink
    arc_map = inst.arc_by_id()
    fractional = [a.id for a in inst.arcs if not _is_integral(exact(values.get(a.id, 0)))]
    if not fractional:
        raise PreconditionError("no fractional arc to route")
    touching: dict[str, list[str]] = {}
    for aid in fractional:
        touching.setdefault(arc_map[aid].tail, []).append(aid)
        touching.setdefault(arc_map[aid].head, []).append(aid)
    if source in touching:
        start = source
    else:
        start = arc_map[fractional[0]].tail
    used: set[str] = set()
    vertices = [start]
    walk: list[tuple[str, bool]] = []
    while True:
        current = vertices[-1]
        step = None
        for aid in touching.get(current, ()):
            if aid in used:
                continue
            arc = arc_map[aid]
            step = (aid, arc.tail == current)
            break
        if step is None:
            start_terminal = vertices[0] in (source, sink)
            if current not in (source, sink):
                raise InternalError("fractional walk stuck at an interior vertex")
            if start_terminal:
                break
            # Read the walk from the terminal it dead-ended at: it now starts
            # at a terminal, so its next dead end breaks out or is interior.
            vertices.reverse()
            walk = [(aid, not forward) for aid, forward in reversed(walk)]
            continue
        aid, forward = step
        used.add(aid)
        nxt = arc_map[aid].head if forward else arc_map[aid].tail
        if nxt in vertices:
            at = vertices.index(nxt)
            cycle_vertices = vertices[at:] + [nxt]
            cycle_walk = walk[at:] + [(aid, forward)]
            return _finish_structure(inst, values, j, "cycle", cycle_walk, cycle_vertices)
        vertices.append(nxt)
        walk.append((aid, forward))
    # Both ends are terminals and no vertex repeats, so they are the source
    # and the sink: the source has a fractional arc, the walk started there,
    # was never flipped, and already reads from the source.
    return _finish_structure(inst, values, j, "st_path", walk, vertices)


def _finish_structure(inst, values, j, kind, walk, vertices) -> AugmentingStructure:
    if not walk:
        raise InternalError("empty fractional structure")
    up = []
    down = []
    for aid, forward in walk:
        v = exact(values[aid])
        to_floor = v - floor(v)
        to_ceil = 1 - to_floor
        if forward:
            up.append(to_ceil)
            down.append(to_floor)
        else:
            up.append(to_floor)
            down.append(to_ceil)
    return AugmentingStructure(
        kind=kind,
        arcs=tuple(walk),
        vertices=tuple(vertices),
        eps_up=min(up),
        eps_down=min(down),
    )


def round_flow(inst: FlowInstance, flow: Mapping, balanced: bool = False, trace: TraceSink | None = None):
    """Round a feasible multiflow to adjacent integers, commodity by commodity.

    Cycles are rounded in whichever direction reaches an integer first;
    source-sink paths (and closed walks whose augmentation shifts the
    commodity's size) follow the size rule: shrink when already above the
    fractional size, grow otherwise.  Balanced mode keys the rule to the
    aggregate size instead.  Flow conservation holds after every single
    augmentation.
    """
    k = inst.num_commodities
    f = {(a.id, j): exact(flow.get((a.id, j), 0)) for a in inst.arcs for j in range(1, k + 1)}
    g = dict(f)
    f_sizes = {j: flow_size(inst, f, j) for j in range(1, k + 1)}
    f_total = sum(f_sizes.values(), ZERO)
    g_sizes = dict(f_sizes)
    g_total = f_total
    steps = []
    arc_map, outgoing, incoming = inst.arc_by_id(), inst.outgoing(), inst.incoming()
    for j in range(1, k + 1):
        source = inst.commodities[j - 1].source
        guard = 0
        while True:
            per_arc = {a.id: g[(a.id, j)] for a in inst.arcs}
            if all(_is_integral(v) for v in per_arc.values()):
                break
            guard += 1
            if guard > len(inst.arcs) + 1:
                raise InternalError("rounding failed to make progress")
            structure = find_fractional_structure(inst, per_arc, j)
            # Net effect of a unit forward augmentation on the commodity's size.
            sigma = sum(1 if forward else -1 for aid, forward in structure.arcs if arc_map[aid].tail == source)
            if structure.kind == "cycle" and sigma == 0:
                use_up = structure.eps_up < structure.eps_down
            else:
                if balanced:
                    grow = g_total < f_total
                    if grow and g_sizes[j] > f_sizes[j] + 1:
                        grow = False
                    elif not grow and g_sizes[j] < f_sizes[j] - 1:
                        grow = True
                else:
                    grow = g_sizes[j] <= f_sizes[j]
                if sigma >= 0:
                    use_up = grow
                else:
                    use_up = not grow
            eps = structure.eps_up if use_up else structure.eps_down
            delta = eps if use_up else -eps
            for aid, forward in structure.arcs:
                sign = 1 if forward == use_up else -1
                g[(aid, j)] += sign * eps
                if g[(aid, j)] < 0:
                    raise InternalError("augmentation drove a flow value negative")
            size_shift = sigma * delta
            g_sizes[j] += size_shift
            g_total += size_shift
            if abs(g_sizes[j] - f_sizes[j]) >= (2 if balanced else 1):
                raise InternalError("per-commodity size drift bound violated")
            if balanced and abs(g_total - f_total) >= 1:
                raise InternalError("aggregate size drift bound violated")
            if _unbalanced(inst, g, j, outgoing, incoming):
                raise InternalError("augmentation broke flow conservation")
            steps.append(
                {
                    "commodity": j,
                    "kind": structure.kind,
                    "arcs": [aid for aid, _ in structure.arcs],
                    "step": str(eps),
                    "direction": "up" if use_up else "down",
                }
            )
            if trace is not None:
                trace(
                    f"round commodity {j}: {structure.kind} of {len(structure.arcs)} arcs, "
                    f"{'up' if use_up else 'down'} by {eps}"
                )
    for key, old in f.items():
        new = g[key]
        if _is_integral(old):
            if new != old:
                raise InternalError("integral flow value changed during rounding")
        elif new not in (floor(old), floor(old) + 1):
            raise InternalError("rounded value is not an adjacent integer")
    g_int = {key: int(v) for key, v in g.items()}
    return g_int, steps


@dataclass(frozen=True)
class FlowCapacities:
    aggregate: dict  # arc id -> int
    per_commodity: dict  # (arc id, commodity) -> int


def compute_flow_capacities(inst: FlowInstance, flow: Mapping, rounded: Mapping) -> FlowCapacities:
    """Revised capacities under which the rounded flow stays stable.

    Tight capacities follow the rounded flow exactly; loose ones only ever
    grow, and only up to the rounded usage.
    """
    k = inst.num_commodities
    keys = [(a.id, j) for a in inst.arcs for j in range(1, k + 1)]
    f = {key: exact(flow.get(key, 0)) for key in keys}
    g = {key: exact(rounded.get(key, 0)) for key in keys}
    for (arc, j), value in g.items():
        if f[(arc, j)] == 0 and value != 0:
            raise PreconditionError(f"support containment fails on arc {arc!r} commodity {j}")
        if not _is_integral(value):
            raise PreconditionError("rounded flow must be integral")
    per_commodity = CapacityRevision.read_off({key: inst.commodity_capacity[key] for key in keys}, f, g)
    total_f = {a.id: sum((f[(a.id, j)] for j in range(1, k + 1)), ZERO) for a in inst.arcs}
    total_g = {a.id: sum(g[(a.id, j)] for j in range(1, k + 1)) for a in inst.arcs}
    aggregate = CapacityRevision.read_off({a.id: inst.capacity[a.id] for a in inst.arcs}, total_f, total_g)
    return FlowCapacities(aggregate=aggregate.revised, per_commodity=per_commodity.revised)


def flow_bounds(inst: FlowInstance, capacity: Mapping, ccaps: Mapping, flow: Mapping, fractional: Mapping | None) -> dict:
    """The smf revision bounds, as `round_stable_flow` certifies them and `verify` reports them.

    Aggregate capacities move by at most k - 1 per arc and commodity
    capacities not at all; a breach names the arc, or the arc and the
    commodity.  Against the `fractional` flow that `flow` was rounded from,
    if given, the size drift is held to the weaker limit of the two modes:
    below 2 per commodity (balanced) and below k in aggregate (default).
    """
    k = inst.num_commodities
    bounds = CapacityRevision(inst.capacity, capacity).bounds("arc", max(k - 1, 0))
    changed = {key: ccaps[key] - q for key, q in inst.commodity_capacity.items() if ccaps[key] != q}
    bounds["commodity_max_deviation"] = max(map(abs, changed.values()), default=0)
    bounds["commodity_allowed"] = 0
    violations = bounds["violations"]
    violations += [{"arc": arc, "commodity": j, "deviation": d} for (arc, j), d in changed.items()]
    if fractional is not None:
        drift = {j: flow_size(inst, flow, j) - flow_size(inst, fractional, j) for j in range(1, k + 1)}
        total = abs(sum(drift.values()))
        bounds["per_commodity_drift"] = {str(j): str(abs(d)) for j, d in drift.items()}
        bounds["per_commodity_drift_allowed"] = "<2"
        bounds["aggregate_drift"] = str(total)
        bounds["aggregate_drift_allowed"] = {"balanced": "<1", "default": f"<{k}"}
        violations += [{"commodity": j, "drift": str(abs(d))} for j, d in drift.items() if abs(d) >= 2]
        if total >= k:
            violations.append({"aggregate_drift": str(total)})
    return bounds


@dataclass(frozen=True)
class SmfResult:
    revision: CapacityRevision  # aggregate capacities
    capacities: FlowCapacities
    rounded: dict  # (arc, commodity) -> int
    certificate: dict
    rounding_steps: list


def round_stable_flow(
    inst: FlowInstance,
    flow: Mapping,
    balanced: bool = False,
    trace: TraceSink | None = None,
) -> SmfResult:
    """Round a stable fractional flow and certify the revised capacities.

    The input must verify as feasible and stable; otherwise the error
    carries the witness blocking walk.  Certificates assert `flow_bounds`,
    the requested mode's stricter drift limit (below 1 per commodity by
    default, in aggregate when balanced), and stability of the rounded flow
    under the revised capacities.
    """
    require_valid(inst)
    report = verify_flow(inst, flow)
    if not report.feasible:
        raise PreconditionError(
            f"input flow infeasible: kirchhoff={report.kirchhoff_violations} "
            f"capacity={report.capacity_violations + report.commodity_capacity_violations}"
        )
    if not report.stable:
        raise UnstableInputError("input flow is not stable", witness=report.blocking_walks[0])
    k = inst.num_commodities
    rounded, steps = round_flow(inst, flow, balanced=balanced, trace=trace)
    caps = compute_flow_capacities(inst, flow, rounded)
    bounds = flow_bounds(inst, caps.aggregate, caps.per_commodity, rounded, flow)
    if bounds["violations"]:
        raise InternalError(f"revision bounds violated: {bounds['violations']}")
    # The requested mode's own drift limit, stricter than the shared one.
    drift = {"aggregate": bounds["aggregate_drift"]} if balanced else bounds["per_commodity_drift"]
    over = {key: d for key, d in drift.items() if Fraction(d) >= 1}
    if over:
        raise InternalError(f"size drift is not below 1: {over}")
    final = verify_flow(inst, rounded, capacity=caps.aggregate, commodity_capacity=caps.per_commodity)
    if not final.ok:
        raise InternalError("rounded flow is unstable under the revised capacities")
    sizes = {j: (flow_size(inst, flow, j), flow_size(inst, rounded, j)) for j in range(1, k + 1)}
    certificate = {
        "pipeline": "smf",
        "mode": "balanced" if balanced else "default",
        "commodities": k,
        "bounds": {
            "max_capacity_deviation": bounds["max_deviation"],
            "max_capacity_allowed": bounds["max_allowed"],
            "per_commodity_drift": bounds["per_commodity_drift"],
            "per_commodity_drift_allowed": "<2" if balanced else "<1",
            "aggregate_drift": bounds["aggregate_drift"],
        },
        "capacity": {
            a.id: {"original": inst.capacity[a.id], "revised": caps.aggregate[a.id]} for a in inst.arcs
        },
        "flow_sizes": {str(j): {"fractional": str(f), "rounded": str(r)} for j, (f, r) in sizes.items()},
        "verifier": {
            "stable": final.stable,
            "feasible": final.feasible,
        },
        "iterations": len(steps),
    }
    return SmfResult(
        revision=CapacityRevision(original=dict(inst.capacity), revised=caps.aggregate),
        capacities=caps,
        rounded=rounded,
        certificate=certificate,
        rounding_steps=steps,
    )
