"""College admission with common quotas: near-feasible stable matchings.

Set quotas (including each college's own singleton set) may be revised by
at most 2L - 1, where L is the largest number of sets any college belongs
to; student capacities are never touched.  `quota_bounds` states that
bound once, for `solve_cacq`'s self-check and for `nearstable verify`.
The pipeline mirrors the hypergraph one but rounds against inequality
rows: a set row is deleted when its fractional column mass is at most
2L - 1 (non-tight rows) or 2L (tight rows), and students matched fully by
the fractional solution are pinned as equalities so they stay matched.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Mapping

from .errors import InputError, InternalError, PreconditionError
from .model import CacqInstance, CapacityRevision, CollegeSet, normalize_cacq, require_valid
from .orders import break_ties
from .polytope import LinearRow, exact, int_dot, iterative_rounding, scale
from .scarf import (
    DEFAULT_PIVOT_BUDGET,
    ScarfBuild,
    TraceSink,
    solve_scarf,
)


def break_cacq_ties(inst: CacqInstance) -> CacqInstance:
    """Strictify all orders with shared fallbacks.

    Master lists and college lists break ties by declared student order, so
    the consistency between them survives; student lists break ties by
    declared edge order.
    """
    student_fallback = {s: i for i, s in enumerate(inst.students)}
    edge_fallback = {e.id: i for i, e in enumerate(inst.edges)}
    sets = tuple(
        CollegeSet(id=cs.id, colleges=cs.colleges, quota=cs.quota, master=break_ties(cs.master, student_fallback))
        for cs in inst.sets
    )
    return CacqInstance(
        students=inst.students,
        colleges=inst.colleges,
        edges=inst.edges,
        college_quotas=dict(inst.college_quotas),
        college_prefs={c: break_ties(o, student_fallback) for c, o in inst.college_prefs.items()},
        sets=sets,
        student_prefs={s: break_ties(o, edge_fallback) for s, o in inst.student_prefs.items()},
    )


def build_cacq_scarf(inst: CacqInstance) -> ScarfBuild:
    """One row per college set (bound = quota) plus one per student (bound 1).

    A set row ranks columns by its master list, breaking same-student
    comparisons by that student's own preference.  Zero-quota sets cannot
    appear as rows, so every edge into their colleges is pre-fixed to zero.
    """
    for cs in inst.sets:
        if not cs.master.is_strict:
            raise PreconditionError(f"set {cs.id!r} still has ties; break them first")
    for s in inst.students:
        if not inst.student_prefs[s].is_strict:
            raise PreconditionError(f"student {s!r} still has ties; break them first")
    dead_colleges = {c for cs in inst.sets if cs.quota == 0 for c in cs.colleges}
    fixed_zero = tuple(e.id for e in inst.edges if e.college in dead_colleges)
    student_ranks = {s: inst.student_prefs[s].ranks() for s in inst.students}
    rows = []
    for cs in inst.sets:
        if cs.quota == 0:
            continue
        master_rank = cs.master.ranks()
        members = [e for e in inst.edges if e.college in cs.colleges and e.college not in dead_colleges]
        members.sort(key=lambda e: (master_rank[e.student], student_ranks[e.student][e.id]))
        rows.append((cs.quota, {e.id for e in members}, [e.id for e in members]))
    for s in inst.students:
        ranked = [eid for group in inst.student_prefs[s].tie_groups for eid in group]
        rows.append((1, {e.id for e in inst.edges if e.student == s}, ranked))
    return ScarfBuild.from_rows([e.id for e in inst.edges], fixed_zero, rows)


def _set_loads(inst: CacqInstance, values: Mapping, memberships: Mapping) -> dict:
    loads = {cs.id: 0 for cs in inst.sets}
    for e in inst.edges:
        value = values.get(e.id, 0)
        if value == 0:
            continue
        for set_id in memberships.get(e.college, ()):
            loads[set_id] += value
    return loads


def _student_loads(inst: CacqInstance, values: Mapping) -> dict:
    loads = {s: 0 for s in inst.students}
    for e in inst.edges:
        value = values.get(e.id, 0)
        if value != 0:
            loads[e.student] += value
    return loads


def pinned_students(inst: CacqInstance, x_star: Mapping) -> tuple[str, ...]:
    loads = _student_loads(inst, x_star)
    return tuple(s for s in inst.students if loads[s] == 1)


def _cacq_rule(sets, rows, ell, point, fractional, active):
    """First non-tight set row with fractional mass <= 2L - 1, else first tight one with mass <= 2L.

    Tightness is taken at the integer point (nums, den).  Rows i < len(sets)
    are the set rows; the student rows after them are never deleted.
    """
    nums, den = point
    for tight, allowance in ((False, 2 * ell - 1), (True, 2 * ell)):
        for i in active:
            if i < len(sets):
                row = rows[i]
                mass = sum(1 for j, _ in row.coeffs if j in fractional)
                if (int_dot(row.coeffs, nums) == row.rhs * den) == tight and mass <= allowance:
                    kind = "tight" if tight else "non-tight"
                    return i, sets[i].id, kind, f"{kind} set {sets[i].id}"
    return None


def round_cacq(inst: CacqInstance, x_star: Mapping, trace: TraceSink | None = None):
    """Algorithm-2-style rounding over the set rows.

    Set rows stay inequalities; students assigned fully at the fractional
    point are pinned to stay fully assigned; student rows are never
    deleted.  Deletion prefers non-tight set rows with fractional mass at
    most 2L - 1, then tight set rows with mass at most 2L, scanning sets in
    declared order.  Tightness is evaluated at the current iterate.
    """
    edges = [e.id for e in inst.edges]
    pinned = pinned_students(inst, x_star)
    sets = [cs for cs in inst.sets if cs.quota > 0]
    rows = [
        LinearRow(tuple((j, 1) for j, e in enumerate(inst.edges) if e.college in cs.colleges), "le", cs.quota)
        for cs in sets
    ] + [
        LinearRow(tuple((j, 1) for j, e in enumerate(inst.edges) if e.student == s), "eq" if s in pinned else "le", 1)
        for s in inst.students
    ]
    z, steps = iterative_rounding(
        [Fraction(x_star[eid]) for eid in edges],
        rows,
        partial(_cacq_rule, sets, rows, inst.max_memberships),
        upper=None,
        trace=trace,
    )
    return dict(zip(edges, z)), steps


def compute_cacq_quotas(inst: CacqInstance, x_star: Mapping, y: Mapping) -> CapacityRevision:
    """Revised set quotas under which the rounded matching is stable.

    Hypotheses checked: the rounded vector vanishes outside the fractional
    support, fully assigned students stay assigned, and nobody exceeds one
    seat.
    """
    for e in inst.edges:
        if Fraction(x_star[e.id]) == 0 and y[e.id] != 0:
            raise PreconditionError(f"support containment fails at edge {e.id!r}")
    x_loads = _student_loads(inst, x_star)
    y_loads = _student_loads(inst, y)
    for s in inst.students:
        if x_loads[s] == 1 and y_loads[s] != 1:
            raise PreconditionError(f"fully assigned student {s!r} lost the seat")
        if y_loads[s] > 1:
            raise PreconditionError(f"student {s!r} holds more than one seat")
    memberships = inst.memberships
    return CapacityRevision.read_off(
        {cs.id: cs.quota for cs in inst.sets},
        _set_loads(inst, x_star, memberships),
        _set_loads(inst, y, memberships),
    )


@dataclass(frozen=True)
class CacqReport:
    blocking_edges: tuple
    quota_violations: tuple
    student_violations: tuple
    value_violations: tuple

    @property
    def ok(self) -> bool:
        return not (
            self.blocking_edges or self.quota_violations or self.student_violations or self.value_violations
        )


def verify_cacq(inst: CacqInstance, quotas: Mapping, matching: Mapping) -> CacqReport:
    """Blocking-edge and feasibility report against given set quotas.

    An edge (student, college) blocks when the student strictly improves
    and every set containing the college is below quota or admits a
    strictly worse student under its master list.  Weak orders are
    compared directly.  The values are scaled to integers over one common
    denominator `den`, so loads compare with `quota * den` (1 * den for a
    student).  A full student improves exactly with the edges ranked
    strictly above the worst edge it uses, and a full set admits exactly
    the students its master list ranks strictly above the worst student it
    holds; both worst ranks are found once per call.
    """
    missing = [cs.id for cs in inst.sets if cs.id not in quotas]
    if missing:
        raise InputError(f"quotas missing for sets: {missing}")
    unknown = sorted(quotas.keys() - {cs.id for cs in inst.sets})
    if unknown:
        raise InputError(f"quotas given for unknown sets: {unknown}")
    unknown = sorted(set(matching) - {e.id for e in inst.edges})
    if unknown:
        raise InputError(f"matching references unknown edges: {unknown}")
    values = {e.id: exact(matching.get(e.id, 0)) for e in inst.edges}
    nums, den = scale(list(values.values()))
    x = dict(zip(values, nums))
    value_violations = tuple(eid for eid, v in x.items() if v < 0 or v > den)
    student_loads = _student_loads(inst, x)
    memberships = inst.memberships
    set_loads = _set_loads(inst, x, memberships)
    student_violations = tuple(s for s in inst.students if student_loads[s] > den)
    quota_violations = tuple(cs.id for cs in inst.sets if set_loads[cs.id] > quotas[cs.id] * den)
    # Per full student and per full set: its ranks and the worst rank it holds (-1 if none).
    student_ranks, worst_held = {}, {}
    for s in inst.students:
        if student_loads[s] >= den:
            student_ranks[s] = rank = inst.student_prefs[s].ranks()
            worst_held[s] = max((r for eid, r in rank.items() if x[eid] > 0), default=-1)
    master_ranks = {cs.id: cs.master.ranks() for cs in inst.sets if set_loads[cs.id] >= quotas[cs.id] * den}
    worst_admitted = dict.fromkeys(master_ranks, -1)
    for e in inst.edges:
        if x[e.id] > 0:
            for set_id in memberships.get(e.college, ()):
                if set_id in master_ranks:
                    worst_admitted[set_id] = max(worst_admitted[set_id], master_ranks[set_id].get(e.student, -1))
    blocking = tuple(
        e.id
        for e in inst.edges
        if (e.student not in worst_held or student_ranks[e.student][e.id] < worst_held[e.student])
        and all(
            set_id not in master_ranks or master_ranks[set_id][e.student] < worst_admitted[set_id]
            for set_id in memberships.get(e.college, ())
        )
    )
    return CacqReport(
        blocking_edges=blocking,
        quota_violations=quota_violations,
        student_violations=student_violations,
        value_violations=value_violations,
    )


def quota_bounds(normalized: CacqInstance, revised: Mapping) -> dict:
    """The cacq revision bound, as `solve_cacq` certifies it and `verify` reports it.

    With L the largest number of sets a college belongs to, every quota of
    the normalized instance's sets moves by at most 2L - 1.
    """
    original = {cs.id: cs.quota for cs in normalized.sets}
    return CapacityRevision(original, revised).bounds("set", 2 * normalized.max_memberships - 1)


@dataclass(frozen=True)
class CacqResult:
    revision: CapacityRevision
    matching: dict  # edge id -> 0/1
    fractional: dict  # edge id -> Fraction
    pinned: tuple
    certificate: dict
    rounding_steps: list


def solve_cacq(
    inst: CacqInstance,
    pivot_budget: int = DEFAULT_PIVOT_BUDGET,
    trace: TraceSink | None = None,
) -> CacqResult:
    """Full pipeline; revises only set quotas, by at most 2L - 1 each.

    Certificates assert the per-set bound of `quota_bounds`, feasibility
    under the revised quotas, zero blocking edges, and that every student
    fully assigned by the fractional solution is matched in the output.
    """
    require_valid(inst)
    normalized = normalize_cacq(inst)
    strict = break_cacq_ties(normalized)
    build = build_cacq_scarf(strict)
    point = solve_scarf(build.problem, pivot_budget=pivot_budget, trace=trace)
    x_star = build.expand(point)
    pinned = pinned_students(strict, x_star)
    y, steps = round_cacq(strict, x_star, trace=trace)
    revision = compute_cacq_quotas(strict, x_star, y)
    report = verify_cacq(normalized, revision.revised, y)
    if not report.ok:
        raise InternalError("rounded matching unstable under the revised quotas")
    bounds = quota_bounds(normalized, revision.revised)
    violations = bounds.pop("violations")
    if violations:
        raise InternalError(f"quota revision bounds violated: {violations}")
    matched_students = {e.student for e in normalized.edges if y[e.id] == 1}
    missing = [s for s in pinned if s not in matched_students]
    if missing:
        raise InternalError(f"pinned students left unmatched: {missing}")
    x_set = _set_loads(strict, x_star, strict.memberships)
    certificate = {
        "pipeline": "cacq",
        "max_memberships": normalized.max_memberships,
        "bounds": bounds,
        "quotas": {
            cs.id: {
                "original": revision.original[cs.id],
                "revised": revision.revised[cs.id],
                "tight_at_fractional": x_set[cs.id] == cs.quota,
            }
            for cs in normalized.sets
        },
        "pinned_students": list(pinned),
        "verifier": {
            "blocking_edges": list(report.blocking_edges),
            "quota_violations": list(report.quota_violations),
            "student_violations": list(report.student_violations),
            "stable": report.ok,
        },
        "iterations": len(steps),
    }
    return CacqResult(
        revision=revision,
        matching=y,
        fractional=x_star,
        pinned=pinned,
        certificate=certificate,
        rounding_steps=steps,
    )
