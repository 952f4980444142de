import random
from fractions import Fraction

import pytest

from conftest import cyclic_sets_cacq, deferred_acceptance, overlapping_sets_instance, two_by_two_cacq
from nearstable.cacq import (
    CacqReport,
    break_cacq_ties,
    build_cacq_scarf,
    compute_cacq_quotas,
    pinned_students,
    round_cacq,
    solve_cacq,
    verify_cacq,
)
from nearstable.errors import PreconditionError
from nearstable.model import (
    CacqEdge,
    CacqInstance,
    CollegeSet,
    normalize_cacq,
    validate,
)
from nearstable.oracle import enumerate_stable
from nearstable.orders import WeakOrder
from nearstable.scarf import solve_scarf, verify_dominating

F = Fraction


def _prep(inst):
    return break_cacq_ties(normalize_cacq(inst))


def weak_from(seq, rng, tie_rate):
    groups = []
    for x in seq:
        if groups and rng.random() < tie_rate:
            groups[-1] = groups[-1] + (x,)
        else:
            groups.append((x,))
    return WeakOrder(tuple(groups))


def restrict(order, universe):
    groups = tuple(tuple(x for x in g if x in universe) for g in order.tie_groups)
    return WeakOrder(tuple(g for g in groups if g))


def rand_cacq(rng, max_s=5, max_c=4, max_sets=3, memberships=2, tie_rate=0.3):
    """Random instance; faculty sets are disjoint so memberships stay <= 2."""
    ns, nc = rng.randint(2, max_s), rng.randint(2, max_c)
    students = tuple(f"s{i}" for i in range(ns))
    colleges = tuple(f"c{i}" for i in range(nc))
    edges = tuple(
        CacqEdge(f"{s}:{c}", s, c) for s in students for c in colleges if rng.random() < 0.7
    )
    college_students = {c: [e.student for e in edges if e.college == c] for c in colleges}
    quotas = {c: rng.choice([0, 1, 1, 2, 2]) for c in colleges}
    sets = []
    master_of = {}
    if memberships >= 2:
        pool = list(colleges)
        rng.shuffle(pool)
        cursor = 0
        for t in range(rng.randint(0, max_sets)):
            if cursor + 2 > len(pool):
                break
            size = rng.randint(2, min(3, len(pool) - cursor))
            members = tuple(sorted(pool[cursor : cursor + size]))
            cursor += size
            master = weak_from(list(students), rng, tie_rate)
            universe = set()
            for c in members:
                universe.update(college_students[c])
            sets.append(CollegeSet(f"F{t}", members, rng.choice([1, 1, 2, 3]), restrict(master, universe)))
            for c in members:
                master_of[c] = master
    college_prefs = {}
    for c in colleges:
        if c in master_of:
            college_prefs[c] = restrict(master_of[c], set(college_students[c]))
        else:
            college_prefs[c] = weak_from(college_students[c], rng, tie_rate)
    student_prefs = {}
    for s in students:
        incident = [e.id for e in edges if e.student == s]
        rng.shuffle(incident)
        student_prefs[s] = weak_from(incident, rng, tie_rate)
    return CacqInstance(students, colleges, edges, quotas, college_prefs, tuple(sets), student_prefs)


# -- matrix construction ------------------------------------------------------


def test_build_two_by_two_counts(cacq_2x2):
    build = build_cacq_scarf(_prep(cacq_2x2))
    assert build.problem.num_rows == 5  # common + two singletons + two students
    assert build.problem.num_cols == 4


def test_set_row_order_breaks_same_student_by_student_preference(cacq_2x2):
    strict = _prep(cacq_2x2)
    build = build_cacq_scarf(strict)
    # set rows come first, in declared order, one per set with positive quota
    common_row = [cs.id for cs in strict.sets if cs.quota > 0].index("common")
    order = build.problem.row_orders[common_row]
    ids = [build.columns[c] for c in order]
    # master: s1 before s2; within a student, that student's own ranking
    assert ids == ["e11", "e12", "e21", "e22"]


def test_build_prefixes_zero_quota_sets():
    inst = two_by_two_cacq()
    inst = CacqInstance(
        students=inst.students,
        colleges=inst.colleges,
        edges=inst.edges,
        college_quotas={"c1": 0, "c2": 1},
        college_prefs=inst.college_prefs,
        sets=inst.sets,
        student_prefs=inst.student_prefs,
    )
    build = build_cacq_scarf(_prep(inst))
    assert set(build.fixed_zero) == {"e11", "e21"}


def test_build_requires_strict_orders(cacq_2x2):
    tied = CacqInstance(
        students=cacq_2x2.students,
        colleges=cacq_2x2.colleges,
        edges=cacq_2x2.edges,
        college_quotas=cacq_2x2.college_quotas,
        college_prefs=cacq_2x2.college_prefs,
        sets=(CollegeSet("common", ("c1", "c2"), 1, WeakOrder((("s1", "s2"),))),),
        student_prefs=cacq_2x2.student_prefs,
    )
    with pytest.raises(PreconditionError):
        build_cacq_scarf(normalize_cacq(tied))


def test_dominating_points_are_stable_on_sampled_vectors():
    """One direction of the correspondence: domination implies stability."""
    rng = random.Random(9)
    checked = 0
    for _ in range(40):
        inst = rand_cacq(rng, max_s=3, max_c=3, tie_rate=0.0)
        if validate(inst):
            continue
        strict = _prep(inst)
        build = build_cacq_scarf(strict)
        if not build.columns:
            continue
        for _ in range(30):
            x = [F(rng.randint(0, 4), 4) for _ in build.columns]
            report = verify_dominating(build.problem, x)
            if not report.ok:
                continue
            values = dict(zip(build.columns, x))
            values.update({eid: F(0) for eid in build.fixed_zero})
            assert not verify_cacq(strict, {cs.id: cs.quota for cs in strict.sets}, values).blocking_edges
            checked += 1
    assert checked > 0


# -- rounding, quotas, verification -------------------------------------------


def test_round_integral_passthrough(cacq_2x2):
    strict = _prep(cacq_2x2)
    x = {e.id: F(0) for e in strict.edges}
    x["e11"] = F(1)
    y, steps = round_cacq(strict, x)
    assert steps == []
    assert y == {"e11": 1, "e12": 0, "e21": 0, "e22": 0}


def test_round_keeps_pinned_students_assigned(cacq_2x2):
    strict = _prep(cacq_2x2)
    build = build_cacq_scarf(strict)
    x = build.expand(solve_scarf(build.problem))
    pins = pinned_students(strict, x)
    y, _ = round_cacq(strict, x)
    for s in pins:
        assert sum(y[e.id] for e in strict.edges if e.student == s) == 1


def test_quota_revision_tight_and_loose_rows(cacq_2x2):
    strict = _prep(cacq_2x2)
    x = {"e11": F(1), "e12": F(0), "e21": F(0), "e22": F(0)}
    rev = compute_cacq_quotas(strict, x, {k: int(v) for k, v in x.items()})
    assert rev.revised == rev.original  # tight rows reproduce, loose rows keep max
    empty = {e.id: F(0) for e in strict.edges}
    rev_empty = compute_cacq_quotas(strict, empty, {e.id: 0 for e in strict.edges})
    assert rev_empty.revised == rev_empty.original  # max clause everywhere


def test_quota_revision_rejects_support_violation(cacq_2x2):
    strict = _prep(cacq_2x2)
    x = {e.id: F(0) for e in strict.edges}
    y = {e.id: 0 for e in strict.edges}
    y["e11"] = 1
    with pytest.raises(PreconditionError, match="support"):
        compute_cacq_quotas(strict, x, y)


def test_quota_revision_rejects_unseated_pinned_student(cacq_2x2):
    strict = _prep(cacq_2x2)
    x = {"e11": F(1), "e12": F(0), "e21": F(0), "e22": F(0)}
    y = {e.id: 0 for e in strict.edges}
    with pytest.raises(PreconditionError, match="lost the seat"):
        compute_cacq_quotas(strict, x, y)


def test_verify_empty_matching_all_edges_block(cacq_2x2):
    norm = normalize_cacq(cacq_2x2)
    quotas = {cs.id: cs.quota for cs in norm.sets}
    report = verify_cacq(norm, quotas, {})
    assert set(report.blocking_edges) == {e.id for e in norm.edges}


def test_verify_two_by_two_solution_is_stable(cacq_2x2):
    norm = normalize_cacq(cacq_2x2)
    quotas = {cs.id: cs.quota for cs in norm.sets}
    report = verify_cacq(norm, quotas, {"e11": 1})
    assert report.ok  # s2 is shut out by the common quota filled with s1


def test_verify_flags_quota_violation(cacq_2x2):
    norm = normalize_cacq(cacq_2x2)
    quotas = {cs.id: cs.quota for cs in norm.sets}
    report = verify_cacq(norm, quotas, {"e11": 1, "e22": 1})
    assert "common" in report.quota_violations


def test_classical_admission_da_outcome_stable():
    """Memberships = 1 reduces to classical college admission."""
    men = {"s0": ["c0", "c1"], "s1": ["c0", "c1"]}
    women = {"c0": ["s1", "s0"], "c1": ["s0", "s1"]}
    edges = tuple(CacqEdge(f"{s}:{c}", s, c) for s in men for c in men[s])
    inst = CacqInstance(
        students=("s0", "s1"),
        colleges=("c0", "c1"),
        edges=edges,
        college_quotas={"c0": 1, "c1": 1},
        college_prefs={c: WeakOrder(tuple((s,) for s in women[c])) for c in women},
        sets=(),
        student_prefs={
            s: WeakOrder(tuple((f"{s}:{c}",) for c in men[s])) for s in men
        },
    )
    norm = normalize_cacq(inst)
    quotas = {cs.id: cs.quota for cs in norm.sets}
    da_edges = deferred_acceptance(men, women)
    report = verify_cacq(norm, quotas, {eid: 1 for eid in da_edges})
    assert report.ok


def _reference_verify_cacq(inst, quotas, matching):
    """Blocking by rescanning every used alternative over Fraction, kept as an independent oracle.

    This is the verifier `verify_cacq` replaced: loads are Fraction sums
    compared with the quotas, a student improves when some used edge ranks
    strictly below the candidate, and each full set containing the college
    looks for a strictly worse admitted student.
    """
    values = {e.id: Fraction(matching.get(e.id, 0)) for e in inst.edges}
    value_violations = tuple(eid for eid, v in values.items() if v < 0 or v > 1)
    sets_of = {c: [cs for cs in inst.sets if c in cs.colleges] for c in inst.colleges}
    student_loads = {s: F(0) for s in inst.students}
    set_loads = {cs.id: F(0) for cs in inst.sets}
    assigned = {cs.id: set() for cs in inst.sets}
    for e in inst.edges:
        student_loads[e.student] += values[e.id]
        for cs in sets_of[e.college]:
            set_loads[cs.id] += values[e.id]
            if values[e.id] > 0:
                assigned[cs.id].add(e.student)
    student_violations = tuple(s for s in inst.students if student_loads[s] > 1)
    quota_violations = tuple(cs.id for cs in inst.sets if set_loads[cs.id] > quotas[cs.id])
    student_ranks = {s: inst.student_prefs[s].ranks() for s in inst.students}
    master_ranks = {cs.id: cs.master.ranks() for cs in inst.sets}
    blocking = []
    for e in inst.edges:
        rank = student_ranks[e.student]
        improves = student_loads[e.student] < 1 or any(values[other] > 0 and rank[e.id] < rank[other] for other in rank)
        if not improves:
            continue
        all_sets_open = True
        for cs in sets_of[e.college]:
            if set_loads[cs.id] < quotas[cs.id]:
                continue
            master_rank = master_ranks[cs.id]
            if any(master_rank[e.student] < master_rank[s2] for s2 in assigned[cs.id] if s2 in master_rank):
                continue
            all_sets_open = False
            break
        if all_sets_open:
            blocking.append(e.id)
    return CacqReport(tuple(blocking), quota_violations, student_violations, value_violations)


def test_verify_cacq_against_fraction_reference():
    """Equal reports on weak orders, zero quotas, overlapping sets, mixed denominators and overloads."""
    rng = random.Random(909)
    pool = [0, 0, 1, 1, F(1, 2), F(1, 3), F(2, 3), F(1, 4), F(3, 4), F(1, 6), F(5, 6), F(2, 5), F(-1, 3), F(5, 4), 2]
    seen = {"blocking": 0, "quota": 0, "student": 0, "value": 0, "fractional full": 0}
    for trial in range(600):
        if trial % 3:
            inst = normalize_cacq(rand_cacq(rng, max_s=6, max_c=5))
        else:
            inst = normalize_cacq(cyclic_sets_cacq(trial) if trial % 2 else overlapping_sets_instance())
        if validate(inst):
            continue
        matching = {e.id: rng.choice(pool) for e in inst.edges if rng.random() < 0.7}
        set_loads = {
            cs.id: sum((F(matching.get(e.id, 0)) for e in inst.edges if e.college in cs.colleges), F(0))
            for cs in inst.sets
        }
        quotas = {cs.id: max(rng.choice([0, 1, 2, cs.quota, int(set_loads[cs.id])]), 0) for cs in inst.sets}
        report = verify_cacq(inst, quotas, matching)
        assert report == _reference_verify_cacq(inst, quotas, matching), (trial, matching, quotas)
        seen["blocking"] += bool(report.blocking_edges)
        seen["quota"] += bool(report.quota_violations)
        seen["student"] += bool(report.student_violations)
        seen["value"] += bool(report.value_violations)
        seen["fractional full"] += any(
            set_loads[cs.id] >= quotas[cs.id] and set_loads[cs.id].denominator > 1 for cs in inst.sets
        )
    assert min(seen.values()) > 50, seen


# -- full pipeline -------------------------------------------------------------


def test_solve_two_by_two(cacq_2x2):
    result = solve_cacq(cacq_2x2)
    assert result.revision.max_deviation() == 0
    assert result.matching["e11"] == 1  # s1 lands the top choice
    assert sum(result.matching.values()) == 1
    assert result.pinned == ("s1",)


def test_solve_memberships_one_bound():
    rng = random.Random(31)
    for trial in range(30):
        inst = rand_cacq(rng, memberships=1)
        if validate(inst):
            continue
        result = solve_cacq(inst)
        assert result.revision.max_deviation() <= 1, trial


def test_solve_memberships_two_bound_three():
    rng = random.Random(32)
    seen_dev = 0
    for trial in range(40):
        inst = rand_cacq(rng, memberships=2)
        if validate(inst):
            continue
        result = solve_cacq(inst)
        ell = normalize_cacq(inst).max_memberships
        assert ell <= 2
        assert result.revision.max_deviation() <= 2 * ell - 1, trial
        seen_dev = max(seen_dev, result.revision.max_deviation())
    assert seen_dev <= 3


def test_solve_output_in_enumerated_stable_set(cacq_2x2):
    result = solve_cacq(cacq_2x2)
    norm = normalize_cacq(cacq_2x2)
    stable = enumerate_stable(norm, result.revision.revised)
    chosen = {eid for eid, v in result.matching.items() if v == 1}
    assert any({e for e, v in m.items() if v} == chosen for m in stable)


def test_solve_overlapping_sets_exercises_rounding():
    inst = overlapping_sets_instance()
    assert validate(inst) == []
    result = solve_cacq(inst)
    assert result.rounding_steps  # the fractional point forces real rounding work
    assert any(v.denominator > 1 for v in result.fractional.values())
    ell = normalize_cacq(inst).max_memberships
    assert ell == 3
    assert result.revision.max_deviation() <= 2 * ell - 1
    norm = normalize_cacq(inst)
    assert verify_cacq(norm, result.revision.revised, result.matching).ok


def test_solve_deterministic(cacq_2x2):
    assert solve_cacq(cacq_2x2).certificate == solve_cacq(cacq_2x2).certificate


def test_student_loads_never_exceed_one():
    rng = random.Random(33)
    for _ in range(25):
        inst = rand_cacq(rng)
        if validate(inst):
            continue
        result = solve_cacq(inst)
        loads = {}
        for e in inst.edges:
            loads[e.student] = loads.get(e.student, 0) + result.matching[e.id]
        assert all(v <= 1 for v in loads.values())
