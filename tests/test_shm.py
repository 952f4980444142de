import random
from fractions import Fraction

import pytest

from conftest import deferred_acceptance, marriage_instance, triangle_instance
from nearstable.errors import PreconditionError
from nearstable.model import HyperEdge, HypergraphInstance
from nearstable.oracle import enumerate_near_feasible, enumerate_stable
from nearstable.orders import WeakOrder
from nearstable.scarf import solve_scarf, verify_dominating
from nearstable.shm import (
    ShmReport,
    add_saturation_gadget,
    break_instance_ties,
    build_shm_scarf,
    compute_shm_capacities,
    round_shm,
    solve_shm,
    strip_gadget,
    verify_shm,
)

F = Fraction


def single_vertex_instance(q=1):
    return HypergraphInstance(
        vertices=("v",),
        edges=(),
        capacities={"v": q},
        preferences={"v": WeakOrder(())},
    )


def rand_instance(rng, max_v=6, ell=3, tie_rate=0.0, min_cap=0):
    nv = rng.randint(2, max_v)
    vertices = tuple(f"v{i}" for i in range(nv))
    edges = []
    for i in range(rng.randint(1, 9)):
        size = rng.randint(1, min(ell, nv))
        edges.append(HyperEdge(f"e{i}", tuple(sorted(rng.sample(vertices, size)))))
    caps = {v: rng.choice([min_cap, 1, 1, 2]) for v in vertices}
    prefs = {}
    for v in vertices:
        incident = [e.id for e in edges if v in e.vertices]
        rng.shuffle(incident)
        groups = []
        for eid in incident:
            if groups and rng.random() < tie_rate:
                groups[-1] = groups[-1] + (eid,)
            else:
                groups.append((eid,))
        prefs[v] = WeakOrder(tuple(groups))
    return HypergraphInstance(vertices, tuple(edges), caps, prefs)


# -- saturation gadget --------------------------------------------------------


def test_gadget_noop_for_zero_capacities():
    inst = HypergraphInstance(
        vertices=("a", "b"),
        edges=(HyperEdge("e", ("a", "b")),),
        capacities={"a": 0, "b": 0},
        preferences={"a": WeakOrder((("e",),)), "b": WeakOrder((("e",),))},
    )
    assert add_saturation_gadget(inst).edges == inst.edges


def test_gadget_adds_one_singleton_per_capacity_unit(triangle):
    gadgeted = add_saturation_gadget(triangle)
    assert len(gadgeted.edges) == 6
    new = gadgeted.edges[3:]
    assert all(len(e.vertices) == 1 for e in new)
    assert {e.vertices[0] for e in new} == {"a", "b", "c"}
    # gadget edges sit strictly at the bottom of the owner's order
    for v in triangle.vertices:
        groups = gadgeted.preferences[v].tie_groups
        assert groups[: len(triangle.preferences[v].tie_groups)] == triangle.preferences[v].tie_groups
        assert all(len(g) == 1 for g in groups[len(triangle.preferences[v].tie_groups):])


def test_gadget_order_worst_first_in_declared_order():
    inst = single_vertex_instance(q=3)
    gadgeted = add_saturation_gadget(inst)
    ids = [e.id for e in gadgeted.edges]
    assert gadgeted.preferences["v"].tie_groups == tuple((i,) for i in ids)


def test_gadget_keeps_max_edge_size():
    tri = triangle_instance()
    assert add_saturation_gadget(tri).max_edge_size == tri.max_edge_size == 2


def test_gadgeted_fractional_stable_matchings_saturate(triangle):
    """Sampled feasible fractional vectors: stable implies fully saturated."""
    gadgeted = add_saturation_gadget(break_instance_ties(triangle))
    build = build_shm_scarf(gadgeted)
    scarf_point = build.expand(solve_scarf(build.problem))
    rng = random.Random(0)
    edges = [e.id for e in gadgeted.edges]
    samples = [scarf_point]
    for _ in range(400):
        samples.append({eid: F(rng.randint(0, 4), 4) for eid in edges})
    for _ in range(200):
        perturbed = dict(scarf_point)
        eid = rng.choice(edges)
        perturbed[eid] = F(rng.randint(0, 4), 4)
        samples.append(perturbed)
    found_stable = 0
    for values in samples:
        report = verify_shm(gadgeted, gadgeted.capacities, values)
        if report.ok:
            found_stable += 1
            loads = {v: sum(values[e.id] for e in gadgeted.edges if v in e.vertices) for v in gadgeted.vertices}
            assert loads == {v: F(gadgeted.capacities[v]) for v in gadgeted.vertices}
    assert found_stable > 0


# -- scarf matrix construction ------------------------------------------------


def test_build_triangle_is_six_by_three(triangle):
    build = build_shm_scarf(triangle)
    assert build.problem.num_rows == 6
    assert build.problem.num_cols == 3
    assert build.problem.bounds == (F(1),) * 6


def test_build_single_vertex_with_gadget_edge():
    gadgeted = add_saturation_gadget(single_vertex_instance(q=1))
    build = build_shm_scarf(gadgeted)
    assert build.problem.rows == (((0, F(1)),), ((0, F(1)),))
    assert build.problem.bounds == (F(1), F(1))


def test_build_prefixes_zero_capacity_vertices():
    inst = HypergraphInstance(
        vertices=("a", "b"),
        edges=(HyperEdge("e0", ("a", "b")), HyperEdge("e1", ("b",))),
        capacities={"a": 0, "b": 1},
        preferences={"a": WeakOrder((("e0",),)), "b": WeakOrder((("e0",), ("e1",)))},
    )
    build = build_shm_scarf(inst)
    assert build.fixed_zero == ("e0",)
    assert build.columns == ("e1",)
    # only b's vertex row and the identity row of e1 remain
    assert build.problem.rows == (((0, F(1)),), ((0, F(1)),))


def test_dominating_iff_stable_on_sampled_vectors():
    """Feasible vectors dominate every column exactly when no edge blocks."""
    rng = random.Random(3)
    for _ in range(40):
        inst = rand_instance(rng, max_v=4, ell=3, min_cap=1)
        build = build_shm_scarf(inst)
        for _ in range(30):
            x = [F(rng.randint(0, 4), 4) for _ in build.columns]
            report = verify_dominating(build.problem, x)
            if not (report.nonnegative and report.within_bounds):
                continue
            values = dict(zip(build.columns, x))
            stable = not verify_shm(inst, inst.capacities, values).blocking_edges
            assert report.ok == stable


# -- rounding and capacities --------------------------------------------------


def test_round_integral_input_is_identity(triangle):
    gadgeted = add_saturation_gadget(triangle)
    x = {e.id: F(0) for e in gadgeted.edges}
    # saturate with gadget edges only: loads must equal capacities
    for e in gadgeted.edges[3:]:
        x[e.id] = F(1)
    y, steps = round_shm(gadgeted, x)
    assert steps == []
    assert y == {eid: int(v) for eid, v in x.items()}


def test_round_requires_tight_rows(triangle):
    gadgeted = add_saturation_gadget(triangle)
    with pytest.raises(PreconditionError):
        round_shm(gadgeted, {e.id: F(0) for e in gadgeted.edges})


def test_round_triangle_structure(triangle):
    gadgeted = add_saturation_gadget(break_instance_ties(triangle))
    build = build_shm_scarf(gadgeted)
    x = build.expand(solve_scarf(build.problem))
    y, _ = round_shm(gadgeted, x)
    real = [eid for eid in ("ab", "bc", "ca") if y[eid] == 1]
    assert len(real) == 2
    # total matched capacity exceeds the original sum by exactly one
    loads = {v: sum(y[e.id] for e in gadgeted.edges if v in e.vertices) for v in gadgeted.vertices}
    assert sum(loads.values()) == sum(triangle.capacities.values()) + 1


def test_capacities_tight_rows_give_original(triangle):
    gadgeted = add_saturation_gadget(triangle)
    x = {e.id: F(1) if len(e.vertices) == 1 else F(0) for e in gadgeted.edges}
    rev = compute_shm_capacities(gadgeted, x, {k: int(v) for k, v in x.items()})
    assert rev.revised == rev.original


def test_capacities_triangle_example(triangle):
    x = {"ab": F(1, 2), "bc": F(1, 2), "ca": F(1, 2)}
    y = {"ab": 1, "bc": 1, "ca": 0}
    rev = compute_shm_capacities(triangle, x, y)
    assert rev.revised == {"a": 1, "b": 2, "c": 1}


def test_capacities_max_clause_for_loose_rows(triangle):
    x = {"ab": F(1, 2), "bc": F(0), "ca": F(0)}  # only a and b partially loaded
    y = {"ab": 0, "bc": 0, "ca": 0}
    rev = compute_shm_capacities(triangle, x, y)
    assert rev.revised == triangle.capacities  # max clause keeps originals


def test_capacities_precondition_checked(triangle):
    x = {"ab": F(1), "bc": F(0), "ca": F(0)}
    with pytest.raises(PreconditionError):
        compute_shm_capacities(triangle, x, {"ab": 0, "bc": 0, "ca": 0})


def test_strip_gadget():
    assert strip_gadget({"e": 1, "v~g1": 1}, ("v~g1",)) == {"e": 1}
    assert strip_gadget({"e": 1}, ()) == {"e": 1}


def test_single_vertex_gadget_matching_strips_to_stable_empty():
    inst = HypergraphInstance(
        vertices=("v",),
        edges=(HyperEdge("e", ("v",)),),
        capacities={"v": 1},
        preferences={"v": WeakOrder((("e",),))},
    )
    result = solve_shm(inst)
    assert verify_shm(inst, result.revision.revised, result.matching).ok


# -- verifier -----------------------------------------------------------------


def test_empty_matching_every_edge_blocks(triangle):
    report = verify_shm(triangle, triangle.capacities, {})
    assert set(report.blocking_edges) == {"ab", "bc", "ca"}


def test_triangle_revised_matching_is_stable(triangle):
    report = verify_shm(triangle, {"a": 1, "b": 2, "c": 1}, {"ab": 1, "bc": 1})
    assert report.ok


def test_da_outcome_verifies_stable():
    men = {"m0": ["w0", "w1"], "m1": ["w1", "w0"]}
    women = {"w0": ["m1", "m0"], "w1": ["m0", "m1"]}
    inst = marriage_instance(men, women)
    matching = {eid: 1 for eid in deferred_acceptance(men, women)}
    assert verify_shm(inst, inst.capacities, matching).ok


def test_verifier_reports_capacity_violation(triangle):
    report = verify_shm(triangle, triangle.capacities, {"ab": 1, "ca": 1})
    assert "a" in report.capacity_violations


def test_verifier_handles_weak_orders():
    inst = HypergraphInstance(
        vertices=("a", "b"),
        edges=(HyperEdge("e0", ("a", "b")), HyperEdge("e1", ("a", "b"))),
        capacities={"a": 1, "b": 1},
        preferences={
            "a": WeakOrder((("e0", "e1"),)),
            "b": WeakOrder((("e0", "e1"),)),
        },
    )
    # with everything tied, holding either edge is stable
    assert verify_shm(inst, inst.capacities, {"e0": 1}).ok
    assert verify_shm(inst, inst.capacities, {"e1": 1}).ok


def _reference_verify_shm(inst, capacities, matching):
    """Blocking by rescanning every used edge over Fraction, kept as an independent oracle.

    This is the verifier `verify_shm` replaced: loads are Fraction sums
    compared with the capacities, and each (edge, saturated vertex) pair
    looks for a strictly worse edge held.
    """
    values = {e.id: Fraction(matching.get(e.id, 0)) for e in inst.edges}
    value_violations = tuple(eid for eid, v in values.items() if v < 0 or v > 1)
    loads = {v: F(0) for v in inst.vertices}
    for e in inst.edges:
        for v in e.vertices:
            loads[v] += values[e.id]
    capacity_violations = tuple(v for v in inst.vertices if loads[v] > capacities[v])
    ranks = {v: inst.preferences[v].ranks() for v in inst.vertices}
    incident = inst.incident()
    blocking = []
    for e in inst.edges:
        if values[e.id] >= 1:
            continue
        blocks = True
        for v in e.vertices:
            if loads[v] < capacities[v]:
                continue  # unsaturated: this vertex does not object
            rank = ranks[v]
            if not any(values[other] > 0 and rank[other] > rank[e.id] for other in incident[v]):
                blocks = False
                break
        if blocks:
            blocking.append(e.id)
    return ShmReport(tuple(blocking), capacity_violations, value_violations)


def test_verify_shm_against_fraction_reference():
    """Equal reports on weak orders, zero capacities, mixed denominators, values outside [0, 1] and overloads."""
    rng = random.Random(808)
    pool = [0, 0, 1, 1, F(1, 2), F(1, 3), F(2, 3), F(1, 4), F(3, 4), F(1, 6), F(5, 6), F(2, 5), F(-1, 3), F(5, 4), 2]
    seen = {"blocking": 0, "capacity": 0, "value": 0, "fractional saturated": 0}
    for trial in range(600):
        inst = rand_instance(rng, tie_rate=0.4)
        matching = {e.id: rng.choice(pool) for e in inst.edges if rng.random() < 0.85}
        loads = {v: sum((F(matching.get(e.id, 0)) for e in inst.edges if v in e.vertices), F(0)) for v in inst.vertices}
        capacities = {v: max(rng.choice([0, 1, 2, int(loads[v]), int(loads[v]) + 1]), 0) for v in inst.vertices}
        report = verify_shm(inst, capacities, matching)
        assert report == _reference_verify_shm(inst, capacities, matching), (trial, matching, capacities)
        seen["blocking"] += bool(report.blocking_edges)
        seen["capacity"] += bool(report.capacity_violations)
        seen["value"] += bool(report.value_violations)
        seen["fractional saturated"] += any(
            loads[v] >= capacities[v] and loads[v].denominator > 1 for v in inst.vertices
        )
    assert min(seen.values()) > 50, seen


def test_verify_shm_reads_other_numbers_as_fractions(triangle):
    """Ints and Fractions are scaled as given; floats, strings and bools as the Fractions they equal."""
    capacities = {"a": 1, "b": 1, "c": 1}
    for matching in ({"ab": 0.5, "bc": "1/2", "ca": True}, {"ab": 1, "bc": F(1, 2), "ca": False}, {"bc": 0.25}):
        as_fractions = {eid: F(v) for eid, v in matching.items()}
        assert verify_shm(triangle, capacities, matching) == verify_shm(triangle, capacities, as_fractions)


# -- the full pipeline --------------------------------------------------------


def test_solve_triangle_bounds_and_oracle_containment(triangle):
    result = solve_shm(triangle)
    # deviation is exactly one: the oracle shows no stable matching at q
    assert result.revision.max_deviation() == 1
    assert result.revision.sum_deviation() == 1
    assert verify_shm(triangle, result.revision.revised, result.matching).ok
    # oracle cross-check: the output pair appears among the enumerated ones
    pairs = enumerate_near_feasible(triangle, 1, 1)
    assert any(caps == result.revision.revised for caps, _ in pairs)
    stable_here = enumerate_stable(triangle, result.revision.revised)
    chosen = {eid for eid, v in result.matching.items() if v == 1}
    assert any({e for e, v in m.items() if v} == chosen for m in stable_here)


def test_solve_bipartite_keeps_capacities():
    men = {"m0": ["w0", "w1"], "m1": ["w0", "w1"]}
    women = {"w0": ["m1", "m0"], "w1": ["m0", "m1"]}
    inst = marriage_instance(men, women)
    result = solve_shm(inst)
    assert result.revision.revised == inst.capacities
    chosen = {eid for eid, v in result.matching.items() if v == 1}
    assert chosen == deferred_acceptance(men, women)  # unique stable matching here


def test_solve_with_ties_is_stable_on_original(triangle):
    inst = HypergraphInstance(
        vertices=triangle.vertices,
        edges=triangle.edges,
        capacities=dict(triangle.capacities),
        preferences={
            "a": WeakOrder((("ab", "ca"),)),
            "b": WeakOrder((("bc", "ab"),)),
            "c": WeakOrder((("ca", "bc"),)),
        },
    )
    result = solve_shm(inst)
    assert verify_shm(inst, result.revision.revised, result.matching).ok


def test_solve_fixtures_random_bounds_at_most_one():
    rng = random.Random(21)
    for trial in range(40):
        inst = rand_instance(rng, max_v=6, ell=2, tie_rate=0.3)
        result = solve_shm(inst)
        assert result.revision.max_deviation() <= 1, trial
        assert 0 <= result.revision.sum_deviation() <= 1, trial
        assert verify_shm(inst, result.revision.revised, result.matching).ok, trial


def test_solve_ell3_random_bounds_at_most_two():
    rng = random.Random(22)
    for trial in range(40):
        inst = rand_instance(rng, max_v=6, ell=3, tie_rate=0.3)
        result = solve_shm(inst)
        ell = max(inst.max_edge_size, 1)
        assert result.revision.max_deviation() <= ell - 1, trial
        assert 0 <= result.revision.sum_deviation() <= ell - 1, trial
        assert verify_shm(inst, result.revision.revised, result.matching).ok, trial


def test_solve_support_containment_and_promotion():
    rng = random.Random(23)
    for _ in range(25):
        inst = rand_instance(rng, max_v=5, ell=3)
        result = solve_shm(inst)
        for eid, v in result.gadget_matching.items():
            if v == 1:
                assert result.fractional[eid] > 0
            if result.fractional[eid] == 1:
                assert v == 1


def test_solve_q_zero_everywhere():
    inst = HypergraphInstance(
        vertices=("a", "b"),
        edges=(HyperEdge("e", ("a", "b")),),
        capacities={"a": 0, "b": 0},
        preferences={"a": WeakOrder((("e",),)), "b": WeakOrder((("e",),))},
    )
    result = solve_shm(inst)
    assert result.matching == {"e": 0}
    assert result.revision.revised == {"a": 0, "b": 0}
    assert verify_shm(inst, result.revision.revised, result.matching).ok


def test_solve_deterministic(triangle):
    assert solve_shm(triangle).certificate == solve_shm(triangle).certificate
