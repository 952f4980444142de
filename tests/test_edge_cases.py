"""Edge cases cutting across modules: odd shapes, collisions, degeneracy."""

import itertools
import random
from fractions import Fraction

import pytest

from conftest import is_vertex
from nearstable.cacq import solve_cacq, verify_cacq
from nearstable.errors import InputError
from nearstable.model import (
    Arc,
    CacqEdge,
    CacqInstance,
    Commodity,
    FlowInstance,
    HyperEdge,
    HypergraphInstance,
    normalize_cacq,
    validate,
)
from nearstable.orders import WeakOrder
from nearstable.polytope import LinearRow, LinearSystem, extreme_point, sparse
from nearstable.shm import add_saturation_gadget, solve_shm, verify_shm
from nearstable.smf import verify_flow

F = Fraction


def test_gadget_id_collision_is_bumped():
    inst = HypergraphInstance(
        vertices=("a",),
        edges=(HyperEdge("a~g1", ("a",)),),  # clashes with the generated name
        capacities={"a": 1},
        preferences={"a": WeakOrder((("a~g1",),))},
    )
    gadgeted = add_saturation_gadget(inst)
    ids = [e.id for e in gadgeted.edges]
    assert len(ids) == len(set(ids)) == 2
    result = solve_shm(inst)
    assert verify_shm(inst, result.revision.revised, result.matching).ok


def test_isolated_vertices_with_capacity():
    inst = HypergraphInstance(
        vertices=("a", "b", "lonely"),
        edges=(HyperEdge("e", ("a", "b")),),
        capacities={"a": 1, "b": 1, "lonely": 2},
        preferences={
            "a": WeakOrder((("e",),)),
            "b": WeakOrder((("e",),)),
            "lonely": WeakOrder(()),
        },
    )
    result = solve_shm(inst)
    assert result.matching == {"e": 1}
    assert result.revision.revised == inst.capacities


def test_edgeless_instance():
    inst = HypergraphInstance(
        vertices=("a", "b"),
        edges=(),
        capacities={"a": 2, "b": 1},
        preferences={"a": WeakOrder(()), "b": WeakOrder(())},
    )
    result = solve_shm(inst)
    assert result.matching == {}
    assert result.revision.revised == inst.capacities


def test_verify_shm_guards_against_bad_inputs(triangle):
    with pytest.raises(InputError, match="capacities missing"):
        verify_shm(triangle, {"a": 1}, {})
    with pytest.raises(InputError, match="unknown edges"):
        verify_shm(triangle, triangle.capacities, {"nope": 1})


def test_cacq_student_without_options():
    inst = CacqInstance(
        students=("s1", "s2"),
        colleges=("c1",),
        edges=(CacqEdge("e1", "s1", "c1"),),
        college_quotas={"c1": 1},
        college_prefs={"c1": WeakOrder((("s1",),))},
        sets=(),
        student_prefs={"s1": WeakOrder((("e1",),)), "s2": WeakOrder(())},
    )
    assert validate(inst) == []
    result = solve_cacq(inst)
    assert result.matching == {"e1": 1}
    assert result.revision.max_deviation() == 0


def test_cacq_verify_guards(cacq_2x2):
    norm = normalize_cacq(cacq_2x2)
    with pytest.raises(InputError, match="quotas missing"):
        verify_cacq(norm, {}, {})
    quotas = {cs.id: cs.quota for cs in norm.sets}
    with pytest.raises(InputError, match="unknown edges"):
        verify_cacq(norm, quotas, {"ghost": 1})


def test_smf_zero_commodity_capacity_arc():
    inst = FlowInstance(
        vertices=("s", "t"),
        arcs=(Arc("a", "s", "t"), Arc("b", "s", "t")),
        commodities=(Commodity("s", "t"),),
        capacity={"a": 1, "b": 1},
        commodity_capacity={("a", 1): 0, ("b", 1): 1},
        vertex_prefs={
            ("s", 1): WeakOrder((("a",), ("b",))),
            ("t", 1): WeakOrder((("a",), ("b",))),
        },
        arc_prefs={"a": WeakOrder(((1,),)), "b": WeakOrder(((1,),))},
    )
    assert validate(inst) == []
    # arc a is unusable for the only commodity; saturating b is stable
    report = verify_flow(inst, {("b", 1): F(1)})
    assert report.stable
    report_zero = verify_flow(inst, {})
    assert not report_zero.stable
    assert report_zero.blocking_walks[0].arcs == ("b",)


def test_smf_blocking_walk_may_repeat_vertices():
    # figure-eight shape: the only route from s to t passes through m twice
    arcs = (
        Arc("a1", "s", "m"),
        Arc("a2", "m", "u"),
        Arc("a3", "u", "m"),
        Arc("a4", "m", "t"),
    )
    prefs = {}
    touch = {"s": ["a1"], "m": ["a1", "a2", "a3", "a4"], "u": ["a2", "a3"], "t": ["a4"]}
    for v, incident in touch.items():
        prefs[(v, 1)] = WeakOrder(tuple((a,) for a in incident))
    inst = FlowInstance(
        vertices=("s", "m", "u", "t"),
        arcs=arcs,
        commodities=(Commodity("s", "t"),),
        capacity={a.id: 1 for a in arcs},
        commodity_capacity={(a.id, 1): 1 for a in arcs},
        vertex_prefs=prefs,
        arc_prefs={a.id: WeakOrder(((1,),)) for a in arcs},
    )
    assert validate(inst) == []
    report = verify_flow(inst, {})
    assert not report.stable
    # the search returns a simple witness (s, a1, m, a4, t); arc-repeating
    # walks never add blocking power, so this is complete
    walk = report.blocking_walks[0]
    assert walk.vertices[0] == "s" and walk.vertices[-1] == "t"
    assert walk.arcs == ("a1", "a4")


def test_smf_verify_flow_guards():
    inst = FlowInstance(
        vertices=("s", "t"),
        arcs=(Arc("a", "s", "t"),),
        commodities=(Commodity("s", "t"),),
        capacity={"a": 1},
        commodity_capacity={("a", 1): 1},
        vertex_prefs={("s", 1): WeakOrder((("a",),)), ("t", 1): WeakOrder((("a",),))},
        arc_prefs={"a": WeakOrder(((1,),))},
    )
    with pytest.raises(InputError, match="capacities missing"):
        verify_flow(inst, {}, capacity={})


def test_birkhoff_polytope_degenerate_pivoting():
    """Assignment polytope: heavy degeneracy, vertices are permutations."""
    n = 3
    rng = random.Random(77)
    for _ in range(10):
        cost = [[F(rng.randint(-4, 6)) for _ in range(n)] for _ in range(n)]
        rows = []
        for i in range(n):  # row sums
            coeffs = [0] * (n * n)
            for j in range(n):
                coeffs[i * n + j] = 1
            rows.append(LinearRow(sparse(coeffs), "eq", 1))
        for j in range(n):  # column sums
            coeffs = [0] * (n * n)
            for i in range(n):
                coeffs[i * n + j] = 1
            rows.append(LinearRow(sparse(coeffs), "eq", 1))
        sys_ = LinearSystem(n * n, tuple(rows), (F(0),) * (n * n), (F(1),) * (n * n))
        warm = tuple(F(1, n) for _ in range(n * n))  # the doubly stochastic center
        objective = tuple(cost[i][j] for i in range(n) for j in range(n))
        pt = extreme_point(sys_, objective, warm)
        assert is_vertex(sys_, pt)
        assert all(v in (F(0), F(1)) for v in pt)  # permutation matrix
        value = sum(o * x for o, x in zip(objective, pt))
        best = max(
            sum(cost[i][perm[i]] for i in range(n))
            for perm in itertools.permutations(range(n))
        )
        assert value == best


def test_marriage_with_incomplete_lists():
    # m1 finds only w1 acceptable; w1 prefers m2; m1 ends unmatched
    inst = HypergraphInstance(
        vertices=("m1", "m2", "w1"),
        edges=(HyperEdge("m1:w1", ("m1", "w1")), HyperEdge("m2:w1", ("m2", "w1"))),
        capacities={"m1": 1, "m2": 1, "w1": 1},
        preferences={
            "m1": WeakOrder((("m1:w1",),)),
            "m2": WeakOrder((("m2:w1",),)),
            "w1": WeakOrder((("m2:w1",), ("m1:w1",))),
        },
    )
    result = solve_shm(inst)
    assert result.matching == {"m1:w1": 0, "m2:w1": 1}
    assert result.revision.revised == inst.capacities
