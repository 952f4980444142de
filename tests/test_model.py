import random

from conftest import triangle_instance, two_by_two_cacq
from nearstable.model import (
    CacqEdge,
    CacqInstance,
    CapacityRevision,
    CollegeSet,
    HyperEdge,
    HypergraphInstance,
    _orders_consistent,
    normalize_cacq,
    validate,
)
from nearstable.orders import WeakOrder


def test_wellformed_triangle_validates_clean():
    assert validate(triangle_instance()) == []


def test_dangling_vertex_reference():
    inst = HypergraphInstance(
        vertices=("a",),
        edges=(HyperEdge("e", ("a", "zz")),),
        capacities={"a": 1},
        preferences={"a": WeakOrder((("e",),))},
    )
    rules = {v.rule for v in validate(inst)}
    assert "dangling-reference" in rules


def test_fractional_capacity_rejected():
    inst = HypergraphInstance(
        vertices=("a",),
        edges=(),
        capacities={"a": 1.5},
        preferences={"a": WeakOrder(())},
    )
    rules = {v.rule for v in validate(inst)}
    assert "capacity-not-integer" in rules


def test_preference_universe_mismatch_flagged():
    inst = HypergraphInstance(
        vertices=("a", "b"),
        edges=(HyperEdge("e", ("a", "b")),),
        capacities={"a": 1, "b": 1},
        preferences={"a": WeakOrder((("e",),)), "b": WeakOrder(())},
    )
    rules = {v.rule for v in validate(inst)}
    assert "preference-incomplete" in rules


def test_multigraph_parallel_edges_allowed():
    inst = HypergraphInstance(
        vertices=("a", "b"),
        edges=(HyperEdge("e1", ("a", "b")), HyperEdge("e2", ("a", "b"))),
        capacities={"a": 1, "b": 1},
        preferences={
            "a": WeakOrder((("e1",), ("e2",))),
            "b": WeakOrder((("e2",), ("e1",))),
        },
    )
    assert validate(inst) == []


def test_master_list_inconsistency_detected():
    # master ranks s2 above s1 while the member college ranks s1 above s2
    inst = CacqInstance(
        students=("s1", "s2"),
        colleges=("c1",),
        edges=(CacqEdge("e1", "s1", "c1"), CacqEdge("e2", "s2", "c1")),
        college_quotas={"c1": 1},
        college_prefs={"c1": WeakOrder((("s1",), ("s2",)))},
        sets=(CollegeSet("F", ("c1",), 1, WeakOrder((("s2",), ("s1",)))),),
        student_prefs={
            "s1": WeakOrder((("e1",),)),
            "s2": WeakOrder((("e2",),)),
        },
    )
    violations = validate(inst)
    assert any(v.rule == "master-list-inconsistent" for v in violations)


def test_master_tie_vs_member_strict_is_inconsistent():
    inst = CacqInstance(
        students=("s1", "s2"),
        colleges=("c1",),
        edges=(CacqEdge("e1", "s1", "c1"), CacqEdge("e2", "s2", "c1")),
        college_quotas={"c1": 1},
        college_prefs={"c1": WeakOrder((("s1",), ("s2",)))},
        sets=(CollegeSet("F", ("c1",), 1, WeakOrder((("s1", "s2"),))),),
        student_prefs={
            "s1": WeakOrder((("e1",),)),
            "s2": WeakOrder((("e2",),)),
        },
    )
    assert any(v.rule == "master-list-inconsistent" for v in validate(inst))


def test_smf_self_loop_rejected():
    from nearstable.model import Arc, Commodity, FlowInstance

    inst = FlowInstance(
        vertices=("s", "t"),
        arcs=(Arc("a", "s", "s"),),
        commodities=(Commodity("s", "t"),),
        capacity={"a": 1},
        commodity_capacity={("a", 1): 1},
        vertex_prefs={("s", 1): WeakOrder((("a",),)), ("t", 1): WeakOrder(())},
        arc_prefs={"a": WeakOrder(((1,),))},
    )
    assert any(v.rule == "self-loop" for v in validate(inst))


# -- normalization -----------------------------------------------------------


def _bare_cacq(n_colleges=2):
    colleges = tuple(f"c{i}" for i in range(1, n_colleges + 1))
    edges = tuple(CacqEdge(f"e{i}", "s1", c) for i, c in enumerate(colleges))
    return CacqInstance(
        students=("s1",),
        colleges=colleges,
        edges=edges,
        college_quotas={c: 1 for c in colleges},
        college_prefs={c: WeakOrder((("s1",),)) for c in colleges},
        sets=(),
        student_prefs={"s1": WeakOrder(tuple((e.id,) for e in edges))},
    )


def test_normalize_adds_singletons():
    inst = _bare_cacq(2)
    norm = normalize_cacq(inst)
    assert len(norm.sets) == 2
    assert all(len(cs.colleges) == 1 for cs in norm.sets)
    assert norm.max_memberships == 1


def test_normalize_idempotent():
    norm = normalize_cacq(_bare_cacq(3))
    assert normalize_cacq(norm) == norm


def test_normalize_hungarian_style_two_memberships():
    inst = two_by_two_cacq()
    norm = normalize_cacq(inst)
    # each college sits in its singleton plus the common faculty set
    assert norm.max_memberships == 2
    assert len(norm.sets) == 3


def test_capacity_revision_deviations():
    rev = CapacityRevision(original={"a": 1, "b": 2}, revised={"a": 3, "b": 1})
    assert rev.max_deviation() == 2
    assert rev.sum_deviation() == 1


def test_capacity_revision_bounds():
    rev = CapacityRevision(original={"a": 1, "b": 2, "c": 4}, revised={"a": 3, "b": 1, "c": 1})
    assert rev.bounds("v", 2) == {
        "max_allowed": 2,
        "max_deviation": 3,
        "violations": [{"v": "c", "deviation": -3}],
    }
    assert rev.bounds("v", 3, signed_sum=True) == {
        "max_allowed": 3,
        "max_deviation": 3,
        "sum_allowed": 3,
        "sum_deviation": -2,
        "violations": [{"sum": -2}],
    }


def test_capacity_revision_empty():
    rev = CapacityRevision(original={}, revised={})
    assert rev.max_deviation() == 0
    assert rev.sum_deviation() == 0


def _pairwise_disagreements(master: WeakOrder, member: WeakOrder) -> list[tuple]:
    """Every shared pair the two orders compare differently, by definition."""
    shared = sorted(master.universe & member.universe, key=str)
    mr, cr = master.ranks(), member.ranks()

    def sign(r, a, b):
        return (r[a] > r[b]) - (r[a] < r[b])

    return [(a, b) for i, a in enumerate(shared) for b in shared[i + 1 :] if sign(mr, a, b) != sign(cr, a, b)]


def _random_weak_order(rng: random.Random, alts: list) -> WeakOrder:
    alts = rng.sample(alts, len(alts))
    groups, start = [], 0
    while start < len(alts):
        size = rng.choice([1, 1, 1, 2, 3])
        groups.append(tuple(alts[start : start + size]))
        start += size
    return WeakOrder(tuple(groups))


def test_orders_consistent_matches_pairwise_definition():
    rng = random.Random(31)
    outcomes = {"consistent": 0, "inconsistent": 0}
    for trial in range(600):
        member = _random_weak_order(rng, [f"s{i}" for i in rng.sample(range(12), rng.randint(0, 8))])
        extra = [f"t{i}" for i in range(rng.randint(0, 4))]
        if rng.random() < 0.5:
            master = _random_weak_order(rng, list(member.universe) + extra)
        else:
            # The member's groups in order, with outside students in new groups or
            # joined to existing ones: consistent unless a tie is split below.
            groups = [list(g) for g in member.tie_groups]
            for t in extra:
                if groups and rng.random() < 0.5:
                    rng.choice(groups).append(t)
                else:
                    groups.insert(rng.randint(0, len(groups)), [t])
            if groups and rng.random() < 0.3:
                group = groups.pop(rng.randrange(len(groups)))
                if len(group) > 1:
                    groups.append(group[1:])
                    group = group[:1]
                groups.insert(rng.randint(0, len(groups)), group)
            master = WeakOrder(tuple(tuple(g) for g in groups if g))
        expected = _pairwise_disagreements(master, member)
        assert _orders_consistent(master.ranks(), member.ranks()) == expected, (trial, master, member)
        outcomes["inconsistent" if expected else "consistent"] += 1
    assert min(outcomes.values()) > 150, outcomes
