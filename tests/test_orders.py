import pytest
from hypothesis import given, strategies as st

from nearstable.errors import InputError
from nearstable.orders import WeakOrder, break_ties, strict_order


def test_strict_input_unchanged():
    order = WeakOrder((("a",), ("b",), ("c",)))
    assert break_ties(order, {"a": 0, "b": 1, "c": 2}) == order


def test_tie_group_broken_by_fallback():
    order = WeakOrder((("e2", "e5"),))
    out = break_ties(order, {"e2": 2, "e5": 5})
    assert out.tie_groups == (("e2",), ("e5",))


def test_fallback_order_not_declaration_order():
    order = WeakOrder((("x", "y"),))
    out = break_ties(order, {"x": 9, "y": 1})
    assert out.tie_groups == (("y",), ("x",))


def test_empty_order_allowed():
    order = WeakOrder(())
    assert order.universe == frozenset()
    assert order.is_strict
    assert break_ties(order, {}) == order


def test_duplicate_alternative_rejected():
    with pytest.raises(InputError):
        WeakOrder((("a",), ("a",)))


def test_empty_group_rejected():
    with pytest.raises(InputError):
        WeakOrder((("a",), ()))


def test_rank_and_comparisons():
    order = WeakOrder((("a", "b"), ("c",)))
    assert order.ranks() == {"a": 0, "b": 0, "c": 1}
    assert not order.is_strict


def test_strict_order_builder():
    assert strict_order(["x", "y"]).tie_groups == (("x",), ("y",))


@st.composite
def weak_orders(draw):
    n = draw(st.integers(min_value=0, max_value=8))
    ids = [f"i{k}" for k in range(n)]
    groups = []
    current = []
    for alt in ids:
        current.append(alt)
        if draw(st.booleans()):
            groups.append(tuple(current))
            current = []
    if current:
        groups.append(tuple(current))
    return WeakOrder(tuple(groups))


@given(weak_orders())
def test_break_ties_is_strict_refinement(order):
    fallback = {a: i for i, a in enumerate(sorted(order.universe))}
    out = break_ties(order, fallback)
    assert out.is_strict
    assert out.universe == order.universe
    before = order.ranks()
    after = out.ranks()
    for a in order.universe:
        for b in order.universe:
            if before[a] < before[b]:
                assert after[a] < after[b]


@given(weak_orders())
def test_break_ties_deterministic(order):
    fallback = {a: i for i, a in enumerate(sorted(order.universe))}
    assert break_ties(order, fallback) == break_ties(order, fallback)
