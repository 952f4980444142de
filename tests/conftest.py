"""Shared instance builders and independent oracles for the test suite."""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd
from operator import mul

import pytest

from nearstable.model import (
    Arc,
    CacqEdge,
    CacqInstance,
    CollegeSet,
    Commodity,
    FlowInstance,
    HyperEdge,
    HypergraphInstance,
)
from nearstable.errors import InternalError
from nearstable.orders import WeakOrder
from nearstable.polytope import (
    ZERO,
    LinearRow,
    LinearSystem,
    _check_bounds,
    _check_rows,
    _echelon,
    _constraints,
    _null_vector,
    _solution,
    extreme_point,
    int_dot,
    scale,
    sparse,
)
from nearstable.smf import flow_size


def exact_rank(vectors) -> int:
    """Rank of a list of rational row vectors: the rows the elimination kernel keeps."""
    return len(_echelon(sparse(scale(vec)[0]) for vec in vectors))


def nullspace_vector(vectors, dim: int) -> list[Fraction] | None:
    """Some nonzero w with v . w = 0 for every rational vector v, or None if none exists."""
    w = _null_vector(_echelon(sparse(scale(vec)[0]) for vec in vectors), dim)
    if w is None:
        return None
    nums, den = w
    return [Fraction(v, den) for v in nums]


def solve_square(matrix, rhs) -> list[Fraction]:
    """Solve M x = rhs for a square nonsingular rational M, exactly."""
    nums, den = _solution((sparse(scale([*row, -b])[0]) for row, b in zip(matrix, rhs)), len(matrix))
    return [Fraction(v, den) for v in nums]


def dense_echelon(rows) -> list[tuple[int, int, list[int]]]:
    """The elimination kernel over dense integer rows, kept as the reference for the sparse one.

    Rows are reduced in input order against the rows kept so far: with `b`
    a kept row and `lead` its first nonzero column, the row becomes
    `b[lead]*row - row[lead]*b`.  A row left nonzero is divided by its
    content and kept as (input index, lead column, row).
    """
    kept = []
    for index, row in enumerate(rows):
        for _, lead, b in kept:
            factor = row[lead]
            if factor:
                piv = b[lead]
                row = [piv * r - factor * c for r, c in zip(row, b)]
        lead = next((c for c, v in enumerate(row) if v), None)
        if lead is None:
            continue
        content = gcd(*row)
        if content != 1:
            row = [v // content for v in row]
        kept.append((index, lead, row))
    return kept


def always_resolve_rounding(start, rows, rule, upper, objective=None, trace=None):
    """The rounding loop with an LP solve on every step, kept as the reference for `iterative_rounding`.

    Every step hands all the imposed rows to `_constraints` and calls
    `extreme_point`, whether or not the deleted row touches a fractional
    coordinate; the records, trace lines and result must be the ones the
    loop that skips unchanged LPs gives.
    """
    n = len(start)
    nums, den = scale(start)
    free = [j for j in range(n) if nums[j] % den]
    newly = [j for j in range(n) if not nums[j] % den]
    values = [0] * n
    active = list(range(len(rows)))
    bounds = (0,) * n, (upper,) * n
    steps = []
    gain, gain_den = scale(objective) if objective is not None else ([0] * n, 1)
    value = sum(map(mul, gain, nums)), den

    while free:
        if len(steps) == len(rows):
            raise InternalError("rounding exceeded the deletion bound")
        fractional = set(free)
        choice = rule((nums, den), fractional, active)
        if choice is None:
            raise InternalError("no deletable row although the vector is fractional")
        index, deleted, kind, label = choice
        active.remove(index)
        if not steps:
            _check_rows(rows, n)
        for j in newly:
            values[j] = nums[j] // den
            _check_bounds(j, values[j], 0, upper)
        red = _constraints([rows[i] for i in active], free, values, 1, *bounds)
        moved, den = extreme_point(red, [gain[j] for j in free], ([nums[j] for j in free], den))
        nums = [v * den for v in values]
        for j, v in zip(free, moved):
            nums[j] = v
        newly = [j for j in free if not nums[j] % den]
        free = [j for j in free if nums[j] % den]
        step = {"deleted": deleted, "kind": kind, "fractional": len(fractional)}
        line = f"round step {len(steps) + 1}: delete {label}, fractional={len(fractional)}"
        if objective is not None:
            before, value = value, (sum(map(mul, gain, nums)), den)
            if value[0] * before[1] < before[0] * value[1]:
                raise InternalError("rounding objective decreased")
            shown = Fraction(value[0], gain_den * den)
            step["objective"] = str(shown)
            line += f", objective={shown}"
        steps.append(step)
        if trace is not None:
            trace(line)
    result = [v // den for v in nums]
    if steps:
        for i in active:
            lhs, rhs = int_dot(rows[i].coeffs, result), rows[i].rhs
            if lhs > rhs or (rows[i].relation == "eq" and lhs != rhs):
                raise InternalError("rounded vector violates an imposed row")
        if min(result) < 0 or (upper is not None and max(result) > upper):
            raise InternalError("rounded vector violates its bounds")
    return result, steps


def rational_row(dense, relation: str, rhs) -> LinearRow:
    """A rational dense row and its rhs, both times the lcm of their denominators."""
    nums, _ = scale([Fraction(rhs), *map(Fraction, dense)])
    return LinearRow(sparse(nums[1:]), relation, nums[0])


def integer_system(sys: LinearSystem):
    """The integer constraints `extreme_point` solves for `sys`, and the unfixed variables they are over."""
    free = [j for j in range(sys.num_vars) if j not in sys.fixed]
    value, den = scale([sys.fixed.get(j, ZERO) for j in range(sys.num_vars)])
    return _constraints(sys.rows, free, value, den, sys.lower, sys.upper), free


def is_feasible(sys: LinearSystem, x) -> bool:
    """x satisfies the fixed values, the bounds and every row, evaluated in Fraction arithmetic."""
    if any(x[j] != v for j, v in sys.fixed.items()):
        return False
    if any(x[j] < sys.lower[j] or (sys.upper[j] is not None and x[j] > sys.upper[j]) for j in range(sys.num_vars)):
        return False
    for r in sys.rows:
        lhs = sum((c * x[j] for j, c in r.coeffs), ZERO)
        if lhs > r.rhs or (r.relation == "eq" and lhs != r.rhs):
            return False
    return True


def rank_of_tight_rows(sys: LinearSystem, x) -> int:
    """Exact rank of the constraint rows (bounds included) tight at x, fixed variables substituted out."""
    red, free = integer_system(sys)
    return len(_echelon(red.constraints[k][0] for k in red.tight(red.slacks(scale([x[j] for j in free])))))


def is_vertex(sys: LinearSystem, x) -> bool:
    """x is feasible and its tight rows have rank equal to the number of unfixed variables."""
    return is_feasible(sys, x) and rank_of_tight_rows(sys, x) == sum(
        1 for j in range(sys.num_vars) if j not in sys.fixed
    )


def aggregate_size(inst: FlowInstance, flow) -> Fraction:
    """The flow's size summed over all commodities."""
    return sum((flow_size(inst, flow, j) for j in range(1, inst.num_commodities + 1)), ZERO)


def triangle_instance() -> HypergraphInstance:
    """Odd cycle with cyclic strict preferences: no stable matching at q = 1."""
    return HypergraphInstance(
        vertices=("a", "b", "c"),
        edges=(
            HyperEdge("ab", ("a", "b")),
            HyperEdge("bc", ("b", "c")),
            HyperEdge("ca", ("c", "a")),
        ),
        capacities={"a": 1, "b": 1, "c": 1},
        preferences={
            "a": WeakOrder((("ab",), ("ca",))),
            "b": WeakOrder((("bc",), ("ab",))),
            "c": WeakOrder((("ca",), ("bc",))),
        },
    )


def marriage_instance(men_prefs, women_prefs) -> HypergraphInstance:
    """Bipartite one-to-one instance over men m0.. and women w0.. .

    Preference arguments map each agent to its ranked partners, e.g.
    {"m0": ["w0", "w1"], ...}; edge ids are "m:w".
    """
    men = sorted(men_prefs)
    women = sorted(women_prefs)
    edges = []
    for m in men:
        for w in men_prefs[m]:
            edges.append(HyperEdge(f"{m}:{w}", (m, w)))
    prefs = {}
    for m in men:
        prefs[m] = WeakOrder(tuple((f"{m}:{w}",) for w in men_prefs[m]))
    for w in women:
        prefs[w] = WeakOrder(tuple((f"{m}:{w}",) for m in women_prefs[w]))
    return HypergraphInstance(
        vertices=tuple(men + women),
        edges=tuple(edges),
        capacities={v: 1 for v in men + women},
        preferences=prefs,
    )


def deferred_acceptance(men_prefs, women_prefs) -> set[str]:
    """Textbook proposer-optimal matching; returns edge ids "m:w"."""
    women_rank = {w: {m: i for i, m in enumerate(order)} for w, order in women_prefs.items()}
    next_choice = {m: 0 for m in men_prefs}
    engaged: dict[str, str] = {}
    free = sorted(men_prefs)
    while free:
        m = free.pop(0)
        if next_choice[m] >= len(men_prefs[m]):
            continue
        w = men_prefs[m][next_choice[m]]
        next_choice[m] += 1
        current = engaged.get(w)
        if current is None:
            engaged[w] = m
        elif women_rank[w][m] < women_rank[w][current]:
            engaged[w] = m
            free.append(current)
            free.sort()
        else:
            free.append(m)
            free.sort()
    return {f"{m}:{w}" for w, m in engaged.items()}


def two_by_two_cacq() -> CacqInstance:
    """Two students, two colleges, full acceptability, one common set."""
    edges = (
        CacqEdge("e11", "s1", "c1"),
        CacqEdge("e12", "s1", "c2"),
        CacqEdge("e21", "s2", "c1"),
        CacqEdge("e22", "s2", "c2"),
    )
    master = WeakOrder((("s1",), ("s2",)))
    return CacqInstance(
        students=("s1", "s2"),
        colleges=("c1", "c2"),
        edges=edges,
        college_quotas={"c1": 1, "c2": 1},
        college_prefs={"c1": master, "c2": master},
        sets=(CollegeSet("common", ("c1", "c2"), 1, master),),
        student_prefs={
            "s1": WeakOrder((("e11",), ("e12",))),
            "s2": WeakOrder((("e21",), ("e22",))),
        },
    )


def single_arc_flow_instance(k: int = 2) -> FlowInstance:
    """One arc s -> t shared by k commodities; the arc prefers commodity 1."""
    order = WeakOrder(tuple((j,) for j in range(1, k + 1)))
    return FlowInstance(
        vertices=("s", "t"),
        arcs=(Arc("a", "s", "t"),),
        commodities=tuple(Commodity("s", "t") for _ in range(k)),
        capacity={"a": 1},
        commodity_capacity={("a", j): 1 for j in range(1, k + 1)},
        vertex_prefs={(v, j): WeakOrder((("a",),)) for v in ("s", "t") for j in range(1, k + 1)},
        arc_prefs={"a": order},
    )


def _strict(ids) -> WeakOrder:
    return WeakOrder(tuple((i,) for i in ids))


def odd_cycles_instance(seed: int, count: int = 3, cross: int = 2) -> HypergraphInstance:
    """Disjoint copies of the triangle plus `cross` random edges between them.

    Every triangle alone has no stable matching at capacity 1, so Scarf
    returns halves and iterative rounding has work to do.  Cross edges are
    inserted at random positions of both end vertices' lists.
    """
    rng = random.Random(seed)
    vertices, edges, prefs = [], [], {}
    for t in range(count):
        a, b, c = f"t{t}a", f"t{t}b", f"t{t}c"
        vertices += [a, b, c]
        edges += [HyperEdge(f"t{t}ab", (a, b)), HyperEdge(f"t{t}bc", (b, c)), HyperEdge(f"t{t}ca", (c, a))]
        prefs[a], prefs[b], prefs[c] = [f"t{t}ab", f"t{t}ca"], [f"t{t}bc", f"t{t}ab"], [f"t{t}ca", f"t{t}bc"]
    pairs = set()
    while len(pairs) < cross:
        u, v = sorted(rng.sample(vertices, 2))
        if u[:-1] != v[:-1]:
            pairs.add((u, v))
    for i, (u, v) in enumerate(sorted(pairs)):
        edges.append(HyperEdge(f"x{i}", (u, v)))
        for w in (u, v):
            prefs[w].insert(rng.randrange(len(prefs[w]) + 1), f"x{i}")
    return HypergraphInstance(
        tuple(vertices), tuple(edges), {v: 1 for v in vertices}, {v: _strict(prefs[v]) for v in vertices}
    )


def uniform3_instance(seed: int, num_vertices: int = 8, num_edges: int = 10) -> HypergraphInstance:
    """Random 3-uniform hypergraph with strict random preferences, capacity 1."""
    rng = random.Random(seed)
    vertices = tuple(f"v{i}" for i in range(num_vertices))
    members: list[tuple[str, ...]] = []
    while len(members) < num_edges:
        key = tuple(sorted(rng.sample(vertices, 3)))
        if key not in members:
            members.append(key)
    edges = tuple(HyperEdge(f"h{i}", key) for i, key in enumerate(members))
    prefs = {v: [e.id for e in edges if v in e.vertices] for v in vertices}
    for v in vertices:
        rng.shuffle(prefs[v])
    return HypergraphInstance(vertices, edges, {v: 1 for v in vertices}, {v: _strict(prefs[v]) for v in vertices})


def overlapping_sets_instance() -> CacqInstance:
    """Overlapping quota sets whose fractional stable point is not integral."""
    edges = tuple(
        CacqEdge(f"{s}:{c}", s, c)
        for s, c in [
            ("s0", "c0"), ("s0", "c1"), ("s1", "c2"), ("s1", "c3"),
            ("s2", "c0"), ("s2", "c2"), ("s2", "c3"),
        ]
    )
    return CacqInstance(
        students=("s0", "s1", "s2"),
        colleges=("c0", "c1", "c2", "c3"),
        edges=edges,
        college_quotas={"c0": 1, "c1": 1, "c2": 2, "c3": 1},
        college_prefs={
            "c0": WeakOrder((("s2",), ("s0",))),
            "c1": WeakOrder((("s0",),)),
            "c2": WeakOrder((("s2",), ("s1",))),
            "c3": WeakOrder((("s1",), ("s2",))),
        },
        sets=(
            CollegeSet("F0", ("c0", "c1", "c3"), 2, WeakOrder((("s1",), ("s2",), ("s0",)))),
            CollegeSet("F1", ("c0", "c1", "c2"), 2, WeakOrder((("s2",), ("s0",), ("s1",)))),
        ),
        student_prefs={
            "s0": WeakOrder((("s0:c1", "s0:c0"),)),
            "s1": WeakOrder((("s1:c2", "s1:c3"),)),
            "s2": WeakOrder((("s2:c0",), ("s2:c3", "s2:c2"))),
        },
    )


def _linear_extension(lists, students) -> list[str]:
    """Every student of `lists`, keeping each list's order; lower index first on ties."""
    pending = [list(order) for order in lists]
    placed = []
    while any(pending):
        heads = {order[0] for order in pending if order}
        s = min((s for s in heads if all(s not in order[1:] for order in pending)), key=students.index)
        placed.append(s)
        pending = [[t for t in order if t != s] for order in pending]
    return placed


def cyclic_sets_cacq(seed: int, num_students: int = 5) -> CacqInstance:
    """Three colleges under the non-laminar faculty sets {c0,c1}, {c1,c2}, {c0,c2}.

    With each college's own singleton set every college lies in three sets
    (L = 3).  College lists are drawn at random and redrawn until every two
    agree on their shared students, so each set's master list can be a
    linear extension of its members' lists.  Non-laminar quota sets need
    not admit a stable matching, so some seeds make the rounding run.
    """
    rng = random.Random(seed)
    colleges = ("c0", "c1", "c2")
    pairs = (("c0", "c1"), ("c1", "c2"), ("c0", "c2"))
    students = tuple(f"s{i}" for i in range(num_students))
    while True:
        applied = {s: [c for c in colleges if rng.random() < 0.6] for s in students}
        lists = {c: [s for s in students if c in applied[s]] for c in colleges}
        for c in colleges:
            rng.shuffle(lists[c])
        if all(
            [s for s in lists[a] if s in lists[b]] == [s for s in lists[b] if s in lists[a]] for a, b in pairs
        ):
            break
    sets = tuple(
        CollegeSet(f"F{t}", members, rng.randint(1, 2), _strict(_linear_extension([lists[c] for c in members], students)))
        for t, members in enumerate(pairs)
    )
    student_prefs = {}
    for s in students:
        ids = [f"{s}:{c}" for c in applied[s]]
        rng.shuffle(ids)
        student_prefs[s] = _strict(ids)
    return CacqInstance(
        students=students,
        colleges=colleges,
        edges=tuple(CacqEdge(f"{s}:{c}", s, c) for s in students for c in applied[s]),
        college_quotas={c: rng.randint(1, 2) for c in colleges},
        college_prefs={c: _strict(lists[c]) for c in colleges},
        sets=sets,
        student_prefs=student_prefs,
    )


@pytest.fixture
def triangle():
    return triangle_instance()


@pytest.fixture
def cacq_2x2():
    return two_by_two_cacq()
