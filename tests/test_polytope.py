import hashlib
import itertools
import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, strategies as st

from conftest import (
    cyclic_sets_cacq,
    dense_echelon,
    exact_rank,
    integer_system,
    is_feasible,
    is_vertex,
    nullspace_vector,
    odd_cycles_instance,
    rank_of_tight_rows,
    rational_row,
    solve_square,
    uniform3_instance,
)
from nearstable import cacq, polytope, shm
from nearstable.cacq import solve_cacq
from nearstable.errors import InternalError, PreconditionError
from nearstable.polytope import (
    LinearRow,
    LinearSystem,
    _advance,
    _echelon,
    _max_step,
    extreme_point,
    iterative_rounding,
    scale,
    sparse,
)
from nearstable.shm import solve_shm

F = Fraction


def box(n, upper=F(1)):
    return LinearSystem(n, (), (F(0),) * n, (upper,) * n)


def test_all_variables_fixed_returns_fixed_point():
    sys_ = LinearSystem(2, (), (F(0), F(0)), (F(1), F(1)), fixed={0: F(1, 3), 1: F(1)})
    assert extreme_point(sys_, None, (F(1, 3), F(1))) == (F(1, 3), F(1))


def test_box_maximization_hits_all_ones():
    sys_ = box(3)
    assert extreme_point(sys_, (F(1),) * 3, (F(0),) * 3) == (F(1),) * 3


def test_aggregate_residual_forces_half():
    # one equality 2(x0 + x1 + x2) = 3 with x1 = 1 and x2 = 0 fixed
    sys_ = LinearSystem(
        3,
        (LinearRow(sparse((2, 2, 2)), "eq", 3),),
        (F(0),) * 3,
        (F(1),) * 3,
        fixed={1: F(1), 2: F(0)},
    )
    pt = extreme_point(sys_, (F(2), F(2), F(2)), (F(1, 2), F(1), F(0)))
    assert pt == (F(1, 2), F(1), F(0))
    assert rank_of_tight_rows(sys_, pt) == 1  # one unfixed variable


def test_interior_point_rank_zero():
    assert rank_of_tight_rows(box(2), (F(1, 2), F(1, 3))) == 0


def test_odd_cycle_rows_have_full_rank_at_half_point():
    rows = (
        LinearRow(sparse((1, 0, 1)), "eq", 1),
        LinearRow(sparse((1, 1, 0)), "eq", 1),
        LinearRow(sparse((0, 1, 1)), "eq", 1),
    )
    sys_ = LinearSystem(3, rows, (F(0),) * 3, (F(1),) * 3)
    half = (F(1, 2),) * 3
    assert rank_of_tight_rows(sys_, half) == 3
    assert is_vertex(sys_, half)


def test_midpoint_of_square_edge_is_not_vertex():
    sys_ = box(2)
    assert not is_vertex(sys_, (F(1, 2), F(0)))
    assert is_vertex(sys_, (F(0), F(0)))


def test_row_column_outside_num_vars_rejected():
    with pytest.raises(PreconditionError):
        LinearSystem(2, (LinearRow(sparse((1, 0, 1)), "le", 1),), (F(0),) * 2, (F(1),) * 2)


def test_fixed_key_outside_num_vars_rejected():
    with pytest.raises(PreconditionError, match="fixed variable 5 outside"):
        LinearSystem(2, (), (F(0),) * 2, (F(1),) * 2, fixed={5: F(1)})
    with pytest.raises(PreconditionError, match="fixed variable -1 outside"):
        LinearSystem(2, (), (F(0),) * 2, (F(1),) * 2, fixed={-1: F(1)})


def test_lower_bounds_need_one_entry_per_variable():
    for lower in ((F(0),), (F(0),) * 3):
        with pytest.raises(PreconditionError, match="one bound per variable"):
            LinearSystem(2, (), lower, (F(1),) * 2)


def test_upper_bounds_need_one_entry_per_variable():
    for upper in ((F(1),), (F(1), None, F(1))):
        with pytest.raises(PreconditionError, match="one bound per variable"):
            LinearSystem(2, (), (F(0),) * 2, upper)


def test_objective_needs_one_entry_per_variable():
    """Both the rational and the integer entry check the objective's length."""
    for objective in ((F(1),), (F(1),) * 3):
        with pytest.raises(PreconditionError, match="objective has"):
            extreme_point(box(2), objective, (F(1, 2), F(0)))
    red = polytope._Constraints(2, 0, [(((0, 1),), 1), (((1, 1),), 1)], 0, [])
    for objective in ([1], [1, 1, 1]):
        with pytest.raises(PreconditionError, match="objective has"):
            extreme_point(red, objective, ([0, 0], 1))
    assert extreme_point(red, [1, 1], ([0, 0], 1)) == ([1, 1], 1)


def test_rows_hold_ints_only():
    """A Fraction coefficient or rhs is rejected even when it is integral, and so is a bool."""
    bad = [(((0, F(1)),), 1), (((0, 1),), F(1)), (((0, F(1, 2)),), 1), (((0, True),), 1), (((0, 1),), True)]
    for coeffs, rhs in bad:
        with pytest.raises(PreconditionError):
            LinearSystem(1, (LinearRow(coeffs, "le", rhs),), (F(0),), (F(1),))
    assert LinearSystem(1, (LinearRow(((0, 2),), "le", 1),), (F(0),), (F(1),)).rows[0].rhs == 1


def _delete_first(point, fractional, active):
    return active[0], "r", "row", "row r"


def test_rounding_checks_the_values_it_fixes():
    """An integral coordinate is checked against its bounds when rounding fixes it."""
    rows = [LinearRow(sparse((0, 1, 1)), "le", 3)]
    z, steps = iterative_rounding([F(1), F(1, 2), F(1, 2)], rows, _delete_first, upper=1)
    assert z[0] == 1 and all(v in (0, 1) for v in z) and len(steps) == 1
    with pytest.raises(PreconditionError, match="fixed value for variable 0 violates its bounds"):
        iterative_rounding([F(2), F(1, 2), F(1, 2)], rows, _delete_first, upper=1)


def test_rounding_rejects_an_infeasible_start():
    """The step system is checked at the start point, rows with no fractional column as constants."""
    keep = [LinearRow(sparse((1, 1, 1)), "le", 1), LinearRow(sparse((1, 1)), "le", 2)]
    constant = [LinearRow(sparse((1,)), "le", 0), LinearRow(sparse((1, 1, 1)), "le", 3)]
    for start, rows in (([F(1, 2)] * 3, keep), ([F(1), F(1, 2), F(1, 2)], constant)):
        with pytest.raises(PreconditionError, match="warm start point is not feasible"):
            iterative_rounding(start, rows, lambda point, fractional, active: (1, "r", "row", "row r"), upper=1)


def test_parallel_to_equality():
    red = polytope._Constraints(3, 1, [(((0, 2), (2, 4)), 6), (((0, 1), (1, 1)), 1)], 2, [0, 1])
    assert red.parallel_to_equality([1, 0, 2]) and red.parallel_to_equality([-3, 0, -6])
    assert not red.parallel_to_equality([1, 0, 3])
    assert not red.parallel_to_equality([1, 1, 2])
    assert not red.parallel_to_equality([1, 1, 0])  # parallel to an inequality only
    zeros = polytope._Constraints(2, 1, [(((0, 0), (1, 0)), 0)], 1, [0])
    assert not zeros.parallel_to_equality([1, 1])


def test_rounding_rejects_a_step_that_leaves_the_feasible_region(monkeypatch):
    monkeypatch.setattr(polytope, "_vertex", lambda red, point, slacks, objective: ([-1] * red.n, 1))
    rows = [LinearRow(sparse((1, 1, 1)), "le", 2)]
    with pytest.raises(InternalError, match="pivoting left the feasible region"):
        iterative_rounding([F(1), F(1, 2), F(1, 2)], rows, _delete_first, upper=1)


def test_rounding_checks_its_result_against_the_imposed_rows(monkeypatch):
    """A step system that lost its rows is caught by the end check on the full rows."""
    real = polytope._constraints
    monkeypatch.setattr(polytope, "_constraints", lambda rows, *rest: real([], *rest))
    rows = [LinearRow(sparse((1, 1, 0)), "eq", 1), LinearRow(sparse((1, 1, 1)), "le", 2)]
    with pytest.raises(InternalError, match="rounded vector violates an imposed row"):
        iterative_rounding([F(1, 2)] * 3, rows, lambda point, fractional, active: (1, "r", "row", "row r"), upper=1)


def test_rounding_steps_solve_over_the_fractional_coordinates(monkeypatch):
    """`extreme_point` runs on step 1 and on each step whose deleted row touches a fractional
    coordinate, on a system with one variable per fractional coordinate; no other step calls it."""
    events = []
    entry, rounding = polytope.extreme_point, polytope.iterative_rounding

    def recording(sys_, objective, warm):
        events.append(("lp", sys_.n, len(warm[0]), len(objective)))
        return entry(sys_, objective, warm)

    def observed(start, rows, rule, **options):
        def recording_rule(point, fractional, active):
            choice = rule(point, fractional, active)
            touches = any(c and j in fractional for j, c in rows[choice[0]].coeffs)
            events.append(("step", len(fractional), touches))
            return choice

        return rounding(start, rows, recording_rule, **options)

    monkeypatch.setattr(polytope, "extreme_point", recording)
    monkeypatch.setattr(shm, "iterative_rounding", observed)
    monkeypatch.setattr(cacq, "iterative_rounding", observed)
    solved = skipped = 0
    for inst, solve in ((uniform3_instance(77), solve_shm), (cyclic_sets_cacq(42), solve_cacq)):
        events.clear()
        result = solve(inst)
        assert result.rounding_steps
        expected = []
        for number, step in enumerate(result.rounding_steps):
            touches = events[len(expected)][2]
            expected.append(("step", step["fractional"], touches))
            if number == 0 or touches:
                expected.append(("lp",) + (step["fractional"],) * 3)
                solved += number > 0
            else:
                skipped += 1
        assert events == expected
    assert solved and skipped


@st.composite
def _integer_matrices(draw):
    """Integer matrices with zero rows, repeated, proportional and summed rows and negative
    entries, each row marked for input with its zero coefficients stored or left out."""
    width = draw(st.integers(1, 6))
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(("fresh", "zero", "repeat", "multiple", "sum")))
        if kind == "fresh" or (kind != "zero" and not rows):
            rows.append(draw(st.lists(st.integers(-5, 5), min_size=width, max_size=width)))
        elif kind == "zero":
            rows.append([0] * width)
        elif kind == "repeat":
            rows.append(list(draw(st.sampled_from(rows))))
        elif kind == "multiple":
            factor = draw(st.integers(-3, 3).filter(bool))
            rows.append([factor * v for v in draw(st.sampled_from(rows))])
        else:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            rows.append([u - 2 * v for u, v in zip(a, b)])
    stored = draw(st.lists(st.booleans(), min_size=len(rows), max_size=len(rows)))
    return width, rows, stored


@given(_integer_matrices())
def test_sparse_kernel_matches_the_dense_reference(case):
    """`_echelon` keeps the indices, leads and rows the dense kernel keeps, stored zeros or not."""
    width, rows, stored = case
    kept = _echelon(tuple(enumerate(row)) if keep else sparse(row) for row, keep in zip(rows, stored))
    assert all(all(row.values()) for _, _, row in kept)
    assert [(index, lead, [row.get(j, 0) for j in range(width)]) for index, lead, row in kept] == dense_echelon(rows)


def test_zero_row_equality_leaves_the_objective_to_the_simplex():
    """An equality whose coefficients are all zero constrains nothing; the optimum is the box corner."""
    sys_ = LinearSystem(2, (LinearRow(((0, 0), (1, 0)), "eq", 0),), (F(0),) * 2, (F(1),) * 2)
    assert extreme_point(sys_, (F(1), F(1)), (F(0), F(0))) == (F(1), F(1))


def test_objective_parallel_to_an_equality_needs_no_simplex(monkeypatch):
    """Where the step objective is a multiple of an imposed equality, the simplex stops at once."""
    systems = []
    core = polytope._vertex

    def recording(red, point, slacks, objective):
        systems.append((red, point, slacks, objective))
        return core(red, point, slacks, objective)

    monkeypatch.setattr(polytope, "_vertex", recording)
    for seed in (0, 3):
        solve_shm(odd_cycles_instance(seed))
    solve_shm(uniform3_instance(77))
    parallel = 0
    for red, point, slacks, objective in systems:
        vertex, active = polytope._purify(red, point, slacks, objective)
        parallel += red.parallel_to_equality(objective)
        assert core(red, point, slacks, objective) == polytope._simplex(red, vertex, objective, active)
    assert 0 < parallel < len(systems)


def test_infeasible_warm_start_rejected():
    """A warm start outside a bound, of the wrong length or off a fixed value; fixed values breaking a constant row."""
    constant = LinearSystem(2, (LinearRow(sparse((1, 0)), "le", 0),), (F(0),) * 2, (F(1),) * 2, fixed={0: F(1, 2)})
    fixed = LinearSystem(2, (), (F(0),) * 2, (F(1),) * 2, fixed={0: F(1, 2)})
    cases = ((box(1), (F(2),)), (box(1), (F(0),) * 2), (fixed, (F(0), F(0))), (constant, (F(1, 2), F(0))))
    for sys_, warm in cases:
        with pytest.raises(PreconditionError, match="warm start point is not feasible"):
            extreme_point(sys_, None, warm)


def test_no_upper_bound_variables():
    # x0 <= x1 together with x1 <= 1 bounds the system without box uppers
    rows = (
        LinearRow(sparse((1, -1)), "le", 0),
        LinearRow(sparse((0, 1)), "le", 1),
    )
    sys_ = LinearSystem(2, rows, (F(0), F(0)), (None, None))
    pt = extreme_point(sys_, (F(1), F(0)), (F(0), F(0)))
    assert pt == (F(1), F(1))


def test_exact_linear_algebra_helpers():
    assert exact_rank([[F(1), F(2)], [F(2), F(4)]]) == 1
    assert exact_rank([]) == 0
    w = nullspace_vector([[F(1), F(1)]], 2)
    assert w is not None and any(v != 0 for v in w) and w[0] + w[1] == 0
    assert nullspace_vector([[F(1), F(0)], [F(0), F(1)]], 2) is None
    assert solve_square([[F(2), F(0)], [F(0), F(4)]], [F(1), F(1)]) == [F(1, 2), F(1, 4)]


def _fraction_elimination(vectors, dim):
    """Rank and null vector by Gaussian elimination over Fraction, kept as an independent oracle.

    Rows are reduced in input order; the null vector has a 1 in the
    lowest-index column without a pivot and is back-substituted in reverse
    order of insertion (None at full column rank).
    """
    basis = []
    for vec in vectors:
        row = [F(v) for v in vec]
        for b in basis:
            lead = next(i for i, x in enumerate(b) if x != 0)
            if row[lead] != 0:
                factor = row[lead] / b[lead]
                row = [r - factor * bb for r, bb in zip(row, b)]
        if any(x != 0 for x in row):
            basis.append(row)
    if len(basis) >= dim:
        return len(basis), None
    leads = [next(i for i, x in enumerate(b) if x != 0) for b in basis]
    w = [F(0)] * dim
    w[next(i for i in range(dim) if i not in leads)] = F(1)
    for b, lead in reversed(list(zip(basis, leads))):
        w[lead] = -sum((b[i] * w[i] for i in range(dim) if i != lead), F(0)) / b[lead]
    return len(basis), w


def _random_rational_rows(rng, width, rank, count):
    gens = [[F(rng.randint(-4, 4), rng.choice([1, 2, 3, 5, 7])) for _ in range(width)] for _ in range(rank)]
    return [
        [sum((F(rng.randint(-2, 2), rng.choice([1, 3, 4])) * g[j] for g in gens), F(0)) for j in range(width)]
        for _ in range(count)
    ]


def test_kernel_against_fraction_elimination():
    rng = random.Random(2024)
    for trial in range(400):
        width = rng.randint(1, 6)
        rows = _random_rational_rows(rng, width, rng.randint(0, width), rng.randint(0, 7))
        rank, w = _fraction_elimination(rows, width)
        assert exact_rank(rows) == rank, (trial, rows)
        assert nullspace_vector(rows, width) == w, (trial, rows)
    singular = 0
    for trial in range(300):
        n = rng.randint(1, 5)
        matrix = _random_rational_rows(rng, n, n if rng.random() < 0.7 else rng.randint(0, n - 1), n)
        rhs = [F(rng.randint(-5, 5), rng.choice([1, 2, 9])) for _ in range(n)]
        if _fraction_elimination(matrix, n)[0] < n:
            singular += 1
            with pytest.raises(InternalError):
                solve_square(matrix, rhs)
            continue
        # the solution is the null vector of [M | -rhs] scaled to last coordinate 1
        _, w = _fraction_elimination([row + [-b] for row, b in zip(matrix, rhs)], n + 1)
        x = solve_square(matrix, rhs)
        assert x == [v / w[n] for v in w[:n]], (trial, matrix, rhs)
        assert [sum((a * v for a, v in zip(row, x)), F(0)) for row in matrix] == rhs
    assert 30 <= singular <= 270


def _brute_vertices(sys_: LinearSystem):
    n = sys_.num_vars
    descs = [([dict(r.coeffs).get(j, F(0)) for j in range(n)], r.rhs) for r in sys_.rows]
    for j in range(n):
        low = [F(0)] * n
        low[j] = F(-1)
        descs.append((low, -sys_.lower[j]))
        if sys_.upper[j] is not None:
            up = [F(0)] * n
            up[j] = F(1)
            descs.append((up, sys_.upper[j]))
    vertices = set()
    for combo in itertools.combinations(range(len(descs)), n):
        mat = [descs[i][0] for i in combo]
        rhs = [descs[i][1] for i in combo]
        if exact_rank(mat) < n:
            continue
        x = solve_square(mat, rhs)
        if is_feasible(sys_, x):
            vertices.add(tuple(x))
    return vertices


def _integer_box_systems():
    """Seeded integer `<=` rows in the unit box, each with an objective."""
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(1, 4)
        rows = []
        for _ in range(rng.randint(0, 3)):
            coeffs = tuple(rng.randint(0, 2) for _ in range(n))
            if any(c != 0 for c in coeffs):
                rows.append(LinearRow(sparse(coeffs), "le", rng.randint(1, 3)))
        sys_ = LinearSystem(n, tuple(rows), (F(0),) * n, (F(1),) * n)
        yield sys_, tuple(F(rng.randint(-2, 3)) for _ in range(n))


def test_random_systems_against_vertex_enumeration():
    for sys_, obj in _integer_box_systems():
        pt = extreme_point(sys_, obj, (F(0),) * sys_.num_vars)
        assert is_vertex(sys_, pt)
        vertices = _brute_vertices(sys_)
        assert tuple(pt) in vertices
        value = sum(o * x for o, x in zip(obj, pt))
        assert value == max(sum(o * x for o, x in zip(obj, v)) for v in vertices)


def _warm_start_systems():
    """Seeded rational systems through a point x0 in the unit box, each with x0 and an objective."""
    rng = random.Random(11)
    for _ in range(80):
        n = rng.randint(2, 5)
        x0 = [min(F(rng.randint(0, 4), rng.choice([1, 2, 3, 4])), F(1)) for _ in range(n)]
        rows = []
        for _ in range(rng.randint(1, 3)):
            coeffs = tuple(F(rng.randint(0, 2)) for _ in range(n))
            if all(c == 0 for c in coeffs):
                continue
            lhs = sum(c * x for c, x in zip(coeffs, x0))
            if rng.random() < 0.5:
                rows.append(rational_row(coeffs, "eq", lhs))
            else:
                rows.append(rational_row(coeffs, "le", lhs + F(rng.randint(0, 2))))
        fixed = {}
        if rng.random() < 0.4:
            j = rng.randrange(n)
            fixed[j] = x0[j]
        sys_ = LinearSystem(n, tuple(rows), (F(0),) * n, (F(1),) * n, fixed=fixed)
        yield sys_, tuple(F(rng.randint(-2, 3)) for _ in range(n)), x0


def test_warm_start_value_never_decreases():
    for sys_, obj, x0 in _warm_start_systems():
        pt = extreme_point(sys_, obj, x0)
        assert is_vertex(sys_, pt)
        assert sum(o * x for o, x in zip(obj, pt)) >= sum(o * x for o, x in zip(obj, x0))
        # purification without an objective also lands on a vertex
        assert is_vertex(sys_, extreme_point(sys_, None, x0))
        # determinism
        assert extreme_point(sys_, obj, x0) == pt


def _rational(rng, low, high):
    return F(rng.randint(low * 6, high * 6), rng.randint(2, 6))


def _fraction_constraints(sys_: LinearSystem):
    """The reduced Bland-ordered constraints over Fraction, kept as an independent oracle.

    Dense rows over the unfixed variables with the fixed values moved into
    the rhs: equalities, `<=` rows, lower bounds as -x_i <= -lo_i, finite
    upper bounds.  A row with no unfixed column is a constant and is left out.
    """
    free = [j for j in range(sys_.num_vars) if j not in sys_.fixed]

    def reduced(row):
        coeffs = dict(row.coeffs)
        shift = sum((c * sys_.fixed[j] for j, c in coeffs.items() if j in sys_.fixed), F(0))
        return [coeffs.get(j, F(0)) for j in free], row.rhs - shift

    eq = [reduced(r) for r in sys_.rows if r.relation == "eq" and any(j not in sys_.fixed for j, _ in r.coeffs)]
    le = [reduced(r) for r in sys_.rows if r.relation == "le" and any(j not in sys_.fixed for j, _ in r.coeffs)]
    unit = [[F(int(i == k)) for i in range(len(free))] for k in range(len(free))]
    lower = [([-v for v in unit[i]], -sys_.lower[j]) for i, j in enumerate(free)]
    upper = [(unit[i], sys_.upper[j]) for i, j in enumerate(free) if sys_.upper[j] is not None]
    return free, len(eq), eq + le + lower + upper


def _with_fixed_rows(rng, sys_: LinearSystem, x):
    """The system with rows over its fixed columns only, each holding at x, at random positions."""
    rows = list(sys_.rows)
    fixed = sorted(sys_.fixed)
    for _ in range(rng.randint(0, 2) if fixed else 0):
        coeffs = [_rational(rng, -2, 2) if j in fixed else F(0) for j in range(sys_.num_vars)]
        lhs = sum((c * v for c, v in zip(coeffs, x)), F(0))
        if any(coeffs):
            relation, rhs = ("eq", lhs) if rng.random() < 0.3 else ("le", lhs + rng.choice([0, 1]))
            rows.insert(rng.randint(0, len(rows)), rational_row(coeffs, relation, rhs))
    return LinearSystem(sys_.num_vars, tuple(rows), sys_.lower, sys_.upper, fixed=sys_.fixed)


def _random_rational_system(rng):
    """A system with rational rows, bounds and fixed values around a rational point x.

    Some rows, bounds and fixed values are tight at x by construction.
    """
    n = rng.randint(1, 5)
    x = [_rational(rng, 0, 2) for _ in range(n)]
    lower = [x[j] - rng.choice([0, 0, F(1, 2), F(rng.randint(1, 5), rng.randint(2, 6))]) for j in range(n)]
    upper = [rng.choice([None, x[j], x[j] + F(rng.randint(1, 5), rng.randint(2, 6))]) for j in range(n)]
    fixed = {j: x[j] for j in range(n) if rng.random() < 0.3}
    rows = []
    for _ in range(rng.randint(0, 4)):
        coeffs = [_rational(rng, -2, 2) if rng.random() < 0.7 else F(0) for _ in range(n)]
        if not any(coeffs):
            continue
        lhs = sum((c * v for c, v in zip(coeffs, x)), F(0))
        if rng.random() < 0.3:
            rows.append(rational_row(coeffs, "eq", lhs))
        else:
            rows.append(rational_row(coeffs, "le", lhs + rng.choice([0, 0, _rational(rng, 0, 2)])))
    return LinearSystem(n, tuple(rows), tuple(lower), tuple(upper), fixed=fixed), x


def test_integer_kernel_against_fraction_evaluation():
    """`_constraints` rows, feasibility, tightness and the step test equal Fraction evaluation on rational systems."""
    rng = random.Random(31)
    steps = ties = dropped = 0
    for trial in range(400):
        sys_, x = _random_rational_system(rng)
        sys_ = _with_fixed_rows(rng, sys_, x)
        assert is_feasible(sys_, x), trial
        moved = [v + rng.choice([0, 0, F(1, 3), F(-1, 4), F(rng.randint(-6, 6), rng.randint(2, 6))]) for v in x]
        moved = [sys_.fixed.get(j, v) for j, v in enumerate(moved)]

        red, free = integer_system(sys_)
        reference_free, num_eq, reference = _fraction_constraints(sys_)
        assert free == reference_free and red.num_eq == num_eq and len(red.constraints) == len(reference)
        dropped += any(all(j in sys_.fixed for j, _ in r.coeffs) for r in sys_.rows)
        for k, (row, rhs) in enumerate(reference):
            row_k, rhs_k = red.constraints[k]
            integer = [*map(dict(row_k).get, range(red.n), [0] * red.n), rhs_k]
            lead = next(i for i, v in enumerate(row) if v)
            factor = F(integer[lead]) / row[lead]
            assert factor > 0 and integer == [factor * v for v in [*row, rhs]], (trial, k)
        xr = [x[j] for j in free]
        point = scale(xr)
        assert red.holds(red.slacks(point)), trial
        assert red.holds(red.slacks(scale([moved[j] for j in free]))) == is_feasible(sys_, moved), (trial, moved)

        def slack(k, at):
            row, rhs = reference[k]
            return rhs - sum((c * v for c, v in zip(row, at)), F(0))

        tight = [k for k in range(len(reference)) if k < num_eq or slack(k, xr) == 0]
        assert red.tight(red.slacks(point)) == tight, trial

        d = [rng.randint(-3, 3) for _ in free]
        skip = set(rng.sample(range(len(reference)), rng.randint(0, len(reference))))
        best_t, best_k = None, None
        for k in range(num_eq, len(reference)):
            speed = sum((c * v for c, v in zip(reference[k][0], d)), F(0))
            if k in skip or speed <= 0:
                continue
            t = slack(k, xr) / speed
            if best_t is not None and t == best_t:
                ties += 1
            if best_t is None or t < best_t:
                best_t, best_k = t, k
        assert _max_step(red, point, d, skip) == (best_t, best_k), (trial, d, skip)
        if best_t is not None:
            steps += 1
            nums, den = _advance(point, best_t, d)
            assert [F(v, den) for v in nums] == [v + best_t * dv for v, dv in zip(xr, d)]
            assert den == lcm(1, *(F(v, den).denominator for v in nums))
    assert steps >= 150 and ties >= 5 and dropped >= 50


def _rational_box_systems():
    """Seeded rational `<=` rows in the unit box, each with a rational objective."""
    rng = random.Random(17)
    for _ in range(60):
        n = rng.randint(1, 4)
        rows = []
        for _ in range(rng.randint(1, 3)):
            coeffs = tuple(F(rng.randint(0, 4), rng.randint(2, 6)) for _ in range(n))
            if any(c != 0 for c in coeffs):
                rows.append(rational_row(coeffs, "le", F(rng.randint(1, 9), rng.randint(2, 6))))
        sys_ = LinearSystem(n, tuple(rows), (F(0),) * n, (F(1),) * n)
        yield sys_, tuple(F(rng.randint(-2, 3), rng.randint(1, 4)) for _ in range(n))


def test_rational_systems_against_vertex_enumeration():
    """Rows with rational coefficients and rhs: the optimum is a brute-force vertex of best value."""
    for sys_, obj in _rational_box_systems():
        pt = extreme_point(sys_, obj, (F(0),) * sys_.num_vars)
        assert is_vertex(sys_, pt)
        vertices = _brute_vertices(sys_)
        assert tuple(pt) in vertices
        value = sum(o * x for o, x in zip(obj, pt))
        assert value == max(sum(o * x for o, x in zip(obj, v)) for v in vertices)


# sha256 over the vertices below, recorded before the rational adapter shared
# the rounding step's reducer: it pins which vertex wins each tie.
RATIONAL_VERTEX_DIGEST = "390092c1bd0b6d90ac932a284a57a91151a9c9524c400f27eb39e4023d59a01a"


def test_rational_vertices_are_pinned():
    """The exact vertex `extreme_point` returns on every seeded rational system, ties included.

    The objective of a `_random_rational_system` is nonpositive on each
    variable without an upper bound, so it is bounded on the system.
    """
    rng = random.Random(43)
    cases = []
    for _ in range(200):
        sys_, x = _random_rational_system(rng)
        obj = tuple(-abs(_rational(rng, -2, 2)) if up is None else _rational(rng, -2, 2) for up in sys_.upper)
        cases += [(sys_, None, x), (sys_, obj, x)]
    for sys_, obj, x0 in _warm_start_systems():
        cases += [(sys_, None, x0), (sys_, obj, x0)]
    for sys_, obj in itertools.chain(_integer_box_systems(), _rational_box_systems()):
        cases.append((sys_, obj, (F(0),) * sys_.num_vars))
    digest = hashlib.sha256()
    for sys_, obj, warm in cases:
        digest.update(f"{extreme_point(sys_, obj, warm)}\n".encode())
    assert digest.hexdigest() == RATIONAL_VERTEX_DIGEST
