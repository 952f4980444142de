import hashlib
import itertools
import random
from fractions import Fraction

import pytest

from conftest import deferred_acceptance, exact_rank, solve_square, triangle_instance
from nearstable import fileformat as ff
from nearstable.cacq import solve_cacq
from nearstable.errors import InputError, InternalError, ResourceLimitError
from nearstable.model import HypergraphInstance
from nearstable.oracle import GeneratorConfig, generate
from nearstable.scarf import (
    DominatingPoint,
    DominationReport,
    ScarfProblem,
    certify_extreme,
    make_problem,
    solve_scarf,
    verify_dominating,
)
from nearstable.shm import add_saturation_gadget, break_instance_ties, build_shm_scarf, solve_shm

F = Fraction


def triangle_problem() -> ScarfProblem:
    # columns: ab(0), bc(1), ca(2); rows: a, b, c, then the identity block
    rows = [
        [1, 0, 1],
        [1, 1, 0],
        [0, 1, 1],
        [1, 0, 0],
        [0, 1, 0],
        [0, 0, 1],
    ]
    orders = [(0, 2), (1, 0), (2, 1), (0,), (1,), (2,)]
    return make_problem(rows, [1] * 6, orders)


def marriage_problem(men_prefs, women_prefs):
    """Bipartite one-to-one instance as a Scarf problem; returns (problem, columns)."""
    men = sorted(men_prefs)
    women = sorted(women_prefs)
    columns = [(m, w) for m in men for w in men_prefs[m]]
    col = {p: i for i, p in enumerate(columns)}
    rows, orders = [], []
    for m in men:
        rows.append([1 if p[0] == m else 0 for p in columns])
        orders.append(tuple(col[(m, w)] for w in men_prefs[m]))
    for w in women:
        rows.append([1 if p[1] == w else 0 for p in columns])
        orders.append(tuple(col[(m, w)] for m in women_prefs[w] if (m, w) in col))
    for p in columns:
        rows.append([1 if q == p else 0 for q in columns])
        orders.append((col[p],))
    problem = make_problem(rows, [1] * len(rows), orders)
    return problem, columns


def test_one_by_one_trivial():
    problem = make_problem([[1]], [1], [(0,)])
    point = solve_scarf(problem)
    assert point.x == (F(1),)
    assert point.dominating_row == {0: 0}


def test_triangle_gives_half_point_with_expected_witnesses():
    point = solve_scarf(triangle_problem())
    assert point.x == (F(1, 2), F(1, 2), F(1, 2))
    # ab is dominated in b's row, bc in c's row, ca in a's row
    assert point.dominating_row == {0: 1, 1: 2, 2: 0}


def row_value(problem: ScarfProblem, i: int, x) -> Fraction:
    """Row i of the problem at x, over Fraction."""
    return sum((c * x[j] for j, c in problem.rows[i]), F(0))


def _dense(row, m):
    """A problem row's (column, value) pairs as a dense list of length m."""
    vec = [F(0)] * m
    for j, c in row:
        vec[j] = c
    return vec


def _enumerate_extreme_points(problem: ScarfProblem):
    """Oracle: all vertices of {Qx <= d, x >= 0} by exhaustive row selection."""
    m = problem.num_cols
    descs = [_dense(row, m) + [problem.bounds[i]] for i, row in enumerate(problem.rows)]
    for j in range(m):
        unit = [F(0)] * m
        unit[j] = F(-1)
        descs.append(unit + [F(0)])
    points = set()
    for combo in itertools.combinations(range(len(descs)), m):
        mat = [descs[i][:m] for i in combo]
        rhs = [descs[i][m] for i in combo]
        if exact_rank(mat) < m:
            continue
        x = solve_square(mat, rhs)
        if all(v >= 0 for v in x) and all(
            row_value(problem, i, x) <= problem.bounds[i] for i in range(problem.num_rows)
        ):
            points.add(tuple(x))
    return points


def test_triangle_point_is_among_enumerated_vertices():
    problem = triangle_problem()
    point = solve_scarf(problem)
    assert tuple(point.x) in _enumerate_extreme_points(problem)


def test_verify_dominating_fails_on_zero_vector():
    problem = triangle_problem()
    report = verify_dominating(problem, [F(0)] * 3)
    assert not report.ok
    assert all(not w for w in report.witnesses)


def test_verify_dominating_passes_on_half_point():
    problem = triangle_problem()
    report = verify_dominating(problem, [F(1, 2)] * 3)
    assert report.ok


def _reference_dominating(problem: ScarfProblem, x) -> DominationReport:
    """`verify_dominating` from its definition over Fraction, kept as an independent oracle.

    Row i witnesses column j when Q_ij > 0, row i is tight at x, and every
    column of row i that x uses (nonzero value) is weakly preferred to j.
    """
    x = [F(v) for v in x]
    values = [row_value(problem, i, x) for i in range(problem.num_rows)]
    witnesses = []
    for j in range(problem.num_cols):
        rows = []
        for i, row in enumerate(problem.rows):
            coeffs = dict(row)
            position = {k: p for p, k in enumerate(problem.row_orders[i])}
            if coeffs.get(j, 0) > 0 and values[i] == problem.bounds[i]:
                if all(position[k] <= position[j] for k in coeffs if x[k] != 0):
                    rows.append(i)
        witnesses.append(tuple(rows))
    return DominationReport(
        nonnegative=all(v >= 0 for v in x),
        within_bounds=all(v <= b for v, b in zip(values, problem.bounds)),
        witnesses=tuple(witnesses),
    )


def test_verify_dominating_against_definition():
    """Arbitrary rational points of random rational problems, often tight on a chosen row."""
    rng = random.Random(4242)
    entries = [0, 0, 0, 1, 2, F(1, 2), F(2, 3), F(5, 7), F(3, 4)]
    coords = [0, 0, 1, F(1, 2), F(1, 3), F(2, 5), F(3, 4), F(5, 6), F(7, 3), F(-1, 2)]
    seen = {"witness": 0, "fractional tight": 0, "ok": 0, "not within": 0, "negative": 0}
    for trial in range(300):
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        rows = [[rng.choice(entries) for _ in range(m)] for _ in range(n)]
        for j in range(m):
            if all(rows[i][j] == 0 for i in range(n)):
                rows[rng.randrange(n)][j] = F(3, 2)
        bounds = [rng.choice([1, 2, F(3, 2), F(5, 3), F(7, 4), F(1, 3)]) for _ in range(n)]
        orders = []
        for row in rows:
            order = [j for j in range(m) if row[j] != 0]
            rng.shuffle(order)
            orders.append(tuple(order))
        problem = make_problem(rows, bounds, orders)
        points = [solve_scarf(problem).x]
        for _ in range(6):
            x = [F(rng.choice(coords)) for _ in range(m)]
            i = rng.randrange(n)
            value = row_value(problem, i, x)
            if value > 0 and rng.random() < 0.8:
                x = [v * problem.bounds[i] / value for v in x]
            points.append(x)
        for x in points:
            report = verify_dominating(problem, x)
            assert report == _reference_dominating(problem, x), (trial, x)
            seen["witness"] += any(report.witnesses)
            seen["fractional tight"] += any(report.witnesses) and any(F(v).denominator > 1 for v in x)
            seen["ok"] += report.ok
            seen["not within"] += not report.within_bounds
            seen["negative"] += not report.nonnegative
    assert min(seen.values()) > 50, seen


def test_certify_extreme_examples():
    problem = triangle_problem()
    assert certify_extreme(problem, [F(0)] * 3)  # all nonnegativity rows tight
    assert certify_extreme(problem, [F(1, 2)] * 3)  # odd cycle rows have rank 3
    # a 2-d box: midpoint of an edge is not extreme
    square = make_problem([[1, 0], [0, 1]], [1, 1], [(0,), (1,)])
    assert not certify_extreme(square, [F(1, 2), F(0)])
    assert certify_extreme(square, [F(1), F(0)])


def _fraction_rank(vectors):
    """Rank by Gaussian elimination over Fraction, kept as an independent oracle."""
    basis = []
    for vec in vectors:
        row = list(vec)
        for b in basis:
            lead = next(i for i, x in enumerate(b) if x != 0)
            if row[lead] != 0:
                factor = row[lead] / b[lead]
                row = [r - factor * bb for r, bb in zip(row, b)]
        if any(x != 0 for x in row):
            basis.append(row)
    return len(basis)


def test_exact_rank_fraction_free_cases():
    assert exact_rank([[]]) == 0
    assert exact_rank([[F(0), F(0)]]) == 0
    # mixed denominators within and across rows
    assert exact_rank([[F(1, 2), F(1, 3)], [F(3, 4), F(1, 2)]]) == 1
    assert exact_rank([[F(1, 2), F(1, 3)], [F(3, 4), F(1, 5)]]) == 2
    assert exact_rank([[F(-2, 7), 1, F(5, 6)], [F(1, 7), F(-1, 2), F(-5, 12)], [0, 0, F(1, 9)]]) == 2
    # rank-deficient: the third row is the sum of the first two
    rows = [[F(1), F(2), F(0), F(3)], [F(0), F(1, 3), F(1), F(1)], [F(1), F(7, 3), F(1), F(4)]]
    assert exact_rank(rows) == 2
    assert exact_rank(rows + [[F(0), F(0), F(0), F(1, 11)]]) == 3
    # more rows than columns
    assert exact_rank([[2, 4], [1, 2], [3, 7], [5, 11]]) == 2
    # against the Fraction oracle on random low-rank matrices
    rng = random.Random(7)
    for trial in range(300):
        width = rng.randint(1, 7)
        gens = [[F(rng.randint(-3, 3), rng.choice([1, 2, 3, 7])) for _ in range(width)] for _ in range(rng.randint(1, 4))]
        rows = []
        for _ in range(rng.randint(1, 7)):
            coeffs = [F(rng.randint(-2, 2), rng.choice([1, 3, 5])) for _ in gens]
            rows.append([sum((k * g[j] for k, g in zip(coeffs, gens)), F(0)) for j in range(width)])
        assert exact_rank(rows) == _fraction_rank(rows), (trial, rows)


def _is_vertex_by_definition(problem: ScarfProblem, x) -> bool:
    """All tight matrix rows plus every unit row e_j with x_j = 0 have rank m."""
    m = problem.num_cols
    vectors = [_dense(problem.rows[i], m) for i in range(problem.num_rows) if row_value(problem, i, x) == problem.bounds[i]]
    for j in range(m):
        if x[j] == 0:
            vectors.append([F(1) if k == j else F(0) for k in range(m)])
    return _fraction_rank(vectors) == m


def test_certify_extreme_matches_full_rank_definition():
    rng = random.Random(2024)
    checked = {True: 0, False: 0}
    for trial in range(60):
        n = rng.randint(1, 4)
        m = rng.randint(1, 4)
        rows = [[rng.choice([0, 0, 1, 1, 2, F(1, 2), F(2, 3)]) for _ in range(m)] for _ in range(n)]
        for j in range(m):
            if all(rows[i][j] == 0 for i in range(n)):
                rows[rng.randrange(n)][j] = F(3, 2)
        bounds = [rng.choice([1, 2, F(3, 2), F(5, 3)]) for _ in range(n)]
        orders = [tuple(j for j in range(m) if rows[i][j] != 0) for i in range(n)]
        problem = make_problem(rows, bounds, orders)
        vertices = sorted(_enumerate_extreme_points(problem))
        points = [(v, True) for v in vertices]
        for a, b in itertools.combinations(vertices, 2):
            points.append((tuple((p + q) / 2 for p, q in zip(a, b)), False))
        if len(vertices) >= 2:
            weights = [F(rng.randint(1, 5), rng.randint(1, 4)) for _ in vertices]
            total = sum(weights)
            inner = tuple(sum(w * v[j] for w, v in zip(weights, vertices)) / total for j in range(m))
            points.append((inner, False))
        for x, is_vertex in points:
            assert _is_vertex_by_definition(problem, x) == is_vertex, (trial, x)
            assert certify_extreme(problem, x) == is_vertex, (trial, x)
            checked[is_vertex] += 1
    assert checked[True] > 100 and checked[False] > 100


def test_certify_extreme_rejects_infeasible():
    problem = triangle_problem()
    with pytest.raises(InputError):
        certify_extreme(problem, [F(2)] * 3)


def test_marriage_two_by_two_matches_deferred_acceptance():
    men = {"m1": ["w1", "w2"], "m2": ["w1", "w2"]}
    women = {"w1": ["m2", "m1"], "w2": ["m1", "m2"]}
    problem, columns = marriage_problem(men, women)
    point = solve_scarf(problem)
    assert all(v in (F(0), F(1)) for v in point.x)
    chosen = {f"{m}:{w}" for (m, w), v in zip(columns, point.x) if v == 1}
    assert chosen == deferred_acceptance(men, women)


def test_marriage_instances_integral_and_stable_up_to_4():
    rng = random.Random(5)
    for trial in range(25):
        n = rng.randint(2, 4)
        men = {f"m{i}": rng.sample([f"w{j}" for j in range(n)], n) for i in range(n)}
        women = {f"w{j}": rng.sample([f"m{i}" for i in range(n)], n) for j in range(n)}
        problem, columns = marriage_problem(men, women)
        point = solve_scarf(problem)
        assert all(v in (F(0), F(1)) for v in point.x), trial
        chosen = {(m, w) for (m, w), v in zip(columns, point.x) if v == 1}
        # oracle: no blocking pair by enumeration
        men_rank = {m: {w: i for i, w in enumerate(order)} for m, order in men.items()}
        women_rank = {w: {m: i for i, m in enumerate(order)} for w, order in women.items()}
        partner_m = {m: w for m, w in chosen}
        partner_w = {w: m for m, w in chosen}
        for m in men:
            for w in women:
                better_m = m not in partner_m or men_rank[m][w] < men_rank[m][partner_m[m]]
                better_w = w not in partner_w or women_rank[w][m] < women_rank[w][partner_w[w]]
                assert not (better_m and better_w), (trial, m, w)


def test_random_problems_always_dominating_extreme_and_deterministic():
    rng = random.Random(42)
    for trial in range(120):
        n = rng.randint(1, 6)
        m = rng.randint(1, 7)
        rows = [[rng.choice([0, 0, 1, 1, 2, F(1, 2)]) for _ in range(m)] for _ in range(n)]
        for j in range(m):
            if all(rows[i][j] == 0 for i in range(n)):
                rows[rng.randrange(n)][j] = 1
        bounds = [rng.choice([1, 2, F(3, 2)]) for _ in range(n)]
        orders = []
        for i in range(n):
            nonzero = [j for j in range(m) if rows[i][j] != 0]
            rng.shuffle(nonzero)
            orders.append(tuple(nonzero))
        problem = make_problem(rows, bounds, orders)
        point = solve_scarf(problem)
        assert verify_dominating(problem, point.x).ok, trial
        assert certify_extreme(problem, point.x), trial
        assert solve_scarf(problem).x == point.x, trial


def test_pivot_budget_enforced():
    with pytest.raises(ResourceLimitError):
        solve_scarf(triangle_problem(), pivot_budget=1)


def test_trace_lines_have_documented_shape():
    lines = []
    solve_scarf(triangle_problem(), trace=lines.append)
    assert lines
    for i, line in enumerate(lines, start=1):
        parts = line.split()
        assert parts[0] == "pivot" and int(parts[1]) == i
        assert parts[2].startswith("enter=") and parts[3].startswith("leave=")
        assert parts[4] in ("kind=cardinal", "kind=ordinal")


def _reference_utility(problem: ScarfProblem) -> list[list[int]]:
    """The engine's utilities as first written, kept as an independent reference.

    Row i: own slack 0, ranked columns 1..r (best highest), the unranked
    real columns r+1.. in index order, foreign slack k at m+2+k.
    """
    n, m = problem.num_rows, problem.num_cols
    util = []
    for i, order in enumerate(problem.row_orders):
        row = [0] * (n + m)
        r = len(order)
        for p, j in enumerate(order):
            row[n + j] = r - p
        t = 0
        for j in range(m):
            if not row[n + j]:
                t += 1
                row[n + j] = r + t
        for k in range(n):
            row[k] = m + 2 + k if k != i else 0
        util.append(row)
    return util


def _ranked_columns(problem: ScarfProblem) -> list[set[int]]:
    n = problem.num_rows
    return [{n + j for j in order} for order in problem.row_orders]


def _is_ordinal_basis(util, columns):
    """Definition check: every column is weakly below some row's basis minimum."""
    n = len(util)
    mins = [min(util[i][c] for c in columns) for i in range(n)]
    for c in range(len(util[0])):
        if not any(util[i][c] <= mins[i] for i in range(n)):
            return False
    return True


def _assert_ordinal_state(problem, reference, ordinal):
    """The incrementally kept owners, minima and high rows match a recomputation from `reference`."""
    n = len(reference)
    holders = [min(ordinal.columns, key=reference[i].__getitem__) for i in range(n)]
    assert ordinal.owner == dict(enumerate(holders))
    assert set(ordinal.owner.values()) == ordinal.columns == set(ordinal.row_of)
    assert all(ordinal.row_of[col] == row for row, col in ordinal.owner.items())
    assert ordinal.mins == [ordinal.utility(i, col) for i, col in enumerate(holders)]
    ranked = _ranked_columns(problem)
    assert ordinal.high == {i for i, col in enumerate(holders) if col != i and col not in ranked[i]}


def _random_problem(rng: random.Random, max_rows: int = 5, max_cols: int = 6) -> ScarfProblem:
    n = rng.randint(2, max_rows)
    m = rng.randint(2, max_cols)
    rows = [[rng.choice([0, 1, 1, 2]) for _ in range(m)] for _ in range(n)]
    for j in range(m):
        if all(rows[i][j] == 0 for i in range(n)):
            rows[rng.randrange(n)][j] = 1
    orders = []
    for i in range(n):
        nonzero = [j for j in range(m) if rows[i][j] != 0]
        rng.shuffle(nonzero)
        orders.append(tuple(nonzero))
    return make_problem(rows, [1] * n, orders)


def test_utility_rows_sort_columns_as_the_reference_formula():
    """The engine's sparse utility orders every row's n + m columns exactly as the reference, with distinct entries."""
    from nearstable.scarf import _OrdinalBasis

    rng = random.Random(7)
    problems = [_random_problem(rng) for _ in range(200)] + [rational_problem(seed) for seed in range(20)]
    for problem in problems:
        width = problem.num_rows + problem.num_cols
        ordinal = _OrdinalBasis(problem)
        for i, ref in enumerate(_reference_utility(problem)):
            row = [ordinal.utility(i, c) for c in range(width)]
            assert len(set(row)) == width
            assert sorted(range(width), key=row.__getitem__) == sorted(range(width), key=ref.__getitem__)


def test_every_intermediate_ordinal_basis_is_genuine():
    """White-box walk of the pivoting loop, re-checking each ordinal basis."""
    from nearstable.scarf import _OrdinalBasis, _Tableau

    rng = random.Random(99)
    for trial in range(40):
        problem = _random_problem(rng)
        reference = _reference_utility(problem)
        tableau = _Tableau(problem)
        ordinal = _OrdinalBasis(problem)
        assert _is_ordinal_basis(reference, ordinal.columns)
        _assert_ordinal_state(problem, reference, ordinal)
        entering = ordinal.owner[0]
        for _ in range(10_000):
            row, holders = tableau.ratio_row(entering)
            leaving = tableau.pivot(row, entering, holders)
            if leaving == 0:
                break
            added = ordinal.replace(leaving)
            assert _is_ordinal_basis(reference, ordinal.columns), trial
            _assert_ordinal_state(problem, reference, ordinal)
            if added == 0:
                break
            entering = added
        else:
            pytest.fail("pivoting did not terminate")
        assert set(tableau.basis) == ordinal.columns


class DenseTableau:
    """Fraction-free tableau over full rows, the reference for the sparse `_Tableau`.

    Every row is a list over all n + m columns; `ties` counts ratio
    tests decided lexicographically and `rescales` the pivots with
    piv != den.
    """

    def __init__(self, problem: ScarfProblem):
        n, m = problem.num_rows, problem.num_cols
        self.n, self.m = n, m
        self.mat = []
        for i in range(n):
            row = [0] * (n + m)
            for j, v in problem.rows[i]:
                row[n + j] = v
            row[i] = 1
            self.mat.append(row)
        self.rhs = list(problem.bounds)
        self.den = 1
        self.basis = list(range(n))
        self.ties = self.rescales = 0

    def ratio_row(self, col: int) -> int:
        best = None
        for i in range(self.n):
            piv = self.mat[i][col]
            if piv <= 0:
                continue
            if best is None:
                best = i
                continue
            bpiv = self.mat[best][col]
            left, right = self.rhs[i] * bpiv, self.rhs[best] * piv
            if left != right:
                if left < right:
                    best = i
                continue
            self.ties += 1
            for c in range(self.n):
                left, right = self.mat[i][c] * bpiv, self.mat[best][c] * piv
                if left != right:
                    if left < right:
                        best = i
                    break
            else:
                raise InternalError("lexicographic ratio test tie; basis inverse is singular")
        if best is None:
            raise InternalError("unbounded pivot column on a bounded polytope")
        return best

    def pivot(self, row: int, col: int) -> int:
        piv, den = self.mat[row][col], self.den
        if piv <= 0:
            raise InternalError("nonpositive pivot element")
        self.rescales += piv != den
        prow, prhs = self.mat[row], self.rhs[row]
        for i in range(self.n):
            if i != row:
                factor = self.mat[i][col]
                self.mat[i] = [(v * piv - factor * p) // den for v, p in zip(self.mat[i], prow)]
                self.rhs[i] = (self.rhs[i] * piv - factor * prhs) // den
        self.den = piv
        leaving, self.basis[row] = self.basis[row], col
        return leaving


class DenseOrdinalBasis:
    """Ordinal steps over the reference utilities that recompute every minimum and test every column against every row.

    `reached` counts the steps whose situation takes each branch of the
    engine's sparse step:
    - "walk": the orphan's new minimum is a column it does not rank;
    - "high": a candidate tried before the entering column is blocked by a
      high row (one whose minimum is held by a column it does not rank)
      that does not rank the candidate;
    - "cut": such a blocked candidate is one of home's unranked columns and
      the entering column is not, so the scan of those ends at the cut-off;
    - "slack": home's own slack enters.
    """

    def __init__(self, problem: ScarfProblem):
        n, m = problem.num_rows, problem.num_cols
        self.util = _reference_utility(problem)
        self.ranked = _ranked_columns(problem)
        first = max(range(n, n + m), key=self.util[0].__getitem__)
        self.owner = {0: first, **{i: i for i in range(1, n)}}
        self.row_of = {col: row for row, col in self.owner.items()}
        self.columns = set(self.row_of)
        self.reached = dict.fromkeys(("walk", "high", "cut", "slack"), 0)

    def replace(self, out_col: int) -> int:
        util, columns, ranked = self.util, self.columns, self.ranked
        n = len(util)
        orphan = self.row_of.pop(out_col)
        columns.remove(out_col)
        doubled = min(columns, key=util[orphan].__getitem__)
        home = self.row_of[doubled]
        holders = [min(columns, key=row.__getitem__) for row in util]
        mins = [row[c] for row, c in zip(util, holders)]
        mins[home] = -1
        order = sorted(range(len(util[home])), key=util[home].__getitem__, reverse=True)
        entering = next((c for c in order if c not in columns and all(row[c] > low for row, low in zip(util, mins))), None)
        if entering is None or util[home][entering] >= min(util[home][c] for c in columns):
            raise InternalError("ordinal replacement step has no valid completion")
        high = [i for i, c in enumerate(holders) if i != home and c != i and c not in ranked[i]]
        high_blocked = [
            c
            for c in order[: order.index(entering)]
            if (c >= n or c == home) and c not in columns and any(c not in ranked[i] and util[i][c] <= mins[i] for i in high)
        ]
        home_unranked = [c for c in high_blocked if c >= n and c not in ranked[home]]
        self.reached["walk"] += doubled not in ranked[orphan]
        self.reached["high"] += bool(high_blocked)
        self.reached["cut"] += bool(home_unranked) and (entering in ranked[home] or entering == home)
        self.reached["slack"] += entering == home
        columns.add(entering)
        self.owner[orphan], self.owner[home] = doubled, entering
        self.row_of[doubled], self.row_of[entering] = orphan, home
        return entering


def _dense_rows(tableau) -> list[list[int]]:
    """The sparse tableau's rows as dense lists, asserting that no zero is stored."""
    width = tableau.n + tableau.m
    dense = []
    for row in tableau.rows:
        assert all(row.values()), row
        vec = [0] * width
        for c, v in row.items():
            vec[c] = v
        dense.append(vec)
    return dense


def _lockstep(problem: ScarfProblem):
    """Walk the sparse engine and the dense reference together; return both reference halves."""
    from nearstable.scarf import _OrdinalBasis, _Tableau

    sparse_tab, dense_tab = _Tableau(problem), DenseTableau(problem)
    sparse_ord, dense_ord = _OrdinalBasis(problem), DenseOrdinalBasis(problem)
    _assert_ordinal_state(problem, dense_ord.util, sparse_ord)
    entering = dense_ord.owner[0]
    for _ in range(100_000):
        row = dense_tab.ratio_row(entering)
        sparse_row, holders = sparse_tab.ratio_row(entering)
        assert sparse_row == row
        leaving = dense_tab.pivot(row, entering)
        assert sparse_tab.pivot(row, entering, holders) == leaving
        assert (sparse_tab.den, sparse_tab.rhs, sparse_tab.basis) == (dense_tab.den, dense_tab.rhs, dense_tab.basis)
        assert _dense_rows(sparse_tab) == dense_tab.mat
        if leaving == 0:
            break
        entering = dense_ord.replace(leaving)
        assert sparse_ord.replace(leaving) == entering
        assert (sparse_ord.owner, sparse_ord.row_of) == (dense_ord.owner, dense_ord.row_of)
        _assert_ordinal_state(problem, dense_ord.util, sparse_ord)
        if entering == 0:
            break
    else:
        pytest.fail("pivoting did not terminate")
    assert sparse_tab.solution() == list(solve_scarf(problem).x)
    return dense_tab, dense_ord


def _gadget_problem(seed: int) -> ScarfProblem:
    """A small shm instance at capacities 2..4 through the saturation gadget."""
    inst = generate(GeneratorConfig(family="shm", seed=seed, max_vertices=5, max_edges=7))
    rng = random.Random(seed)
    capacities = {v: rng.randint(2, 4) for v in inst.vertices}
    inst = HypergraphInstance(inst.vertices, inst.edges, capacities, inst.preferences)
    return build_shm_scarf(add_saturation_gadget(break_instance_ties(inst))).problem


def test_sparse_engine_follows_dense_reference_step_by_step():
    """Same ratio rows, leaving and entering columns, den, rhs and tableau at every step."""
    rng = random.Random(909)
    reached = {"rational": [0, 0], "degenerate": [0, 0], "gadget": [0, 0]}
    branches = dict.fromkeys(("walk", "high", "cut", "slack"), 0)
    for trial in range(60):
        n, m = rng.randint(2, 7), rng.randint(2, 8)
        rows = [[rng.choice([0, 0, 1, 2, F(1, 2), F(2, 3), F(5, 7), 3]) for _ in range(m)] for _ in range(n)]
        for j in range(m):
            if all(rows[i][j] == 0 for i in range(n)):
                rows[rng.randrange(n)][j] = F(3, 2)
        bounds = [rng.choice([1, 2, F(3, 2), F(5, 3), F(7, 4)]) for _ in range(n)]
        orders = [tuple(rng.sample([j for j in range(m) if row[j]], sum(1 for v in row if v))) for row in rows]
        # Equal bounds over 0/1 rows make ratio ties, decided lexicographically.
        flat = [[rng.choice([0, 1, 1]) for _ in range(m)] for _ in range(n)]
        for j in range(m):
            if all(flat[i][j] == 0 for i in range(n)):
                flat[rng.randrange(n)][j] = 1
        flat_orders = [tuple(rng.sample([j for j in range(m) if row[j]], sum(row))) for row in flat]
        cases = [
            ("rational", make_problem(rows, bounds, orders)),
            ("degenerate", make_problem(flat, [1] * n, flat_orders)),
            ("gadget", _gadget_problem(trial)),
        ]
        for kind, problem in cases:
            tableau, ordinal = _lockstep(problem)
            reached[kind][0] += tableau.ties
            reached[kind][1] += tableau.rescales
            for branch, count in ordinal.reached.items():
                branches[branch] += count
    assert reached["rational"][1] > 100 and reached["degenerate"][0] > 100, reached
    assert reached["gadget"][0] > 200, reached
    # The orphan's walk past its ranked columns is reached off the pivot path only.
    assert min(branches["high"], branches["cut"], branches["slack"]) > 100, branches


def test_ordinal_steps_off_the_pivot_path_match_the_reference():
    """Random ordinal steps from arbitrary ordinal bases, sparse against dense.

    Along the pivot path only row 0 can be high: every other row keeps a
    nonzero of the cardinal basis, its own slack or a ranked column.  And
    in every trial the orphan's new minimum was a ranked column.  Removing
    arbitrary basis columns reaches the other states too.  Removing the
    last real column leaves no completion, and both must fail.
    """
    from nearstable.scarf import _OrdinalBasis

    rng = random.Random(5150)
    branches = dict.fromkeys(("walk", "high", "cut", "slack"), 0)
    steps = failed = 0
    for _ in range(150):
        problem = _random_problem(rng, max_rows=6, max_cols=9)
        n = problem.num_rows
        sparse_ord, dense_ord = _OrdinalBasis(problem), DenseOrdinalBasis(problem)
        for _ in range(30):
            columns = sorted(dense_ord.columns)
            # Removing the last real column leaves only slacks, which have no completion.
            out_col = rng.choice([c for c in columns if any(d >= n for d in columns if d != c)])
            entering = dense_ord.replace(out_col)
            assert sparse_ord.replace(out_col) == entering
            assert (sparse_ord.owner, sparse_ord.row_of) == (dense_ord.owner, dense_ord.row_of)
            assert _is_ordinal_basis(dense_ord.util, sparse_ord.columns)
            _assert_ordinal_state(problem, dense_ord.util, sparse_ord)
            steps += 1
        real = [c for c in dense_ord.columns if c >= n]
        if len(real) == 1:
            for ordinal in (dense_ord, sparse_ord):
                with pytest.raises(InternalError):
                    ordinal.replace(real[0])
            failed += 1
        for branch, count in dense_ord.reached.items():
            branches[branch] += count
    assert steps > 2000 and failed > 20, (steps, failed)
    assert min(branches.values()) > 100, branches


def test_ordinal_basis_memory_grows_with_nonzeros():
    """Setting up the ordinal basis of a 4,018 x 3,976 problem (11,636 nonzeros) stays far below a dense n x (n+m) table."""
    import tracemalloc

    from nearstable.scarf import _OrdinalBasis

    inst = generate(GeneratorConfig(family="shm", seed=5, max_vertices=2000, max_edges=6000))
    problem = build_shm_scarf(add_saturation_gadget(break_instance_ties(inst))).problem
    assert (problem.num_rows, problem.num_cols) == (4018, 3976)
    tracemalloc.start()
    try:
        _OrdinalBasis(problem)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, peak


def test_pinned_rational_problem_rescales():
    """The pinned rational problem reaches the piv != den branch."""
    assert _lockstep(rational_problem(3))[0].rescales > 5


def test_problem_validation():
    with pytest.raises(InputError):
        make_problem([[0]], [1], [()])  # zero column
    with pytest.raises(InputError):
        make_problem([[1]], [0], [(0,)])  # zero bound
    with pytest.raises(InputError):
        make_problem([[1]], [1], [()])  # order must cover nonzero columns
    with pytest.raises(InputError):
        make_problem([[-1]], [1], [(0,)])  # negative entry
    with pytest.raises(InputError):
        make_problem([[1, 1], [1]], [1, 1], [(0, 1), (0,)])  # ragged dense matrix
    bad_sparse = [
        (((0, 1), (2, 1)), (0, 2)),  # column outside num_cols
        (((1, 1), (0, 1)), (0, 1)),  # unsorted columns
        (((0, 1), (0, 1)), (0,)),  # repeated column
        (((0, 1), (1, 0)), (0, 1)),  # stored zero would mark column 1 covered
        (((0, 1), (1, -1)), (0, 1)),  # negative coefficient
        (((0, 1), (1, 1)), (1,)),  # order misses a column of the row
        (((0, 1),), (0, 1)),  # order ranks a column outside the row
    ]
    for row, order in bad_sparse:
        with pytest.raises(InputError):
            ScarfProblem((row, ((1, 1),)), (1, 1), (order, (1,)), num_cols=2)
    assert ScarfProblem((((0, 1), (1, 1)),), (1,), ((1, 0),), num_cols=2).num_rows == 1


def test_problem_holds_positive_ints_only():
    """A Fraction, a bool or a zero is rejected both as a stored entry and as a bound, even when it equals 1 or 2."""
    for bad in (F(1), F(2), F(1, 2), True, 0):
        with pytest.raises(InputError):
            ScarfProblem((((0, bad),),), (1,), ((0,),), num_cols=1)
        with pytest.raises(InputError):
            ScarfProblem((((0, 1),),), (bad,), ((0,),), num_cols=1)
    assert ScarfProblem((((0, 2),),), (3,), ((0,),), num_cols=1).bounds == (3,)


def test_make_problem_scales_rational_data_by_one_lcm():
    """Entries and bounds are multiplied by the lcm of every denominator in the matrix and the bounds."""
    problem = make_problem([[F(1, 2), 0, F(2, 3)], [0, 1, F(3, 4)]], [1, F(5, 6)], [(2, 0), (1, 2)])
    # lcm(2, 3, 4, 6) = 12
    assert problem.rows == (((0, 6), (2, 8)), ((1, 12), (2, 9)))
    assert problem.bounds == (12, 10)
    assert all(type(v) is int for row in problem.rows for _, v in row)
    assert all(type(b) is int for b in problem.bounds)
    # Integer data is left as it is.
    assert make_problem([[2, 0], [1, 3]], [4, 5], [(0,), (0, 1)]).rows == (((0, 2),), ((0, 1), (1, 3)))


def test_dense_and_edge_built_problems_agree():
    assert triangle_problem() == build_shm_scarf(triangle_instance()).problem


def test_empty_problem():
    problem = make_problem([], [], [])
    point = solve_scarf(problem)
    assert point.x == ()


# Generator sizes per pinned family: `gen FAMILY --seed S` with these options.
PINNED_SIZES = {
    "shm": {"max_vertices": 60, "max_edges": 130, "max_edge_size": 3},
    "cacq": {"max_students": 30, "max_colleges": 10, "max_extra_sets": 5},
    "shm-1000": {"max_vertices": 1000, "max_edges": 2500},
    "shm-2000": {"max_vertices": 2000, "max_edges": 6000},
}

# SHA-256 over the pivot/rounding trace lines and the canonical certificate,
# recorded before the engine's arithmetic was reworked: any change to the
# pivot path or to what is certified shows up here.
PINNED_PATHS = [
    ("triangle", solve_shm, None, "d74a45c3fe9c6f60166cb47c4817c90e2508c71ed42b480ca42d84e74da03354"),
    ("shm", solve_shm, 2, "5a98224a1b698c3278ac8cde18932a3a68e94ea292e83d69b9622aa81fc4720e"),
    ("shm", solve_shm, 11, "453295d09dcc3a4ee7628ea59017d49676f0f87ede68825c15bf2ac6d06b35fc"),
    ("cacq", solve_cacq, 3, "89a3a0ed221bb96a01abf210492c65bcbe4331624fb3754ebb261093f6723dbf"),
    ("cacq", solve_cacq, 5, "1e44af2daf414d158ce8e8969fd2f15f76c2a9ce2c31f318c5729150375d991f"),
    ("shm-highcap", solve_shm, 6, "425809b64658e790dc8639e2c7ebc19134c079e494664cb9746105d1cccfda86"),
    ("rational", solve_scarf, 3, "e128b5901b9b63a0103be37d808555a89c12876b35502baf5ced8b3c9fd230bb"),
    # Large tier, recorded before the ordinal step moved to the shared utility
    # template: instances the size of the benchmark's large workload, where a
    # step meets high rows, the top cut-off and orphan walks past the ranked
    # columns.  shm seed 23 also rounds.
    ("shm", solve_shm, 3, "694ac938315bf533e5fb86ac2109a06573fc048498d9aad95d7ef25dc99197cd"),
    ("shm", solve_shm, 17, "25efa6f4489ca3fd0b62d0b2f2a312f217d5fda63163fbd63a015bafc891eca2"),
    ("shm", solve_shm, 23, "66706bb2140a20ce0212d568f5efee1cd5dc75aeae1b25021f865a059696796c"),
    ("cacq", solve_cacq, 12, "13a3971bc65dba4240d1c1877dc8e4b46ca236a8868116d9acf29cda489b4860"),
    ("cacq", solve_cacq, 13, "265f26015722010b67de130e1ab8f202ecca5ac58d38a6b756ac0e6c2a3c06e6"),
    ("shm-highcap", solve_shm, 10, "58bfe76b81a9b60d0c3f3b98394a4d1b1bc64d85ce54070d0b64940baf1d8d94"),
    # Beyond the benchmark's sizes, recorded before the dense utility matrix
    # was dropped: 480 vertices and 1,041 edges, then 47 vertices and 4,933
    # edges (a 4,018 x 3,976 Scarf problem, 2,275 trace lines).
    ("shm-1000", solve_shm, 3, "d51ffba33b32cb0645941c7e6839237cc0c7b482ebb93f2c5870f4f3a68e329b"),
    ("shm-2000", solve_shm, 5, "4bdce278e7a1764502c7cd540365129813877033476013da89e2372ebda85b1a"),
]


def high_capacity_shm(seed: int) -> HypergraphInstance:
    """Default-size stock shm with every capacity drawn from 15..25."""
    inst = generate(GeneratorConfig(family="shm", seed=seed))
    rng = random.Random(seed)
    capacities = {v: rng.randint(15, 25) for v in inst.vertices}
    return HypergraphInstance(inst.vertices, inst.edges, capacities, inst.preferences)


def rational_problem(seed: int, n: int = 8, m: int = 10) -> ScarfProblem:
    """Random problem with rational entries and bounds; its pivots rescale (piv != den)."""
    rng = random.Random(seed)
    entries = [0, 0, 0, 1, 3, F(1, 2), F(2, 3), F(5, 7), F(3, 4), F(7, 5)]
    rows = [[rng.choice(entries) for _ in range(m)] for _ in range(n)]
    for j in range(m):
        if all(rows[i][j] == 0 for i in range(n)):
            rows[rng.randrange(n)][j] = F(3, 2)
    bounds = [rng.choice([1, 2, F(3, 2), F(5, 3), F(7, 4)]) for _ in range(n)]
    orders = []
    for row in rows:
        order = [j for j in range(m) if row[j] != 0]
        rng.shuffle(order)
        orders.append(tuple(order))
    return make_problem(rows, bounds, orders)


PINNED_FAMILIES = {"shm-highcap": high_capacity_shm, "rational": rational_problem}


@pytest.mark.parametrize("family, solve, seed, expected", PINNED_PATHS)
def test_pivot_path_and_certificate_pinned(family, solve, seed, expected):
    if family == "triangle":
        inst = triangle_instance()
    elif family in PINNED_FAMILIES:
        inst = PINNED_FAMILIES[family](seed)
    else:
        inst = generate(GeneratorConfig(family=family.split("-")[0], seed=seed, **PINNED_SIZES[family]))
    lines = []
    result = solve(inst, trace=lines.append)
    digest = hashlib.sha256()
    for line in lines:
        digest.update(line.encode("utf-8") + b"\n")
    if isinstance(result, DominatingPoint):
        digest.update(repr((result.x, sorted(result.dominating_row.items()))).encode("utf-8"))
    else:
        digest.update(ff.canonical_dumps(result.certificate).encode("utf-8"))
    assert digest.hexdigest() == expected
