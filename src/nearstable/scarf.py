"""Dominance solver for Scarf-type problems via complementary pivoting.

A problem is a nonnegative integer matrix Q over `num_cols` columns, each
nonzero in some row, given as sparse rows (`polytope.IntRow`: (column,
positive int) pairs in increasing column order); a positive integer bound
vector d; and one strict order per row over that row's columns.  Rational
data enters only through `make_problem`, which multiplies the whole dense
matrix and the bounds by the lcm of all their denominators.
`solve_scarf` returns an extreme point of {Qx <= d, x >= 0} together with,
for every column, a row that dominates it: the row is tight at x and
weakly prefers every positively-used column.

The tableau and the two self-checks read the integer rows and bounds as
they are.  `verify_dominating` and `certify_extreme` scale the point once
and evaluate every row in integers; a tight row witnesses the
columns ranked no better than its worst used column, and the tight rows
restricted to the support go straight to the elimination kernel.

The pivoting works on the extended matrix [I | Q] in standard form: slack
column i is ranked strictly worst in row i and above every real column in
the other rows.  Cardinal (simplex) steps use a lexicographic ratio test on
a fraction-free integer tableau, so degenerate bound vectors need no
perturbation; ordinal steps replace a column of the ordinal basis by the
unique alternative completion.  Both bases evolve in lockstep until they
coincide, which is the termination guarantee of the underlying path
argument.  The worst case is exponential, so a configurable pivot budget
guards the loop.

Both halves work over nonzeros only.  A tableau row keeps its nonzero
integers in a dict, and a pivot updates just the rows with a nonzero in
the entering column (a pivot that changes the common denominator also
rescales the other rows' stored nonzeros).  An ordinal step reads only
the rows and columns it touches.  A row stores utilities only for the
columns it ranks (1..r); its own slack is 0, and any other column has one
closed-form value in every row that does not rank it (real column j at
m+1+j, slack k at 2m+1+k), so a row's next basis minimum is a walk upward
from its old one.  A candidate column is tested against its support (the
rows ranking it) and against the largest minimum among the high rows,
those whose minimum is held by a column they do not rank.
The integers, and so every ratio row, pivot and vertex, are those of the
dense tableau, and every ordinal step is the dense rule's.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .errors import InputError, InternalError, ResourceLimitError
from .polytope import ZERO, IntRow, _echelon, _is_int, exact, int_dot, scale, sparse

DEFAULT_PIVOT_BUDGET = 10_000_000

TraceSink = Callable[[str], None]


@dataclass(frozen=True)
class ScarfProblem:
    """Sparse integer rows over `num_cols` columns, int bounds, and strict per-row column orders (best first)."""

    rows: tuple[IntRow, ...]
    bounds: tuple[int, ...]
    row_orders: tuple[tuple[int, ...], ...]
    num_cols: int

    def __post_init__(self):
        n = len(self.rows)
        if len(self.bounds) != n or len(self.row_orders) != n:
            raise InputError("rows, bounds, and row_orders must have equal length")
        m = self.num_cols
        covered = set()
        for i, row in enumerate(self.rows):
            cols = [j for j, _ in row]
            if any(not 0 <= j < m for j in cols):
                raise InputError(f"row {i} has a column outside 0..{m - 1}")
            if any(a >= b for a, b in zip(cols, cols[1:])):
                raise InputError(f"columns of row {i} must be strictly increasing")
            # A stored zero would count its column as covered and ranked.
            if any(not _is_int(v) or v <= 0 for _, v in row):
                raise InputError("stored matrix entries must be positive ints")
            if sorted(self.row_orders[i]) != cols:
                raise InputError(f"order of row {i} must cover exactly its nonzero columns")
            covered.update(cols)
        for i, b in enumerate(self.bounds):
            if not _is_int(b) or b <= 0:
                raise InputError(f"bound of row {i} must be a positive int; pre-eliminate zero rows")
        if len(covered) != m:
            j = min(set(range(m)) - covered)
            raise InputError(f"column {j} has no nonzero entry")

    @property
    def num_rows(self) -> int:
        return len(self.rows)


def make_problem(rows, bounds, row_orders) -> ScarfProblem:
    """A problem from a dense rational matrix (rows of equal length) and bounds.

    The matrix and the bounds are multiplied by the lcm of all their
    denominators, so the problem holds integers.
    """
    m = len(rows[0]) if rows else 0
    if any(len(row) != m for row in rows):
        raise InputError("ragged matrix")
    nums, _ = scale([exact(v) for row in rows for v in row] + [exact(b) for b in bounds])
    return ScarfProblem(
        rows=tuple(sparse(nums[i * m : (i + 1) * m]) for i in range(len(rows))),
        bounds=tuple(nums[len(rows) * m :]),
        row_orders=tuple(tuple(order) for order in row_orders),
        num_cols=m,
    )


@dataclass(frozen=True)
class DominatingPoint:
    x: tuple[Fraction, ...]
    dominating_row: dict


@dataclass(frozen=True)
class ScarfBuild:
    """A pipeline's Scarf problem over the edges not pre-fixed to zero."""

    problem: ScarfProblem
    columns: tuple[str, ...]  # scarf column -> edge id
    fixed_zero: tuple[str, ...]  # edges forced to 0 before the problem is built

    @classmethod
    def from_rows(cls, edge_ids, fixed_zero, rows) -> ScarfBuild:
        """Columns are the edges outside `fixed_zero`, in order.

        Each row is (bound, member edges, edges best first): coefficient 1
        on its member columns, ranked in that order.  Pre-fixed edges are
        dropped from both.
        """
        dead = set(fixed_zero)
        columns = tuple(eid for eid in edge_ids if eid not in dead)
        col_index = {eid: j for j, eid in enumerate(columns)}
        matrix, bounds, orders = [], [], []
        for bound, members, ranked in rows:
            matrix.append(tuple((j, 1) for j in sorted(col_index[eid] for eid in members if eid in col_index)))
            bounds.append(bound)
            orders.append(tuple(col_index[eid] for eid in ranked if eid in col_index))
        problem = ScarfProblem(tuple(matrix), tuple(bounds), tuple(orders), len(columns))
        return cls(problem, columns, tuple(fixed_zero))

    def expand(self, point: DominatingPoint) -> dict:
        """Fractional vector over all edges, zeros on the pre-fixed ones."""
        x = {eid: ZERO for eid in self.fixed_zero}
        for col, eid in enumerate(self.columns):
            x[eid] = point.x[col]
        return x


@dataclass(frozen=True)
class DominationReport:
    nonnegative: bool
    within_bounds: bool
    witnesses: tuple[tuple[int, ...], ...]

    @property
    def ok(self) -> bool:
        return self.nonnegative and self.within_bounds and all(self.witnesses)


def verify_dominating(problem: ScarfProblem, x: Sequence[Fraction]) -> DominationReport:
    """All valid witness rows per column, straight from the definitions.

    A row i witnesses column j when Q_ij > 0, the row is tight at x, and
    every column of row i that x uses (a nonzero value) is weakly
    preferred to j by that row's order.
    """
    nums, den = scale([exact(v) for v in x])
    bounds = problem.bounds
    values = [int_dot(row, nums) for row in problem.rows]
    witnesses = [[] for _ in range(problem.num_cols)]
    for i, order in enumerate(problem.row_orders):
        if values[i] != bounds[i] * den:
            continue
        # Row i witnesses exactly the columns ranked no better than its worst used one.
        worst = max((p for p, j in enumerate(order) if nums[j]), default=0)
        for j in order[worst:]:
            witnesses[j].append(i)
    return DominationReport(
        nonnegative=all(v >= 0 for v in nums),
        within_bounds=all(value <= bound * den for value, bound in zip(values, bounds)),
        witnesses=tuple(map(tuple, witnesses)),
    )


def certify_extreme(problem: ScarfProblem, x: Sequence[Fraction]) -> bool:
    """True iff x is a vertex of {Qx <= d, x >= 0}.

    By definition the tight matrix rows together with the unit rows e_j of
    the zero coordinates must have rank equal to the number of columns.
    The unit rows are eliminated up front: that rank is the number of zero
    coordinates plus the rank of the tight rows restricted to the support
    S of x, so x is a vertex iff the restricted rows have rank |S|.  The
    integer rows go straight to the elimination kernel.
    """
    nums, den = scale([exact(v) for v in x])
    if any(v < 0 for v in nums):
        raise InputError("point has negative entries")
    position = {j: p for p, j in enumerate(j for j, v in enumerate(nums) if v)}
    vectors = []
    for i, row in enumerate(problem.rows):
        value, limit = int_dot(row, nums), problem.bounds[i] * den
        if value > limit:
            raise InputError(f"point violates row {i}")
        if value == limit:
            vectors.append([(position[j], c) for j, c in row if j in position])
    return len(_echelon(vectors)) == len(position)


# ---------------------------------------------------------------------------
# the pivoting engine
# ---------------------------------------------------------------------------


class _Tableau:
    """Fraction-free integer simplex tableau for [I | Q] x = d, stored by nonzeros.

    Entries are `den` times the true rational tableau, den * B^-1 [I | Q]:
    pivots keep everything integral by exact division (the entries are
    minors of the integer input matrix).  Each row is a {column: entry}
    dict of its nonzeros only, and entries that cancel are dropped.  A
    pivot changes only the rows with a nonzero in the entering column.
    When the pivot equals `den` (the usual case), such a row changes only
    on the pivot row's columns and is updated in place; otherwise it is
    rebuilt over its own nonzeros and the pivot row's, and every other
    row's stored nonzeros are rescaled by piv / den.
    """

    def __init__(self, problem: ScarfProblem):
        n, m = problem.num_rows, problem.num_cols
        self.n, self.m = n, m
        self.rows = [{i: 1, **{n + j: v for j, v in row}} for i, row in enumerate(problem.rows)]
        self.rhs = list(problem.bounds)
        self.den = 1
        self.basis = list(range(n))

    def ratio_row(self, col: int) -> tuple[int, list[tuple[int, int]]]:
        """Lexicographic minimum ratio row for an entering column, and the column's nonzeros.

        The nonzeros are (row, entry) pairs in row order, for `pivot`.
        """
        n, rows, rhs = self.n, self.rows, self.rhs
        holders = [(i, row[col]) for i, row in enumerate(rows) if col in row]
        best = None
        for i, piv in holders:
            if piv < 0:
                continue
            if best is None:
                best, bpiv = i, piv
                continue
            left = rhs[i] * bpiv
            right = rhs[best] * piv
            if left != right:
                if left < right:
                    best, bpiv = i, piv
                continue
            # Tie: compare the slack parts (the rows of den * B^-1) column by column.
            row, brow = rows[i], rows[best]
            for c in sorted({c for c in row if c < n} | {c for c in brow if c < n}):
                left = row.get(c, 0) * bpiv
                right = brow.get(c, 0) * piv
                if left != right:
                    if left < right:
                        best, bpiv = i, piv
                    break
            else:
                raise InternalError("lexicographic ratio test tie; basis inverse is singular")
        if best is None:
            raise InternalError("unbounded pivot column on a bounded polytope")
        return best, holders

    def pivot(self, row: int, col: int, holders: list[tuple[int, int]]) -> int:
        """Pivot on `col`'s nonzeros `holders`, as `ratio_row` gave them, and return the leaving column."""
        rows, rhs = self.rows, self.rhs
        prow = rows[row]
        piv = prow.get(col, 0)
        if piv <= 0:
            raise InternalError("nonpositive pivot element")
        den = self.den
        prhs = rhs[row]
        if piv != den:
            held = {i for i, _ in holders}
            for i, irow in enumerate(rows):
                if i not in held:
                    rows[i] = {c: v * piv // den for c, v in irow.items()}
                    rhs[i] = rhs[i] * piv // den
        for i, factor in holders:
            if i == row:
                continue
            irow = rows[i]
            if piv == den:
                # Each new entry v - factor * p / den is an integer, so every
                # term divides exactly and only the pivot row's columns change.
                for c, p in prow.items():
                    v = irow.get(c, 0) - factor * p // den
                    if v:
                        irow[c] = v
                    else:
                        del irow[c]
                rhs[i] -= factor * prhs // den
                continue
            new = {c: v * piv for c, v in irow.items()}
            for c, p in prow.items():
                new[c] = new.get(c, 0) - factor * p
            rows[i] = {c: v // den for c, v in new.items() if v}
            rhs[i] = (rhs[i] * piv - factor * prhs) // den
        self.den = piv
        leaving = self.basis[row]
        self.basis[row] = col
        return leaving

    def solution(self) -> list[Fraction]:
        x = [ZERO] * self.m
        for i in range(self.n):
            col = self.basis[i]
            if col >= self.n:
                x[col - self.n] = Fraction(self.rhs[i], self.den)
        return x


class _OrdinalBasis:
    """Ordinal basis with the row -> minimum-holding-column bijection.

    Utilities are over slack columns 0..n-1 and real columns n..n+m-1.  In
    row i its own slack is 0 (the unique minimum) and its ranked columns
    are r-p for position p (best highest, 1..r); every other column takes
    one closed-form value in every row that does not rank it: m+1+j for
    real column n+j and 2m+1+k for slack k.  So within a row the ranked
    columns lie below the unranked real columns, which follow their index,
    and the foreign slacks lie above everything.  All entries in a row are
    distinct, which makes every ordinal step unambiguous, and the engine
    compares entries only within one row.  Only the ranked utilities are
    stored: each row's ranked columns (`ranked`) and each column's support
    (the rows ranking it, with their utility for it).

    The basis starts from row 0's best real column and the other rows'
    slacks.  The per-row minima over the basis, the inverse of `owner` and
    the high rows are kept up to date by `replace`, which changes exactly
    two minima per step.  A row is high when its minimum lies above m, so
    a column the row does not rank holds it.

    A row blocks the columns at or below its minimum.  A row whose minimum
    is 0 holds its own slack and blocks nothing else; a foreign slack k is
    blocked by row k.  Any other column c is blocked by a row other than
    home exactly when a row of c's support has c at or below its minimum,
    or c's closed-form value lies below `top`, the largest minimum among
    the high rows other than home: a row not ranking c holds it at that
    value, which only a high row's minimum can exceed.
    """

    def __init__(self, problem: ScarfProblem):
        n, m = problem.num_rows, problem.num_cols
        self.n, self.m = n, m
        self.ranked = [[n + j for j in order] for order in problem.row_orders]  # best first
        self.support: list[list[tuple[int, int]]] = [[] for _ in range(n + m)]
        for i, ranked in enumerate(self.ranked):
            for p, c in enumerate(ranked):
                self.support[c].append((i, len(ranked) - p))
        # Row 0's best real column is its highest-index unranked one, else
        # its best ranked one.  Every foreign slack lies above every real
        # column, so that column holds row 0's minimum and every other row
        # holds its own slack.
        ranked0 = set(self.ranked[0])
        first = next((c for c in reversed(range(n, n + m)) if c not in ranked0), None)
        if first is None:
            first = self.ranked[0][0]
        self.owner = {0: first, **{i: i for i in range(1, n)}}  # row -> column holding that row's minimum
        self.row_of = {col: row for row, col in self.owner.items()}
        self.columns = set(self.row_of)
        self.mins = [self.utility(0, first)] + [0] * (n - 1)
        self.high = {i for i, low in enumerate(self.mins) if low > m}

    def utility(self, row: int, col: int) -> int:
        """`row`'s utility for column `col`, from its support or the closed form."""
        if col == row:
            return 0
        for i, u in self.support[col]:
            if i == row:
                return u
        return self.m + 1 + col - self.n if col >= self.n else 2 * self.m + 1 + col

    def _lowest(self, row: int, above: int) -> tuple[int, int]:
        """The basis column holding `row`'s minimum, and its utility there, when no basis column lies at or below `above` >= 0 in it.

        Walks the row upward from `above`, past its own slack: ranked
        columns worst first, then real columns by index, which are all
        unranked once no ranked column is in the basis.  With neither in
        the basis, only foreign slacks remain.  The lowest, k, would double
        row k, whose minimum is its own slack at 0, which no column can
        undercut, so the step has no completion.
        """
        n, m, columns, ranked = self.n, self.m, self.columns, self.ranked[row]
        r = len(ranked)
        for p in range(r - above - 1, -1, -1):
            if ranked[p] in columns:
                return ranked[p], r - p
        for c in range(n + max(above - m, 0), n + m):
            if c in columns:
                return c, m + 1 + c - n
        raise InternalError("ordinal replacement step has no valid completion")

    def _set_min(self, row: int, low: int):
        self.mins[row] = low
        if low > self.m:
            self.high.add(row)
        else:
            self.high.discard(row)

    def replace(self, out_col: int) -> int:
        """Remove `out_col`, add the unique alternative completion.

        The orphaned row's minimum rises to the next basis column in that
        row, which then holds two rows; the entering column is the best
        column (in the doubled column's original row) lying strictly above
        the current minima in every other row.  Only the orphaned row's and
        that home row's minima change.
        """
        mins, columns, support = self.mins, self.columns, self.support
        n, m = self.n, self.m
        orphan = self.row_of.pop(out_col)
        columns.remove(out_col)
        doubled, low = self._lowest(orphan, mins[orphan])
        self._set_min(orphan, low)
        home = self.row_of[doubled]
        home_min = mins[home]
        top = max((mins[i] for i in self.high if i != home), default=0)
        entering = None
        # Home's unranked real columns, best first: a column home ranks
        # meets home in its support.  Their value m+1+j falls with j, so
        # the scan ends where it drops below top.
        for c in range(n + m - 1, n + max(top - m - 1, 0) - 1, -1):
            if c in columns:
                continue
            for i, u in support[c]:
                if i == home or u <= mins[i]:
                    break
            else:
                entering, value = c, m + 1 + c - n
                break
        else:
            # Then home's ranked columns best first, and home's own slack
            # (utility 0, one past the last ranked position).
            ranked = self.ranked[home]
            for p, c in enumerate((*ranked, home)):
                if c in columns or (m + 1 + c - n if c >= n else 2 * m + 1 + c) < top:
                    continue
                for i, u in support[c]:
                    if u <= mins[i] and i != home:
                        break
                else:
                    entering, value = c, len(ranked) - p
                    break
        if entering is None or value >= home_min:
            raise InternalError("ordinal replacement step has no valid completion")
        columns.add(entering)
        self._set_min(home, value)
        self.owner[orphan] = doubled
        self.owner[home] = entering
        self.row_of[doubled] = orphan
        self.row_of[entering] = home
        return entering


def solve_scarf(
    problem: ScarfProblem,
    pivot_budget: int = DEFAULT_PIVOT_BUDGET,
    trace: TraceSink | None = None,
) -> DominatingPoint:
    """An extreme point of {Qx <= d, x >= 0} dominating every column.

    Deterministic for a fixed problem.  Raises ResourceLimitError when the
    pivot budget is exhausted.  The result is re-checked against the
    domination and extreme-point definitions before being returned.
    """
    n, m = problem.num_rows, problem.num_cols
    if m == 0:
        return DominatingPoint(x=(), dominating_row={})
    tableau = _Tableau(problem)
    ordinal = _OrdinalBasis(problem)

    def colname(c: int) -> str:
        return f"s{c}" if c < n else f"x{c - n}"

    entering = ordinal.owner[0]  # row 0's best real column
    pivots = 0
    while True:
        if pivots >= pivot_budget:
            raise ResourceLimitError(f"pivot budget of {pivot_budget} exceeded")
        row, holders = tableau.ratio_row(entering)
        leaving = tableau.pivot(row, entering, holders)
        pivots += 1
        if trace is not None:
            trace(f"pivot {pivots} enter={colname(entering)} leave={colname(leaving)} kind=cardinal")
        if leaving == 0:
            break
        if pivots >= pivot_budget:
            raise ResourceLimitError(f"pivot budget of {pivot_budget} exceeded")
        added = ordinal.replace(leaving)
        pivots += 1
        if trace is not None:
            trace(f"pivot {pivots} enter={colname(added)} leave={colname(leaving)} kind=ordinal")
        if added == 0:
            break
        entering = added

    if set(tableau.basis) != ordinal.columns:
        raise InternalError("cardinal and ordinal bases disagree at termination")
    x = tableau.solution()
    report = verify_dominating(problem, x)
    if not report.ok:
        raise InternalError("pivoting terminated on a non-dominating point")
    if not certify_extreme(problem, x):
        raise InternalError("pivoting terminated on a non-extreme point")
    dominating_row = {j: rows[0] for j, rows in enumerate(report.witnesses)}
    return DominatingPoint(x=tuple(x), dominating_row=dominating_row)
