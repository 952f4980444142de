"""Exact rational linear algebra, linear programming and iterative rounding.

A row is a tuple of (column, nonzero Fraction) pairs in increasing column
order; the Scarf matrix and the LP's constraints both use it.  `row_dot`
evaluates one at a point, and `sparse` is the one adapter from a dense
coefficient vector.

All elimination runs through one integer kernel, `_echelon`: dense rows are
scaled to integers, reduced in input order without division and divided
by their content.  `exact_rank`, `nullspace_vector`, `solve_square` and the
active-set start of the simplex are each a reading of its output, so they
agree with one another and with Fraction elimination in the same order.

Systems are given as equality/inequality rows plus per-variable bounds and a
set of variables fixed to constants.  `extreme_point` walks from a feasible
warm-start point to a vertex, optionally maximizing a linear objective with
a Bland-rule active-set simplex.  After the fixed variables are substituted
out, the constraints form one list in Bland order (equalities, `<=` rows,
lower bounds as `-x_i <= -lo_i`, finite upper bounds), and a constraint's
index is its tie-break key.  Every number is a `fractions.Fraction`, so
results are exact and deterministic.  `rank_of_tight_rows` certifies
vertexhood: a feasible point is a vertex iff the rows tight at it (bound
rows included) have rank equal to the number of unfixed variables.
`iterative_rounding` is the rounding loop both capacity-revision pipelines
share: delete one row by a pipeline's rule, fix the integral coordinates,
re-solve with `extreme_point`, repeat until the vector is integral.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Iterable, Sequence

from .errors import InternalError, PreconditionError

ZERO = Fraction(0)
ONE = Fraction(1)

_SIMPLEX_BUDGET_FACTOR = 2000


def _is_integral(value: Fraction) -> bool:
    return value.denominator == 1


Row = tuple[tuple[int, Fraction], ...]


def sparse(dense: Iterable) -> Row:
    """The row of a dense coefficient vector: its nonzero entries by column."""
    return tuple((j, Fraction(v)) for j, v in enumerate(dense) if v != 0)


def row_dot(row: Row, x: Sequence[Fraction]) -> Fraction:
    return sum((c * x[j] for j, c in row), ZERO)


# ---------------------------------------------------------------------------
# exact linear algebra (shared with the Scarf engine)
# ---------------------------------------------------------------------------


def _echelon(vectors: Iterable[Sequence[Fraction]]) -> list[tuple[int, int, list[int]]]:
    """(input index, lead column, integer row) for each independent input row.

    Each row is scaled to integers by the lcm of its denominators, then
    reduced in input order against the rows kept so far: with `b` a kept
    row and `lead` its first nonzero column, the row becomes
    `b[lead]*row - row[lead]*b`.  A row left nonzero is divided by its
    content (the gcd of its entries) and kept.  Every kept row is a nonzero
    multiple of the row Fraction elimination in the same order keeps, and
    vanishes on the lead columns of the rows kept before it.
    """
    kept = []
    for index, vec in enumerate(vectors):
        # Most entries are integers: only denominators other than 1 enter the lcm.
        scale = 1
        for v in vec:
            if v.denominator != 1:
                scale = lcm(scale, v.denominator)
        row = [v.numerator * (scale // v.denominator) for v in vec]
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


def exact_rank(vectors: Iterable[Sequence[Fraction]]) -> int:
    """Rank of a list of rational row vectors: the rows `_echelon` keeps."""
    return len(_echelon(vectors))


def nullspace_vector(vectors: Iterable[Sequence[Fraction]], dim: int) -> list[Fraction] | None:
    """Some nonzero w with v . w = 0 for every v, or None if none exists.

    Deterministic: w is 1 on the lowest-index column without a lead after
    elimination and 0 on the other such columns.  The lead coordinates are
    solved in reverse order of insertion: a kept row vanishes on the leads
    of earlier rows, so every other coordinate it touches is known by then.
    """
    kept = _echelon(vectors)
    if len(kept) >= dim:
        return None
    leads = {lead for _, lead, _ in kept}
    w = [ZERO] * dim
    w[next(i for i in range(dim) if i not in leads)] = ONE
    for _, lead, b in reversed(kept):
        w[lead] = -sum((c * wi for c, wi in zip(b, w) if c and wi), ZERO) / b[lead]
    return w


def solve_square(matrix: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]) -> list[Fraction]:
    """Solve M x = rhs for square nonsingular M, exactly.

    x is the null vector of [M | -rhs] when its last coordinate is 1.  That
    happens iff M is nonsingular: otherwise the chosen free column lies
    inside M, and the last coordinate is either another free column (0) or
    the lead of the row (0, ..., 0, c) (also 0).
    """
    n = len(matrix)
    w = nullspace_vector([[*row, -b] for row, b in zip(matrix, rhs)], n + 1)
    if w is None or w[n] != ONE:
        raise InternalError("singular matrix in exact solve")
    return w[:n]


# ---------------------------------------------------------------------------
# linear systems
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LinearRow:
    coeffs: Row
    relation: str  # "le" or "eq"
    rhs: Fraction


@dataclass(frozen=True)
class LinearSystem:
    """Rows over `num_vars` variables with bounds and fixed coordinates.

    `lower[j] <= x[j] <= upper[j]`; an upper bound of None means the
    variable is only bounded through the rows.  Fixed variables are
    substituted out before any pivoting.
    """

    num_vars: int
    rows: tuple[LinearRow, ...]
    lower: tuple[Fraction, ...]
    upper: tuple
    fixed: dict = field(default_factory=dict)

    def __post_init__(self):
        for row in self.rows:
            if any(not 0 <= j < self.num_vars for j, _ in row.coeffs):
                raise PreconditionError("row column outside 0..num_vars-1")
            if row.relation not in ("le", "eq"):
                raise PreconditionError(f"unknown relation {row.relation!r}")
        for j, value in self.fixed.items():
            lo, up = self.lower[j], self.upper[j]
            if value < lo or (up is not None and value > up):
                raise PreconditionError(f"fixed value for variable {j} violates its bounds")


def is_feasible(sys: LinearSystem, x: Sequence[Fraction]) -> bool:
    if len(x) != sys.num_vars:
        return False
    for j, value in sys.fixed.items():
        if x[j] != value:
            return False
    for j in range(sys.num_vars):
        if x[j] < sys.lower[j]:
            return False
        if sys.upper[j] is not None and x[j] > sys.upper[j]:
            return False
    for row in sys.rows:
        lhs = row_dot(row.coeffs, x)
        if row.relation == "eq" and lhs != row.rhs:
            return False
        if row.relation == "le" and lhs > row.rhs:
            return False
    return True


class _Reduced:
    """System restricted to the unfixed variables, as `<=`/`==` constraints.

    `constraints` holds (row, rhs) pairs over the unfixed variables in Bland
    order: the `num_eq` equalities, then the `<=` rows, then each lower
    bound as `-x_i <= -lo_i`, then each finite upper bound.  The index of a
    constraint is its tie-break key; only the equalities are never dropped
    from an active set.
    """

    def __init__(self, sys: LinearSystem):
        self.sys = sys
        self.free = [j for j in range(sys.num_vars) if j not in sys.fixed]
        pos = {j: i for i, j in enumerate(self.free)}
        self.n = len(self.free)
        eq, le = [], []
        for row in sys.rows:
            reduced = tuple((pos[j], c) for j, c in row.coeffs if j in pos)
            shift = sum((c * sys.fixed[j] for j, c in row.coeffs if j not in pos), ZERO)
            (eq if row.relation == "eq" else le).append((reduced, row.rhs - shift))
        self.num_eq = len(eq)
        lower = [(((i, -ONE),), -sys.lower[j]) for i, j in enumerate(self.free)]
        upper = [(((i, ONE),), sys.upper[j]) for i, j in enumerate(self.free) if sys.upper[j] is not None]
        self.constraints = eq + le + lower + upper

    def full_point(self, x: list[Fraction]) -> tuple[Fraction, ...]:
        out = [ZERO] * self.sys.num_vars
        for j, value in self.sys.fixed.items():
            out[j] = value
        for i, j in enumerate(self.free):
            out[j] = x[i]
        return tuple(out)

    def reduce(self, vector: Sequence[Fraction]) -> list[Fraction]:
        """A point or objective restricted to the unfixed variables."""
        return [Fraction(vector[j]) for j in self.free]

    def dense(self, k: int) -> list[Fraction]:
        """Constraint k's row as a dense vector for `_echelon`."""
        vec = [ZERO] * self.n
        for i, c in self.constraints[k][0]:
            vec[i] = c
        return vec

    def slack(self, k: int, x: list[Fraction]) -> Fraction:
        """Slack of constraint k at x (0 means tight)."""
        row, rhs = self.constraints[k]
        return rhs - row_dot(row, x)

    def tight(self, x: list[Fraction]) -> list[int]:
        """Every equality, then the inequalities tight at x, in Bland order."""
        return [k for k in range(len(self.constraints)) if k < self.num_eq or self.slack(k, x) == 0]


def _max_step(red: _Reduced, x: list[Fraction], d: list[Fraction], skip: set):
    """Largest feasible step along d and the limiting constraint.

    Returns (t, constraint index) with t = None when the ray is unbounded.
    Inequalities are scanned in Bland order and only a strictly smaller
    step replaces the best, so ties go to the smallest index.
    """
    best_t = None
    best_k = None
    for k in range(red.num_eq, len(red.constraints)):
        if k in skip:
            continue
        speed = row_dot(red.constraints[k][0], d)
        if speed <= 0:
            continue
        t = red.slack(k, x) / speed
        if best_t is None or t < best_t:
            best_t = t
            best_k = k
    return best_t, best_k


def _purify(red: _Reduced, x: list[Fraction], gain: Row) -> list[Fraction]:
    """Drive x to a vertex without ever decreasing the objective row `gain`."""
    while True:
        w = nullspace_vector([red.dense(k) for k in red.tight(x)], red.n)
        if w is None:
            return x
        if row_dot(gain, w) < 0:
            w = [-c for c in w]
        t, _ = _max_step(red, x, w, skip=set())
        if t is None:
            w = [-c for c in w]
            t, _ = _max_step(red, x, w, skip=set())
            if t is None:
                raise InternalError("polytope is unbounded along a purification direction")
        if t == 0:
            raise InternalError("zero purification step from a non-tight direction")
        x = [xi + t * wi for xi, wi in zip(x, w)]


def _initial_active_set(red: _Reduced, x: list[Fraction]) -> list[int]:
    """A maximal independent subset of the constraints tight at a vertex.

    Equality rows are added first so they are always represented; dependent
    equality rows are implied by the chosen ones and stay satisfied.
    """
    tight = red.tight(x)
    chosen = [tight[index] for index, _, _ in _echelon(red.dense(k) for k in tight)]
    if len(chosen) != red.n:
        raise InternalError("active-set start point is not a vertex")
    return chosen


def _simplex(red: _Reduced, x: list[Fraction], objective: list[Fraction]) -> list[Fraction]:
    """Maximize objective over the reduced system starting at vertex x."""
    active = _initial_active_set(red, x)
    budget = _SIMPLEX_BUDGET_FACTOR * (red.n + len(red.sys.rows) + 1)
    for _ in range(budget):
        matrix = [red.dense(k) for k in active]
        transposed = [[matrix[r][c] for r in range(red.n)] for c in range(red.n)]
        lam = solve_square(transposed, objective)
        leaving = None
        for pos, k in enumerate(active):
            if k >= red.num_eq and lam[pos] < 0 and (leaving is None or k < active[leaving]):
                leaving = pos
        if leaving is None:
            return x
        target = [ZERO] * red.n
        target[leaving] = -ONE
        d = solve_square(matrix, target)
        t, entering = _max_step(red, x, d, skip=set(active))
        if t is None:
            raise InternalError("unbounded improving ray on a bounded polytope")
        x = [xi + t * di for xi, di in zip(x, d)]
        active[leaving] = entering
    raise InternalError("simplex iteration budget exceeded")


def extreme_point(
    sys: LinearSystem,
    objective: Sequence[Fraction] | None,
    warm: Sequence[Fraction],
) -> tuple[Fraction, ...]:
    """A vertex of the system, objective-maximizing when one is given.

    The returned point always satisfies every row exactly and has tight-row
    rank equal to the number of unfixed variables; its objective value is
    never below the warm start's.
    """
    warm = [Fraction(v) for v in warm]
    if not is_feasible(sys, warm):
        raise PreconditionError("warm start point is not feasible for the system")
    red = _Reduced(sys)
    x = red.reduce(warm)
    if red.n == 0:
        return red.full_point(x)
    obj = red.reduce(objective) if objective is not None else [ZERO] * red.n
    x = _purify(red, x, sparse(obj))
    if any(obj):
        x = _simplex(red, x, obj)
    result = red.full_point(x)
    if not is_feasible(sys, result):
        raise InternalError("pivoting left the feasible region")
    return result


def iterative_rounding(
    start: Sequence[Fraction],
    rows: Sequence[LinearRow],
    rule: Callable[[list[Fraction], set[int], list[int]], tuple | None],
    upper: Fraction | None,
    objective: Sequence[Fraction] | None = None,
    trace: Callable[[str], None] | None = None,
) -> tuple[list[int], list[dict]]:
    """Round a fractional vertex by deleting one row per step (Lau, Ravi & Singh 2011).

    `rows` hold with 0 <= z <= upper (unbounded above when None).  Each step
    asks `rule(z, fractional, active)` (the fractional coordinates of `z`,
    the indices of the rows still imposed, in order) for (row index,
    deleted id, kind, trace label), or None when no row may go.  The row
    is dropped, the integral coordinates are fixed, and `extreme_point`
    re-solves from `z`, maximizing `objective` if given; it must never
    decrease.  Returns the integral vector and one record per step.
    """
    n = len(start)
    z = [Fraction(v) for v in start]
    active = list(range(len(rows)))
    steps = []
    gain = sparse(objective) if objective is not None else ()
    while True:
        fractional = {j for j, v in enumerate(z) if not _is_integral(v)}
        if not fractional:
            return [int(v) for v in z], steps
        if len(steps) == len(rows):
            raise InternalError("rounding exceeded the deletion bound")
        choice = rule(z, fractional, active)
        if choice is None:
            raise InternalError("no deletable row although the vector is fractional")
        index, deleted, kind, label = choice
        active.remove(index)
        system = LinearSystem(
            num_vars=n,
            rows=tuple(rows[i] for i in active),
            lower=(ZERO,) * n,
            upper=(upper,) * n,
            fixed={j: z[j] for j in range(n) if j not in fractional},
        )
        previous, z = z, list(extreme_point(system, objective, z))
        step = {"deleted": deleted, "kind": kind, "fractional": len(fractional)}
        line = f"round step {len(steps) + 1}: delete {label}, fractional={len(fractional)}"
        if objective is not None:
            value = row_dot(gain, z)
            if value < row_dot(gain, previous):
                raise InternalError("rounding objective decreased")
            step["objective"] = str(value)
            line += f", objective={value}"
        steps.append(step)
        if trace is not None:
            trace(line)


def rank_of_tight_rows(sys: LinearSystem, x: Sequence[Fraction]) -> int:
    """Exact rank of the constraint rows (bounds included) tight at x.

    Fixed variables are substituted out first, so a returned vertex always
    scores exactly the number of unfixed variables.
    """
    red = _Reduced(sys)
    return exact_rank(red.dense(k) for k in red.tight(red.reduce(x)))


def is_vertex(sys: LinearSystem, x: Sequence[Fraction]) -> bool:
    return is_feasible(sys, x) and rank_of_tight_rows(sys, x) == sum(
        1 for j in range(sys.num_vars) if j not in sys.fixed
    )
