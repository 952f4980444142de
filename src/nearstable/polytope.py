"""Exact rational linear algebra, linear programming and iterative rounding.

A row is an `IntRow`, a tuple of (column, nonzero int) pairs in increasing
column order; the Scarf matrix and the LP's constraints both use it, and
`sparse` is the one adapter from a dense coefficient vector.  A
`LinearRow` holds int coefficients and an int rhs; a rational constraint
is written as one by multiplying it by the lcm of its denominators.

Rows are evaluated in integers, by `int_dot`.  `scale` writes rational
values as integer numerators over the lcm of their denominators: a point
is scaled once, and the LP's reduced constraints, bounds and
fixed-variable shifts are stored scaled.  Every scale factor is positive,
so signs, tightness and the ratios of the step test are those of the
rational rows, and directions and multipliers change only by positive
factors: the pivot path and every returned point are the ones Fraction
arithmetic gives.

All elimination runs through one integer kernel, `_echelon`: integer rows
are reduced in input order without division and divided by their content,
so positively scaled inputs leave the same rows.  The null vector of the
purification step, the exact solves of the simplex, the Scarf engine's
vertex certificate (`certify_extreme`) and the active-set start of the
simplex are each a reading of its output, so they agree with one another
and with Fraction elimination in the same order.

Systems are given as equality/inequality rows plus per-variable bounds and a
set of variables fixed to constants.  `extreme_point` walks from a feasible
warm-start point to a vertex, optionally maximizing a linear objective with
a Bland-rule active-set simplex.  After the fixed variables are substituted
out, the constraints form one list in Bland order (equalities, `<=` rows,
lower bounds as `-x_i <= -lo_i`, finite upper bounds), and a constraint's
index is its tie-break key.  Results are exact `fractions.Fraction` values
and deterministic; a returned point is a vertex, since the constraints
tight at it have rank equal to the number of unfixed variables.
`iterative_rounding` is the rounding loop both capacity-revision pipelines
share: delete one row by a pipeline's rule, fix the integral coordinates,
re-solve with `extreme_point`, repeat until the vector is integral.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Callable, Iterable, Sequence

from .errors import InternalError, PreconditionError

ZERO = Fraction(0)

_SIMPLEX_BUDGET_FACTOR = 2000


def _is_integral(value: Fraction) -> bool:
    return value.denominator == 1


def _is_int(value) -> bool:
    """True for an int and False for anything else, bool included."""
    return isinstance(value, int) and not isinstance(value, bool)


IntRow = tuple[tuple[int, int], ...]
# Integer numerators and their positive common denominator: nums[i] / den.
Point = tuple[list[int], int]


def sparse(dense: Iterable) -> IntRow:
    """The row of a dense coefficient vector: its nonzero entries by column, as given."""
    return tuple((j, v) for j, v in enumerate(dense) if v != 0)


def exact(value) -> int | Fraction:
    """An int or a Fraction as it is; any other number as the Fraction it equals."""
    return value if isinstance(value, (int, Fraction)) else Fraction(value)


def scale(values: Sequence) -> Point:
    """Rational values as integer numerators over the lcm of their denominators."""
    den = 1
    for v in values:
        if v.denominator != 1:
            den = lcm(den, v.denominator)
    if den == 1:
        return [v.numerator for v in values], 1
    return [v.numerator * (den // v.denominator) for v in values], den


def int_dot(row: IntRow, nums: Sequence[int]) -> int:
    return sum(c * nums[j] for j, c in row)


# ---------------------------------------------------------------------------
# exact linear algebra (shared with the Scarf engine)
# ---------------------------------------------------------------------------


def _echelon(rows: Iterable[list[int]]) -> list[tuple[int, int, list[int]]]:
    """(input index, lead column, integer row) for each independent input row.

    Rows are reduced in input order against the rows kept so far: with `b`
    a kept row and `lead` its first nonzero column, the row becomes
    `b[lead]*row - row[lead]*b`.  A row left nonzero is divided by its
    content (the gcd of its entries) and kept.  Every kept row is a positive
    multiple of the row Fraction elimination in the same order keeps, and
    vanishes on the lead columns of the rows kept before it; a positive
    multiple of an input row leaves the kept rows unchanged.
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


def _null_vector(kept: list[tuple[int, int, list[int]]], dim: int) -> Point | None:
    """A nonzero integer point w with b . w = 0 for the rows `_echelon` kept, or None.

    Deterministic: w is 1 (over its denominator) on the lowest-index column
    without a lead and 0 on the other such columns.  The lead coordinates
    are solved in reverse order of insertion: a kept row vanishes on the
    leads of earlier rows, so every other coordinate it touches is known by
    then.  They are back-substituted in integers: before each one the
    vector is multiplied by the least positive factor that makes it
    integral, so the numerators end primitive and the denominator is the
    numerator of the free column that carries the 1.
    """
    if len(kept) >= dim:
        return None
    leads = {lead for _, lead, _ in kept}
    free = next(i for i in range(dim) if i not in leads)
    w = [0] * dim
    w[free] = 1
    for _, lead, b in reversed(kept):
        s = sum(map(mul, b, w))
        if not s:
            continue
        piv = b[lead]
        g = gcd(s, piv)
        factor = abs(piv) // g
        if factor != 1:
            w = [factor * v for v in w]
        w[lead] = -(s // g) if piv > 0 else s // g
    return w, w[free]


def _solution(augmented: Iterable[list[int]], n: int) -> Point:
    """x with M x = rhs, from the integer rows [M | -rhs] of a square system.

    x is the null vector of [M | -rhs] when its last coordinate is 1.  That
    happens iff M is nonsingular: otherwise the chosen free column lies
    inside M, and the last coordinate is either another free column (0) or
    the lead of the row (0, ..., 0, c) (also 0).
    """
    w = _null_vector(_echelon(augmented), n + 1)
    if w is None or w[0][n] != w[1]:
        raise InternalError("singular matrix in exact solve")
    return w[0][:n], w[1]


# ---------------------------------------------------------------------------
# linear systems
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LinearRow:
    coeffs: IntRow
    relation: str  # "le" or "eq"
    rhs: int


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
            if not _is_int(row.rhs) or not all(_is_int(c) for _, c in row.coeffs):
                raise PreconditionError("row coefficients and rhs must be ints")
        self._check_fixed(self.fixed)

    def _check_fixed(self, fixed: dict):
        for j, value in fixed.items():
            lo, up = self.lower[j], self.upper[j]
            if value < lo or (up is not None and value > up):
                raise PreconditionError(f"fixed value for variable {j} violates its bounds")

    def _narrowed(self, rows: tuple[LinearRow, ...], fixed: dict) -> LinearSystem:
        """This system over a subset of its rows, with `fixed` extending its fixed values.

        The rows were checked when this system was made, so only the newly
        fixed values are checked here.
        """
        self._check_fixed({j: v for j, v in fixed.items() if j not in self.fixed})
        system = object.__new__(LinearSystem)
        system.__dict__.update(num_vars=self.num_vars, rows=rows, lower=self.lower, upper=self.upper, fixed=fixed)
        return system


def is_feasible(sys: LinearSystem, x: Sequence[Fraction]) -> bool:
    if len(x) != sys.num_vars:
        return False
    for j, value in sys.fixed.items():
        if x[j] != value:
            return False
    nums, den = scale(x)
    for v, lo, up in zip(nums, sys.lower, sys.upper):
        if v * lo.denominator < lo.numerator * den:
            return False
        if up is not None and v * up.denominator > up.numerator * den:
            return False
    for row in sys.rows:
        lhs, rhs = int_dot(row.coeffs, nums), row.rhs * den
        if lhs > rhs or (row.relation == "eq" and lhs != rhs):
            return False
    return True


class _Reduced:
    """System restricted to the unfixed variables, as integer `<=`/`==` constraints.

    `constraints` holds (row, rhs) pairs over the unfixed variables in Bland
    order: the `num_eq` equalities, then the `<=` rows, then each lower
    bound as `-x_i <= -lo_i`, then each finite upper bound.  Each is a
    positive integer multiple of its rational constraint: a row is scaled
    by its own lcm and by that of the fixed values, whose shift moves into
    the rhs.  The index of a constraint is its tie-break key; only the
    equalities are never dropped from an active set.
    """

    def __init__(self, sys: LinearSystem):
        self.sys = sys
        self.free = [j for j in range(sys.num_vars) if j not in sys.fixed]
        pos = {j: i for i, j in enumerate(self.free)}
        self.n = len(self.free)
        values, den = scale(list(sys.fixed.values()))
        fixed = dict(zip(sys.fixed, values))
        eq, le = [], []
        for row in sys.rows:
            reduced = tuple((pos[j], den * c) for j, c in row.coeffs if j in pos)
            shift = sum(c * fixed[j] for j, c in row.coeffs if j not in pos)
            (eq if row.relation == "eq" else le).append((reduced, den * row.rhs - shift))
        self.num_eq = len(eq)
        bounds = [(sys.lower[j], sys.upper[j]) for j in self.free]
        lower = [(((i, -lo.denominator),), -lo.numerator) for i, (lo, _) in enumerate(bounds)]
        upper = [(((i, up.denominator),), up.numerator) for i, (_, up) in enumerate(bounds) if up is not None]
        self.constraints = eq + le + lower + upper

    def full_point(self, point: Point) -> tuple[Fraction, ...]:
        nums, den = point
        out = [ZERO] * self.sys.num_vars
        for j, value in self.sys.fixed.items():
            out[j] = value
        for j, v in zip(self.free, nums):
            out[j] = Fraction(v, den)
        return tuple(out)

    def reduce(self, vector: Sequence[Fraction]) -> Point:
        """A point or objective restricted to the unfixed variables, scaled."""
        return scale([vector[j] for j in self.free])

    def dense(self, k: int) -> list[int]:
        """Constraint k's row as a dense vector for `_echelon`."""
        vec = [0] * self.n
        for i, c in self.constraints[k][0]:
            vec[i] = c
        return vec

    def tight(self, point: Point) -> list[int]:
        """Every equality, then the inequalities tight at the point, in Bland order."""
        nums, den = point
        return [
            k
            for k, (row, rhs) in enumerate(self.constraints)
            if k < self.num_eq or int_dot(row, nums) == rhs * den
        ]


def _max_step(red: _Reduced, point: Point, d: Sequence[int], skip) -> tuple[Fraction | None, int | None]:
    """Largest feasible step along d and the limiting constraint.

    Returns (t, constraint index) with t = None when the ray is unbounded.
    A constraint's step is its slack over its speed along d; the steps are
    compared by cross-multiplying, and a Fraction is made for the winner
    only.  Inequalities are scanned in Bland order and only a strictly
    smaller step replaces the best, so ties go to the smallest index.
    """
    nums, den = point
    best = None
    for k in range(red.num_eq, len(red.constraints)):
        if k in skip:
            continue
        row, rhs = red.constraints[k]
        speed = int_dot(row, d)
        if speed <= 0:
            continue
        slack = rhs * den - int_dot(row, nums)
        if best is None or slack * best[1] < best[0] * speed:
            best = (slack, speed, k)
    if best is None:
        return None, None
    slack, speed, k = best
    return Fraction(slack, speed * den), k


def _advance(point: Point, t: Fraction, d: Sequence[int]) -> Point:
    """The point + t * d, over the lcm of its denominators."""
    nums, den = point
    top = t.numerator * den
    nums = [t.denominator * v + top * dv for v, dv in zip(nums, d)]
    den *= t.denominator
    g = gcd(den, *nums)
    if g != 1:
        nums, den = [v // g for v in nums], den // g
    return nums, den


def _purify(red: _Reduced, point: Point, gain: list[int]) -> Point:
    """Drive the point to a vertex without ever decreasing the objective `gain`."""
    while True:
        w = _null_vector(_echelon(red.dense(k) for k in red.tight(point)), red.n)
        if w is None:
            return point
        d = w[0]
        if sum(map(mul, gain, d)) < 0:
            d = [-c for c in d]
        t, _ = _max_step(red, point, d, skip=())
        if t is None:
            d = [-c for c in d]
            t, _ = _max_step(red, point, d, skip=())
            if t is None:
                raise InternalError("polytope is unbounded along a purification direction")
        if t == 0:
            raise InternalError("zero purification step from a non-tight direction")
        point = _advance(point, t, d)


def _initial_active_set(red: _Reduced, point: Point) -> list[int]:
    """A maximal independent subset of the constraints tight at a vertex.

    Equality rows are added first so they are always represented; dependent
    equality rows are implied by the chosen ones and stay satisfied.
    """
    tight = red.tight(point)
    chosen = [tight[index] for index, _, _ in _echelon(red.dense(k) for k in tight)]
    if len(chosen) != red.n:
        raise InternalError("active-set start point is not a vertex")
    return chosen


def _simplex(red: _Reduced, point: Point, objective: list[int]) -> Point:
    """Maximize objective over the reduced system starting at a vertex.

    The multipliers and the direction are positive multiples of the
    rational ones, which is all their signs and the step test need.
    """
    active = _initial_active_set(red, point)
    budget = _SIMPLEX_BUDGET_FACTOR * (red.n + len(red.sys.rows) + 1)
    for _ in range(budget):
        matrix = [red.dense(k) for k in active]
        lam, _ = _solution(([*col, -c] for col, c in zip(zip(*matrix), objective)), red.n)
        leaving = None
        for pos, k in enumerate(active):
            if k >= red.num_eq and lam[pos] < 0 and (leaving is None or k < active[leaving]):
                leaving = pos
        if leaving is None:
            return point
        d, _ = _solution(([*row, int(pos == leaving)] for pos, row in enumerate(matrix)), red.n)
        t, entering = _max_step(red, point, d, skip=set(active))
        if t is None:
            raise InternalError("unbounded improving ray on a bounded polytope")
        point = _advance(point, t, d)
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
    if not is_feasible(sys, warm):
        raise PreconditionError("warm start point is not feasible for the system")
    red = _Reduced(sys)
    point = red.reduce(warm)
    if red.n == 0:
        return red.full_point(point)
    obj = red.reduce(objective)[0] if objective is not None else [0] * red.n
    point = _purify(red, point, obj)
    if any(obj):
        point = _simplex(red, point, obj)
    result = red.full_point(point)
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
    decrease.  Returns the integral vector and one record per step.  The
    rows are checked once, on the first step; a step checks only the
    values it newly fixes.
    """
    n = len(start)
    z = list(start)
    active = list(range(len(rows)))
    system = None
    steps = []
    gain, gain_den = scale(objective) if objective is not None else ([], 1)
    value = None  # the objective at z, once a step has needed it

    def objective_at(x):
        nums, den = scale(x)
        return Fraction(sum(map(mul, gain, nums)), gain_den * den)

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
        if system is None:
            system = LinearSystem(num_vars=n, rows=tuple(rows), lower=(ZERO,) * n, upper=(upper,) * n)
        system = system._narrowed(
            tuple(rows[i] for i in active), {j: z[j] for j in range(n) if j not in fractional}
        )
        previous, z = z, list(extreme_point(system, objective, z))
        step = {"deleted": deleted, "kind": kind, "fractional": len(fractional)}
        line = f"round step {len(steps) + 1}: delete {label}, fractional={len(fractional)}"
        if objective is not None:
            before = objective_at(previous) if value is None else value
            value = objective_at(z)
            if value < before:
                raise InternalError("rounding objective decreased")
            step["objective"] = str(value)
            line += f", objective={value}"
        steps.append(step)
        if trace is not None:
            trace(line)
