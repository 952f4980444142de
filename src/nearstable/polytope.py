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

All elimination runs through one integer kernel, `_echelon`, over sparse
rows: each `IntRow` becomes a {column: value} dict of its nonzeros (a
stored zero is skipped), is reduced in input order without division
against the rows kept so far, touching only their nonzeros, and is
divided by its content, so positively scaled inputs leave the same rows.
The null vector of the purification step, the exact solves of the simplex
(whose transposed rows are built column by column), the Scarf engine's
vertex certificate (`certify_extreme`) and the active-set start of the
simplex are each a reading of its output, so they agree with one another
and with Fraction elimination in the same order.

Systems are given as equality/inequality rows plus per-variable bounds and a
set of variables fixed to constants.  One reducer, `_constraints`,
substitutes the fixed variables out and drops each row left constant once
it holds; the result is one integer list in Bland order (equalities, `<=`
rows, lower bounds as `-x_i <= -lo_i`, finite upper bounds), and a
constraint's index is its tie-break key.  One integer core, `_vertex`,
walks from a feasible point to a vertex (`_purify`) and then, given a
linear objective, maximizes it with a Bland-rule active-set simplex
started from the active set that purification's last elimination kept; a
vertex is where the constraints tight at it have rank equal to the number
of variables.  `extreme_point` is the one entry to the core and checks its
start and its result in integers.  A `LinearSystem` with a `Fraction` warm
start is reduced with its fixed values scaled once by their lcm, and its
vertex returned as exact `fractions.Fraction` values, deterministically.
`iterative_rounding` is the rounding loop both capacity-revision pipelines
share: delete one row by a pipeline's rule, fix the integral coordinates,
and call `extreme_point` on the reduced integer system over the fractional
coordinates, repeating until the vector is integral.  A step whose deleted
row has no nonzero coefficient on a fractional coordinate cannot change
that LP's answer, so after the first step it is recorded without a solve;
a row found constant is checked once and left out of later steps.  It
works in integers throughout; a `Fraction` is made only for each step's
objective record.
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
    """True for an int and False for anything else, bool included.

    The one such test of the package: LP rows, Scarf problems, capacities,
    quotas and integer file fields all go through it.
    """
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


def _echelon(rows: Iterable[IntRow]) -> list[tuple[int, int, dict[int, int]]]:
    """(input index, lead column, integer row) for each independent input row.

    Each row is taken as a {column: value} dict of its nonzero entries (a
    stored zero coefficient is no entry) and reduced in input order against
    the rows kept so far: with `b` a kept row and `lead` its smallest
    column, the row becomes `b[lead]*row - row[lead]*b`, entries that
    cancel leaving the dict.  A row left nonzero is divided by its content
    (the gcd of its entries) and kept.  Every kept row is a positive
    multiple of the row Fraction elimination in the same order keeps, and
    vanishes on the lead columns of the rows kept before it; a positive
    multiple of an input row leaves the kept rows unchanged.
    """
    kept = []
    for index, entries in enumerate(rows):
        row = {j: v for j, v in entries if v}
        for _, lead, b in kept:
            factor = row.get(lead)
            if factor:
                piv = b[lead]
                if piv != 1:
                    row = {j: piv * v for j, v in row.items()}
                for j, v in b.items():
                    v = row.get(j, 0) - factor * v
                    if v:
                        row[j] = v
                    else:
                        del row[j]
        if not row:
            continue
        content = gcd(*row.values())
        if content != 1:
            row = {j: v // content for j, v in row.items()}
        kept.append((index, min(row), row))
    return kept


def _null_vector(kept: list[tuple[int, int, dict[int, int]]], dim: int) -> Point | None:
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
        s = sum([v * w[j] for j, v in b.items()])
        if not s:
            continue
        piv = b[lead]
        g = gcd(s, piv)
        factor = abs(piv) // g
        if factor != 1:
            w = [factor * v for v in w]
        w[lead] = -(s // g) if piv > 0 else s // g
    return w, w[free]


def _solution(augmented: Iterable[IntRow], n: int) -> Point:
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
        if len(self.lower) != self.num_vars or len(self.upper) != self.num_vars:
            raise PreconditionError("lower and upper need one bound per variable")
        _check_rows(self.rows, self.num_vars)
        for j, value in self.fixed.items():
            if not 0 <= j < self.num_vars:
                raise PreconditionError(f"fixed variable {j} outside 0..num_vars-1")
            _check_bounds(j, value, self.lower[j], self.upper[j])


def _check_rows(rows: Iterable[LinearRow], num_vars: int) -> None:
    for row in rows:
        if any(not 0 <= j < num_vars for j, _ in row.coeffs):
            raise PreconditionError("row column outside 0..num_vars-1")
        if row.relation not in ("le", "eq"):
            raise PreconditionError(f"unknown relation {row.relation!r}")
        if not _is_int(row.rhs) or not all(_is_int(c) for _, c in row.coeffs):
            raise PreconditionError("row coefficients and rhs must be ints")


def _check_bounds(j: int, value, lower, upper) -> None:
    """The value of fixed variable j against its bounds (no upper bound when None)."""
    if value < lower or (upper is not None and value > upper):
        raise PreconditionError(f"fixed value for variable {j} violates its bounds")


class _Constraints:
    """Integer `<=`/`==` constraints over `n` variables, in Bland order.

    `constraints` holds (row, rhs) pairs: the `num_eq` equalities, then the
    other rows, then the single-entry bound rows: each lower bound as
    `-x_i <= -lo_i`, then each finite upper bound.  The index of a
    constraint is its tie-break key; only the equalities are never dropped
    from an active set.  `num_rows` counts the system rows they come from
    and sizes the simplex budget; `sources` holds the position among those
    rows of each row kept, in order, so the bound rows start at index
    `len(sources)`.
    """

    def __init__(self, n: int, num_eq: int, constraints: list, num_rows: int, sources: list[int]):
        self.n = n
        self.num_eq = num_eq
        self.constraints = constraints
        self.num_rows = num_rows
        self.sources = sources

    def slacks(self, point: Point) -> list[int]:
        """Each constraint's rhs less its row at the point, times den."""
        nums, den = point
        split = len(self.sources)
        slacks = [rhs * den - sum([c * nums[j] for j, c in row]) for row, rhs in self.constraints[:split]]
        slacks += [rhs * den - c * nums[j] for ((j, c),), rhs in self.constraints[split:]]
        return slacks

    def tight(self, slacks: list[int]) -> list[int]:
        """Every equality, then the inequalities with no slack, in Bland order."""
        num_eq = self.num_eq
        return [k for k, slack in enumerate(slacks) if k < num_eq or not slack]

    def holds(self, slacks: list[int]) -> bool:
        return not any(slacks[: self.num_eq]) and min(slacks, default=0) >= 0

    def parallel_to_equality(self, vector: list[int]) -> bool:
        """True if some equality's row is a multiple of the nonzero `vector`.

        Rows are compared in their sparse form, so a row with the same
        support and proportional entries is found without densifying.  A
        stored zero coefficient is not support: a row whose first entry is
        0 is never a multiple of the vector.
        """
        support = [(i, v) for i, v in enumerate(vector) if v]
        v0 = support[0][1]
        for row, _ in self.constraints[: self.num_eq]:
            if len(row) == len(support):
                r0 = row[0][1]
                if r0 and all(i == j and r * v0 == v * r0 for (i, r), (j, v) in zip(row, support)):
                    return True
        return False


def _constraints(
    rows: Sequence[LinearRow], free: list[int], value: Sequence[int], den: int, lower, upper
) -> _Constraints:
    """The rows and the bounds `lower[j] <= x[j] <= upper[j]` over the columns `free`.

    `free` is in increasing order and every other column j is fixed to
    `value[j] / den`.  Each row is multiplied by `den`, restricted to
    `free`, and its fixed part moves into the rhs; a row with no column in
    `free` is checked as a constant and left out, since it never enters an
    active set.  Each bound is multiplied by its own denominator, and an
    upper bound of None gives no row.
    """
    position = {j: i for i, j in enumerate(free)}.get
    eq, le, sources = [], [], []
    for source, row in enumerate(rows):
        kept, rhs = [], den * row.rhs
        for j, c in row.coeffs:
            i = position(j)
            if i is None:
                rhs -= c * value[j]
            else:
                kept.append((i, den * c))
        if kept:
            (eq if row.relation == "eq" else le).append((tuple(kept), rhs))
            sources.append(source)
        elif rhs < 0 or (rhs and row.relation == "eq"):
            raise PreconditionError("warm start point is not feasible for the system")
    low = [(((i, -lower[j].denominator),), -lower[j].numerator) for i, j in enumerate(free)]
    up = [(((i, upper[j].denominator),), upper[j].numerator) for i, j in enumerate(free) if upper[j] is not None]
    return _Constraints(len(free), len(eq), eq + le + low + up, len(rows), sources)


def _max_step(red: _Constraints, point: Point, d: Sequence[int], skip) -> tuple[Fraction | None, int | None]:
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


def _purify(red: _Constraints, point: Point, slacks: list[int], gain: list[int]) -> tuple[Point, list[int]]:
    """Drive a feasible point to a vertex without ever decreasing the objective `gain`.

    `slacks` are the constraints' slacks at the point, which the caller
    has checked.  Returns the vertex and an active set at it: the tight
    constraints whose rows the last elimination kept.  That elimination
    left no null vector, so they are `n` independent constraints, every
    independent equality among them; dependent equalities are implied by
    the kept rows.  This is the "is a vertex" guarantee the simplex starts
    from.
    """
    while True:
        tight = red.tight(slacks)
        kept = _echelon(red.constraints[k][0] for k in tight)
        w = _null_vector(kept, red.n)
        if w is None:
            return point, [tight[index] for index, _, _ in kept]
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
        slacks = red.slacks(point)


def _simplex(red: _Constraints, point: Point, objective: list[int], active: list[int]) -> Point:
    """Maximize objective over the constraints from a vertex and an active set at it.

    The multipliers and the direction are positive multiples of the
    rational ones, which is all their signs and the step test need: the
    multipliers solve the transposed active rows, built column by column,
    against the objective, and the direction the active rows against the
    leaving constraint's unit vector.
    """
    n = red.n
    budget = _SIMPLEX_BUDGET_FACTOR * (n + red.num_rows + 1)
    for _ in range(budget):
        matrix = [red.constraints[k][0] for k in active]
        columns = [[] for _ in range(n)]
        for pos, row in enumerate(matrix):
            for j, c in row:
                columns[j].append((pos, c))
        lam, _ = _solution(((*col, (n, -c)) for col, c in zip(columns, objective)), n)
        leaving = None
        for pos, k in enumerate(active):
            if k >= red.num_eq and lam[pos] < 0 and (leaving is None or k < active[leaving]):
                leaving = pos
        if leaving is None:
            return point
        d, _ = _solution(((*row, (n, 1)) if pos == leaving else row for pos, row in enumerate(matrix)), n)
        t, entering = _max_step(red, point, d, skip=set(active))
        if t is None:
            raise InternalError("unbounded improving ray on a bounded polytope")
        point = _advance(point, t, d)
        active[leaving] = entering
    raise InternalError("simplex iteration budget exceeded")


def _vertex(red: _Constraints, point: Point, slacks: list[int], objective: list[int]) -> Point:
    """A vertex of the constraints reached from a feasible point, maximizing `objective`.

    An objective that is a multiple of an equality's row is constant on the
    constraints, so the purified vertex is optimal: its multipliers vanish
    off that equality, and the simplex would stop there without a pivot.
    """
    point, active = _purify(red, point, slacks, objective)
    if any(objective) and not red.parallel_to_equality(objective):
        point = _simplex(red, point, objective, active)
    return point


def extreme_point(
    sys: LinearSystem | _Constraints,
    objective: Sequence | None,
    warm: Sequence[Fraction] | Point,
) -> tuple[Fraction, ...] | Point:
    """A vertex of the system, objective-maximizing when one is given.

    `sys` is a `LinearSystem` with a `Fraction` objective (or None) and
    warm start, written as integers by `_constraints` on entry, and the
    result is a tuple of `Fraction`s; or it is the integer system of a
    rounding step (a `_Constraints`) with an int objective and a `Point`
    warm start, and the result is a `Point`.  The warm start and the result
    are checked in integers.  The returned point always satisfies every row
    exactly and has tight-row rank equal to the number of unfixed
    variables; its objective value is never below the warm start's.
    """
    rational = isinstance(sys, LinearSystem)
    num_vars = sys.num_vars if rational else sys.n
    if objective is not None and len(objective) != num_vars:
        raise PreconditionError(f"objective has {len(objective)} entries for {num_vars} variables")
    red = sys
    if rational:
        if len(warm) != num_vars or any(warm[j] != v for j, v in sys.fixed.items()):
            raise PreconditionError("warm start point is not feasible for the system")
        free = [j for j in range(num_vars) if j not in sys.fixed]
        value, den = scale([sys.fixed.get(j, ZERO) for j in range(num_vars)])
        red = _constraints(sys.rows, free, value, den, sys.lower, sys.upper)
        warm = scale([warm[j] for j in free])
        if objective is not None:
            objective = scale([objective[j] for j in free])[0]
    slacks = red.slacks(warm)
    if not red.holds(slacks):
        raise PreconditionError("warm start point is not feasible for the system")
    point = _vertex(red, warm, slacks, objective if objective is not None else [0] * red.n)
    if not red.holds(red.slacks(point)):
        raise InternalError("pivoting left the feasible region")
    if not rational:
        return point
    nums, den = point
    result = dict(sys.fixed)
    result.update((j, Fraction(v, den)) for j, v in zip(free, nums))
    return tuple(result[j] for j in range(num_vars))


def iterative_rounding(
    start: Sequence[Fraction],
    rows: Sequence[LinearRow],
    rule: Callable[[Point, set[int], list[int]], tuple | None],
    upper: Fraction | None,
    objective: Sequence[Fraction] | None = None,
    trace: Callable[[str], None] | None = None,
) -> tuple[list[int], list[dict]]:
    """Round a fractional vertex by deleting one row per step (Lau, Ravi & Singh 2011).

    `rows` hold with 0 <= z <= upper (unbounded above when None).  The
    vector is one integer `Point` (nums, den) throughout; coordinate j is
    fractional iff `nums[j] % den`, and an integral coordinate is fixed for
    good.  Each step asks `rule(point, fractional, active)` (the set of
    fractional coordinates, the indices of the rows still imposed, in
    order) for (row index, deleted id, kind, trace label), or None when no
    row may go.  The row is dropped and `extreme_point` solves the integer
    LP that `_constraints` reduces the imposed rows to over the fractional
    coordinates, as it would a `LinearSystem` with the integral ones fixed,
    from the current point to a vertex, maximizing `objective` if given,
    which must never decrease.

    After the first step, a deleted row with no nonzero coefficient on a
    fractional coordinate leaves the LP unsolved and the point where it
    is.  That is what the solve would return: the step system is the last
    solved one with the newly fixed columns substituted out and constant
    rows dropped, so its feasible set lies inside the last one's and holds
    the point, which was returned as a vertex (and as the optimum when
    there is an objective); purification finds no null vector there, and
    any simplex move would strictly raise the objective.  A row the
    reducer found constant has been checked and is left out of every
    later step's input.

    The rows are checked once, on the first step; each value is checked
    against its bounds when it is fixed; the step system holds before and
    after each solved step; the integral result satisfies every row still
    imposed and every bound.  Returns the integral vector and one record
    per step.
    """
    n = len(start)
    nums, den = scale(start)
    free = [j for j in range(n) if nums[j] % den]
    newly = [j for j in range(n) if not nums[j] % den]  # integral, not yet fixed
    values = [0] * n  # the value of each fixed coordinate
    active = list(range(len(rows)))
    live = list(active)  # the imposed rows not yet found constant
    bounds = (0,) * n, (upper,) * n
    steps = []
    gain, gain_den = scale(objective) if objective is not None else ([0] * n, 1)
    value = sum(map(mul, gain, nums)), den  # the objective at the point, over gain_den

    while free:
        if len(steps) == len(rows):
            raise InternalError("rounding exceeded the deletion bound")
        fractional = set(free)
        choice = rule((nums, den), fractional, active)
        if choice is None:
            raise InternalError("no deletable row although the vector is fractional")
        index, deleted, kind, label = choice
        active.remove(index)
        if index in live:
            live.remove(index)
        if not steps:
            _check_rows(rows, n)
        for j in newly:
            values[j] = nums[j] // den
            _check_bounds(j, values[j], 0, upper)
        newly = []
        if not steps or any(c and j in fractional for j, c in rows[index].coeffs):
            red = _constraints([rows[i] for i in live], free, values, 1, *bounds)
            live = [live[p] for p in red.sources]
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
