"""Exact rational linear programming on small polytopes.

Systems are given as equality/inequality rows plus per-variable bounds and a
set of variables fixed to constants.  `extreme_point` walks from a feasible
warm-start point to a vertex, optionally maximizing a linear objective with
a Bland-rule active-set simplex; every number is a `fractions.Fraction`, so
results are exact and deterministic.  `rank_of_tight_rows` certifies
vertexhood: a feasible point is a vertex iff the rows tight at it (bound
rows included) have rank equal to the number of unfixed variables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

from .errors import InternalError, PreconditionError

ZERO = Fraction(0)
ONE = Fraction(1)

_SIMPLEX_BUDGET_FACTOR = 2000


# ---------------------------------------------------------------------------
# exact linear algebra helpers (shared with the Scarf engine)
# ---------------------------------------------------------------------------


def exact_rank(vectors: Iterable[Sequence[Fraction]]) -> int:
    """Rank of a list of rational row vectors, by fraction-free elimination.

    Each row is scaled to integers by the lcm of its denominators, which
    leaves the rank unchanged.  Bareiss elimination (1968) then runs on
    integers only: after k pivots every entry is a k-by-k minor of the
    scaled matrix, so each division by the previous pivot is exact and the
    entries stay as small as those minors.  Rows that become zero are
    dropped; the rank is the number of pivots taken.
    """
    rows: list[list[int]] = []
    for vec in vectors:
        scale = lcm(*(v.denominator for v in vec))
        row = [v.numerator * (scale // v.denominator) for v in vec]
        if any(row):
            rows.append(row)
    rank = 0
    prev = 1
    while rows:
        pivot_row = rows.pop()
        col = next(c for c, v in enumerate(pivot_row) if v)
        piv = pivot_row[col]
        remaining = []
        for row in rows:
            factor = row[col]
            if factor:
                row = [(piv * v - factor * p) // prev for v, p in zip(row, pivot_row)]
                if not any(row):
                    continue
            elif piv != prev:
                row = [(piv * v) // prev for v in row]
            remaining.append(row)
        rows = remaining
        prev = piv
        rank += 1
    return rank


def nullspace_vector(vectors: Iterable[Sequence[Fraction]], dim: int) -> list[Fraction] | None:
    """Some nonzero w with v . w = 0 for every v, or None if none exists.

    Deterministic: the free coordinate chosen is the lowest-index column
    without a pivot after elimination.
    """
    basis: list[list[Fraction]] = []
    for vec in vectors:
        row = list(vec)
        for b in basis:
            lead = next(i for i, x in enumerate(b) if x != 0)
            if row[lead] != 0:
                factor = row[lead] / b[lead]
                row = [r - factor * bb for r, bb in zip(row, b)]
        if any(x != 0 for x in row):
            basis.append(row)
    if len(basis) >= dim:
        return None
    pivots = {next(i for i, x in enumerate(b) if x != 0) for b in basis}
    free = next(i for i in range(dim) if i not in pivots)
    w = [ZERO] * dim
    w[free] = ONE
    # Back-substitute in reverse order of insertion; rows are triangular
    # with distinct leading columns.
    for b in reversed(basis):
        lead = next(i for i, x in enumerate(b) if x != 0)
        acc = sum((b[i] * w[i] for i in range(dim) if i != lead), ZERO)
        w[lead] = -acc / b[lead]
    return w


def solve_square(matrix: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]) -> list[Fraction]:
    """Solve M x = rhs for square nonsingular M, exactly."""
    n = len(matrix)
    aug = [list(row) + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise InternalError("singular matrix in exact solve")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = ONE / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return [aug[i][n] for i in range(n)]


# ---------------------------------------------------------------------------
# linear systems
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LinearRow:
    coeffs: tuple[Fraction, ...]
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
            if len(row.coeffs) != self.num_vars:
                raise PreconditionError("row length does not match num_vars")
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
        lhs = sum((c * x[j] for j, c in enumerate(row.coeffs) if c != 0), ZERO)
        if row.relation == "eq" and lhs != row.rhs:
            return False
        if row.relation == "le" and lhs > row.rhs:
            return False
    return True


class _Reduced:
    """System restricted to the unfixed variables, with rows rewritten."""

    def __init__(self, sys: LinearSystem):
        self.sys = sys
        self.free = [j for j in range(sys.num_vars) if j not in sys.fixed]
        self.pos = {j: i for i, j in enumerate(self.free)}
        self.n = len(self.free)
        self.rows = []  # (vector, relation, rhs) over free vars
        for row in sys.rows:
            vec = [row.coeffs[j] for j in self.free]
            shift = sum((row.coeffs[j] * sys.fixed[j] for j in sys.fixed if row.coeffs[j] != 0), ZERO)
            self.rows.append((vec, row.relation, row.rhs - shift))
        self.lower = [sys.lower[j] for j in self.free]
        self.upper = [sys.upper[j] for j in self.free]

    def full_point(self, x: list[Fraction]) -> tuple[Fraction, ...]:
        out = [ZERO] * self.sys.num_vars
        for j, value in self.sys.fixed.items():
            out[j] = value
        for i, j in enumerate(self.free):
            out[j] = x[i]
        return tuple(out)

    def reduce_point(self, x: Sequence[Fraction]) -> list[Fraction]:
        return [Fraction(x[j]) for j in self.free]

    def reduce_objective(self, objective: Sequence[Fraction]) -> list[Fraction]:
        return [Fraction(objective[j]) for j in self.free]

    # Constraint descriptors: ("le", row index), ("lo", var index),
    # ("up", var index).  Equality rows are handled separately since they
    # are never dropped from the active set.
    def descriptor_vector(self, desc) -> list[Fraction]:
        kind, idx = desc
        if kind == "le" or kind == "eq":
            return list(self.rows[idx][0])
        vec = [ZERO] * self.n
        if kind == "lo":
            vec[idx] = -ONE
        else:
            vec[idx] = ONE
        return vec

    def descriptor_slack(self, desc, x: list[Fraction]) -> Fraction:
        """Slack of the constraint in '<=' orientation (0 means tight)."""
        kind, idx = desc
        if kind == "le" or kind == "eq":
            vec, _, rhs = self.rows[idx]
            return rhs - sum((c * x[i] for i, c in enumerate(vec) if c != 0), ZERO)
        if kind == "lo":
            return x[idx] - self.lower[idx]
        return self.upper[idx] - x[idx]

    def inequality_descriptors(self):
        out = []
        for i, (_, rel, _) in enumerate(self.rows):
            if rel == "le":
                out.append(("le", i))
        for j in range(self.n):
            out.append(("lo", j))
        for j in range(self.n):
            if self.upper[j] is not None:
                out.append(("up", j))
        return out

    def equality_descriptors(self):
        return [("eq", i) for i, (_, rel, _) in enumerate(self.rows) if rel == "eq"]


_DESC_ORDER = {"eq": 0, "le": 1, "lo": 2, "up": 3}


def _desc_key(desc):
    return (_DESC_ORDER[desc[0]], desc[1])


def _tight_descriptors(red: _Reduced, x: list[Fraction]):
    out = list(red.equality_descriptors())
    for desc in red.inequality_descriptors():
        if red.descriptor_slack(desc, x) == 0:
            out.append(desc)
    return out


def _dot(a: Sequence[Fraction], b: Sequence[Fraction]) -> Fraction:
    return sum((x * y for x, y in zip(a, b) if x != 0), ZERO)


def _max_step(red: _Reduced, x: list[Fraction], d: list[Fraction], skip: set):
    """Largest feasible step along d and the limiting constraint.

    Returns (t, descriptor) with t = None when the ray is unbounded.
    Ties are broken toward the smallest descriptor key so pivoting is
    deterministic.
    """
    best_t = None
    best_desc = None
    for desc in red.inequality_descriptors():
        if desc in skip:
            continue
        vec = red.descriptor_vector(desc)
        speed = _dot(vec, d)
        if speed <= 0:
            continue
        t = red.descriptor_slack(desc, x) / speed
        if best_t is None or t < best_t or (t == best_t and _desc_key(desc) < _desc_key(best_desc)):
            best_t = t
            best_desc = desc
    return best_t, best_desc


def _purify(red: _Reduced, x: list[Fraction], objective: list[Fraction] | None) -> list[Fraction]:
    """Drive x to a vertex without ever decreasing the objective."""
    while True:
        tight = _tight_descriptors(red, x)
        vectors = [red.descriptor_vector(d) for d in tight]
        w = nullspace_vector(vectors, red.n)
        if w is None:
            return x
        if objective is not None and _dot(objective, w) < 0:
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


def _initial_active_set(red: _Reduced, x: list[Fraction]):
    """A maximal independent subset of the rows tight at a vertex.

    Equality rows are added first so they are always represented; dependent
    equality rows are implied by the chosen ones and stay satisfied.
    """
    chosen = []
    basis: list[list[Fraction]] = []
    for desc in _tight_descriptors(red, x):
        vec = red.descriptor_vector(desc)
        row = list(vec)
        for b in basis:
            lead = next(i for i, c in enumerate(b) if c != 0)
            if row[lead] != 0:
                factor = row[lead] / b[lead]
                row = [r - factor * bb for r, bb in zip(row, b)]
        if any(c != 0 for c in row):
            basis.append(row)
            chosen.append(desc)
    if len(chosen) != red.n:
        raise InternalError("active-set start point is not a vertex")
    return chosen


def _simplex(red: _Reduced, x: list[Fraction], objective: list[Fraction]) -> list[Fraction]:
    """Maximize objective over the reduced system starting at vertex x."""
    active = _initial_active_set(red, x)
    budget = _SIMPLEX_BUDGET_FACTOR * (red.n + len(red.rows) + 1)
    for _ in range(budget):
        matrix = [red.descriptor_vector(d) for d in active]
        transposed = [[matrix[r][c] for r in range(red.n)] for c in range(red.n)]
        lam = solve_square(transposed, objective)
        leaving = None
        for pos, desc in enumerate(active):
            if desc[0] == "eq":
                continue
            if lam[pos] < 0 and (leaving is None or _desc_key(desc) < _desc_key(active[leaving])):
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
    x = red.reduce_point(warm)
    if red.n == 0:
        return red.full_point(x)
    obj = red.reduce_objective(objective) if objective is not None else None
    x = _purify(red, x, obj)
    if obj is not None and any(c != 0 for c in obj):
        x = _simplex(red, x, obj)
    result = red.full_point(x)
    if not is_feasible(sys, result):
        raise InternalError("pivoting left the feasible region")
    return result


def rank_of_tight_rows(sys: LinearSystem, x: Sequence[Fraction]) -> int:
    """Exact rank of the constraint rows (bounds included) tight at x.

    Fixed variables are substituted out first, so a returned vertex always
    scores exactly the number of unfixed variables.
    """
    red = _Reduced(sys)
    xr = red.reduce_point(x)
    vectors = [red.descriptor_vector(d) for d in _tight_descriptors(red, xr)]
    return exact_rank(vectors)


def is_vertex(sys: LinearSystem, x: Sequence[Fraction]) -> bool:
    return is_feasible(sys, x) and rank_of_tight_rows(sys, x) == sum(
        1 for j in range(sys.num_vars) if j not in sys.fixed
    )
