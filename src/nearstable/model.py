"""Problem instances, capacity revisions, and validation.

Three problem families share this module:

* capacitated hypergraph matching (graphs with capacities are the special
  case of edges of size two),
* college admission with common quotas over sets of colleges,
* multicommodity flow with preferences on vertices and arcs.

All solver-facing numbers are exact: capacities and quotas are nonnegative
integers, solution values are `fractions.Fraction`.  Values are immutable
after construction and all operations here are pure functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError
from .orders import WeakOrder
from .polytope import _is_int

Id = str


# ---------------------------------------------------------------------------
# instance types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HyperEdge:
    id: Id
    vertices: tuple[Id, ...]


@dataclass(frozen=True)
class HypergraphInstance:
    """Hypergraph with vertex capacities and per-vertex edge preferences."""

    vertices: tuple[Id, ...]
    edges: tuple[HyperEdge, ...]
    capacities: dict[Id, int]
    preferences: dict[Id, WeakOrder]

    @property
    def max_edge_size(self) -> int:
        """Size of the largest edge; 1 for an edgeless instance."""
        return max((len(e.vertices) for e in self.edges), default=1)

    def incident(self) -> dict[Id, list[Id]]:
        """Vertex id -> incident edge ids, in declared edge order."""
        out: dict[Id, list[Id]] = {v: [] for v in self.vertices}
        for e in self.edges:
            for v in e.vertices:
                if v in out:
                    out[v].append(e.id)
        return out


@dataclass(frozen=True)
class CacqEdge:
    id: Id
    student: Id
    college: Id


@dataclass(frozen=True)
class CollegeSet:
    """A set of colleges sharing a quota and a master list over students."""

    id: Id
    colleges: tuple[Id, ...]
    quota: int
    master: WeakOrder


@dataclass(frozen=True)
class CacqInstance:
    students: tuple[Id, ...]
    colleges: tuple[Id, ...]
    edges: tuple[CacqEdge, ...]
    college_quotas: dict[Id, int]
    college_prefs: dict[Id, WeakOrder]
    sets: tuple[CollegeSet, ...]
    student_prefs: dict[Id, WeakOrder]

    @property
    def memberships(self) -> dict[Id, list[Id]]:
        """College id -> ids of sets containing it."""
        out: dict[Id, list[Id]] = {c: [] for c in self.colleges}
        for cs in self.sets:
            for c in cs.colleges:
                if c in out:
                    out[c].append(cs.id)
        return out

    @property
    def max_memberships(self) -> int:
        """Largest number of sets any single college belongs to."""
        return max((len(m) for m in self.memberships.values()), default=1)

    def student_edges(self) -> dict[Id, list[Id]]:
        out: dict[Id, list[Id]] = {s: [] for s in self.students}
        for e in self.edges:
            if e.student in out:
                out[e.student].append(e.id)
        return out


@dataclass(frozen=True)
class Arc:
    id: Id
    tail: Id
    head: Id


@dataclass(frozen=True)
class Commodity:
    source: Id
    sink: Id


@dataclass(frozen=True)
class FlowInstance:
    """Digraph with per-arc aggregate and per-commodity integral capacities.

    Commodities are 1-based indices into `commodities`.  Vertex preferences
    are per (vertex, commodity) over the vertex's incident arcs; arc
    preferences rank the commodity indices.
    """

    vertices: tuple[Id, ...]
    arcs: tuple[Arc, ...]
    commodities: tuple[Commodity, ...]
    capacity: dict[Id, int]
    commodity_capacity: dict[tuple[Id, int], int]
    vertex_prefs: dict[tuple[Id, int], WeakOrder]
    arc_prefs: dict[Id, WeakOrder]

    @property
    def num_commodities(self) -> int:
        return len(self.commodities)

    def arc_by_id(self) -> dict[Id, Arc]:
        return {a.id: a for a in self.arcs}

    def outgoing(self) -> dict[Id, list[Id]]:
        out: dict[Id, list[Id]] = {v: [] for v in self.vertices}
        for a in self.arcs:
            if a.tail in out:
                out[a.tail].append(a.id)
        return out

    def incoming(self) -> dict[Id, list[Id]]:
        out: dict[Id, list[Id]] = {v: [] for v in self.vertices}
        for a in self.arcs:
            if a.head in out:
                out[a.head].append(a.id)
        return out


@dataclass(frozen=True)
class CapacityRevision:
    """Original vs. revised capacity values for one family of entities."""

    original: dict
    revised: dict

    @classmethod
    def read_off(cls, original, fractional_loads, rounded_loads) -> CapacityRevision:
        """The revision the rounded loads call for.

        An entry tight at the fractional point takes its rounded load; any
        other entry keeps its capacity or grows to its rounded load.
        """
        revised = {}
        for k, q in original.items():
            load = int(rounded_loads[k])
            revised[k] = load if fractional_loads[k] == q else max(q, load)
        return cls(original=dict(original), revised=revised)

    def max_deviation(self) -> int:
        return max(
            (abs(self.revised[k] - self.original[k]) for k in self.original),
            default=0,
        )

    def sum_deviation(self) -> int:
        return sum(self.revised[k] - self.original[k] for k in self.original)

    def bounds(self, kind: str, allowed: int, signed_sum: bool = False) -> dict:
        """The revision measured against a bound, as the solvers certify it and `verify` reports it.

        Every entry may move by at most `allowed`; with `signed_sum` the total
        change must also lie in [0, allowed].  `violations` names each entry
        (as `kind`) or the sum that breaks a bound.
        """
        bounds = {"max_allowed": allowed, "max_deviation": self.max_deviation()}
        deviation = {k: self.revised[k] - q for k, q in self.original.items()}
        violations = [{kind: k, "deviation": d} for k, d in deviation.items() if abs(d) > allowed]
        if signed_sum:
            total = self.sum_deviation()
            bounds.update(sum_allowed=allowed, sum_deviation=total)
            if not 0 <= total <= allowed:
                violations.append({"sum": total})
        bounds["violations"] = violations
        return bounds


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Violation:
    entity: str
    rule: str
    detail: str

    def __str__(self):
        return f"{self.entity}: {self.rule}: {self.detail}"


def _check_ids_unique(ids, entity, rule, out):
    seen = set()
    for i in ids:
        if i in seen:
            out.append(Violation(str(i), rule, "duplicate id"))
        seen.add(i)


def _check_capacity_map(values, universe, entity_kind, out):
    for k in universe:
        if k not in values:
            out.append(Violation(str(k), "capacity-missing", f"no capacity for {entity_kind}"))
    for k, q in values.items():
        if k not in universe:
            out.append(Violation(str(k), "capacity-dangling", f"unknown {entity_kind}"))
        elif not _is_int(q) or q < 0:
            out.append(Violation(str(k), "capacity-not-integer", f"capacity {q!r} must be a nonnegative integer"))


def _check_pref_universe(owner, order, expected, out):
    got = order.universe
    want = frozenset(expected)
    for missing in sorted(want - got, key=str):
        out.append(Violation(str(owner), "preference-incomplete", f"{missing!r} missing from preference list"))
    for extra in sorted(got - want, key=str):
        out.append(Violation(str(owner), "preference-dangling", f"{extra!r} is not an alternative of {owner!r}"))


def validate_shm(inst: HypergraphInstance) -> list[Violation]:
    out: list[Violation] = []
    _check_ids_unique(inst.vertices, "vertex", "duplicate-vertex", out)
    _check_ids_unique((e.id for e in inst.edges), "edge", "duplicate-edge", out)
    vset = set(inst.vertices)
    for e in inst.edges:
        if not e.vertices:
            out.append(Violation(e.id, "empty-edge", "edge has no vertices"))
        if len(set(e.vertices)) != len(e.vertices):
            out.append(Violation(e.id, "repeated-vertex", "edge lists a vertex twice"))
        for v in e.vertices:
            if v not in vset:
                out.append(Violation(e.id, "dangling-reference", f"unknown vertex {v!r}"))
    _check_capacity_map(inst.capacities, vset, "vertex", out)
    incident = inst.incident()
    for v in inst.vertices:
        order = inst.preferences.get(v)
        if order is None:
            out.append(Violation(v, "preference-missing", "vertex has no preference order"))
            continue
        _check_pref_universe(v, order, incident[v], out)
    for v in inst.preferences:
        if v not in vset:
            out.append(Violation(v, "preference-dangling", "preference for unknown vertex"))
    return out


def _orders_consistent(mr: dict, cr: dict) -> list[tuple]:
    """Pairs ranked by both orders on which they disagree.

    `mr` and `cr` are the `ranks()` of the master and the member order.
    Consistency requires strict member preferences to stay strict in the
    master list and member ties to stay ties: every member rank maps to
    one master rank, and those master ranks increase strictly with the
    member rank.  That is checked first, in O(s log s) over the s shared
    alternatives; the disagreeing pairs are listed only when it fails.
    """
    groups = {}
    for a in mr.keys() & cr.keys():
        groups.setdefault(cr[a], set()).add(mr[a])
    images = [groups[rank] for rank in sorted(groups)]
    if all(len(image) == 1 for image in images) and all(
        low < high for (low,), (high,) in zip(images, images[1:])
    ):
        return []
    shared = sorted(mr.keys() & cr.keys(), key=str)
    bad = []
    for i, a in enumerate(shared):
        for b in shared[i + 1 :]:
            member_rel = (cr[a] > cr[b]) - (cr[a] < cr[b])
            master_rel = (mr[a] > mr[b]) - (mr[a] < mr[b])
            if member_rel != master_rel:
                bad.append((a, b))
    return bad


def validate_cacq(inst: CacqInstance) -> list[Violation]:
    out: list[Violation] = []
    _check_ids_unique(inst.students, "student", "duplicate-student", out)
    _check_ids_unique(inst.colleges, "college", "duplicate-college", out)
    _check_ids_unique((e.id for e in inst.edges), "edge", "duplicate-edge", out)
    _check_ids_unique((cs.id for cs in inst.sets), "set", "duplicate-set", out)
    sset, cset = set(inst.students), set(inst.colleges)
    pairs = set()
    for e in inst.edges:
        if e.student not in sset:
            out.append(Violation(e.id, "dangling-reference", f"unknown student {e.student!r}"))
        if e.college not in cset:
            out.append(Violation(e.id, "dangling-reference", f"unknown college {e.college!r}"))
        if (e.student, e.college) in pairs:
            out.append(Violation(e.id, "duplicate-pair", "acceptability pair listed twice"))
        pairs.add((e.student, e.college))
    _check_capacity_map(inst.college_quotas, cset, "college", out)
    college_students = {c: [] for c in inst.colleges}
    for e in inst.edges:
        if e.college in college_students and e.student in sset:
            college_students[e.college].append(e.student)
    for c in inst.colleges:
        order = inst.college_prefs.get(c)
        if order is None:
            out.append(Violation(c, "preference-missing", "college has no preference order"))
            continue
        _check_pref_universe(c, order, college_students[c], out)
    student_edges = inst.student_edges()
    for s in inst.students:
        order = inst.student_prefs.get(s)
        if order is None:
            out.append(Violation(s, "preference-missing", "student has no preference order"))
            continue
        _check_pref_universe(s, order, student_edges[s], out)
    # Ranks of every college some set lists, each built once.
    memberships = inst.memberships
    college_ranks = {
        c: order.ranks() for c, order in inst.college_prefs.items() if order is not None and memberships.get(c)
    }
    for cs in inst.sets:
        if not cs.colleges:
            out.append(Violation(cs.id, "empty-set", "college set has no members"))
        if len(set(cs.colleges)) != len(cs.colleges):
            out.append(Violation(cs.id, "repeated-college", "set lists a college twice"))
        if not _is_int(cs.quota) or cs.quota < 0:
            out.append(Violation(cs.id, "capacity-not-integer", f"quota {cs.quota!r} must be a nonnegative integer"))
        members = [c for c in cs.colleges if c in cset]
        for c in cs.colleges:
            if c not in cset:
                out.append(Violation(cs.id, "dangling-reference", f"unknown college {c!r}"))
        want = set()
        for c in members:
            want.update(college_students[c])
        _check_pref_universe(cs.id, cs.master, want, out)
        master_ranks = cs.master.ranks()
        for c in members:
            if c not in college_ranks:
                continue
            for a, b in _orders_consistent(master_ranks, college_ranks[c]):
                out.append(
                    Violation(
                        cs.id,
                        "master-list-inconsistent",
                        f"master list and college {c!r} disagree on {a!r} vs {b!r}",
                    )
                )
    return out


def validate_smf(inst: FlowInstance) -> list[Violation]:
    out: list[Violation] = []
    _check_ids_unique(inst.vertices, "vertex", "duplicate-vertex", out)
    _check_ids_unique((a.id for a in inst.arcs), "arc", "duplicate-arc", out)
    vset = set(inst.vertices)
    for a in inst.arcs:
        if a.tail not in vset:
            out.append(Violation(a.id, "dangling-reference", f"unknown tail {a.tail!r}"))
        if a.head not in vset:
            out.append(Violation(a.id, "dangling-reference", f"unknown head {a.head!r}"))
        if a.tail == a.head:
            out.append(Violation(a.id, "self-loop", "arcs must join distinct vertices"))
    if not inst.commodities:
        out.append(Violation("instance", "no-commodities", "at least one commodity required"))
    for j, com in enumerate(inst.commodities, start=1):
        if com.source not in vset:
            out.append(Violation(f"commodity {j}", "dangling-reference", f"unknown source {com.source!r}"))
        if com.sink not in vset:
            out.append(Violation(f"commodity {j}", "dangling-reference", f"unknown sink {com.sink!r}"))
        if com.source == com.sink:
            out.append(Violation(f"commodity {j}", "source-equals-sink", "source and sink must differ"))
    arc_ids = {a.id for a in inst.arcs}
    _check_capacity_map(inst.capacity, arc_ids, "arc", out)
    k = inst.num_commodities
    want_keys = {(a, j) for a in arc_ids for j in range(1, k + 1)}
    for key in sorted(want_keys - set(inst.commodity_capacity), key=str):
        out.append(Violation(str(key), "capacity-missing", "no commodity capacity for arc"))
    for key, q in inst.commodity_capacity.items():
        if key not in want_keys:
            out.append(Violation(str(key), "capacity-dangling", "unknown (arc, commodity) pair"))
        elif not _is_int(q) or q < 0:
            out.append(Violation(str(key), "capacity-not-integer", f"capacity {q!r} must be a nonnegative integer"))
    outgoing, incoming = inst.outgoing(), inst.incoming()
    for v in inst.vertices:
        incident = outgoing[v] + [a for a in incoming[v] if a not in outgoing[v]]
        for j in range(1, k + 1):
            order = inst.vertex_prefs.get((v, j))
            if order is None:
                out.append(Violation(v, "preference-missing", f"no order for commodity {j}"))
                continue
            _check_pref_universe(f"{v}/{j}", order, incident, out)
    for a in arc_ids:
        order = inst.arc_prefs.get(a)
        if order is None:
            out.append(Violation(a, "preference-missing", "arc has no commodity order"))
            continue
        _check_pref_universe(a, order, range(1, k + 1), out)
    return out


def validate(inst) -> list[Violation]:
    """Check every structural invariant of an instance.

    Returns violations as data; an empty list means the instance is
    well-formed.
    """
    if isinstance(inst, HypergraphInstance):
        return validate_shm(inst)
    if isinstance(inst, CacqInstance):
        return validate_cacq(inst)
    if isinstance(inst, FlowInstance):
        return validate_smf(inst)
    raise InputError(f"unknown instance type {type(inst).__name__}")


def require_valid(inst):
    violations = validate(inst)
    if violations:
        raise InputError("; ".join(str(v) for v in violations[:5]))
    return inst


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------


def normalize_cacq(inst: CacqInstance) -> CacqInstance:
    """Ensure every college has its singleton set carrying its own quota.

    A singleton set with the college's quota and preference list is appended
    for any college that lacks one.  Idempotent; existing sets are kept
    verbatim.
    """
    existing = set()
    for cs in inst.sets:
        if len(cs.colleges) == 1 and cs.quota == inst.college_quotas.get(cs.colleges[0]):
            existing.add(cs.colleges[0])
    used_ids = {cs.id for cs in inst.sets}
    new_sets = list(inst.sets)
    for c in inst.colleges:
        if c in existing:
            continue
        set_id = f"single[{c}]"
        while set_id in used_ids:
            set_id += "'"
        used_ids.add(set_id)
        new_sets.append(
            CollegeSet(
                id=set_id,
                colleges=(c,),
                quota=inst.college_quotas[c],
                master=inst.college_prefs[c],
            )
        )
    return CacqInstance(
        students=inst.students,
        colleges=inst.colleges,
        edges=inst.edges,
        college_quotas=inst.college_quotas,
        college_prefs=inst.college_prefs,
        sets=tuple(new_sets),
        student_prefs=inst.student_prefs,
    )
