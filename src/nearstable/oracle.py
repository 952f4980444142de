"""Ground-truth machinery: brute-force oracles and seeded instance generators.

The enumerators decide stability questions on tiny instances by exhausting
all capacity-feasible edge subsets; they are the independent yardstick the
pipelines are tested against.  The generators derive everything from
SplitMix64 (documented in the README) so that a seed reproduces the same
instance bytes on any platform.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .cacq import verify_cacq
from .errors import InputError, ResourceLimitError
from .model import (
    Arc,
    CacqEdge,
    CacqInstance,
    CollegeSet,
    Commodity,
    FlowInstance,
    HyperEdge,
    HypergraphInstance,
    require_valid,
)
from .orders import WeakOrder
from .polytope import ZERO
from .shm import verify_shm
from .smf import verify_flow

DEFAULT_EDGE_CAP = 20
DEFAULT_CANDIDATE_CAP = 2_000_000


# ---------------------------------------------------------------------------
# deterministic pseudo-random source
# ---------------------------------------------------------------------------

_MASK = (1 << 64) - 1


class SplitMix64:
    """SplitMix64 generator; the sole random source of every generator.

    next = (state += 0x9E3779B97F4A7C15); two xor-shift-multiply mixing
    steps produce the output.  Bounded draws use plain modulo reduction.
    """

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        if n <= 0:
            raise InputError("below() requires a positive bound")
        return self.next_u64() % n

    def randint(self, lo: int, hi: int) -> int:
        return lo + self.below(hi - lo + 1)

    def choice(self, seq):
        return seq[self.below(len(seq))]

    def chance(self, num: int, den: int) -> bool:
        return self.below(den) < num

    def shuffle(self, items: list) -> list:
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]
        return items

    def sample(self, seq, count: int) -> list:
        pool = list(seq)
        self.shuffle(pool)
        return pool[:count]


def _weak_order(rng: SplitMix64, ids, tie_permille: int) -> WeakOrder:
    items = rng.shuffle(list(ids))
    groups: list[tuple] = []
    for item in items:
        if groups and rng.chance(tie_permille, 1000):
            groups[-1] = groups[-1] + (item,)
        else:
            groups.append((item,))
    return WeakOrder(tuple(groups))


def _restrict(order: WeakOrder, universe: set) -> WeakOrder:
    groups = tuple(tuple(x for x in g if x in universe) for g in order.tie_groups)
    return WeakOrder(tuple(g for g in groups if g))


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GeneratorConfig:
    family: str  # "shm" | "fixtures" | "cacq" | "smf"
    seed: int
    max_vertices: int = 8
    max_edges: int = 15
    max_edge_size: int = 3
    tie_permille: int = 300
    max_students: int = 6
    max_colleges: int = 4
    max_extra_sets: int = 3
    memberships: int = 2  # target L for cacq
    commodities: int = 2
    max_arcs: int = 14
    retry_cap: int = 60


# Per family, the least value of each size field that family draws from.
_FIELD_MINIMA = {
    "shm": {"max_vertices": 3, "max_edges": 2, "max_edge_size": 1},
    "fixtures": {"max_vertices": 3, "max_edges": 2},
    "cacq": {"max_students": 2, "max_colleges": 2, "max_extra_sets": 0},
    "smf": {"max_vertices": 4, "max_arcs": 1, "commodities": 1},
}


def _check_config(config: GeneratorConfig):
    """Reject, by name, a field the family reads whose value no draw can use."""
    least = dict(_FIELD_MINIMA.get(config.family, {}))
    if "max_edges" in least:  # an instance on n vertices gets at least n - 2 edges
        least["max_edges"] = max(2, config.max_vertices - 2)
    for name, low in least.items():
        if getattr(config, name) < low:
            raise InputError(f"generator field {name} must be at least {low}, got {getattr(config, name)}")
    if not 0 <= config.tie_permille <= 1000:
        raise InputError(f"generator field tie_permille must be between 0 and 1000, got {config.tie_permille}")


def generate(config: GeneratorConfig):
    """Deterministic instance for the given family and seed.

    For the flow family the result is an (instance, flow) pair where the
    flow has been certified stable by the verifier; generation retries
    with fresh randomness until certification succeeds or the retry cap
    is hit.  Size fields out of range for the family raise InputError.
    """
    _check_config(config)
    rng = SplitMix64(config.seed)
    if config.family in ("shm", "fixtures"):
        inst = _generate_shm(rng, config)
        require_valid(inst)
        return inst
    if config.family == "cacq":
        inst = _generate_cacq(rng, config)
        require_valid(inst)
        return inst
    if config.family == "smf":
        fallback = None
        for _ in range(config.retry_cap):
            inst, flow = _generate_smf_candidate(rng, config)
            require_valid(inst)
            report = verify_flow(inst, flow)
            if not report.ok:
                continue
            if any(v.denominator > 1 for v in flow.values()):
                return inst, flow
            if fallback is None:
                fallback = (inst, flow)
        if fallback is not None:
            return fallback
        raise ResourceLimitError(
            f"no certified stable flow after {config.retry_cap} attempts (seed {config.seed})"
        )
    raise InputError(f"unknown generator family {config.family!r}")


def _generate_shm(rng: SplitMix64, config: GeneratorConfig) -> HypergraphInstance:
    fixtures = config.family == "fixtures"
    nv = rng.randint(3, config.max_vertices)
    vertices = tuple(f"v{i}" for i in range(nv))
    ne = rng.randint(max(2, nv - 2), config.max_edges)
    edges = []
    for i in range(ne):
        if fixtures:
            size = 2
        else:
            size = rng.choice([1, 2, 2, 2, 3, 3][: 2 + config.max_edge_size])
            size = min(max(size, 1), min(config.max_edge_size, nv))
        members = tuple(sorted(rng.sample(vertices, size)))
        edges.append(HyperEdge(f"e{i}", members))
    capacities = {v: rng.choice([0, 1, 1, 1, 1, 2, 2]) for v in vertices}
    preferences = {}
    for v in vertices:
        incident = [e.id for e in edges if v in e.vertices]
        preferences[v] = _weak_order(rng, incident, config.tie_permille)
    return HypergraphInstance(vertices, tuple(edges), capacities, preferences)


def _generate_cacq(rng: SplitMix64, config: GeneratorConfig) -> CacqInstance:
    ns = rng.randint(2, config.max_students)
    nc = rng.randint(2, config.max_colleges)
    students = tuple(f"s{i}" for i in range(ns))
    colleges = tuple(f"c{i}" for i in range(nc))
    edges = []
    for s in students:
        for c in colleges:
            if rng.chance(7, 10):
                edges.append(CacqEdge(f"{s}:{c}", s, c))
    edges = tuple(edges)
    college_students = {c: [e.student for e in edges if e.college == c] for c in colleges}
    quotas = {c: rng.choice([0, 1, 1, 1, 2, 2]) for c in colleges}
    sets: list[CollegeSet] = []
    master_of: dict[str, WeakOrder] = {}
    if config.memberships >= 2:
        # Disjoint extra sets keep every college in at most its singleton
        # plus one faculty set, so the membership count stays at two.
        pool = rng.shuffle(list(colleges))
        cursor = 0
        for t in range(rng.randint(0, config.max_extra_sets)):
            if cursor + 2 > len(pool):
                break
            size = rng.randint(2, min(3, len(pool) - cursor))
            members = tuple(sorted(pool[cursor : cursor + size]))
            cursor += size
            master = _weak_order(rng, students, config.tie_permille)
            sets.append(
                CollegeSet(
                    id=f"F{t}",
                    colleges=members,
                    quota=rng.choice([1, 1, 2, 2, 3]),
                    master=_restrict(master, set().union(*(set(college_students[c]) for c in members))),
                )
            )
            for c in members:
                master_of[c] = master
    college_prefs = {}
    for c in colleges:
        if c in master_of:
            college_prefs[c] = _restrict(master_of[c], set(college_students[c]))
        else:
            college_prefs[c] = _weak_order(rng, college_students[c], config.tie_permille)
    student_prefs = {}
    for s in students:
        incident = [e.id for e in edges if e.student == s]
        student_prefs[s] = _weak_order(rng, incident, config.tie_permille)
    return CacqInstance(students, colleges, edges, quotas, college_prefs, tuple(sets), student_prefs)


def _generate_smf_candidate(rng: SplitMix64, config: GeneratorConfig):
    k = config.commodities
    nv = rng.randint(4, min(5, config.max_vertices))
    vertices = tuple(f"v{i}" for i in range(nv))
    pairs = [(a, b) for a in vertices for b in vertices if a != b]
    rng.shuffle(pairs)
    na = rng.randint(min(10, config.max_arcs), config.max_arcs)
    arcs = tuple(Arc(f"a{i}", t, h) for i, (t, h) in enumerate(pairs[:na]))
    commodities = []
    for _ in range(k):
        source = rng.choice(vertices)
        sink = rng.choice([v for v in vertices if v != source])
        commodities.append(Commodity(source, sink))
    commodity_capacity = {(a.id, j): rng.choice([1, 1, 2, 2, 3])
                          for a in arcs for j in range(1, k + 1)}
    capacity = {}
    for a in arcs:
        per = [commodity_capacity[(a.id, j)] for j in range(1, k + 1)]
        # Aggregate capacity biased toward the lower end so that shared
        # bottlenecks bind and fractional splits survive.
        low = max(max(per), 1)
        high = max(sum(per), 1)
        capacity[a.id] = low if rng.chance(3, 4) else rng.randint(low, high)
    outgoing: dict[str, list[str]] = {v: [] for v in vertices}
    incoming: dict[str, list[str]] = {v: [] for v in vertices}
    for a in arcs:
        outgoing[a.tail].append(a.id)
        incoming[a.head].append(a.id)
    vertex_prefs = {}
    for v in vertices:
        incident = outgoing[v] + [a for a in incoming[v] if a not in outgoing[v]]
        for j in range(1, k + 1):
            vertex_prefs[(v, j)] = _weak_order(rng, incident, config.tie_permille)
    # Commodity ties on arcs are frequent: a saturated arc with tied
    # commodities cannot be blocked through, which keeps fractional splits
    # stable far more often.
    arc_prefs = {a.id: _weak_order(rng, range(1, k + 1), 600) for a in arcs}
    inst = FlowInstance(
        vertices=vertices,
        arcs=arcs,
        commodities=tuple(commodities),
        capacity=capacity,
        commodity_capacity=commodity_capacity,
        vertex_prefs=vertex_prefs,
        arc_prefs=arc_prefs,
    )
    flow = _stabilize_flow(rng, inst)
    return inst, flow


def _stabilize_flow(rng: SplitMix64, inst: FlowInstance):
    """Grow a flow along source-sink blocking walks until none remain.

    Augmentation steps are multiples of 1/D for a per-instance denominator
    D <= 8, so every value is a small rational.  Walks that would need to
    displace another commodity are not augmentable by growth alone; if
    only such walks remain the candidate is rejected by the caller's
    verification.
    """
    k = inst.num_commodities
    denominator = rng.randint(2, 8)
    arc_map = inst.arc_by_id()
    outgoing = inst.outgoing()
    flow = {(a.id, j): ZERO for a in inst.arcs for j in range(1, k + 1)}
    total = {a.id: ZERO for a in inst.arcs}  # each arc's flow summed over the commodities
    rotation = 0
    for _ in range(64 * len(inst.arcs)):
        walk = None
        commodity = None
        for offset in range(k):
            j = 1 + (rotation + offset) % k
            walk = _spare_capacity_walk(inst, flow, total, j, arc_map, outgoing, rng)
            if walk is not None:
                commodity = j
                break
        rotation += 1
        if walk is None:
            break
        room = min(
            min(
                inst.commodity_capacity[(aid, commodity)] - flow[(aid, commodity)],
                inst.capacity[aid] - total[aid],
            )
            for aid in walk
        )
        quantum = Fraction(1, denominator)
        units = int(room / quantum)
        if units <= 0:
            break
        # Small steps interleave routes, leaving fractional bottleneck splits.
        step = quantum * rng.randint(1, min(units, denominator))
        for aid in walk:
            flow[(aid, commodity)] += step
            total[aid] += step
    return flow


def _spare_capacity_walk(inst, flow, total, j, arc_map, outgoing, rng: SplitMix64):
    """A random source-sink path over arcs with spare total capacity.

    Randomized depth-first search, so successive augmentations traverse
    different routes; interleaved fractional steps then leave shared
    bottlenecks saturated at fractional splits, which is where fractional
    stable flows come from.
    """
    com = inst.commodities[j - 1]

    def open_arc(aid: str) -> bool:
        return flow[(aid, j)] < inst.commodity_capacity[(aid, j)] and total[aid] < inst.capacity[aid]

    usable = {a.id for a in inst.arcs if open_arc(a.id)}
    path: list[str] = []
    visited = {com.source}
    choices: list[list[str]] = [
        rng.shuffle([a for a in outgoing[com.source] if a in usable])
    ]
    while choices:
        options = choices[-1]
        if not options:
            choices.pop()
            if path:
                visited.discard(arc_map[path.pop()].head)
            continue
        aid = options.pop()
        head = arc_map[aid].head
        if head in visited:
            continue
        path.append(aid)
        if head == com.sink:
            return path
        visited.add(head)
        choices.append(rng.shuffle([a for a in outgoing[head] if a in usable]))
    return None


# ---------------------------------------------------------------------------
# exhaustive oracles
# ---------------------------------------------------------------------------


def enumerate_stable(inst, capacities, edge_cap: int = DEFAULT_EDGE_CAP) -> list[dict]:
    """All stable integral matchings under the given capacities.

    Enumerates every capacity-feasible subset of edges and keeps those the
    verifier reports stable.  Works for hypergraph and common-quota
    instances; `capacities` is keyed by vertex or by set id accordingly.
    """
    if isinstance(inst, HypergraphInstance):
        edges = [e.id for e in inst.edges]
        verify = lambda m: verify_shm(inst, capacities, m).ok  # noqa: E731
    elif isinstance(inst, CacqInstance):
        edges = [e.id for e in inst.edges]
        verify = lambda m: verify_cacq(inst, capacities, m).ok  # noqa: E731
    else:
        raise InputError(f"enumeration not supported for {type(inst).__name__}")
    if len(edges) > edge_cap:
        raise ResourceLimitError(f"enumeration capped at {edge_cap} edges, instance has {len(edges)}")
    out = []
    for mask in range(1 << len(edges)):
        matching = {edges[i]: 1 for i in range(len(edges)) if mask >> i & 1}
        if verify(matching):
            out.append(matching)
    return out


def enumerate_near_feasible(
    inst: HypergraphInstance,
    bound: int,
    sum_bound: int | None = None,
    edge_cap: int = DEFAULT_EDGE_CAP,
    candidate_cap: int = DEFAULT_CANDIDATE_CAP,
) -> list[tuple[dict, dict]]:
    """All capacity vectors within the bounds that admit a stable matching.

    Returns (capacities, witness matching) pairs: every vector q' with
    pointwise deviation at most `bound` (and total deviation at most
    `sum_bound` when given) for which some stable matching exists, with
    the first stable matching found as witness.
    """
    if not isinstance(inst, HypergraphInstance):
        raise InputError("near-feasible enumeration is defined for hypergraph instances")
    edges = [e.id for e in inst.edges]
    if len(edges) > edge_cap:
        raise ResourceLimitError(f"enumeration capped at {edge_cap} edges, instance has {len(edges)}")
    vertices = list(inst.vertices)
    ranges = []
    for v in vertices:
        q = inst.capacities[v]
        ranges.append(range(max(0, q - bound), q + bound + 1))
    total = 1
    for r in ranges:
        total *= len(r)
        if total > candidate_cap:
            raise ResourceLimitError("near-feasible candidate space too large")
    base = {v: inst.capacities[v] for v in vertices}
    results = []
    masks = list(range(1 << len(edges)))
    for combo in product(*ranges):
        if sum_bound is not None:
            deviation = sum(c - base[v] for v, c in zip(vertices, combo))
            if abs(deviation) > sum_bound:
                continue
        candidate = dict(zip(vertices, combo))
        witness = None
        for mask in masks:
            matching = {edges[i]: 1 for i in range(len(edges)) if mask >> i & 1}
            if verify_shm(inst, candidate, matching).ok:
                witness = matching
                break
        if witness is not None:
            results.append((candidate, witness))
    return results
