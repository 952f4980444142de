"""Seeded input corpora for the three benchmark workloads.

A corpus is a set of canonical instance files plus the ordered list of
cases run over them; one case is one `solve`/`round` call followed by one
file-only `verify`.  Everything is derived from the workload name and the
seed, so one seed always yields byte-identical files (`inputs_sha256`).

The benchmark-owned shapes (odd cycles, the capacity rewrite) are built
with the stdlib `random` module and the public `nearstable.model`
constructors; stock shapes come from `nearstable.oracle.generate`.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Callable

from nearstable import fileformat as ff
from nearstable.errors import ResourceLimitError
from nearstable.model import HyperEdge, HypergraphInstance, WeakOrder
from nearstable.oracle import GeneratorConfig, generate

SMF_MODES = ("default", "balanced")


@dataclass(frozen=True)
class Case:
    """One certified instance: a solve (or a round in one mode) plus a verify."""

    id: str
    family: str  # generator family, the unit of the coverage counters
    pipeline: str  # shm | cacq | smf
    instance: str  # file name inside the corpus directory
    mode: str | None = None  # smf rounding mode


@dataclass(frozen=True)
class Corpus:
    files: dict  # file name -> canonical JSON text
    cases: tuple  # Case, in run order
    warmup: tuple  # Case, run once per set-up and not measured

    def inputs_sha256(self) -> str:
        digest = hashlib.sha256()
        for name in sorted(self.files):
            digest.update(f"{name}\n{self.files[name]}".encode("utf-8"))
        return digest.hexdigest()


@dataclass(frozen=True)
class Slice:
    """`count` instances of one family.

    `make(rng)` returns `(size, document)`, or None when the generator
    gives up on a draw or the draw is rejected for its shape.  Draws whose
    size lies outside `band` are dropped too.
    With `stratify = k`, k times `count` draws are kept, sorted by size,
    and the middle one of every k consecutive draws is used: the sizes then
    follow the generator's size quantiles instead of one random sample of
    them, which removes most of the work difference between seeds.
    """

    family: str
    pipeline: str
    count: int
    make: Callable
    band: tuple[int, int] | None = None
    stratify: int = 1


# ---------------------------------------------------------------------------
# size measures (input properties only)
# ---------------------------------------------------------------------------


def shm_scarf_columns(inst: HypergraphInstance) -> int:
    """Columns of the dominance problem `solve shm` builds for `inst`.

    Edges touching a zero-capacity vertex are fixed to zero and leave the
    problem; the saturation gadget adds one column per unit of capacity.
    On the large tier Scarf time grows roughly with the square of this.
    """
    dead = {v for v, q in inst.capacities.items() if q == 0}
    live = sum(1 for e in inst.edges if not dead.intersection(e.vertices))
    return live + sum(inst.capacities.values())


def _config(rng: random.Random, family: str, **sizes) -> GeneratorConfig:
    return GeneratorConfig(family=family, seed=rng.getrandbits(32), **sizes)


# ---------------------------------------------------------------------------
# stock generator shapes
# ---------------------------------------------------------------------------


def stock_shm(family: str, edges: tuple[int, int] | None = None, **sizes):
    def make(rng):
        inst = generate(_config(rng, family, **sizes))
        if edges is not None and not edges[0] <= len(inst.edges) <= edges[1]:
            return None
        return shm_scarf_columns(inst), ff.shm_to_doc(inst)

    return make


def stock_cacq(**sizes):
    def make(rng):
        inst = generate(_config(rng, "cacq", **sizes))
        return len(inst.edges), ff.cacq_to_doc(inst)

    return make


def stock_smf(commodities: int):
    def make(rng):
        try:
            inst, flow = generate(_config(rng, "smf", commodities=commodities))
        except ResourceLimitError:
            # The stock generator gives up on some seeds (no certified
            # stable flow within its retry cap); that draw is skipped.
            return None
        return len(inst.arcs), ff.smf_to_doc(inst, flow)

    return make


# ---------------------------------------------------------------------------
# benchmark-owned shapes
# ---------------------------------------------------------------------------


def _strict(ids) -> WeakOrder:
    return WeakOrder(tuple((i,) for i in ids))


def high_capacity(rng: random.Random, low: int = 15, high: int = 25):
    """Default-size stock `shm` with every positive capacity rewritten to low..high."""
    inst = generate(_config(rng, "shm"))
    capacities = {v: rng.randint(low, high) if q > 0 else 0 for v, q in inst.capacities.items()}
    rewritten = HypergraphInstance(inst.vertices, inst.edges, capacities, inst.preferences)
    return shm_scarf_columns(rewritten), ff.shm_to_doc(rewritten)


def triangles(rng: random.Random, count: int = 8, cross: int = 4):
    """Disjoint odd cycles with cyclic strict preferences plus sparse cross edges.

    Each triangle a-b-c has a: ab > ca, b: bc > ab, c: ca > bc, which has
    no stable matching at capacity 1, so Scarf returns halves and the
    rounding stage runs.  Cross edges join vertices of different
    triangles and are inserted at random positions of both end lists.
    """
    vertices, edges, prefs = [], [], {}
    for t in range(count):
        a, b, c = f"t{t}a", f"t{t}b", f"t{t}c"
        vertices += [a, b, c]
        ab, bc, ca = f"t{t}ab", f"t{t}bc", f"t{t}ca"
        edges += [HyperEdge(ab, (a, b)), HyperEdge(bc, (b, c)), HyperEdge(ca, (c, a))]
        prefs[a], prefs[b], prefs[c] = [ab, ca], [bc, ab], [ca, bc]
    pairs = set()
    while len(pairs) < cross:
        u, v = sorted(rng.sample(vertices, 2))
        if u[:-1] != v[:-1]:
            pairs.add((u, v))
    for i, (u, v) in enumerate(sorted(pairs)):
        eid = f"x{i}"
        edges.append(HyperEdge(eid, (u, v)))
        for w in (u, v):
            prefs[w].insert(rng.randrange(len(prefs[w]) + 1), eid)
    inst = HypergraphInstance(
        tuple(vertices), tuple(edges), {v: 1 for v in vertices}, {v: _strict(prefs[v]) for v in vertices}
    )
    return len(edges), ff.shm_to_doc(inst)


def uniform3(rng: random.Random, blocks: int = 2, block_vertices: int = 9, block_edges: int = 12, cross: int = 1):
    """Random 3-uniform hypergraph with strict random preferences, capacity 1.

    Edges are drawn inside `blocks` groups of vertices plus `cross` edges
    spanning groups; about half of such instances have no integral stable
    matching, so rounding runs with L = 3.
    """
    vertices, edges, seen = [], [], set()

    def add(members):
        key = tuple(sorted(members))
        if key in seen:
            return False
        seen.add(key)
        edges.append(HyperEdge(f"h{len(edges)}", key))
        return True

    for b in range(blocks):
        group = [f"b{b}v{i}" for i in range(block_vertices)]
        vertices += group
        added = 0
        while added < block_edges:
            added += add(rng.sample(group, 3))
    added = 0
    while added < cross:
        members = rng.sample(vertices, 3)
        if len({m.split("v")[0] for m in members}) > 1:
            added += add(members)
    prefs = {v: [e.id for e in edges if v in e.vertices] for v in vertices}
    for v in vertices:
        rng.shuffle(prefs[v])
    inst = HypergraphInstance(
        tuple(vertices), tuple(edges), {v: 1 for v in vertices}, {v: _strict(prefs[v]) for v in vertices}
    )
    return len(edges), ff.shm_to_doc(inst)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

# Counts are set so that one untraced pass of `scarf-large` or `odd-cycles`
# takes 7-12 s on a 2-core x86 VM with CPython 3.11, and three passes fit
# into a 36 s run.  The large tier is cut to a band of mid sizes, so a
# run covers some 40 distinct instances instead of a dozen huge ones.
# Families are sized so that the median and the tail percentile each fall
# inside one family, not on the gap between two.  README.md says why each
# workload exists.
LARGE_SHM = {"max_vertices": 60, "max_edges": 130, "max_edge_size": 3}
LARGE_CACQ = {"max_students": 30, "max_colleges": 10, "max_extra_sets": 5}
WORKLOADS: dict[str, tuple[Slice, ...]] = {
    "scarf-large": (
        Slice("shm", "shm", 22, stock_shm("shm", edges=(40, 80), **LARGE_SHM), band=(55, 70)),
        Slice("cacq", "cacq", 14, stock_cacq(**LARGE_CACQ), band=(100, 130)),
        Slice("shm-highcap", "shm", 6, high_capacity, band=(85, 100)),
    ),
    "odd-cycles": (
        Slice("triangles", "shm", 24, triangles),
        Slice("uniform3", "shm", 12, uniform3),
    ),
    "small-corpus": (
        Slice("shm", "shm", 200, stock_shm("shm"), stratify=4),
        Slice("fixtures", "shm", 120, stock_shm("fixtures"), stratify=4),
        Slice("cacq", "cacq", 120, stock_cacq(), stratify=4),
        Slice("smf-k2", "smf", 5, stock_smf(2)),
        Slice("smf-k3", "smf", 5, stock_smf(3)),
    ),
}

# One default-size stock instance per pipeline, solved once per set-up so
# imports, caches and first-call costs are paid before measuring.
WARMUP = {
    "shm": Slice("warmup-shm", "shm", 1, stock_shm("shm")),
    "cacq": Slice("warmup-cacq", "cacq", 1, stock_cacq()),
    "smf": Slice("warmup-smf", "smf", 1, stock_smf(2)),
}


def _draw(part: Slice, count: int, rng: random.Random, files: dict) -> list:
    kept = []
    while len(kept) < count * part.stratify:
        made = part.make(rng)
        if made is None:
            continue
        size, doc = made
        if part.band is None or part.band[0] <= size <= part.band[1]:
            kept.append((size, len(kept), doc))
    kept.sort(key=lambda item: item[:2])
    cases = []
    for i in range(count):
        doc = kept[i * part.stratify + part.stratify // 2][2]
        name = f"{part.family}-{i:04d}.json"
        files[name] = ff.canonical_dumps(doc)
        stem = name[: -len(".json")]
        if part.pipeline == "smf":
            cases += [Case(f"{stem}.{mode}", part.family, "smf", name, mode) for mode in SMF_MODES]
        else:
            cases.append(Case(stem, part.family, part.pipeline, name))
    return cases


def build(workload: str, seed: int, per_slice: int | None = None) -> Corpus:
    """The corpus of `workload` for `seed`.

    `per_slice` caps every slice's count (the benchmark's own tests use it
    for a tiny smoke corpus).  Cases of all slices are interleaved in a
    seeded order.
    """
    rng = random.Random(f"{workload}/{seed}")
    files = {}
    cases = []
    slices = WORKLOADS[workload]
    for part in slices:
        cases += _draw(part, part.count if per_slice is None else min(part.count, per_slice), rng, files)
    rng.shuffle(cases)
    warm_rng = random.Random(f"{workload}/{seed}/warmup")
    warmup = []
    for pipeline in dict.fromkeys(part.pipeline for part in slices):
        warmup += _draw(WARMUP[pipeline], 1, warm_rng, files)
    return Corpus(files=files, cases=tuple(cases), warmup=tuple(warmup))
