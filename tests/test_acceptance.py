"""Acceptance suite: every documented guarantee checked at desk scale.

Each criterion runs on seeded instance corpora, asserts its bounds exactly
(all arithmetic is rational), and prints one pass/fail line.  Run with
`pytest tests/test_acceptance.py -v -s` to see the lines and timings.
"""

import itertools
import time
from fractions import Fraction

import pytest

from conftest import aggregate_size, triangle_instance
from nearstable import fileformat as ff
from nearstable.cacq import solve_cacq
from nearstable.model import normalize_cacq
from nearstable.oracle import (
    GeneratorConfig,
    SplitMix64,
    enumerate_near_feasible,
    enumerate_stable,
    generate,
)
from nearstable.scarf import certify_extreme, make_problem, solve_scarf, verify_dominating
from nearstable.shm import solve_shm, verify_shm
from nearstable.smf import flow_size, round_stable_flow, verify_flow

SUITE_SHM = 200
SUITE_FIXTURES = 200
SUITE_CACQ = 200
SUITE_SMF = 100


def _report(name: str, ok: bool, started: float, budget: float):
    elapsed = time.perf_counter() - started
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({elapsed:.1f}s, budget {budget:.0f}s)")
    assert ok
    assert elapsed < budget, f"{name} exceeded its runtime budget: {elapsed:.1f}s"


def _shm_config(seed: int) -> GeneratorConfig:
    return GeneratorConfig(
        family="shm",
        seed=seed,
        max_vertices=8,
        max_edges=15,
        max_edge_size=2 + seed % 2,
        tie_permille=300,
    )


def _fixtures_config(seed: int) -> GeneratorConfig:
    return GeneratorConfig(
        family="fixtures",
        seed=seed,
        max_vertices=10,
        max_edges=15,
        tie_permille=300,
    )


def _cacq_config(seed: int) -> GeneratorConfig:
    return GeneratorConfig(
        family="cacq",
        seed=seed,
        max_students=6,
        max_colleges=4,
        max_extra_sets=3,
        memberships=1 + seed % 2,
        tie_permille=300,
    )


def _smf_config(seed: int) -> GeneratorConfig:
    return GeneratorConfig(
        family="smf",
        seed=seed,
        max_vertices=8,
        max_arcs=14,
        commodities=1 + seed % 2,
    )


def _run_shm_suite(configs):
    out = []
    for config in configs:
        inst = generate(config)
        out.append((inst, solve_shm(inst)))
    return out


def _run_cacq_suite():
    out = []
    for seed in range(SUITE_CACQ):
        inst = generate(_cacq_config(seed))
        out.append((inst, solve_cacq(inst)))
    return out


def _run_smf_suite():
    out = []
    for seed in range(SUITE_SMF):
        config = _smf_config(seed)
        inst, flow = generate(config)
        default = round_stable_flow(inst, flow, balanced=False)
        balanced = round_stable_flow(inst, flow, balanced=True)
        out.append((inst, flow, default, balanced))
    return out


def _timed(runner):
    started = time.perf_counter()
    results = runner()
    return results, time.perf_counter() - started


@pytest.fixture(scope="module")
def shm_suite():
    return _timed(lambda: _run_shm_suite([_shm_config(seed) for seed in range(SUITE_SHM)]))


@pytest.fixture(scope="module")
def fixtures_suite():
    return _timed(lambda: _run_shm_suite([_fixtures_config(seed) for seed in range(SUITE_FIXTURES)]))


@pytest.fixture(scope="module")
def cacq_suite():
    return _timed(_run_cacq_suite)


@pytest.fixture(scope="module")
def smf_suite():
    return _timed(_run_smf_suite)


def test_criterion_1_shm_bounds(shm_suite):
    shm_suite, build_elapsed = shm_suite
    started = time.perf_counter() - build_elapsed
    for inst, result in shm_suite:
        assert len(inst.vertices) <= 8 and len(inst.edges) <= 15
        ell = max(inst.max_edge_size, 1)
        assert ell <= 3
        assert result.revision.max_deviation() <= ell - 1
        assert 0 <= result.revision.sum_deviation() <= ell - 1
        report = verify_shm(inst, result.revision.revised, result.matching)
        assert not report.blocking_edges
        assert report.ok
    _report("criterion 1 (shm bound suite)", True, started, 60)


def test_criterion_2_fixtures(fixtures_suite):
    fixtures_suite, build_elapsed = fixtures_suite
    started = time.perf_counter() - build_elapsed
    for inst, result in fixtures_suite:
        assert inst.max_edge_size == 2 and len(inst.vertices) <= 10
        assert result.revision.max_deviation() <= 1
        assert 0 <= result.revision.sum_deviation() <= 1
        assert verify_shm(inst, result.revision.revised, result.matching).ok
    triangle = triangle_instance()
    assert enumerate_stable(triangle, triangle.capacities) == []
    tri_result = solve_shm(triangle)
    assert tri_result.revision.max_deviation() <= 1
    assert verify_shm(triangle, tri_result.revision.revised, tri_result.matching).ok
    _report("criterion 2 (fixtures suite)", True, started, 30)


def _all_two_by_two_marriages():
    women_pairs = list(itertools.permutations(["w0", "w1"]))
    men_pairs = list(itertools.permutations(["m0", "m1"]))
    for m0 in women_pairs:
        for m1 in women_pairs:
            for w0 in men_pairs:
                for w1 in men_pairs:
                    yield {"m0": list(m0), "m1": list(m1)}, {"w0": list(w0), "w1": list(w1)}


def _fixed_three_by_three_marriages(count=40):
    rng = SplitMix64(2024)
    men_names = [f"m{i}" for i in range(3)]
    women_names = [f"w{i}" for i in range(3)]
    for _ in range(count):
        men = {m: rng.shuffle(list(women_names)) for m in men_names}
        women = {w: rng.shuffle(list(men_names)) for w in women_names}
        yield men, women


def _marriage_problem(men, women):
    men_names = sorted(men)
    columns = [(m, w) for m in men_names for w in men[m]]
    col = {p: i for i, p in enumerate(columns)}
    rows, orders = [], []
    for m in men_names:
        rows.append([1 if p[0] == m else 0 for p in columns])
        orders.append(tuple(col[(m, w)] for w in men[m]))
    for w in sorted(women):
        rows.append([1 if p[1] == w else 0 for p in columns])
        orders.append(tuple(col[(m, w)] for m in women[w] if (m, w) in col))
    for p in columns:
        rows.append([1 if q == p else 0 for q in columns])
        orders.append((col[p],))
    return make_problem(rows, [1] * len(rows), orders), columns


def _has_blocking_pair(men, women, chosen):
    men_rank = {m: {w: i for i, w in enumerate(order)} for m, order in men.items()}
    women_rank = {w: {m: i for i, m in enumerate(order)} for w, order in women.items()}
    partner_m = {m: w for m, w in chosen}
    partner_w = {w: m for m, w in chosen}
    for m in men:
        for w in women:
            better_m = m not in partner_m or men_rank[m][w] < men_rank[m][partner_m[m]]
            better_w = w not in partner_w or women_rank[w][m] < women_rank[w][partner_w[w]]
            if better_m and better_w:
                return True
    return False


def test_criterion_3_scarf_engine():
    started = time.perf_counter()
    cases = list(_all_two_by_two_marriages()) + list(_fixed_three_by_three_marriages())
    for men, women in cases:
        problem, columns = _marriage_problem(men, women)
        point = solve_scarf(problem)
        assert verify_dominating(problem, point.x).ok
        assert certify_extreme(problem, point.x)
        assert all(v in (Fraction(0), Fraction(1)) for v in point.x)
        chosen = {p for p, v in zip(columns, point.x) if v == 1}
        assert not _has_blocking_pair(men, women, chosen)
    _report(f"criterion 3 (scarf engine suite, {len(cases)} instances)", True, started, 10)


def test_criterion_4_cacq_bounds(cacq_suite):
    cacq_suite, build_elapsed = cacq_suite
    started = time.perf_counter() - build_elapsed
    max_seen = {1: 0, 2: 0}
    for inst, result in cacq_suite:
        assert len(inst.students) <= 6 and len(inst.colleges) <= 4
        assert sum(1 for cs in inst.sets if len(cs.colleges) > 1) <= 3
        normalized = normalize_cacq(inst)
        ell = normalized.max_memberships
        assert ell in (1, 2)
        deviation = result.revision.max_deviation()
        assert deviation <= 2 * ell - 1
        max_seen[ell] = max(max_seen[ell], deviation)
        from nearstable.cacq import verify_cacq

        report = verify_cacq(normalized, result.revision.revised, result.matching)
        assert not report.blocking_edges
        assert report.ok
        matched = {e.student for e in inst.edges if result.matching[e.id] == 1}
        assert all(s in matched for s in result.pinned)
    assert max_seen[2] <= 3
    _report("criterion 4 (cacq bound suite)", True, started, 60)


def test_criterion_5_smf(smf_suite):
    smf_suite, build_elapsed = smf_suite
    started = time.perf_counter() - build_elapsed
    for inst, flow, default, balanced in smf_suite:
        k = inst.num_commodities
        assert len(inst.vertices) <= 8 and len(inst.arcs) <= 14
        assert verify_flow(inst, flow).ok
        for result in (default, balanced):
            assert result.capacities.per_commodity == inst.commodity_capacity
            assert result.revision.max_deviation() <= max(k - 1, 0)
            final = verify_flow(
                inst,
                result.rounded,
                capacity=result.capacities.aggregate,
                commodity_capacity=result.capacities.per_commodity,
            )
            assert final.ok
        for j in range(1, k + 1):
            f_size = flow_size(inst, flow, j)
            assert abs(flow_size(inst, default.rounded, j) - f_size) < 1
            assert abs(flow_size(inst, balanced.rounded, j) - f_size) < 2
        assert abs(aggregate_size(inst, balanced.rounded) - aggregate_size(inst, flow)) < 1
    _report("criterion 5 (smf suite)", True, started, 60)


def test_criterion_6_oracle_cross_validation(shm_suite, fixtures_suite):
    started = time.perf_counter()
    eligible = [(i, r) for i, r in shm_suite[0] + fixtures_suite[0] if len(i.edges) <= 12]
    assert eligible
    literal = 0
    for inst, result in eligible:
        ell = max(inst.max_edge_size, 1)
        revised = result.revision.revised
        # membership in the near-feasible enumeration: the revised vector is
        # within the bounds and admits the returned matching as stable
        assert max(abs(revised[v] - inst.capacities[v]) for v in inst.vertices) <= ell - 1
        assert abs(sum(revised.values()) - sum(inst.capacities.values())) <= ell - 1
        stable = enumerate_stable(inst, revised)
        chosen = {eid for eid, v in result.matching.items() if v == 1}
        assert any({e for e, v in m.items() if v} == chosen for m in stable)
        # full enumeration where it is tractable: the vector must be listed
        if len(inst.edges) <= 8 and len(inst.vertices) <= 5 and ell == 2:
            listed = enumerate_near_feasible(inst, ell - 1, ell - 1)
            assert any(caps == revised for caps, _ in listed)
            literal += 1
    assert literal > 0
    _report(
        f"criterion 6 (oracle cross-validation, {len(eligible)} instances, {literal} fully enumerated)",
        True,
        started,
        300,
    )


def test_criterion_7_determinism(shm_suite, fixtures_suite, cacq_suite, smf_suite):
    started = time.perf_counter()

    def digest(results):
        return [ff.canonical_dumps(cert) for cert in results]

    first = digest([r.certificate for _, r in shm_suite[0]])
    second = digest([r.certificate for _, r in _run_shm_suite([_shm_config(s) for s in range(SUITE_SHM)])])
    assert first == second
    first = digest([r.certificate for _, r in fixtures_suite[0]])
    second = digest(
        [r.certificate for _, r in _run_shm_suite([_fixtures_config(s) for s in range(SUITE_FIXTURES)])]
    )
    assert first == second
    first = digest([r.certificate for _, r in cacq_suite[0]])
    second = digest([r.certificate for _, r in _run_cacq_suite()])
    assert first == second
    first = digest(
        [d.certificate for _, _, d, _ in smf_suite[0]] + [b.certificate for _, _, _, b in smf_suite[0]]
    )
    rerun = _run_smf_suite()
    second = digest([d.certificate for _, _, d, _ in rerun] + [b.certificate for _, _, _, b in rerun])
    assert first == second
    _report("criterion 7 (determinism)", True, started, 120)
