import hashlib

import pytest

from conftest import deferred_acceptance, marriage_instance, triangle_instance
from nearstable.errors import ResourceLimitError
from nearstable.fileformat import canonical_dumps, smf_to_doc
from nearstable.model import (
    HyperEdge,
    HypergraphInstance,
    normalize_cacq,
    validate,
)
from nearstable.oracle import (
    GeneratorConfig,
    SplitMix64,
    enumerate_near_feasible,
    enumerate_stable,
    generate,
)
from nearstable.orders import WeakOrder
from nearstable.smf import verify_flow


def test_splitmix_reference_values():
    # first outputs for seed 0; pinned so corpora reproduce across machines
    rng = SplitMix64(0)
    assert rng.next_u64() == 0xE220A8397B1DCDAF
    assert rng.next_u64() == 0x6E789E6AA1B965F4


def test_splitmix_bounded_draws_deterministic():
    a = SplitMix64(1234567)
    b = SplitMix64(1234567)
    assert [a.below(10) for _ in range(8)] == [b.below(10) for _ in range(8)]
    assert SplitMix64(5).shuffle(list(range(6))) == SplitMix64(5).shuffle(list(range(6)))


def test_triangle_has_no_stable_matching():
    inst = triangle_instance()
    assert enumerate_stable(inst, inst.capacities) == []


def test_bipartite_unique_stable_matching_matches_da():
    men = {"m0": ["w0", "w1"], "m1": ["w0", "w1"]}
    women = {"w0": ["m1", "m0"], "w1": ["m0", "m1"]}
    inst = marriage_instance(men, women)
    stable = enumerate_stable(inst, inst.capacities)
    assert len(stable) == 1
    assert {e for e, v in stable[0].items() if v} == deferred_acceptance(men, women)


def test_zero_capacity_enumeration():
    inst = HypergraphInstance(
        vertices=("a", "b"),
        edges=(HyperEdge("e", ("a", "b")),),
        capacities={"a": 0, "b": 0},
        preferences={"a": WeakOrder((("e",),)), "b": WeakOrder((("e",),))},
    )
    stable = enumerate_stable(inst, inst.capacities)
    assert stable == [{}]  # the empty matching is the only candidate and is stable


def test_enumerate_stable_cacq(cacq_2x2):
    norm = normalize_cacq(cacq_2x2)
    quotas = {cs.id: cs.quota for cs in norm.sets}
    stable = enumerate_stable(norm, quotas)
    assert {"e11": 1} in stable


def test_enumeration_size_cap():
    edges = tuple(HyperEdge(f"e{i}", ("a",)) for i in range(21))
    inst = HypergraphInstance(
        vertices=("a",),
        edges=edges,
        capacities={"a": 1},
        preferences={"a": WeakOrder(tuple((e.id,) for e in edges))},
    )
    with pytest.raises(ResourceLimitError):
        enumerate_stable(inst, inst.capacities)


def test_near_feasible_triangle_bound_one():
    inst = triangle_instance()
    results = enumerate_near_feasible(inst, 1, 1)
    assert results  # capacity slack of one restores stability
    assert any(caps == {"a": 1, "b": 2, "c": 1} for caps, _ in results)
    for caps, witness in results:
        assert max(abs(caps[v] - 1) for v in "abc") <= 1
        assert abs(sum(caps.values()) - 3) <= 1


def test_near_feasible_bound_zero_empty_for_triangle():
    assert enumerate_near_feasible(triangle_instance(), 0, 0) == []


def test_near_feasible_contains_original_when_already_stable():
    men = {"m0": ["w0"]}
    women = {"w0": ["m0"]}
    inst = marriage_instance(men, women)
    results = enumerate_near_feasible(inst, 0, 0)
    assert [caps for caps, _ in results] == [inst.capacities]


def test_generator_determinism():
    for family in ("shm", "fixtures", "cacq"):
        a = generate(GeneratorConfig(family=family, seed=7))
        b = generate(GeneratorConfig(family=family, seed=7))
        assert a == b
    s1 = generate(GeneratorConfig(family="smf", seed=7))
    s2 = generate(GeneratorConfig(family="smf", seed=7))
    assert s1 == s2


def test_generated_instances_validate():
    for seed in range(15):
        assert validate(generate(GeneratorConfig(family="shm", seed=seed))) == []
        assert validate(generate(GeneratorConfig(family="fixtures", seed=seed))) == []
        assert validate(generate(GeneratorConfig(family="cacq", seed=seed))) == []


def test_fixtures_family_is_graphs():
    for seed in range(10):
        inst = generate(GeneratorConfig(family="fixtures", seed=seed))
        assert inst.max_edge_size == 2
        assert all(len(e.vertices) == 2 for e in inst.edges)


def test_cacq_family_memberships_structure():
    for seed in range(15):
        inst = generate(GeneratorConfig(family="cacq", seed=seed))
        norm = normalize_cacq(inst)
        counts = norm.memberships
        # every college: its singleton plus at most one faculty set
        assert all(len(v) <= 2 for v in counts.values())


def test_smf_family_emits_certified_flows():
    for seed in range(10):
        inst, flow = generate(GeneratorConfig(family="smf", seed=seed, commodities=2))
        assert validate(inst) == []
        assert verify_flow(inst, flow).ok
        denominators = {v.denominator for v in flow.values()}
        assert all(d <= 8 for d in denominators)


# SHA-256 over the canonical `smf_to_doc` of the generated flows for k = 1..3, seeds 0..19.
SMF_GENERATED_DIGEST = "95ba4c7b663b4bb6ca0013bca4f218f32e4e781789423744e8891b9239e3f696"


def test_smf_generation_pinned():
    digest = hashlib.sha256()
    for k in (1, 2, 3):
        for seed in range(20):
            inst, flow = generate(GeneratorConfig(family="smf", seed=seed, commodities=k))
            digest.update(canonical_dumps(smf_to_doc(inst, flow)).encode("utf-8") + b"\n")
    assert digest.hexdigest() == SMF_GENERATED_DIGEST


def test_smf_family_k1():
    inst, flow = generate(GeneratorConfig(family="smf", seed=42, commodities=1))
    assert inst.num_commodities == 1
    assert verify_flow(inst, flow).ok


def test_smf_retry_cap_error():
    with pytest.raises(ResourceLimitError, match="attempts"):
        generate(GeneratorConfig(family="smf", seed=1, retry_cap=0))


def test_unknown_family_rejected():
    from nearstable.errors import InputError

    with pytest.raises(InputError):
        generate(GeneratorConfig(family="nope", seed=1))
