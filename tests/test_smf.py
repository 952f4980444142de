import dataclasses
import hashlib
import math
import random
from fractions import Fraction

import pytest

from conftest import aggregate_size, single_arc_flow_instance
from nearstable import smf
from nearstable.errors import InternalError, PreconditionError, UnstableInputError
from nearstable.fileformat import canonical_dumps
from nearstable.model import Arc, Commodity, FlowInstance, validate
from nearstable.oracle import GeneratorConfig, generate
from nearstable.orders import WeakOrder
from nearstable.smf import (
    compute_flow_capacities,
    find_fractional_structure,
    flow_size,
    round_flow,
    round_stable_flow,
    verify_flow,
)

F = Fraction


def chain_instance(*names, k=1):
    """Directed path through the named vertices, capacity one everywhere."""
    vertices = tuple(names)
    arcs = tuple(Arc(f"x{i}", names[i], names[i + 1]) for i in range(len(names) - 1))
    prefs = {}
    for v in vertices:
        incident = [a.id for a in arcs if v in (a.tail, a.head)]
        for j in range(1, k + 1):
            prefs[(v, j)] = WeakOrder(tuple((a,) for a in incident))
    return FlowInstance(
        vertices=vertices,
        arcs=arcs,
        commodities=tuple(Commodity(names[0], names[-1]) for _ in range(k)),
        capacity={a.id: 1 for a in arcs},
        commodity_capacity={(a.id, j): 1 for a in arcs for j in range(1, k + 1)},
        vertex_prefs=prefs,
        arc_prefs={a.id: WeakOrder(tuple((j,) for j in range(1, k + 1))) for a in arcs},
    )


def cycle_with_terminals():
    """Directed 3-cycle u -> v -> w -> u away from the terminals."""
    arcs = (Arc("ab", "u", "v"), Arc("bc", "v", "w"), Arc("ca", "w", "u"))
    owner = {"ab": ("u", "v"), "bc": ("v", "w"), "ca": ("w", "u")}
    prefs = {}
    for v in ("s", "t", "u", "v", "w"):
        incident = [a.id for a in arcs if v in owner[a.id]]
        prefs[(v, 1)] = WeakOrder(tuple((a,) for a in incident))
    return FlowInstance(
        vertices=("s", "t", "u", "v", "w"),
        arcs=arcs,
        commodities=(Commodity("s", "t"),),
        capacity={a.id: 1 for a in arcs},
        commodity_capacity={(a.id, 1): 1 for a in arcs},
        vertex_prefs=prefs,
        arc_prefs={a.id: WeakOrder(((1,),)) for a in arcs},
    )


# -- verifier -----------------------------------------------------------------


def test_zero_flow_stable_when_sink_unreachable():
    inst = chain_instance("s", "a", "t")
    blocked = FlowInstance(
        vertices=inst.vertices,
        arcs=inst.arcs,
        commodities=inst.commodities,
        capacity={"x0": 0, "x1": 1},
        commodity_capacity=inst.commodity_capacity,
        vertex_prefs=inst.vertex_prefs,
        arc_prefs=inst.arc_prefs,
    )
    report = verify_flow(blocked, {})
    assert report.stable


def test_zero_flow_blocked_when_sink_reachable():
    inst = chain_instance("s", "a", "t")
    report = verify_flow(inst, {})
    assert not report.stable
    walk = report.blocking_walks[0]
    assert walk.vertices == ("s", "a", "t")
    assert walk.arcs == ("x0", "x1")


def test_shared_arc_preferred_commodity_blocks():
    inst = single_arc_flow_instance(k=2)
    report = verify_flow(inst, {("a", 1): F(1, 2), ("a", 2): F(1, 2)})
    assert [w.commodity for w in report.blocking_walks] == [1]
    assert report.blocking_walks[0].vertices == ("s", "t")


def test_shared_arc_saturated_by_preferred_is_stable():
    inst = single_arc_flow_instance(k=2)
    report = verify_flow(inst, {("a", 1): F(1), ("a", 2): F(0)})
    assert report.stable


def test_shared_arc_tied_commodities_stable():
    inst = single_arc_flow_instance(k=2)
    tied = FlowInstance(
        vertices=inst.vertices,
        arcs=inst.arcs,
        commodities=inst.commodities,
        capacity=inst.capacity,
        commodity_capacity=inst.commodity_capacity,
        vertex_prefs=inst.vertex_prefs,
        arc_prefs={"a": WeakOrder(((1, 2),))},
    )
    report = verify_flow(tied, {("a", 1): F(1, 2), ("a", 2): F(1, 2)})
    assert report.stable


def test_verifier_reports_kirchhoff_and_capacity_violations():
    inst = chain_instance("s", "a", "t")
    report = verify_flow(inst, {("x0", 1): F(1)})
    assert ("a", 1) in report.kirchhoff_violations
    report2 = verify_flow(inst, {("x0", 1): F(2), ("x1", 1): F(2)})
    assert "x0" in report2.capacity_violations
    assert ("x0", 1) in report2.commodity_capacity_violations


# -- fractional structures ----------------------------------------------------


def test_fractional_cycle_found():
    inst = cycle_with_terminals()
    st = find_fractional_structure(inst, {"ab": F(1, 2), "bc": F(1, 2), "ca": F(1, 2)}, 1)
    assert st.kind == "cycle"
    assert [aid for aid, _ in st.arcs] == ["ab", "bc", "ca"]
    assert all(forward for _, forward in st.arcs)
    assert st.eps_up == st.eps_down == F(1, 2)


def test_fractional_path_found():
    inst = chain_instance("s", "a", "t")
    st = find_fractional_structure(inst, {"x0": F(1, 2), "x1": F(1, 2)}, 1)
    assert st.kind == "st_path"
    assert st.vertices == ("s", "a", "t")
    assert len(st.arcs) == 2


def test_structure_prefers_source_start():
    # a fractional path at s plus a disjoint fractional cycle: path wins
    arcs = (
        Arc("p0", "s", "m"),
        Arc("p1", "m", "t"),
        Arc("c0", "u", "v"),
        Arc("c1", "v", "w"),
        Arc("c2", "w", "u"),
    )
    touching = {a.id: (a.tail, a.head) for a in arcs}
    prefs = {}
    for v in ("s", "m", "t", "u", "v", "w"):
        incident = [a.id for a in arcs if v in touching[a.id]]
        prefs[(v, 1)] = WeakOrder(tuple((a,) for a in incident))
    inst = FlowInstance(
        vertices=("s", "m", "t", "u", "v", "w"),
        arcs=arcs,
        commodities=(Commodity("s", "t"),),
        capacity={a.id: 1 for a in arcs},
        commodity_capacity={(a.id, 1): 1 for a in arcs},
        vertex_prefs=prefs,
        arc_prefs={a.id: WeakOrder(((1,),)) for a in arcs},
    )
    values = {aid: F(1, 2) for aid in ("p0", "p1", "c0", "c1", "c2")}
    st = find_fractional_structure(inst, values, 1)
    assert st.kind == "st_path"
    assert st.vertices[0] == "s"


def test_structure_flips_a_walk_read_from_its_other_end():
    # No fractional arc at s: the walk starts at a, dead-ends at t, is read
    # from t (a -> c now backward) and closes the cycle c, a, d, c.
    arcs = (Arc("ac", "a", "c"), Arc("ct", "c", "t"), Arc("ad", "a", "d"), Arc("dc", "d", "c"))
    inst = FlowInstance(
        vertices=("s", "t", "a", "c", "d"),
        arcs=arcs,
        commodities=(Commodity("s", "t"),),
        capacity={a.id: 1 for a in arcs},
        commodity_capacity={(a.id, 1): 1 for a in arcs},
        vertex_prefs={},
        arc_prefs={},
    )
    st = find_fractional_structure(inst, {a.id: F(1, 2) for a in arcs}, 1)
    assert st.kind == "cycle"
    assert st.vertices == ("c", "a", "d", "c")
    assert st.arcs == (("ac", False), ("ad", True), ("dc", True))


def test_structure_requires_a_fractional_arc():
    inst = chain_instance("s", "a", "t")
    with pytest.raises(PreconditionError):
        find_fractional_structure(inst, {"x0": F(1), "x1": F(1)}, 1)


def test_structure_rejects_conservation_breaking_input():
    inst = chain_instance("s", "a", "t")
    with pytest.raises(InternalError):
        find_fractional_structure(inst, {"x0": F(1, 2), "x1": F(0)}, 1)


# -- rounding -----------------------------------------------------------------


def test_round_integral_flow_unchanged():
    inst = chain_instance("s", "a", "t")
    flow = {("x0", 1): F(1), ("x1", 1): F(1)}
    g, steps = round_flow(inst, flow)
    assert steps == []
    assert g == {("x0", 1): 1, ("x1", 1): 1}


def test_round_half_cycle_to_zero():
    inst = cycle_with_terminals()
    flow = {(aid, 1): F(1, 2) for aid in ("ab", "bc", "ca")}
    g, steps = round_flow(inst, flow)
    assert all(v == 0 for v in g.values())
    assert len(steps) == 1 and steps[0]["direction"] == "down"
    assert flow_size(inst, g, 1) == flow_size(inst, flow, 1) == 0


def test_round_path_respects_size_rule():
    inst = chain_instance("s", "a", "t")
    flow = {("x0", 1): F(1, 2), ("x1", 1): F(1, 2)}
    g, _ = round_flow(inst, flow)
    # |g| <= |f| at the first step routes to increase
    assert g == {("x0", 1): 1, ("x1", 1): 1}
    assert abs(flow_size(inst, g, 1) - flow_size(inst, flow, 1)) < 1


def test_round_rejects_an_augmentation_that_breaks_conservation(monkeypatch):
    """A structure missing its last arc leaves the middle vertex unbalanced after the step."""
    inst = chain_instance("s", "a", "t")
    flow = {("x0", 1): F(1, 2), ("x1", 1): F(1, 2)}

    def truncated(inst, values, j):
        structure = find_fractional_structure(inst, values, j)
        return dataclasses.replace(structure, arcs=structure.arcs[:-1])

    monkeypatch.setattr(smf, "find_fractional_structure", truncated)
    with pytest.raises(InternalError, match="augmentation broke flow conservation"):
        round_flow(inst, flow)


def test_round_closed_walks_through_source_keep_size_drift_small():
    """Two fractional directed cycles through the source at one half each.

    Augmenting both downward would move the gross outflow by exactly one;
    the size rule alternates directions and keeps the drift strictly
    below one.
    """
    arcs = (
        Arc("sa", "s", "a"),
        Arc("as", "a", "s"),
        Arc("sb", "s", "b"),
        Arc("bs", "b", "s"),
    )
    touch = {"s": ["sa", "as", "sb", "bs"], "a": ["sa", "as"], "b": ["sb", "bs"], "t": []}
    prefs = {(v, 1): WeakOrder(tuple((x,) for x in incident)) for v, incident in touch.items()}
    inst = FlowInstance(
        vertices=("s", "a", "b", "t"),
        arcs=arcs,
        commodities=(Commodity("s", "t"),),
        capacity={a.id: 1 for a in arcs},
        commodity_capacity={(a.id, 1): 1 for a in arcs},
        vertex_prefs=prefs,
        arc_prefs={a.id: WeakOrder(((1,),)) for a in arcs},
    )
    assert validate(inst) == []
    flow = {(a.id, 1): F(1, 2) for a in arcs}
    g, steps = round_flow(inst, flow)
    assert len(steps) == 2
    assert all(v in (0, 1) for v in g.values())
    drift = abs(flow_size(inst, g, 1) - flow_size(inst, flow, 1))
    assert drift < 1
    report = verify_flow(inst, g, capacity={a.id: 9 for a in arcs},
                         commodity_capacity={k: 9 for k in inst.commodity_capacity})
    assert not report.kirchhoff_violations


def test_round_preserves_kirchhoff_and_adjacency():
    rng = random.Random(4)
    for seed in range(25):
        k = 1 + seed % 2
        inst, flow = generate(GeneratorConfig(family="smf", seed=seed, commodities=k))
        for balanced in (False, True):
            g, _ = round_flow(inst, flow, balanced=balanced)
            report = verify_flow(inst, g, capacity={a.id: 10**6 for a in inst.arcs},
                                 commodity_capacity={key: 10**6 for key in inst.commodity_capacity})
            assert not report.kirchhoff_violations
            for key, v in g.items():
                f = flow.get(key, F(0))
                if f.denominator == 1:
                    assert v == f
                else:
                    assert v in (math.floor(f), math.floor(f) + 1)


# -- capacity revision --------------------------------------------------------


def test_capacities_identity_when_tight_and_integral():
    inst = chain_instance("s", "a", "t")
    flow = {("x0", 1): F(1), ("x1", 1): F(1)}
    caps = compute_flow_capacities(inst, flow, {("x0", 1): 1, ("x1", 1): 1})
    assert caps.aggregate == inst.capacity
    assert caps.per_commodity == inst.commodity_capacity


def test_capacities_max_clause_on_loose_arcs():
    inst = chain_instance("s", "a", "t")
    flow = {("x0", 1): F(0), ("x1", 1): F(0)}
    caps = compute_flow_capacities(inst, flow, {("x0", 1): 0, ("x1", 1): 0})
    assert caps.aggregate == inst.capacity  # sum below capacity keeps original


def test_capacities_support_containment_checked():
    inst = chain_instance("s", "a", "t")
    with pytest.raises(PreconditionError):
        compute_flow_capacities(inst, {("x0", 1): F(0), ("x1", 1): F(0)}, {("x0", 1): 1, ("x1", 1): 0})


# -- full pipeline ------------------------------------------------------------


def test_round_stable_flow_rejects_unstable_input():
    inst = chain_instance("s", "a", "t")
    with pytest.raises(UnstableInputError) as excinfo:
        round_stable_flow(inst, {})
    assert excinfo.value.witness.vertices == ("s", "a", "t")


def test_round_stable_flow_identity_on_integral_stable():
    inst = chain_instance("s", "a", "t")
    flow = {("x0", 1): F(1), ("x1", 1): F(1)}
    result = round_stable_flow(inst, flow)
    assert result.revision.max_deviation() == 0
    assert result.rounded == {("x0", 1): 1, ("x1", 1): 1}


def test_round_stable_flow_generated_instances_all_certificates():
    rng_seeds = range(30)
    for seed in rng_seeds:
        k = 1 + seed % 2
        inst, flow = generate(GeneratorConfig(family="smf", seed=seed + 500, commodities=k))
        for balanced in (False, True):
            result = round_stable_flow(inst, flow, balanced=balanced)
            assert result.capacities.per_commodity == inst.commodity_capacity
            assert result.revision.max_deviation() <= max(k - 1, 0)
            for j in range(1, k + 1):
                drift = abs(flow_size(inst, result.rounded, j) - flow_size(inst, flow, j))
                assert drift < (2 if balanced else 1)
            total = abs(aggregate_size(inst, result.rounded) - aggregate_size(inst, flow))
            if balanced:
                assert total < 1
            final = verify_flow(
                inst,
                result.rounded,
                capacity=result.capacities.aggregate,
                commodity_capacity=result.capacities.per_commodity,
            )
            assert final.ok


def test_round_stable_flow_k1_keeps_capacities():
    for seed in range(12):
        inst, flow = generate(GeneratorConfig(family="smf", seed=seed + 900, commodities=1))
        result = round_stable_flow(inst, flow)
        assert result.capacities.aggregate == inst.capacity
        assert result.capacities.per_commodity == inst.commodity_capacity
        assert abs(flow_size(inst, result.rounded, 1) - flow_size(inst, flow, 1)) < 1


def test_round_deterministic():
    inst, flow = generate(GeneratorConfig(family="smf", seed=321, commodities=2))
    first = round_stable_flow(inst, flow)
    second = round_stable_flow(inst, flow)
    assert first.certificate == second.certificate
    assert first.rounded == second.rounded


# -- pinned behaviour ---------------------------------------------------------

# Generated flows (k = 1..3, seeds 0..19) and, per flow, five keys each
# raised by 1/3, negated, zeroed and raised by 2.
PERTURBATIONS = {
    "raised": lambda v: v + F(1, 3),
    "negated": lambda v: -v if v else F(-1),
    "zeroed": lambda v: 0,
    "plus2": lambda v: v + 2,
}

# SHA-256 over `repr` of every `verify_flow` report, and over every
# `round_stable_flow` outcome in both modes: certificate, steps and rounded
# flow, or the error's type and message.
VERIFY_DIGEST = "04f2fc432071203a630d11acc49fd6c6ddcbd765bdf115ffc67e5963721763c3"
ROUND_DIGEST = "81e5641456326ca961c4588b80e4f1bce029652fb5074b6db53b23c467e0d30b"


def _pinned_flows():
    for k in (1, 2, 3):
        for seed in range(20):
            inst, flow = generate(GeneratorConfig(family="smf", seed=seed, commodities=k))
            yield inst, flow
            rng = random.Random(1000 * k + seed)
            keys = sorted(flow)
            for change in PERTURBATIONS.values():
                for key in rng.sample(keys, 5):
                    yield inst, {**flow, key: change(flow[key])}


def test_verify_flow_and_rounding_pinned():
    verify_digest, round_digest = hashlib.sha256(), hashlib.sha256()
    nonempty = dict.fromkeys(("kirchhoff", "capacity", "commodity", "negative", "blocking"), 0)
    rounded = 0
    for inst, flow in _pinned_flows():
        report = verify_flow(inst, flow)
        verify_digest.update(repr(report).encode("utf-8") + b"\n")
        fields = (
            report.kirchhoff_violations,
            report.capacity_violations,
            report.commodity_capacity_violations,
            report.negative_values,
            report.blocking_walks,
        )
        for name, field in zip(nonempty, fields):
            nonempty[name] += bool(field)
        for balanced in (False, True):
            try:
                result = round_stable_flow(inst, flow, balanced=balanced)
            except (PreconditionError, UnstableInputError) as exc:
                outcome = f"{type(exc).__name__}: {exc}"
            else:
                rounded += bool(result.rounding_steps)
                outcome = canonical_dumps(
                    [result.certificate, result.rounding_steps, sorted(result.rounded.items())]
                )
            round_digest.update(outcome.encode("utf-8") + b"\n")
    assert all(count > 200 for count in nonempty.values()), nonempty
    assert rounded > 200
    assert verify_digest.hexdigest() == VERIFY_DIGEST
    assert round_digest.hexdigest() == ROUND_DIGEST
