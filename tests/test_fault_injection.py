"""Fault injection: the solvers' own bound checks fire on a corrupted revision.

Each row stubs the stability verifier to pass, corrupts one value the
pipeline computes on the way to its certificate, and expects the
`InternalError` that names the breach.
"""

import dataclasses

import pytest

from conftest import single_arc_flow_instance, triangle_instance, two_by_two_cacq
from nearstable import cacq, shm, smf
from nearstable.errors import InternalError
from nearstable.model import CapacityRevision


def _corrupt(monkeypatch, module, name, change):
    """Replace `module.name` by a wrapper that passes the real result through `change`."""
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: change(real(*args)))


def zeroed_shm_capacities(monkeypatch):
    """Every triangle capacity 1 -> 0: each vertex stays within L - 1 = 1, the total drops to -3."""
    monkeypatch.setattr(shm, "verify_shm", lambda *args: shm.ShmReport((), (), ()))
    _corrupt(
        monkeypatch,
        shm,
        "compute_shm_capacities",
        lambda rev: CapacityRevision(rev.original, dict.fromkeys(rev.revised, 0)),
    )
    return lambda: shm.solve_shm(triangle_instance())


def moved_cacq_quota(monkeypatch):
    """The common set's quota moved by 2L = 4, one past the 2L - 1 bound."""
    monkeypatch.setattr(cacq, "verify_cacq", lambda *args: cacq.CacqReport((), (), (), ()))
    _corrupt(
        monkeypatch,
        cacq,
        "compute_cacq_quotas",
        lambda rev: CapacityRevision(rev.original, {**rev.revised, "common": rev.revised["common"] + 4}),
    )
    return lambda: cacq.solve_cacq(two_by_two_cacq())


def changed_commodity_capacity(monkeypatch):
    """Commodity 2's capacity on the shared arc raised by one; commodity capacities never change."""
    monkeypatch.setattr(smf, "verify_flow", lambda *args, **kwargs: smf.FlowReport((), (), (), (), ()))
    _corrupt(
        monkeypatch,
        smf,
        "compute_flow_capacities",
        lambda caps: dataclasses.replace(caps, per_commodity={**caps.per_commodity, ("a", 2): 2}),
    )
    return lambda: smf.round_stable_flow(single_arc_flow_instance(2), {("a", 1): 1, ("a", 2): 0})


@pytest.mark.parametrize(
    "corrupt, breach",
    [
        pytest.param(zeroed_shm_capacities, r"\[\{'sum': -3\}\]", id="shm-sum"),
        pytest.param(moved_cacq_quota, r"\[\{'set': 'common', 'deviation': 4\}\]", id="cacq-quota"),
        pytest.param(
            changed_commodity_capacity,
            r"\[\{'arc': 'a', 'commodity': 2, 'deviation': 1\}\]",
            id="smf-commodity-capacity",
        ),
    ],
)
def test_solver_bound_check_names_the_breach(monkeypatch, corrupt, breach):
    solve = corrupt(monkeypatch)
    with pytest.raises(InternalError, match=breach):
        solve()
