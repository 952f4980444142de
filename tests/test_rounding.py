"""Iterative rounding on instances where Scarf's point is fractional.

The digests pin every trace line (pivot and `round step` lines), the
`rounding_steps` records and the canonical certificate, so a change to the
rounding path or to what it certifies shows up here.  `SMF_PINNED` does the
same for generated flows that round, in both modes, with `round commodity`
trace lines.
"""

import hashlib

import pytest

from conftest import (
    always_resolve_rounding,
    cyclic_sets_cacq,
    odd_cycles_instance,
    overlapping_sets_instance,
    triangle_instance,
    uniform3_instance,
)
from nearstable import cacq, polytope, shm
from nearstable import fileformat as ff
from nearstable.cacq import solve_cacq
from nearstable.model import normalize_cacq, validate
from nearstable.oracle import GeneratorConfig, generate
from nearstable.shm import solve_shm
from nearstable.smf import round_stable_flow

CASES = {
    "triangle": triangle_instance,
    "odd_cycles[0]": lambda: odd_cycles_instance(0),
    "odd_cycles[3]": lambda: odd_cycles_instance(3),
    "uniform3[5]": lambda: uniform3_instance(5),
    "uniform3[47]": lambda: uniform3_instance(47),
    "uniform3[77]": lambda: uniform3_instance(77),
    "overlapping_sets": overlapping_sets_instance,
    "cyclic_sets[42]": lambda: cyclic_sets_cacq(42),
    "cyclic_sets[48]": lambda: cyclic_sets_cacq(48),
    "cyclic_sets[51]": lambda: cyclic_sets_cacq(51),
}

PINNED = {
    "triangle": "e3235d809d961966e15a3e06fee38302a1db2ec74f34cb249610fcc29b2d89cf",
    "odd_cycles[0]": "538720e22271b2139ec9bc211969e73cfa095b2d1d3bddfa490109a42c0c35b8",
    "odd_cycles[3]": "eae806fb14c76a3a61680972071ccc83df5f5bc58631233a389bedebfd88bcbd",
    "uniform3[5]": "0ededc88408e52a9ed7910ce190c2f002c6ac3906bbeec3125f3b3acbb75675c",
    "uniform3[47]": "532e322cc5fbfaf810a7fa1ab19e9d7ad9573115bfdcd0d091e3251839f4d228",
    "uniform3[77]": "1c9bf2a3695db100f4903c2c0137090e98d369efdf49c8e67d36cd3f8d0bfdf5",
    "overlapping_sets": "36cd01caa0bb69d52d0e4499f1dd5fa1527dc81481e5ea3a34b839d0af3f26b2",
    "cyclic_sets[42]": "3479c3bd386be4d2dbe29f709cef63a4d9549b775cd18543849e11d4afe91e78",
    "cyclic_sets[48]": "5771c85d0b9b94b993e42db3d0dc366ec7b3f0e05333b9eda30463a7d16336db",
    "cyclic_sets[51]": "d6eb367dadf5c281f664c71454a245164a5284489d1ee5a2d8bd40185685a0d7",
}


# (commodities, generator seed, mode) -> digest; every case rounds and revises a capacity.
SMF_PINNED = {
    (2, 17, "default"): "c431371ac96cd8845b1ecbb94a57f114838755b6d85fb529c5d2084c66655c52",
    (2, 17, "balanced"): "e4e7c416e1846f91ce66abb334a8d5d265f41350ad4e107dd8ac7039695d6643",
    (2, 34, "default"): "f50d88112b37dd21d0ae790f8e185ee5b6d431ef250522d209bb4cbcd82d9aa9",
    (2, 34, "balanced"): "736953a9454a83acbbdbc304a4a1e2e2fab5c2e0a2febedf04441478424aa4fa",
    (3, 5, "default"): "1e1d357c82de0c8a886edf755f2ac4dec8864fca3d6733530f9decabad5e0662",
    (3, 5, "balanced"): "a0160ad7e42afb260fc0a3e032cd841f750b016b27127d1957cb87fff2352335",
    (3, 22, "default"): "43c8a7357e9cbc79ad112c7ab579466cfe4d12a6d5c5a11a57718ca2a8f13d08",
    (3, 22, "balanced"): "1249ccdf157378b225e7cc039159602534a0ba6cb30ef79ec0c242c279b7acb7",
}


# One digest over the trace lines, `rounding_steps` and certificate of each of
# odd_cycles_instance(0..29), uniform3_instance(0..29) and cyclic_sets_cacq(40..59),
# in that order; 40 of the 80 round, in 351 steps.
CORPUS_DIGEST = "950688956a47842b7928efb5889c126875d70020ada09ca5115c4a04f332e9f6"
CORPUS = (
    (odd_cycles_instance, range(30), solve_shm),
    (uniform3_instance, range(30), solve_shm),
    (cyclic_sets_cacq, range(40, 60), solve_cacq),
)


def _digest(lines, result, digest=None):
    digest = hashlib.sha256() if digest is None else digest
    for line in lines:
        digest.update(line.encode("utf-8") + b"\n")
    digest.update(ff.canonical_dumps(result.rounding_steps).encode("utf-8"))
    digest.update(ff.canonical_dumps(result.certificate).encode("utf-8"))
    return digest.hexdigest()


def _solve(name):
    inst = CASES[name]()
    assert validate(inst) == []
    solve = solve_cacq if name.startswith(("overlapping", "cyclic")) else solve_shm
    lines = []
    return inst, solve(inst, trace=lines.append), lines


@pytest.mark.parametrize("name", sorted(PINNED))
def test_rounding_path_pinned(name):
    _, result, lines = _solve(name)
    assert result.rounding_steps
    assert sum(line.startswith("round step ") for line in lines) == len(result.rounding_steps)
    assert _digest(lines, result) == PINNED[name]


def test_rounding_corpus_pinned():
    digest, rounded, steps = hashlib.sha256(), 0, 0
    for build, seeds, solve in CORPUS:
        for seed in seeds:
            lines = []
            result = solve(build(seed), trace=lines.append)
            rounded += bool(result.rounding_steps)
            steps += len(result.rounding_steps)
            _digest(lines, result, digest)
    assert (rounded, steps) == (40, 351)
    assert digest.hexdigest() == CORPUS_DIGEST


def test_skipped_steps_match_the_always_resolve_loop(monkeypatch):
    """Rounding with its unchanged LPs skipped gives the vector, records and trace lines of the
    loop that solves every step, on the pinned cases and the corpus."""
    rounding = polytope.iterative_rounding
    runs = steps = 0

    def compared(start, rows, rule, upper, objective=None, trace=None):
        nonlocal runs, steps
        lines, reference_lines = [], []
        result = rounding(start, rows, rule, upper=upper, objective=objective, trace=lines.append)
        reference = always_resolve_rounding(start, rows, rule, upper, objective, reference_lines.append)
        assert result == reference and lines == reference_lines
        runs, steps = runs + bool(result[1]), steps + len(result[1])
        for line in lines if trace is not None else ():
            trace(line)
        return result

    monkeypatch.setattr(shm, "iterative_rounding", compared)
    monkeypatch.setattr(cacq, "iterative_rounding", compared)
    for name in sorted(CASES):
        _solve(name)
    for build, seeds, solve in CORPUS:
        for seed in seeds:
            solve(build(seed))
    assert runs == len(CASES) + 40 and steps > 351


@pytest.mark.parametrize("k,seed,mode", sorted(SMF_PINNED))
def test_smf_rounding_path_pinned(k, seed, mode):
    inst, flow = generate(GeneratorConfig(family="smf", seed=seed, commodities=k))
    lines = []
    result = round_stable_flow(inst, flow, balanced=mode == "balanced", trace=lines.append)
    assert result.rounding_steps and len(lines) == len(result.rounding_steps)
    assert result.revision.max_deviation() == 1
    assert _digest(lines, result) == SMF_PINNED[(k, seed, mode)]


@pytest.mark.parametrize("seed", [42, 48, 49, 51])
def test_cyclic_sets_round_within_bound(seed):
    inst = cyclic_sets_cacq(seed)
    ell = normalize_cacq(inst).max_memberships
    assert ell == 3
    result = solve_cacq(inst)
    assert 4 <= len(result.rounding_steps) <= 5
    assert any(v.denominator > 1 for v in result.fractional.values())
    assert result.revision.max_deviation() <= 2 * ell - 1
    assert result.certificate["verifier"]["stable"]


def test_uniform3_deviation_reaches_bound():
    """The pointwise bound L - 1 = 2 is attained, so it is not checked vacuously."""
    result = solve_shm(uniform3_instance(77))
    assert result.revision.max_deviation() == 2 == result.certificate["bounds"]["max_allowed"]
