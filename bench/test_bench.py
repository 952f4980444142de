"""Tests of the benchmark itself.  Run with `python3 -m pytest bench -q`.

Smoke runs use one instance per slice and stop after a single pass.
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@pytest.fixture(scope="module")
def smoke():
    done = {}

    def get(workload, trace):
        if (workload, trace) not in done:
            work_root = ROOT / ".bench_run" / "tests" / f"trace{int(trace)}"
            bench = run.Run(workload, seed=3, seconds=0, trace=trace, per_slice=1, work_root=work_root)
            done[(workload, trace)] = (bench, bench.execute())
        return done[(workload, trace)]

    return get


def test_spec_matches_the_runner():
    assert WORKLOADS == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER_UNITS


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_metric(smoke, workload, trace):
    _, result = smoke(workload, trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in expected}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_one_seed_gives_one_inputs_sha256(workload):
    first = workloads.build(workload, 5, per_slice=2).inputs_sha256()
    assert workloads.build(workload, 5, per_slice=2).inputs_sha256() == first
    assert workloads.build(workload, 6, per_slice=2).inputs_sha256() != first


def test_self_times_of_a_span_tree_sum_to_its_root(smoke):
    bench, _ = smoke("odd-cycles", True)
    spans = bench.tracer.spans
    own = tracing.self_times(spans)
    root_of = {}
    for span in spans:  # parents are recorded before their children
        root_of[span.id] = span.id if span.parent is None else root_of[span.parent]
    totals = {}
    for span in spans:
        totals[root_of[span.id]] = totals.get(root_of[span.id], 0) + own[span.id]
    roots = [s for s in spans if s.parent is None]
    assert len(roots) == 2 * bench.cases_run
    assert any(s.name == "polytope.lp" for s in spans)
    for root in roots:
        assert totals[root.id] == root.duration_ns
        assert all(own[s.id] >= 0 for s in spans if root_of[s.id] == root.id)


def test_traced_and_untraced_certificates_agree(smoke):
    bench, _ = smoke("small-corpus", True)
    assert all(case.id in bench.digests for case in bench.corpus.cases)
    assert bench.summary["certificates_sha256"] == smoke("small-corpus", False)[0].summary["certificates_sha256"]


def test_certificate_check_rejects_a_deviation_above_its_bound():
    cert = {
        "bounds": {"max_deviation": 3, "max_allowed": 2, "sum_deviation": 1, "sum_allowed": 2},
        "verifier": {"stable": True},
    }
    problems, ratio = run.check_certificate("shm", cert)
    assert problems and ratio == 1.5
    cert["bounds"]["max_deviation"] = 2
    assert run.check_certificate("shm", cert) == ([], 1.0)


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(list(range(40))) == (75, 29)
    assert run.tail_percentile(list(range(1000))) == (99, 989)
    assert run.tail_percentile([1, 2, 3]) == (100, 3)


def test_missing_program_is_an_error():
    with pytest.raises(run.BenchError):
        run.load_program(ROOT / ".bench_run" / "no-program")
