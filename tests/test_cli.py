import itertools
import json

import pytest

from conftest import triangle_instance
from nearstable import fileformat as ff
from nearstable.cli import build_parser, main
from nearstable.oracle import GeneratorConfig, generate


def write_triangle(path):
    doc = ff.shm_to_doc(triangle_instance())
    path.write_text(ff.canonical_dumps(doc), encoding="utf-8")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_shm_produces_passing_certificate(tmp_path, capsys):
    inst = tmp_path / "tri.json"
    sol = tmp_path / "sol.json"
    write_triangle(inst)
    code, out, _ = run(capsys, "solve", "shm", str(inst), "-o", str(sol))
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "pass"
    # the triangle admits no stable matching at q, so the revision is exactly one
    assert payload["certificate"]["bounds"]["max_deviation"] == 1
    assert payload["certificate"]["bounds"]["sum_deviation"] == 1
    solution = json.loads(sol.read_text())
    assert solution["kind"] == "shm-solution"


def test_solve_cacq_roundtrip(tmp_path, capsys):
    from conftest import two_by_two_cacq

    inst = tmp_path / "cacq.json"
    sol = tmp_path / "sol.json"
    inst.write_text(ff.canonical_dumps(ff.cacq_to_doc(two_by_two_cacq())), encoding="utf-8")
    code, out, _ = run(capsys, "solve", "cacq", str(inst), "-o", str(sol))
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "pass"
    assert payload["certificate"]["bounds"]["max_deviation"] == 0
    assert json.loads(sol.read_text())["matching"] == ["e11"]
    assert run(capsys, "verify", str(inst), str(sol))[0] == 0


def test_verify_accepts_solver_output(tmp_path, capsys):
    inst = tmp_path / "tri.json"
    sol = tmp_path / "sol.json"
    write_triangle(inst)
    assert run(capsys, "solve", "shm", str(inst), "-o", str(sol))[0] == 0
    code, out, _ = run(capsys, "verify", str(inst), str(sol))
    assert code == 0
    assert json.loads(out)["verdict"] == "pass"


def test_verify_rejects_blocking_solution(tmp_path, capsys):
    inst = tmp_path / "tri.json"
    bad = tmp_path / "bad.json"
    write_triangle(inst)
    bad.write_text(
        ff.canonical_dumps(ff.shm_solution_to_doc({"a": 1, "b": 1, "c": 1}, ["ab"])),
        encoding="utf-8",
    )
    code, out, _ = run(capsys, "verify", str(inst), str(bad))
    assert code == 2
    payload = json.loads(out)
    assert payload["verdict"] == "fail"
    assert payload["certificate"]["verifier"]["blocking_edges"] == ["bc"]


SOLVE = {"shm": ("solve", "shm"), "cacq": ("solve", "cacq"), "smf": ("round", "smf")}


def _verify_after_edit(tmp_path, capsys, family, gen_args, edit, edited="inst.json"):
    """Generate and solve an instance, edit the instance (or the `edited` solution) file, then verify the pair."""
    inst, sol = tmp_path / "inst.json", tmp_path / "sol.json"
    assert run(capsys, "gen", family, *gen_args, "-o", str(inst))[0] == 0
    assert run(capsys, *SOLVE[family], str(inst), "-o", str(sol))[0] == 0
    path = tmp_path / edited
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(ff.canonical_dumps(doc), encoding="utf-8")
    return run(capsys, "verify", str(inst), str(sol))


def test_verify_rejects_invalid_cacq_instance(tmp_path, capsys):
    def edit(doc):
        assert doc["college_sets"][0]["id"] == "F0"
        doc["college_sets"][0]["colleges"].append("nowhere")

    code, out, err = _verify_after_edit(tmp_path, capsys, "cacq", ("--seed", "3"), edit)
    assert code == 3 and out == ""
    assert err.startswith("input error: F0: dangling-reference: unknown college 'nowhere'")


def test_verify_rejects_invalid_shm_instance(tmp_path, capsys):
    def edit(doc):
        doc["edges"][0]["vertices"].append("ghost")

    code, out, err = _verify_after_edit(tmp_path, capsys, "shm", ("--seed", "4"), edit)
    assert code == 3 and out == ""
    assert err.startswith("input error: ") and "dangling-reference: unknown vertex 'ghost'" in err


def test_verify_rejects_invalid_smf_instance(tmp_path, capsys):
    def edit(doc):
        doc["arcs"][0]["head"] = "ghost"

    code, out, err = _verify_after_edit(tmp_path, capsys, "smf", ("--seed", "3", "--commodities", "2"), edit)
    assert code == 3 and out == ""
    assert err.startswith("input error: ") and "dangling-reference: unknown head 'ghost'" in err


def test_verify_rejects_shm_capacities_outside_the_bounds(tmp_path, capsys):
    """Zero capacities and an empty matching are stable, but the total revision is negative."""

    def edit(doc):
        doc["capacities"] = dict.fromkeys(doc["capacities"], 0)
        doc["matching"] = []

    code, out, _ = _verify_after_edit(tmp_path, capsys, "shm", ("--seed", "4"), edit, edited="sol.json")
    payload = json.loads(out)
    assert code == 2 and payload["verdict"] == "fail"
    assert payload["certificate"]["verifier"] == {"blocking_edges": [], "capacity_violations": []}
    # L = 3 and the capacities sum to 5, none above L - 1.
    assert payload["certificate"]["bounds"] == {
        "max_allowed": 2,
        "max_deviation": 1,
        "sum_allowed": 2,
        "sum_deviation": -5,
        "violations": [{"sum": -5}],
    }


def test_verify_rejects_cacq_quotas_outside_the_bound(tmp_path, capsys):
    """Zero quotas and an empty matching are stable, but the sets of quota 2 at L = 1 lose more than 2L - 1."""

    def edit(doc):
        doc["quotas"] = dict.fromkeys(doc["quotas"], 0)
        doc["matching"] = []

    code, out, _ = _verify_after_edit(tmp_path, capsys, "cacq", ("--seed", "2"), edit, edited="sol.json")
    payload = json.loads(out)
    assert code == 2 and payload["verdict"] == "fail"
    verifier = payload["certificate"]["verifier"]
    assert verifier["blocking_edges"] == verifier["quota_violations"] == []
    assert payload["certificate"]["bounds"] == {
        "max_allowed": 1,
        "max_deviation": 2,
        "violations": [{"set": "single[c0]", "deviation": -2}, {"set": "single[c2]", "deviation": -2}],
    }


def test_verify_rejects_smf_capacities_outside_the_bounds(tmp_path, capsys):
    """Commodity capacities lowered to each commodity's own flow keep the flow stable but break
    their bound; an aggregate capacity moved by k breaks the k - 1 bound."""
    inst, sol, edited = tmp_path / "inst.json", tmp_path / "sol.json", tmp_path / "edited.json"
    assert run(capsys, "gen", "smf", "--seed", "17", "-o", str(inst))[0] == 0
    assert run(capsys, "round", "smf", str(inst), "--mode", "balanced", "-o", str(sol))[0] == 0
    code, out, _ = run(capsys, "verify", str(inst), str(sol))
    bounds = json.loads(out)["certificate"]["bounds"]
    assert code == 0 and bounds["violations"] == [] and bounds["max_allowed"] == 1
    assert bounds["per_commodity_drift_allowed"] == "<2"
    assert bounds["aggregate_drift_allowed"] == {"balanced": "<1", "default": "<2"}
    doc = json.loads(sol.read_text())
    expected = []
    for j, (caps, flow) in enumerate(zip(doc["commodity_capacities"], doc["flow"]), start=1):
        for arc, cap in caps.items():
            caps[arc] = flow.get(arc, 0)
            if caps[arc] != cap:
                expected.append({"arc": arc, "commodity": j, "deviation": caps[arc] - cap})
    edited.write_text(ff.canonical_dumps(doc), encoding="utf-8")
    code, out, _ = run(capsys, "verify", str(inst), str(edited))
    payload = json.loads(out)
    assert code == 2 and payload["verdict"] == "fail"
    assert payload["certificate"]["verifier"] == {"blocking_walks": [], "capacity_violations": [], "kirchhoff_violations": []}
    assert expected and payload["certificate"]["bounds"]["violations"] == expected
    doc = json.loads(sol.read_text())
    arc = sorted(doc["capacity"])[0]
    doc["capacity"][arc] = json.loads(inst.read_text())["capacity"][arc] + 2
    edited.write_text(ff.canonical_dumps(doc), encoding="utf-8")
    code, out, _ = run(capsys, "verify", str(inst), str(edited))
    assert code == 2 and {"arc": arc, "deviation": 2} in json.loads(out)["certificate"]["bounds"]["violations"]


@pytest.mark.parametrize(
    "family, field, message",
    [
        ("shm", "capacities", "capacities given for unknown vertices: ['ghost']"),
        ("cacq", "quotas", "quotas given for unknown sets: ['ghost']"),
        ("smf", "capacity", "capacities given for unknown arcs: ['ghost']"),
        ("smf", "commodity_capacities", "capacities given for unknown arcs: [('ghost', 1)]"),
    ],
    ids=["shm", "cacq", "smf-aggregate", "smf-commodity"],
)
def test_verify_rejects_capacities_for_unknown_entities(tmp_path, capsys, family, field, message):
    def edit(doc):
        (doc[field][0] if field == "commodity_capacities" else doc[field])["ghost"] = 7

    code, out, err = _verify_after_edit(tmp_path, capsys, family, ("--seed", "4"), edit, edited="sol.json")
    assert (code, out, err) == (3, "", f"input error: {message}\n")


def test_verify_smf_without_an_instance_flow_measures_no_drift(tmp_path, capsys):
    """With no fractional flow to compare against, only the capacity bounds are reported."""

    def edit(doc):
        del doc["flow"]

    code, out, _ = _verify_after_edit(tmp_path, capsys, "smf", ("--seed", "17"), edit)
    payload = json.loads(out)
    assert code == 0 and payload["verdict"] == "pass"
    assert payload["certificate"]["bounds"] == {
        "commodity_allowed": 0,
        "commodity_max_deviation": 0,
        "max_allowed": 1,
        "max_deviation": 1,
        "violations": [],
    }


def test_verify_agrees_with_the_solver_on_its_own_output(tmp_path, capsys):
    """`verify` passes every solver output and reports the bounds the solver certified."""
    inst, sol = tmp_path / "inst.json", tmp_path / "sol.json"
    runs = [("shm", ("solve", "shm")), ("fixtures", ("solve", "shm")), ("cacq", ("solve", "cacq"))]
    runs += [("smf", ("round", "smf", "--mode", mode)) for mode in ("default", "balanced")]
    for (family, solve), seed in itertools.product(runs, range(1, 21)):
        assert run(capsys, "gen", family, "--seed", str(seed), "-o", str(inst))[0] == 0
        code, out, _ = run(capsys, *solve, str(inst), "-o", str(sol))
        assert code == 0, (family, seed)
        certified = json.loads(out)["certificate"]["bounds"]
        code, out, _ = run(capsys, "verify", str(inst), str(sol))
        assert code == 0, (family, seed)
        reported = json.loads(out)["certificate"]["bounds"]
        if family == "smf":
            # The smf certificate names the aggregate deviation `max_capacity_deviation`.
            reported["max_capacity_deviation"] = reported["max_deviation"]
            shared = ("max_capacity_deviation", "per_commodity_drift", "aggregate_drift")
            certified, reported = ({k: b[k] for k in shared} for b in (certified, reported))
        else:
            assert reported.pop("violations") == []
        assert certified == reported, (family, seed)


def test_gen_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(capsys, "gen", "fixtures", "--seed", "7", "-o", str(a))[0] == 0
    assert run(capsys, "gen", "fixtures", "--seed", "7", "-o", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_size_options_reach_the_generator(capsys):
    code, out, _ = run(
        capsys, "gen", "cacq", "--seed", "5", "--max-students", "30", "--max-colleges", "10", "--max-extra-sets", "5"
    )
    assert code == 0
    config = GeneratorConfig(family="cacq", seed=5, max_students=30, max_colleges=10, max_extra_sets=5)
    assert out == ff.canonical_dumps(ff.cacq_to_doc(generate(config)))
    # the defaults are the config's own, so a default run differs from this one
    assert out != run(capsys, "gen", "cacq", "--seed", "5")[1]
    code, out, _ = run(capsys, "gen", "smf", "--seed", "3", "--max-arcs", "20", "--memberships", "3")
    assert code == 0
    inst, flow = generate(GeneratorConfig(family="smf", seed=3, max_arcs=20, memberships=3))
    assert out == ff.canonical_dumps(ff.smf_to_doc(inst, flow))
    for argv, field in [(("cacq", "--max-students", "1"), "max_students"), (("smf", "--max-arcs", "0"), "max_arcs")]:
        code, out, err = run(capsys, "gen", *argv, "--seed", "3")
        assert code == 3 and out == ""
        assert err.startswith("input error: generator field " + field)


def test_gen_smf_round_verify_chain(tmp_path, capsys):
    inst = tmp_path / "smf.json"
    sol = tmp_path / "sol.json"
    assert run(capsys, "gen", "smf", "--seed", "3", "--commodities", "2", "-o", str(inst))[0] == 0
    code, out, _ = run(capsys, "round", "smf", str(inst), "--mode", "balanced", "-o", str(sol))
    assert code == 0
    assert json.loads(out)["verdict"] == "pass"
    assert run(capsys, "verify", str(inst), str(sol))[0] == 0


def test_gen_out_of_range_field_is_input_error(capsys):
    for argv, field in [
        (("smf", "--commodities", "0"), "commodities"),
        (("shm", "--max-edges", "0"), "max_edges"),
        (("shm", "--max-vertices", "30", "--max-edges", "20"), "max_edges"),
        (("fixtures", "--tie-permille", "-1"), "tie_permille"),
    ]:
        code, out, err = run(capsys, "gen", *argv, "--seed", "3")
        assert code == 3 and out == ""
        assert err.startswith("input error: generator field " + field)


def test_round_requires_embedded_flow(tmp_path, capsys):
    inst = tmp_path / "smf.json"
    assert run(capsys, "gen", "smf", "--seed", "3", "--commodities", "1", "-o", str(inst))[0] == 0
    doc = json.loads(inst.read_text())
    del doc["flow"]
    inst.write_text(ff.canonical_dumps(doc), encoding="utf-8")
    code, _, err = run(capsys, "round", "smf", str(inst))
    assert code == 3
    assert "flow" in err


def test_missing_file_is_input_error(capsys):
    code, _, err = run(capsys, "solve", "shm", "/definitely/not/here.json")
    assert code == 3
    assert "input error" in err


def test_malformed_json_is_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{", encoding="utf-8")
    code, _, err = run(capsys, "solve", "shm", str(bad))
    assert code == 3


def test_unwritable_output_is_input_error(tmp_path, capsys):
    inst = tmp_path / "tri.json"
    write_triangle(inst)
    code, out, err = run(capsys, "solve", "shm", str(inst), "-o", str(tmp_path / "missing" / "x.json"))
    assert code == 3
    assert "input error" in err and out == ""


def test_unwritable_trace_is_input_error(tmp_path, capsys):
    inst = tmp_path / "tri.json"
    write_triangle(inst)
    code, _, err = run(capsys, "solve", "shm", str(inst), "--trace", str(tmp_path / "missing" / "t"))
    assert code == 3
    assert "input error" in err


def test_malformed_solution_json_is_input_error(tmp_path, capsys):
    inst = tmp_path / "tri.json"
    bad = tmp_path / "bad.json"
    write_triangle(inst)
    bad.write_text("{", encoding="utf-8")
    code, _, err = run(capsys, "verify", str(inst), str(bad))
    assert code == 3
    assert "input error" in err


def test_unknown_field_is_input_error(tmp_path, capsys):
    doc = ff.shm_to_doc(triangle_instance())
    doc["extra"] = True
    bad = tmp_path / "bad.json"
    bad.write_text(ff.canonical_dumps(doc), encoding="utf-8")
    assert run(capsys, "solve", "shm", str(bad))[0] == 3


def test_pivot_budget_env(tmp_path, capsys, monkeypatch):
    inst = tmp_path / "tri.json"
    write_triangle(inst)
    monkeypatch.setenv("NEARSTABLE_PIVOT_BUDGET", "1")
    code, _, err = run(capsys, "solve", "shm", str(inst))
    assert code == 4
    assert "resource limit" in err
    monkeypatch.setenv("NEARSTABLE_PIVOT_BUDGET", "bogus")
    assert run(capsys, "solve", "shm", str(inst))[0] == 3


def test_oracle_subcommand(tmp_path, capsys):
    inst = tmp_path / "tri.json"
    write_triangle(inst)
    code, out, _ = run(capsys, "oracle", str(inst), "--bound", "1", "--sum-bound", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == len(payload["results"]) > 0


def test_summary_format(tmp_path, capsys):
    inst = tmp_path / "tri.json"
    write_triangle(inst)
    code, out, _ = run(capsys, "--format", "summary", "solve", "shm", str(inst))
    assert code == 0
    assert "verdict: pass" in out
    assert "wall_clock_ms" in out


def test_certificates_byte_identical_across_runs(tmp_path, capsys):
    inst = tmp_path / "tri.json"
    write_triangle(inst)
    _, out1, _ = run(capsys, "solve", "shm", str(inst))
    _, out2, _ = run(capsys, "solve", "shm", str(inst))
    assert out1 == out2


def test_trace_file_written(tmp_path, capsys):
    inst = tmp_path / "tri.json"
    trace = tmp_path / "trace.log"
    write_triangle(inst)
    assert run(capsys, "solve", "shm", str(inst), "--trace", str(trace))[0] == 0
    lines = trace.read_text().splitlines()
    assert any(line.startswith("pivot ") for line in lines)
    assert any(line.startswith("round step") for line in lines)


def test_repeated_main_calls_match_fresh_calls(tmp_path, capsys):
    inst = tmp_path / "tri.json"
    sol = tmp_path / "sol.json"
    write_triangle(inst)
    assert run(capsys, "solve", "shm", str(inst), "-o", str(sol))[0] == 0
    calls = [
        ("--format", "summary", "solve", "shm", str(inst)),
        ("verify", str(inst), str(sol)),
        ("solve", "shm", str(inst)),
        ("--format", "summary", "verify", str(inst), str(sol)),
    ]

    def without_timing(result):
        code, out, err = result
        return code, [line for line in out.splitlines() if not line.startswith("wall_clock_ms")], err

    fresh = []
    for argv in calls:
        build_parser.cache_clear()
        fresh.append(without_timing(run(capsys, *argv)))
    build_parser.cache_clear()
    reused = [without_timing(run(capsys, *argv)) for argv in calls]
    assert build_parser.cache_info().misses == 1
    assert reused == fresh
    assert fresh[1][1] and fresh[1][1][0].startswith("{")  # --format resets to json
