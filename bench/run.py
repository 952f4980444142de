#!/usr/bin/env python3
"""Outside-in benchmark of the nearstable command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

A single-process, single-thread, closed-loop benchmark: one client runs the
workload's cases back to back.  The workload's instances are generated
from the seed and written to files; each case calls the public entry
`nearstable.cli.main` in-process exactly as a user would (`solve`/`round`
with `-o`, then `verify` from the files alone) and every output is
checked.  It runs whole passes over the cases: at least one, and
another as long as it is expected to end within `--seconds`.

With `--trace 0` the last line of stdout is a JSON object holding the
end-to-end metrics; with `--trace 1` each case is run untraced and traced
(alternating which goes first), the traced call records spans around the
layers' public functions, and the JSON holds the per-layer metrics.  The
exit code is 0 when every check passed, 1 when one failed, and 2 when the
benchmark could not run (for example, no program to measure).

Files go to `.bench_run/<workload>/` at the repository root: the corpus,
solutions, a result summary, and the spans of a traced run as JSON lines.
See bench/README.md for the workloads and the metric -> layer map.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import json
import math
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import defaultdict
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

from tracing import Target, Tracer, self_times

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
PIPELINES = ("shm", "cacq", "smf")

END_TO_END_UNITS = {
    "throughput_ips": "1/s",
    "solve_p50_ms": "ms",
    "solve_tail_ms": "ms",
    "verify_p50_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# Span name -> per-layer metric holding that span's self time.
SELF_TIME_METRICS = {
    "scarf.solve": "scarf.pivot_ms",
    "scarf.certify": "scarf.certify_ms",
    "scarf.dominate": "scarf.dominate_ms",
    "shm.gadget": "shm.gadget_ms",
    "shm.build": "shm.build_ms",
    "cacq.build": "cacq.build_ms",
    "polytope.lp": "polytope.lp_ms",
    "round": "round.self_ms",
    "fileformat.parse": "fileformat.parse_ms",
    "fileformat.dump": "fileformat.dump_ms",
    "model.validate": "model.validate_ms",
    "orders.tiebreak": "orders.tiebreak_ms",
    "shm.verify": "shm.verify_ms",
    "cacq.verify": "cacq.verify_ms",
    "smf.verify_flow": "smf.verify_flow_ms",
    "smf.round_flow": "smf.round_flow_ms",
    "smf.capacities": "smf.capacities_ms",
}
PIPELINE_SPANS = ("shm.solve", "cacq.solve", "smf.round")
ROOT_SPANS = ("cli.solve", "cli.round", "cli.verify")

PER_LAYER_UNITS = {
    **{metric: "ms" for metric in SELF_TIME_METRICS.values()},
    "scarf.pivots_cardinal": "count",
    "scarf.pivots_ordinal": "count",
    "scarf.us_per_pivot": "us",
    "scarf.x_den_bits": "bits",
    "scarf.rows": "count",
    "scarf.cols": "count",
    "scarf.time_share": "ratio",
    "polytope.lp_calls": "count",
    "polytope.ms_per_lp": "ms",
    "polytope.time_share": "ratio",
    "round.iterations": "count",
    **{f"round.share_rounded.{p}": "ratio" for p in PIPELINES},
    **{f"round.max_dev_ratio.{p}": "ratio" for p in PIPELINES},
    "smf.iterations": "count",
    "pipeline.self_ms": "ms",
    "cli.overhead_ms": "ms",
    "trace.overhead_ratio": "ratio",
}


class BenchError(Exception):
    """The benchmark cannot run at all (as opposed to a failed check)."""


def load_program(root: Path):
    """Import the program afresh from `root/src`; returns (cli module, seconds taken).

    Modules of an earlier import are dropped first, so every set-up pays
    the import a user's process pays.
    """
    src = root / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [n for n in sys.modules if n == "nearstable" or n.startswith("nearstable.")]:
        del sys.modules[name]
    gc.collect()  # frees an earlier import, so it does not count towards peak memory
    started = time.perf_counter()
    try:
        cli = importlib.import_module("nearstable.cli")
    except ImportError as exc:
        raise BenchError(f"cannot import nearstable from {src}: {exc}") from exc
    elapsed = time.perf_counter() - started
    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        raise BenchError(f"nearstable was imported from {cli.__file__}, not from {src}")
    return cli, elapsed


def layer_targets():
    def scarf_attrs(args, result):
        problem = args[0]
        bits = max((v.denominator.bit_length() for v in result.x), default=0)
        return {"rows": problem.num_rows, "cols": problem.num_cols, "x_den_bits": bits}

    def steps_attrs(args, result):
        return {"iterations": len(result[1])}

    return (
        Target("nearstable.fileformat", "parse_document", "fileformat.parse"),
        Target("nearstable.fileformat", "canonical_dumps", "fileformat.dump"),
        Target("nearstable.model", "validate", "model.validate"),
        Target("nearstable.shm", "break_instance_ties", "orders.tiebreak"),
        Target("nearstable.cacq", "break_cacq_ties", "orders.tiebreak"),
        Target("nearstable.shm", "solve_shm", "shm.solve"),
        Target("nearstable.shm", "add_saturation_gadget", "shm.gadget"),
        Target("nearstable.shm", "build_shm_scarf", "shm.build"),
        Target("nearstable.shm", "round_shm", "round", steps_attrs),
        Target("nearstable.shm", "verify_shm", "shm.verify"),
        Target("nearstable.cacq", "solve_cacq", "cacq.solve"),
        Target("nearstable.cacq", "build_cacq_scarf", "cacq.build"),
        Target("nearstable.cacq", "round_cacq", "round", steps_attrs),
        Target("nearstable.cacq", "verify_cacq", "cacq.verify"),
        Target("nearstable.scarf", "solve_scarf", "scarf.solve", scarf_attrs),
        Target("nearstable.scarf", "verify_dominating", "scarf.dominate"),
        Target("nearstable.scarf", "certify_extreme", "scarf.certify"),
        Target("nearstable.polytope", "extreme_point", "polytope.lp"),
        Target("nearstable.smf", "round_stable_flow", "smf.round"),
        Target("nearstable.smf", "round_flow", "smf.round_flow", steps_attrs),
        Target("nearstable.smf", "compute_flow_capacities", "smf.capacities"),
        Target("nearstable.smf", "verify_flow", "smf.verify_flow"),
    )


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def _ratio(dev, allowed) -> float:
    if allowed == 0:
        return 0.0 if dev == 0 else math.inf
    return dev / allowed


def check_certificate(pipeline: str, cert: dict) -> tuple[list[str], float]:
    """Problems with a solve/round certificate, and its largest deviation/bound."""
    bounds = cert["bounds"]
    verifier = cert["verifier"]
    problems = []
    if pipeline == "smf":
        pairs = [(bounds["max_capacity_deviation"], bounds["max_capacity_allowed"])]
        limit = Fraction(bounds["per_commodity_drift_allowed"].lstrip("<"))
        for j, drift in bounds["per_commodity_drift"].items():
            if not Fraction(drift) < limit:
                problems.append(f"commodity {j} drift {drift} not below {limit}")
        if not (verifier["stable"] and verifier["feasible"]):
            problems.append("verifier did not pass")
    else:
        pairs = [(bounds["max_deviation"], bounds["max_allowed"])]
        if pipeline == "shm":
            pairs.append((bounds["sum_deviation"], bounds["sum_allowed"]))
            if bounds["sum_deviation"] < 0:
                problems.append(f"sum deviation {bounds['sum_deviation']} below 0")
        if not verifier["stable"]:
            problems.append("verifier did not pass")
    for dev, allowed in pairs:
        if abs(dev) > allowed:
            problems.append(f"deviation {dev} exceeds allowed {allowed}")
    return problems, max(_ratio(abs(dev), allowed) for dev, allowed in pairs)


def tail_percentile(samples):
    """(percentile, value): the highest whole percentile with >= 10 samples beyond it.

    Nearest-rank definition.  With 10 samples or fewer no percentile has
    ten beyond it, and the maximum is reported as p100.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return 100, ordered[-1]
    for p in range(99, 0, -1):
        rank = math.ceil(p * n / 100)
        if n - rank >= 10:
            return p, ordered[rank - 1]
    return 0, ordered[0]


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------


class Run:
    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, per_slice=None, work_root=None):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.per_slice = per_slice
        self.work = Path(work_root or ROOT / ".bench_run") / workload
        self.corpus_dir = self.work / "corpus"
        self.out_dir = self.work / "out"
        self.attempted = 0
        self.failures: list[str] = []
        self.digests: dict[str, str] = {}
        self.coverage: dict[str, tuple[str, str, bool, float]] = {}  # case id -> (family, pipeline, rounds, ratio)
        self.solve_s = defaultdict(list)  # case id -> seconds, one per pass
        self.verify_s = defaultdict(list)
        self.untraced_s = 0.0
        self.traced_s = 0.0
        self.tracer = Tracer(layer_targets()) if trace else None
        self.corpus = None
        self.setup_times: list[float] = []

    # -- set-up -------------------------------------------------------------

    def setup(self):
        """One set-up: import the program, build and write the corpus, warm up.

        The first set-up precedes the measured passes; the repeats run
        between passes, so that their median is not taken from one
        moment of a shared machine.
        """
        inputs = self.corpus.inputs_sha256() if self.corpus else None
        self.cli = self.workloads = self.corpus = None
        self.cli, import_s = load_program(ROOT)
        started = time.perf_counter()
        sys.modules.pop("workloads", None)
        self.workloads = importlib.import_module("workloads")
        if self.workload not in self.workloads.WORKLOADS:
            raise BenchError(f"unknown workload {self.workload!r}; choose from {sorted(self.workloads.WORKLOADS)}")
        self.corpus = self.workloads.build(self.workload, self.seed, self.per_slice)
        shutil.rmtree(self.corpus_dir, ignore_errors=True)
        shutil.rmtree(self.out_dir, ignore_errors=True)
        self.corpus_dir.mkdir(parents=True)
        self.out_dir.mkdir(parents=True)
        for name, text in self.corpus.files.items():
            (self.corpus_dir / name).write_text(text, encoding="utf-8")
        if self.tracer is not None:
            self.tracer.bind()
        for case in self.corpus.warmup:
            self.run_case(case, traced=False, record=False)
        self.setup_times.append(import_s + time.perf_counter() - started)
        if inputs not in (None, self.corpus.inputs_sha256()):
            raise BenchError("one seed produced different corpora across set-ups")

    # -- one CLI call -----------------------------------------------------

    def call(self, argv: list[str], root_span: str | None):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            started = time.perf_counter()
            try:
                if root_span is None:
                    code = self.cli.main(argv)
                else:
                    with self.tracer.installed(), self.tracer.span(root_span):
                        code = self.cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:
                code = None
                err.write(traceback.format_exc())
            elapsed = time.perf_counter() - started
        self.attempted += 1
        return code, out.getvalue(), err.getvalue(), elapsed

    def fail(self, case, what: str, detail: str = ""):
        message = f"{case.id}: {what}"
        self.failures.append(message)
        print(f"FAILED {message}\n{detail}".rstrip(), file=sys.stderr)

    def run_case(self, case, traced: bool, record: bool = True, request: str | None = None):
        instance = str(self.corpus_dir / case.instance)
        solution = str(self.out_dir / f"{case.id}.solution.json")
        if case.pipeline == "smf":
            argv, root_span = ["round", "smf", instance, "--mode", case.mode, "-o", solution], "cli.round"
        else:
            argv, root_span = ["solve", case.pipeline, instance, "-o", solution], "cli.solve"
        pivot_trace = self.out_dir / "pivots.trace"
        if traced:
            argv += ["--trace", str(pivot_trace)]
            self.tracer.request = request
            first_span = len(self.tracer.spans)
        code, out, err, solve_s = self.call(argv, root_span if traced else None)
        if code != 0:
            self.fail(case, f"{argv[0]} exited with {code}", err)
            return False, solve_s
        try:
            doc = json.loads(out)
            problems, ratio = check_certificate(case.pipeline, doc["certificate"])
            rounds = doc["certificate"]["iterations"] > 0
        except (ValueError, KeyError, TypeError) as exc:
            self.fail(case, f"unreadable {argv[0]} output: {exc!r}", out[:500])
            return False, solve_s
        if doc.get("verdict") != "pass":
            problems.append(f"verdict {doc.get('verdict')!r}")
        digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
        if self.digests.setdefault(case.id, digest) != digest:
            problems.append("certificate differs from an earlier run of the same case")
        if problems:
            self.fail(case, "; ".join(problems))
        if record:
            self.coverage.setdefault(case.id, (case.family, case.pipeline, rounds, ratio))
        if traced:
            root = self.tracer.spans[first_span]
            kinds = pivot_trace.read_text(encoding="utf-8").split()
            root.attrs["pivots_cardinal"] = kinds.count("kind=cardinal")
            root.attrs["pivots_ordinal"] = kinds.count("kind=ordinal")
        code, out, err, verify_s = self.call(["verify", instance, solution], "cli.verify" if traced else None)
        try:
            verified = code == 0 and json.loads(out)["verdict"] == "pass"
        except (ValueError, KeyError, TypeError):
            verified = False
        if not verified:
            self.fail(case, f"verify exited with {code}", out[:500] + err)
        if record and not traced:
            self.solve_s[case.id].append(solve_s)
            self.verify_s[case.id].append(verify_s)
        return verified and not problems, solve_s + verify_s

    # -- the measured loop -------------------------------------------------

    def measure(self):
        self.pass_s = []
        self.passes = 0
        self.cases_run = 0
        self.certified = 0
        while True:
            started = time.perf_counter()
            for case in self.corpus.cases:
                if self.trace:
                    request = f"{case.id}#{self.passes}"
                    order = (False, True) if self.cases_run % 2 == 0 else (True, False)
                    ok = True
                    for traced in order:
                        passed, spent = self.run_case(case, traced, request=request)
                        ok &= passed
                        if traced:
                            self.traced_s += spent
                        else:
                            self.untraced_s += spent
                else:
                    ok, _ = self.run_case(case, traced=False)
                self.cases_run += 1
                self.certified += ok
            self.pass_s.append(time.perf_counter() - started)
            self.passes += 1
            if len(self.setup_times) < SETUP_REPEATS:
                self.setup()
            measured = sum(self.pass_s)
            if measured + measured / self.passes > self.seconds:
                break
        while len(self.setup_times) < SETUP_REPEATS:
            self.setup()

    # -- metrics -------------------------------------------------------------

    def certificates_sha256(self) -> str:
        digest = hashlib.sha256()
        for case in self.corpus.cases:
            digest.update(f"{case.id} {self.digests.get(case.id, '-')}\n".encode("utf-8"))
        return digest.hexdigest()

    def coverage_by(self, index: int):
        """key -> (cases, cases that round, largest deviation/bound) over distinct cases."""
        table = {}
        for family, pipeline, rounds, ratio in self.coverage.values():
            key = (family, pipeline)[index]
            count, rounded, worst = table.get(key, (0, 0, 0.0))
            table[key] = (count + 1, rounded + rounds, max(worst, ratio))
        return table

    def end_to_end(self) -> dict:
        # One latency per case: its median over the passes.  The sample
        # count, and with it the tail percentile, is then fixed by the
        # workload instead of by how many passes fit into the run.
        solve_s = [statistics.median(v) for v in self.solve_s.values()] or [0.0]
        verify_s = [statistics.median(v) for v in self.verify_s.values()] or [0.0]
        p, tail = tail_percentile(solve_s)
        self.tail_info = {"percentile": p, "samples": len(self.solve_s), "passes": self.passes}
        return {
            # From the median pass, so that one pass slowed by a busy
            # neighbour on a shared machine does not move the figure.
            "throughput_ips": self.certified / self.passes / statistics.median(self.pass_s),
            "solve_p50_ms": statistics.median(solve_s) * 1000,
            "solve_tail_ms": tail * 1000,
            "verify_p50_ms": statistics.median(verify_s) * 1000,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": statistics.median(self.setup_times),
        }

    def per_layer(self) -> dict:
        spans = self.tracer.spans
        own = self_times(spans)
        self_ns = defaultdict(int)
        calls = defaultdict(int)
        for span in spans:
            self_ns[span.name] += own[span.id]
            calls[span.name] += 1
        cases = self.cases_run
        root_ns = max(sum(s.duration_ns for s in spans if s.parent is None), 1)

        def per_case_ms(ns):
            return ns / 1e6 / cases

        def attr_total(name, key):
            return sum(s.attrs.get(key, 0) for s in spans if s.name == name)

        metrics = {metric: per_case_ms(self_ns[name]) for name, metric in SELF_TIME_METRICS.items()}
        cardinal = attr_total("cli.solve", "pivots_cardinal")
        ordinal = attr_total("cli.solve", "pivots_ordinal")
        scarf_calls = calls["scarf.solve"]
        scarf_ns = self_ns["scarf.solve"] + self_ns["scarf.certify"] + self_ns["scarf.dominate"]
        metrics.update(
            {
                "scarf.pivots_cardinal": cardinal / cases,
                "scarf.pivots_ordinal": ordinal / cases,
                "scarf.us_per_pivot": self_ns["scarf.solve"] / 1e3 / max(cardinal + ordinal, 1),
                "scarf.x_den_bits": max((s.attrs["x_den_bits"] for s in spans if s.name == "scarf.solve"), default=0),
                "scarf.rows": attr_total("scarf.solve", "rows") / max(scarf_calls, 1),
                "scarf.cols": attr_total("scarf.solve", "cols") / max(scarf_calls, 1),
                "scarf.time_share": scarf_ns / root_ns,
                "polytope.lp_calls": calls["polytope.lp"] / cases,
                "polytope.ms_per_lp": self_ns["polytope.lp"] / 1e6 / max(calls["polytope.lp"], 1),
                "polytope.time_share": self_ns["polytope.lp"] / root_ns,
                "round.iterations": attr_total("round", "iterations") / cases,
                "smf.iterations": attr_total("smf.round_flow", "iterations") / cases,
                "pipeline.self_ms": per_case_ms(sum(self_ns[name] for name in PIPELINE_SPANS)),
                "cli.overhead_ms": per_case_ms(sum(self_ns[name] for name in ROOT_SPANS)),
                "trace.overhead_ratio": self.untraced_s / self.traced_s,
            }
        )
        table = self.coverage_by(1)
        for pipeline in PIPELINES:
            count, rounded, worst = table.get(pipeline, (0, 0, 0.0))
            metrics[f"round.share_rounded.{pipeline}"] = rounded / count if count else 0.0
            metrics[f"round.max_dev_ratio.{pipeline}"] = worst
        self.breakdown = {name: per_case_ms(ns) for name, ns in sorted(self_ns.items()) if calls[name]}
        return metrics

    # -- whole run -----------------------------------------------------------

    def execute(self) -> dict:
        self.setup()
        self.measure()
        if self.trace:
            values, units = self.per_layer(), PER_LAYER_UNITS
        else:
            values, units = self.end_to_end(), END_TO_END_UNITS
        tag = f"seed{self.seed}-trace{int(self.trace)}"
        if self.trace:
            self.tracer.write_jsonl(self.work / f"spans-{tag}.jsonl")
        summary = {
            "workload": self.workload,
            "seed": self.seed,
            "inputs_sha256": self.corpus.inputs_sha256(),
            "certificates_sha256": self.certificates_sha256(),
            "files": len(self.corpus.files),
            "cases_per_pass": len(self.corpus.cases),
            "cases_run": self.cases_run,
            "complete_passes": self.passes,
            "pass_s": self.pass_s,
            "setup_runs_s": self.setup_times,
            "coverage": {k: list(v) for k, v in sorted(self.coverage_by(0).items())},
            "solve_tail": getattr(self, "tail_info", None),
            "self_ms_per_case": getattr(self, "breakdown", None),
            "failures": self.failures,
        }
        (self.work / f"result-{tag}.json").write_text(json.dumps(summary, indent=1, sort_keys=True), encoding="utf-8")
        self.summary = summary
        return {
            "correct": not self.failures,
            "attempted": self.attempted,
            "failed": len(self.failures),
            "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
        }


def report(run: Run, result: dict):
    s = run.summary
    print(f"workload {s['workload']} seed {s['seed']} trace {int(run.trace)} seconds {run.seconds}")
    print(f"inputs_sha256 {s['inputs_sha256']} files {s['files']} cases/pass {s['cases_per_pass']}")
    print(f"certificates_sha256 {s['certificates_sha256']} complete passes {s['complete_passes']} cases run {s['cases_run']}")
    for family, (count, rounded, worst) in s["coverage"].items():
        print(f"coverage {family}: rounds on {rounded}/{count} ({rounded / count:.3f}), largest deviation/bound {worst:.3f}")
    print(f"failed_ratio {result['failed']}/{result['attempted']} = {result['failed'] / result['attempted']:.4f}")
    if s["solve_tail"]:
        t = s["solve_tail"]
        print(f"solve_tail_ms is p{t['percentile']} of {t['samples']} solve samples")
    if s["self_ms_per_case"]:
        total = sum(s["self_ms_per_case"].values())
        for name, ms in sorted(s["self_ms_per_case"].items(), key=lambda kv: -kv[1]):
            print(f"self {name:<18} {ms:10.3f} ms/case {ms / total:7.1%}")
    for name, metric in result["metrics"].items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result, sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        result = run.execute()
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    report(run, result)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
