"""Command-line interface: solve, round, verify, gen, and oracle subcommands.

All outputs are canonical JSON (sorted keys, one document per file), so
identical inputs produce byte-identical certificates and generated files.
Exit codes: 0 pass, 2 verified failure (a certificate naming the witness
was produced), 3 input error, 4 resource limit exceeded.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
import time
from fractions import Fraction

from . import fileformat as ff
from .cacq import quota_bounds, solve_cacq, verify_cacq
from .errors import InputError, NearstableError, ResourceLimitError, UnstableInputError
from .model import CacqInstance, HypergraphInstance, normalize_cacq, require_valid
from .oracle import GeneratorConfig, enumerate_near_feasible, generate
from .scarf import DEFAULT_PIVOT_BUDGET
from .shm import capacity_bounds, solve_shm, verify_shm
from .smf import flow_bounds, round_stable_flow, verify_flow

EXIT_PASS = 0
EXIT_VERIFIED_FAIL = 2
EXIT_INPUT_ERROR = 3
EXIT_RESOURCE_LIMIT = 4

PIVOT_BUDGET_ENV = "NEARSTABLE_PIVOT_BUDGET"


def _pivot_budget() -> int:
    raw = os.environ.get(PIVOT_BUDGET_ENV)
    if raw is None:
        return DEFAULT_PIVOT_BUDGET
    try:
        value = int(raw)
    except ValueError as exc:
        raise InputError(f"{PIVOT_BUDGET_ENV} must be an integer, got {raw!r}") from exc
    if value <= 0:
        raise InputError(f"{PIVOT_BUDGET_ENV} must be positive")
    return value


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _write(path: str, text: str):
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _emit(args, payload: dict, elapsed: float):
    text = ff.canonical_dumps(payload)
    if args.format == "summary":
        verdict = payload.get("verdict", "?")
        lines = [f"verdict: {verdict}"]
        bounds = payload.get("certificate", {}).get("bounds")
        if bounds:
            for key, value in bounds.items():
                lines.append(f"{key}: {value}")
        lines.append(f"wall_clock_ms: {elapsed * 1000:.1f}")
        print("\n".join(lines))
    else:
        sys.stdout.write(text)


def _trace_sink(args):
    if getattr(args, "trace", None):
        try:
            handle = open(args.trace, "w", encoding="utf-8")
        except OSError as exc:
            raise InputError(f"cannot open trace file {args.trace}: {exc}") from exc
        return handle, lambda line: handle.write(line + "\n")
    return None, None


def _cmd_solve(args) -> int:
    text = _read(args.input)
    parsed = ff.parse_document(text)
    handle, sink = _trace_sink(args)
    start = time.perf_counter()
    try:
        if args.problem == "shm":
            if not isinstance(parsed, HypergraphInstance):
                raise InputError("solve shm expects a document of kind 'shm'")
            result = solve_shm(parsed, pivot_budget=_pivot_budget(), trace=sink)
            matched = sorted(eid for eid, v in result.matching.items() if v == 1)
            solution = ff.shm_solution_to_doc(result.revision.revised, matched)
        else:
            if not isinstance(parsed, CacqInstance):
                raise InputError("solve cacq expects a document of kind 'cacq'")
            result = solve_cacq(parsed, pivot_budget=_pivot_budget(), trace=sink)
            matched = sorted(eid for eid, v in result.matching.items() if v == 1)
            solution = ff.cacq_solution_to_doc(result.revision.revised, matched)
    finally:
        if handle is not None:
            handle.close()
    elapsed = time.perf_counter() - start
    if args.output:
        _write(args.output, ff.canonical_dumps(solution))
    payload = {
        "input_digest": _digest(text),
        "pipeline": args.problem,
        "certificate": result.certificate,
        "solution": solution,
        "verdict": "pass",
    }
    _emit(args, payload, elapsed)
    return EXIT_PASS


def _cmd_round(args) -> int:
    text = _read(args.input)
    parsed = ff.parse_document(text)
    if not isinstance(parsed, ff.SmfDocument):
        raise InputError("round smf expects a document of kind 'smf'")
    if parsed.flow is None:
        raise InputError("round smf needs the instance file to carry a fractional flow")
    handle, sink = _trace_sink(args)
    start = time.perf_counter()
    try:
        result = round_stable_flow(parsed.instance, parsed.flow, balanced=args.mode == "balanced", trace=sink)
    finally:
        if handle is not None:
            handle.close()
    elapsed = time.perf_counter() - start
    flow = {key: Fraction(value) for key, value in result.rounded.items()}
    solution = ff.smf_solution_to_doc(
        parsed.instance, result.capacities.aggregate, result.capacities.per_commodity, flow
    )
    if args.output:
        _write(args.output, ff.canonical_dumps(solution))
    payload = {
        "input_digest": _digest(text),
        "pipeline": "smf",
        "certificate": result.certificate,
        "solution": solution,
        "verdict": "pass",
    }
    _emit(args, payload, elapsed)
    return EXIT_PASS


def _cmd_verify(args) -> int:
    inst_text = _read(args.instance)
    parsed = ff.parse_document(inst_text)
    require_valid(parsed.instance if isinstance(parsed, ff.SmfDocument) else parsed)
    try:
        sol_doc = json.loads(_read(args.solution))
    except json.JSONDecodeError as exc:
        raise InputError(f"solution {args.solution} is not valid JSON: {exc}") from exc
    start = time.perf_counter()
    if isinstance(parsed, HypergraphInstance):
        capacities, matched = ff.parse_shm_solution(sol_doc)
        report = verify_shm(parsed, capacities, {eid: 1 for eid in matched})
        detail = {
            "blocking_edges": list(report.blocking_edges),
            "capacity_violations": list(report.capacity_violations),
        }
        ok = report.ok
        bounds = capacity_bounds(parsed, capacities)
    elif isinstance(parsed, CacqInstance):
        quotas, matched = ff.parse_cacq_solution(sol_doc)
        normalized = normalize_cacq(parsed)
        report = verify_cacq(normalized, quotas, {eid: 1 for eid in matched})
        detail = {
            "blocking_edges": list(report.blocking_edges),
            "quota_violations": list(report.quota_violations),
            "student_violations": list(report.student_violations),
        }
        ok = report.ok
        bounds = quota_bounds(normalized, quotas)
    elif isinstance(parsed, ff.SmfDocument):
        capacity, ccaps, flow = ff.parse_smf_solution(sol_doc, parsed.instance)
        report = verify_flow(parsed.instance, flow, capacity=capacity, commodity_capacity=ccaps)
        detail = {
            "blocking_walks": [
                {"commodity": w.commodity, "vertices": list(w.vertices), "arcs": list(w.arcs)}
                for w in report.blocking_walks
            ],
            "kirchhoff_violations": [list(map(str, v)) for v in report.kirchhoff_violations],
            "capacity_violations": list(report.capacity_violations),
        }
        ok = report.ok
        bounds = flow_bounds(parsed.instance, capacity, ccaps, flow, parsed.flow)
    else:
        raise InputError("unsupported instance kind for verify")
    elapsed = time.perf_counter() - start
    certificate = {"verifier": detail, "bounds": bounds}
    ok = ok and not bounds["violations"]
    payload = {
        "input_digest": _digest(inst_text),
        "verdict": "pass" if ok else "fail",
        "certificate": certificate,
    }
    _emit(args, payload, elapsed)
    return EXIT_PASS if ok else EXIT_VERIFIED_FAIL


# The `GeneratorConfig` fields `gen` exposes as options, each defaulting to the config's default.
_GEN_FIELDS = (
    "max_vertices",
    "max_edges",
    "max_edge_size",
    "tie_permille",
    "max_students",
    "max_colleges",
    "max_extra_sets",
    "memberships",
    "commodities",
    "max_arcs",
)


def _cmd_gen(args) -> int:
    config = GeneratorConfig(
        family=args.family, seed=args.seed, **{name: getattr(args, name) for name in _GEN_FIELDS}
    )
    produced = generate(config)
    if args.family == "smf":
        inst, flow = produced
        doc = ff.smf_to_doc(inst, flow)
    elif args.family == "cacq":
        doc = ff.cacq_to_doc(produced)
    else:
        doc = ff.shm_to_doc(produced)
    text = ff.canonical_dumps(doc)
    if args.output:
        _write(args.output, text)
    else:
        sys.stdout.write(text)
    return EXIT_PASS


def _cmd_oracle(args) -> int:
    parsed = ff.parse_document(_read(args.input))
    if not isinstance(parsed, HypergraphInstance):
        raise InputError("oracle enumeration works on hypergraph instances")
    results = enumerate_near_feasible(parsed, args.bound, args.sum_bound)
    payload = {
        "bound": args.bound,
        "sum_bound": args.sum_bound,
        "count": len(results),
        "results": [
            {"capacities": caps, "witness": sorted(eid for eid, v in witness.items() if v)}
            for caps, witness in results
        ],
    }
    sys.stdout.write(ff.canonical_dumps(payload))
    return EXIT_PASS


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by every `main` call."""
    parser = argparse.ArgumentParser(prog="nearstable", description=__doc__)
    parser.add_argument("--format", choices=["json", "summary"], default="json")
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve a matching instance with capacity revision")
    solve.add_argument("problem", choices=["shm", "cacq"])
    solve.add_argument("input")
    solve.add_argument("-o", "--output", help="write the solution document here")
    solve.add_argument("--trace", help="write pivot/rounding trace lines here")
    solve.set_defaults(func=_cmd_solve)

    rnd = sub.add_parser("round", help="round a stable fractional multicommodity flow")
    rnd.add_argument("problem", choices=["smf"])
    rnd.add_argument("input")
    rnd.add_argument("--mode", choices=["default", "balanced"], default="default")
    rnd.add_argument("-o", "--output", help="write the solution document here")
    rnd.add_argument("--trace", help="write rounding trace lines here")
    rnd.set_defaults(func=_cmd_round)

    ver = sub.add_parser("verify", help="verify a solution against an instance")
    ver.add_argument("instance")
    ver.add_argument("solution")
    ver.set_defaults(func=_cmd_verify)

    gen = sub.add_parser("gen", help="generate a seeded random instance")
    gen.add_argument("family", choices=["shm", "fixtures", "cacq", "smf"])
    gen.add_argument("--seed", type=int, required=True)
    for name in _GEN_FIELDS:
        gen.add_argument("--" + name.replace("_", "-"), type=int, default=getattr(GeneratorConfig, name))
    gen.add_argument("-o", "--output")
    gen.set_defaults(func=_cmd_gen)

    oracle = sub.add_parser("oracle", help="enumerate near-feasible stable capacity vectors")
    oracle.add_argument("input")
    oracle.add_argument("--bound", type=int, required=True)
    oracle.add_argument("--sum-bound", type=int, default=None)
    oracle.set_defaults(func=_cmd_oracle)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UnstableInputError as exc:
        witness = exc.witness
        payload = {
            "verdict": "fail",
            "certificate": {
                "error": str(exc),
                "witness": {
                    "commodity": witness.commodity,
                    "vertices": list(witness.vertices),
                    "arcs": list(witness.arcs),
                }
                if witness is not None
                else None,
            },
        }
        sys.stdout.write(ff.canonical_dumps(payload))
        return EXIT_VERIFIED_FAIL
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE_LIMIT
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except NearstableError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
