"""Command-line interface.

Subcommands: ``solve`` (one problem from files, certificate JSON to stdout),
``bench`` (seeded multi-trial experiments driven by a JSON config), ``gen``
(write synthetic problem files), ``verify`` (re-audit a recorded trace).

Exit codes (``_EXIT_CODES`` maps each error class to one): 0 success; 1 a
verification found violations; 2 invalid flags or configuration; 3 I/O or
parse failure; 4 dimension mismatch between inputs; 5 solver runtime failure.
The keys each solver reads, how ``gen`` draws an instance and the default
start point all come from ``experiments``, as they do for ``bench``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path
from typing import Any

from .exceptions import (
    DegenerateInputError,
    DimensionMismatchError,
    DomainError,
    InsufficientDataError,
    InvalidConfigError,
    InvalidProblemError,
    LineSearchError,
    NumericsError,
    ParseError,
)
from .experiments import (
    _SOLVER_KNOBS,
    EXPERIMENTS,
    SOLVERS,
    ExperimentConfig,
    _instance,
    _pin_blas_to_one_thread,
    _solve_trial,
    _start,
    config_from_dict,
    run_experiment,
)
from .io import (
    load_matrix_csv,
    load_trace_csv,
    load_vector_csv,
    save_matrix_csv,
    write_jsonl,
    write_result_rows,
    write_trace_csv,
)
from .l1l2 import L1L2PenaltyProblem
from .oracle import audit_trace, fit_linear_rate
from .rand import philox_generator
from .sgep import SfdaRecipe, SgepProblem

EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_VALIDATION = 2
EXIT_IO = 3
EXIT_DIMENSIONS = 4
EXIT_SOLVER = 5
# The exit code of each error class main reports, subclasses before their
# bases (a DimensionMismatchError is an InvalidProblemError); any other error
# propagates.
_EXIT_CODES = {
    DimensionMismatchError: EXIT_DIMENSIONS,
    InvalidConfigError: EXIT_VALIDATION,
    InvalidProblemError: EXIT_VALIDATION,
    ParseError: EXIT_IO,
    OSError: EXIT_IO,
    DomainError: EXIT_SOLVER,
    LineSearchError: EXIT_SOLVER,
    NumericsError: EXIT_SOLVER,
    DegenerateInputError: EXIT_SOLVER,
}
GEN_SIZES = ("n", "p1", "p2", "r", "m", "k", "dct_f")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracopt",
        description="Ratio-objective solvers: sparse eigenvalue and sparse recovery benchmarks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    files = argparse.ArgumentParser(add_help=False)
    files.add_argument("--matrix-a", help="CSV matrix (A for sgep, sensing for l1l2)")
    files.add_argument("--matrix-b", help="CSV matrix B (sgep only)")
    files.add_argument("--vector-b", help="CSV observation vector (l1l2 only)")
    files.add_argument("-r", "--sparsity", type=int, help="sparsity level r (sgep only)")
    files.add_argument(
        "--lam", type=float, default=ExperimentConfig.lam, help="l1 penalty weight (l1l2)"
    )
    files.add_argument("--box-lower", type=float, default=ExperimentConfig.box_lower)
    files.add_argument("--box-upper", type=float, default=ExperimentConfig.box_upper)

    solve = sub.add_parser("solve", parents=[files], help="solve one problem read from files")
    solve.add_argument("problem", choices=["sgep", "l1l2"])
    solve.add_argument("--solver", choices=SOLVERS, default="pgsa_ml")
    solve.add_argument("--x0", help="CSV start vector; defaults to the problem's canonical start")
    solve.add_argument("--config", help="JSON file with solver parameters")
    solve.add_argument("--trace", help="write the per-iteration trace CSV here")
    solve.add_argument("--step-tol", type=float)
    solve.add_argument("--max-iter", type=int)
    solve.add_argument("--relative-tol", action="store_true", default=None)
    solve.add_argument("--alpha", type=float, help="fixed step size (pgsa)")

    bench = sub.add_parser("bench", help="run a seeded multi-trial benchmark")
    bench.add_argument("--config", help="JSON experiment configuration")
    bench.add_argument("--seed", type=int, help="override master_seed")
    bench.add_argument("--trials", type=int, help="override trial count")
    bench.add_argument("--threads", type=int, help="worker processes, one BLAS thread each")
    bench.add_argument("--out-dir", default=".", help="where to write results")
    bench.add_argument("--trace", action="store_true", help="record and write per-run traces")

    gen = sub.add_parser("gen", help="write synthetic problem files")
    gen.add_argument("experiment", choices=EXPERIMENTS)
    gen.add_argument("--out-dir", default=".")
    gen.add_argument("--seed", type=int, default=0)
    for size in GEN_SIZES:  # sizes left unset take ExperimentConfig's defaults
        gen.add_argument("--" + size.replace("_", "-"), type=float if size == "dct_f" else int)

    verify = sub.add_parser(
        "verify", parents=[files], help="re-audit a trace with the parameters it carries"
    )
    verify.add_argument("--trace", required=True, help="trace CSV from solve or bench --trace")
    verify.add_argument(
        "--problem", choices=["sgep", "l1l2"], help="recompute L, M and f's convexity from files"
    )
    verify.add_argument("--rate-fit", action="store_true", help="also fit the convergence rate")
    return parser


def _load_json_object(path: str | None) -> dict[str, Any]:
    """The JSON object in a config file; {} without a path."""
    if not path:
        return {}
    with open(path, "r") as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: {exc}") from None
    if not isinstance(data, dict):
        raise ParseError(f"{path}: expected a JSON object")
    return data


def _build_problem(args: argparse.Namespace) -> SgepProblem | L1L2PenaltyProblem:
    if not args.matrix_a:
        raise InvalidConfigError(f"{args.problem} needs --matrix-a")
    if args.problem == "sgep":
        if not args.matrix_b:
            raise InvalidConfigError("sgep needs --matrix-b")
        if args.sparsity is None:
            raise InvalidConfigError("sgep needs a sparsity level -r")
        # Each file is solved as written; SgepProblem checks it.
        a, b = load_matrix_csv(args.matrix_a), load_matrix_csv(args.matrix_b)
        return SgepProblem(matrix_a=a, matrix_b=b, sparsity=args.sparsity)
    if not args.vector_b:
        raise InvalidConfigError("l1l2 needs --vector-b")
    return L1L2PenaltyProblem(
        sensing=load_matrix_csv(args.matrix_a),
        observation=load_vector_csv(args.vector_b),
        lam=args.lam,
        lower=args.box_lower,
        upper=args.box_upper,
    )


def cmd_solve(args: argparse.Namespace) -> int:
    cfg_fields = _load_json_object(args.config)
    for key in ("alpha", "step_tol", "max_iter", "relative_tol"):
        if getattr(args, key) is not None:
            cfg_fields[key] = getattr(args, key)
    # Keys that are no solver knob at all; ExperimentConfig rejects the knobs this solver skips.
    unknown = sorted(set(cfg_fields) - _SOLVER_KNOBS)
    if unknown:
        raise InvalidConfigError(f"solver {args.solver} does not read: {', '.join(unknown)}")
    # stop_is_relative keys on the family alone, so sfda gives sgep its stop rule.
    exp_cfg = ExperimentConfig(
        experiment="l1l2" if args.problem == "l1l2" else "sfda",
        solver=args.solver,
        trials=1,
        write_traces=bool(args.trace),
        **cfg_fields,
    )
    _pin_blas_to_one_thread()
    problem = _build_problem(args)
    x0 = load_vector_csv(args.x0) if args.x0 else _start(problem)
    result = _solve_trial(exp_cfg, 0, args.solver, (problem, x0, None))
    if args.trace:
        write_trace_csv(args.trace, result.trace)
    payload = {**dataclasses.asdict(result.trace.certificate), "wall_time_s": result.wall_time_s}
    print(json.dumps(payload, sort_keys=True))
    return EXIT_OK


def cmd_bench(args: argparse.Namespace) -> int:
    data = _load_json_object(args.config)
    if args.seed is not None:
        data["master_seed"] = args.seed
    if args.trials is not None:
        data["trials"] = args.trials
    if args.threads is not None:
        data["threads"] = args.threads
    if args.trace:
        data["write_traces"] = True
    cfg = config_from_dict(data)

    outcome = run_experiment(cfg)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    results_path = out_dir / "results.csv"
    write_result_rows(results_path, outcome.rows)
    records_path = out_dir / "runs.jsonl"
    write_jsonl(records_path, outcome.records)
    written = [results_path, records_path]
    if outcome.failures:
        failures_path = out_dir / "failures.jsonl"
        write_jsonl(failures_path, outcome.failures)
        written.append(failures_path)
    if cfg.write_traces:
        trace_dir = out_dir / "traces"
        trace_dir.mkdir(exist_ok=True)
        for result in outcome.results:
            path = trace_dir / f"trace_{result.solver}_{result.trial}.csv"
            write_trace_csv(path, result.trace)
        written.append(trace_dir)

    for row in outcome.rows:
        summary = ", ".join(f"{key}={row[key]}" for key in ("solver", "mean_objective", "trials"))
        print(summary)
    print("wrote: " + ", ".join(str(p) for p in written))
    return EXIT_OK


def cmd_gen(args: argparse.Namespace) -> int:
    sizes = {size: getattr(args, size) for size in GEN_SIZES if getattr(args, size) is not None}
    cfg = ExperimentConfig(experiment=args.experiment, master_seed=args.seed, **sizes)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _pin_blas_to_one_thread()
    problem, truth = _instance(cfg, philox_generator(cfg.master_seed))
    meta: dict[str, Any] = {"experiment": args.experiment, "seed": args.seed, "n": cfg.dimension}
    if args.experiment == "sfda":
        save_matrix_csv(out_dir / "A.csv", problem.matrix_a)
        save_matrix_csv(out_dir / "B.csv", problem.matrix_b)
        meta.update(p1=cfg.p1, p2=cfg.p2, r=cfg.r, within_ridge=SfdaRecipe.within_ridge)
        written = ["A.csv", "B.csv"]
    else:
        save_matrix_csv(out_dir / "A.csv", problem.sensing)
        save_matrix_csv(out_dir / "b.csv", problem.observation[:, None])
        save_matrix_csv(out_dir / "xtrue.csv", truth[:, None])
        meta.update(m=cfg.m, k=cfg.k, dct_f=cfg.dct_f)
        written = ["A.csv", "b.csv", "xtrue.csv"]
    with open(out_dir / "meta.json", "w") as handle:
        json.dump(meta, handle, sort_keys=True, indent=2)
    print(f"wrote {', '.join(written)} and meta.json to {out_dir}")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    trace, _ = load_trace_csv(args.trace)
    _pin_blas_to_one_thread()
    problem = _build_problem(args) if args.problem else None
    try:
        report = audit_trace(trace, problem)
    except (ArithmeticError, KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{args.trace}: line 1: unusable params: {exc!r}") from None
    for violation in report.violations:
        print(
            f"violation at iteration {violation.iteration}: {violation.kind} "
            f"(magnitude {violation.magnitude:.3e}) {violation.detail}"
        )
    if args.rate_fit:
        try:
            fit = fit_linear_rate(trace)
        except InsufficientDataError as exc:
            print(f"rate fit: {exc}")
        else:
            print(
                f"rate fit: slope {fit.slope:.6f}, r_squared {fit.r_squared:.4f}, "
                f"window {fit.window[0]}..{fit.window[1]} ({fit.n_points} points)"
            )
    if report.ok:
        print(f"audit ok: {report.checks_run} checks, zero violations")
        return EXIT_OK
    print(f"audit failed: {len(report.violations)} violations in {report.checks_run} checks")
    return EXIT_VIOLATIONS


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"solve": cmd_solve, "bench": cmd_bench, "gen": cmd_gen, "verify": cmd_verify}
    try:
        return handlers[args.command](args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))


def main_entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    main_entry()
