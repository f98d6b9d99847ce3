"""Benchmark protocols: configuration, per-trial runs, aggregation.

A benchmark is a pure function of (configuration, master seed): every trial
draws from its own Philox stream keyed by (master_seed, trial_index), trials
are aggregated in index order whatever the worker count, and the per-run
records contain no timing fields, so identical inputs give byte-identical
records.  Every trial runs in a worker process whose BLAS is pinned to one
thread, so a trial's arithmetic does not depend on how many workers run, and
whose OpenBLAS server thread is stopped, so no idle thread spins beside it.
With traces on, a worker fills each run's ``err_to_final`` column and saves
its iterates to a temporary file; the parent gets them back as a read-only
memory map of that file, so no iterate crosses the result pipe.
Wall-clock times appear only in the aggregate table and cover the solver
call alone, timed inside its worker with no other trial sharing that
process (problem construction, including the Lipschitz-constant
computation, and the sparse-recovery initializer run outside the clock).
The CLI takes each solver's fields, the instance recipe and start points from here.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import itertools
import numbers
import os
import tempfile
import time
from dataclasses import dataclass, fields as dataclass_fields
from pathlib import Path
from typing import Any

import numpy as np

from .exceptions import FracoptError, InvalidConfigError
from .io import RESULT_COLUMNS
from .l1l2 import (
    L1L2PenaltyProblem,
    RecoveryReport,
    _check_penalty,
    gen_dct_matrix,
    gen_ground_truth,
    penalty_start_point,
    recovery_report,
)
from .pgsa import LineSearchConfig, PgsaConfig, SolverTrace, run_pgsa, run_pgsa_ls
from .problem import FractionalProblem
from .rand import philox_generator
from .sgep import SfdaRecipe, SgepProblem, gen_sfda, sgep_default_init

EXPERIMENTS = ("sfda", "l1l2")
# The ExperimentConfig fields each solver reads; a config that sets another one is rejected.
_STOPPING = ("step_tol", "max_iter", "relative_tol")
_LINE_SEARCH = ("a", "eta", "alpha_lower", "alpha_upper", "alpha0", *_STOPPING)
_SOLVER_FIELDS = {
    "pgsa": ("alpha", *_STOPPING),
    "pgsa_ml": _LINE_SEARCH,
    "pgsa_nl": (*_LINE_SEARCH, "window"),
}
SOLVERS = tuple(_SOLVER_FIELDS)
_SOLVER_KNOBS = frozenset().union(*_SOLVER_FIELDS.values())
# The values each ExperimentConfig field annotation admits; a bool is no number.
FIELD_TYPES = {"str": str, "int": numbers.Integral, "float": numbers.Real, "bool": bool}


@dataclass
class ExperimentConfig:
    """Everything a benchmark run depends on.

    JSON configuration files use exactly these field names as keys.
    ``solver`` may be one of the solver names or "all"; a solver knob that
    none of the configured solvers reads must stay None.  Fields left at None
    fall back to per-experiment defaults documented on the field.
    """

    experiment: str = "sfda"
    solver: str = "all"
    trials: int = 20
    master_seed: int = 0
    # CPU budget: the number of worker processes, each with single-threaded
    # BLAS; None means every usable CPU
    threads: int | None = None
    write_traces: bool = False
    # dimensions; n defaults to 1000 (sfda) or 1024 (l1l2)
    n: int | None = None
    p1: int = 500
    p2: int = 500
    r: int = 50
    m: int = 64
    k: int = 12
    dct_f: float = 1.0
    lam: float = 8e-5
    box_lower: float = -1.0
    box_upper: float = 1.0
    # solver knobs; None keeps the solver's own defaults
    alpha: float | None = None
    a: float | None = None
    eta: float | None = None
    window: int | None = None
    alpha_lower: float | None = None
    alpha_upper: float | None = None
    alpha0: float | None = None
    step_tol: float | None = None
    max_iter: int | None = None
    relative_tol: bool | None = None

    def __post_init__(self) -> None:
        for spec in dataclass_fields(self):
            value = getattr(self, spec.name)
            kind, _, optional = spec.type.partition(" | ")
            if value is None and optional:
                continue
            is_bool = isinstance(value, bool)
            if is_bool != (kind == "bool") or not isinstance(value, FIELD_TYPES[kind]):
                raise InvalidConfigError(f"{spec.name} must be {spec.type}, got {value!r}")
        if self.experiment not in EXPERIMENTS:
            raise InvalidConfigError(
                f"unknown experiment {self.experiment!r}; expected one of {EXPERIMENTS}"
            )
        for solver in self.solver_names():  # each solver config checks its own knobs
            solver_run_config(self, solver)
        read = set().union(*(_SOLVER_FIELDS[solver] for solver in self.solver_names()))
        unread = sorted(name for name in _SOLVER_KNOBS - read if getattr(self, name) is not None)
        if unread:
            raise InvalidConfigError(f"solver {self.solver} does not read: {', '.join(unread)}")
        if self.trials < 0:
            raise InvalidConfigError("trials must be nonnegative")
        if self.master_seed < 0:
            raise InvalidConfigError(f"master_seed must be nonnegative, got {self.master_seed}")
        if self.threads is not None and self.threads < 1:
            raise InvalidConfigError("threads must be at least 1")
        if self.experiment == "sfda":  # the recipe's own checks reject impossible sizes
            SfdaRecipe(n=self.dimension, p1=self.p1, p2=self.p2, r=self.r)
        if self.experiment == "l1l2" and not 1 <= self.k <= self.dimension:
            raise InvalidConfigError(f"need 1 <= k <= {self.dimension}, got k = {self.k}")
        if self.experiment == "l1l2" and (self.m < 1 or not 0 < self.dct_f < np.inf):
            raise InvalidConfigError(
                f"need m >= 1 and 0 < dct_f < inf, got {self.m} and {self.dct_f}"
            )
        if self.experiment == "l1l2":
            _check_penalty(self.lam, self.box_lower, self.box_upper)

    @property
    def dimension(self) -> int:
        if self.n is not None:
            return self.n
        return 1024 if self.experiment == "l1l2" else 1000

    @property
    def stop_is_relative(self) -> bool:
        if self.relative_tol is not None:
            return self.relative_tol
        return self.experiment == "l1l2"

    def solver_names(self) -> tuple[str, ...]:
        return SOLVERS if self.solver == "all" else (self.solver,)


def config_from_dict(data: dict[str, Any]) -> ExperimentConfig:
    """Build a config from parsed JSON, rejecting unknown keys."""
    known = {f.name for f in dataclass_fields(ExperimentConfig)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise InvalidConfigError(f"unknown config keys: {', '.join(unknown)}")
    return ExperimentConfig(**data)


def solver_run_config(cfg: ExperimentConfig, solver: str) -> PgsaConfig | LineSearchConfig:
    """The config of ``solver`` from the fields it reads that are set; ``window`` is ``N``."""
    if solver not in _SOLVER_FIELDS:
        raise InvalidConfigError(f"unknown solver {solver!r}; expected 'all' or one of {SOLVERS}")
    knobs = {
        ("N" if name == "window" else name): value
        for name in _SOLVER_FIELDS[solver]
        if (value := getattr(cfg, name)) is not None
    }
    knobs.update(relative_tol=cfg.stop_is_relative, record_trace=cfg.write_traces)
    if solver == "pgsa_ml":  # the monotone line search; it reads no window
        knobs["N"] = 0
    return PgsaConfig(**knobs) if solver == "pgsa" else LineSearchConfig(**knobs)


@dataclass
class TrialResult:
    """One solver run inside one trial."""

    experiment: str
    solver: str
    trial: int
    trace: SolverTrace
    wall_time_s: float
    report: RecoveryReport | None = None

    def record(self) -> dict[str, Any]:
        cert = self.trace.certificate
        rec: dict[str, Any] = {
            "experiment": self.experiment,
            "solver": self.solver,
            "trial": self.trial,
            "objective": cert.objective,
            "iterations": cert.iterations,
            "converged_reason": cert.converged_reason,
            "criticality_residual": cert.criticality_residual,
        }
        if self.report is not None:
            rec["relative_error"] = self.report.relative_error
            rec["success"] = self.report.success
            rec["recovery_objective"] = self.report.objective
        return rec


def _instance(
    cfg: ExperimentConfig, rng: np.random.Generator
) -> tuple[FractionalProblem, np.ndarray | None]:
    """An sfda or l1l2 instance drawn from ``rng``, with the l1l2 ground truth."""
    n = cfg.dimension
    if cfg.experiment == "sfda":
        return gen_sfda(SfdaRecipe(n=n, p1=cfg.p1, p2=cfg.p2, r=cfg.r, seed=rng)), None
    sensing = gen_dct_matrix(cfg.m, n, cfg.dct_f, rng)
    truth = gen_ground_truth(n, cfg.k, rng)
    problem = L1L2PenaltyProblem(
        sensing=sensing,
        observation=sensing @ truth,
        lam=cfg.lam,
        lower=cfg.box_lower,
        upper=cfg.box_upper,
    )
    return problem, truth


def _start(problem: FractionalProblem) -> np.ndarray:
    """The canonical start point of the problem's family."""
    if isinstance(problem, SgepProblem):
        return sgep_default_init(problem.dim, problem.sparsity)
    return penalty_start_point(problem)


def _build_trial(
    cfg: ExperimentConfig, trial: int
) -> tuple[FractionalProblem, np.ndarray, np.ndarray | None]:
    """This trial's problem instance, start point and, for l1l2, ground truth."""
    problem, truth = _instance(cfg, philox_generator(cfg.master_seed, trial))
    return problem, _start(problem), truth


def _solve_trial(
    cfg: ExperimentConfig,
    trial: int,
    solver: str,
    instance: tuple[FractionalProblem, np.ndarray, np.ndarray | None],
) -> TrialResult:
    problem, x0, truth = instance
    solve = run_pgsa if solver == "pgsa" else run_pgsa_ls
    run_cfg = solver_run_config(cfg, solver)
    start = time.perf_counter()
    trace = solve(problem, x0, run_cfg)
    elapsed = time.perf_counter() - start
    report = None
    if truth is not None:
        report = recovery_report(trace.final_x, truth)
    return TrialResult(
        experiment=cfg.experiment,
        solver=solver,
        trial=trial,
        trace=trace,
        wall_time_s=elapsed,
        report=report,
    )


def run_trial(cfg: ExperimentConfig, trial: int) -> list[TrialResult]:
    """Run every configured solver on this trial's problem instance."""
    instance = _build_trial(cfg, trial)
    return [_solve_trial(cfg, trial, solver, instance) for solver in cfg.solver_names()]


@dataclass
class ExperimentOutcome:
    """Aggregated benchmark results plus everything needed to re-audit them."""

    rows: list[dict[str, Any]]
    records: list[dict[str, Any]]
    results: list[TrialResult]
    failures: list[dict[str, Any]]


def _openblas() -> tuple[ctypes.CDLL, Any, Any] | None:
    """numpy's bundled OpenBLAS and its thread-count getter and setter, or None when not found."""
    for lib in (Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"):
        handle = ctypes.CDLL(str(lib))
        for prefix, suffix in (("scipy_openblas_", "64_"), ("openblas_", "")):
            getter = getattr(handle, f"{prefix}get_num_threads{suffix}", None)
            setter = getattr(handle, f"{prefix}set_num_threads{suffix}", None)
            if getter is not None and setter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None  # the getter returns int
                return handle, getter, setter
    return None


def _pin_blas_to_one_thread() -> None:
    """Limit numpy's bundled OpenBLAS to one thread and stop the server thread that restarts.

    That thread would spin beside the caller for tens of ms; with one thread OpenBLAS starts
    none again unless the count is raised.  Run only while no other thread is inside BLAS.
    """
    if (blas := _openblas()) is not None:
        handle, _, setter = blas
        setter(1)
        getattr(handle, "blas_thread_shutdown_", lambda: 0)()


def _handoff_path(handoff: str, result: TrialResult) -> str:
    return os.path.join(handoff, f"{result.trial}_{result.solver}.npy")


def _failure(cfg: ExperimentConfig, index: int, solver: str, exc: FracoptError) -> dict[str, Any]:
    return {
        "trial": index,
        "solver": solver,
        "master_seed": cfg.master_seed,
        "error": type(exc).__name__,
        "message": str(exc),
    }


def _one_trial(
    cfg: ExperimentConfig, handoff: str | None, index: int
) -> list[TrialResult | dict[str, Any]]:
    """Trial ``index`` in a worker: each solver's result, or its failure record."""
    try:
        instance = _build_trial(cfg, index)
    except FracoptError as exc:
        return [_failure(cfg, index, solver, exc) for solver in cfg.solver_names()]
    outcomes: list[TrialResult | dict[str, Any]] = []
    for solver in cfg.solver_names():
        try:
            result = _solve_trial(cfg, index, solver, instance)
        except FracoptError as exc:
            outcomes.append(_failure(cfg, index, solver, exc))
            continue
        if handoff is not None:
            # The iterates go through a file; only their err_to_final column rides the pipe.
            result.trace.errors_to_final()
            np.save(_handoff_path(handoff, result), result.trace.iterates)
            result.trace.iterates = None
        outcomes.append(result)
    return outcomes


def run_experiment(cfg: ExperimentConfig) -> ExperimentOutcome:
    """Run all trials in worker processes and aggregate deterministically.

    The pool has ``min(threads, trials, usable CPUs)`` workers, each running
    trials one at a time with BLAS pinned to one thread.  Workers are forked
    where the platform allows it, so a caller needs no ``__main__`` guard.

    A package error is recorded in ``failures`` against its (trial, solver)
    pair, with the master seed, and left out of the aggregates: a solver
    error costs only that solver's run, while an instance that cannot be
    built costs every solver of its trial.  Anything else propagates, since
    it means a bug rather than a degenerate instance.
    """
    # Imported here so that importing fracopt stays cheap.
    import multiprocessing
    from concurrent.futures.process import ProcessPoolExecutor

    if hasattr(os, "sched_getaffinity"):
        usable = len(os.sched_getaffinity(0))
    else:
        usable = os.cpu_count() or 1
    workers = max(1, min(cfg.threads or usable, cfg.trials, usable))
    fork = "fork" if "fork" in multiprocessing.get_all_start_methods() else None
    results: list[TrialResult] = []
    failures: list[dict[str, Any]] = []
    traced = tempfile.TemporaryDirectory() if cfg.write_traces else contextlib.nullcontext()
    with traced as handoff, ProcessPoolExecutor(
        max_workers=workers,
        mp_context=multiprocessing.get_context(fork),
        initializer=_pin_blas_to_one_thread,
    ) as pool:
        trials = pool.map(functools.partial(_one_trial, cfg, handoff), range(cfg.trials))
        for outcome in itertools.chain.from_iterable(trials):
            if isinstance(outcome, dict):
                failures.append(outcome)
                continue
            if handoff is not None:
                path = _handoff_path(handoff, outcome)
                outcome.trace.iterates = np.load(path, mmap_mode="r")
                os.unlink(path)
            results.append(outcome)

    solvers = cfg.solver_names() if cfg.trials else ()
    rows = [aggregate_row(cfg, solver, results, failures) for solver in solvers]
    records = [result.record() for result in results]
    return ExperimentOutcome(rows=rows, records=records, results=results, failures=failures)


def aggregate_row(
    cfg: ExperimentConfig,
    solver: str,
    results: list[TrialResult],
    failures: list[dict[str, Any]],
) -> dict[str, Any]:
    """One row per solver over its completed trials; an aggregate without samples is empty."""
    mine = [res for res in results if res.solver == solver]
    failed = sum(1 for fail in failures if fail["solver"] == solver)
    row: dict[str, Any] = dict.fromkeys(RESULT_COLUMNS, "")
    row.update(experiment=cfg.experiment, solver=solver, trials=len(mine), failed=failed)
    if not mine:
        return row
    row["mean_time_s"] = float(np.mean([res.wall_time_s for res in mine]))
    row["mean_iterations"] = float(np.mean([res.trace.certificate.iterations for res in mine]))
    if cfg.experiment == "l1l2":
        successes = [res.report for res in mine if res.report.success]
        row["success_rate"] = len(successes) / len(mine)
        if successes:
            row["mean_objective"] = float(np.mean([rep.objective for rep in successes]))
    else:
        row["mean_objective"] = float(
            np.mean([res.trace.certificate.objective for res in mine])
        )
    return row
