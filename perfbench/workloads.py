"""The benchmark's two workloads and the per-run records they produce.

``sfda`` rebuilds the ``fracopt bench`` protocol from public pieces, so
generation, construction, initializer, solve and audit are separate calls the
benchmark can time.  ``bench_traced`` drives ``run_experiment`` with traces
on, then writes, reloads and re-audits them as ``fracopt bench --trace``
followed by ``fracopt verify`` would; its traced step also rebuilds each
trial's l1l2 instance from public pieces and replays the solve through the
counting proxy.  Both are closed loops: the caller waits for each call
before making the next.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from fracopt import (
    ConvergenceError,
    ExperimentConfig,
    FracoptError,
    FractionalProblem,
    L1L2PenaltyProblem,
    SfdaRecipe,
    SgepProblem,
    SolverTrace,
    audit_trace,
    fit_linear_rate,
    fit_rate_from_errors,
    gen_dct_matrix,
    gen_ground_truth,
    gen_sfda_dataset,
    penalty_start_point,
    philox_generator,
    run_experiment,
    run_trial,
    run_pgsa,
    run_pgsa_ls,
    scatter_matrices,
    sgep_default_init,
    solver_run_config,
)
from fracopt.experiments import TrialResult
from fracopt.io import load_trace_csv, write_jsonl, write_result_rows, write_trace_csv

from tracing import CALLBACKS, CountingProblem, Tracer

SOLVE_LAYER = {"pgsa": "pgsa", "pgsa_ml": "linesearch.ml", "pgsa_nl": "linesearch.nl"}
# Every run completes at least this many loop steps, and the deterministic
# fingerprint counts the work of exactly these, so it repeats across machines.
FINGERPRINT_STEPS = 2


@dataclass
class RunRecord:
    """One solver run: the protocol fields plus what the benchmark measured.

    ``step`` is the loop step that made the run: the trial index for
    ``sfda``, the ``run_experiment`` call for ``bench_traced``, whose
    ``trial`` is the index within that call.  ``callbacks`` maps each
    callback to (calls, seconds) in traced runs.  ``rejected`` marks a run
    that was never made because its instance could not be built: the power
    iteration that estimates ``L`` or ``M`` raised ConvergenceError.  Such a
    run is no operation of the benchmark, so it is neither attempted nor
    failed, but it still lowers ``ok_ratio``.  Every other failure makes the
    result incorrect.
    """

    step: int
    trial: int
    solver: str
    ok: bool = False
    error: str = ""
    solve_s: float = math.nan
    objective: float = math.nan
    iterations: int = 0
    converged_reason: str = ""
    backtracks: int = 0
    audit_checks: int = 0
    recovered: bool = False
    callbacks: dict[str, tuple[int, float]] | None = None
    rejected: bool = False

    def protocol_fields(self) -> tuple[Any, ...]:
        return (self.solver, self.objective, self.iterations, self.converged_reason)

    def work(self) -> tuple[Any, ...]:
        return self.protocol_fields() + (self.backtracks, self.audit_checks, self.ok)


def operations(records: list[RunRecord]) -> list[RunRecord]:
    """The runs that were made: every record but those of rejected draws."""
    return [r for r in records if not r.rejected]


def is_correct(records: list[RunRecord], issues: list[str]) -> bool:
    """Every check passed, and every run that was made passed."""
    return not issues and all(r.ok for r in operations(records))


def _error(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _take_trace(record: RunRecord, trace: SolverTrace) -> None:
    cert = trace.certificate
    record.objective = cert.objective
    record.iterations = cert.iterations
    record.converged_reason = cert.converged_reason
    record.backtracks = int(trace.backtracks.sum()) if trace.backtracks is not None else 0


def _judge(record: RunRecord, violations: int) -> None:
    """A run fails on an audit violation or a non-finite objective."""
    record.ok = violations == 0 and math.isfinite(record.objective)
    if violations:
        record.error = f"{violations} audit violations"
    elif not record.ok:
        record.error = f"final objective {record.objective}"


def timed_solve(
    problem: FractionalProblem,
    x0: np.ndarray,
    solver: str,
    cfg: ExperimentConfig,
    record: RunRecord,
    tracer: Tracer,
    counting: bool,
) -> SolverTrace:
    """One solver call, timed into ``record``; counted through the proxy if asked.

    The solve span carries the iterations, backtracks and callback totals, from
    which the per-layer metrics are computed.
    """
    target = CountingProblem(problem) if counting else problem
    solve = run_pgsa if solver == "pgsa" else run_pgsa_ls
    with tracer.span(SOLVE_LAYER[solver] + ".solve") as span:
        start = time.perf_counter()
        trace = solve(target, x0, solver_run_config(cfg, solver))
        record.solve_s = time.perf_counter() - start
    _take_trace(record, trace)
    if counting:
        record.callbacks = {name: (target.calls[name], target.seconds[name]) for name in CALLBACKS}
    span.update(iterations=record.iterations, backtracks=record.backtracks, callbacks=record.callbacks)
    return trace


def solve_and_audit(
    problem: FractionalProblem,
    x0: np.ndarray,
    solver: str,
    cfg: ExperimentConfig,
    step: int,
    tracer: Tracer,
    counting: bool,
    recovered: Callable[[np.ndarray], bool],
) -> RunRecord:
    """Solve with one solver, audit the trace, and score the final point."""
    record = RunRecord(step=step, trial=step, solver=solver)
    try:
        trace = timed_solve(problem, x0, solver, cfg, record, tracer, counting)
        with tracer.span("oracle.audit") as span:
            report = audit_trace(trace, problem)
    except FracoptError as exc:
        record.error = _error(exc)
        return record
    span["checks"] = record.audit_checks = report.checks_run
    record.recovered = recovered(trace.final_x)
    _judge(record, len(report.violations))
    return record


@dataclass
class Instance:
    problem: FractionalProblem
    x0: np.ndarray
    recovered: Callable[[np.ndarray], bool]


def build_l1l2(
    cfg: ExperimentConfig, trial: int, tracer: Tracer
) -> tuple[L1L2PenaltyProblem, np.ndarray]:
    """Trial ``trial`` of an l1l2 experiment, built as ``run_trial`` builds it."""
    n = cfg.dimension
    rng = philox_generator(cfg.master_seed, trial)
    with tracer.span("l1l2.gen"):
        sensing = gen_dct_matrix(cfg.m, n, cfg.dct_f, rng)
        truth = gen_ground_truth(n, cfg.k, rng)
    with tracer.span("l1l2.construct"):
        problem = L1L2PenaltyProblem(
            sensing=sensing,
            observation=sensing @ truth,
            lam=cfg.lam,
            lower=np.full(n, cfg.box_lower),
            upper=np.full(n, cfg.box_upper),
        )
    with tracer.span("l1l2.init"):
        x0 = penalty_start_point(problem)
    return problem, x0


class Workload:
    """One closed-loop workload; ``step`` runs one trial or one call."""

    trials_per_step = 1

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.work_dir = work_dir
        self.issues: list[str] = []

    def step(self, index: int, tracer: Tracer, counting: bool) -> list[RunRecord]:
        raise NotImplementedError

    def verify(self, records: list[RunRecord]) -> None:
        """Checks that need the whole run; failures go to ``issues``."""


class SfdaWorkload(Workload):
    """Trial ``t`` draws from ``philox_generator(seed, t)``, as ``run_experiment`` does,
    and runs every solver on its instance."""

    def __init__(self, seed: int, work_dir: Path):
        super().__init__(seed, work_dir)
        self.cfg = ExperimentConfig(experiment="sfda", master_seed=seed)

    def build(self, trial: int, tracer: Tracer) -> Instance:
        cfg = self.cfg
        n = cfg.dimension
        rng = philox_generator(cfg.master_seed, trial)
        recipe = SfdaRecipe(n=n, p1=cfg.p1, p2=cfg.p2, r=cfg.r, seed=rng)
        with tracer.span("sgep.gen"):
            class1, class2 = gen_sfda_dataset(recipe)
        with tracer.span("sgep.construct"):
            between, within = scatter_matrices(class1, class2)
            within = within + recipe.within_ridge * np.eye(n)
            problem = SgepProblem(matrix_a=between, matrix_b=within, sparsity=cfg.r)
        x0 = sgep_default_init(n, cfg.r)
        shifted = np.flatnonzero(recipe.class2_mean())
        # Recovery here means the final support keeps every mean-shifted
        # coordinate, the planted signal of the discriminant instance.
        return Instance(problem, x0, lambda x: bool(np.all(x[shifted] != 0.0)))

    def step(self, index: int, tracer: Tracer, counting: bool) -> list[RunRecord]:
        solvers = self.cfg.solver_names()
        try:
            inst = self.build(index, tracer)
        except FracoptError as exc:
            rejected = isinstance(exc, ConvergenceError)
            return [
                RunRecord(index, index, s, error=_error(exc), rejected=rejected)
                for s in solvers
            ]
        return [
            solve_and_audit(
                inst.problem, inst.x0, solver, self.cfg, index, tracer, counting, inst.recovered
            )
            for solver in solvers
        ]

    def verify(self, records: list[RunRecord]) -> None:
        """The first trials must reproduce ``run_experiment``'s per-run records,
        which are ``run_trial(cfg, t)``'s records for trial ``t``.  A rejected
        draw must be one that ``run_trial`` cannot build either."""
        for trial in range(FINGERPRINT_STEPS):
            mine = [rec for rec in records if rec.step == trial]
            try:
                results = run_trial(self.cfg, trial)
            except ConvergenceError:
                if not all(rec.rejected for rec in mine):
                    self.issues.append(f"trial {trial}: run_experiment cannot build it, the benchmark did")
                continue
            expected = [
                (rec["solver"], rec["objective"], rec["iterations"], rec["converged_reason"])
                for rec in (res.record() for res in results)
            ]
            got = [rec.protocol_fields() for rec in mine]
            if got != expected:
                self.issues.append(f"trial {trial} differs from run_experiment: {got} != {expected}")


def _round_trips(trace: SolverTrace, loaded: SolverTrace, errors: np.ndarray | None) -> bool:
    """The reloaded trace must carry every recorded number bit for bit."""
    same = all(
        np.array_equal(getattr(trace, name), getattr(loaded, name))
        for name in ("objective", "g_value", "alpha", "step_norm", "backtracks")
    )
    return same and errors is not None and np.array_equal(errors, trace.errors_to_final())


def fails_to_build(cfg: ExperimentConfig, trial: int) -> bool:
    """Whether building this l1l2 trial from public pieces raises ConvergenceError."""
    try:
        build_l1l2(cfg, trial, Tracer(enabled=False))
    except ConvergenceError:
        return True
    return False


class BenchTracedWorkload(Workload):
    """``fracopt bench --trace`` then ``fracopt verify``, in process.

    Each step is one ``run_experiment`` call of ``nproc`` traced ``pgsa_ml``
    trials on ``nproc`` threads.  Call ``i`` keys its trials with a master
    seed drawn from ``philox_generator(seed, i)``, so every call solves new
    instances.  A trial that ``run_experiment`` lists as failed counts as
    a rejected draw only if it failed with ConvergenceError and its instance
    cannot be built from public pieces either.

    In a counting step, each trial is then replayed outside the worker pool:
    its instance is rebuilt with the public l1l2 calls and solved through the
    counting proxy.  The replay gives the l1l2 layer times, the callback
    counts and the uncontended solver times, and it must reproduce the
    record ``run_experiment`` reported for the trial.
    """

    solver = "pgsa_ml"

    def __init__(self, seed: int, work_dir: Path, threads: int):
        super().__init__(seed, work_dir)
        self.trials_per_step = threads

    def config(self, index: int) -> ExperimentConfig:
        master = int(philox_generator(self.seed, index).integers(2**62))
        return ExperimentConfig(
            experiment="l1l2",
            solver=self.solver,
            trials=self.trials_per_step,
            master_seed=master,
            threads=self.trials_per_step,
            write_traces=True,
        )

    def step(self, index: int, tracer: Tracer, counting: bool) -> list[RunRecord]:
        cfg = self.config(index)
        trace_dir = self.work_dir / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        with tracer.span("experiments.run") as span:
            outcome = run_experiment(cfg)
        span["solve_s"] = [res.wall_time_s for res in outcome.results]
        span["iterates_bytes"] = sum(res.trace.iterates.nbytes for res in outcome.results)
        with tracer.span("io.write_results"):
            write_result_rows(self.work_dir / "results.csv", outcome.rows)
            write_jsonl(self.work_dir / "runs.jsonl", outcome.records)

        records = [
            RunRecord(
                index,
                fail["trial"],
                self.solver,
                error=f"{fail['error']}: {fail['message']}",
                rejected=fail["error"] == "ConvergenceError" and fails_to_build(cfg, fail["trial"]),
            )
            for fail in outcome.failures
        ]
        for res in outcome.results:
            record = RunRecord(index, res.trial, res.solver, solve_s=res.wall_time_s)
            _take_trace(record, res.trace)
            try:
                self.reload_and_audit(index, res, record, tracer)
            except FracoptError as exc:
                record.error = _error(exc)
            if counting:
                self.replay(cfg, index, record, tracer)
            records.append(record)
        return records

    def reload_and_audit(
        self, index: int, res: TrialResult, record: RunRecord, tracer: Tracer
    ) -> None:
        """Write the trace, read it back and audit it as ``fracopt verify`` would."""
        path = self.work_dir / "traces" / f"trace_{res.solver}_{res.trial}.csv"
        with tracer.span("io.write_trace") as span:
            write_trace_csv(path, res.trace)
        span["bytes"] = path.stat().st_size
        with tracer.span("io.load_trace"):
            loaded, errors = load_trace_csv(path)
        with tracer.span("oracle.audit") as span:
            # A reloaded trace has no params, so the run's mode is explicit.
            report = audit_trace(loaded, mode=res.solver)
        span["checks"] = record.audit_checks = report.checks_run
        with tracer.span("oracle.rate_fit"):
            fit = fit_linear_rate(res.trace)
        if not _round_trips(res.trace, loaded, errors) or fit != fit_rate_from_errors(errors[:-1]):
            self.issues.append(f"call {index} trial {res.trial}: reloaded trace differs")
        record.recovered = res.report.success
        _judge(record, len(report.violations))

    def replay(self, cfg: ExperimentConfig, index: int, record: RunRecord, tracer: Tracer) -> None:
        """Rebuild and re-solve the trial through the proxy; keep its callback counts."""
        replayed = RunRecord(index, record.trial, record.solver)
        try:
            with tracer.span("replay"):
                problem, x0 = build_l1l2(cfg, record.trial, tracer)
                timed_solve(problem, x0, record.solver, cfg, replayed, tracer, True)
        except FracoptError as exc:
            self.issues.append(f"call {index} trial {record.trial}: replay raised {_error(exc)}")
            return
        if replayed.protocol_fields() + (replayed.backtracks,) != record.protocol_fields() + (
            record.backtracks,
        ):
            self.issues.append(
                f"call {index} trial {record.trial}: replay differs from run_experiment"
            )
        record.callbacks = replayed.callbacks


@dataclass
class LoopResult:
    records: list[RunRecord]
    steps: int
    wall_s: float
    overhead_ratio: float


def closed_loop(
    workload: Workload, seconds: float, tracer: Tracer, min_steps: int = FINGERPRINT_STEPS
) -> LoopResult:
    """Run steps back to back until ``seconds`` have passed and ``min_steps`` are done.

    With an enabled tracer each step runs twice, untraced and then traced with
    counted callbacks; the runs must agree exactly, and the ratio of their
    times, leaving out replays, is the tracing overhead.  Returned records are
    the traced ones.
    """
    records: list[RunRecord] = []
    plain_s = traced_s = 0.0
    start = time.perf_counter()
    deadline = start + seconds
    index = 0
    while index < min_steps or time.perf_counter() < deadline:
        if tracer.enabled:
            began = time.perf_counter()
            plain = workload.step(index, Tracer(enabled=False), counting=False)
            plain_s += time.perf_counter() - began
        first_span = len(tracer.spans)
        began = time.perf_counter()
        with tracer.span("trial", trial=index):
            got = workload.step(index, tracer, counting=tracer.enabled)
        traced_s += time.perf_counter() - began
        traced_s -= sum(
            s["end"] - s["start"] for s in tracer.spans[first_span:] if s["name"] == "replay"
        )
        if tracer.enabled and [r.work() for r in plain] != [r.work() for r in got]:
            workload.issues.append(f"step {index}: traced run differs from untraced run")
        records.extend(got)
        index += 1
    wall = time.perf_counter() - start
    overhead = traced_s / plain_s if tracer.enabled else 1.0
    return LoopResult(records, index, wall, overhead)
