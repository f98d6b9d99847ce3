"""Experiment driver: config parsing, aggregation, worker processes."""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import os
import tempfile

import numpy as np
import pytest

from fracopt import (
    ExperimentConfig,
    SgepProblem,
    LineSearchConfig,
    PgsaConfig,
    config_from_dict,
    run_experiment,
    run_trial,
    solver_run_config,
)
from fracopt import experiments
from fracopt.cli import main
from fracopt.io import save_matrix_csv
from fracopt.exceptions import DegenerateInputError, InvalidConfigError, NumericsError


def small_sfda_config(**extra) -> ExperimentConfig:
    base = dict(
        experiment="sfda", solver="pgsa_ml", trials=2, master_seed=0,
        n=50, p1=60, p2=60, r=5,
    )
    base.update(extra)
    return ExperimentConfig(**base)


def test_config_from_dict_rejects_unknown_keys():
    with pytest.raises(InvalidConfigError) as err:
        config_from_dict({"experiment": "sfda", "verbosity": 2})
    assert "verbosity" in str(err.value)


def test_config_validation():
    with pytest.raises(InvalidConfigError):
        ExperimentConfig(experiment="portfolio")
    with pytest.raises(InvalidConfigError):
        ExperimentConfig(solver="newton")
    with pytest.raises(InvalidConfigError):
        ExperimentConfig(trials=-1)
    with pytest.raises(InvalidConfigError):
        ExperimentConfig(threads=0)
    with pytest.raises(InvalidConfigError, match="need master_seed >= 0, got master_seed = -3"):
        ExperimentConfig(master_seed=-3)
    with pytest.raises(InvalidConfigError, match="unknown experiment"):
        ExperimentConfig(experiment="custom_sgep")
    for sizes in (dict(m=0), dict(k=0), dict(n=10, k=20), dict(dct_f=0.0)):
        with pytest.raises(InvalidConfigError):
            ExperimentConfig(experiment="l1l2", **sizes)


def test_config_defaults_depend_on_experiment():
    sfda = ExperimentConfig(experiment="sfda")
    recovery = ExperimentConfig(experiment="l1l2")
    assert sfda.dimension == 1000
    assert recovery.dimension == 1024
    assert not sfda.stop_is_relative
    assert recovery.stop_is_relative
    assert ExperimentConfig(experiment="sfda", relative_tol=True).stop_is_relative
    assert sfda.solver_names() == ("pgsa", "pgsa_ml", "pgsa_nl")
    assert ExperimentConfig(solver="pgsa").solver_names() == ("pgsa",)


def test_solver_run_config_routing():
    cfg = small_sfda_config(solver="all", step_tol=1e-7, max_iter=123, window=6)
    fixed = solver_run_config(cfg, "pgsa")
    assert isinstance(fixed, PgsaConfig)
    assert fixed.step_tol == 1e-7
    assert fixed.max_iter == 123
    monotone = solver_run_config(cfg, "pgsa_ml")
    assert isinstance(monotone, LineSearchConfig)
    assert monotone.N == 0
    nonmonotone = solver_run_config(cfg, "pgsa_nl")
    assert nonmonotone.N == 6
    assert not nonmonotone.record_trace
    assert solver_run_config(small_sfda_config(write_traces=True), "pgsa_nl").record_trace
    with pytest.raises(InvalidConfigError):
        solver_run_config(cfg, "bisection")


@pytest.mark.parametrize("experiment", experiments.EXPERIMENTS)
@pytest.mark.parametrize("solver", experiments.SOLVERS)
def test_unset_knobs_keep_the_solver_config_defaults(experiment, solver):
    # Each default lives on the solver's config alone; pgsa_ml differs only by N = 0.
    built = solver_run_config(ExperimentConfig(experiment=experiment), solver)
    relative = experiment == "l1l2"
    if solver == "pgsa":
        assert built == PgsaConfig(relative_tol=relative)
    else:
        memory = {"N": 0} if solver == "pgsa_ml" else {}
        assert built == LineSearchConfig(relative_tol=relative, **memory)


# Every solver knob of ExperimentConfig, at a valid value other than its default.
SOLVER_KNOBS = {
    "alpha": 0.01,
    "a": 0.02,
    "eta": 0.3,
    "window": 7,
    "alpha_lower": 1e-3,
    "alpha_upper": 1e3,
    "alpha0": 0.5,
    "step_tol": 1e-9,
    "max_iter": 77,
    "relative_tol": True,
}


@pytest.mark.parametrize("solver", experiments.SOLVERS)
def test_solver_table_matches_the_configs_built_from_it(solver, tmp_path, capsys):
    table = experiments._SOLVER_FIELDS
    assert set().union(*table.values()) == set(SOLVER_KNOBS)
    cfg = small_sfda_config(solver="all")
    base = solver_run_config(cfg, solver)
    reached = set()
    for name, value in SOLVER_KNOBS.items():
        built = solver_run_config(dataclasses.replace(cfg, **{name: value}), solver)
        moved = {
            f.name for f in dataclasses.fields(built) if getattr(built, f.name) != getattr(base, f.name)
        }
        assert bool(moved) == (name in table[solver]), name
        reached |= moved
    # Each parameter of the solver's config is set from the table, except the
    # trace switch and the memory N that makes pgsa_ml monotone.
    fixed = {"record_trace"} | ({"N"} if solver == "pgsa_ml" else set())
    assert reached == {f.name for f in dataclasses.fields(base)} - fixed

    # `fracopt solve` accepts exactly the keys of the solver's entry.
    a_path, b_path, config = tmp_path / "A.csv", tmp_path / "B.csv", tmp_path / "solver.json"
    save_matrix_csv(a_path, np.diag([2.0, 1.0]))
    save_matrix_csv(b_path, np.diag([1.0, 4.0]))
    argv = ["solve", "sgep", "--matrix-a", str(a_path), "--matrix-b", str(b_path), "-r", "1"]
    argv += ["--solver", solver, "--config", str(config)]
    for name, value in SOLVER_KNOBS.items():
        config.write_text(json.dumps({name: value}))
        assert main(argv) == (0 if name in table[solver] else 2), name
    capsys.readouterr()


def test_run_trial_routes_by_solver_name():
    cfg = small_sfda_config(trials=1)
    results = run_trial(cfg, 0)
    assert [r.solver for r in results] == ["pgsa_ml"]
    trace = results[0].trace
    assert trace.params["mode"] == "pgsa_ml"
    assert trace.certificate.converged_reason in ("step_tol", "max_iter")


def test_run_trial_all_solvers_share_the_instance():
    cfg = small_sfda_config(solver="all", trials=1)
    results = run_trial(cfg, 3)
    assert [r.solver for r in results] == ["pgsa", "pgsa_ml", "pgsa_nl"]
    starts = {float(np.asarray(r.trace.objective)[0]) for r in results}
    assert len(starts) == 1  # same problem, same canonical start


def test_records_hold_scores_but_never_wall_time():
    cfg = small_sfda_config()
    outcome = run_experiment(cfg)
    assert len(outcome.records) == 2
    for record in outcome.records:
        assert record["experiment"] == "sfda"
        assert record["solver"] == "pgsa_ml"
        assert "wall_time_s" not in record
        assert "relative_error" not in record
        assert record["criticality_residual"] >= 0.0
    recovery = ExperimentConfig(
        experiment="l1l2", solver="pgsa_ml", trials=1, master_seed=0, n=60, m=20, k=3
    )
    rec = run_experiment(recovery).records[0]
    assert {"relative_error", "success", "recovery_objective"} <= set(rec)


def test_aggregates_are_recomputable_from_records():
    cfg = small_sfda_config(trials=3)
    outcome = run_experiment(cfg)
    assert len(outcome.rows) == 1
    row = outcome.rows[0]
    objectives = [r["objective"] for r in outcome.records]
    iterations = [r["iterations"] for r in outcome.records]
    assert row["mean_objective"] == pytest.approx(float(np.mean(objectives)), rel=1e-15)
    assert row["mean_iterations"] == pytest.approx(float(np.mean(iterations)), rel=1e-15)
    assert row["trials"] == 3
    assert row["failed"] == 0
    assert row["experiment"] == "sfda"
    assert outcome.failures == []


def test_zero_trials_mean_no_rows_and_no_records():
    outcome = run_experiment(small_sfda_config(trials=0))
    assert outcome.rows == []
    assert outcome.records == []
    assert outcome.results == []


def test_thread_count_does_not_change_records():
    serial = run_experiment(small_sfda_config(trials=3, threads=1))
    threaded = run_experiment(small_sfda_config(trials=3, threads=3))
    assert serial.records == threaded.records
    # At paper size OpenBLAS would thread eigvalsh(B) and the dense products,
    # and its results depend on its thread count.
    paper = dict(experiment="sfda", solver="all", trials=2, n=1000, r=50)
    one = run_experiment(ExperimentConfig(threads=1, **paper))
    two = run_experiment(ExperimentConfig(threads=2, **paper))
    assert len(one.records) == 6
    assert one.records == two.records


def _threads_after_a_product():
    a = np.ones((64, 1024))
    (a @ a.T).sum()
    return len(os.listdir("/proc/self/task"))


def test_pinned_worker_runs_one_thread():
    # Setting OpenBLAS's thread count restarts its server thread; the pin must stop it again.
    if not os.path.isdir("/proc/self/task") or experiments._openblas() is None:
        pytest.skip("needs /proc/self/task and numpy's bundled OpenBLAS")
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("needs the fork start method")
    context = multiprocessing.get_context("fork")
    with context.Pool(1, initializer=experiments._pin_blas_to_one_thread) as pool:
        assert pool.apply_async(_threads_after_a_product).get(timeout=60) == 1


def test_aggregate_without_samples_is_empty():
    # Five iterations recover nothing, so there is no success to average.
    cfg = ExperimentConfig(
        experiment="l1l2", solver="pgsa_ml", trials=1, master_seed=0, n=60, m=20, k=3,
        max_iter=5,
    )
    row = run_experiment(cfg).rows[0]
    assert row["success_rate"] == 0.0
    assert row["mean_objective"] == ""


def test_problem_instances_differ_per_trial_but_not_per_call():
    cfg = small_sfda_config()
    first = run_trial(cfg, 0)[0]
    again = run_trial(cfg, 0)[0]
    other = run_trial(cfg, 1)[0]
    assert first.trace.certificate.objective == again.trace.certificate.objective
    assert first.trace.certificate.objective != other.trace.certificate.objective


class NanProx(SgepProblem):
    def prox_f(self, alpha, z):
        return np.full_like(z, np.nan)


@pytest.mark.parametrize("threads", [1, 3])
def test_failures_are_recorded_per_trial_and_solver(monkeypatch, threads):
    # Forked workers inherit these patches; the failure records cross the
    # process boundary back to run_experiment.
    real_solve_trial = experiments._solve_trial

    def solve_trial(cfg, trial, solver, instance):
        if solver == "pgsa_ml":
            problem, x0, truth = instance
            broken = NanProx(
                matrix_a=problem.matrix_a, matrix_b=problem.matrix_b, sparsity=problem.sparsity
            )
            instance = (broken, x0, truth)
        return real_solve_trial(cfg, trial, solver, instance)

    real_build_trial = experiments._build_trial

    def build_trial(cfg, trial):
        if trial == 2:
            raise DegenerateInputError("instance cannot be built")
        return real_build_trial(cfg, trial)

    monkeypatch.setattr(experiments, "_solve_trial", solve_trial)
    monkeypatch.setattr(experiments, "_build_trial", build_trial)
    cfg = small_sfda_config(solver="all", trials=3, master_seed=4, threads=threads)
    outcome = run_experiment(cfg)

    # The NaN prox costs only the pgsa_ml runs; the broken build costs trial 2.
    assert [(r.trial, r.solver) for r in outcome.results] == [
        (0, "pgsa"), (0, "pgsa_nl"), (1, "pgsa"), (1, "pgsa_nl"),
    ]
    assert [(f["trial"], f["solver"], f["error"]) for f in outcome.failures] == [
        (0, "pgsa_ml", "NumericsError"),
        (1, "pgsa_ml", "NumericsError"),
        (2, "pgsa", "DegenerateInputError"),
        (2, "pgsa_ml", "DegenerateInputError"),
        (2, "pgsa_nl", "DegenerateInputError"),
    ]
    assert all(f["master_seed"] == 4 for f in outcome.failures)
    assert {row["solver"]: (row["trials"], row["failed"]) for row in outcome.rows} == {
        "pgsa": (2, 1), "pgsa_ml": (0, 3), "pgsa_nl": (2, 1),
    }
    # run_trial itself still raises when its instance cannot be built.
    with pytest.raises(DegenerateInputError):
        run_trial(cfg, 2)


def _traced_config(experiment: str, **extra) -> ExperimentConfig:
    if experiment == "l1l2":
        return ExperimentConfig(
            experiment="l1l2", solver="all", trials=2, n=60, m=20, k=3, write_traces=True, **extra
        )
    return small_sfda_config(solver="all", write_traces=True, **extra)


@pytest.fixture()
def handoff_root(tmp_path, monkeypatch):
    """The temp location run_experiment puts its iterate hand-off directory in."""
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    return tmp_path


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("experiment", ["l1l2", "sfda"])
def test_traced_iterates_match_an_in_process_run_bitwise(experiment, threads, handoff_root):
    cfg = _traced_config(experiment, threads=threads)
    outcome = run_experiment(cfg)
    assert list(handoff_root.iterdir()) == []
    expected = {
        (res.trial, res.solver): res.trace for trial in range(2) for res in run_trial(cfg, trial)
    }
    assert [(res.trial, res.solver) for res in outcome.results] == list(expected)
    for res in outcome.results:
        iterates, errors = res.trace.iterates, res.trace.errors_to_final()
        want = expected[res.trial, res.solver]
        assert isinstance(iterates, np.memmap) and not iterates.flags.writeable
        assert iterates.shape == want.iterates.shape
        assert iterates.tobytes() == want.iterates.tobytes()
        assert errors.tobytes() == want.errors_to_final().tobytes()
        assert res.trace.errors_to_final() is errors and not errors.flags.writeable


def test_traced_solver_failures_leave_no_handoff_files(monkeypatch, handoff_root):
    real_solve_trial = experiments._solve_trial

    def solve_trial(cfg, trial, solver, instance):
        if solver == "pgsa_ml":
            raise NumericsError("injected")
        return real_solve_trial(cfg, trial, solver, instance)

    monkeypatch.setattr(experiments, "_solve_trial", solve_trial)
    outcome = run_experiment(_traced_config("sfda", threads=2))
    assert list(handoff_root.iterdir()) == []
    assert [(f["trial"], f["solver"]) for f in outcome.failures] == [
        (0, "pgsa_ml"), (1, "pgsa_ml"),
    ]
    assert [(r.trial, r.solver) for r in outcome.results] == [
        (0, "pgsa"), (0, "pgsa_nl"), (1, "pgsa"), (1, "pgsa_nl"),
    ]
    for res in outcome.results:
        assert res.trace.iterates.shape == (res.trace.iterations + 1, 50)


@pytest.mark.parametrize("threads", [1, 2])
def test_traced_worker_bug_propagates_and_leaves_no_handoff_files(
    monkeypatch, handoff_root, threads
):
    # Trial 1's pgsa run has saved its iterates when its pgsa_ml run raises.
    real_solve_trial = experiments._solve_trial

    def solve_trial(cfg, trial, solver, instance):
        if (trial, solver) == (1, "pgsa_ml"):
            raise RuntimeError("injected bug")
        return real_solve_trial(cfg, trial, solver, instance)

    monkeypatch.setattr(experiments, "_solve_trial", solve_trial)
    with pytest.raises(RuntimeError, match="injected bug"):
        run_experiment(_traced_config("sfda", threads=threads))
    assert list(handoff_root.iterdir()) == []
