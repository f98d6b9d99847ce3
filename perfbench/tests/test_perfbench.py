"""The benchmark's own checks: proxy transparency, failure accounting,
protocol equivalence and repeatable fingerprints, on small instances."""

from __future__ import annotations

import numpy as np
import pytest

from fracopt import (
    ConvergenceError,
    ExperimentConfig,
    L1L2PenaltyProblem,
    SfdaRecipe,
    SgepProblem,
    gen_dct_matrix,
    gen_ground_truth,
    gen_sfda,
    penalty_start_point,
    philox_generator,
    run_pgsa,
    run_pgsa_ls,
    sgep_default_init,
    solver_run_config,
)

import run
import workloads
from tracing import CountingProblem, Tracer
from workloads import (
    BenchTracedWorkload,
    Instance,
    RunRecord,
    SfdaWorkload,
    closed_loop,
    is_correct,
    operations,
)

SMALL = {
    "sfda": dict(n=50, p1=60, p2=60, r=5),
    "l1l2": dict(n=128, m=32, k=4),
}


def small_sfda(seed=0):
    recipe = SfdaRecipe(seed=philox_generator(seed, 0), **SMALL["sfda"])
    return gen_sfda(recipe), sgep_default_init(recipe.n, recipe.r)


def small_l1l2(seed=0):
    rng = philox_generator(seed, 0)
    n = SMALL["l1l2"]["n"]
    sensing = gen_dct_matrix(SMALL["l1l2"]["m"], n, 1.0, rng)
    truth = gen_ground_truth(n, SMALL["l1l2"]["k"], rng)
    problem = L1L2PenaltyProblem(
        sensing=sensing, observation=sensing @ truth, lam=8e-5, lower=-1.0, upper=1.0
    )
    return problem, penalty_start_point(problem)


class SmallSfda(SfdaWorkload):
    def __init__(self, seed, work_dir):
        super().__init__(seed, work_dir)
        self.cfg = ExperimentConfig(experiment="sfda", master_seed=seed, **SMALL["sfda"])


class NanProx(SgepProblem):
    def prox_f(self, alpha, z):
        return np.full_like(z, np.nan)


class FirstTrialBroken(SmallSfda):
    """Trial 0 gets a problem whose prox returns NaN; later trials are sound."""

    def build(self, trial, tracer):
        inst = super().build(trial, tracer)
        if trial == 0:
            p = inst.problem
            broken = NanProx(matrix_a=p.matrix_a, matrix_b=p.matrix_b, sparsity=p.sparsity)
            return Instance(broken, inst.x0, inst.recovered)
        return inst


class FirstTrialDegenerate(SmallSfda):
    """Building trial 0 raises ConvergenceError, as the power iteration does."""

    def build(self, trial, tracer):
        if trial == 0:
            raise ConvergenceError("power iteration did not converge")
        return super().build(trial, tracer)


class SmallBenchTraced(BenchTracedWorkload):
    def config(self, index):
        cfg = super().config(index)
        for key, value in SMALL["l1l2"].items():
            setattr(cfg, key, value)
        return cfg


@pytest.mark.parametrize("family", ["sfda", "l1l2"])
@pytest.mark.parametrize("solver", ["pgsa", "pgsa_ml", "pgsa_nl"])
def test_counting_proxy_changes_no_trace_bit(family, solver):
    problem, x0 = small_sfda() if family == "sfda" else small_l1l2()
    cfg = solver_run_config(ExperimentConfig(experiment=family, **SMALL[family]), solver)
    solve = run_pgsa if solver == "pgsa" else run_pgsa_ls
    plain = solve(problem, x0, cfg)
    proxy = CountingProblem(problem)
    counted = solve(proxy, x0, cfg)
    for name in ("objective", "alpha", "step_norm", "final_x"):
        a, b = getattr(plain, name), getattr(counted, name)
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes(), name
    assert plain.certificate == counted.certificate
    # Every prox call is one trial step, so accepted steps plus backtracks.
    backtracks = int(counted.backtracks.sum()) if counted.backtracks is not None else 0
    assert proxy.calls["prox_f"] == counted.iterations + backtracks
    assert proxy.calls["critical_residual"] == 1


def test_failed_run_is_counted_and_the_workload_goes_on(tmp_path):
    workload = FirstTrialBroken(seed=3, work_dir=tmp_path)
    loop = closed_loop(workload, seconds=0.0, tracer=Tracer(enabled=False), min_steps=2)
    first = [r for r in loop.records if r.step == 0]
    second = [r for r in loop.records if r.step == 1]
    assert [r.solver for r in first] == [r.solver for r in second] == ["pgsa", "pgsa_ml", "pgsa_nl"]
    assert all(not r.ok and r.error.startswith("NumericsError") for r in first)
    assert all(r.ok for r in second)
    metrics, _ = run.end_to_end(loop, workload.trials_per_step, setup_s=1.0)
    assert metrics["ok_ratio"][0] == 0.5
    # A package error inside the solve is a wrong answer, not a rejected draw.
    assert not any(r.rejected for r in first)
    assert not is_correct(loop.records, workload.issues)

    traced = Tracer(enabled=True)
    loop = closed_loop(workload, seconds=0.0, tracer=traced, min_steps=2)
    assert not workload.issues
    layers = run.per_layer(loop, traced, workload.trials_per_step)
    assert layers["fingerprint.callback_calls"][0] > 0


def test_only_a_convergence_error_while_building_is_a_rejected_draw(tmp_path):
    workload = FirstTrialDegenerate(seed=3, work_dir=tmp_path)
    loop = closed_loop(workload, seconds=0.0, tracer=Tracer(enabled=False), min_steps=2)
    first = [r for r in loop.records if r.step == 0]
    assert all(not r.ok and r.rejected for r in first)
    # A rejected draw makes no run: it is neither attempted nor failed, but
    # the runs it could not make still lower ok_ratio.
    assert operations(loop.records) == [r for r in loop.records if r.step == 1]
    assert is_correct(loop.records, workload.issues)
    metrics, _ = run.end_to_end(loop, workload.trials_per_step, setup_s=1.0)
    assert metrics["ok_ratio"][0] == 0.5

    assert not is_correct(loop.records + [RunRecord(2, 2, "pgsa", error="DomainError")], [])
    assert not is_correct(loop.records, ["a failed check"])

    # run_experiment builds trial 0, so the rejection is not its behaviour.
    workload.verify(loop.records)
    assert len(workload.issues) == 1 and "trial 0" in workload.issues[0]


def test_protocol_check_accepts_a_draw_run_experiment_rejects_too(tmp_path, monkeypatch):
    workload = FirstTrialDegenerate(seed=3, work_dir=tmp_path)
    loop = closed_loop(workload, seconds=0.0, tracer=Tracer(enabled=False), min_steps=2)
    real_run_trial = workloads.run_trial

    def run_trial(cfg, trial):
        if trial == 0:
            raise ConvergenceError("power iteration did not converge")
        return real_run_trial(cfg, trial)

    monkeypatch.setattr(workloads, "run_trial", run_trial)
    workload.verify(loop.records)
    assert workload.issues == []


def test_direct_workload_matches_run_experiment(tmp_path):
    workload = SmallSfda(seed=5, work_dir=tmp_path)
    loop = closed_loop(workload, seconds=0.0, tracer=Tracer(enabled=False), min_steps=2)
    workload.verify(loop.records)
    assert workload.issues == []

    loop.records[0].objective = np.nextafter(loop.records[0].objective, np.inf)
    workload.verify(loop.records)
    assert len(workload.issues) == 1


def test_traced_run_repeats_the_untraced_work_and_fingerprint(tmp_path):
    prints = []
    for _ in range(2):
        workload = SmallSfda(seed=7, work_dir=tmp_path)
        tracer = Tracer(enabled=True)
        loop = closed_loop(workload, seconds=0.0, tracer=tracer, min_steps=2)
        assert workload.issues == []
        assert all(r.ok for r in loop.records)
        prints.append(run.fingerprint(loop.records, traced=True))
        trial_ids = {s["trial"] for s in tracer.spans if s["name"] != "trial"}
        assert trial_ids == {0, 1}
    assert prints[0] == prints[1]
    assert all(value > 0 for value in prints[0].values())


def test_bench_traced_round_trips_replays_and_audits_clean(tmp_path):
    workload = SmallBenchTraced(seed=2, work_dir=tmp_path, threads=2)
    tracer = Tracer(enabled=True)
    loop = closed_loop(workload, seconds=0.0, tracer=tracer, min_steps=1)
    assert workload.issues == []
    assert len(loop.records) == 2 and all(r.ok for r in loop.records)
    assert all(r.callbacks is not None and r.audit_checks > 0 for r in loop.records)
    layers = run.per_layer(loop, tracer, workload.trials_per_step)
    for name in (
        "io.trace_mb",
        "experiments.iterates_mb",
        "l1l2.gen_s",
        "l1l2.init_s",
        "linesearch.ml.solve_s",
        "problem.prox_f.calls",
    ):
        assert layers[name][0] > 0, name
    assert layers["sgep.gen_s"][0] == 0.0
    assert layers["pgsa.solve_s"][0] == 0.0
    assert len(tracer.named("replay")) == 2


def test_bench_traced_flags_a_replay_that_differs(tmp_path):
    workload = SmallBenchTraced(seed=2, work_dir=tmp_path, threads=2)
    record = RunRecord(0, 0, "pgsa_ml", objective=1.0, iterations=1)
    workload.replay(workload.config(0), 0, record, Tracer(enabled=True))
    assert len(workload.issues) == 1 and "replay differs" in workload.issues[0]


@pytest.mark.parametrize("samples,expected", [(0, 50), (12, 50), (20, 50), (40, 75), (105, 90)])
def test_tail_percentile_leaves_ten_samples_beyond(samples, expected):
    assert run.tail_percentile(samples) == expected
