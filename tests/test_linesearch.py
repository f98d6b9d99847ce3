"""Line-search solver: spectral seeds, backtracking, windows, floors, caps."""

from __future__ import annotations

import math

import numpy as np
import pytest

from fracopt import (
    L1L2PenaltyProblem,
    LineSearchConfig,
    PgsaConfig,
    SfdaRecipe,
    SgepProblem,
    audit_trace,
    gen_sfda,
    run_pgsa,
    run_pgsa_ls,
    sgep_default_init,
)
from fracopt.exceptions import DimensionMismatchError, DomainError, InvalidConfigError
from fracopt.pgsa import bb_initial_step
from fracopt.rand import philox_generator


def diag_pair_problem(r: int = 2) -> SgepProblem:
    return SgepProblem(matrix_a=np.diag([1.0, 2.0]), matrix_b=np.diag([2.0, 1.0]), sparsity=r)


def one_d_penalty(observation: float, lam: float) -> L1L2PenaltyProblem:
    return L1L2PenaltyProblem(
        sensing=np.array([[1.0]]),
        observation=np.array([observation]),
        lam=lam,
        lower=np.array([-1.0]),
        upper=np.array([1.0]),
    )


def test_bb_initial_step_plain_ratio():
    alpha = bb_initial_step(np.array([1.0, 0.0]), np.array([2.0, 0.0]), 0.1, 10.0)
    assert alpha == 0.5


def test_bb_initial_step_clamped_to_upper():
    alpha = bb_initial_step(np.array([1.0, 0.0]), np.array([0.01, 0.0]), 0.1, 10.0)
    assert alpha == 10.0


def test_bb_initial_step_vanishing_inner_product():
    alpha = bb_initial_step(np.array([1.0, 0.0]), np.array([0.0, 3.0]), 0.1, 10.0)
    assert alpha == 10.0


def test_line_search_step_accepts_immediately_below_guarantee():
    problem = one_d_penalty(observation=0.3, lam=0.5)
    x = np.array([0.6])
    a = 1e-3
    guaranteed = 1.0 / (a * problem.g_sup_bound + problem.lipschitz_grad_h)
    seed = 0.5 * guaranteed
    cfg = LineSearchConfig(a=a, N=0, alpha_lower=seed, alpha0=seed, max_iter=1)
    trace = run_pgsa_ls(problem, x, cfg)
    assert trace.alpha[0] == seed
    assert trace.backtracks[0] == 0
    assert trace.final_x.shape == (1,)


def test_line_search_step_backtracks_from_huge_seed():
    problem = one_d_penalty(observation=0.3, lam=0.5)
    x = np.array([0.6])
    ext_value = (0.5 * 0.6 + 0.5 * (0.6 - 0.3) ** 2) / 0.6
    cfg = LineSearchConfig(a=1e-3, eta=0.5, N=0, alpha0=1e6, max_iter=1)
    trace = run_pgsa_ls(problem, x, cfg)
    x_new, alpha = trace.final_x, trace.alpha[0]
    assert abs(trace.objective[0] - ext_value) <= 1e-15
    assert trace.backtracks[0] > 0
    assert alpha < 1e6
    floor = cfg.eta / (cfg.a * problem.g_sup_bound + problem.lipschitz_grad_h)
    assert alpha >= floor - 1e-12
    accepted = (
        problem.eval_f(x_new) + problem.eval_h(x_new)
    ) / problem.eval_g(x_new) + 0.5 * cfg.a * float(np.linalg.norm(x_new - x)) ** 2
    assert accepted <= ext_value + 1e-12 * (1.0 + abs(ext_value))


def test_line_search_step_rejects_bad_seed_and_start():
    problem = diag_pair_problem()
    with pytest.raises(InvalidConfigError):
        run_pgsa_ls(problem, np.array([1.0, 0.0]), LineSearchConfig(alpha0=0.0, max_iter=1))
    sparse_problem = diag_pair_problem(r=1)
    dense = np.array([1.0, 1.0]) / math.sqrt(2.0)
    with pytest.raises(DomainError):
        cfg = LineSearchConfig(alpha0=0.1, alpha_lower=0.1, max_iter=1)
        run_pgsa_ls(sparse_problem, dense, cfg)


@pytest.mark.parametrize(
    "ends",
    [
        dict(alpha_upper=0.0),
        dict(alpha_lower=2.0, alpha_upper=1.0),
        dict(alpha_lower=-1.0),
        dict(alpha0=0.0),
        dict(alpha0=5.0, alpha_upper=1.0),
        dict(alpha0=0.05, alpha_lower=0.1, alpha_upper=1.0),
        dict(alpha_upper=math.inf),
        dict(alpha_lower=1.0, alpha0=math.inf, alpha_upper=math.inf),
    ],
)
def test_config_rejects_a_bad_set_step_interval(ends):
    with pytest.raises(InvalidConfigError):
        LineSearchConfig(**ends)


def test_config_accepts_a_seed_at_either_set_end():
    LineSearchConfig(alpha_lower=0.1, alpha0=0.1, alpha_upper=1.0)
    LineSearchConfig(alpha_lower=0.1, alpha0=1.0, alpha_upper=1.0)


def test_interval_against_the_default_lower_end_is_checked_per_run():
    # The lower end defaults to 0.99/L, so only the run can compare it with alpha_upper.
    cfg = LineSearchConfig(alpha_upper=1e-9)
    with pytest.raises(InvalidConfigError, match="alpha_lower <= alpha_upper"):
        run_pgsa_ls(diag_pair_problem(), np.array([1.0, 0.0]), cfg)


def test_run_pgsa_ls_critical_start_stops_immediately():
    problem = diag_pair_problem()
    trace = run_pgsa_ls(problem, np.array([0.0, 1.0]), LineSearchConfig())
    assert trace.certificate.iterations == 1
    assert trace.certificate.converged_reason == "step_tol"
    assert np.array_equal(trace.final_x, np.array([0.0, 1.0]))


def test_run_pgsa_ls_monotone_beats_fixed_step_iterations():
    problem = diag_pair_problem()
    x0 = np.array([1.0, 1.0]) / math.sqrt(2.0)
    fixed = run_pgsa(problem, x0, PgsaConfig(step_tol=1e-10, max_iter=5000))
    searched = run_pgsa_ls(
        problem, x0, LineSearchConfig(N=0, step_tol=1e-10, max_iter=5000)
    )
    assert searched.certificate.converged_reason == "step_tol"
    assert abs(searched.certificate.objective - 0.5) <= 1e-12
    assert searched.certificate.iterations < fixed.certificate.iterations


def test_run_pgsa_ls_monotone_window_never_increases():
    recipe = SfdaRecipe(n=120, p1=200, p2=200, r=8, seed=philox_generator(5))
    problem = gen_sfda(recipe)
    trace = run_pgsa_ls(problem, sgep_default_init(120, 8), LineSearchConfig(N=0))
    objective = np.asarray(trace.objective)
    assert np.all(np.diff(objective) <= 1e-12 * (1.0 + np.abs(objective[:-1])))


def test_run_pgsa_ls_nonmonotone_window_maxima_nonincreasing():
    recipe = SfdaRecipe(n=120, p1=200, p2=200, r=8, seed=philox_generator(5))
    problem = gen_sfda(recipe)
    cfg = LineSearchConfig(N=4)
    trace = run_pgsa_ls(problem, sgep_default_init(120, 8), cfg)
    objective = np.asarray(trace.objective)
    maxima = [
        objective[max(0, k - cfg.N) : k + 1].max() for k in range(objective.shape[0])
    ]
    diffs = np.diff(np.asarray(maxima))
    assert np.all(diffs <= 1e-10 * (1.0 + np.abs(np.asarray(maxima[:-1]))))
    assert trace.params["mode"] == "pgsa_nl"
    assert trace.backtracks is not None
    aM_plus_L = cfg.a * problem.g_sup_bound + problem.lipschitz_grad_h
    cap = math.ceil(
        -math.log(trace.params["alpha_upper"] * aM_plus_L) / math.log(cfg.eta) + 1.0
    )
    assert np.all(np.asarray(trace.backtracks) <= cap)


def test_run_pgsa_ls_level_set_confinement():
    recipe = SfdaRecipe(n=80, p1=150, p2=150, r=6, seed=philox_generator(23))
    problem = gen_sfda(recipe)
    trace = run_pgsa_ls(problem, sgep_default_init(80, 6), LineSearchConfig(N=4))
    objective = np.asarray(trace.objective)
    start = objective[0]
    assert np.all(objective <= start + 1e-10 * (1.0 + abs(start)))


def test_run_pgsa_ls_step_floor_holds():
    recipe = SfdaRecipe(n=80, p1=150, p2=150, r=6, seed=philox_generator(29))
    problem = gen_sfda(recipe)
    cfg = LineSearchConfig(N=4)
    trace = run_pgsa_ls(problem, sgep_default_init(80, 6), cfg)
    floor = cfg.eta / (cfg.a * problem.g_sup_bound + problem.lipschitz_grad_h)
    assert np.all(np.asarray(trace.alpha) >= floor - 1e-12)
    report = audit_trace(trace, problem)
    assert report.ok, report.violations[:3]


def test_run_pgsa_ls_validation_errors():
    problem = diag_pair_problem()
    x0 = np.array([1.0, 0.0])
    with pytest.raises(InvalidConfigError):
        run_pgsa_ls(problem, x0, LineSearchConfig(a=0.0))
    with pytest.raises(InvalidConfigError):  # a NaN coefficient would accept every step
        run_pgsa_ls(problem, x0, LineSearchConfig(a=math.nan))
    with pytest.raises(InvalidConfigError):
        run_pgsa_ls(problem, x0, LineSearchConfig(eta=1.0))
    with pytest.raises(InvalidConfigError):
        run_pgsa_ls(problem, x0, LineSearchConfig(N=-1))
    with pytest.raises(InvalidConfigError):
        run_pgsa_ls(problem, x0, LineSearchConfig(alpha_lower=2.0, alpha_upper=1.0))
    with pytest.raises(InvalidConfigError):
        run_pgsa_ls(problem, x0, LineSearchConfig(alpha0=1e9))
    with pytest.raises(DimensionMismatchError):
        run_pgsa_ls(problem, np.array([1.0, 0.0, 0.0]), LineSearchConfig())


def test_run_pgsa_ls_acceptance_recomputed_from_trace():
    recipe = SfdaRecipe(n=60, p1=120, p2=120, r=5, seed=philox_generator(31))
    problem = gen_sfda(recipe)
    cfg = LineSearchConfig(N=4, record_trace=True)
    trace = run_pgsa_ls(problem, sgep_default_init(60, 5), cfg)
    objective = np.asarray(trace.objective)
    for k in range(trace.certificate.iterations):
        window_max = objective[max(0, k - cfg.N) : k + 1].max()
        lhs = objective[k + 1] + 0.5 * cfg.a * trace.step_norm[k] ** 2
        assert lhs <= window_max + 1e-10 * (1.0 + abs(window_max))
