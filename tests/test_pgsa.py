"""Fixed-step solver: single steps, full runs, decrease and scale invariants."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from conftest import CallCounter

from fracopt import (
    FractionalProblem,
    L1L2PenaltyProblem,
    LineSearchConfig,
    PgsaConfig,
    SfdaRecipe,
    SgepProblem,
    audit_trace,
    gen_dct_matrix,
    gen_ground_truth,
    gen_sfda,
    penalty_start_point,
    run_pgsa,
    run_pgsa_ls,
    sgep_default_init,
)
from fracopt.exceptions import (
    DimensionMismatchError,
    DomainError,
    InsufficientDataError,
    InvalidConfigError,
    LineSearchError,
    NumericsError,
)
from fracopt import pgsa as pgsa_module
from fracopt.pgsa import _resolve
from fracopt.problem import _norm
from fracopt.rand import philox_generator


def diag_pair_problem(r: int = 2) -> SgepProblem:
    return SgepProblem(matrix_a=np.diag([1.0, 2.0]), matrix_b=np.diag([2.0, 1.0]), sparsity=r)


def one_d_penalty(observation: float = 1.0, lam: float = 0.1) -> L1L2PenaltyProblem:
    return L1L2PenaltyProblem(
        sensing=np.array([[1.0]]),
        observation=np.array([observation]),
        lam=lam,
        lower=np.array([-1.0]),
        upper=np.array([1.0]),
    )


def pgsa_step(problem, x: np.ndarray, alpha: float) -> np.ndarray:
    """The point one fixed-step iteration reaches from x."""
    return run_pgsa(problem, x, PgsaConfig(alpha=alpha, max_iter=1)).final_x


def test_pgsa_step_fixed_point_at_critical_point():
    problem = diag_pair_problem()
    x = np.array([0.0, 1.0])
    out = pgsa_step(problem, x, 0.4)
    assert np.array_equal(out, x)


def test_pgsa_step_hand_traced_sgep():
    problem = diag_pair_problem()
    x = np.array([1.0, 0.0])
    out = pgsa_step(problem, x, 0.4)
    assert np.allclose(out, x, atol=1e-15)


def test_pgsa_step_hand_traced_penalty():
    problem = one_d_penalty()
    out = pgsa_step(problem, np.array([0.5]), 0.4)
    assert abs(out[0] - 0.8) <= 1e-15


def test_pgsa_step_matches_prox_grid_oracle():
    problem = one_d_penalty()
    x = np.array([0.5])
    alpha = 0.4
    out = pgsa_step(problem, x, alpha)
    ratio_value = 0.35
    anchor = x[0] + alpha * (ratio_value * 1.0) - alpha * (x[0] - 1.0)
    grid = np.arange(-1.0, 1.0 + 1e-9, 1e-4)
    prox_objective = alpha * problem.lam * np.abs(grid) + 0.5 * (grid - anchor) ** 2
    best = grid[np.argmin(prox_objective)]
    assert abs(out[0] - best) <= 2e-4
    assert abs(anchor - 0.84) <= 1e-15


def test_pgsa_step_requires_domain_point():
    problem = diag_pair_problem(r=1)
    x = np.array([1.0, 1.0]) / math.sqrt(2.0)
    with pytest.raises(DomainError):
        pgsa_step(problem, x, 0.4)


def test_run_pgsa_small_sgep_reaches_smallest_eigenvalue():
    problem = diag_pair_problem()
    x0 = np.array([1.0, 1.0]) / math.sqrt(2.0)
    trace = run_pgsa(problem, x0, PgsaConfig(max_iter=500))
    assert trace.certificate.converged_reason == "step_tol"
    assert abs(trace.certificate.objective - 0.5) <= 1e-12
    assert abs(abs(trace.final_x[1]) - 1.0) <= 1e-8


def test_run_pgsa_critical_start_stops_immediately():
    problem = diag_pair_problem()
    x0 = np.array([0.0, 1.0])
    trace = run_pgsa(problem, x0, PgsaConfig())
    assert trace.certificate.iterations == 1
    assert trace.certificate.converged_reason == "step_tol"
    assert np.array_equal(trace.final_x, x0)


def test_run_pgsa_sfda_monotone_and_feasible():
    recipe = SfdaRecipe(n=200, p1=500, p2=500, r=10, seed=philox_generator(3))
    problem = gen_sfda(recipe)
    trace = run_pgsa(problem, sgep_default_init(200, 10), PgsaConfig(record_trace=True))
    objective = np.asarray(trace.objective)
    assert np.all(np.diff(objective) <= 1e-12)
    for x in trace.iterates:
        assert np.count_nonzero(x) <= 10
        assert abs(np.linalg.norm(x) - 1.0) <= 1e-9


def test_run_pgsa_sufficient_decrease_recomputed():
    recipe = SfdaRecipe(n=50, p1=100, p2=100, r=5, seed=philox_generator(13))
    problem = gen_sfda(recipe)
    trace = run_pgsa(problem, sgep_default_init(50, 5), PgsaConfig())
    lip = problem.lipschitz_grad_h
    objective = np.asarray(trace.objective)
    for k in range(trace.certificate.iterations):
        coef = (1.0 / trace.alpha[k] - lip) / (2.0 * trace.g_value[k + 1])
        lhs = objective[k + 1] + coef * trace.step_norm[k] ** 2
        assert lhs <= objective[k] + 1e-10 * (1.0 + abs(objective[k]))


def test_run_pgsa_convex_regime_allows_larger_steps():
    rng = philox_generator(19)
    sensing = rng.standard_normal((8, 20))
    truth = np.zeros(20)
    truth[[2, 11]] = [0.8, -0.6]
    problem = L1L2PenaltyProblem(
        sensing=sensing,
        observation=sensing @ truth,
        lam=1e-3,
        lower=np.full(20, -1.0),
        upper=np.full(20, 1.0),
    )
    alpha = 1.9 / problem.lipschitz_grad_h
    x0 = np.clip(sensing.T @ problem.observation, -1.0, 1.0)
    x0 /= np.linalg.norm(x0)
    trace = run_pgsa(problem, x0, PgsaConfig(alpha=alpha, relative_tol=True))
    report = audit_trace(trace, problem, mode="pgsa")
    assert report.ok, report.violations[:3]


def test_run_pgsa_step_size_cap_enforced():
    problem = diag_pair_problem()
    cap = 1.0 / problem.lipschitz_grad_h
    with pytest.raises(InvalidConfigError):
        run_pgsa(problem, np.array([1.0, 0.0]), PgsaConfig(alpha=cap))
    with pytest.raises(InvalidConfigError):
        run_pgsa(problem, np.array([1.0, 0.0]), PgsaConfig(alpha=-0.1))
    with pytest.raises(InvalidConfigError):
        run_pgsa(problem, np.array([1.0, 0.0]), PgsaConfig(alpha=math.nan))


@pytest.mark.parametrize("config_class", [PgsaConfig, LineSearchConfig])
@pytest.mark.parametrize(
    "bad",
    [
        {"max_iter": -3},
        {"max_iter": math.inf},
        {"step_tol": -1.0},
        {"step_tol": math.nan},
        {"step_tol": math.inf},
    ],
    ids=["max_iter-negative", "max_iter-inf", "step_tol-negative", "step_tol-nan", "step_tol-inf"],
)
def test_solver_configs_reject_bad_stopping_fields(config_class, bad):
    # Checked at construction: a run would otherwise make no step or never stop early.
    with pytest.raises(InvalidConfigError, match=next(iter(bad))):
        config_class(**bad)
    assert config_class(max_iter=0, step_tol=0.0).max_iter == 0


@pytest.mark.parametrize("config_class, key", [(PgsaConfig, "alpha"), (LineSearchConfig, "a")])
def test_solver_configs_reject_an_infinite_step_parameter(config_class, key):
    # A run would take it, and its trace line would then hold Infinity.
    with pytest.raises(InvalidConfigError, match=f"{key} must be positive and finite"):
        config_class(**{key: math.inf})


def test_run_pgsa_rejects_bad_start():
    problem = diag_pair_problem(r=1)
    bad = np.array([1.0, 1.0]) / math.sqrt(2.0)
    with pytest.raises(DomainError, match=r"x0 lies outside dom\(F\)"):
        run_pgsa(problem, bad, PgsaConfig())
    with pytest.raises(DimensionMismatchError, match="x0 has length 3, problem dimension is 2"):
        run_pgsa(problem, np.array([1.0, 0.0, 0.0]), PgsaConfig())


def test_run_pgsa_final_step_below_tolerance():
    problem = diag_pair_problem()
    x0 = np.array([1.0, 1.0]) / math.sqrt(2.0)
    trace = run_pgsa(problem, x0, PgsaConfig(step_tol=1e-8, max_iter=500))
    assert trace.certificate.converged_reason == "step_tol"
    assert trace.step_norm[-1] <= 1e-8


def test_scale_invariance_power_of_two_is_bitwise():
    recipe = SfdaRecipe(n=50, p1=100, p2=100, r=5, seed=philox_generator(37))
    problem = gen_sfda(recipe)
    scaled = SgepProblem(
        matrix_a=2.0 * problem.matrix_a, matrix_b=2.0 * problem.matrix_b, sparsity=5
    )
    x0 = sgep_default_init(50, 5)
    base = run_pgsa(problem, x0, PgsaConfig(record_trace=True))
    doubled = run_pgsa(scaled, x0, PgsaConfig(record_trace=True))
    assert base.certificate.iterations == doubled.certificate.iterations
    for xa, xb in zip(base.iterates, doubled.iterates):
        assert np.array_equal(xa, xb)


def test_scale_invariance_generic_factor_matches_objectives():
    recipe = SfdaRecipe(n=50, p1=100, p2=100, r=5, seed=philox_generator(43))
    problem = gen_sfda(recipe)
    scaled = SgepProblem(
        matrix_a=3.0 * problem.matrix_a, matrix_b=3.0 * problem.matrix_b, sparsity=5
    )
    x0 = sgep_default_init(50, 5)
    base = run_pgsa(problem, x0, PgsaConfig())
    tripled = run_pgsa(scaled, x0, PgsaConfig())
    assert np.allclose(base.objective, tripled.objective, rtol=1e-12, atol=0.0)


def test_trace_objective_equals_certificate_objective():
    problem = diag_pair_problem()
    trace = run_pgsa(problem, np.array([1.0, 1.0]) / math.sqrt(2.0), PgsaConfig())
    assert trace.objective[-1] == trace.certificate.objective
    assert trace.certificate.iterations == len(trace.alpha)


class _NoResidual(FractionalProblem):
    """0.5 * ||x - 1||^2 over the constant 1; it keeps the base critical_residual."""

    dim = 2
    lipschitz_grad_h = 1.0

    def eval_f(self, x):
        return 0.0

    def eval_h(self, x):
        return 0.5 * float((x - 1.0) @ (x - 1.0))

    def grad_h(self, x):
        return x - 1.0

    def eval_g(self, x):
        return 1.0

    def subgrad_g(self, x):
        return np.zeros(2)

    def prox_f(self, alpha, z):
        return z


@pytest.mark.parametrize(
    "solve, config",
    [
        (run_pgsa, PgsaConfig(max_iter=100)),
        (run_pgsa_ls, LineSearchConfig(N=0, max_iter=100)),
        (run_pgsa_ls, LineSearchConfig(max_iter=100)),
    ],
    ids=["pgsa", "pgsa_ml", "pgsa_nl"],
)
def test_problem_without_a_criticality_residual_certifies_none(solve, config):
    trace = solve(_NoResidual(), np.zeros(2), config)
    assert trace.certificate.criticality_residual is None
    assert trace.certificate.converged_reason == "step_tol"
    assert trace.certificate.objective <= 1e-10


@pytest.mark.parametrize("relative", [False, True])
@pytest.mark.parametrize("solver", ["pgsa", "pgsa_ml", "pgsa_nl"])
@pytest.mark.parametrize("family", ["sgep", "l1l2", "no_bound"])
def test_resolve_gives_the_params_every_run_records(family, solver, relative):
    # One resolver writes the params of every trace, so it gives them back
    # from the config and the problem's L, convexity, M (None here for
    # no_bound) and dimension alone.
    if family == "sgep":
        problem, x0 = diag_pair_problem(), np.array([1.0, 1.0]) / math.sqrt(2.0)
    elif family == "l1l2":
        problem, x0 = one_d_penalty(), np.array([0.5])
    else:
        problem, x0 = _NoResidual(), np.zeros(2)
    if solver == "pgsa":
        solve, cfg = run_pgsa, PgsaConfig(relative_tol=relative)
    else:
        window = 0 if solver == "pgsa_ml" else 4
        solve, cfg = run_pgsa_ls, LineSearchConfig(N=window, relative_tol=relative)
    trace = solve(problem, x0, cfg)
    constants = problem.lipschitz_grad_h, problem.f_is_convex, problem.g_sup_bound
    assert _resolve(cfg, *constants, problem.dim) == trace.params
    assert trace.params["mode"] == solver
    assert trace.params["g_sup_bound"] == (None if family == "no_bound" else problem.g_sup_bound)
    assert trace.params["max_iter"] == (10 if relative else 2) * problem.dim


@pytest.mark.parametrize("columns", [37, 1024])
@pytest.mark.parametrize("rows", [1, 63, 64, 65, 4000])
def test_errors_to_final_matches_row_norms(rows, columns):
    # The blocked pass must give the very bits of the one-shot row norms.
    problem = diag_pair_problem()
    trace = run_pgsa(problem, np.array([0.0, 1.0]), PgsaConfig(max_iter=1, record_trace=True))
    scales = np.logspace(-3, 3, 7)[np.arange(rows) % 7, None]
    iterates = philox_generator(503, rows).standard_normal((rows, columns)) * scales
    traced = dataclasses.replace(trace, iterates=iterates)
    expected = np.linalg.norm(iterates - iterates[-1], axis=1)
    errors = traced.errors_to_final()
    assert errors.tobytes() == expected.tobytes()
    # Computed once and stored read-only, so no caller can edit the trace's column.
    assert traced.errors_to_final() is errors
    assert not errors.flags.writeable


def test_err_to_final_is_computed_once_and_kept_like_recorded_data():
    problem = diag_pair_problem()
    trace = run_pgsa(problem, np.array([0.6, 0.8]), PgsaConfig(max_iter=5, record_trace=True))
    assert trace.iterates.shape[0] >= 2 and trace.err_to_final is None
    first = trace.errors_to_final()
    assert trace.err_to_final is first and trace.errors_to_final() is first
    with pytest.raises(ValueError):
        first[0] = 1.0
    # New iterates keep the column, as they keep objective; clearing it recomputes.
    tampered = trace.iterates.copy()
    tampered[0] += 1.0
    trace.iterates = tampered
    assert trace.errors_to_final() is first
    assert dataclasses.replace(trace, iterates=tampered).errors_to_final() is first
    fresh = np.linalg.norm(tampered - tampered[-1], axis=1)
    replaced = dataclasses.replace(trace, iterates=tampered, err_to_final=None)
    assert replaced.errors_to_final().tobytes() == fresh.tobytes()
    # A column given without iterates, writeable as a parsed one arrives, is returned read-only.
    given = fresh.copy()
    bare = dataclasses.replace(trace, iterates=None, err_to_final=given)
    assert bare.errors_to_final() is given and not given.flags.writeable
    with pytest.raises(InsufficientDataError, match="no iterates and no err_to_final column"):
        dataclasses.replace(bare, err_to_final=None).errors_to_final()


def test_traced_run_reserves_its_rows_up_to_a_byte_cap(monkeypatch):
    # The rows reserved up front are capped in bytes, not by max_iter, and a
    # run that outgrows them (a one-byte cap reserves one row) keeps every row.
    rng = philox_generator(281)
    sensing = gen_dct_matrix(10, 20, 1.0, rng)
    problem = L1L2PenaltyProblem(
        sensing=sensing, observation=sensing @ gen_ground_truth(20, 3, rng),
        lam=1e-3, lower=-1.0, upper=1.0,
    )
    x0 = penalty_start_point(problem)
    cfg = LineSearchConfig(N=0, max_iter=10**12, record_trace=True)
    reserved = run_pgsa_ls(problem, x0, cfg)
    iterates, k = reserved.iterates, reserved.iterations
    assert reserved.certificate.converged_reason == "step_tol" and k >= 20
    assert iterates.shape == (k + 1, problem.dim)
    assert iterates[0].tobytes() == x0.tobytes()
    assert iterates[-1].tobytes() == reserved.final_x.tobytes()
    assert [_norm(iterates[j + 1] - iterates[j]) for j in range(k)] == list(reserved.step_norm)
    monkeypatch.setattr(pgsa_module, "ITERATE_RESERVE_BYTES", 1)
    assert run_pgsa_ls(problem, x0, cfg).iterates.tobytes() == iterates.tobytes()


ANCHOR_NAN = "NaN in step anchor (gradient or subgradient callback)"


@pytest.mark.parametrize(
    "callback, message",
    [("grad_h", ANCHOR_NAN), ("subgrad_g", ANCHOR_NAN), ("prox_f", "NaN from prox callback")],
)
@pytest.mark.parametrize("solver", ["pgsa", "pgsa_ls"])
def test_nan_from_a_callback_raises_numerics_error(callback, message, solver):
    # One NaN among finite entries, with an inf beside it, must still be seen.
    class Poisoned(L1L2PenaltyProblem):
        pass

    def poisoned(self, *args):
        return np.array([0.25, np.nan, -np.inf])

    setattr(Poisoned, callback, poisoned)
    problem = Poisoned(
        sensing=np.eye(3), observation=np.ones(3), lam=0.1, lower=-1.0, upper=1.0
    )
    x0 = np.array([0.5, 0.5, 0.5])
    with pytest.raises(NumericsError) as err:
        if solver == "pgsa":
            run_pgsa(problem, x0, PgsaConfig(max_iter=3))
        else:
            run_pgsa_ls(problem, x0, LineSearchConfig(max_iter=3))
    assert str(err.value) == message


def test_prox_that_leaves_dom_f_stops_pgsa_and_fails_the_line_search():
    # Every prox point lies outside the box, so F is +inf at each candidate.  The second
    # point holds infinities but no NaN: its step norm is inf, and no NumericsError is raised.
    for point in ([2.0, 2.0, 2.0], [0.25, np.inf, -np.inf]):

        class OutOfBox(L1L2PenaltyProblem):
            def prox_f(self, alpha, z, point=point):
                return np.array(point)

        problem = OutOfBox(
            sensing=np.eye(3), observation=np.ones(3), lam=0.1, lower=-1.0, upper=1.0
        )
        x0 = np.array([0.5, 0.5, 0.5])
        trace = run_pgsa(problem, x0, PgsaConfig(max_iter=3))
        assert trace.certificate.converged_reason == "domain_error"
        assert trace.certificate.iterations == 0
        assert np.array_equal(trace.final_x, x0)
        with pytest.raises(LineSearchError, match="no acceptable step after"):
            run_pgsa_ls(problem, x0, LineSearchConfig(max_iter=3))


@pytest.mark.parametrize("solver", ["pgsa", "pgsa_ml", "pgsa_nl"])
@pytest.mark.parametrize("family", ["sgep", "l1l2"])
def test_callback_counts_follow_iterations_and_backtracks(family, solver):
    # K iterations with B backtracks make K calls each to grad_h and
    # subgrad_g, K + B to prox_f, K + B + 1 each to eval_f and eval_g, one to
    # eval_h per point where f is finite, and one to critical_residual.
    rng = philox_generator(41, 0)
    if family == "sgep":
        problem = gen_sfda(SfdaRecipe(n=50, p1=60, p2=60, r=5, seed=rng))
        x0 = sgep_default_init(50, 5)
    else:
        sensing = gen_dct_matrix(32, 128, 1.0, rng)
        truth = gen_ground_truth(128, 4, rng)
        problem = L1L2PenaltyProblem(
            sensing=sensing, observation=sensing @ truth, lam=8e-5, lower=-1.0, upper=1.0
        )
        x0 = penalty_start_point(problem)
    counter = CallCounter(problem)
    if solver == "pgsa":
        trace = run_pgsa(counter, x0, PgsaConfig(max_iter=300))
    else:
        cfg = LineSearchConfig(N=0 if solver == "pgsa_ml" else 4, max_iter=300)
        trace = run_pgsa_ls(counter, x0, cfg)
    k = trace.iterations
    b = 0 if trace.backtracks is None else int(trace.backtracks.sum())
    assert k > 0 and (solver == "pgsa" or b > 0)
    assert counter.calls == {
        "grad_h": k,
        "subgrad_g": k,
        "prox_f": k + b,
        "eval_f": k + b + 1,
        "eval_g": k + b + 1,
        "eval_h": counter.finite_f,
        "critical_residual": 1,
    }
