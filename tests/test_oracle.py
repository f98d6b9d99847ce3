"""Verification tools: trace audits and rate fits, and the gradients they rest on."""

from __future__ import annotations

import dataclasses
import math
from collections import Counter

import numpy as np
import pytest

from conftest import central_gradient
from fracopt import (
    L1L2PenaltyProblem,
    LineSearchConfig,
    PgsaConfig,
    SfdaRecipe,
    SgepProblem,
    audit_trace,
    eval_objective,
    fit_linear_rate,
    fit_rate_from_errors,
    gen_dct_matrix,
    gen_sfda,
    penalty_start_point,
    run_pgsa,
    run_pgsa_ls,
    sgep_default_init,
)
from fracopt.exceptions import InsufficientDataError
from fracopt.oracle import AuditReport, _audit_certificate
from fracopt.rand import philox_generator


def wishart(rng: np.random.Generator, samples: int, dim: int) -> np.ndarray:
    g = rng.standard_normal((samples, dim))
    return g.T @ g / samples


def small_sgep(seed: int, n: int = 12, r: int = 3) -> SgepProblem:
    rng = philox_generator(seed)
    a = wishart(rng, 3 * n, n) + 0.1 * np.eye(n)
    b = wishart(rng, 3 * n, n) + 0.5 * np.eye(n)
    return SgepProblem(matrix_a=a, matrix_b=b, sparsity=r)


def _gradient_gap(problem, x: np.ndarray, step: float) -> float:
    """max_i |cd_i - g_i| / (1 + |g_i|) for grad_h against central differences of eval_h."""
    grad = problem.grad_h(x)
    gaps = np.abs(central_gradient(problem.eval_h, x, step) - grad) / (1.0 + np.abs(grad))
    return float(gaps.max())


def test_fd_check_passes_quadratic_gradient():
    problem = small_sgep(301)
    x = philox_generator(302).standard_normal(12)
    assert _gradient_gap(problem, x, 1e-5) <= 1e-6


def test_fd_check_passes_least_squares_gradient():
    rng = philox_generator(303)
    sensing = gen_dct_matrix(10, 25, 1.0, rng)
    problem = L1L2PenaltyProblem(
        sensing=sensing,
        observation=rng.standard_normal(10),
        lam=0.1,
        lower=np.full(25, -1.0),
        upper=np.full(25, 1.0),
    )
    x = rng.uniform(-0.9, 0.9, size=25)
    assert _gradient_gap(problem, x, 1e-5 * (1.0 + np.abs(x).max())) <= 1e-6


def test_audit_passes_clean_fixed_step_run():
    problem = small_sgep(307)
    trace = run_pgsa(problem, sgep_default_init(12, 3), PgsaConfig(record_trace=True))
    report = audit_trace(trace, problem)
    assert report.ok
    assert report.mode == "pgsa"
    assert report.checks_run > trace.certificate.iterations
    assert {v.iteration for v in report.violations} == set()


def test_audit_flags_exactly_the_corrupted_index():
    problem = small_sgep(309)
    trace = run_pgsa(problem, sgep_default_init(12, 3), PgsaConfig())
    assert trace.certificate.iterations >= 4
    j = trace.certificate.iterations // 2
    corrupted = np.asarray(trace.objective, dtype=float).copy()
    corrupted[j] += 0.1 * (1.0 + abs(corrupted[j]))
    tampered = dataclasses.replace(trace, objective=corrupted)
    report = audit_trace(tampered, problem, mode="pgsa")
    assert not report.ok
    assert {v.iteration for v in report.violations} == {j}
    kinds = {v.kind for v in report.violations}
    assert kinds <= {"sufficient_decrease", "monotonicity"}


def test_audit_nonmonotone_run_has_no_window_violations():
    recipe = SfdaRecipe(n=100, p1=180, p2=180, r=8, seed=philox_generator(311))
    problem = gen_sfda(recipe)
    trace = run_pgsa_ls(problem, sgep_default_init(100, 8), LineSearchConfig(N=4))
    report = audit_trace(trace, problem)
    assert report.mode == "pgsa_nl"
    assert report.ok, [dataclasses.asdict(v) for v in report.violations[:3]]


def test_audit_flags_window_violation_when_injected():
    recipe = SfdaRecipe(n=100, p1=180, p2=180, r=8, seed=philox_generator(311))
    problem = gen_sfda(recipe)
    trace = run_pgsa_ls(problem, sgep_default_init(100, 8), LineSearchConfig(N=4))
    j = trace.certificate.iterations // 2
    corrupted = np.asarray(trace.objective, dtype=float).copy()
    corrupted[j] = corrupted[0] + 1.0
    tampered = dataclasses.replace(trace, objective=corrupted)
    report = audit_trace(tampered, problem)
    assert not report.ok
    assert j in {v.iteration for v in report.violations}
    kinds = {v.kind for v in report.violations}
    assert "level_set" in kinds or "acceptance" in kinds


def test_audit_recomputes_iterates_when_recorded():
    problem = small_sgep(313)
    trace = run_pgsa(problem, sgep_default_init(12, 3), PgsaConfig(record_trace=True))
    assert trace.iterates is not None
    j = max(1, trace.certificate.iterations // 2)
    bad_iterates = np.asarray(trace.iterates, dtype=float).copy()
    flipped = bad_iterates[j].copy()
    order = np.argsort(-np.abs(flipped))
    flipped[order[0]], flipped[order[1]] = flipped[order[1]], flipped[order[0]]
    bad_iterates[j] = flipped
    tampered = dataclasses.replace(trace, iterates=bad_iterates)
    report = audit_trace(tampered, problem, mode="pgsa")
    assert not report.ok
    kinds = {v.kind for v in report.violations}
    assert kinds & {"objective_mismatch", "step_mismatch"}


def test_audit_rejects_unknown_mode():
    problem = small_sgep(307)
    trace = run_pgsa(problem, sgep_default_init(12, 3), PgsaConfig())
    with pytest.raises(ValueError):
        audit_trace(trace, problem, mode="bisection")


@pytest.mark.parametrize("recorded, asked", [("pgsa", "pgsa_nl"), ("pgsa_ml", "pgsa")])
def test_audit_mode_may_only_restate_the_traces_mode(recorded, asked):
    # pgsa_nl rules would look up a pgsa trace's missing "a"; pgsa rules misread a line search.
    problem = small_sgep(307)
    x0 = sgep_default_init(12, 3)
    trace = run_pgsa(problem, x0, PgsaConfig()) if recorded == "pgsa" else run_pgsa_ls(
        problem, x0, LineSearchConfig(N=0)
    )
    assert audit_trace(trace, problem, mode=recorded).ok
    with pytest.raises(ValueError, match=f"'{asked}' is not the trace's mode '{recorded}'"):
        audit_trace(trace, problem, mode=asked)


def test_certificate_audit_checks_what_the_rows_settle():
    problem = small_sgep(331)
    x0 = sgep_default_init(12, 3)
    stopped = run_pgsa_ls(problem, x0, LineSearchConfig(N=0))
    capped = run_pgsa_ls(problem, x0, LineSearchConfig(N=0, max_iter=5))
    assert stopped.certificate.converged_reason == "step_tol" and stopped.iterations > 5
    assert capped.certificate.converged_reason == "max_iter" and capped.iterations == 5

    def certificate_audit(trace, params=None, **cert):
        edited = dataclasses.replace(
            trace,
            certificate=dataclasses.replace(trace.certificate, **cert),
            params={**trace.params, **(params or {})},
        )
        report = AuditReport(mode="pgsa_ml")
        _audit_certificate(report, edited)
        assert all(v.iteration == edited.certificate.iterations for v in report.violations)
        return report.checks_run, [v.detail for v in report.violations]

    # A clean run passes its three or four checks; then its stop reason is edited.
    assert certificate_audit(stopped) == (3, [])
    assert certificate_audit(capped) == (4, [])
    k = stopped.iterations
    assert certificate_audit(stopped, converged_reason="max_iter") == (
        4,
        [f"max_iter stop after {k} steps", "max_iter stop with the last step within step_tol"],
    )
    assert certificate_audit(capped, converged_reason="step_tol") == (
        3,
        ["step_tol stop with the last step above step_tol"],
    )
    assert certificate_audit(capped, {"relative_tol": True}, converged_reason="step_tol") == (2, [])
    assert certificate_audit(stopped, converged_reason="domain_error") == (2, [])
    assert certificate_audit(stopped, iterations=10**6) == (3, [f"{10**6} steps exceed max_iter"])
    last = repr(float(stopped.objective[-1]))
    assert certificate_audit(stopped, objective=123.0) == (
        3,
        [f"certificate objective 123.0 is not the last row's {last}"],
    )


def test_rate_fit_recovers_exact_geometric_decay():
    errors = [0.9**k for k in range(60)]
    fit = fit_rate_from_errors(errors)
    assert abs(fit.slope - math.log(0.9)) <= 1e-6
    assert fit.r_squared >= 0.999
    assert 0.0 <= fit.r_squared <= 1.0


def test_rate_fit_window_drops_the_tail():
    errors = [0.9**k for k in range(60)]
    fit = fit_rate_from_errors(errors)
    assert fit.window[0] == 20
    assert fit.window[1] == 54
    assert fit.n_points == 35


def test_rate_fit_requires_enough_points():
    with pytest.raises(InsufficientDataError):
        fit_rate_from_errors([0.9**k for k in range(29)])
    with pytest.raises(InsufficientDataError):
        fit_rate_from_errors([1.0] * 60)
    with pytest.raises(InsufficientDataError):
        fit_rate_from_errors([0.0] * 60)


def test_rate_fit_from_trace_needs_recorded_iterates():
    problem = small_sgep(317)
    bare = run_pgsa(problem, sgep_default_init(12, 3), PgsaConfig(step_tol=1e-12))
    with pytest.raises(InsufficientDataError):
        fit_linear_rate(bare)


def test_rate_fit_from_solver_trace_sees_linear_convergence():
    recipe = SfdaRecipe(n=100, p1=180, p2=180, r=8, seed=philox_generator(331))
    problem = gen_sfda(recipe)
    trace = run_pgsa(
        problem,
        sgep_default_init(100, 8),
        PgsaConfig(step_tol=1e-12, max_iter=3000, record_trace=True),
    )
    fit = fit_linear_rate(trace)
    assert fit.slope < 0.0
    assert fit.r_squared >= 0.9


def _scalar_excess(value, reference, rel_slack=0.0, coef=0.0, step=0.0):
    lhs = value + coef * step**2
    if lhs > reference + rel_slack * (1.0 + abs(reference)):
        return lhs - reference
    return 0.0


def _scalar_audit(trace, problem, rel_tol=1e-10):
    """Reference audit: one Python loop per check, one iteration at a time.

    Returns checks_run and the (iteration, kind, detail, magnitude) of every
    violation, for comparison with the array audit.
    """
    params = trace.params
    mode = params["mode"]
    found = []
    checks = 0
    objective, g_value = trace.objective, trace.g_value
    alpha, step_norm = trace.alpha, trace.step_norm
    iterations = alpha.shape[0]
    if problem is not None:
        lipschitz, convex_f = problem.lipschitz_grad_h, problem.f_is_convex
        g_bound = problem.g_sup_bound
    else:
        lipschitz, convex_f = params["lipschitz"], params["f_is_convex"]
        g_bound = params["g_sup_bound"]
    hi = params["alpha_upper"]

    def slack(reference):
        return rel_tol * (1.0 + abs(reference))

    def add(k, kind, magnitude, detail):
        found.append((k, kind, detail, repr(float(magnitude))))

    for k in range(objective.shape[0]):
        checks += 1
        if not math.isfinite(objective[k]):
            add(k, "domain", math.inf, f"objective at iterate {k} is not finite")
    if mode == "pgsa":
        lo = params["alpha_lower"]
        cap = (2.0 if convex_f else 1.0) / lipschitz
        for k in range(iterations):
            checks += 3
            if alpha[k] < lo - slack(lo):
                add(k, "step_bounds", lo - alpha[k], "step below alpha_lower")
            if alpha[k] > hi + slack(hi):
                add(k, "step_bounds", alpha[k] - hi, "step above alpha_upper")
            if alpha[k] >= cap:
                add(k, "step_bounds", alpha[k] - cap, "step at or above 1/L cap")
            if convex_f:
                coef = (1.0 / alpha[k] - lipschitz / 2.0) / g_value[k + 1]
            else:
                coef = (1.0 / alpha[k] - lipschitz) / (2.0 * g_value[k + 1])
            excess = _scalar_excess(objective[k + 1], objective[k], rel_tol, coef, step_norm[k])
            if excess:
                detail = f"decrease inequality fails from iterate {k} to {k + 1}"
                add(k + 1, "sufficient_decrease", excess, detail)
            excess = _scalar_excess(objective[k + 1], objective[k], rel_tol)
            if excess:
                detail = f"objective increased from iterate {k} to {k + 1}"
                add(k + 1, "monotonicity", excess, detail)
    else:
        a, eta, memory = params["a"], params["eta"], params["N"]
        for k in range(iterations):
            checks += 3
            window_max = objective[max(0, k - memory) : k + 1].max()
            excess = _scalar_excess(objective[k + 1], window_max, rel_tol, 0.5 * a, step_norm[k])
            if excess:
                add(k + 1, "acceptance", excess, f"acceptance inequality fails at iterate {k + 1}")
            if alpha[k] > hi + slack(hi):
                add(k, "step_bounds", alpha[k] - hi, "step above alpha_upper")
            excess = _scalar_excess(objective[k + 1], objective[0], rel_tol)
            if excess:
                add(k + 1, "level_set", excess, "objective left the initial level set")
            next_max = objective[max(0, k + 1 - memory) : k + 2].max()
            excess = _scalar_excess(next_max, window_max, rel_tol)
            if excess:
                add(k + 1, "window_monotonicity", excess, "windowed objective maximum increased")
        if g_bound is not None:
            floor = eta / (a * g_bound + lipschitz) - 1e-12
            cap = max(math.ceil(-math.log(hi * (a * g_bound + lipschitz)) / math.log(eta) + 1.0), 0)
            for k in range(iterations):
                checks += 1
                if alpha[k] < floor:
                    detail = "accepted step below the guaranteed floor"
                    add(k, "step_floor", floor - alpha[k], detail)
                if trace.backtracks is not None:
                    checks += 1
                    if int(trace.backtracks[k]) > cap:
                        detail = f"{int(trace.backtracks[k])} backtracks exceed the bound {cap}"
                        add(k, "backtrack_cap", float(trace.backtracks[k] - cap), detail)
    if trace.iterates is not None and problem is not None:
        iterates = trace.iterates
        for k in range(iterates.shape[0]):
            checks += 1
            ext = eval_objective(problem, iterates[k])
            if not ext.in_domain:
                add(k, "domain", math.inf, f"iterate {k} lies outside dom(F)")
            elif abs(ext.value - objective[k]) > slack(objective[k]):
                detail = "recorded objective disagrees with re-evaluation"
                add(k, "objective_mismatch", abs(ext.value - objective[k]), detail)
        for k in range(min(iterations, iterates.shape[0] - 1)):
            checks += 1
            recomputed = float(np.linalg.norm(iterates[k + 1] - iterates[k]))
            if abs(recomputed - step_norm[k]) > slack(step_norm[k]):
                detail = "recorded step norm disagrees with iterates"
                add(k, "step_mismatch", abs(recomputed - step_norm[k]), detail)
    cert, last = trace.certificate, float(objective[-1])
    count, reason = cert.iterations, cert.converged_reason
    checks += 1
    if cert.objective != last:
        detail = f"certificate objective {cert.objective!r} is not the last row's {last!r}"
        add(count, "certificate", abs(cert.objective - last), detail)
    max_iter, step_tol = params["max_iter"], params["step_tol"]
    checks += 1
    if count > max_iter:
        add(count, "certificate", count - max_iter, f"{count} steps exceed max_iter")
    if reason == "max_iter":
        checks += 1
        if count != max_iter:
            detail = f"max_iter stop after {count} steps"
            add(count, "certificate", abs(max_iter - count), detail)
    if not params["relative_tol"]:
        if reason == "step_tol":
            checks += 1
            detail = "step_tol stop with the last step above step_tol"
            if iterations == 0:
                add(count, "certificate", math.inf, detail)
            elif step_norm[-1] > step_tol:
                add(count, "certificate", step_norm[-1] - step_tol, detail)
        if reason == "max_iter" and iterations > 0:
            checks += 1
            if step_norm[-1] <= step_tol:
                detail = "max_iter stop with the last step within step_tol"
                add(count, "certificate", step_tol - step_norm[-1], detail)
    return checks, found


def _corrupt(trace, rng):
    """A copy of trace with a random handful of objectives, steps and counts broken."""
    objective = trace.objective.copy()
    alpha = trace.alpha.copy()
    iterates = None if trace.iterates is None else trace.iterates.copy()
    backtracks = None if trace.backtracks is None else trace.backtracks.copy()
    size, steps = objective.shape[0], alpha.shape[0]
    for _ in range(rng.integers(0, 4)):
        objective[rng.integers(size)] = rng.choice([np.nan, np.inf, -np.inf])
    for _ in range(rng.integers(0, 4)):
        k = rng.integers(size)
        objective[k] += rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-12, 0)
    for _ in range(rng.integers(0, 3)):
        k = rng.integers(steps)
        alpha[k] *= rng.choice([0.0, 1e-9, 0.5, 1.5, 3.0, 1e12])
    if backtracks is not None:
        for _ in range(rng.integers(0, 3)):
            backtracks[rng.integers(steps)] += rng.integers(1, 80)
    if iterates is not None and rng.random() < 0.5:
        iterates[rng.integers(iterates.shape[0])] *= 1.0 + 1e-6
    certificate = trace.certificate
    if rng.random() < 0.25:
        reason = rng.choice(["step_tol", "max_iter", "domain_error"])
        certificate = dataclasses.replace(certificate, converged_reason=str(reason))
    return dataclasses.replace(
        trace,
        objective=objective,
        alpha=alpha,
        iterates=iterates,
        backtracks=backtracks,
        certificate=certificate,
    )


def _tiny_l1l2():
    rng = philox_generator(341)
    sensing = gen_dct_matrix(20, 60, 1.0, rng)
    truth = np.zeros(60)
    truth[[3, 17, 41]] = [0.5, -0.7, 0.9]
    return L1L2PenaltyProblem(
        sensing=sensing, observation=sensing @ truth, lam=8e-5, lower=-1.0, upper=1.0
    )


@pytest.mark.parametrize("family", ["sgep", "l1l2"])
@pytest.mark.parametrize("mode", ["pgsa", "pgsa_ml", "pgsa_nl"])
def test_array_audit_matches_scalar_reference(mode, family):
    # Random corruptions of one clean run, audited with and without the
    # problem: the same checks and the same multiset of violations.
    if family == "sgep":
        problem, x0 = small_sgep(337), sgep_default_init(12, 3)
    else:
        problem = _tiny_l1l2()
        x0 = penalty_start_point(problem)
    if mode == "pgsa":
        trace = run_pgsa(problem, x0, PgsaConfig(record_trace=True, max_iter=120))
    else:
        cfg = LineSearchConfig(N=0 if mode == "pgsa_ml" else 4, record_trace=True, max_iter=120)
        trace = run_pgsa_ls(problem, x0, cfg)
    assert trace.iterations >= 20
    rng = philox_generator(339, int(family == "l1l2"), ["pgsa", "pgsa_ml", "pgsa_nl"].index(mode))
    flagged = 0
    for round_ in range(60):
        tampered = trace if round_ == 0 else _corrupt(trace, rng)
        for given in (problem, None):
            report = audit_trace(tampered, given)
            with np.errstate(all="ignore"):
                checks, expected = _scalar_audit(tampered, given)
            assert report.checks_run == checks
            got = [
                (v.iteration, v.kind, v.detail, repr(float(v.magnitude)))
                for v in report.violations
            ]
            assert Counter(got) == Counter(expected)
            flagged += bool(expected)
    assert flagged >= 60
