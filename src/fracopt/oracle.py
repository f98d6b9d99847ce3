"""Independent verification: trace audits and rate fitting.

Nothing here is needed to run a solver.  These routines re-check, from the
recorded evidence alone, that a run actually behaved the way the convergence
guarantees say it must: objectives stayed finite and (windowed) decreasing,
every sufficient-decrease inequality held, accepted steps respected their
bounds and the guaranteed backtracking floor, and the error-to-final decay is
genuinely linear on a log scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .exceptions import InsufficientDataError
from .pgsa import SolverTrace, _decrease_excess
from .problem import FractionalProblem, eval_objective

AUDIT_REL_TOL = 1e-10
# OLS fits drop this many points right before convergence, where the error is
# at machine-noise level and log(error) is meaningless.
RATE_FIT_TAIL_EXCLUSION = 5
RATE_FIT_MIN_LENGTH = 30


@dataclass(frozen=True)
class AuditViolation:
    """One failed check: which iteration, which rule, by how much."""

    iteration: int
    kind: str
    magnitude: float
    detail: str = ""


@dataclass
class AuditReport:
    """Outcome of re-checking a solver trace against its guarantees."""

    mode: str
    checks_run: int = 0
    violations: list[AuditViolation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def _flag(
    report: AuditReport,
    kind: str,
    detail: str | Callable[[int], str],
    failed: np.ndarray,
    magnitude: float | np.ndarray | None = None,
    shift: int = 0,
) -> None:
    """Record a violation at iteration k + shift for every k where ``failed`` is nonzero.

    ``magnitude`` defaults to ``failed`` itself (a decrease excess); a str
    ``detail`` is formatted with k and j = k + shift.
    """
    magnitude = np.broadcast_to(failed if magnitude is None else magnitude, np.shape(failed))
    for k in np.flatnonzero(failed).tolist():
        text = detail(k) if callable(detail) else detail.format(k=k, j=k + shift)
        report.violations.append(AuditViolation(k + shift, kind, float(magnitude[k]), text))


def audit_trace(
    trace: SolverTrace,
    problem: FractionalProblem | None = None,
    mode: str | None = None,
) -> AuditReport:
    """Re-verify a recorded run against the guarantees of its mode.

    Modes: "pgsa" checks monotone decrease with the fixed-step coefficient
    (1/alpha - L)/2 (or 1/alpha - L/2 for convex f) scaled by the denominator;
    "pgsa_ml" checks the monotone line-search acceptance with coefficient a/2;
    "pgsa_nl" checks acceptance against the running window maximum, that the
    windowed maxima never increase, and that no objective exceeds the starting
    value.  All modes check finite objectives, step bounds, the certificate
    against the rows (``_audit_certificate``) and, when the denominator bound
    M is known, the guaranteed backtracking floor eta/(a*M + L) - 1e-12 and
    the matching cap on backtrack counts.

    The mode, a, eta, N and the step bounds come from ``trace.params``
    (``mode`` may only restate the trace's mode, else ValueError).  L, the
    convexity of f and M are recomputed from ``problem`` when one is given,
    else read from ``trace.params`` too; only a problem lets recorded iterates
    be re-evaluated, one problem call per point.

    Each check is one array expression over all iterations (the window
    maxima are a sliding maximum over the objectives padded with -inf), so
    the violations come grouped by check, each group in iteration order.
    Inequalities get slack AUDIT_REL_TOL * (1 + |reference|); violations are
    collected, never raised, so a caller can report all of them at once.
    """
    params = trace.params
    if mode not in (None, params["mode"]):
        raise ValueError(f"audit mode {mode!r} is not the trace's mode {params['mode']!r}")
    mode = params["mode"]
    if mode not in ("pgsa", "pgsa_ml", "pgsa_nl"):
        raise ValueError(f"unknown audit mode {mode!r}")
    report = AuditReport(mode=mode)

    objective = np.asarray(trace.objective, dtype=float)
    g_value = np.asarray(trace.g_value, dtype=float)
    alpha = np.asarray(trace.alpha, dtype=float)
    step_norm = np.asarray(trace.step_norm, dtype=float)
    iterations = alpha.shape[0]
    # F(x_k) and F(x_{k+1}) for every step k.
    before, after = objective[:iterations], objective[1 : iterations + 1]

    if problem is not None:
        lipschitz, convex_f = problem.lipschitz_grad_h, problem.f_is_convex
        g_bound = problem.g_sup_bound
    else:
        lipschitz, convex_f = params["lipschitz"], params["f_is_convex"]
        g_bound = params["g_sup_bound"]
    hi = params["alpha_upper"]

    def slack(reference):
        return AUDIT_REL_TOL * (1.0 + np.abs(reference))

    # NaN and inf objectives are data here, and the checks treat them exactly
    # as the scalar decrease test does, so their arithmetic warnings are noise.
    with np.errstate(all="ignore"):
        report.checks_run += objective.shape[0]
        not_finite = ~np.isfinite(objective)
        _flag(report, "domain", "objective at iterate {k} is not finite", not_finite, math.inf)

        if mode == "pgsa":
            lo = params["alpha_lower"]
            cap = (2.0 if convex_f else 1.0) / lipschitz
            report.checks_run += 3 * iterations
            below, above = alpha < lo - slack(lo), alpha > hi + slack(hi)
            _flag(report, "step_bounds", "step below alpha_lower", below, lo - alpha)
            _flag(report, "step_bounds", "step above alpha_upper", above, alpha - hi)
            _flag(report, "step_bounds", "step at or above 1/L cap", alpha >= cap, alpha - cap)
            denominator = g_value[1 : iterations + 1]
            if convex_f:
                coef = (1.0 / alpha - lipschitz / 2.0) / denominator
            else:
                coef = (1.0 / alpha - lipschitz) / (2.0 * denominator)
            excess = _decrease_excess(after, before, AUDIT_REL_TOL, coef, step_norm)
            detail = "decrease inequality fails from iterate {k} to {j}"
            _flag(report, "sufficient_decrease", detail, excess, shift=1)
            excess = _decrease_excess(after, before, AUDIT_REL_TOL)
            detail = "objective increased from iterate {k} to {j}"
            _flag(report, "monotonicity", detail, excess, shift=1)
        else:
            a, eta, memory = params["a"], params["eta"], params["N"]
            # maxima[k] = max F(x_j) over [k-N]+ <= j <= k, for k = 0..K.
            width = min(memory, iterations) + 1
            padded = np.concatenate((np.full(width - 1, -np.inf), objective[: iterations + 1]))
            maxima = sliding_window_view(padded, width).max(axis=1)
            window_max = maxima[:-1]

            report.checks_run += 3 * iterations
            excess = _decrease_excess(after, window_max, AUDIT_REL_TOL, 0.5 * a, step_norm)
            detail = "acceptance inequality fails at iterate {j}"
            _flag(report, "acceptance", detail, excess, shift=1)
            above = alpha > hi + slack(hi)
            _flag(report, "step_bounds", "step above alpha_upper", above, alpha - hi)
            excess = _decrease_excess(after, objective[0], AUDIT_REL_TOL)
            _flag(report, "level_set", "objective left the initial level set", excess, shift=1)
            # Windowed maxima over accepted values must never increase.
            excess = _decrease_excess(maxima[1:], window_max, AUDIT_REL_TOL)
            detail = "windowed objective maximum increased"
            _flag(report, "window_monotonicity", detail, excess, shift=1)

            if g_bound is not None:
                floor = eta / (a * g_bound + lipschitz) - 1e-12
                report.checks_run += iterations
                detail = "accepted step below the guaranteed floor"
                _flag(report, "step_floor", detail, alpha < floor, floor - alpha)
                if trace.backtracks is not None:
                    backtracks = np.asarray(trace.backtracks)[:iterations]
                    cap = math.ceil(-math.log(hi * (a * g_bound + lipschitz)) / math.log(eta) + 1.0)
                    cap = max(cap, 0)
                    report.checks_run += iterations
                    _flag(
                        report,
                        "backtrack_cap",
                        lambda k: f"{int(backtracks[k])} backtracks exceed the bound {cap}",
                        backtracks > cap,
                        backtracks - cap,
                    )

        if trace.iterates is not None and problem is not None:
            iterates = np.asarray(trace.iterates, dtype=float)
            points = iterates.shape[0]
            evaluated = [eval_objective(problem, point) for point in iterates]
            in_domain = np.array([ext.in_domain for ext in evaluated], dtype=bool)
            recorded = objective[:points]
            gap = np.abs(np.array([ext.value for ext in evaluated]) - recorded)
            report.checks_run += points
            _flag(report, "domain", "iterate {k} lies outside dom(F)", ~in_domain, math.inf)
            detail = "recorded objective disagrees with re-evaluation"
            _flag(report, "objective_mismatch", detail, in_domain & (gap > slack(recorded)), gap)
            # Per-row norms, computed exactly as the solver computed each step.
            steps = max(0, min(iterations, points - 1))
            recomputed = [np.linalg.norm(iterates[k + 1] - iterates[k]) for k in range(steps)]
            gap = np.abs(np.array(recomputed, dtype=float) - step_norm[:steps])
            report.checks_run += steps
            detail = "recorded step norm disagrees with iterates"
            _flag(report, "step_mismatch", detail, gap > slack(step_norm[:steps]), gap)

    _audit_certificate(report, trace)
    return report


def _audit_certificate(report: AuditReport, trace: SolverTrace) -> None:
    """Check the certificate against the rows, as the solver decided it.

    A relative stop needs ||x_K||, which the rows do not hold, and a "domain_error"
    stop never records the point that left dom(F), so neither is checked.
    """
    cert, params, steps = trace.certificate, trace.params, trace.step_norm
    count, reason, last = cert.iterations, cert.converged_reason, float(trace.objective[-1])
    cap, tol = params["max_iter"], params["step_tol"]
    detail = f"certificate objective {cert.objective!r} is not the last row's {last!r}"
    claims = [(cert.objective != last, abs(cert.objective - last), detail)]
    claims.append((count > cap, count - cap, f"{count} steps exceed max_iter"))
    if reason == "max_iter":
        claims.append((count != cap, abs(cap - count), f"max_iter stop after {count} steps"))
    if not params["relative_tol"]:
        gap = float(steps[-1]) - tol if len(steps) else math.inf
        if reason == "step_tol":
            claims.append((not gap <= 0.0, gap, "step_tol stop with the last step above step_tol"))
        elif reason == "max_iter" and len(steps):
            claims.append((gap <= 0.0, -gap, "max_iter stop with the last step within step_tol"))
    report.checks_run += len(claims)
    for failed, magnitude, detail in claims:
        if failed:
            report.violations.append(AuditViolation(count, "certificate", float(magnitude), detail))


@dataclass(frozen=True)
class RateFit:
    """OLS fit of log(error-to-final) against the iteration counter."""

    slope: float
    intercept: float
    r_squared: float
    window: tuple[int, int]
    n_points: int


def fit_rate_from_errors(errors: Sequence[float]) -> RateFit:
    """Fit log(e_k) ~ slope * k + intercept on the stable part of the decay.

    ``errors`` are distances to the final iterate for k = 0 .. K-1 (the final
    point itself, whose error is exactly zero, must not be included).  The
    fit window is the last two-thirds of the sequence with the final
    RATE_FIT_TAIL_EXCLUSION points dropped; nonpositive entries inside the
    window are skipped.  Raises InsufficientDataError for short sequences and
    for degenerate fits (constant errors, empty window).
    """
    e = np.asarray(errors, dtype=float)
    total = e.shape[0]
    if total < RATE_FIT_MIN_LENGTH:
        raise InsufficientDataError(
            f"need at least {RATE_FIT_MIN_LENGTH} error points, got {total}"
        )
    start = total // 3
    end = total - RATE_FIT_TAIL_EXCLUSION
    ks = np.arange(start, end)
    window_errors = e[start:end]
    usable = window_errors > 0.0
    ks = ks[usable]
    window_errors = window_errors[usable]
    if ks.shape[0] < 2:
        raise InsufficientDataError("fewer than 2 positive errors in the fit window")
    logs = np.log(window_errors)
    k_centered = ks - ks.mean()
    sxx = float(k_centered @ k_centered)
    syy = float(np.sum((logs - logs.mean()) ** 2))
    if sxx == 0.0 or syy == 0.0:
        raise InsufficientDataError("degenerate fit window (constant errors or single k)")
    sxy = float(k_centered @ (logs - logs.mean()))
    slope = sxy / sxx
    intercept = float(logs.mean() - slope * ks.mean())
    r_squared = (sxy * sxy) / (sxx * syy)
    return RateFit(
        slope=slope,
        intercept=intercept,
        r_squared=r_squared,
        window=(int(ks[0]), int(ks[-1])),
        n_points=int(ks.shape[0]),
    )


def fit_linear_rate(trace: SolverTrace) -> RateFit:
    """Rate fit for a recorded run; requires iterates or an err_to_final column."""
    return fit_rate_from_errors(trace.errors_to_final()[:-1])
