"""Independent verification: gradient probes, trace audits, rate fitting.

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

from .exceptions import InsufficientDataError
from .pgsa import SolverTrace, _decrease_excess, _fixed_step_coef
from .problem import FractionalProblem, eval_objective

AUDIT_REL_TOL = 1e-10
# OLS fits drop this many points right before convergence, where the error is
# at machine-noise level and log(error) is meaningless.
RATE_FIT_TAIL_EXCLUSION = 5
RATE_FIT_MIN_LENGTH = 30


def fd_gradient_check(
    eval_fn: Callable[[np.ndarray], float],
    grad_fn: Callable[[np.ndarray], np.ndarray],
    x: np.ndarray,
    step: float | None = None,
) -> float:
    """Largest relative gap between grad_fn and central differences at x.

    The default step is 1e-5 * (1 + ||x||_inf), a reasonable compromise
    between truncation and cancellation for double precision.  Returns
    max_i |cd_i - g_i| / (1 + |g_i|); values around 1e-7 or below mean the
    gradient matches, values above 1e-3 reliably expose a wrong gradient.
    """
    x = np.asarray(x, dtype=float)
    if step is None:
        scale = float(np.max(np.abs(x))) if x.size else 0.0
        step = 1e-5 * (1.0 + scale)
    grad = np.asarray(grad_fn(x), dtype=float)
    worst = 0.0
    for i in range(x.shape[0]):
        bump = np.zeros_like(x)
        bump[i] = step
        central = (eval_fn(x + bump) - eval_fn(x - bump)) / (2.0 * step)
        gap = abs(central - grad[i]) / (1.0 + abs(grad[i]))
        worst = max(worst, gap)
    return worst


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

    def flagged_iterations(self) -> set[int]:
        return {v.iteration for v in self.violations}


def _audit_add(report: AuditReport, iteration: int, kind: str, magnitude: float, detail: str) -> None:
    report.violations.append(
        AuditViolation(iteration=iteration, kind=kind, magnitude=magnitude, detail=detail)
    )


def audit_trace(
    trace: SolverTrace,
    problem: FractionalProblem | None = None,
    mode: str | None = None,
    rel_tol: float = AUDIT_REL_TOL,
) -> AuditReport:
    """Re-verify a recorded run against the guarantees of its mode.

    Modes: "pgsa" checks monotone decrease with the fixed-step coefficient
    (1/alpha - L)/2 (or 1/alpha - L/2 for convex f) scaled by the denominator;
    "pgsa_ml" checks the monotone line-search acceptance with coefficient a/2;
    "pgsa_nl" checks acceptance against the running window maximum, that the
    windowed maxima never increase, and that no objective exceeds the starting
    value.  All modes check finite objectives, step bounds, and, when the
    denominator bound M is known, the guaranteed backtracking floor
    eta/(a*M + L) - 1e-12 and the matching cap on backtrack counts.

    The mode (unless ``mode`` overrides it), a, eta, N and the step bounds
    come from ``trace.params``.  L, the convexity of f and M are recomputed
    from ``problem`` when one is given, else read from ``trace.params`` too;
    only a problem lets recorded iterates be re-evaluated.

    Inequalities get slack rel_tol * (1 + |reference|); violations are
    collected, never raised, so a caller can report all of them at once.
    """
    params = trace.params
    mode = params["mode"] if mode is None else mode
    if mode not in ("pgsa", "pgsa_ml", "pgsa_nl"):
        raise ValueError(f"unknown audit mode {mode!r}")
    report = AuditReport(mode=mode)

    objective = np.asarray(trace.objective, dtype=float)
    g_value = np.asarray(trace.g_value, dtype=float)
    alpha = np.asarray(trace.alpha, dtype=float)
    step_norm = np.asarray(trace.step_norm, dtype=float)
    iterations = alpha.shape[0]

    if problem is not None:
        lipschitz, convex_f = problem.lipschitz_grad_h, problem.f_is_convex
        g_bound = problem.g_sup_bound
    else:
        lipschitz, convex_f = params["lipschitz"], params["f_is_convex"]
        g_bound = params["g_sup_bound"]
    hi = params["alpha_upper"]

    def slack(reference: float) -> float:
        return rel_tol * (1.0 + abs(reference))

    for k in range(objective.shape[0]):
        report.checks_run += 1
        if not math.isfinite(objective[k]):
            _audit_add(report, k, "domain", math.inf, f"objective at iterate {k} is not finite")

    if mode == "pgsa":
        lo = params["alpha_lower"]
        cap = (2.0 if convex_f else 1.0) / lipschitz
        for k in range(iterations):
            report.checks_run += 1
            if alpha[k] < lo - slack(lo):
                _audit_add(report, k, "step_bounds", lo - alpha[k], "step below alpha_lower")
            if alpha[k] > hi + slack(hi):
                _audit_add(report, k, "step_bounds", alpha[k] - hi, "step above alpha_upper")
            if alpha[k] >= cap:
                _audit_add(report, k, "step_bounds", alpha[k] - cap, "step at or above 1/L cap")
        for k in range(iterations):
            report.checks_run += 1
            coef = _fixed_step_coef(alpha[k], lipschitz, convex_f, g_value[k + 1])
            excess = _decrease_excess(objective[k + 1], objective[k], rel_tol, coef, step_norm[k])
            if excess:
                _audit_add(
                    report,
                    k + 1,
                    "sufficient_decrease",
                    excess,
                    f"decrease inequality fails from iterate {k} to {k + 1}",
                )
        for k in range(iterations):
            report.checks_run += 1
            excess = _decrease_excess(objective[k + 1], objective[k], rel_tol)
            if excess:
                _audit_add(
                    report,
                    k + 1,
                    "monotonicity",
                    excess,
                    f"objective increased from iterate {k} to {k + 1}",
                )
    else:
        a, eta, memory = params["a"], params["eta"], params["N"]
        backtracks = trace.backtracks

        window_max = np.empty(iterations)
        for k in range(iterations):
            window_max[k] = objective[max(0, k - memory) : k + 1].max()

        for k in range(iterations):
            report.checks_run += 1
            excess = _decrease_excess(
                objective[k + 1], window_max[k], rel_tol, 0.5 * a, step_norm[k]
            )
            if excess:
                _audit_add(
                    report,
                    k + 1,
                    "acceptance",
                    excess,
                    f"acceptance inequality fails at iterate {k + 1}",
                )
            if alpha[k] > hi + slack(hi):
                _audit_add(report, k, "step_bounds", alpha[k] - hi, "step above alpha_upper")
            report.checks_run += 1
            excess = _decrease_excess(objective[k + 1], objective[0], rel_tol)
            if excess:
                _audit_add(
                    report,
                    k + 1,
                    "level_set",
                    excess,
                    "objective left the initial level set",
                )

        # Windowed maxima over accepted values must never increase.
        for k in range(iterations):
            report.checks_run += 1
            next_max = objective[max(0, k + 1 - memory) : k + 2].max()
            excess = _decrease_excess(next_max, window_max[k], rel_tol)
            if excess:
                _audit_add(
                    report,
                    k + 1,
                    "window_monotonicity",
                    excess,
                    "windowed objective maximum increased",
                )

        if g_bound is not None:
            floor = eta / (a * g_bound + lipschitz) - 1e-12
            for k in range(iterations):
                report.checks_run += 1
                if alpha[k] < floor:
                    _audit_add(
                        report,
                        k,
                        "step_floor",
                        floor - alpha[k],
                        "accepted step below the guaranteed floor",
                    )
            if backtracks is not None:
                cap = math.ceil(-math.log(hi * (a * g_bound + lipschitz)) / math.log(eta) + 1.0)
                cap = max(cap, 0)
                for k in range(iterations):
                    report.checks_run += 1
                    if int(backtracks[k]) > cap:
                        _audit_add(
                            report,
                            k,
                            "backtrack_cap",
                            float(backtracks[k] - cap),
                            f"{int(backtracks[k])} backtracks exceed the bound {cap}",
                        )

    if trace.iterates is not None and problem is not None:
        iterates = np.asarray(trace.iterates, dtype=float)
        for k in range(iterates.shape[0]):
            report.checks_run += 1
            ext = eval_objective(problem, iterates[k])
            if not ext.in_domain:
                _audit_add(report, k, "domain", math.inf, f"iterate {k} lies outside dom(F)")
            elif abs(ext.value - objective[k]) > slack(objective[k]):
                _audit_add(
                    report,
                    k,
                    "objective_mismatch",
                    abs(ext.value - objective[k]),
                    "recorded objective disagrees with re-evaluation",
                )
        for k in range(min(iterations, iterates.shape[0] - 1)):
            report.checks_run += 1
            recomputed = float(np.linalg.norm(iterates[k + 1] - iterates[k]))
            if abs(recomputed - step_norm[k]) > slack(step_norm[k]):
                _audit_add(
                    report,
                    k,
                    "step_mismatch",
                    abs(recomputed - step_norm[k]),
                    "recorded step norm disagrees with iterates",
                )

    return report


@dataclass(frozen=True)
class RateFit:
    """OLS fit of log(error-to-final) against the iteration counter."""

    slope: float
    intercept: float
    r_squared: float
    window: tuple[int, int]
    n_points: int

    @property
    def is_linear_decay(self) -> bool:
        return self.slope < 0.0 and self.r_squared >= 0.9


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
    """Rate fit for a recorded run; requires the trace to carry iterates."""
    if trace.iterates is None:
        raise InsufficientDataError("trace has no iterates; rerun with record_trace")
    errors = trace.errors_to_final()[:-1]
    return fit_rate_from_errors(errors)
