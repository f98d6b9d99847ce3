"""The proximity-gradient-subgradient iteration and its fixed step rule.

One iteration linearizes the denominator through a subgradient, takes a
gradient step on the smooth part scaled by the current objective value, and
applies the prox of the nonsmooth part:

    y      in  subgrad g(x_k)
    c_k    =   F(x_k)
    x_{k+1} in prox_{alpha_k f}( x_k + alpha_k * (c_k * y - grad_h(x_k)) )

All three solvers run this iteration in one driver and differ only in the
step rule that picks alpha_k.  ``run_pgsa`` uses the fixed rule defined here:
with a constant step bounded away from 0 and 1/L (2/L when f is convex) the
objective decreases monotonically and the iterates stay inside dom(F).
``run_pgsa_ls`` in ``linesearch`` uses the backtracking rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from .exceptions import InsufficientDataError, InvalidConfigError, NumericsError
from .problem import (
    Certificate,
    ExtendedObjective,
    FractionalProblem,
    _feasible_objective,
    _norm,
    eval_objective,
)


@dataclass(frozen=True)
class PgsaConfig:
    """Configuration for run_pgsa.

    ``alpha`` > 0 is the constant step size; None picks 0.99/L, or 1.99/L
    when f is convex.  ``max_iter`` >= 0 defaults to 2n, or 10n when
    ``relative_tol`` is set; ``step_tol`` >= 0 defaults to 1e-6 absolute, or
    1e-8 relative to the iterate norm.  Construction checks these signs.
    """

    alpha: float | None = None
    max_iter: int | None = None
    step_tol: float | None = None
    relative_tol: bool = False
    record_trace: bool = False

    def __post_init__(self) -> None:
        _check_stop(self)
        if self.alpha is not None and not self.alpha > 0.0:
            raise InvalidConfigError(f"step size alpha must be positive, got {float(self.alpha)}")


def _check_stop(cfg: Any) -> None:
    """Reject a negative or NaN max_iter or step_tol; both solver configs call this."""
    for name, value in (("max_iter", cfg.max_iter), ("step_tol", cfg.step_tol)):
        if value is not None and not value >= 0:
            raise InvalidConfigError(f"{name} must be nonnegative, got {value}")


@dataclass
class SolverTrace:
    """Everything a solver run recorded, enough to re-audit it offline.

    Arrays are indexed so that ``objective[k]`` is F(x_k) for k = 0..K, while
    ``alpha[k]`` and ``step_norm[k]`` describe the step from x_k to x_{k+1}
    for k = 0..K-1.  The scaling sequence c_k equals the objective sequence
    by construction (each c_k is the objective value reused from the previous
    evaluation).  ``iterates`` is only populated when the run was configured
    with record_trace; ``run_experiment`` returns them as a read-only memory
    map.  ``err_to_final``, ||x_k - x_K|| per iterate, is filled once from them
    or read from a trace file, so a reloaded trace keeps it.  ``params`` holds the
    resolved step rule ("mode", the step bounds and, for the line search, "a",
    "eta" and "N") and stop rule ("max_iter", "step_tol", "relative_tol") with
    the problem's "lipschitz", "f_is_convex" and "g_sup_bound"; the trace file
    carries it, so an audit reads every parameter from here and never guesses one.
    """

    objective: np.ndarray
    g_value: np.ndarray
    alpha: np.ndarray
    step_norm: np.ndarray
    final_x: np.ndarray
    certificate: Certificate
    params: dict[str, Any]
    backtracks: np.ndarray | None = None
    iterates: np.ndarray | None = None
    err_to_final: np.ndarray | None = None

    @property
    def iterations(self) -> int:
        return int(self.alpha.shape[0])

    def errors_to_final(self) -> np.ndarray:
        """``err_to_final``, read-only; computed once from ``iterates`` if unset.

        Raises InsufficientDataError when the trace has neither.

        One pass over blocks of 64 rows through one reused scratch buffer, so
        no temporary as large as ``iterates`` is made, bit-identical to
        ``np.linalg.norm(iterates - iterates[-1], axis=1)``.  Kept, like ``objective``,
        when ``iterates`` changes; ``replace(..., err_to_final=None)`` recomputes it.
        """
        if self.err_to_final is None:
            if self.iterates is None:
                raise InsufficientDataError("trace has no iterates and no err_to_final column")
            iterates, rows = self.iterates, 64
            errors = np.empty(iterates.shape[0])
            scratch = np.empty((rows,) + iterates.shape[1:])
            for start in range(0, iterates.shape[0], rows):
                block = iterates[start : start + rows]
                diff = np.subtract(block, iterates[-1], out=scratch[: block.shape[0]])
                np.multiply(diff, diff, out=diff)
                np.sqrt(np.add.reduce(diff, axis=1), out=errors[start : start + rows])
            self.err_to_final = errors
        self.err_to_final.flags.writeable = False  # a pickled or parsed column arrives writeable
        return self.err_to_final


def _decrease_excess(value, reference, rel_slack=0.0, coef=0.0, step=0.0):
    """0.0 while value + coef * step**2 <= reference + rel_slack * (1 + |reference|),
    else how far the left side exceeds reference.

    The one decrease test of the package: the line-search acceptance and
    every audit check that a value did not rise.
    Takes floats or numpy arrays.  On arrays it works elementwise and takes
    the difference only where the inequality fails, so an entry with a NaN,
    or with inf on both sides, gives 0.0 exactly as it does on floats.
    """
    lhs = value + coef * step**2
    over = lhs > reference + rel_slack * (1.0 + abs(reference))
    if isinstance(over, np.ndarray):
        return np.subtract(lhs, reference, out=np.zeros(over.shape), where=over)
    return lhs - reference if over else 0.0


def _default_step(problem: FractionalProblem) -> float:
    """0.99/L, or 1.99/L when f is convex: just inside the admissible range."""
    return ((2.0 if problem.f_is_convex else 1.0) - 0.01) / problem.lipschitz_grad_h


def _stop_metric(step: float, x_new: np.ndarray, relative: bool) -> float:
    if not relative:
        return step
    norm = _norm(x_new)
    return step / norm if norm > 0 else math.inf


def _descent_direction(
    problem: FractionalProblem, x: np.ndarray, value: float
) -> tuple[np.ndarray, np.ndarray]:
    """grad_h(x) and the step direction value * subgrad_g(x) - grad_h(x)."""
    grad = problem.grad_h(x)
    return grad, value * problem.subgrad_g(x) - grad


def _trial_point(
    problem: FractionalProblem, x: np.ndarray, direction: np.ndarray, alpha: float
) -> tuple[np.ndarray, ExtendedObjective]:
    """prox_{alpha f}(x + alpha * direction) and F there."""
    # min() propagates NaN, so one reduction tests every entry.
    anchor = x + alpha * direction
    if math.isnan(anchor.min()):
        raise NumericsError("NaN in step anchor (gradient or subgradient callback)")
    x_new = np.asarray(problem.prox_f(alpha, anchor), dtype=float)
    if math.isnan(x_new.min()):
        raise NumericsError("NaN from prox callback")
    return x_new, eval_objective(problem, x_new)


def _solve(
    problem: FractionalProblem,
    x0: np.ndarray,
    cfg: Any,
    step_rule: Callable[..., tuple],
    params: dict[str, Any],
) -> SolverTrace:
    """The iteration loop of every solver.

    ``cfg`` is a PgsaConfig or LineSearchConfig, of which only the stopping
    and trace fields are read here.  ``step_rule(k, x, F(x), grad_h(x),
    direction)`` returns x_new, F(x_new), the step size, ||x_new - x|| and
    the number of backtracks; ``params`` describes the rule for the trace.
    The run stops with reason "step_tol" when the (relative, if configured)
    step norm drops to the tolerance, "max_iter" at the iteration cap, and
    "domain_error" if an iterate ever leaves dom(F), which the theory rules
    out for correctly specified problems but corrupted callbacks can produce.
    """
    x = np.asarray(x0, dtype=float).copy()
    ext = _feasible_objective(problem, x, "x0")
    n = x.shape[0]
    max_iter = cfg.max_iter if cfg.max_iter is not None else (10 * n if cfg.relative_tol else 2 * n)
    step_tol = cfg.step_tol if cfg.step_tol is not None else (1e-8 if cfg.relative_tol else 1e-6)

    objective = [ext.value]
    g_value = [ext.denominator]
    alphas: list[float] = []
    steps: list[float] = []
    backtracks: list[int] = []
    iterates = np.array([x]) if cfg.record_trace else None
    reason = "max_iter"

    for k in range(max_iter):
        grad, direction = _descent_direction(problem, x, ext.value)
        x_new, new_ext, alpha, step, m = step_rule(k, x, ext, grad, direction)
        if not new_ext.in_domain:
            reason = "domain_error"
            break
        alphas.append(alpha)
        steps.append(step)
        backtracks.append(m)
        objective.append(new_ext.value)
        g_value.append(new_ext.denominator)
        if iterates is not None:
            if len(alphas) == iterates.shape[0]:
                # A quarter more, not double: resize zero-fills, so every new row is resident.
                iterates.resize((len(alphas) * 5 // 4 + 64, n), refcheck=False)
            iterates[len(alphas)] = x_new
        x, ext = x_new, new_ext
        if _stop_metric(step, x_new, cfg.relative_tol) <= step_tol:
            reason = "step_tol"
            break

    if iterates is not None:
        iterates.resize((len(alphas) + 1, n), refcheck=False)
    cert = Certificate(
        objective=ext.value,
        criticality_residual=problem.critical_residual(x),
        iterations=len(alphas),
        converged_reason=reason,
    )
    return SolverTrace(
        objective=np.asarray(objective),
        g_value=np.asarray(g_value),
        alpha=np.asarray(alphas),
        step_norm=np.asarray(steps),
        final_x=x,
        certificate=cert,
        params={
            **params,
            "max_iter": max_iter,
            "step_tol": step_tol,
            "relative_tol": cfg.relative_tol,
            "lipschitz": problem.lipschitz_grad_h,
            "f_is_convex": problem.f_is_convex,
            "g_sup_bound": problem.g_sup_bound,
        },
        backtracks=np.asarray(backtracks, dtype=int) if params["mode"] != "pgsa" else None,
        iterates=iterates,
    )


def run_pgsa(
    problem: FractionalProblem,
    x0: np.ndarray,
    config: PgsaConfig | None = None,
) -> SolverTrace:
    """Run the fixed-step solver from x0 until the step norm is small.

    Parameters
    ----------
    problem : FractionalProblem
        Must satisfy the standing assumptions; x0 must be in dom(F).
    x0 : array
        Starting point.
    config : PgsaConfig, optional
        Unset fields are filled with the defaults described on PgsaConfig.

    Returns
    -------
    SolverTrace
        Per-iteration history plus a Certificate.  The run stops with reason
        "step_tol" when the (relative, if configured) step norm drops to the
        tolerance, "max_iter" at the iteration cap, and "domain_error" if an
        iterate ever leaves dom(F), which the theory rules out for correctly
        specified problems but corrupted callbacks can produce.
    """
    cfg = config or PgsaConfig()
    lipschitz, convex = problem.lipschitz_grad_h, problem.f_is_convex
    alpha = _default_step(problem) if cfg.alpha is None else float(cfg.alpha)
    cap = (2.0 if convex else 1.0) / lipschitz
    if not alpha < cap:
        kind = "2/L (convex f)" if convex else "1/L"
        raise InvalidConfigError(f"alpha = {alpha:.6e} must stay strictly below {kind} = {cap:.6e}")

    def fixed_step(k, x, ext, grad, direction):
        # audit_trace's sufficient_decrease check tests the guaranteed decrease.
        x_new, new_ext = _trial_point(problem, x, direction, alpha)
        return x_new, new_ext, alpha, _norm(x_new - x), 0

    params = {"mode": "pgsa", "alpha": alpha, "alpha_lower": alpha, "alpha_upper": alpha}
    return _solve(problem, x0, cfg, fixed_step, params)
