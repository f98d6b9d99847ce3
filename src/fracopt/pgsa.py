"""The proximity-gradient-subgradient iteration and its two step rules.

One iteration linearizes the denominator through a subgradient, takes a
gradient step on the smooth part scaled by the current objective value, and
applies the prox of the nonsmooth part:

    y      in  subgrad g(x_k)
    c_k    =   F(x_k)
    x_{k+1} in prox_{alpha_k f}( x_k + alpha_k * (c_k * y - grad_h(x_k)) )

All three solvers run this iteration in one driver and differ only in the
step rule that picks alpha_k.  ``run_pgsa`` uses the fixed rule: with a
constant step bounded away from 0 and 1/L (2/L when f is convex) the
objective decreases monotonically and the iterates stay inside dom(F).

``run_pgsa_ls`` uses the backtracking rule.  Each iteration seeds a trial
step from consecutive iterate and gradient differences (a Barzilai-Borwein
quotient clamped to configured bounds), then shrinks it geometrically until
the trial point is feasible and its objective sits below the maximum over
the last N+1 accepted values minus a quadratic decrease term:

    F(x_trial) <= max_{[k-N]+ <= j <= k} F(x_j) - (a/2) * ||x_trial - x_k||^2

N = 0 forces monotone decrease; N > 0 allows occasional increases while the
windowed maxima still decrease.  Accepted steps never fall below
eta / (a * M + L), where M bounds the denominator on the initial level set,
so backtracking always terminates for correctly specified problems.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from .exceptions import InsufficientDataError, InvalidConfigError, LineSearchError, NumericsError
from .problem import (
    Certificate,
    ExtendedObjective,
    FractionalProblem,
    _check_count,
    _feasible_objective,
    _norm,
    eval_objective,
)


# A trial step is never shrunk more than this many times; with the default
# eta = 0.5 this covers a dynamic range of 2^60 between the seed step and the
# guaranteed acceptance threshold.
MAX_BACKTRACKS = 60

# Once alpha <= 1/(aM + L) acceptance holds in exact arithmetic, so a trial
# value exceeding the window by at most this relative slack is rounding noise
# from a near-critical iterate, not a genuine rejection.  Kept two orders
# below the 1e-10 audit tolerance so slack-accepted steps still audit clean.
ACCEPT_REL_SLACK = 1e-12

# A traced run reserves up to this many bytes of iterate rows and touches only those it writes.
ITERATE_RESERVE_BYTES = 2**30


@dataclass(frozen=True)
class PgsaConfig:
    """Configuration for run_pgsa.

    ``alpha`` > 0 is the constant step size, the integer ``max_iter`` >= 0
    the iteration cap and ``step_tol`` >= 0 the stop tolerance on the step
    norm, relative to the iterate norm when ``relative_tol`` is set.
    Construction checks these signs and that each set value is finite;
    ``_resolve`` fills the unset ones and checks alpha against L.
    """

    alpha: float | None = None
    max_iter: int | None = None
    step_tol: float | None = None
    relative_tol: bool = False
    record_trace: bool = False

    def __post_init__(self) -> None:
        _check_stop(self)
        if self.alpha is not None and not 0.0 < self.alpha < math.inf:
            raise InvalidConfigError(
                f"step size alpha must be positive and finite, got {float(self.alpha)}"
            )


def _check_stop(cfg: Any) -> None:
    """Reject a max_iter that is no count and a negative or non-finite step_tol (both configs)."""
    if cfg.max_iter is not None:
        _check_count("max_iter", cfg.max_iter, 0, error=InvalidConfigError)
    if cfg.step_tol is not None and not 0 <= cfg.step_tol < math.inf:
        raise InvalidConfigError(f"step_tol must be nonnegative and finite, got {cfg.step_tol}")


@dataclass(frozen=True)
class LineSearchConfig:
    """Configuration for run_pgsa_ls.

    ``a`` > 0 is the quadratic decrease coefficient, ``eta`` in (0, 1) the
    backtracking factor and the integer ``N`` >= 0 the nonmonotone memory
    (0 = monotone); ``max_iter`` and ``step_tol`` are checked as in PgsaConfig.  run_pgsa_ls
    clamps trial steps into [alpha_lower, alpha_upper] and seeds the first at
    ``alpha0``; ``a`` and the step ends must be finite.  ``_resolve`` fills
    the unset fields.
    """

    a: float = 1e-3
    eta: float = 0.5
    N: int = 4
    alpha_lower: float | None = None
    alpha_upper: float = 1e8
    alpha0: float | None = None
    max_iter: int | None = None
    step_tol: float | None = None
    relative_tol: bool = False
    record_trace: bool = False

    def __post_init__(self) -> None:
        _check_stop(self)
        if not 0.0 < self.a < math.inf:
            raise InvalidConfigError("decrease coefficient a must be positive and finite")
        if not (0.0 < self.eta < 1.0):
            raise InvalidConfigError("backtracking factor eta must lie in (0, 1)")
        _check_count("N", self.N, 0, error=InvalidConfigError)
        # The ends that are set; _resolve checks again once it fills the rest.
        _check_step_interval(self.alpha_lower, self.alpha_upper, self.alpha0)


def _check_step_interval(lo: float | None, hi: float, seed: float | None) -> None:
    """Reject unless 0 < lo <= seed <= hi < inf, leaving out an unset lo or seed."""
    if not (0.0 < hi < math.inf and (lo is None or 0.0 < lo <= hi)):
        raise InvalidConfigError(f"need 0 < alpha_lower <= alpha_upper < inf, got [{lo}, {hi}]")
    if seed is not None and not (0.0 < seed <= hi and (lo is None or lo <= seed)):
        raise InvalidConfigError("alpha0 must lie within [alpha_lower, alpha_upper]")


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
    or read from a trace file, so a reloaded trace keeps it.  ``params`` is what
    ``_resolve`` made of the run's config and problem; the trace file carries it,
    so an audit reads every parameter from here and never guesses one.
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


def _resolve(
    cfg: Any, lipschitz: float, f_is_convex: bool, g_sup_bound: float | None, n: int
) -> dict[str, Any]:
    """The ``params`` a run of ``cfg`` records on an n-dim problem with these L, f and M.

    Unset steps are 0.99/L (1.99/L for convex f), an unset max_iter 2n (10n
    with relative_tol) and an unset step_tol 1e-6 (1e-8 relative to ||x||).
    InvalidConfigError refuses L <= 0, M < 0, a fixed step at or above 1/L
    (2/L for convex f) and a line-search step interval out of order.
    """
    if not lipschitz > 0.0:
        raise InvalidConfigError(f"lipschitz must be positive, got {lipschitz}")
    if g_sup_bound is not None and not g_sup_bound >= 0.0:
        raise InvalidConfigError(f"g_sup_bound must be nonnegative, got {g_sup_bound}")
    default = ((2.0 if f_is_convex else 1.0) - 0.01) / lipschitz
    if isinstance(cfg, PgsaConfig):
        lo = hi = default if cfg.alpha is None else float(cfg.alpha)
        params = {"mode": "pgsa", "alpha": lo}
    else:
        lo = default if cfg.alpha_lower is None else cfg.alpha_lower
        hi, seed = float(cfg.alpha_upper), (lo if cfg.alpha0 is None else cfg.alpha0)
        _check_step_interval(lo, hi, seed)
        mode = "pgsa_ml" if cfg.N == 0 else "pgsa_nl"
        params = {"mode": mode, "a": cfg.a, "eta": cfg.eta, "N": int(cfg.N), "alpha0": seed}
    cap = (2.0 if f_is_convex else 1.0) / lipschitz
    if params["mode"] == "pgsa" and not lo < cap:
        kind = "2/L (convex f)" if f_is_convex else "1/L"
        raise InvalidConfigError(f"alpha = {lo:.6e} must stay strictly below {kind} = {cap:.6e}")
    relative = bool(cfg.relative_tol)
    params.update(alpha_lower=lo, alpha_upper=hi, relative_tol=relative, lipschitz=lipschitz)
    params.update(f_is_convex=bool(f_is_convex), g_sup_bound=g_sup_bound)
    iterations = 10 * n if relative else 2 * n
    params["max_iter"] = iterations if cfg.max_iter is None else int(cfg.max_iter)  # no np.int64
    params["step_tol"] = (1e-8 if relative else 1e-6) if cfg.step_tol is None else cfg.step_tol
    return params


def _trial_point(
    problem: FractionalProblem, x: np.ndarray, direction: np.ndarray, alpha: float
) -> tuple[np.ndarray, ExtendedObjective, float]:
    """x_new = prox_{alpha f}(x + alpha * direction), F there and ||x_new - x||."""
    # min() propagates NaN, so one reduction tests every entry.
    anchor = x + alpha * direction
    if math.isnan(anchor.min()):
        raise NumericsError("NaN in step anchor (gradient or subgradient callback)")
    x_new = np.asarray(problem.prox_f(alpha, anchor), dtype=float)
    square = (diff := x_new - x).dot(diff)  # NaN if x_new holds a NaN, but also from inf - inf
    if math.isnan(square) and math.isnan(np.minimum.reduce(x_new)):
        raise NumericsError("NaN from prox callback")
    return x_new, eval_objective(problem, x_new), math.sqrt(square)  # _norm(diff), bit for bit


def _solve(
    problem: FractionalProblem,
    x0: np.ndarray,
    record_trace: bool,
    step_rule: Callable[..., tuple],
    params: dict[str, Any],
) -> SolverTrace:
    """The iteration loop of every solver; the trace keeps ``params``, whose stop rule it ran.

    ``step_rule(x, F(x), grad_h(x), direction)`` returns x_new, F(x_new), ||x_new - x||,
    the step size and the number of backtracks.  run_pgsa documents the stop reasons.
    """
    x = np.asarray(x0, dtype=float).copy()
    ext = _feasible_objective(problem, x, "x0")
    n = x.shape[0]
    max_iter, step_tol, relative = params["max_iter"], params["step_tol"], params["relative_tol"]

    objective = [ext.value]
    g_value = [ext.denominator]
    alphas: list[float] = []
    steps: list[float] = []
    backtracks: list[int] = []
    iterates = None
    if record_trace:
        iterates = np.empty((min(max_iter + 1, 1 + ITERATE_RESERVE_BYTES // max(x.nbytes, 1)), n))
        iterates[0] = x
    reason = "max_iter"

    for _ in range(max_iter):
        grad = problem.grad_h(x)
        direction = ext.value * problem.subgrad_g(x) - grad
        x_new, new_ext, step, alpha, m = step_rule(x, ext, grad, direction)
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
                # Past the reservation, grow by a quarter: resize zero-fills every new row.
                iterates.resize((len(alphas) * 5 // 4 + 64, n), refcheck=False)
            iterates[len(alphas)] = x_new
        x, ext = x_new, new_ext
        scale = _norm(x_new) if relative else 1.0  # a relative stop divides by ||x_new||
        if (step / scale if scale > 0 else math.inf) <= step_tol:
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
        params=params,
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
        Unset fields take the defaults that ``_resolve`` describes.

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
    params = _resolve(
        cfg, problem.lipschitz_grad_h, problem.f_is_convex, problem.g_sup_bound, problem.dim
    )
    alpha = params["alpha"]

    def fixed_step(x, ext, grad, direction):
        # audit_trace's sufficient_decrease check tests the guaranteed decrease.
        return (*_trial_point(problem, x, direction, alpha), alpha, 0)

    return _solve(problem, x0, cfg.record_trace, fixed_step, params)


def bb_initial_step(
    dx: np.ndarray, dgrad: np.ndarray, alpha_lower: float, alpha_upper: float
) -> float:
    """Spectral trial step from the last iterate and gradient differences.

    Returns ||dx||^2 / |<dx, dgrad>| clamped into [alpha_lower, alpha_upper],
    or alpha_upper when the inner product vanishes.  The caller has checked
    the interval once, through _check_step_interval.
    """
    inner = float(np.dot(dx, dgrad))
    if inner == 0.0:
        return alpha_upper
    raw = float(np.dot(dx, dx)) / abs(inner)
    return min(alpha_upper, max(alpha_lower, raw))


def _backtrack(
    problem: FractionalProblem,
    x: np.ndarray,
    direction: np.ndarray,
    window_max: float,
    alpha0: float,
    cfg: LineSearchConfig,
) -> tuple[np.ndarray, ExtendedObjective, float, float, int]:
    """Shrink alpha0 geometrically until the acceptance test passes.

    Returns the accepted point, F there, its step norm and step size, and
    the number of backtracks.  Below the guaranteed threshold 1/(aM + L) a
    candidate matching the window to within ACCEPT_REL_SLACK is accepted as
    well; without that escape a near-critical iterate can be rejected
    forever on rounding noise alone.
    """
    bound = problem.g_sup_bound
    guaranteed = None if bound is None else 1.0 / (cfg.a * bound + problem.lipschitz_grad_h)
    alpha = alpha0
    for m in range(MAX_BACKTRACKS + 1):
        x_trial, ext, step = _trial_point(problem, x, direction, alpha)
        if ext.in_domain:
            if not _decrease_excess(ext.value, window_max, coef=0.5 * cfg.a, step=step):
                return x_trial, ext, step, alpha, m
            if (
                guaranteed is not None
                and alpha <= guaranteed
                and not _decrease_excess(ext.value, window_max, ACCEPT_REL_SLACK)
            ):
                return x_trial, ext, step, alpha, m
        alpha *= cfg.eta
    raise LineSearchError(
        f"no acceptable step after {MAX_BACKTRACKS} backtracks from alpha0 = {alpha0:.6e}"
    )


def run_pgsa_ls(
    problem: FractionalProblem,
    x0: np.ndarray,
    config: LineSearchConfig | None = None,
) -> SolverTrace:
    """Run the line-search solver from x0.

    Stopping mirrors run_pgsa: "step_tol" when the (relative, if configured)
    step norm reaches the tolerance, "max_iter" at the cap, "domain_error"
    only if corrupted callbacks drive an accepted iterate out of dom(F),
    which the acceptance test itself prevents for sound problems.
    """
    cfg = config or LineSearchConfig()
    params = _resolve(
        cfg, problem.lipschitz_grad_h, problem.f_is_convex, problem.g_sup_bound, problem.dim
    )
    lo, hi, seed, last = params["alpha_lower"], params["alpha_upper"], params["alpha0"], None
    window: deque[float] = deque(maxlen=params["N"] + 1)

    def backtracking_step(x, ext, grad, direction):
        # From the second step on, the trial step is the BB quotient of the
        # last accepted step and the gradient change along it.
        nonlocal seed, last
        if last is not None:
            seed = bb_initial_step(x - last[0], grad - last[1], lo, hi)
        last = (x, grad)
        window.append(ext.value)
        return _backtrack(problem, x, direction, max(window), seed, cfg)

    return _solve(problem, x0, cfg.record_trace, backtracking_step, params)
