"""Backtracking step rule for the ratio solver, with a spectral initial step.

Each iteration seeds a trial step from consecutive iterate and gradient
differences (a Barzilai-Borwein quotient clamped to configured bounds), then
shrinks it geometrically until the trial point is feasible and its objective
sits below the maximum over the last N+1 accepted values minus a quadratic
decrease term:

    F(x_trial) <= max_{[k-N]+ <= j <= k} F(x_j) - (a/2) * ||x_trial - x_k||^2

N = 0 forces monotone decrease; N > 0 allows occasional increases while the
windowed maxima still decrease.  Accepted steps never fall below
eta / (a * M + L), where M bounds the denominator on the initial level set,
so backtracking always terminates for correctly specified problems.

``run_pgsa_ls`` runs this rule in the same driver as ``run_pgsa``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .exceptions import InvalidConfigError, LineSearchError
from .pgsa import SolverTrace, _check_stop, _decrease_excess, _default_step, _solve, _trial_point
from .problem import ExtendedObjective, FractionalProblem, _norm

# A trial step is never shrunk more than this many times; with the default
# eta = 0.5 this covers a dynamic range of 2^60 between the seed step and the
# guaranteed acceptance threshold.
MAX_BACKTRACKS = 60

# Once alpha <= 1/(aM + L) acceptance holds in exact arithmetic, so a trial
# value exceeding the window by at most this relative slack is rounding noise
# from a near-critical iterate, not a genuine rejection.  Kept two orders
# below the 1e-10 audit tolerance so slack-accepted steps still audit clean.
ACCEPT_REL_SLACK = 1e-12


@dataclass(frozen=True)
class LineSearchConfig:
    """Configuration for run_pgsa_ls.

    ``a`` > 0 is the quadratic decrease coefficient, ``eta`` in (0, 1) the
    backtracking factor and ``N`` >= 0 the nonmonotone memory (0 = monotone);
    ``max_iter`` and ``step_tol`` default and are checked as in PgsaConfig.
    run_pgsa_ls clamps trial steps into [alpha_lower, alpha_upper], whose lower
    end and the first seed ``alpha0`` default to 0.99/L (1.99/L for convex f).
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
        if not self.a > 0:
            raise InvalidConfigError("decrease coefficient a must be positive")
        if not (0.0 < self.eta < 1.0):
            raise InvalidConfigError("backtracking factor eta must lie in (0, 1)")
        if self.N < 0:
            raise InvalidConfigError("window memory N must be nonnegative")
        # The ends that are set; run_pgsa_ls checks again once 0.99/L fills the rest.
        _check_step_interval(self.alpha_lower, self.alpha_upper, self.alpha0)


def _check_step_interval(lo: float | None, hi: float, seed: float | None) -> None:
    """Reject unless 0 < lo <= seed <= hi, leaving out an unset lo or seed."""
    if not (0.0 < hi and (lo is None or 0.0 < lo <= hi)):
        raise InvalidConfigError(f"need 0 < alpha_lower <= alpha_upper, got [{lo}, {hi}]")
    if seed is not None and not (0.0 < seed <= hi and (lo is None or lo <= seed)):
        raise InvalidConfigError("alpha0 must lie within [alpha_lower, alpha_upper]")


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

    Returns the accepted point, F there, its step size and step norm, and
    the number of backtracks.  Below the guaranteed threshold 1/(aM + L) a
    candidate matching the window to within ACCEPT_REL_SLACK is accepted as
    well; without that escape a near-critical iterate can be rejected
    forever on rounding noise alone.
    """
    bound = problem.g_sup_bound
    guaranteed = None if bound is None else 1.0 / (cfg.a * bound + problem.lipschitz_grad_h)
    alpha = alpha0
    for m in range(MAX_BACKTRACKS + 1):
        x_trial, ext = _trial_point(problem, x, direction, alpha)
        if ext.in_domain:
            step = _norm(x_trial - x)
            if not _decrease_excess(ext.value, window_max, coef=0.5 * cfg.a, step=step):
                return x_trial, ext, alpha, step, m
            if (
                guaranteed is not None
                and alpha <= guaranteed
                and not _decrease_excess(ext.value, window_max, ACCEPT_REL_SLACK)
            ):
                return x_trial, ext, alpha, step, m
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
    lo = cfg.alpha_lower if cfg.alpha_lower is not None else _default_step(problem)
    hi = float(cfg.alpha_upper)
    alpha_seed = cfg.alpha0 if cfg.alpha0 is not None else lo
    _check_step_interval(lo, hi, alpha_seed)
    seed, last = alpha_seed, (None, None)
    window: deque[float] = deque(maxlen=cfg.N + 1)

    def backtracking_step(k, x, ext, grad, direction):
        # From the second step on, the trial step is the BB quotient of the
        # last accepted step and the gradient change along it.
        nonlocal seed, last
        if k > 0:
            seed = bb_initial_step(x - last[0], grad - last[1], lo, hi)
        last = (x, grad)
        window.append(ext.value)
        return _backtrack(problem, x, direction, max(window), seed, cfg)

    params = {
        "mode": "pgsa_ml" if cfg.N == 0 else "pgsa_nl",
        "a": cfg.a,
        "eta": cfg.eta,
        "N": cfg.N,
        "alpha_lower": lo,
        "alpha_upper": hi,
        "alpha0": alpha_seed,
    }
    return _solve(problem, x0, cfg, backtracking_step, params)
