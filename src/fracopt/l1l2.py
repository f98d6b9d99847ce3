"""Box-constrained sparse recovery with an l1-over-l2 ratio objective.

The model is

    minimize  (lam * ||x||_1 + ind_box(x) + 0.5 * ||A x - b||_2^2) / ||x||_2

in the ratio template f = lam * ||.||_1 + indicator of [lower, upper],
h = 0.5 * ||A x - b||^2 and g = ||.||_2.  f is convex, so the solvers may use
steps up to 2/L with L = ||A||_2^2.  Soft-thresholding followed by clipping is
the exact prox of f whenever the box contains 0, which construction enforces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .exceptions import DegenerateInputError, DimensionMismatchError, InvalidProblemError
from .problem import FractionalProblem, _check_count, _norm
from .rand import as_generator

# ||x||_2 at or below this counts as the origin for the l2 subgradient.
ZERO_NORM_EPS = 1e-14
# Tolerance for box membership.
BOX_TOL = 1e-12
INITIALIZER_ITERATIONS = 2000
INITIALIZER_PENALTY_SCALE = 1e-6


def _shrink_clip(
    z: np.ndarray, threshold: float, lower: np.ndarray, upper: np.ndarray
) -> np.ndarray:
    """Soft-threshold by ``threshold``, then clip into [lower, upper].

    This is the exact prox of threshold * ||.||_1 + indicator of the box
    whenever the box contains the origin componentwise (clipping commutes
    with shrinkage toward an interior zero).  Outside that regime it is still
    the shrink-then-clip map, just not a prox.  Unchecked: the caller ensures
    threshold >= 0 and lower <= upper.

    The clip is spelled as a maximum then a minimum, which gives the very
    values of ``np.clip`` (NaN and signed zeros included) at under half the
    cost of its Python wrapper.
    """
    shrunk = np.sign(z) * np.maximum(np.abs(z) - threshold, 0.0)
    return np.minimum(np.maximum(shrunk, lower), upper)


def _check_penalty(lam: float, lower: float | np.ndarray, upper: float | np.ndarray) -> None:
    """Require 0 < lam < inf and a finite, nonempty box around the origin; bounds may be scalars."""
    if not 0 < lam < math.inf:
        raise InvalidProblemError("penalty weight lam must be positive and finite")
    if not (np.isfinite(lower).all() and np.isfinite(upper).all()):
        raise InvalidProblemError("box bounds must be finite")
    if np.any(lower > upper):
        raise InvalidProblemError("box is empty: lower > upper somewhere")
    if np.any(lower > 0.0) or np.any(upper < 0.0):
        raise InvalidProblemError("box must contain the origin componentwise")


@dataclass(frozen=True, eq=False)
class L1L2PenaltyProblem(FractionalProblem):
    """Ratio-structured sparse recovery instance.

    Construction requires finite nonempty data, a finite nonempty box containing
    the origin (otherwise the shrink-then-clip prox would be inexact) and a
    positive penalty weight.  L = ||A||_2^2 comes from the spectrum of the
    smaller Gram matrix.  A, b and the box are stored as read-only private
    copies, since L, M and the box tolerances are computed once from them.
    """

    sensing: np.ndarray
    observation: np.ndarray
    lam: float
    lower: np.ndarray
    upper: np.ndarray
    _lipschitz: float = field(init=False, repr=False)
    _box_tol: float = field(init=False, repr=False)
    _lower_tol: np.ndarray = field(init=False, repr=False)
    _upper_tol: np.ndarray = field(init=False, repr=False)
    _g_bound: float = field(init=False, repr=False)

    def __post_init__(self) -> None:
        a = np.array(self.sensing, dtype=float)  # a copy in the given layout: products round alike
        b = np.array(self.observation, dtype=float)
        if a.ndim != 2 or not a.size:
            raise InvalidProblemError(f"sensing matrix must be 2-D and nonempty, got {a.shape}")
        if b.ndim != 1:
            raise InvalidProblemError(f"observation must be 1-D, got shape {b.shape}")
        if b.shape[0] != a.shape[0]:
            raise DimensionMismatchError(
                f"observation has length {b.shape[0]}, sensing matrix has {a.shape[0]} rows"
            )
        if not (np.isfinite(a).all() and np.isfinite(b).all()):
            raise InvalidProblemError("sensing matrix and observation must be finite")
        n = a.shape[1]
        box = [np.asarray(bound, dtype=float) for bound in (self.lower, self.upper)]
        for name, bound in zip(("lower", "upper"), box):
            if bound.shape not in ((), (1,), (n,)):
                got = f"length {bound.size}" if bound.ndim == 1 else f"shape {bound.shape}"
                raise DimensionMismatchError(f"{name} has {got}, sensing matrix has {n} columns")
        lower, upper = (np.broadcast_to(bound, (n,)).copy() for bound in box)
        _check_penalty(self.lam, lower, upper)
        # L is the top eigenvalue of the smaller Gram matrix, A A.T or A.T A.
        gram = a @ a.T if a.shape[0] <= n else a.T @ a
        lipschitz = float(np.linalg.eigvalsh(gram)[-1])
        if lipschitz <= 0:
            raise InvalidProblemError("sensing matrix is zero")
        tol = BOX_TOL * (1.0 + float(np.max(np.abs(upper) + np.abs(lower))))
        # The denominator over the whole box never exceeds the norm of the
        # componentwise larger bound magnitude.
        bound = float(np.linalg.norm(np.maximum(np.abs(lower), np.abs(upper))))
        stored = dict(sensing=a, observation=b, lower=lower, upper=upper, _lipschitz=lipschitz)
        stored.update(_box_tol=tol, _lower_tol=lower - tol, _upper_tol=upper + tol, _g_bound=bound)
        self.__setstate__(stored)

    @property
    def dim(self) -> int:
        return self.sensing.shape[1]

    def eval_f(self, x: np.ndarray) -> float:
        memo = self._memo("_point_memo", x.tobytes())
        if "in_box" not in memo and ((x < self._lower_tol).any() or (x > self._upper_tol).any()):
            return math.inf
        return self.lam * float(np.abs(x).sum())

    def eval_h(self, x: np.ndarray) -> float:
        residual = self.sensing @ x - self.observation
        self._memo("_point_memo", x.tobytes())["residual"] = residual
        return 0.5 * float(residual @ residual)

    def grad_h(self, x: np.ndarray) -> np.ndarray:
        memo = self._memo("_point_memo", x.tobytes())
        residual = memo["residual"] if "residual" in memo else self.sensing @ x - self.observation
        return self.sensing.T @ residual

    def eval_g(self, x: np.ndarray) -> float:
        return _norm(x)

    def subgrad_g(self, x: np.ndarray) -> np.ndarray:
        """x / ||x||_2 away from the origin, 0 at the origin.

        0 is a valid subgradient of the l2 norm at 0 (the norm's subdifferential
        there is the whole unit ball).
        """
        x = np.asarray(x, dtype=float)
        norm = _norm(x)
        if norm <= ZERO_NORM_EPS:
            return np.zeros_like(x)
        return x / norm

    def prox_f(self, alpha: float, z: np.ndarray) -> np.ndarray:
        y = _shrink_clip(self._checked_point(z, "z"), alpha * self.lam, self.lower, self.upper)
        self._memo("_point_memo", y.tobytes())["in_box"] = True
        return y

    @property
    def lipschitz_grad_h(self) -> float:
        return self._lipschitz

    @property
    def f_is_convex(self) -> bool:
        return True

    @property
    def g_sup_bound(self) -> float:
        return self._g_bound


def gen_dct_matrix(
    m: int, n: int, coherence: float, seed: int | np.random.Generator
) -> np.ndarray:
    """Random oversampled cosine sensing matrix, shape (m, n).

    Column j (1-based) is cos(2 pi w j / coherence) / sqrt(m) with w drawn
    once, uniformly from [0, 1]^m.  Larger ``coherence`` makes neighbouring
    columns nearly parallel, which is what stresses sparse recovery.
    """
    _check_count("m", m, 1)
    _check_count("n", n, 1)
    if not 0 < coherence < math.inf:
        raise ValueError(f"need 0 < coherence < inf, got {coherence}")
    rng = as_generator(seed)
    w = rng.uniform(0.0, 1.0, size=m)
    cols = np.arange(1, n + 1, dtype=float)
    return np.cos(2.0 * np.pi * np.outer(w, cols) / coherence) / math.sqrt(m)


def gen_ground_truth(n: int, k: int, seed: int | np.random.Generator) -> np.ndarray:
    """Unit-norm vector with k Gaussian entries on a uniformly random support."""
    _check_count("n", n, 1)
    _check_count("k", k, 1, n)
    rng = as_generator(seed)
    support = rng.choice(n, size=k, replace=False)
    x = np.zeros(n)
    x[support] = rng.standard_normal(k)
    norm = float(np.linalg.norm(x))
    if norm == 0.0:  # probability zero, but never divide by it
        raise DegenerateInputError("all ground-truth entries were drawn as zero")
    return x / norm


def penalty_start_point(problem: L1L2PenaltyProblem) -> np.ndarray:
    """Rough l1-penalized least-squares start point for the ratio solvers.

    Runs a fixed number of proximal-gradient iterations on

        mu * ||x||_1 + 0.5 * ||A x - b||^2 + ind_box(x),
        mu = 1e-6 * ||A.T b||_inf,

    from the origin with step 1 / L, over the problem's sensing matrix A,
    observation b, validated box and L = ||A||_2^2.  The result is feasible
    by construction.  If it is zero, the start is A.T b scaled to unit norm
    and clipped to the box instead; if that is zero too (b = 0, say), there
    is no sensible start and DegenerateInputError is raised.
    """
    a, b = problem.sensing, problem.observation
    correlation = a.T @ b
    mu = INITIALIZER_PENALTY_SCALE * float(np.max(np.abs(correlation)))
    step = 1.0 / problem.lipschitz_grad_h
    x = np.zeros(problem.dim)
    for _ in range(INITIALIZER_ITERATIONS):
        grad = a.T @ (a @ x - b)
        x = _shrink_clip(x - step * grad, step * mu, problem.lower, problem.upper)
    if float(np.linalg.norm(x)) > ZERO_NORM_EPS:
        return x
    norm = float(np.linalg.norm(correlation))
    if norm <= ZERO_NORM_EPS:
        raise DegenerateInputError("initializer and its correlation fallback are both zero")
    fallback = np.clip(correlation / norm, problem.lower, problem.upper)
    if float(np.linalg.norm(fallback)) <= ZERO_NORM_EPS:
        raise DegenerateInputError("correlation fallback clipped to zero")
    return fallback


@dataclass(frozen=True)
class RecoveryReport:
    """Outcome of one sparse-recovery trial against a known ground truth."""

    relative_error: float
    success: bool
    objective: float


SUCCESS_REL_ERROR = 1e-3


def recovery_report(solution: np.ndarray, ground_truth: np.ndarray) -> RecoveryReport:
    """Score a recovered vector of the truth's shape: relative error, success flag, l1/l2 value."""
    solution = np.asarray(solution, dtype=float)
    truth = np.asarray(ground_truth, dtype=float)
    if solution.shape != truth.shape:
        raise DimensionMismatchError(f"solution has shape {solution.shape}, truth {truth.shape}")
    truth_norm = float(np.linalg.norm(truth))
    if truth_norm == 0.0:
        raise DegenerateInputError("ground truth is the zero vector")
    rel = float(np.linalg.norm(solution - truth)) / truth_norm
    sol_norm = float(np.linalg.norm(solution))
    objective = float(np.abs(solution).sum()) / sol_norm if sol_norm > 0 else math.inf
    return RecoveryReport(
        relative_error=rel,
        success=rel < SUCCESS_REL_ERROR,
        objective=objective,
    )
