"""Core abstractions for single-ratio fractional minimization.

The objective everywhere in this package is

    F(x) = (f(x) + h(x)) / g(x)

where ``f`` is proper, lower semicontinuous and bounded below on its domain,
``h`` is differentiable with an L-Lipschitz gradient, and ``g`` is convex,
finite and positive on the feasible set.  Outside dom(f), or where the
denominator vanishes, F takes the value +inf.  A problem instance supplies
the pieces through the FractionalProblem interface below; the solvers in
``pgsa`` only ever talk to that interface.
"""

from __future__ import annotations

import abc
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .exceptions import DimensionMismatchError, DomainError, NumericsError

# Denominator values at or below this (scaled by the numerator magnitude) are
# treated as a vanishing denominator, i.e. the point is outside dom(F).
DOMAIN_EPS_BASE = 1e-14
ALIGN_MIN_BYTES = 4096  # stored arrays this large start on a 64-byte (cache line) boundary


def _norm(v: np.ndarray) -> float:
    """||v||_2 of a contiguous 1-D float array.

    np.linalg.norm computes sqrt(v.dot(v)) for such an array, so this is bit
    for bit its value, without the cost of its Python wrapper.
    """
    return math.sqrt(v.dot(v))


def _check_count(name: str, value, low: int, high: int | None = None, error=ValueError) -> None:
    """The rule for every count: raise ``error`` unless an int, no bool, in [low, high or inf]."""
    integral = isinstance(value, numbers.Integral) and not isinstance(value, bool)
    if not (integral and low <= value and (high is None or value <= high)):
        bound = f"{name} >= {low}" if high is None else f"{low} <= {name} <= {high}"
        kind = "" if integral else " (not an integer)"
        raise error(f"need {bound}, got {name} = {value}{kind}")


def domain_eps(numerator: float) -> float:
    """Threshold below which the denominator counts as zero at a finite numerator."""
    return DOMAIN_EPS_BASE * (1.0 + abs(numerator))


@dataclass(frozen=True)
class ExtendedObjective:
    """Value of the extended ratio objective at one point.

    ``value`` is numerator/denominator when the point is feasible and +inf
    otherwise.  The raw denominator is kept for the trace's g_value column.
    """

    value: float
    in_domain: bool
    denominator: float


@dataclass(frozen=True)
class Certificate:
    """What a solver run claims about its final iterate."""

    objective: float
    criticality_residual: float | None  # the solvers always fill it; None loads older traces
    iterations: int
    converged_reason: str  # "step_tol" | "max_iter" | "domain_error"

    def __post_init__(self) -> None:
        if self.criticality_residual is not None and self.criticality_residual < 0:
            raise ValueError("criticality residual must be nonnegative")
        _check_count("iterations", self.iterations, 0)
        if self.converged_reason not in ("step_tol", "max_iter", "domain_error"):
            raise ValueError(f"unknown converged_reason {self.converged_reason!r}")


class FractionalProblem(abc.ABC):
    """Interface a ratio-structured problem must implement.

    Implementations must keep the standing assumptions: f + h nonnegative on
    dom(f) intersected with the constraints, and g positive there.  ``eval_f``
    returns +inf outside dom(f); every other callback is finite-valued.
    """

    #: problem dimension (length of the decision vector)
    dim: int

    @abc.abstractmethod
    def eval_f(self, x: np.ndarray) -> float:
        """Nonsmooth term, +inf outside its domain."""

    @abc.abstractmethod
    def eval_h(self, x: np.ndarray) -> float:
        """Smooth term with Lipschitz gradient."""

    @abc.abstractmethod
    def grad_h(self, x: np.ndarray) -> np.ndarray:
        """Gradient of the smooth term."""

    @abc.abstractmethod
    def eval_g(self, x: np.ndarray) -> float:
        """Convex denominator, finite everywhere."""

    @abc.abstractmethod
    def subgrad_g(self, x: np.ndarray) -> np.ndarray:
        """One subgradient of the denominator at x."""

    @abc.abstractmethod
    def prox_f(self, alpha: float, z: np.ndarray) -> np.ndarray:
        """A point of prox_{alpha f}(z); must land in dom(f)."""

    @property
    @abc.abstractmethod
    def lipschitz_grad_h(self) -> float:
        """Lipschitz constant L of grad_h."""

    @property
    def f_is_convex(self) -> bool:
        """Whether f is convex; convex f widens the usable step range to 2/L."""
        return False

    @property
    def g_sup_bound(self) -> float | None:
        """Upper bound on g over the feasible region, when one is known.

        Used by the line-search audit to check the guaranteed step floor.
        Returning None disables those checks for this problem.
        """
        return None

    def critical_residual(self, x: np.ndarray, alpha: float) -> float:
        """Fixed-point residual of the PGSA step with step size ``alpha`` > 0 at x:

            R(x) = ||x - prox_{alpha f}(x + alpha (F(x) v - grad_h(x)))|| / alpha

        with v = subgrad_g(x).  R(x) = 0 exactly at a fixed point of that step, and a fixed point
        meets the paper's first-order condition 0 in df(x) + grad_h(x) - F(x) dg(x).  For a
        nonconvex f the prox, and so R, depends on alpha: the solvers pass the run's last accepted
        step.  x must lie in dom(F) as ``eval_objective`` defines it, else DomainError
        (DimensionMismatchError on a wrong shape).
        """
        x = self._checked_point(x, "x")
        direction = _feasible_objective(self, x).value * self.subgrad_g(x) - self.grad_h(x)
        return _norm(x - self.prox_f(alpha, x + alpha * direction)) / alpha

    def _checked_point(self, x: np.ndarray, name: str) -> np.ndarray:
        """x as a float array; DimensionMismatchError calling it ``name`` unless of shape (dim,)."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            got = f"length {x.shape[0]}" if x.ndim == 1 else f"shape {x.shape}"
            raise DimensionMismatchError(f"{name} has {got}, problem dimension is {self.dim}")
        return x

    def _memo(self, slot: str, key: bytes) -> dict:
        """The dict in ``slot`` for ``key``, a fresh one if the slot held another key.

        Keyed by a point's bytes (an array edited in place is a new point), ``_point_memo`` holds
        what the callbacks share: SGEP's S (seeded by prox_f), l1l2's A x - b and in-box mark.
        SGEP keeps A[S], B[S] in ``_rows_memo``, A[S, S], B[S, S] there or in ``_blocks_memo``.
        """
        if self.__dict__.get(slot, (None,))[0] != key:
            self.__dict__[slot] = (key, {})  # a cache, so set past the frozen dataclass
        return self.__dict__[slot][1]

    def __setstate__(self, state: dict) -> None:
        """Set the attributes in ``state``, every array read-only.

        Problems store their data through it, so it stays read-only in copies
        and unpickled problems too, and a frozen dataclass can be set.  An array
        of ALIGN_MIN_BYTES or more starts on 64 bytes, in its C or F layout.
        """
        for name, value in state.items():
            if isinstance(value, np.ndarray):
                if value.nbytes >= ALIGN_MIN_BYTES and value.ctypes.data % 64:
                    buffer = np.empty(value.nbytes + 64, dtype=np.uint8)
                    start = -buffer.ctypes.data % 64
                    order = "F" if value.flags.f_contiguous else "C"
                    state[name] = np.ndarray(value.shape, value.dtype, buffer, start, order=order)
                    state[name][...] = value
                state[name].setflags(write=False)
        self.__dict__.update(state)


def eval_objective(problem: FractionalProblem, x: np.ndarray, name: str = "x") -> ExtendedObjective:
    """Evaluate the extended ratio objective F at x.

    Returns an ExtendedObjective whose ``value`` is +inf when x falls outside
    dom(f) or the denominator is within domain_eps of zero.  An x of another
    shape than (dim,) is a DimensionMismatchError calling it ``name``.  NaN
    from any callback is a hard error: it signals corrupted problem data, and
    letting it propagate as an objective value poisons every later comparison.
    """
    x = problem._checked_point(x, name)
    num = problem.eval_f(x)
    den = problem.eval_g(x)
    if math.isnan(num) or math.isnan(den):
        raise NumericsError("NaN from problem callback in objective evaluation")
    if math.isfinite(num):
        num = num + problem.eval_h(x)
        if math.isnan(num):
            raise NumericsError("NaN from problem callback in objective evaluation")
    in_domain = math.isfinite(num) and den > domain_eps(num)
    value = num / den if in_domain else math.inf
    return ExtendedObjective(value=value, in_domain=in_domain, denominator=den)


def _feasible_objective(
    problem: FractionalProblem, x: np.ndarray, name: str = "x"
) -> ExtendedObjective:
    """F at x, as eval_objective gives it; DomainError outside dom(F)."""
    ext = eval_objective(problem, x, name)
    if not ext.in_domain:
        raise DomainError(f"{name} lies outside dom(F)")
    return ext
