"""Core abstractions for single-ratio fractional minimization.

The objective everywhere in this package is

    F(x) = (f(x) + h(x)) / g(x)

where ``f`` is proper, lower semicontinuous and bounded below on its domain,
``h`` is differentiable with an L-Lipschitz gradient, and ``g`` is convex,
finite and positive on the feasible set.  Outside dom(f), or where the
denominator vanishes, F takes the value +inf.  A problem instance supplies
the pieces through the FractionalProblem interface below; the solvers in
``pgsa`` and ``linesearch`` only ever talk to that interface.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass

import numpy as np

from .exceptions import DimensionMismatchError, DomainError, NumericsError

# Denominator values at or below this (scaled by the numerator magnitude) are
# treated as a vanishing denominator, i.e. the point is outside dom(F).
DOMAIN_EPS_BASE = 1e-14


def _norm(v: np.ndarray) -> float:
    """||v||_2 of a contiguous 1-D float array.

    np.linalg.norm computes sqrt(v.dot(v)) for such an array, so this is bit
    for bit its value, without the cost of its Python wrapper.
    """
    return math.sqrt(v.dot(v))


def domain_eps(numerator: float) -> float:
    """Threshold below which the denominator counts as zero at this point."""
    if not math.isfinite(numerator):
        return math.inf
    return DOMAIN_EPS_BASE * (1.0 + abs(numerator))


@dataclass(frozen=True)
class ExtendedObjective:
    """Value of the extended ratio objective at one point.

    ``value`` is numerator/denominator when the point is feasible and +inf
    otherwise.  The raw numerator and denominator are kept so callers can
    reuse them (the solvers cache them to avoid re-evaluating f, h, g).
    """

    value: float
    in_domain: bool
    numerator: float
    denominator: float


@dataclass(frozen=True)
class Certificate:
    """What a solver run claims about its final iterate."""

    objective: float
    criticality_residual: float | None
    iterations: int
    converged_reason: str  # "step_tol" | "max_iter" | "domain_error"

    def __post_init__(self) -> None:
        if self.criticality_residual is not None and self.criticality_residual < 0:
            raise ValueError("criticality residual must be nonnegative")
        if self.iterations < 0:
            raise ValueError("iteration count must be nonnegative")
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

    def critical_residual(self, x: np.ndarray) -> float | None:
        """Problem-specific distance-to-criticality measure (l2); None when there is none."""
        return None

    def __setstate__(self, state: dict) -> None:
        """Set the attributes in ``state``, every array read-only.

        Problems store their data through it, so it stays read-only in copies
        and unpickled problems too, and a frozen dataclass can be set.
        """
        for value in state.values():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
        self.__dict__.update(state)


def eval_objective(problem: FractionalProblem, x: np.ndarray) -> ExtendedObjective:
    """Evaluate the extended ratio objective F at x.

    Returns an ExtendedObjective whose ``value`` is +inf when x falls outside
    dom(f) or the denominator is within domain_eps of zero.  NaN from any
    callback is a hard error: it signals corrupted problem data, and letting
    it propagate as an objective value would poison every downstream
    comparison.
    """
    x = np.asarray(x, dtype=float)
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
    return ExtendedObjective(value=value, in_domain=in_domain, numerator=num, denominator=den)


def _feasible_objective(
    problem: FractionalProblem, x: np.ndarray, name: str = "x"
) -> ExtendedObjective:
    """F at x: DimensionMismatchError on a wrong length, DomainError outside dom(F)."""
    if x.shape[0] != problem.dim:
        raise DimensionMismatchError(
            f"{name} has length {x.shape[0]}, problem dimension is {problem.dim}"
        )
    ext = eval_objective(problem, x)
    if not ext.in_domain:
        raise DomainError(f"{name} lies outside dom(F)")
    return ext


def quotient_frechet_residual(
    problem: FractionalProblem, x: np.ndarray, candidate_subgrad_f: np.ndarray
) -> float:
    """Norm of the ratio's quotient-rule subdifferential member at x.

    For g differentiable at x (which the caller asserts), the quotient rule
    gives the candidate

        (g(x) * (v + grad_h(x)) - (f(x) + h(x)) * grad_g(x)) / g(x)^2

    for v a candidate subgradient of f.  The returned value is the l2 norm of
    that vector; zero certifies x as a critical point of the ratio for this
    particular v.
    """
    x = np.asarray(x, dtype=float)
    v = np.asarray(candidate_subgrad_f, dtype=float)
    ext = _feasible_objective(problem, x)
    grad_g = problem.subgrad_g(x)
    vec = (ext.denominator * (v + problem.grad_h(x)) - ext.numerator * grad_g)
    vec /= ext.denominator**2
    if np.isnan(vec).any():
        raise NumericsError("NaN from problem callback in quotient residual")
    return float(np.linalg.norm(vec))

