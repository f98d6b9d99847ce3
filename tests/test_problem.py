"""Extended-value objective evaluation, quotient residuals, certificates."""

from __future__ import annotations

import math

import numpy as np
import pytest

from fracopt import (
    Certificate,
    L1L2PenaltyProblem,
    SgepProblem,
    domain_eps,
    eval_objective,
    quotient_frechet_residual,
)
from fracopt.exceptions import DimensionMismatchError, DomainError, NumericsError
from fracopt.problem import FractionalProblem
from fracopt.rand import philox_generator


def diag_pair_problem(r: int = 2) -> SgepProblem:
    return SgepProblem(matrix_a=np.diag([1.0, 2.0]), matrix_b=np.diag([2.0, 1.0]), sparsity=r)


def one_d_penalty() -> L1L2PenaltyProblem:
    return L1L2PenaltyProblem(
        sensing=np.array([[1.0]]),
        observation=np.array([1.0]),
        lam=0.1,
        lower=np.array([-1.0]),
        upper=np.array([1.0]),
    )


def test_eval_objective_scalar_ratio():
    problem = SgepProblem(matrix_a=np.eye(2), matrix_b=2.0 * np.eye(2), sparsity=2)
    ext = eval_objective(problem, np.array([1.0, 0.0]))
    assert ext.numerator == 1.0
    assert ext.denominator == 0.5
    assert ext.value == 2.0
    assert ext.in_domain


def test_eval_objective_vanishing_denominator_is_infinite():
    ext = eval_objective(one_d_penalty(), np.array([0.0]))
    assert ext.value == math.inf
    assert not ext.in_domain


def test_eval_objective_sparsity_violation_is_infinite():
    problem = SgepProblem(
        matrix_a=np.diag([1.0, 2.0, 3.0]), matrix_b=np.diag([3.0, 2.0, 1.0]), sparsity=1
    )
    x = np.array([1.0, 1.0, 0.0]) / math.sqrt(2.0)
    ext = eval_objective(problem, x)
    assert ext.value == math.inf
    assert not ext.in_domain


def test_domain_eps_scales_with_numerator():
    assert domain_eps(0.0) == 1e-14
    assert domain_eps(9.0) == 1e-13
    assert domain_eps(-9.0) == 1e-13


class _NanNumerator(FractionalProblem):
    @property
    def dim(self) -> int:
        return 1

    def eval_f(self, x):
        return 0.0

    def eval_h(self, x):
        return math.nan

    def grad_h(self, x):
        return np.zeros(1)

    def eval_g(self, x):
        return 1.0

    def subgrad_g(self, x):
        return np.zeros(1)

    def prox_f(self, alpha, z):
        return z

    @property
    def lipschitz_grad_h(self) -> float:
        return 1.0


def test_nan_from_callback_is_a_hard_error():
    with pytest.raises(NumericsError):
        eval_objective(_NanNumerator(), np.array([1.0]))


def test_quotient_residual_zero_at_constructed_stationarity():
    problem = diag_pair_problem()
    rng = philox_generator(5)
    x = rng.standard_normal(2)
    x /= np.linalg.norm(x)
    ext = eval_objective(problem, x)
    v = ext.value * problem.subgrad_g(x) - problem.grad_h(x)
    assert quotient_frechet_residual(problem, x, v) <= 1e-12


def test_quotient_residual_zero_at_eigenvector():
    problem = diag_pair_problem()
    assert quotient_frechet_residual(problem, np.array([0.0, 1.0]), np.zeros(2)) <= 1e-14


def test_quotient_residual_matches_finite_differences():
    a = np.diag([1.0, 2.0, 3.0])
    b = np.diag([3.0, 2.0, 1.0])
    problem = SgepProblem(matrix_a=a, matrix_b=b, sparsity=3)
    rng = philox_generator(17)
    x = rng.standard_normal(3)
    x /= np.linalg.norm(x)
    residual = quotient_frechet_residual(problem, x, np.zeros(3))

    def raw_ratio(point: np.ndarray) -> float:
        return float(point @ b @ point) / float(point @ a @ point)

    step = 1e-6
    fd = np.zeros(3)
    for i in range(3):
        bump = np.zeros(3)
        bump[i] = step
        fd[i] = (raw_ratio(x + bump) - raw_ratio(x - bump)) / (2.0 * step)
    assert abs(residual - np.linalg.norm(fd)) <= 1e-6


def test_quotient_residual_two_formulas_agree():
    problem = diag_pair_problem()
    rng = philox_generator(23)
    for _ in range(20):
        x = rng.standard_normal(2)
        x /= np.linalg.norm(x)
        v = rng.standard_normal(2)
        ext = eval_objective(problem, x)
        via_op = quotient_frechet_residual(problem, x, v)
        g = ext.denominator
        grad_g = problem.subgrad_g(x)
        direct = (
            np.linalg.norm(g * (v + problem.grad_h(x)) - ext.numerator * grad_g) / g**2
        )
        assert abs(via_op - direct) <= 1e-12 * (1.0 + direct)


def test_quotient_residual_outside_domain_raises():
    with pytest.raises(DomainError):
        quotient_frechet_residual(one_d_penalty(), np.array([0.0]), np.zeros(1))
    with pytest.raises(DimensionMismatchError, match="x has length 2, problem dimension is 1"):
        quotient_frechet_residual(one_d_penalty(), np.array([1.0, 0.0]), np.zeros(2))


# Points just outside dom(F) as eval_objective defines it: off the unit sphere
# by more than UNIT_NORM_TOL, two nonzeros at r = 1, and ||x||_2 below the
# domain threshold of f + h.
OUTSIDE_DOM_F = {
    "sgep_off_sphere": ("sgep", [1.0 + 5e-9, 0.0, 0.0]),
    "sgep_two_nonzeros": ("sgep", [1.0, 1e-13, 0.0]),
    "l1l2_vanishing_norm": ("l1l2", [1e-13, 0.0]),
}


@pytest.mark.parametrize("case", sorted(OUTSIDE_DOM_F))
def test_critical_residuals_reject_points_outside_dom_f(case):
    family, point = OUTSIDE_DOM_F[case]
    if family == "sgep":
        problem = SgepProblem(
            matrix_a=np.diag([2.0, 1.0, 0.5]), matrix_b=np.diag([1.0, 4.0, 2.0]), sparsity=1
        )
    else:
        problem = L1L2PenaltyProblem(
            sensing=np.eye(2), observation=np.array([10.0, 0.0]), lam=0.1, lower=-1.0, upper=1.0
        )
    x = np.array(point)
    assert not eval_objective(problem, x).in_domain
    with pytest.raises(DomainError, match=r"x lies outside dom\(F\)"):
        problem.critical_residual(x)


def test_critical_point_check_full_support_eigenvector():
    rng = philox_generator(29)
    g1 = rng.standard_normal((10, 5))
    g2 = rng.standard_normal((10, 5))
    a = g1.T @ g1 / 10.0 + 0.5 * np.eye(5)
    b = g2.T @ g2 / 10.0 + 0.5 * np.eye(5)
    problem = SgepProblem(matrix_a=a, matrix_b=b, sparsity=5)
    vals, vecs = np.linalg.eigh(a)
    root = vecs @ np.diag(vals**-0.5) @ vecs.T
    w_vals, w_vecs = np.linalg.eigh(root @ b @ root)
    x = root @ w_vecs[:, 0]
    x /= np.linalg.norm(x)
    assert problem.critical_residual(x) <= 1e-8


def test_critical_point_check_single_coordinate():
    problem = diag_pair_problem(r=1)
    assert problem.critical_residual(np.array([1.0, 0.0])) <= 1e-8


def test_critical_point_check_rejects_non_stationary_point():
    problem = diag_pair_problem()
    x = np.array([1.0, 1.0]) / math.sqrt(2.0)
    assert not problem.critical_residual(x) <= 1e-8


def test_objective_nonnegative_on_feasible_points():
    problem = diag_pair_problem()
    penalty = one_d_penalty()
    rng = philox_generator(41)
    for _ in range(25):
        x = rng.standard_normal(2)
        x /= np.linalg.norm(x)
        assert eval_objective(problem, x).value >= 0.0
        z = rng.uniform(-1.0, 1.0, 1)
        if abs(z[0]) > 1e-8:
            assert eval_objective(penalty, z).value >= 0.0


def test_certificate_validation():
    with pytest.raises(ValueError):
        Certificate(objective=1.0, criticality_residual=-1.0, iterations=1, converged_reason="step_tol")
    with pytest.raises(ValueError):
        Certificate(objective=1.0, criticality_residual=0.0, iterations=-1, converged_reason="step_tol")
    with pytest.raises(ValueError):
        Certificate(objective=1.0, criticality_residual=0.0, iterations=1, converged_reason="banana")
