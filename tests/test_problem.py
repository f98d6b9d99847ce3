"""Extended-value objective evaluation, the dom(F) guard, certificates."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from conftest import l1l2_residual_oracle, sgep_residual_oracle

from fracopt import (
    Certificate,
    L1L2PenaltyProblem,
    LineSearchConfig,
    PgsaConfig,
    SfdaRecipe,
    SgepProblem,
    eval_objective,
    gen_dct_matrix,
    gen_ground_truth,
    gen_sfda,
    project_sparse_sphere,
    run_pgsa,
    run_pgsa_ls,
    sgep_default_init,
)
from fracopt.exceptions import (
    DimensionMismatchError,
    DomainError,
    InvalidConfigError,
    InvalidProblemError,
    NumericsError,
)
from fracopt.problem import FractionalProblem, domain_eps
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


@pytest.mark.parametrize("callback", ["eval_f", "eval_g"])
def test_nan_from_f_or_g_is_a_hard_error(callback, monkeypatch):
    problem = _NanNumerator()
    monkeypatch.setattr(problem, callback, lambda x: math.nan)
    monkeypatch.setattr(problem, "eval_h", lambda x: 0.0)  # so only the f and g test can fire
    with pytest.raises(NumericsError, match="NaN from problem callback"):
        eval_objective(problem, np.array([1.0]))


def test_quotient_residual_matches_finite_differences():
    # With full support (r = n), grad (x.T B x / x.T A x) = 2 (B x - G(x) A x) / x.T A x,
    # and the SGEP residual oracle is ||B x - G(x) A x||.
    a = np.diag([1.0, 2.0, 3.0])
    b = np.diag([3.0, 2.0, 1.0])
    problem = SgepProblem(matrix_a=a, matrix_b=b, sparsity=3)
    rng = philox_generator(17)
    x = rng.standard_normal(3)
    x /= np.linalg.norm(x)
    gradient_norm = 2.0 * sgep_residual_oracle(problem, x) / float(x @ a @ x)

    def raw_ratio(point: np.ndarray) -> float:
        return float(point @ b @ point) / float(point @ a @ point)

    step = 1e-6
    fd = np.zeros(3)
    for i in range(3):
        bump = np.zeros(3)
        bump[i] = step
        fd[i] = (raw_ratio(x + bump) - raw_ratio(x - bump)) / (2.0 * step)
    assert abs(gradient_norm - np.linalg.norm(fd)) <= 1e-6


WRONG_RANK = {
    "start_2d": ("x0", [[1.0, 0.0]], r"x0 has shape \(1, 2\), problem dimension is 2"),
    "start_0d": ("x0", 5.0, r"x0 has shape \(\), problem dimension is 2"),
    "residual_2d": ("x", np.ones((2, 2)), r"x has shape \(2, 2\), problem dimension is 2"),
    "residual_0d": ("x", 1.0, r"x has shape \(\), problem dimension is 2"),
}


@pytest.mark.parametrize("case", sorted(WRONG_RANK))
def test_a_point_of_the_wrong_rank_is_a_dimension_mismatch(case):
    name, point, message = WRONG_RANK[case]
    problem = diag_pair_problem()
    with pytest.raises(DimensionMismatchError, match=message):
        if name == "x0":
            run_pgsa(problem, point)
        else:
            problem.critical_residual(point, 1.0)


@pytest.mark.parametrize("family", ["sgep", "l1l2"])
def test_eval_objective_checks_the_shape_of_the_point(family):
    # Unchecked, a 12-entry point on a 10-dim SGEP would evaluate as in dom(F),
    # and on l1l2 numpy would raise a plain ValueError.  audit_trace evaluates here.
    # prox_f checks its z alike: unchecked, the SGEP prox raised numpy's "kth out of
    # bounds" on a 1-entry z and projected a longer one, and l1l2's broadcast a 1-entry z.
    if family == "sgep":
        problem = SgepProblem(matrix_a=np.eye(10), matrix_b=np.eye(10), sparsity=2)
    else:
        problem = L1L2PenaltyProblem(
            sensing=np.ones((3, 10)), observation=np.ones(3), lam=0.1, lower=-1.0, upper=1.0
        )
    point = np.zeros(12)
    point[0] = 1.0
    with pytest.raises(DimensionMismatchError, match="x has length 12, problem dimension is 10"):
        eval_objective(problem, point)
    wrong = ((np.ones(1), "length 1"), (point, "length 12"), (np.ones((2, 5)), r"shape \(2, 5\)"))
    for z, got in wrong:
        with pytest.raises(DimensionMismatchError, match=f"z has {got}, problem dimension is 10"):
            problem.prox_f(1.0, z)


def _certificate(iterations):
    return Certificate(
        objective=1.0, criticality_residual=None, iterations=iterations, converged_reason="max_iter"
    )


# Each count that is no integer, and the typed error (and message) its site
# raises at construction or call entry, before numpy sees it.
NOT_A_COUNT = {
    "pgsa_max_iter_float": (
        lambda: run_pgsa(diag_pair_problem(), np.array([1.0, 0.0]), PgsaConfig(max_iter=2.5)),
        InvalidConfigError,
        "need max_iter >= 0, got max_iter = 2.5 (not an integer)",
    ),
    "ls_max_iter_1e300": (
        lambda: LineSearchConfig(max_iter=1e300), InvalidConfigError, "max_iter = 1e+300"
    ),
    "ls_window_float": (
        lambda: run_pgsa_ls(diag_pair_problem(), np.array([1.0, 0.0]), LineSearchConfig(N=1.5)),
        InvalidConfigError,
        "need N >= 0, got N = 1.5 (not an integer)",
    ),
    "ls_window_bool": (lambda: LineSearchConfig(N=True), InvalidConfigError, "N = True"),
    "sgep_sparsity_float": (
        lambda: diag_pair_problem(r=2.5),
        InvalidProblemError,
        "need 1 <= r <= 2, got r = 2.5 (not an integer)",
    ),
    "sfda_n_float": (
        lambda: gen_sfda(SfdaRecipe(n=10.0, p1=5, p2=5, r=2)), InvalidProblemError, "n = 10.0"
    ),
    "sfda_p2_bool": (lambda: SfdaRecipe(n=10, p1=5, p2=True, r=2), InvalidProblemError, "p2"),
    "default_init_bool": (lambda: sgep_default_init(5, True), ValueError, "r = True"),
    "projection_float": (
        lambda: project_sparse_sphere(np.ones(3), 2.0), ValueError, "r = 2.0 (not an integer)"
    ),
    "dct_columns_float": (lambda: gen_dct_matrix(20, 10.5, 1.0, 0), ValueError, "n = 10.5"),
    "truth_support_float": (lambda: gen_ground_truth(10, 2.0, 0), ValueError, "k = 2.0"),
    "certificate_float": (lambda: _certificate(2.5), ValueError, "iterations = 2.5"),
}


@pytest.mark.parametrize("case", sorted(NOT_A_COUNT))
def test_a_count_that_is_no_integer_is_a_typed_error(case):
    call, error, message = NOT_A_COUNT[case]
    with pytest.raises(error) as err:
        call()
    assert type(err.value) is error
    assert message in str(err.value)


def test_numpy_integer_counts_are_accepted():
    i64 = np.int64
    problem = diag_pair_problem(r=i64(1))
    x0 = sgep_default_init(i64(2), i64(1))
    assert x0.tolist() == [1.0, 0.0]
    trace = run_pgsa_ls(problem, x0, LineSearchConfig(N=i64(2), max_iter=i64(5)))
    assert json.dumps(trace.params)  # the params a trace file carries hold plain ints
    assert run_pgsa(problem, x0, PgsaConfig(max_iter=i64(3))).iterations <= 3
    assert project_sparse_sphere(np.array([3.0, 4.0]), i64(1)).tolist() == [0.0, 1.0]
    assert gen_dct_matrix(i64(4), i64(6), 1.0, 0).shape == (4, 6)
    assert np.count_nonzero(gen_ground_truth(i64(6), i64(2), 0)) == 2
    assert gen_sfda(SfdaRecipe(n=i64(10), p1=i64(5), p2=i64(5), r=i64(2))).dim == 10
    assert _certificate(i64(3)).iterations == 3


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
        problem.critical_residual(x, 1.0)


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
    assert problem.critical_residual(x, 0.99 / problem.lipschitz_grad_h) <= 1e-8


def test_critical_point_check_single_coordinate():
    problem = diag_pair_problem(r=1)
    assert problem.critical_residual(np.array([1.0, 0.0]), 0.99 / problem.lipschitz_grad_h) <= 1e-8


def test_critical_point_check_rejects_non_stationary_point():
    problem = diag_pair_problem()
    x = np.array([1.0, 1.0]) / math.sqrt(2.0)
    assert not problem.critical_residual(x, 0.99 / problem.lipschitz_grad_h) <= 1e-8


def test_certificates_agree_with_the_family_residual_oracles(tiny_sgep_runs, l1l2_consistency_run):
    # The certificate is the generic fixed-point residual at the run's last step.  At these
    # final points (oracle values 1e-13 to 4e-10) it differed from the family formula by at
    # most 7.6e-4 relative and 3.1e-16 absolute on SGEP, 4.1e-5 relative on l1l2 (1.2e-4
    # under other BLAS kernels), all rounding; the bound leaves a factor of 13 and 30.
    problem, trace = l1l2_consistency_run
    pairs = [(trace, l1l2_residual_oracle(problem, trace.final_x))]
    for group in ("spiked", "wishart20"):
        for entry in tiny_sgep_runs[group]:
            for trace in entry["traces"].values():
                pairs.append((trace, sgep_residual_oracle(entry["problem"], trace.final_x)))
    assert len(pairs) == 361
    for trace, oracle in pairs:
        assert abs(trace.certificate.criticality_residual - oracle) <= 1e-2 * oracle + 1e-14


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
