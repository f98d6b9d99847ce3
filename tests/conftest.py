"""Shared fixtures for the test suite.

The acceptance workloads (full-size benchmark experiments and the tiny-instance
oracle sweeps) are expensive, so they are computed once per session and shared
by every criterion that needs them.  Criterion verdict lines are collected here
and echoed in the terminal summary so a plain ``pytest -v`` run always shows
one pass/fail line per acceptance criterion.
"""

from __future__ import annotations

import collections
import itertools
import math

import numpy as np
import pytest

from fracopt import (
    ExperimentConfig,
    FractionalProblem,
    L1L2PenaltyProblem,
    LineSearchConfig,
    PgsaConfig,
    SgepProblem,
    gen_dct_matrix,
    gen_ground_truth,
    penalty_start_point,
    run_experiment,
    run_pgsa,
    run_pgsa_ls,
    sgep_default_init,
)
from fracopt.exceptions import DegenerateInputError, InvalidProblemError
from fracopt.experiments import _openblas
from fracopt.problem import _feasible_objective
from fracopt.rand import philox_generator

CRITERION_LINES: list[str] = []
# Hard limits for the exhaustive SGEP optimum.
BRUTE_FORCE_MAX_N = 16
BRUTE_FORCE_MAX_R = 4
# Entries larger than this fraction of ||x||_inf count as support members.
SUPPORT_REL_THRESHOLD = 1e-12


def record_criterion(number: int, passed: bool, detail: str) -> None:
    line = f"criterion {number}: {'PASS' if passed else 'FAIL'} - {detail}"
    CRITERION_LINES.append(line)
    print(line)


def pytest_terminal_summary(terminalreporter):
    if CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in CRITERION_LINES:
            terminalreporter.write_line(line)


_OPENBLAS = _openblas()
# numpy's bundled OpenBLAS thread-count getter and setter, or None when not found.
_BLAS_THREADS = None if _OPENBLAS is None else _OPENBLAS[1:]


@pytest.fixture(autouse=True)
def _restore_blas_threads():
    """Give back the BLAS thread count each test started with.

    ``fracopt solve`` and ``verify`` pin BLAS to one thread for the rest of
    their process, and the CLI tests run them in this one, so without this a
    test's last bits would depend on which CLI tests ran before it.
    """
    threads = None if _BLAS_THREADS is None else _BLAS_THREADS[0]()
    yield
    if threads is not None:
        _BLAS_THREADS[1](threads)


def _counted(name):
    def method(self, *args):
        self.calls[name] += 1
        return getattr(self.inner, name)(*args)

    return method


class CallCounter(FractionalProblem):
    """Forwards every callback to ``inner`` and counts the calls made from outside it."""

    def __init__(self, inner):
        self.inner, self.dim = inner, inner.dim
        self.calls = collections.Counter()
        self.finite_f = 0

    def eval_f(self, x):
        self.calls["eval_f"] += 1
        value = self.inner.eval_f(x)
        self.finite_f += math.isfinite(value)
        return value

    eval_h = _counted("eval_h")
    eval_g = _counted("eval_g")
    grad_h = _counted("grad_h")
    subgrad_g = _counted("subgrad_g")
    prox_f = _counted("prox_f")
    critical_residual = _counted("critical_residual")
    lipschitz_grad_h = property(lambda self: self.inner.lipschitz_grad_h)
    f_is_convex = property(lambda self: self.inner.f_is_convex)
    g_sup_bound = property(lambda self: self.inner.g_sup_bound)


def wishart(rng: np.random.Generator, samples: int, dim: int) -> np.ndarray:
    g = rng.standard_normal((samples, dim))
    return g.T @ g / samples


def central_gradient(fn, x: np.ndarray, step: float) -> np.ndarray:
    """Central differences (fn(x + step e_i) - fn(x - step e_i)) / (2 step), one per coordinate."""
    grad = np.empty_like(x)
    for i in range(x.shape[0]):
        bump = np.zeros_like(x)
        bump[i] = step
        grad[i] = (fn(x + bump) - fn(x - bump)) / (2.0 * step)
    return grad


def sgep_brute_force_optimum(
    a: np.ndarray, b: np.ndarray, r: int
) -> tuple[float, np.ndarray]:
    """Global SGEP optimum by support enumeration; only for tiny instances.

    For every support S with |S| <= r the restricted problem is a generalized
    eigenvalue computation: with B_S positive definite,

        min over span(S) of x.T B x / x.T A x  =  1 / lambda_max(W),
        W = B_S^{-1/2} A_S B_S^{-1/2},

    and supports on which the A-energy vanishes (lambda_max(W) = 0) admit no
    feasible point, so they are skipped.  The enumeration is exponential, so
    n and r above BRUTE_FORCE_MAX_N and BRUTE_FORCE_MAX_R raise ValueError.
    A, B and r are checked and stored by SgepProblem.
    """
    if len(a) > BRUTE_FORCE_MAX_N or r > BRUTE_FORCE_MAX_R:  # before any decomposition
        raise ValueError(
            f"refusing exhaustive enumeration for n = {len(a)}, r = {r} "
            f"(limits: n <= {BRUTE_FORCE_MAX_N}, r <= {BRUTE_FORCE_MAX_R})"
        )
    problem = SgepProblem(matrix_a=a, matrix_b=b, sparsity=r)
    a, b, n = problem.matrix_a, problem.matrix_b, problem.dim
    best_value = math.inf
    best_point: np.ndarray | None = None
    for size in range(1, r + 1):
        for support in itertools.combinations(range(n), size):
            idx = np.asarray(support)
            sub_b = b[np.ix_(idx, idx)]
            eigvals_b, eigvecs_b = np.linalg.eigh(sub_b)
            if float(eigvals_b[0]) <= 0.0:  # every support, not SgepProblem's sample
                raise InvalidProblemError(
                    f"B restricted to support {support} is not positive definite"
                )
            inv_half = (eigvecs_b / np.sqrt(eigvals_b)) @ eigvecs_b.T
            reduced = inv_half @ a[np.ix_(idx, idx)] @ inv_half
            eigvals_w, eigvecs_w = np.linalg.eigh(reduced)
            top = float(eigvals_w[-1])
            if top <= 0.0:
                continue  # A-energy is zero on this support
            value = 1.0 / top
            if value < best_value:
                direction = inv_half @ eigvecs_w[:, -1]
                point = np.zeros(n)
                point[idx] = direction / np.linalg.norm(direction)
                best_value = value
                best_point = point
    if best_point is None:
        raise DegenerateInputError("the A-energy vanishes on every support")
    return best_value, best_point


def sgep_residual_oracle(problem: SgepProblem, x: np.ndarray) -> float:
    """Distance-to-criticality measure for the sparse eigenvalue problem.

    x must lie in dom(F) as ``eval_objective`` defines it, else DomainError
    (DimensionMismatchError on a wrong shape).  With G(x) = x.T B x / x.T A x
    and support taken as the entries above 1e-12 * ||x||_inf, a critical
    point satisfies

        ||B x - G(x) A x||_2 = 0                 when the support is smaller
                                                 than r (the full-space test),
        ||B_S x_S - G(x) A_S x_S||_2 = 0         when it has exactly r entries
                                                 (restricted to the support S).

    Entries within a factor 10 of the support threshold make the
    classification ambiguous; in that case both applicable residuals are
    computed and the larger one is returned, so a small result never hinges
    on the thresholding.
    """
    a = problem.matrix_a
    b = problem.matrix_b
    r = problem.sparsity
    x = np.asarray(x, dtype=float)
    ratio = _feasible_objective(problem, x).value
    magnitude = np.abs(x)
    threshold = SUPPORT_REL_THRESHOLD * float(magnitude.max())
    support = magnitude > threshold

    def residual_for(mask: np.ndarray) -> float:
        if int(mask.sum()) == r:
            idx = np.flatnonzero(mask)
            xs = x[idx]
            vec = b[np.ix_(idx, idx)] @ xs - ratio * (a[np.ix_(idx, idx)] @ xs)
        else:
            vec = b @ x - ratio * (a @ x)
        return float(np.linalg.norm(vec))

    result = residual_for(support)
    borderline = (magnitude > threshold) & (magnitude <= 10.0 * threshold)
    if borderline.any():  # then the strict support is smaller
        result = max(result, residual_for(magnitude > 10.0 * threshold))
    return result


def l1l2_residual_oracle(problem: L1L2PenaltyProblem, x: np.ndarray) -> float:
    """Componentwise distance to the criticality condition, as an l2 norm.

    At a critical point the vector u = F(x) * x / ||x|| - grad_h(x) belongs to
    the subdifferential of f, which splits per coordinate into

        lam * sign(x_j)        plus  {0}         strictly inside the box,
        lam * sign(x_j)        plus  [0, +inf)   at the upper bound,
        lam * sign(x_j)        plus  (-inf, 0]   at the lower bound,
        [-lam, lam]            (at x_j = 0, interior)

    with the obvious combinations when 0 sits on a bound.  Each coordinate
    contributes its distance from u_j to the allowed interval; the residual is
    the l2 norm of those distances.  x must lie in dom(F) as ``eval_objective``
    defines it, else DomainError (DimensionMismatchError on a wrong shape).
    """
    x = np.asarray(x, dtype=float)
    ext = _feasible_objective(problem, x)
    u = ext.value * (x / ext.denominator) - problem.grad_h(x)

    lam = problem.lam
    tol = problem._box_tol
    at_lower = x <= problem.lower + tol
    at_upper = x >= problem.upper - tol
    positive = x > tol
    negative = x < -tol

    # Allowed interval [lo_j, hi_j] for u_j, coordinate by coordinate.
    lo = np.where(positive, lam, -lam)
    hi = np.where(negative, -lam, lam)
    lo = np.where(at_lower, -np.inf, lo)
    hi = np.where(at_upper, np.inf, hi)
    gaps = np.maximum(lo - u, 0.0) + np.maximum(u - hi, 0.0)
    return float(np.linalg.norm(gaps))


def spiked_ratio_pair(rng: np.random.Generator, dim: int = 10):
    """A PSD pair whose global sparse solution has a wide basin.

    The denominator matrix carries a strong dense rank-one spike on top of a
    small Wishart term, and the numerator matrix is a perturbed identity, so
    the best sparse direction is the spike's largest coordinates and local
    methods reliably reach it from the canonical start.
    """
    u = rng.standard_normal(dim)
    u /= np.linalg.norm(u)
    a = 5.0 * np.outer(u, u) + 0.2 * wishart(rng, 2 * dim, dim)
    b = np.eye(dim) + 0.2 * wishart(rng, 2 * dim, dim)
    return a, b


@pytest.fixture(scope="session")
def sfda_outcome():
    cfg = ExperimentConfig(
        experiment="sfda",
        solver="all",
        trials=20,
        master_seed=0,
        n=1000,
        r=50,
    )
    return cfg, run_experiment(cfg)


@pytest.fixture(scope="session")
def l1l2_outcome():
    cfg = ExperimentConfig(
        experiment="l1l2",
        solver="pgsa_ml",
        trials=50,
        master_seed=0,
    )
    return cfg, run_experiment(cfg)


@pytest.fixture(scope="session")
def l1l2_consistency_run():
    """A 60-dim l1l2 problem and its pgsa_ml run to a relative step_tol of 1e-12."""
    rng = philox_generator(239)
    sensing = gen_dct_matrix(20, 60, 1.0, rng)
    truth = gen_ground_truth(60, 4, rng)
    problem = L1L2PenaltyProblem(
        sensing=sensing,
        observation=sensing @ truth,
        lam=8e-5,
        lower=np.full(60, -1.0),
        upper=np.full(60, 1.0),
    )
    start = penalty_start_point(problem)
    trace = run_pgsa_ls(
        problem,
        start,
        LineSearchConfig(N=0, step_tol=1e-12, relative_tol=True, max_iter=5000),
    )
    return problem, trace


@pytest.fixture(scope="session")
def tiny_sgep_runs():
    """Solver runs with step_tol=1e-10 on small instances, plus brute optima.

    100 spiked pairs (n=10, r=2) cover the oracle-equivalence criterion; 20
    plain Wishart pairs (n=20, r=3) widen the criticality check to the largest
    size the criterion covers.
    """
    configs = (
        ("pgsa", run_pgsa, PgsaConfig(step_tol=1e-10, max_iter=20000)),
        ("pgsa_ml", run_pgsa_ls, LineSearchConfig(N=0, step_tol=1e-10, max_iter=20000)),
        ("pgsa_nl", run_pgsa_ls, LineSearchConfig(N=4, step_tol=1e-10, max_iter=20000)),
    )
    spiked = []
    for trial in range(100):
        rng = philox_generator(11, trial)
        a, b = spiked_ratio_pair(rng)
        problem = SgepProblem(matrix_a=a, matrix_b=b, sparsity=2)
        best, _ = sgep_brute_force_optimum(a, b, 2)
        x0 = sgep_default_init(10, 2)
        traces = {name: runner(problem, x0, cfg) for name, runner, cfg in configs}
        spiked.append({"problem": problem, "brute": best, "traces": traces})
    wide = []
    for trial in range(20):
        rng = philox_generator(31, trial)
        problem = SgepProblem(
            matrix_a=wishart(rng, 40, 20), matrix_b=wishart(rng, 40, 20), sparsity=3
        )
        x0 = sgep_default_init(20, 3)
        traces = {name: runner(problem, x0, cfg) for name, runner, cfg in configs}
        wide.append({"problem": problem, "traces": traces})
    return {"spiked": spiked, "wishart20": wide}
