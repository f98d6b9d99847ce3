"""Seeded property tests: the two proxes and the two criticality residuals
against brute-force, grid and finite-difference references."""

from __future__ import annotations

import itertools
import math

import numpy as np

from conftest import central_gradient, sgep_brute_force_optimum
from fracopt import (
    L1L2PenaltyProblem,
    SgepProblem,
    eval_objective,
    project_sparse_sphere,
)
from fracopt.l1l2 import _shrink_clip
from fracopt.rand import philox_generator


def _random_box(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """A box around the origin; about one bound in six sits at 0 itself."""
    lower = -rng.uniform(0.2, 2.0, size=n)
    upper = rng.uniform(0.2, 2.0, size=n)
    lower[rng.random(n) < 1 / 6] = 0.0
    upper[rng.random(n) < 1 / 6] = 0.0
    return lower, upper


def test_prox_l1_box_matches_per_coordinate_grid_minimiser():
    rng = philox_generator(601)
    for _ in range(60):
        n = int(rng.integers(1, 9))
        lower, upper = _random_box(rng, n)
        threshold = 0.0 if rng.random() < 0.1 else float(rng.uniform(0.0, 1.5))
        z = rng.uniform(-3.0, 3.0, size=n)
        prox = _shrink_clip(z, threshold, lower, upper)
        for j in range(n):
            # The grid holds both bounds and the origin, where the minimiser
            # sits whenever a bound or the threshold is active.
            grid = np.union1d(np.linspace(lower[j], upper[j], 20001), [0.0])
            values = threshold * np.abs(grid) + 0.5 * (grid - z[j]) ** 2
            best = grid[np.argmin(values)]
            spacing = (upper[j] - lower[j]) / 20000
            assert lower[j] <= prox[j] <= upper[j]
            assert abs(prox[j] - best) <= spacing
            # The prox is the exact minimiser, so no grid point does better.
            at_prox = threshold * abs(prox[j]) + 0.5 * (prox[j] - z[j]) ** 2
            assert at_prox <= values.min() + 1e-12


def _exhaustive_projection(x: np.ndarray, r: int) -> tuple[int, ...]:
    """The first support of size r, in enumeration order, that keeps the most
    energy ||x_S||^2.  No smaller support keeps more, since squares are >= 0;
    ||y - x||^2 = ||x||^2 + 1 - 2 ||x_S|| for the point y the support gives."""
    squares = x * x
    best, best_support = -math.inf, ()
    for support in itertools.combinations(range(x.shape[0]), r):
        energy = float(squares[list(support)].sum())
        if energy > best:
            best, best_support = energy, support
    return best_support


def test_project_sparse_sphere_matches_exhaustive_support_search():
    rng = philox_generator(607)
    for trial in range(80):
        n = int(rng.integers(2, 13))
        r = int(rng.integers(1, n + 1))
        if trial % 2:
            # Small integers: exact squares, so ties are exact and frequent,
            # and the lowest-index tie-break must agree with enumeration order.
            x = rng.integers(-3, 4, size=n).astype(float)
            x[0] = x[0] or 1.0
        else:
            x = rng.standard_normal(n)
        support = list(_exhaustive_projection(x, r))
        reference = np.zeros(n)
        reference[support] = x[support] / math.sqrt(float(x[support] @ x[support]))
        y = project_sparse_sphere(x, r)
        assert np.array_equal(np.flatnonzero(y), np.flatnonzero(reference))
        assert np.allclose(y, reference, rtol=0.0, atol=1e-15)


def _one_sided_differences(fn, x: np.ndarray, step: float) -> tuple[np.ndarray, np.ndarray]:
    """Left and right difference quotients of fn along each coordinate;
    infinite where a step leaves the domain."""
    left, right = np.empty_like(x), np.empty_like(x)
    here = fn(x)
    for i in range(x.shape[0]):
        bump = np.zeros_like(x)
        bump[i] = step
        left[i] = (here - fn(x - bump)) / step
        right[i] = (fn(x + bump) - here) / step
    return left, right


def test_l1l2_residual_matches_finite_difference_subdifferential():
    # f_j(t) = lam |t| + ind[l_j, u_j](t) is piecewise linear, so its one-sided
    # difference quotients at a point with no kink within one step are its
    # one-sided derivatives, the ends of the interval d f_j(x_j).
    rng = philox_generator(613)
    step = 1e-6
    for _ in range(40):
        m, n = int(rng.integers(2, 8)), int(rng.integers(2, 9))
        lower, upper = _random_box(rng, n)
        problem = L1L2PenaltyProblem(
            sensing=rng.standard_normal((m, n)), observation=rng.standard_normal(m),
            lam=float(rng.uniform(0.01, 1.0)), lower=lower, upper=upper,
        )
        # Each coordinate at its lower bound, its upper bound, 0, or well inside.
        kind = rng.integers(0, 4, size=n)
        inside = lower + rng.uniform(0.1, 0.9, size=n) * (upper - lower)
        inside[np.abs(inside) < 1e-3] = 0.0
        x = np.choose(kind, [lower, upper, np.zeros(n), inside])
        if not x.any():
            x = inside
        if not x.any():
            continue  # every box is [0, 0], so dom(F) is empty
        exact = problem.grad_h(x)
        central = central_gradient(problem.eval_h, x, 1e-5 * (1.0 + np.abs(x).max()))
        assert np.max(np.abs(central - exact) / (1.0 + np.abs(exact))) <= 1e-6
        value = eval_objective(problem, x).value
        grad_g = central_gradient(problem.eval_g, x, step)
        grad_h = central_gradient(problem.eval_h, x, step)
        u = value * grad_g - grad_h
        lo, hi = _one_sided_differences(problem.eval_f, x, step)
        gaps = np.maximum(lo - u, 0.0) + np.maximum(u - hi, 0.0)
        reference = float(np.linalg.norm(gaps))
        residual = problem.critical_residual(x)
        assert abs(residual - reference) <= 1e-5 * (1.0 + reference)


def _random_sgep(rng: np.random.Generator, n: int, r: int) -> SgepProblem:
    g = rng.standard_normal((3 * n, n))
    h = rng.standard_normal((3 * n, n))
    a = g.T @ g / (3 * n) + 0.1 * np.eye(n)
    b = h.T @ h / (3 * n) + 0.5 * np.eye(n)
    return SgepProblem(matrix_a=a, matrix_b=b, sparsity=r)


def test_sgep_residual_matches_finite_difference_ratio_gradient():
    # With q = h / g = x'Bx / x'Ax, grad q = (B x - q A x) / g, so the residual
    # is g times the norm of grad q over the coordinates the test ranges over:
    # every coordinate below r nonzeros, the support at exactly r.
    rng = philox_generator(617)
    for _ in range(40):
        n = int(rng.integers(2, 10))
        r = int(rng.integers(1, n + 1))
        problem = _random_sgep(rng, n, r)
        size = int(rng.integers(1, r + 1))
        x = np.zeros(n)
        support = rng.choice(n, size=size, replace=False)
        x[support] = rng.choice([-1.0, 1.0], size=size) * rng.uniform(0.2, 1.0, size=size)
        x /= np.linalg.norm(x)

        def ratio(point):
            return problem.eval_h(point) / problem.eval_g(point)

        grad = central_gradient(ratio, x, 1e-6)
        if size == r:
            grad = grad[np.sort(support)]
        reference = problem.eval_g(x) * float(np.linalg.norm(grad))
        residual = problem.critical_residual(x)
        assert abs(residual - reference) <= 1e-6 * (1.0 + reference)


def test_sgep_residual_vanishes_at_the_brute_force_optimum():
    rng = philox_generator(619)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        r = int(rng.integers(1, min(n, 4) + 1))
        problem = _random_sgep(rng, n, r)
        value, point = sgep_brute_force_optimum(problem.matrix_a, problem.matrix_b, r)
        assert abs(eval_objective(problem, point).value - value) <= 1e-10 * value
        assert problem.critical_residual(point) <= 1e-9
