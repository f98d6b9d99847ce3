"""Sparse eigenvalue family: projection, residuals, generators, brute force."""

from __future__ import annotations

import copy
import itertools
import math
import pickle

import numpy as np
import pytest
from conftest import CallCounter, sgep_brute_force_optimum

from fracopt import (
    LineSearchConfig,
    PgsaConfig,
    SfdaRecipe,
    SgepProblem,
    eval_objective,
    gen_sfda,
    gen_sfda_dataset,
    project_sparse_sphere,
    run_pgsa,
    run_pgsa_ls,
    scatter_matrices,
    sgep_default_init,
)
from fracopt.exceptions import (
    DegenerateInputError,
    DimensionMismatchError,
    DomainError,
    InvalidProblemError,
)
from fracopt import sgep as sgep_module
from fracopt.rand import as_generator, philox_generator
from fracopt.sgep import check_symmetric


def diag_pair_problem(r: int = 2) -> SgepProblem:
    return SgepProblem(matrix_a=np.diag([1.0, 2.0]), matrix_b=np.diag([2.0, 1.0]), sparsity=r)


def wishart(rng: np.random.Generator, samples: int, dim: int) -> np.ndarray:
    g = rng.standard_normal((samples, dim))
    return g.T @ g / samples


def projection_oracle(x: np.ndarray, r: int) -> np.ndarray:
    """Exhaustive-support reference for project_sparse_sphere."""
    n = x.shape[0]
    best = None
    best_dist = math.inf
    for support in itertools.combinations(range(n), r):
        idx = np.asarray(support)
        if np.linalg.norm(x[idx]) == 0.0:
            continue
        y = np.zeros(n)
        y[idx] = x[idx] / np.linalg.norm(x[idx])
        dist = float(np.linalg.norm(y - x))
        # Strict inequality keeps the first (lexicographically smallest)
        # optimal support, matching the lower-index tie-break.
        if dist < best_dist - 1e-15:
            best_dist = dist
            best = y
    assert best is not None
    return best


def test_projection_keeps_two_largest_magnitudes():
    out = project_sparse_sphere(np.array([3.0, -4.0, 1.0]), 2)
    assert np.allclose(out, [0.6, -0.8, 0.0], atol=1e-15)


def test_projection_tie_breaks_toward_lower_index():
    out = project_sparse_sphere(np.array([1.0, 1.0, 0.0]), 1)
    assert np.array_equal(out, [1.0, 0.0, 0.0])


def test_projection_full_support_just_normalizes():
    x = np.array([1.0, 2.0, 2.0])
    out = project_sparse_sphere(x, 3)
    assert np.allclose(out, x / 3.0, atol=1e-15)


def test_projection_rejects_origin_and_bad_r():
    with pytest.raises(DegenerateInputError):
        project_sparse_sphere(np.zeros(3), 1)
    with pytest.raises(ValueError):
        project_sparse_sphere(np.array([1.0, 0.0]), 0)
    with pytest.raises(ValueError):
        project_sparse_sphere(np.array([1.0, 0.0]), 3)


def test_projection_rejects_a_matrix():
    with pytest.raises(ValueError, match="expected a 1-D vector"):
        project_sparse_sphere(np.eye(3), 1)


def test_projection_matches_exhaustive_oracle():
    rng = philox_generator(101)
    for _ in range(200):
        n = int(rng.integers(2, 7))
        r = int(rng.integers(1, n + 1))
        x = rng.standard_normal(n)
        fast = project_sparse_sphere(x, r)
        slow = projection_oracle(x, r)
        assert np.allclose(fast, slow, atol=1e-12)


def stable_sort_projection(x: np.ndarray, r: int) -> np.ndarray:
    """Reference rule: a stable sort on -|x| keeps the lower index among ties."""
    keep = np.argsort(-np.abs(x), kind="stable")[:r]
    y = np.zeros_like(x)
    y[keep] = x[keep]
    return y / np.linalg.norm(y)


def test_projection_matches_stable_sort_rule_bitwise():
    rng = philox_generator(107)
    for _ in range(300):
        n = int(rng.integers(1, 31))
        # Few distinct integer magnitudes, so most cuts fall inside a tie.
        x = rng.integers(-3, 4, size=n).astype(float)
        if not x.any():
            continue
        for r in range(1, n + 1):
            assert project_sparse_sphere(x, r).tobytes() == stable_sort_projection(x, r).tobytes()
        # NaN sorts after every magnitude and is never kept while r numbers remain.
        x[rng.integers(n, size=int(rng.integers(1, 3)))] = np.nan
        numbers = int(np.count_nonzero(~np.isnan(x)))
        if not np.nan_to_num(x).any():
            continue
        for r in range(1, numbers + 1):
            assert project_sparse_sphere(x, r).tobytes() == stable_sort_projection(x, r).tobytes()
    x = rng.standard_normal(1000)
    assert project_sparse_sphere(x, 50).tobytes() == stable_sort_projection(x, 50).tobytes()


def test_support_products_match_dense_formulas():
    rng = philox_generator(109)
    n, r = 30, 5
    a = wishart(rng, 40, n) + 0.1 * np.eye(n)
    b = wishart(rng, 40, n) + 0.5 * np.eye(n)
    problem = SgepProblem(matrix_a=a, matrix_b=b, sparsity=r)
    points = [
        project_sparse_sphere(rng.standard_normal(n), r),
        project_sparse_sphere(rng.standard_normal(n), 2),
        rng.standard_normal(n),
    ]

    def close(got, want):
        return np.allclose(got, want, rtol=1e-12, atol=1e-12 * float(np.max(np.abs(want))))

    for x in points:
        assert close(problem.eval_h(x), 0.5 * x @ b @ x)
        assert close(problem.eval_g(x), 0.5 * x @ a @ x)
        assert close(problem.grad_h(x), b @ x)
        assert close(problem.subgrad_g(x), a @ x)
    for x in points[:2]:  # the dense third point lies outside dom(F)
        assert close(eval_objective(problem, x).value, (x @ b @ x) / (x @ a @ x))


def test_nearly_symmetric_input_is_stored_exactly_symmetric():
    rng = philox_generator(113)
    n = 8
    b = wishart(rng, 20, n) + 0.5 * np.eye(n)
    assert np.array_equal(SgepProblem(matrix_a=np.eye(n), matrix_b=b, sparsity=2).matrix_b, b)
    skewed = b.copy()
    skewed[0, 3] += 1e-13 * float(np.max(np.abs(b)))
    problem = SgepProblem(matrix_a=np.eye(n), matrix_b=skewed, sparsity=2)
    assert np.array_equal(problem.matrix_b, problem.matrix_b.T)
    # A one-hot x makes both products exact: row 3 against column 3 of B.
    x = np.zeros(n)
    x[3] = 1.0
    assert np.array_equal(problem.grad_h(x), problem.matrix_b @ x)
    assert not np.array_equal(x @ skewed, skewed @ x)
    # L is read off the stored, averaged B: the matrix the callbacks use.
    assert problem.lipschitz_grad_h == float(np.linalg.eigvalsh(problem.matrix_b)[-1])
    assert np.array_equal(problem.matrix_b, 0.5 * (skewed + skewed.T))


def test_shape_mismatch_is_a_dimension_mismatch():
    with pytest.raises(DimensionMismatchError) as err:
        SgepProblem(matrix_a=np.eye(2), matrix_b=np.eye(3), sparsity=1)
    assert str(err.value) == "A has shape (2, 2), B has shape (3, 3)"
    assert issubclass(DimensionMismatchError, InvalidProblemError)


def test_projection_beats_random_feasible_net():
    rng = philox_generator(103)
    x = rng.standard_normal(6)
    proj = project_sparse_sphere(x, 2)
    d_proj = float(np.linalg.norm(proj - x))
    for _ in range(10_000):
        y = np.zeros(6)
        idx = rng.choice(6, size=2, replace=False)
        y[idx] = rng.standard_normal(2)
        y /= np.linalg.norm(y)
        assert d_proj <= np.linalg.norm(y - x) + 1e-12


def test_prox_ignores_step_size_bitwise():
    problem = diag_pair_problem()
    z = np.array([0.3, -1.7])
    outs = [problem.prox_f(alpha, z) for alpha in (0.1, 1.0, 10.0)]
    assert np.array_equal(outs[0], outs[1])
    assert np.array_equal(outs[1], outs[2])


def test_residual_zero_at_full_space_eigenvector():
    problem = diag_pair_problem()
    assert problem.critical_residual(np.array([0.0, 1.0])) == 0.0


def test_residual_zero_at_single_coordinate_support():
    problem = diag_pair_problem(r=1)
    assert problem.critical_residual(np.array([1.0, 0.0])) == 0.0


def test_residual_one_at_balanced_non_critical_point():
    problem = diag_pair_problem()
    x = np.array([1.0, 1.0]) / math.sqrt(2.0)
    assert abs(problem.critical_residual(x) - 1.0) <= 1e-12


def test_residual_rejects_infeasible_points():
    problem = diag_pair_problem(r=1)
    with pytest.raises(DomainError):
        problem.critical_residual(np.array([1.0, 1.0]) / math.sqrt(2.0))
    with pytest.raises(DomainError):
        diag_pair_problem().critical_residual(np.array([2.0, 0.0]))
    with pytest.raises(DimensionMismatchError, match="x has length 3, problem dimension is 2"):
        diag_pair_problem().critical_residual(np.array([1.0, 0.0, 0.0]))


def test_residual_borderline_support_takes_worse_reading():
    # One entry sits between the support threshold and 10x the threshold, so
    # the classification is ambiguous; the residual must not silently pick
    # the flattering reading.
    problem = SgepProblem(
        matrix_a=np.eye(3), matrix_b=np.diag([1.0, 2.0, 3.0]), sparsity=2
    )
    tiny = 5e-12
    x = np.array([1.0, tiny, 0.0])
    x = x / np.linalg.norm(x)
    with_border = problem.critical_residual(x)
    strict = problem.critical_residual(np.array([1.0, 0.0, 0.0]))
    assert with_border >= strict
    ratio = eval_objective(problem, x).value
    full = np.linalg.norm(problem.matrix_b @ x - ratio * (problem.matrix_a @ x))
    sub = problem.matrix_b[:2, :2] @ x[:2] - ratio * x[:2]
    assert abs(with_border - max(full, float(np.linalg.norm(sub)))) <= 1e-15


def test_lipschitz_and_g_bound_match_dense_eigensolver():
    # L = lambda_max(B) and M = lambda_max(A) / 2 on the examples that once
    # checked the power iteration.
    diag = np.diag([1.0, 3.0, 2.0])
    v = np.array([0.0, 2.0, 0.0, 0.0])
    m = wishart(philox_generator(107), 30, 12)
    for a, b in ((diag, diag), (np.outer(v, v), np.eye(4)), (m, m)):
        problem = SgepProblem(matrix_a=a, matrix_b=b, sparsity=1)
        assert problem.lipschitz_grad_h == np.linalg.eigvalsh(b)[-1]
        assert problem.g_sup_bound == 0.5 * np.linalg.eigvalsh(a)[-1]
    assert abs(np.linalg.eigvalsh(diag)[-1] - 3.0) <= 1e-14
    assert abs(np.linalg.eigvalsh(np.outer(v, v))[-1] - 4.0) <= 1e-14


def test_paper_size_draw_with_close_top_eigenvalues_builds():
    # The power iteration that used to estimate L and M gave up on this
    # draw of the sfda benchmark (master seed 105, trial 2).
    recipe = SfdaRecipe(n=1000, p1=500, p2=500, r=50, seed=philox_generator(105, 2))
    problem = gen_sfda(recipe)
    assert problem.lipschitz_grad_h == np.linalg.eigvalsh(problem.matrix_b)[-1]
    # M is what construction computes on any BLAS thread count; 0.5 * eigvalsh(A)[-1]
    # equals it at two threads only.
    assert problem.g_sup_bound == sgep_module._factor_g_bound(problem.matrix_a)


@pytest.fixture
def eigvalsh_shapes(monkeypatch):
    """Shapes of the matrices np.linalg.eigvalsh is called on, in call order."""
    shapes, original = [], np.linalg.eigvalsh

    def spy(m, *args, **kwargs):
        shapes.append(np.shape(m))
        return original(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    return shapes


@pytest.fixture
def factor_bounds(monkeypatch):
    """What each construction's low-rank factor route returned (None: declined)."""
    bounds, original = [], sgep_module._factor_g_bound

    def spy(a):
        bounds.append(original(a))
        return bounds[-1]

    monkeypatch.setattr(sgep_module, "_factor_g_bound", spy)
    return bounds


@pytest.mark.parametrize("rank", [1, 2, "sfda"])
def test_low_rank_a_takes_the_factor_route(rank, eigvalsh_shapes, factor_bounds):
    if rank == "sfda":
        # The between-class scatter has rank 2.
        problem = gen_sfda(SfdaRecipe(n=1000, p1=500, p2=500, r=50, seed=philox_generator(105, 2)))
        rank = 2
    else:
        rng = philox_generator(109, rank)
        half = rng.standard_normal((rank, 20))
        b = wishart(rng, 40, 20) + 0.5 * np.eye(20)
        problem = SgepProblem(matrix_a=half.T @ half, matrix_b=b, sparsity=3)
    n = problem.dim
    # A k x k eigensolve for M and one dense eigensolve, of B; a PD B skips
    # the stacked eigensolve of the sampled blocks.
    assert eigvalsh_shapes == [(rank, rank), (n, n)]
    assert factor_bounds == [problem.g_sup_bound]
    top = 0.5 * np.linalg.eigvalsh(problem.matrix_a)[-1]
    assert abs(problem.g_sup_bound - top) <= 1e-12 * top
    assert problem.lipschitz_grad_h == np.linalg.eigvalsh(problem.matrix_b)[-1]


def test_indefinite_low_rank_a_keeps_the_dense_error(factor_bounds):
    rng = philox_generator(113)
    u, v = rng.standard_normal(20), rng.standard_normal(20)
    a = np.outer(u, u) - np.outer(v, v)
    smallest = np.linalg.eigvalsh(a)[0]
    with pytest.raises(InvalidProblemError) as err:
        SgepProblem(matrix_a=a, matrix_b=np.eye(20), sparsity=3)
    assert str(err.value) == f"A is not PSD: smallest eigenvalue {smallest:.3e}"
    assert factor_bounds == [None]


def test_full_rank_a_keeps_the_dense_bound_bitwise(factor_bounds):
    rng = philox_generator(127)
    a = wishart(rng, 1000, 1000)
    b = a + 0.5 * np.eye(1000)
    problem = SgepProblem(matrix_a=a, matrix_b=b, sparsity=50)
    assert factor_bounds == [None]
    assert problem.g_sup_bound == 0.5 * np.linalg.eigvalsh(problem.matrix_a)[-1]
    assert problem.lipschitz_grad_h == np.linalg.eigvalsh(problem.matrix_b)[-1]


@pytest.mark.parametrize("ridge", [0.5, 0.0])
def test_sampled_block_check_runs_only_for_a_nearly_singular_b(monkeypatch, ridge):
    # 10 samples in 20 dimensions: B has rank 10 unless ridged, while its
    # 3 x 3 principal blocks stay positive definite either way.
    calls, original = [], SgepProblem._check_submatrices

    def spy(self, b, n):
        calls.append(n)
        return original(self, b, n)

    monkeypatch.setattr(SgepProblem, "_check_submatrices", spy)
    b = wishart(philox_generator(131), 10, 20) + ridge * np.eye(20)
    problem = SgepProblem(matrix_a=np.eye(20), matrix_b=b, sparsity=3)
    assert calls == ([] if ridge else [20])
    assert problem.lipschitz_grad_h == np.linalg.eigvalsh(problem.matrix_b)[-1]


def test_scatter_matrices_match_direct_formula():
    rng = philox_generator(109)
    z1 = rng.standard_normal((7, 4))
    z2 = rng.standard_normal((5, 4)) + 1.0
    between, within = scatter_matrices(z1, z2)
    p = 12
    m1 = z1.mean(axis=0)
    m2 = z2.mean(axis=0)
    expect_between = (7 * np.outer(m1, m1) + 5 * np.outer(m2, m2)) / p
    expect_within = sum(np.outer(z - m1, z - m1) for z in z1)
    expect_within = expect_within + sum(np.outer(z - m2, z - m2) for z in z2)
    expect_within = expect_within / p
    assert np.allclose(between, expect_between, atol=1e-12)
    assert np.allclose(within, expect_within, atol=1e-12)
    assert np.array_equal(between, between.T)
    assert np.array_equal(within, within.T)


def test_scatter_matrices_are_psd():
    rng = philox_generator(113)
    z1 = rng.standard_normal((20, 6))
    z2 = rng.standard_normal((15, 6)) - 0.5
    between, within = scatter_matrices(z1, z2)
    assert np.linalg.eigvalsh(between)[0] >= -1e-12
    assert np.linalg.eigvalsh(within)[0] >= -1e-12


def test_scatter_matrices_validation():
    with pytest.raises(DegenerateInputError):
        scatter_matrices(np.zeros((0, 3)), np.zeros((2, 3)))
    with pytest.raises(DegenerateInputError):
        scatter_matrices(np.zeros((2, 3)), np.zeros((2, 4)))


def test_gen_sfda_dataset_shapes_and_mean_shift():
    recipe = SfdaRecipe(n=50, p1=400, p2=300, r=5, seed=0)
    class1, class2 = gen_sfda_dataset(recipe)
    assert class1.shape == (400, 50)
    assert class2.shape == (300, 50)
    shift = class2.mean(axis=0) - class1.mean(axis=0)
    expected = recipe.class2_mean()
    # The planted shift sits on 1-based coordinates 2, 4, ..., 40.
    assert np.count_nonzero(expected) == 20
    assert np.all(expected[np.arange(1, 40, 2)] == 0.5)
    # Sampling noise at p ~ a few hundred: the planted shift dominates.
    assert np.linalg.norm(shift - expected) <= 0.5 * np.linalg.norm(expected) + 0.3


def test_gen_sfda_applies_within_ridge():
    recipe = SfdaRecipe(n=20, p1=40, p2=40, r=3, seed=7)
    problem = gen_sfda(recipe)
    raw_between, raw_within = scatter_matrices(*gen_sfda_dataset(recipe))
    assert np.allclose(problem.matrix_a, raw_between, atol=1e-12)
    assert np.allclose(problem.matrix_b, raw_within + 0.5 * np.eye(20), atol=1e-12)


def test_gen_sfda_is_deterministic_per_seed():
    recipe = SfdaRecipe(n=30, p1=60, p2=60, r=4, seed=11)
    first = gen_sfda(recipe)
    second = gen_sfda(SfdaRecipe(n=30, p1=60, p2=60, r=4, seed=11))
    assert np.array_equal(first.matrix_a, second.matrix_a)
    assert np.array_equal(first.matrix_b, second.matrix_b)
    other = gen_sfda(SfdaRecipe(n=30, p1=60, p2=60, r=4, seed=12))
    assert not np.array_equal(first.matrix_a, other.matrix_a)


def test_sfda_recipe_validation():
    with pytest.raises(InvalidProblemError):
        SfdaRecipe(n=33, p1=10, p2=10, r=3)  # n must be divisible by 5
    with pytest.raises(InvalidProblemError):
        SfdaRecipe(n=20, p1=0, p2=10, r=3)
    with pytest.raises(InvalidProblemError):
        SfdaRecipe(n=20, p1=10, p2=10, r=0)
    with pytest.raises(InvalidProblemError):
        SfdaRecipe(n=20, p1=10, p2=10, r=21)
    for knob in ("mean_shift", "toeplitz_rho", "within_ridge"):  # protocol constants
        with pytest.raises(TypeError):
            SfdaRecipe(n=20, p1=10, p2=10, r=3, **{knob: 0.0})


def test_default_init_examples():
    assert np.array_equal(sgep_default_init(4, 1), [1.0, 0.0, 0.0, 0.0])
    x = sgep_default_init(5, 4)
    assert np.allclose(x, [0.5, 0.5, 0.5, 0.5, 0.0], atol=1e-15)
    assert abs(np.linalg.norm(sgep_default_init(100, 7)) - 1.0) <= 1e-12
    with pytest.raises(ValueError):
        sgep_default_init(3, 4)


def test_brute_force_diagonal_instance():
    value, point = sgep_brute_force_optimum(np.diag([1.0, 2.0]), np.diag([2.0, 1.0]), 1)
    assert abs(value - 0.5) <= 1e-12
    assert np.allclose(np.abs(point), [0.0, 1.0], atol=1e-12)


def test_brute_force_full_support_matches_dense_eigensolver():
    rng = philox_generator(127)
    a = wishart(rng, 30, 4) + 0.1 * np.eye(4)
    b = wishart(rng, 30, 4) + 0.5 * np.eye(4)
    value, point = sgep_brute_force_optimum(a, b, 4)
    # With r = n the constraint set is the whole sphere, so the optimum is
    # the smallest eigenvalue of A^{-1/2} B A^{-1/2}.
    a_vals, a_vecs = np.linalg.eigh(a)
    inv_half = (a_vecs / np.sqrt(a_vals)) @ a_vecs.T
    expected = float(np.linalg.eigvalsh(inv_half @ b @ inv_half)[0])
    assert abs(value - expected) <= 1e-10
    ratio = float(point @ b @ point) / float(point @ a @ point)
    assert abs(ratio - value) <= 1e-12
    assert abs(np.linalg.norm(point) - 1.0) <= 1e-12


def test_brute_force_bounds_every_solver_run():
    rng = philox_generator(131)
    a = wishart(rng, 24, 8) + 0.05 * np.eye(8)
    b = wishart(rng, 24, 8) + 0.5 * np.eye(8)
    problem = SgepProblem(matrix_a=a, matrix_b=b, sparsity=2)
    best, _ = sgep_brute_force_optimum(a, b, 2)
    x0 = sgep_default_init(8, 2)
    runs = [
        run_pgsa(problem, x0, PgsaConfig(step_tol=1e-10, max_iter=5000)),
        run_pgsa_ls(problem, x0, LineSearchConfig(N=0, step_tol=1e-10, max_iter=5000)),
        run_pgsa_ls(problem, x0, LineSearchConfig(N=4, step_tol=1e-10, max_iter=5000)),
    ]
    for trace in runs:
        assert trace.certificate.objective >= best - 1e-9


def test_brute_force_size_guard_and_validation():
    big = np.eye(17)
    with pytest.raises(ValueError, match="refusing exhaustive enumeration for n = 17, r = 2"):
        sgep_brute_force_optimum(big, big, 2)
    small = np.eye(8)
    with pytest.raises(ValueError, match="refusing exhaustive enumeration for n = 8, r = 5"):
        sgep_brute_force_optimum(small, small, 5)
    # The data checks are SgepProblem's, with its error classes and messages.
    with pytest.raises(DimensionMismatchError):
        sgep_brute_force_optimum(np.eye(3), np.eye(4), 1)
    with pytest.raises(InvalidProblemError, match="need 1 <= r <= 3"):
        sgep_brute_force_optimum(np.eye(3), np.eye(3), 0)
    with pytest.raises(InvalidProblemError, match="A is not symmetric"):
        sgep_brute_force_optimum(np.array([[2.0, 1.5], [0.5, 2.0]]), np.eye(2), 1)
    # B restricted to {1} is the zero block: no PD reduction exists there.
    with pytest.raises(InvalidProblemError):
        sgep_brute_force_optimum(np.eye(2), np.diag([1.0, 0.0]), 1)


def test_brute_force_without_a_energy_is_degenerate():
    # A = 0 is PSD, but no support admits a point with x.T A x > 0.
    with pytest.raises(DegenerateInputError, match="the A-energy vanishes on every support"):
        sgep_brute_force_optimum(np.zeros((3, 3)), np.eye(3), 2)


def test_sgep_problem_validation():
    with pytest.raises(InvalidProblemError):
        SgepProblem(
            matrix_a=np.array([[1.0, 2.0], [0.0, 1.0]]),
            matrix_b=np.eye(2),
            sparsity=1,
        )
    with pytest.raises(InvalidProblemError):
        SgepProblem(matrix_a=np.eye(2), matrix_b=np.eye(3), sparsity=1)
    with pytest.raises(InvalidProblemError):
        SgepProblem(matrix_a=np.eye(2), matrix_b=np.eye(2), sparsity=3)
    with pytest.raises(InvalidProblemError):
        SgepProblem(matrix_a=-np.eye(2), matrix_b=np.eye(2), sparsity=1)
    with pytest.raises(InvalidProblemError):
        SgepProblem(matrix_a=np.eye(2), matrix_b=np.diag([1.0, 0.0]), sparsity=1)


@pytest.mark.parametrize("which", ["A", "B"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_sgep_problem_rejects_non_finite_data(which, bad):
    matrices = {"A": np.eye(3), "B": 2.0 * np.eye(3)}
    matrices[which][0, 2] = matrices[which][2, 0] = bad
    with pytest.raises(InvalidProblemError, match=f"{which} has a non-finite entry"):
        SgepProblem(matrix_a=matrices["A"], matrix_b=matrices["B"], sparsity=2)


def test_sgep_objective_scale_invariance():
    rng = philox_generator(137)
    a = wishart(rng, 20, 5) + 0.1 * np.eye(5)
    b = wishart(rng, 20, 5) + 0.5 * np.eye(5)
    problem = SgepProblem(matrix_a=a, matrix_b=b, sparsity=2)
    scaled = SgepProblem(matrix_a=3.0 * a, matrix_b=3.0 * b, sparsity=2)
    for _ in range(10):
        x = project_sparse_sphere(rng.standard_normal(5), 2)
        value = eval_objective(problem, x).value
        assert abs(value - eval_objective(scaled, x).value) <= 1e-12 * (1.0 + abs(value))


def uncached_callback(problem: SgepProblem, name: str, x: np.ndarray):
    """The support formulas as written before the support cache: every call gathers."""
    if name == "eval_f":
        unit = abs(np.linalg.norm(x) - 1.0) <= sgep_module.UNIT_NORM_TOL
        return 0.0 if np.count_nonzero(x) <= problem.sparsity and unit else math.inf
    support = np.flatnonzero(x)
    m = problem.matrix_a if name in ("eval_g", "subgrad_g") else problem.matrix_b
    if name.startswith("eval"):
        return 0.5 * float(x[support] @ m[np.ix_(support, support)] @ x[support])
    return x[support] @ m[support]


def test_support_cache_matches_uncached_formulas_bitwise():
    rng = philox_generator(151)
    n, r = 60, 8
    problems = [
        SgepProblem(
            matrix_a=wishart(rng, 80, n) + 0.1 * np.eye(n),
            matrix_b=wishart(rng, 80, n) + 0.5 * np.eye(n),
            sparsity=r,
        )
        for _ in range(2)
    ]
    names = ["eval_f", "eval_h", "eval_g", "grad_h", "subgrad_g"]

    def check(problem, x, step, order=names):
        for name in order:
            got = getattr(problem, name)(x)
            want = uncached_callback(problem, name, x)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), (step, name)

    def on_support(support):
        x = np.zeros(n)
        x[support] = rng.standard_normal(support.size)
        return x / np.linalg.norm(x)

    first = np.flatnonzero(project_sparse_sphere(rng.standard_normal(n), r))
    second = np.flatnonzero(project_sparse_sphere(rng.standard_normal(n), r))
    walk = [on_support(first), on_support(first), on_support(second)]  # repeat, then change
    walk += [on_support(s) for s in (first, second) * 3]  # two supports alternating
    walk += [project_sparse_sphere(rng.standard_normal(n), 3), rng.standard_normal(n)]
    walk += [on_support(first)]
    for step, x in enumerate(walk):
        for problem in problems:  # two problems used in turn
            check(problem, x, step, names[step % 5 :] + names[: step % 5])

    # prox_f hands its point's support to the callbacks; fewer than r nonzeros
    # in z leave zeros in the kept set, which are not in the support.
    sparse_z = np.zeros(n)
    sparse_z[first[:3]] = rng.standard_normal(3)
    tied_z = np.zeros(n)  # the cut falls inside a tie that starts below a larger entry
    tied_z[[50, 2, 5, 7, 9, 11, 13, 15, 17, 19]] = [3.0, 1, -1, 1, -1, 1, 1, -1, 1, 1]
    for step, z in enumerate([rng.standard_normal(n), tied_z, sparse_z]):
        for problem in problems:
            y = problem.prox_f(0.5, z)
            assert y.tobytes() == project_sparse_sphere(z, r).tobytes()
            assert problem._support(y)[0].tobytes() == np.flatnonzero(y).tobytes()
            check(problem, y, ("prox", step))
            # The same array edited in place between two callbacks is a new point.
            y[np.flatnonzero(y == 0.0)[0]] = 0.25
            check(problem, y, ("edited", step))
            y[first] = 0.0
            check(problem, y, ("cleared", step))

    # A callback at another point between prox_f and the callbacks at its output.
    for problem in problems:
        y = problem.prox_f(0.5, rng.standard_normal(n))
        check(problem, on_support(second), "between", ["eval_h"])
        check(problem, y, "after another point", ["eval_f", "grad_h"])

    # With no finite nonzero to keep, 0 / 0 fills the projection with NaN.
    nan_z = np.zeros(n)
    nan_z[5] = np.nan
    with np.errstate(invalid="ignore"):
        y = problems[0].prox_f(1.0, nan_z)
        check(problems[0], y, "nan")

    # Copies keep a warm memo, and it still answers only for its own point.
    problem = problems[0]
    x = problem.prox_f(1.0, rng.standard_normal(n))
    problem.grad_h(x)
    for kept in (copy.deepcopy(problem), pickle.loads(pickle.dumps(problem))):
        check(kept, x, "copy")
        check(kept, on_support(second), "copy, new point")
        check(kept, x, "copy, back")

    # The blocks of every support seen are kept up to the size of A, then dropped.
    a, b = wishart(rng, 12, 6) + 0.1 * np.eye(6), wishart(rng, 12, 6) + 0.5 * np.eye(6)
    small = SgepProblem(matrix_a=a, matrix_b=b, sparsity=3)
    for step, support in enumerate(list(itertools.combinations(range(6), 3)) * 2):
        x = np.zeros(6)
        x[list(support)] = rng.standard_normal(3)
        check(small, x, ("small", step))
        assert len(small._blocks) <= 4  # 4 blocks of 3 x 3 fill one 6 x 6 matrix


def test_stored_matrices_are_read_only_private_copies():
    rng = philox_generator(157)
    n = 24  # A and B take 4608 bytes each, so they are stored 64-byte aligned
    a = wishart(rng, 30, n) + 0.1 * np.eye(n)
    b = wishart(rng, 30, n) + 0.5 * np.eye(n)
    skewed = b.copy()
    skewed[0, 3] += 1e-13
    x = project_sparse_sphere(rng.standard_normal(n), 3)
    for given_b in (b, skewed):  # stored as a copy, and stored averaged
        problem = SgepProblem(matrix_a=a, matrix_b=given_b, sparsity=3)
        before = [problem.eval_h(x), problem.grad_h(x), problem.eval_g(x), problem.subgrad_g(x)]
        for stored, given in ((problem.matrix_a, a), (problem.matrix_b, given_b)):
            assert not np.shares_memory(stored, given)
        for kept in (problem, copy.deepcopy(problem), pickle.loads(pickle.dumps(problem))):
            for stored in (kept.matrix_a, kept.matrix_b):
                with pytest.raises(ValueError):
                    stored[0, 0] = 1.0
                assert stored.ctypes.data % 64 == 0
        given_b_copy = given_b.copy()
        given_b[:] = 0.0
        after = [problem.eval_h(x), problem.grad_h(x), problem.eval_g(x), problem.subgrad_g(x)]
        given_b[:] = given_b_copy
        assert [np.asarray(v).tobytes() for v in after] == [
            np.asarray(v).tobytes() for v in before
        ]


@pytest.mark.parametrize("solver", ["pgsa", "pgsa_ml", "pgsa_nl"])
def test_counted_solve_matches_direct_solve(solver):
    def build():
        recipe = SfdaRecipe(n=50, p1=60, p2=60, r=5, seed=philox_generator(43, 0))
        return gen_sfda(recipe)

    def solve(problem):
        x0 = sgep_default_init(50, 5)
        if solver == "pgsa":
            return run_pgsa(problem, x0, PgsaConfig(max_iter=300))
        cfg = LineSearchConfig(N=0 if solver == "pgsa_ml" else 4, max_iter=300)
        return run_pgsa_ls(problem, x0, cfg)

    def fingerprint(trace):
        arrays = (trace.objective, trace.g_value, trace.alpha, trace.step_norm, trace.final_x)
        arrays += () if trace.backtracks is None else (trace.backtracks,)
        return [a.tobytes() for a in arrays], trace.certificate

    problem = build()
    direct = solve(problem)
    counter = CallCounter(problem)  # the same problem, its kept gathers warm
    counted = solve(counter)
    assert fingerprint(counted) == fingerprint(direct) == fingerprint(solve(build()))
    k = direct.iterations
    b = 0 if direct.backtracks is None else int(direct.backtracks.sum())
    assert counter.calls == {
        "grad_h": k,
        "subgrad_g": k,
        "prox_f": k + b,
        "eval_f": k + b + 1,
        "eval_g": k + b + 1,
        "eval_h": counter.finite_f,
        "critical_residual": 1,
    }


def looped_sfda_dataset(recipe: SfdaRecipe) -> tuple[np.ndarray, np.ndarray]:
    """gen_sfda_dataset as first written: the Cholesky factor applied block by block."""
    rng = as_generator(recipe.seed)
    block = recipe.n // 5
    cov = recipe.toeplitz_rho ** np.abs(np.subtract.outer(np.arange(block), np.arange(block)))
    chol = np.linalg.cholesky(cov)
    samples = rng.standard_normal((recipe.p1 + recipe.p2, recipe.n))
    for start in range(0, recipe.n, block):
        samples[:, start : start + block] = samples[:, start : start + block] @ chol.T
    return samples[: recipe.p1], samples[recipe.p1 :] + recipe.class2_mean()


def averaged_scatter_matrices(z1: np.ndarray, z2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """scatter_matrices as first written: out-of-place, then averaged with the transpose."""
    p = z1.shape[0] + z2.shape[0]
    m1 = z1.mean(axis=0)
    m2 = z2.mean(axis=0)
    between = (z1.shape[0] * np.outer(m1, m1) + z2.shape[0] * np.outer(m2, m2)) / p
    c1 = z1 - m1
    c2 = z2 - m2
    within = (c1.T @ c1 + c2.T @ c2) / p
    return 0.5 * (between + between.T), 0.5 * (within + within.T)


@pytest.mark.parametrize("n, p1, p2, r", [(1000, 500, 500, 50), (50, 60, 40, 5)])
def test_sfda_construction_matches_first_formulas_bitwise(n, p1, p2, r):
    recipe = SfdaRecipe(n=n, p1=p1, p2=p2, r=r, seed=167)
    classes = gen_sfda_dataset(recipe)
    reference = looped_sfda_dataset(recipe)
    assert [c.tobytes() for c in classes] == [c.tobytes() for c in reference]
    scatter = scatter_matrices(*classes)
    assert [m.tobytes() for m in scatter] == [
        m.tobytes() for m in averaged_scatter_matrices(*reference)
    ]
    for m in scatter:
        assert np.array_equal(m, m.T)


def test_check_symmetric_gap_is_max_abs_difference():
    rng = philox_generator(173)
    for trial in range(6):
        k = 5 + 3 * trial
        m = rng.uniform(-0.45, 0.45, (k, k))
        m = m + m.T
        assert check_symmetric(m, "M")
        m[rng.integers(k), rng.integers(k)] += rng.uniform(1e-15, 1e-13)
        gap = float(np.max(np.abs(m - m.T)))
        if gap == 0.0:  # the nudge landed on the diagonal
            continue
        # Entries below 1 in magnitude make the scale 1, so tol is the bound itself.
        assert not check_symmetric(m, "M", tol=gap)
        with pytest.raises(InvalidProblemError, match="not symmetric"):
            check_symmetric(m, "M", tol=np.nextafter(gap, 0.0))
        # A negative largest entry sets the scale through its magnitude.
        scaled = -8.0 * np.abs(m)
        scaled[0, 0] = -64.0
        gap = float(np.max(np.abs(scaled - scaled.T)))
        assert not check_symmetric(scaled, "M", tol=gap / 64.0)
        with pytest.raises(InvalidProblemError, match="not symmetric"):
            check_symmetric(scaled, "M", tol=np.nextafter(gap / 64.0, 0.0))


def looped_first_singular_support(b: np.ndarray, r: int) -> tuple[int, ...] | None:
    """The submatrix check as first written: one eigensolve per support, in order."""
    n = b.shape[0]
    if math.comb(n, r) <= 50:
        supports = itertools.combinations(range(n), r)
    else:
        rng = philox_generator(0)
        supports = (tuple(np.sort(rng.choice(n, size=r, replace=False))) for _ in range(50))
    for support in supports:
        idx = np.asarray(support)
        if float(np.linalg.eigvalsh(b[np.ix_(idx, idx)])[0]) <= 0.0:
            return tuple(int(i) for i in idx)
    return None


@pytest.mark.parametrize("n, r", [(5, 2), (12, 5)])
def test_stacked_submatrix_check_names_the_looped_first_failure(n, r):
    # Coordinates 1 and 3, and 2 and 4, are copies of each other, so every
    # principal block holding either pair is singular while B stays PSD.
    b = np.eye(n)
    b[1, 3] = b[3, 1] = b[2, 4] = b[4, 2] = 1.0
    expected = looped_first_singular_support(b, r)
    assert expected is not None
    with pytest.raises(InvalidProblemError) as err:
        SgepProblem(matrix_a=np.eye(n), matrix_b=b, sparsity=r)
    assert str(err.value) == f"B restricted to support {expected} is not positive definite"
