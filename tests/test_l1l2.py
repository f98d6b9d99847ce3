"""Sparse recovery family: prox, generators, initializer, residual, scoring."""

from __future__ import annotations

import copy
import math
import pickle

import numpy as np
import pytest

from fracopt import (
    L1L2PenaltyProblem,
    LineSearchConfig,
    eval_objective,
    gen_dct_matrix,
    gen_ground_truth,
    penalty_start_point,
    recovery_report,
    run_pgsa_ls,
)
from fracopt.exceptions import (
    DegenerateInputError,
    DimensionMismatchError,
    DomainError,
    InvalidProblemError,
)
from fracopt.l1l2 import _shrink_clip
from fracopt.rand import philox_generator


def one_d_penalty(observation: float, lam: float = 0.1) -> L1L2PenaltyProblem:
    return L1L2PenaltyProblem(
        sensing=np.array([[1.0]]),
        observation=np.array([observation]),
        lam=lam,
        lower=np.array([-1.0]),
        upper=np.array([1.0]),
    )


def test_prox_origin_is_fixed():
    out = _shrink_clip(np.zeros(3), 0.7, np.full(3, -1.0), np.full(3, 1.0))
    assert np.array_equal(out, np.zeros(3))


def test_prox_soft_threshold_example():
    out = _shrink_clip(np.array([0.5]), 0.2, np.array([-1.0]), np.array([1.0]))
    assert abs(out[0] - 0.3) <= 1e-15


def test_prox_clip_after_threshold_example():
    out = _shrink_clip(np.array([2.0]), 0.2, np.array([-1.0]), np.array([1.0]))
    assert out[0] == 1.0


def test_prox_matches_grid_oracle_on_scalars():
    rng = philox_generator(211)
    grid = np.arange(-1.0, 1.0 + 1e-9, 1e-4)
    for _ in range(25):
        z = float(rng.uniform(-3.0, 3.0))
        threshold = float(rng.uniform(0.0, 1.0))
        fast = _shrink_clip(
            np.array([z]), threshold, np.array([-1.0]), np.array([1.0])
        )[0]
        values = threshold * np.abs(grid) + 0.5 * (grid - z) ** 2
        best = grid[np.argmin(values)]
        assert abs(fast - best) <= 2e-4


def test_prox_is_nonexpansive():
    rng = philox_generator(223)
    lower = np.full(6, -1.0)
    upper = np.full(6, 1.0)
    for _ in range(50):
        z1 = rng.uniform(-3.0, 3.0, size=6)
        z2 = rng.uniform(-3.0, 3.0, size=6)
        threshold = float(rng.uniform(0.0, 2.0))
        d_out = np.linalg.norm(
            _shrink_clip(z1, threshold, lower, upper)
            - _shrink_clip(z2, threshold, lower, upper)
        )
        assert d_out <= np.linalg.norm(z1 - z2) + 1e-12


def test_l2_subgradient_examples():
    def subgrad_g(x):
        n = x.shape[0]
        problem = L1L2PenaltyProblem(
            sensing=np.eye(n), observation=np.ones(n), lam=0.1, lower=-1.0, upper=1.0
        )
        return problem.subgrad_g(x)

    assert np.allclose(subgrad_g(np.array([3.0, 4.0])), [0.6, 0.8], atol=1e-15)
    assert np.array_equal(subgrad_g(np.zeros(4)), np.zeros(4))
    unit = np.array([0.0, 1.0, 0.0])
    assert np.array_equal(subgrad_g(unit), unit)


def test_dct_matrix_entry_bounds_and_shape():
    a = gen_dct_matrix(16, 40, 10.0, philox_generator(227))
    assert a.shape == (16, 40)
    assert np.all(np.abs(a) <= 1.0 / 4.0 + 1e-15)


def test_dct_matrix_high_factor_means_coherent_columns():
    # Mean cosine of adjacent columns over j <= 50.  The asymptotic
    # (m -> inf) values from direct quadrature are ~0.10 at factor 1,
    # 0.9836 at factor 20 and 0.9993 at factor 100; the thresholds leave
    # room for the finite-m fluctuation.
    def mean_adjacent_cosine(factor: float) -> float:
        a = gen_dct_matrix(64, 60, factor, philox_generator(229))
        norms = np.linalg.norm(a, axis=0)
        inner = np.abs(np.sum(a[:, :-1] * a[:, 1:], axis=0))
        return float((inner / (norms[:-1] * norms[1:]))[:50].mean())

    incoherent = mean_adjacent_cosine(1.0)
    coherent = mean_adjacent_cosine(20.0)
    extreme = mean_adjacent_cosine(100.0)
    assert incoherent <= 0.3
    assert coherent >= 0.97
    assert extreme >= 0.99
    assert incoherent < coherent < extreme


def test_dct_matrix_deterministic_per_seed():
    first = gen_dct_matrix(8, 12, 1.0, 5)
    second = gen_dct_matrix(8, 12, 1.0, 5)
    third = gen_dct_matrix(8, 12, 1.0, 6)
    assert np.array_equal(first, second)
    assert not np.array_equal(first, third)
    with pytest.raises(ValueError):
        gen_dct_matrix(0, 12, 1.0, 5)
    for coherence in (0.0, np.inf, np.nan):  # inf gives equal columns, nan a NaN matrix
        with pytest.raises(ValueError, match="need 0 < coherence < inf"):
            gen_dct_matrix(8, 12, coherence, 5)


def test_ground_truth_examples():
    x = gen_ground_truth(30, 7, philox_generator(233))
    assert abs(np.linalg.norm(x) - 1.0) <= 1e-14
    assert np.count_nonzero(x) == 7
    again = gen_ground_truth(30, 7, philox_generator(233))
    assert np.array_equal(x, again)
    with pytest.raises(ValueError):
        gen_ground_truth(5, 6, 0)


def test_initializer_zero_data_falls_back_then_errors():
    problem = one_d_penalty(observation=1.0)
    zero_data = one_d_penalty(observation=0.0)
    with pytest.raises(DegenerateInputError, match="both zero"):
        penalty_start_point(zero_data)
    assert penalty_start_point(problem).shape == (1,)


def test_initializer_zero_result_takes_the_clipped_correlation():
    # Shrinkage by mu = 1e-6 and the clip at 0 send both ISTA coordinates to 0.
    def problem(second):
        return L1L2PenaltyProblem(
            sensing=np.eye(2), observation=np.array([-1.0, second]), lam=0.1,
            lower=0.0, upper=1.0,
        )

    start = penalty_start_point(problem(1e-9))
    assert np.array_equal(start, [0.0, 1e-9])
    trace = run_pgsa_ls(problem(1e-9), start, LineSearchConfig(N=0))
    assert trace.certificate.converged_reason == "step_tol"
    with pytest.raises(DegenerateInputError, match="correlation fallback clipped to zero"):
        penalty_start_point(problem(0.0))


def test_initializer_scalar_fixed_point():
    out = penalty_start_point(one_d_penalty(observation=0.5))
    mu = 1e-6 * 0.5
    assert abs(out[0] - (0.5 - mu)) <= 1e-6


def test_initializer_nearly_interpolates_the_data():
    # Measured precondition for the acceptance-rate experiment.  The
    # initializer does not land near the planted vector in l2 (its norm stays
    # around 0.25 after the fixed iteration budget); what it reliably delivers
    # is a feasible point whose image is close to the observation, which is
    # the warm start the ratio solver needs.  Measured worst relative data
    # residual over these 50 seeds: 3.4e-3.
    for trial in range(50):
        rng = philox_generator(0, trial)
        sensing = gen_dct_matrix(64, 1024, 1.0, rng)
        truth = gen_ground_truth(1024, 12, rng)
        observation = sensing @ truth
        problem = L1L2PenaltyProblem(
            sensing=sensing, observation=observation, lam=8e-5, lower=-1.0, upper=1.0
        )
        start = penalty_start_point(problem)
        assert np.all(start >= -1.0) and np.all(start <= 1.0)
        assert np.linalg.norm(start) > 0.0
        residual = np.linalg.norm(sensing @ start - observation)
        assert residual <= 0.02 * np.linalg.norm(observation)


def test_residual_interior_coordinate_exact_membership():
    problem = one_d_penalty(observation=0.5)
    assert problem.critical_residual(np.array([0.5])) <= 1e-15


def test_residual_active_upper_bound_absorbs_excess():
    # At x = upper = 1 the normal cone is [0, inf): u = lam + 5 contributes
    # nothing.  The observation makes u work out to exactly that value.
    problem = one_d_penalty(observation=1.0 - (1.0 + math.sqrt(11.0)), lam=0.1)
    x = np.array([1.0])
    norm = 1.0
    u = (problem.eval_f(x) + problem.eval_h(x)) / norm - float(problem.grad_h(x)[0])
    assert abs(u - (0.1 + 5.0)) <= 1e-12
    assert problem.critical_residual(x) <= 1e-12
    # The same u strictly inside the box is a genuine violation.
    interior = np.array([0.9])
    assert problem.critical_residual(interior) > 0.1


def test_residual_solver_consistency():
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
    assert problem.critical_residual(trace.final_x) <= 1e-8


def test_residual_rejects_points_outside_domain():
    problem = one_d_penalty(observation=0.5)
    with pytest.raises(DomainError):
        problem.critical_residual(np.zeros(1))
    with pytest.raises(DimensionMismatchError, match="x has length 2, problem dimension is 1"):
        problem.critical_residual(np.zeros(2))


def test_objective_equivalence_at_interpolating_sparse_point():
    rng = philox_generator(241)
    sensing = gen_dct_matrix(32, 100, 1.0, rng)
    truth = gen_ground_truth(100, 5, rng)
    problem = L1L2PenaltyProblem(
        sensing=sensing,
        observation=sensing @ truth,
        lam=8e-5,
        lower=np.full(100, -1.0),
        upper=np.full(100, 1.0),
    )
    ext = eval_objective(problem, truth)
    l1 = float(np.abs(truth).sum())
    assert abs(ext.value - 8e-5 * l1) <= 1e-12
    # l1-over-l2 itself is scale invariant even though F is not.
    assert abs(
        np.abs(3.0 * truth).sum() / np.linalg.norm(3.0 * truth) - l1
    ) <= 1e-12


def test_problem_validation():
    box = (np.array([-1.0]), np.array([1.0]))
    with pytest.raises(InvalidProblemError):
        L1L2PenaltyProblem(
            sensing=np.array([1.0]), observation=np.array([1.0]),
            lam=0.1, lower=box[0], upper=box[1],
        )
    with pytest.raises(InvalidProblemError):
        L1L2PenaltyProblem(
            sensing=np.array([[1.0]]), observation=np.array([1.0, 2.0]),
            lam=0.1, lower=box[0], upper=box[1],
        )
    with pytest.raises(InvalidProblemError):
        L1L2PenaltyProblem(
            sensing=np.array([[1.0]]), observation=np.array([1.0]),
            lam=0.0, lower=box[0], upper=box[1],
        )
    with pytest.raises(InvalidProblemError):
        L1L2PenaltyProblem(
            sensing=np.array([[1.0]]), observation=np.array([1.0]),
            lam=0.1, lower=np.array([0.5]), upper=box[1],
        )
    with pytest.raises(InvalidProblemError):
        L1L2PenaltyProblem(
            sensing=np.array([[0.0]]), observation=np.array([1.0]),
            lam=0.1, lower=box[0], upper=box[1],
        )
    for shape in ((3, 0), (0, 4)):  # an empty sensing matrix has no spectrum to take L from
        with pytest.raises(InvalidProblemError, match="nonempty") as err:
            L1L2PenaltyProblem(
                sensing=np.ones(shape), observation=np.ones(shape[0]),
                lam=0.1, lower=box[0], upper=box[1],
            )
        assert type(err.value) is InvalidProblemError


def test_stored_data_are_read_only_private_copies():
    rng = philox_generator(0, 0)
    sensing = gen_dct_matrix(64, 256, 1.0, rng)
    observation = sensing @ gen_ground_truth(256, 8, rng)
    x = gen_ground_truth(256, 20, rng)
    box = dict(lam=8e-5, lower=-1.0, upper=1.0)
    for given in (sensing.copy(), np.asfortranarray(sensing)):  # stored in the given layout
        obs = observation.copy()
        problem = L1L2PenaltyProblem(sensing=given, observation=obs, **box)
        assert problem.grad_h(x).tobytes() == (given.T @ (given @ x - obs)).tobytes()
        before = [problem.eval_h(x), problem.grad_h(x), problem.lipschitz_grad_h]
        for stored, original in ((problem.sensing, given), (problem.observation, obs)):
            assert not np.shares_memory(stored, original)
        for kept in (problem, copy.deepcopy(problem), pickle.loads(pickle.dumps(problem))):
            for stored in (kept.sensing, kept.observation, kept.lower, kept.upper):
                with pytest.raises(ValueError):
                    stored[0] = 1.0
            # 64-byte aligned, with the given layout and values
            assert kept.sensing.ctypes.data % 64 == 0
            assert kept.sensing.flags.f_contiguous == given.flags.f_contiguous
            assert kept.sensing.flags.c_contiguous == given.flags.c_contiguous
            assert kept.sensing.tobytes(order="A") == given.tobytes(order="A")
        given *= 3.0
        obs *= 3.0
        after = [problem.eval_h(x), problem.grad_h(x), problem.lipschitz_grad_h]
        assert [np.asarray(v).tobytes() for v in after] == [
            np.asarray(v).tobytes() for v in before
        ]


def test_observation_length_mismatch_is_a_dimension_mismatch():
    box = dict(lam=0.1, lower=-1.0, upper=1.0)
    with pytest.raises(DimensionMismatchError) as err:
        L1L2PenaltyProblem(sensing=np.ones((3, 4)), observation=np.ones(2), **box)
    assert str(err.value) == "observation has length 2, sensing matrix has 3 rows"
    assert isinstance(err.value, InvalidProblemError)
    # An observation that is not 1-D is invalid, not a length mismatch.
    with pytest.raises(InvalidProblemError) as err:
        L1L2PenaltyProblem(sensing=np.ones((3, 4)), observation=np.ones((3, 1)), **box)
    assert type(err.value) is InvalidProblemError
    # Box bounds are scalars or have length 1 or n.
    for bound, value, got in (
        ("lower", -np.ones(3), "length 3"),
        ("upper", np.ones((4, 1)), "shape (4, 1)"),
        ("lower", np.zeros(0), "length 0"),
    ):
        data = dict(sensing=np.ones((3, 4)), observation=np.ones(3), **{**box, bound: value})
        with pytest.raises(DimensionMismatchError) as err:
            L1L2PenaltyProblem(**data)
        assert str(err.value) == f"{bound} has {got}, sensing matrix has 4 columns"
    data = dict(sensing=np.ones((3, 4)), observation=np.ones(3), **{**box, "lower": -np.ones(1)})
    assert L1L2PenaltyProblem(**data).lower.tobytes() == np.full(4, -1.0).tobytes()


@pytest.mark.parametrize(
    "bad",
    [
        dict(sensing=np.array([[np.nan, 0.5]])),
        dict(sensing=np.array([[1.0, np.inf]])),
        dict(observation=np.array([np.nan])),
        dict(observation=np.array([-np.inf])),
        dict(lower=np.nan),
        dict(upper=np.array([1.0, np.nan])),
        dict(lam=np.nan),
        dict(lam=np.inf),
        dict(lower=-np.inf),
        dict(upper=np.array([1.0, np.inf])),
        dict(lower=-np.inf, upper=np.inf),
    ],
    ids=["nan-sensing", "inf-sensing", "nan-observation", "inf-observation", "nan-lower",
         "nan-upper", "nan-lam", "inf-lam", "inf-lower", "inf-upper", "inf-box"],
)
def test_problem_rejects_non_finite_data(bad):
    data = dict(
        sensing=np.array([[1.0, 0.5]]), observation=np.array([1.0]), lam=0.1, lower=-1.0, upper=1.0
    )
    with pytest.raises(InvalidProblemError):
        L1L2PenaltyProblem(**{**data, **bad})


def test_problem_hoisted_constants_match_per_call_formulas():
    rng = philox_generator(257)
    n = 12
    lower = -rng.uniform(0.5, 2.0, size=n)
    upper = rng.uniform(0.5, 2.0, size=n)
    problem = L1L2PenaltyProblem(
        sensing=rng.standard_normal((5, n)), observation=rng.standard_normal(5),
        lam=0.3, lower=lower, upper=upper,
    )
    tol = 1e-12 * (1.0 + float(np.max(np.abs(upper) + np.abs(lower))))
    for _ in range(20):
        z = rng.uniform(-3.0, 3.0, size=n)
        alpha = float(rng.uniform(0.1, 2.0))
        assert problem.prox_f(alpha, z).tobytes() == _shrink_clip(
            z, alpha * 0.3, lower, upper
        ).tobytes()
        inside = np.all(z >= lower - tol) and np.all(z <= upper + tol)
        expected = 0.3 * float(np.abs(z).sum()) if inside else math.inf
        assert problem.eval_f(z) == expected
    edge = upper + 0.5 * tol
    assert problem.eval_f(edge) == 0.3 * float(np.abs(edge).sum())
    assert math.isinf(problem.eval_f(upper + 2.0 * tol))
    bound = float(np.linalg.norm(np.maximum(np.abs(lower), np.abs(upper))))
    assert problem.g_sup_bound == bound


def _edge_vectors(rng, problem, count):
    """Seeded points inside the box, a few entries of each replaced by NaN,
    +-inf, -0.0 or a value one ulp either side of, or on, the widened box
    edges lower - tol and upper + tol."""
    n, tol = problem.dim, problem._box_tol
    for _ in range(count):
        x = rng.uniform(problem.lower, problem.upper) * 10.0 ** rng.uniform(-3, 0)
        for j in rng.integers(n, size=rng.integers(0, 4)):
            edge = float(rng.choice([problem.lower[j] - tol, problem.upper[j] + tol]))
            x[j] = rng.choice(
                [np.nan, np.inf, -np.inf, -0.0, edge, np.nextafter(edge, np.inf),
                 np.nextafter(edge, -np.inf)]
            )
        yield x


def _bits(value):
    return np.asarray(value, dtype=float).tobytes()


def test_callbacks_match_their_numpy_wrapper_forms_bitwise():
    # eval_f, eval_g, subgrad_g and the prox kernel must give the very
    # bits of the np.any / np.linalg.norm / np.clip forms they replace.
    rng = philox_generator(263)
    n = 40
    lower = -rng.uniform(0.5, 2.0, size=n)
    upper = rng.uniform(0.5, 2.0, size=n)
    lower[:5], upper[5:10] = 0.0, 0.0
    problem = L1L2PenaltyProblem(
        sensing=rng.standard_normal((6, n)), observation=rng.standard_normal(6),
        lam=0.3, lower=lower, upper=upper,
    )
    seen = {"inf": 0, "nan": 0, "finite": 0}
    with np.errstate(all="ignore"):
        for x in _edge_vectors(rng, problem, 400):
            outside = np.any(x < problem.lower - problem._box_tol) or np.any(
                x > problem.upper + problem._box_tol
            )
            expected_f = math.inf if outside else problem.lam * float(np.abs(x).sum())
            assert _bits(problem.eval_f(x)) == _bits(expected_f)
            seen["inf" if outside else "nan" if math.isnan(expected_f) else "finite"] += 1
            norm = float(np.linalg.norm(x))
            assert _bits(problem.eval_g(x)) == _bits(norm)
            expected_y = np.zeros_like(x) if norm <= 1e-14 else x / norm
            assert _bits(problem.subgrad_g(x)) == _bits(expected_y)
            alpha = float(rng.choice([0.0, 1e-3, 2.0]))
            threshold = alpha * problem.lam
            shrunk = np.sign(x) * np.maximum(np.abs(x) - threshold, 0.0)
            expected_p = _bits(np.clip(shrunk, problem.lower, problem.upper))
            assert _bits(_shrink_clip(x, threshold, problem.lower, problem.upper)) == expected_p
            assert _bits(problem.prox_f(alpha, x)) == expected_p
    assert min(seen.values()) >= 20, seen


def test_box_test_is_skipped_only_at_the_bytes_prox_f_returned():
    # prox_f's output lies in the box, so eval_f may skip the test there; a
    # copy of it too, but not the output once edited, nor any other point.
    rng = philox_generator(271)
    n = 30
    problem = L1L2PenaltyProblem(
        sensing=rng.standard_normal((8, n)), observation=rng.standard_normal(8),
        lam=0.3, lower=-1.0, upper=1.0,
    )
    z = 3.0 * rng.standard_normal(n)
    y = problem.prox_f(0.5, z)
    fresh = y.copy()
    assert _bits(problem.eval_f(fresh)) == _bits(problem.lam * float(np.abs(fresh).sum()))
    assert math.isfinite(problem.eval_f(y))
    y[0] = 1.5
    assert problem.eval_f(y) == math.inf
    problem.prox_f(0.5, z)
    assert problem.eval_f(np.full(n, -1.5)) == math.inf
    z[3] = np.nan  # the box test never caught NaN, with or without the memo
    assert math.isnan(problem.eval_f(problem.prox_f(0.5, z)))


class _UnmemoizedPenalty(L1L2PenaltyProblem):
    """eval_f and grad_h by the plain formulas, never reading the memo."""

    def eval_f(self, x):
        outside = (x < self._lower_tol).any() or (x > self._upper_tol).any()
        return math.inf if outside else self.lam * float(np.abs(x).sum())

    def grad_h(self, x):
        return self.sensing.T @ (self.sensing @ x - self.observation)


def test_residual_memo_matches_the_plain_formula_bitwise():
    # grad_h reuses A x - b only at the bytes eval_h saw last: a walk of
    # accepted points, rejected trials and an x edited in place.
    rng = philox_generator(269)
    n = 30
    args = dict(
        sensing=rng.standard_normal((8, n)), observation=rng.standard_normal(8),
        lam=0.3, lower=-2.0, upper=2.0,
    )
    problem, plain = L1L2PenaltyProblem(**args), _UnmemoizedPenalty(**args)
    x = rng.uniform(-1.0, 1.0, size=n)
    for step in range(40):
        trial = x + rng.normal(scale=0.1, size=n)
        assert _bits(problem.eval_h(trial)) == _bits(plain.eval_h(trial))
        if step % 3:  # accepted: the next gradient is at the point eval_h saw last
            x = trial
        assert _bits(problem.grad_h(x)) == _bits(plain.grad_h(x))
    problem.eval_h(x)
    x[::2] *= -1.0
    x[1] = 0.0
    assert _bits(problem.grad_h(x)) == _bits(plain.grad_h(x))
    problem.eval_h(x)
    x[1] = -0.0
    assert _bits(problem.grad_h(x)) == _bits(plain.grad_h(x))
    # A callback at another point between prox_f and the callbacks at its output.
    y = problem.prox_f(0.5, 3.0 * rng.standard_normal(n))
    outside = np.full(n, 2.5)
    problem.eval_h(outside)
    for name, point in (("eval_f", y), ("grad_h", y), ("eval_f", outside)):
        assert _bits(getattr(problem, name)(point)) == _bits(getattr(plain, name)(point)), name
    # Copies keep a warm memo, and it still answers only for its own point.
    y, other = problem.prox_f(0.5, 3.0 * rng.standard_normal(n)), rng.uniform(-1.0, 1.0, size=n)
    problem.eval_h(y)
    for kept in (copy.deepcopy(problem), pickle.loads(pickle.dumps(problem))):
        for step, point in enumerate((y, other, y)):
            for name in ("eval_f", "eval_h", "grad_h"):
                got, want = getattr(kept, name)(point), getattr(plain, name)(point)
                assert _bits(got) == _bits(want), (step, name)
    # The memo moves no iterate of a solve.
    x0 = penalty_start_point(problem)
    cfg = LineSearchConfig(N=4, max_iter=300)
    memo, direct = run_pgsa_ls(problem, x0, cfg), run_pgsa_ls(plain, x0, cfg)
    assert direct.iterations >= 50
    for name in ("objective", "g_value", "alpha", "step_norm", "backtracks", "final_x"):
        assert _bits(getattr(memo, name)) == _bits(getattr(direct, name)), name


def test_problem_box_is_read_only():
    problem = one_d_penalty(0.5)
    for bound in (problem.lower, problem.upper):
        with pytest.raises(ValueError):
            bound[0] = 0.0
    assert problem.lower[0] == -1.0 and problem.upper[0] == 1.0


def test_initializer_rejects_empty_box():
    # The initializer reads the box of a problem, which cannot be built empty.
    with pytest.raises(InvalidProblemError, match="box is empty"):
        L1L2PenaltyProblem(
            sensing=np.eye(2), observation=np.ones(2), lam=0.1,
            lower=np.array([0.0, 2.0]), upper=np.ones(2),
        )


def test_lipschitz_matches_dense_eigensolver():
    rng = philox_generator(251)
    # Wide and tall sensing matrices take the two different Gram matrices.
    for m, n in ((15, 40), (40, 15)):
        sensing = rng.standard_normal((m, n))
        problem = L1L2PenaltyProblem(
            sensing=sensing,
            observation=rng.standard_normal(m),
            lam=0.1,
            lower=np.full(n, -1.0),
            upper=np.full(n, 1.0),
        )
        expected = float(np.linalg.eigvalsh(sensing.T @ sensing)[-1])
        assert abs(problem.lipschitz_grad_h - expected) <= 1e-8 * (1.0 + expected)


@pytest.mark.parametrize("key", [(31, 3), (205, 2)])
def test_paper_size_draws_with_close_top_eigenvalues_build(key):
    # Draws of the l1l2 benchmark whose two largest eigenvalues of A A.T are
    # so close (16.1227 and 16.1184 for (31, 3)) that the power iteration
    # once used for L gave up on them.
    rng = philox_generator(*key)
    sensing = gen_dct_matrix(64, 1024, 1.0, rng)
    truth = gen_ground_truth(1024, 12, rng)
    problem = L1L2PenaltyProblem(
        sensing=sensing, observation=sensing @ truth, lam=8e-5, lower=-1.0, upper=1.0
    )
    expected = np.linalg.norm(sensing, 2) ** 2
    assert abs(problem.lipschitz_grad_h - expected) <= 1e-12 * expected
    assert np.all(np.abs(penalty_start_point(problem)) <= 1.0)


def test_recovery_report_examples():
    truth = np.array([0.6, 0.8, 0.0])
    exact = recovery_report(truth, truth)
    assert exact.relative_error == 0.0
    assert exact.success
    assert abs(exact.objective - 1.4) <= 1e-12
    off = recovery_report(truth * 1.01, truth)
    assert not off.success
    assert abs(off.relative_error - 0.01) <= 1e-12
    near = recovery_report(truth * (1.0 + 5e-4), truth)
    assert near.success
    with pytest.raises(DegenerateInputError):
        recovery_report(truth, np.zeros(3))


def test_recovery_report_refuses_a_solution_of_another_length():
    # Broadcasting would score np.ones(4) against np.ones(1) as an exact recovery.
    with pytest.raises(DimensionMismatchError, match=r"solution has shape \(4,\)"):
        recovery_report(np.ones(4), np.ones(1))
