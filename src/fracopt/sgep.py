"""Sparse generalized eigenvalue problem as a ratio objective.

Given symmetric PSD matrices A and B, minimize x.T B x / x.T A x over unit
vectors with at most r nonzeros.  In the ratio template this is

    f = indicator of C = {||x||_0 <= r, ||x||_2 = 1},
    h(x) = 0.5 * x.T B x,   g(x) = 0.5 * x.T A x,

so the halving cancels and the objective equals the raw ratio.  The prox of f
is Euclidean projection onto C: keep the r largest magnitudes, zero the rest,
normalize.  The standing assumptions additionally require every r x r
principal submatrix of B to be positive definite: Cauchy interlacing (Horn
& Johnson, 4.3) gives it when lambda_min(B) > 1e-10 lambda_max(B), and a B
closer to singular is checked on a sample of supports.  L = lambda_max(B)
comes from a dense eigensolve of B, M >= lambda_max(A) / 2 from a pivoted
Cholesky factor of A (O(n^2 k) at rank k <= 8), else from a dense eigensolve.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .exceptions import DegenerateInputError, DimensionMismatchError, InvalidProblemError
from .problem import DOMAIN_EPS_BASE, FractionalProblem, _feasible_objective, _norm
from .rand import as_generator, philox_generator

# Relative floor on the smallest eigenvalue for the PSD construction check.
PSD_EIG_FLOOR = -1e-10
# Entries larger than this fraction of ||x||_inf count as support members.
SUPPORT_REL_THRESHOLD = 1e-12
# Number of random supports sampled for the submatrix PD check.
SUBMATRIX_CHECK_SAMPLES = 50
# Most rows of A's factor: SFDA's A has rank 2; a full-rank A pays O(n) per row.
_FACTOR_RANK_CAP = 8
# Tolerance on | ||x||_2 - 1 | for membership in the constraint set.
UNIT_NORM_TOL = 1e-9


def check_symmetric(matrix: np.ndarray, name: str, tol: float = 1e-12) -> bool:
    """Raise InvalidProblemError unless finite and symmetric within tol (scaled); True if exact."""
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidProblemError(f"{name} must be square, got shape {m.shape}")
    if not m.size:
        return True
    high, low = float(m.max()), float(m.min())
    if not (math.isfinite(high) and math.isfinite(low)):
        raise InvalidProblemError(f"{name} has a non-finite entry")
    gap = float((m - m.T).max())  # M - M.T is exactly antisymmetric: this is max |M - M.T|
    if gap > tol * max(1.0, high, -low):
        raise InvalidProblemError(f"{name} is not symmetric: max |M - M.T| = {gap:.3e}")
    return gap == 0.0


def project_sparse_sphere(x: np.ndarray, r: int) -> np.ndarray:
    """Euclidean projection onto {||y||_0 <= r, ||y||_2 = 1}.

    Keeps the r largest magnitudes (ties broken toward lower indices), zeros
    the rest and rescales to unit norm; a linear-time partition finds the cut.
    The projection is undefined at the origin, so a vector with norm at or
    below 1e-14 raises DegenerateInputError.
    """
    return _projection(x, r)[0]


def _projection(x: np.ndarray, r: int) -> tuple[np.ndarray, np.ndarray]:
    """project_sparse_sphere(x, r) and its ascending support, np.flatnonzero of it."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError("expected a 1-D vector")
    n = x.shape[0]
    if not 1 <= r <= n:
        raise ValueError(f"need 1 <= r <= {n}, got r = {r}")
    if _norm(x) <= DOMAIN_EPS_BASE:
        raise DegenerateInputError("projection onto the sparse sphere is undefined at 0")
    neg = -np.abs(x)  # NaN sorts last and never compares true, so it is never kept
    cut = np.partition(neg, r - 1)[r - 1]
    keep = (neg <= cut).nonzero()[0]
    if keep.size != r:
        # Fewer than r entries lie strictly above the cut; the lowest-index ties fill the rest.
        keep = np.sort(np.concatenate((np.flatnonzero(neg < cut), np.flatnonzero(neg == cut)))[:r])
    y = np.zeros(n)
    y[keep] = x[keep]
    norm = _norm(y)
    y /= norm
    # A kept entry can be zero, or underflow to it; 0 / 0 makes every entry NaN.
    return y, keep[y[keep] != 0.0] if norm else np.flatnonzero(y)


def _psd_spectrum(m: np.ndarray, name: str) -> np.ndarray:
    """Ascending eigenvalues of m; InvalidProblemError below the PSD floor."""
    eigs = np.linalg.eigvalsh(m)
    if float(eigs[0]) < PSD_EIG_FLOOR * max(1.0, float(eigs[-1])):
        raise InvalidProblemError(f"{name} is not PSD: smallest eigenvalue {eigs[0]:.3e}")
    return eigs


def _factor_g_bound(a: np.ndarray) -> float | None:
    """M >= lambda_max(A) / 2 from a pivoted Cholesky factor F of A, or None.

    By Weyl, A's eigenvalues lie within ||A - F.T F||_F of F.T F's, all >= 0.
    """
    if a.shape[0] <= _FACTOR_RANK_CAP:
        return None
    remaining = np.diag(a).copy()  # the diagonal of A - F.T F
    factor = np.empty((0, a.shape[0]))
    tol = -PSD_EIG_FLOOR * max(1.0, float(remaining.max()))
    while factor.shape[0] < _FACTOR_RANK_CAP:
        p = int(np.argmax(remaining))
        if remaining[p] <= tol:
            break
        row = (a[p] - factor[:, p] @ factor) / math.sqrt(remaining[p])
        factor = np.vstack((factor, row))
        remaining -= row * row
    if float(np.abs(remaining).max()) > tol:  # |E_ii| <= ||E||_F
        return None
    top = float(np.linalg.eigvalsh(factor @ factor.T)[-1]) if factor.size else 0.0
    residual = float(np.linalg.norm(a - factor.T @ factor))
    return 0.5 * (top + residual) if residual <= -PSD_EIG_FLOOR * max(1.0, top) else None


@dataclass(frozen=True, eq=False)
class SgepProblem(FractionalProblem):
    """Ratio-structured sparse generalized eigenvalue instance.

    Construction checks finiteness and symmetry (1e-12 relative), stores A
    and B exactly symmetric (averaged with M.T if need be) as read-only
    private copies, in copies and unpickled problems too, and checks those
    copies: equal shapes (else DimensionMismatchError), PSD (smallest
    eigenvalue no lower than -1e-10 relative to the largest) and B positive
    definite on every r x r block, read off B's spectrum (L = lambda_max(B))
    or checked on min(50, C(n, r)) supports, as the module docstring says; M
    likewise.  The callbacks work over the support S of x, O(|S| n) per
    product (B x is x_S @ B[S]); read-only data keeps a gather fresh.
    """

    matrix_a: np.ndarray
    matrix_b: np.ndarray
    sparsity: int
    _lipschitz: float = field(init=False, repr=False)
    _g_bound: float = field(init=False, repr=False)
    _blocks: dict = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self) -> None:
        stored = {}
        for name, attr in (("A", "matrix_a"), ("B", "matrix_b")):
            m = np.asarray(getattr(self, attr), dtype=float)
            stored[attr] = m.copy() if check_symmetric(m, name) else 0.5 * (m + m.T)
        self.__setstate__(stored)
        a, b = self.matrix_a, self.matrix_b
        if a.shape != b.shape:
            raise DimensionMismatchError(f"A has shape {a.shape}, B has shape {b.shape}")
        n = a.shape[0]
        if not 1 <= self.sparsity <= n:
            raise InvalidProblemError(f"need 1 <= r <= {n}, got r = {self.sparsity}")
        g_bound = _factor_g_bound(a)
        if g_bound is None:
            g_bound = 0.5 * float(_psd_spectrum(a, "A")[-1])
        eigs = _psd_spectrum(b, "B")
        if not eigs[0] > -PSD_EIG_FLOOR * eigs[-1]:
            self._check_submatrices(b, n)
        self.__setstate__({"_lipschitz": float(eigs[-1]), "_g_bound": g_bound})

    def _check_submatrices(self, b: np.ndarray, n: int) -> None:
        r = self.sparsity
        total = math.comb(n, r)
        if total <= SUBMATRIX_CHECK_SAMPLES:
            supports = np.array(list(itertools.combinations(range(n), r)))
        else:
            rng = philox_generator(0)
            draws = (rng.choice(n, size=r, replace=False) for _ in range(SUBMATRIX_CHECK_SAMPLES))
            supports = np.sort(np.array(list(draws)), axis=1)
        # One stacked eigensolve over every sampled r x r principal block.
        smallest = np.linalg.eigvalsh(b[supports[:, :, None], supports[:, None, :]])[:, 0]
        failing = np.flatnonzero(smallest <= 0.0)
        if failing.size:
            raise InvalidProblemError(
                f"B restricted to support {tuple(int(i) for i in supports[failing[0]])} "
                "is not positive definite"
            )

    @property
    def dim(self) -> int:
        return self.matrix_a.shape[0]

    def _support(self, x: np.ndarray, support: np.ndarray | None = None) -> tuple:
        """(x's ascending support S, S's bytes, x[S]); S is found once per point."""
        memo = self._memo("_point_memo", x.tobytes())
        if "support" not in memo:
            support = x.nonzero()[0] if support is None else support
            memo["support"] = (support, support.tobytes(), x[support])
        return memo["support"]

    def _gathered(self, x: np.ndarray, kind: str) -> tuple:
        """x[S] with A and B restricted to S: the rows M[S], or the S x S blocks kept per S."""
        support, key, xs = self._support(x)
        if kind == "rows":
            rows = self._memo("_rows_memo", key)
            if "rows" not in rows:
                rows["rows"] = (self.matrix_a[support], self.matrix_b[support])
            return (xs, *rows["rows"])
        if key not in self._blocks:
            if (len(self._blocks) + 1) * support.size**2 > self.dim**2:  # no more than A holds
                self._blocks.clear()
            # Flat indices gather C-ordered blocks; M[S][:, S] would round differently.
            index = support[:, None] * self.dim + support
            self._blocks[key] = (self.matrix_a.take(index), self.matrix_b.take(index))
        return (xs, *self._blocks[key])

    def eval_f(self, x: np.ndarray) -> float:
        if self._support(x)[0].size > self.sparsity:
            return math.inf
        if abs(_norm(x) - 1.0) > UNIT_NORM_TOL:
            return math.inf
        return 0.0

    def eval_h(self, x: np.ndarray) -> float:
        xs, _, block = self._gathered(x, "blocks")
        return 0.5 * float(xs @ block @ xs)

    def grad_h(self, x: np.ndarray) -> np.ndarray:
        xs, _, rows = self._gathered(x, "rows")
        return xs @ rows

    def eval_g(self, x: np.ndarray) -> float:
        xs, block, _ = self._gathered(x, "blocks")
        return 0.5 * float(xs @ block @ xs)

    def subgrad_g(self, x: np.ndarray) -> np.ndarray:
        xs, rows, _ = self._gathered(x, "rows")
        return xs @ rows

    def prox_f(self, alpha: float, z: np.ndarray) -> np.ndarray:
        # The prox of an indicator is the projection, whatever alpha is.
        y, support = _projection(z, self.sparsity)
        self._support(y, support)
        return y

    @property
    def lipschitz_grad_h(self) -> float:
        return self._lipschitz

    @property
    def g_sup_bound(self) -> float:
        return self._g_bound

    def critical_residual(self, x: np.ndarray) -> float:
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
        a = self.matrix_a
        b = self.matrix_b
        r = self.sparsity
        x = np.asarray(x, dtype=float)
        ratio = _feasible_objective(self, x).value
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


def sgep_default_init(n: int, r: int) -> np.ndarray:
    """Canonical feasible start: first r coordinates equal to 1/sqrt(r)."""
    if not 1 <= r <= n:
        raise ValueError(f"need 1 <= r <= {n}, got r = {r}")
    x = np.zeros(n)
    x[:r] = 1.0 / math.sqrt(r)
    return x


@dataclass(frozen=True)
class SfdaRecipe:
    """Synthetic two-class discriminant-analysis instance description.

    Class 1 is centered Gaussian; class 2 shares the covariance and shifts
    coordinates 2, 4, ..., 40 (1-based) by ``mean_shift``.  The covariance is
    block diagonal with five equal Toeplitz blocks whose (i, j) entry is
    ``toeplitz_rho ** |i - j|``, so n must be divisible by 5.

    ``within_ridge`` is added to the diagonal of the within-class scatter
    when the instance is assembled by :func:`gen_sfda`.  The raw within-class
    scatter of a two-class Gaussian sample is positive semidefinite but
    typically has near-null directions that a sparse minimizer exploits; the
    ridge makes the numerator matrix positive definite.

    mean_shift = 0.5, toeplitz_rho = 0.8 and within_ridge = 0.5 are protocol
    constants, which the reference objective values assume; only n, p1, p2, r
    and seed are set per instance.
    """

    mean_shift: ClassVar[float] = 0.5
    toeplitz_rho: ClassVar[float] = 0.8
    within_ridge: ClassVar[float] = 0.5

    n: int
    p1: int
    p2: int
    r: int
    seed: int | np.random.Generator = 0

    def __post_init__(self) -> None:
        if self.n < 5 or self.n % 5 != 0:
            raise InvalidProblemError(f"n must be a positive multiple of 5, got {self.n}")
        if self.p1 <= 0 or self.p2 <= 0:
            raise InvalidProblemError("both class sizes must be positive")
        if not 1 <= self.r <= self.n:
            raise InvalidProblemError(f"need 1 <= r <= {self.n}, got r = {self.r}")

    def class2_mean(self) -> np.ndarray:
        mean = np.zeros(self.n)
        mean[1 : min(40, self.n) : 2] = self.mean_shift
        return mean


def gen_sfda_dataset(recipe: SfdaRecipe) -> tuple[np.ndarray, np.ndarray]:
    """Draw the two Gaussian classes; returns (p1, n) and (p2, n) arrays."""
    rng = as_generator(recipe.seed)
    block = recipe.n // 5
    cov = recipe.toeplitz_rho ** np.abs(np.subtract.outer(np.arange(block), np.arange(block)))
    chol = np.linalg.cholesky(cov)
    samples = rng.standard_normal((recipe.p1 + recipe.p2, recipe.n))
    # Each row holds five consecutive blocks, so one GEMM colours them all.
    samples = (samples.reshape(-1, block) @ chol.T).reshape(samples.shape)
    class1 = samples[: recipe.p1]
    class2 = samples[recipe.p1 :] + recipe.class2_mean()
    return class1, class2


def scatter_matrices(class1: np.ndarray, class2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Between-class and within-class scatter of a two-class sample.

    Both are divided by the total sample count; the between-class scatter is
    built from the raw class means (no global centering):

        between = (p1 * m1 m1.T + p2 * m2 m2.T) / p
        within  = (sum_i (z1_i - m1)(z1_i - m1).T
                   + sum_i (z2_i - m2)(z2_i - m2).T) / p

    Both come out exactly symmetric without averaging: float products
    commute, so each outer product is, and numpy computes c.T @ c as a
    symmetric rank-k update.
    """
    z1 = np.asarray(class1, dtype=float)
    z2 = np.asarray(class2, dtype=float)
    if z1.ndim != 2 or z2.ndim != 2 or z1.shape[1] != z2.shape[1]:
        raise DegenerateInputError("class samples must be 2-D with matching width")
    if z1.shape[0] == 0 or z2.shape[0] == 0:
        raise DegenerateInputError("each class needs at least one sample")
    p = z1.shape[0] + z2.shape[0]
    m1 = z1.mean(axis=0)
    m2 = z2.mean(axis=0)
    between = np.outer(m1, m1)
    between *= z1.shape[0]
    between += z2.shape[0] * np.outer(m2, m2)
    between /= p
    c1 = z1 - m1
    c2 = z2 - m2
    within = c1.T @ c1
    within += c2.T @ c2
    within /= p
    return between, within


def gen_sfda(recipe: SfdaRecipe) -> SgepProblem:
    """Generate a discriminant-analysis instance as an SgepProblem.

    The between-class scatter is the denominator matrix A and the
    within-class scatter plus ``within_ridge`` times the identity is the
    numerator matrix B, so small objective values mean directions that
    separate the classes well relative to their spread.
    """
    class1, class2 = gen_sfda_dataset(recipe)
    between, within = scatter_matrices(class1, class2)
    within = within + recipe.within_ridge * np.eye(recipe.n)
    return SgepProblem(matrix_a=between, matrix_b=within, sparsity=recipe.r)
