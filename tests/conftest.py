"""Shared fixtures for the test suite.

The acceptance workloads (full-size benchmark experiments and the tiny-instance
oracle sweeps) are expensive, so they are computed once per session and shared
by every criterion that needs them.  Criterion verdict lines are collected here
and echoed in the terminal summary so a plain ``pytest -v`` run always shows
one pass/fail line per acceptance criterion.
"""

from __future__ import annotations

import collections
import math

import numpy as np
import pytest

from fracopt import (
    ExperimentConfig,
    FractionalProblem,
    LineSearchConfig,
    PgsaConfig,
    SgepProblem,
    run_experiment,
    run_pgsa,
    run_pgsa_ls,
    sgep_brute_force_optimum,
    sgep_default_init,
)
from fracopt.experiments import _openblas
from fracopt.rand import philox_generator

CRITERION_LINES: list[str] = []


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
