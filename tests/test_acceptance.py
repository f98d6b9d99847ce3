"""Acceptance criteria, one test per criterion, one verdict line each.

Each test prints ``criterion N: PASS/FAIL - detail`` (collected again in the
terminal summary) and then asserts, so a failed criterion is visible both as a
red test and as its verdict line.
"""

from __future__ import annotations

import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

from conftest import record_criterion, sgep_residual_oracle, wishart
from fracopt import (
    L1L2PenaltyProblem,
    LineSearchConfig,
    PgsaConfig,
    SfdaRecipe,
    SgepProblem,
    audit_trace,
    fit_linear_rate,
    gen_dct_matrix,
    gen_ground_truth,
    gen_sfda,
    run_pgsa,
    run_pgsa_ls,
    sgep_default_init,
)
from fracopt.rand import philox_generator

PGSA_BAND = (0.42, 0.52)
LINESEARCH_BAND = (0.38, 0.48)
SUCCESS_FLOOR = 0.85
RATIO_BAND = (2.75, 2.95)
ORACLE_GAP = 1e-9
GLOBAL_HIT_TOL = 1e-6
GLOBAL_HIT_FLOOR = 60
CRITICALITY_TOL = 1e-6
RATE_R2_FLOOR = 0.9
STEEPER_FLOOR = 8


def _sfda_problem_for_trial(trial: int) -> SgepProblem:
    rng = philox_generator(0, trial)
    return gen_sfda(SfdaRecipe(n=1000, p1=500, p2=500, r=50, seed=rng))


def _l1l2_problem_for_trial(trial: int) -> L1L2PenaltyProblem:
    rng = philox_generator(0, trial)
    sensing = gen_dct_matrix(64, 1024, 1.0, rng)
    truth = gen_ground_truth(1024, 12, rng)
    return L1L2PenaltyProblem(
        sensing=sensing,
        observation=sensing @ truth,
        lam=8e-5,
        lower=np.full(1024, -1.0),
        upper=np.full(1024, 1.0),
    )


def test_criterion_1_sfda_objective_bands(sfda_outcome):
    _, outcome = sfda_outcome
    rows = {row["solver"]: row for row in outcome.rows}
    means = {name: rows[name]["mean_objective"] for name in ("pgsa", "pgsa_ml", "pgsa_nl")}
    for name, row in rows.items():
        from_records = np.mean(
            [rec["objective"] for rec in outcome.records if rec["solver"] == name]
        )
        assert math.isclose(row["mean_objective"], from_records, rel_tol=1e-12)
        assert row["trials"] == 20
    ok = (
        PGSA_BAND[0] <= means["pgsa"] <= PGSA_BAND[1]
        and LINESEARCH_BAND[0] <= means["pgsa_ml"] <= LINESEARCH_BAND[1]
        and LINESEARCH_BAND[0] <= means["pgsa_nl"] <= LINESEARCH_BAND[1]
        and not outcome.failures
    )
    record_criterion(
        1,
        ok,
        f"mean objective pgsa={means['pgsa']:.4f} (band {PGSA_BAND}), "
        f"pgsa_ml={means['pgsa_ml']:.4f}, pgsa_nl={means['pgsa_nl']:.4f} "
        f"(band {LINESEARCH_BAND}), 20 seeds",
    )
    assert ok


def test_criterion_2_l1l2_success_rate(l1l2_outcome):
    _, outcome = l1l2_outcome
    row = outcome.rows[0]
    successes = [rec for rec in outcome.records if rec["success"]]
    rate = len(successes) / len(outcome.records)
    mean_ratio = float(np.mean([rec["recovery_objective"] for rec in successes]))
    assert math.isclose(row["success_rate"], rate, rel_tol=1e-12)
    assert math.isclose(row["mean_objective"], mean_ratio, rel_tol=1e-12)
    ok = (
        rate >= SUCCESS_FLOOR
        and RATIO_BAND[0] <= mean_ratio <= RATIO_BAND[1]
        and not outcome.failures
    )
    record_criterion(
        2,
        ok,
        f"success rate {rate:.2f} (floor {SUCCESS_FLOOR}), mean l1/l2 of successes "
        f"{mean_ratio:.4f} (band {RATIO_BAND}), 50 seeds",
    )
    assert ok


def test_criterion_3_sufficient_decrease_audits(sfda_outcome, l1l2_outcome):
    total_checks = 0
    violations = []
    _, sfda = sfda_outcome
    sfda_problems = {trial: _sfda_problem_for_trial(trial) for trial in range(20)}
    for result in sfda.results:
        mode = result.trace.params["mode"]
        report = audit_trace(result.trace, sfda_problems[result.trial], mode=mode)
        total_checks += report.checks_run
        violations.extend(report.violations)
    _, l1l2 = l1l2_outcome
    for result in l1l2.results:
        problem = _l1l2_problem_for_trial(result.trial)
        report = audit_trace(result.trace, problem, mode="pgsa_ml")
        total_checks += report.checks_run
        violations.extend(report.violations)
    for trial in range(100):
        rng = philox_generator(21, trial)
        problem = SgepProblem(
            matrix_a=wishart(rng, 40, 20), matrix_b=wishart(rng, 40, 20), sparsity=3
        )
        x0 = sgep_default_init(20, 3)
        for mode, runner, cfg in (
            ("pgsa", run_pgsa, PgsaConfig(record_trace=True)),
            ("pgsa_ml", run_pgsa_ls, LineSearchConfig(N=0, record_trace=True)),
            ("pgsa_nl", run_pgsa_ls, LineSearchConfig(N=4, record_trace=True)),
        ):
            report = audit_trace(runner(problem, x0, cfg), problem, mode=mode)
            total_checks += report.checks_run
            violations.extend(report.violations)
    ok = not violations
    record_criterion(
        3,
        ok,
        f"{total_checks} audit checks over criteria 1-2 runs plus 300 small-instance "
        f"runs, {len(violations)} violations",
    )
    assert ok, violations[:5]


def test_criterion_4_line_search_contracts(sfda_outcome):
    _, outcome = sfda_outcome
    floor_ok = True
    window_ok = True
    cap_ok = True
    runs = 0
    for result in outcome.results:
        if result.solver not in ("pgsa_ml", "pgsa_nl"):
            continue
        runs += 1
        trace = result.trace
        params = trace.params
        a, eta = params["a"], params["eta"]
        lip, bound = params["lipschitz"], params["g_sup_bound"]
        floor = eta / (a * bound + lip) - 1e-12
        alphas = np.asarray(trace.alpha)
        if np.any(alphas < floor):
            floor_ok = False
        objective = np.asarray(trace.objective)
        memory = 4
        window_max = np.array(
            [objective[max(0, k - memory) : k + 1].max() for k in range(objective.size)]
        )
        if np.any(np.diff(window_max) > 1e-10 * (1.0 + np.abs(window_max[:-1]))):
            window_ok = False
        cap = math.ceil(
            -math.log(params["alpha_upper"] * (a * bound + lip)) / math.log(eta) + 1.0
        )
        if np.any(np.asarray(trace.backtracks) > cap):
            cap_ok = False
    ok = floor_ok and window_ok and cap_ok and runs == 40
    record_criterion(
        4,
        ok,
        f"{runs} line-search runs: step floor {'ok' if floor_ok else 'VIOLATED'}, "
        f"windowed maxima {'nonincreasing' if window_ok else 'VIOLATED'}, "
        f"backtrack cap {'ok' if cap_ok else 'VIOLATED'}",
    )
    assert ok


def test_criterion_5_criticality_at_convergence(tiny_sgep_runs):
    worst = 0.0
    runs = 0
    stopped = 0
    for group in ("spiked", "wishart20"):
        for entry in tiny_sgep_runs[group]:
            problem = entry["problem"]
            for trace in entry["traces"].values():
                runs += 1
                if trace.certificate.converged_reason != "step_tol":
                    continue
                stopped += 1
                worst = max(worst, sgep_residual_oracle(problem, trace.final_x))
    ok = stopped == runs and worst <= CRITICALITY_TOL
    record_criterion(
        5,
        ok,
        f"{stopped}/{runs} runs stopped by step_tol=1e-10 (n <= 20), "
        f"max criticality residual {worst:.2e} (tol {CRITICALITY_TOL})",
    )
    assert ok


def test_criterion_6_oracle_equivalence(tiny_sgep_runs):
    worst_gap = -np.inf
    hits = 0
    for entry in tiny_sgep_runs["spiked"]:
        best = entry["brute"]
        for name, trace in entry["traces"].items():
            worst_gap = max(worst_gap, best - trace.certificate.objective)
            if name == "pgsa_ml" and trace.certificate.objective <= best + GLOBAL_HIT_TOL:
                hits += 1
    ok = worst_gap <= ORACLE_GAP and hits >= GLOBAL_HIT_FLOOR
    record_criterion(
        6,
        ok,
        f"worst (brute - final) gap {worst_gap:.2e} (tol {ORACLE_GAP}); pgsa_ml within "
        f"1e-6 of global optimum in {hits}/100 canonical starts (floor {GLOBAL_HIT_FLOOR})",
    )
    assert ok


def test_criterion_7_linear_rate():
    steeper = 0
    fits_ok = True
    details = []
    for trial in range(10):
        rng = philox_generator(7, trial)
        problem = gen_sfda(SfdaRecipe(n=200, p1=500, p2=500, r=10, seed=rng))
        x0 = sgep_default_init(200, 10)
        fixed = run_pgsa(problem, x0, PgsaConfig(step_tol=1e-12, max_iter=4000, record_trace=True))
        searched = run_pgsa_ls(
            problem, x0, LineSearchConfig(N=0, step_tol=1e-12, max_iter=4000, record_trace=True)
        )
        fit_fixed = fit_linear_rate(fixed)
        fit_searched = fit_linear_rate(searched)
        for fit in (fit_fixed, fit_searched):
            if not (fit.slope < 0 and fit.r_squared >= RATE_R2_FLOOR):
                fits_ok = False
        if abs(fit_searched.slope) > abs(fit_fixed.slope):
            steeper += 1
        details.append((fit_fixed.slope, fit_searched.slope))
    ok = fits_ok and steeper >= STEEPER_FLOOR
    slopes = ", ".join(f"{p:.3f}/{m:.3f}" for p, m in details[:3])
    record_criterion(
        7,
        ok,
        f"all fits slope<0 and R^2>={RATE_R2_FLOOR}: {fits_ok}; pgsa_ml steeper in "
        f"{steeper}/10 (floor {STEEPER_FLOOR}); first slopes pgsa/pgsa_ml: {slopes}",
    )
    assert ok


def test_criterion_8_unit_and_property_suites():
    tests_dir = Path(__file__).resolve().parent
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "pytest",
            "-q",
            "-p",
            "no:cacheprovider",
            str(tests_dir),
            "--ignore",
            str(tests_dir / "test_acceptance.py"),
        ],
        capture_output=True,
        text=True,
        cwd=tests_dir.parent,
    )
    # The final counts without their timing, so the line moves only with the verdict.
    summary = (proc.stdout.strip().splitlines() or [""])[-1]
    counts = re.sub(r" in \d.*$", "", summary)
    ok = proc.returncode == 0
    record_criterion(8, ok, f"unit/property suites exit code {proc.returncode}; {counts}")
    assert ok, proc.stdout[-3000:]
