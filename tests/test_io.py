"""CSV and JSONL round-trips, parse errors with line numbers, determinism."""

from __future__ import annotations

import csv
import dataclasses
import json

import numpy as np
import pytest

from fracopt import (
    L1L2PenaltyProblem,
    LineSearchConfig,
    PgsaConfig,
    SgepProblem,
    audit_trace,
    fit_linear_rate,
    gen_dct_matrix,
    gen_ground_truth,
    penalty_start_point,
    run_pgsa,
    run_pgsa_ls,
    sgep_default_init,
)
from fracopt.exceptions import ParseError
from fracopt.io import (
    RESULT_COLUMNS,
    TRACE_COLUMNS,
    load_matrix_csv,
    load_trace_csv,
    load_vector_csv,
    save_matrix_csv,
    save_vector_csv,
    write_jsonl,
    write_result_rows,
    write_trace_csv,
)
from fracopt.rand import philox_generator


def test_matrix_round_trip_is_exact(tmp_path):
    rng = philox_generator(401)
    matrix = rng.standard_normal((5, 3))
    path = tmp_path / "m.csv"
    save_matrix_csv(path, matrix)
    assert np.array_equal(load_matrix_csv(path), matrix)


def test_vector_round_trip_is_exact(tmp_path):
    rng = philox_generator(403)
    vector = rng.standard_normal(7)
    path = tmp_path / "v.csv"
    save_vector_csv(path, vector)
    assert np.array_equal(load_vector_csv(path), vector)


def test_vector_accepts_single_row_layout(tmp_path):
    path = tmp_path / "row.csv"
    path.write_text("1.0,2.0,3.0\n")
    assert np.array_equal(load_vector_csv(path), [1.0, 2.0, 3.0])
    bad = tmp_path / "bad.csv"
    bad.write_text("1.0,2.0\n3.0,4.0\n")
    with pytest.raises(ParseError):
        load_vector_csv(bad)


def test_ragged_matrix_reports_the_offending_line(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("1.0,2.0\n3.0\n")
    with pytest.raises(ParseError) as err:
        load_matrix_csv(path)
    assert "line 2" in str(err.value)


def test_non_numeric_cell_reports_the_offending_line(tmp_path):
    path = tmp_path / "text.csv"
    path.write_text("1.0,2.0\n3.0,oops\n")
    with pytest.raises(ParseError) as err:
        load_matrix_csv(path)
    assert "line 2" in str(err.value)


def test_empty_file_is_a_parse_error(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("\n\n")
    with pytest.raises(ParseError):
        load_matrix_csv(path)


def test_matrix_is_loaded_as_written(tmp_path):
    # Symmetry and shape are the problem's to check, not the loader's.
    path = tmp_path / "asym.csv"
    path.write_text("1.0,2.0\n0.0,1.0\n")
    assert np.array_equal(load_matrix_csv(path), [[1.0, 2.0], [0.0, 1.0]])
    tall = tmp_path / "tall.csv"
    tall.write_text("1.0,2.0\n3.0,4.0\n5.0,6.0\n")
    assert load_matrix_csv(tall).shape == (3, 2)


def test_trace_round_trip_preserves_audited_columns(tmp_path):
    problem = SgepProblem(
        matrix_a=np.diag([1.0, 2.0]), matrix_b=np.diag([2.0, 1.0]), sparsity=2
    )
    x0 = np.array([1.0, 1.0]) / np.sqrt(2.0)
    trace = run_pgsa(problem, x0, PgsaConfig(max_iter=200, record_trace=True))
    path = tmp_path / "trace.csv"
    write_trace_csv(path, trace)
    loaded, errors = load_trace_csv(path)
    assert np.array_equal(loaded.objective, trace.objective)
    assert np.array_equal(loaded.g_value, trace.g_value)
    assert np.array_equal(loaded.alpha, trace.alpha)
    assert np.array_equal(loaded.step_norm, trace.step_norm)
    assert errors is not None and loaded.err_to_final is errors
    assert np.array_equal(errors, trace.errors_to_final())
    # A reloaded trace still audits cleanly with its problem.
    report = audit_trace(loaded, problem)
    assert report.ok


def _tiny_sgep():
    rng = philox_generator(405)
    half = rng.standard_normal((30, 8))
    other = rng.standard_normal((30, 8))
    return SgepProblem(matrix_a=half.T @ half, matrix_b=other.T @ other, sparsity=3)


def _tiny_l1l2():
    rng = philox_generator(407)
    sensing = gen_dct_matrix(m=20, n=60, coherence=1.0, seed=rng)
    truth = gen_ground_truth(n=60, k=3, seed=rng)
    return L1L2PenaltyProblem(
        sensing=sensing, observation=sensing @ truth, lam=8e-5, lower=-1.0, upper=1.0
    )


def _tiny_run(family: str, solver: str, record_trace: bool = False):
    problem = _tiny_sgep() if family == "sgep" else _tiny_l1l2()
    x0 = sgep_default_init(8, 3) if family == "sgep" else penalty_start_point(problem)
    if solver == "pgsa":
        return problem, run_pgsa(problem, x0, PgsaConfig(max_iter=300, record_trace=record_trace))
    window = 0 if solver == "pgsa_ml" else 4
    cfg = LineSearchConfig(N=window, max_iter=300, record_trace=record_trace)
    return problem, run_pgsa_ls(problem, x0, cfg)


@pytest.mark.parametrize("tamper", [False, True])
@pytest.mark.parametrize("family", ["sgep", "l1l2"])
@pytest.mark.parametrize("solver", ["pgsa", "pgsa_ml", "pgsa_nl"])
def test_reloaded_trace_keeps_params_certificate_and_audit(tmp_path, family, solver, tamper):
    # With no iterates recorded, the file alone gives the audit everything the
    # live trace and its problem give it: the same checks and violations.
    problem, trace = _tiny_run(family, solver)
    if tamper:
        objective = trace.objective.copy()
        objective[trace.iterations // 2] = objective[0] + 1.0
        trace = dataclasses.replace(trace, objective=objective)
    path = tmp_path / "trace.csv"
    write_trace_csv(path, trace)
    loaded, _ = load_trace_csv(path)
    assert loaded.params == trace.params
    assert loaded.certificate == trace.certificate
    live = audit_trace(trace, problem)
    reloaded = audit_trace(loaded)
    assert reloaded.mode == live.mode == solver
    assert reloaded.checks_run == live.checks_run
    assert reloaded.violations == live.violations
    assert live.ok != tamper


@pytest.mark.parametrize("record_trace", [False, True])
@pytest.mark.parametrize("family", ["sgep", "l1l2"])
@pytest.mark.parametrize("solver", ["pgsa", "pgsa_ml", "pgsa_nl"])
def test_reloaded_trace_rewrites_to_its_own_bytes(tmp_path, family, solver, record_trace):
    # The reloaded trace carries its err_to_final column, so nothing is dropped.
    _, trace = _tiny_run(family, solver, record_trace)
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    write_trace_csv(first, trace)
    write_trace_csv(second, load_trace_csv(first)[0])
    assert second.read_bytes() == first.read_bytes()


@pytest.mark.parametrize("solver", ["pgsa", "pgsa_ml", "pgsa_nl"])
def test_reloaded_trace_gives_the_live_rate_fit(tmp_path, solver):
    _, trace = _tiny_run("l1l2", solver, record_trace=True)
    assert trace.iterations >= 30
    path = tmp_path / "trace.csv"
    write_trace_csv(path, trace)
    loaded, _ = load_trace_csv(path)
    assert loaded.iterates is None
    assert fit_linear_rate(loaded) == fit_linear_rate(trace)


@pytest.mark.parametrize(
    "config, max_iter",
    [
        (PgsaConfig(), 2 * 60),
        (PgsaConfig(relative_tol=True), 10 * 60),
        (PgsaConfig(max_iter=7), 7),
        (LineSearchConfig(N=0, max_iter=9), 9),
    ],
)
def test_trace_records_the_resolved_max_iter(tmp_path, config, max_iter):
    # 2n by default and 10n with relative_tol (n = 60), else the value set.
    problem = _tiny_l1l2()
    run = run_pgsa if isinstance(config, PgsaConfig) else run_pgsa_ls
    trace = run(problem, penalty_start_point(problem), config)
    assert trace.params["max_iter"] == max_iter
    path = tmp_path / "trace.csv"
    write_trace_csv(path, trace)
    assert load_trace_csv(path)[0].params["max_iter"] == max_iter


def test_trace_without_max_iter_still_loads(tmp_path):
    problem, trace = _tiny_run("l1l2", "pgsa_ml")
    path = tmp_path / "trace.csv"
    write_trace_csv(path, trace)
    first, rest = path.read_text().split("\n", 1)
    meta = json.loads(first[2:])
    del meta["params"]["max_iter"]
    path.write_text("# " + json.dumps(meta) + "\n" + rest)
    loaded, _ = load_trace_csv(path)
    assert "max_iter" not in loaded.params
    assert loaded.certificate == trace.certificate
    live, reloaded = audit_trace(trace, problem), audit_trace(loaded)
    assert reloaded.ok and reloaded.checks_run == live.checks_run


# A params and certificate line that load_trace_csv accepts.
META_LINE = (
    '# {"certificate": {"converged_reason": "step_tol", "criticality_residual": null, '
    '"iterations": 0, "objective": 1.0}, "params": {"mode": "pgsa"}}'
)


def test_trace_params_line_is_validated(tmp_path):
    header = ",".join(TRACE_COLUMNS)
    for first in (header, "# {not json", '# {"params": {}}', META_LINE.replace("step_tol", "x")):
        path = tmp_path / "trace.csv"
        path.write_text(f"{first}\n{header}\n0,1.0,,,,1.0,\n")
        with pytest.raises(ParseError) as err:
            load_trace_csv(path)
        assert "line 1" in str(err.value)


def test_trace_header_is_validated(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text(f"{META_LINE}\nsomething,else\n0,1.0\n")
    with pytest.raises(ParseError) as err:
        load_trace_csv(path)
    assert "line 2" in str(err.value)


def test_trace_rows_are_validated(tmp_path):
    path = tmp_path / "trace.csv"
    header = ",".join(TRACE_COLUMNS)
    path.write_text(f"{META_LINE}\n{header}\n0,1.0,0.5\n")
    with pytest.raises(ParseError) as err:
        load_trace_csv(path)
    assert "line 3" in str(err.value)
    only_header = tmp_path / "empty_trace.csv"
    only_header.write_text(f"{META_LINE}\n{header}\n")
    with pytest.raises(ParseError):
        load_trace_csv(only_header)


def test_result_table_always_has_header(tmp_path):
    path = tmp_path / "results.csv"
    write_result_rows(path, [])
    lines = path.read_text().strip().splitlines()
    assert lines == [",".join(RESULT_COLUMNS)]
    write_result_rows(
        path,
        [{"experiment": "sfda", "solver": "pgsa", "mean_objective": 0.5, "trials": 1}],
    )
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 2
    assert lines[0] == ",".join(RESULT_COLUMNS)


def test_jsonl_is_sorted_compact_and_deterministic(tmp_path):
    records = [{"b": 2, "a": 1}, {"z": [1, 2], "m": {"y": 0.5, "x": 0.25}}]
    first = tmp_path / "a.jsonl"
    second = tmp_path / "b.jsonl"
    write_jsonl(first, records)
    write_jsonl(second, records)
    assert first.read_bytes() == second.read_bytes()
    lines = first.read_text().splitlines()
    assert lines[0] == '{"a":1,"b":2}'
    assert json.loads(lines[1]) == records[1]
    assert lines[1].index('"m"') < lines[1].index('"z"')


def _reference_trace_csv(path, trace):
    """The row-by-row csv.writer form that write_trace_csv must reproduce."""
    errors = trace.errors_to_final() if trace.iterates is not None else None
    iterations = trace.iterations
    meta = {"params": trace.params, "certificate": dataclasses.asdict(trace.certificate)}
    with open(path, "w", newline="") as handle:
        handle.write("# " + json.dumps(meta, sort_keys=True) + "\n")
        writer = csv.writer(handle, quoting=csv.QUOTE_MINIMAL)
        writer.writerow(TRACE_COLUMNS)
        for k in range(iterations + 1):
            step = k < iterations
            writer.writerow(
                [
                    k,
                    repr(float(trace.objective[k])),
                    repr(float(trace.alpha[k])) if step else "",
                    repr(float(trace.step_norm[k])) if step else "",
                    repr(float(errors[k])) if errors is not None else "",
                    repr(float(trace.g_value[k])),
                    int(trace.backtracks[k]) if trace.backtracks is not None and step else "",
                ]
            )


@pytest.mark.parametrize("special", [False, True])
@pytest.mark.parametrize("record", [False, True])
@pytest.mark.parametrize("family", ["sgep", "l1l2"])
@pytest.mark.parametrize("solver", ["pgsa", "pgsa_ml", "pgsa_nl"])
def test_trace_writer_matches_row_by_row_csv_writer(tmp_path, solver, family, record, special):
    _, trace = _tiny_run(family, solver, record_trace=record)
    if special:
        rng = philox_generator(409)
        arrays = {
            name: np.array(getattr(trace, name), dtype=float)
            for name in ("objective", "alpha", "step_norm", "g_value")
        }
        for values in arrays.values():
            picks = rng.choice(values.shape[0], size=min(4, values.shape[0]), replace=False)
            values[picks] = [np.nan, np.inf, -np.inf, -0.0][: picks.shape[0]]
        iterates = None
        if trace.iterates is not None:
            # A NaN and an inf in err_to_final.
            iterates = trace.iterates.copy()
            iterates[1:3, 0] = [np.nan, np.inf]
        trace = dataclasses.replace(trace, iterates=iterates, **arrays)
    written, expected = tmp_path / "trace.csv", tmp_path / "reference.csv"
    write_trace_csv(written, trace)
    _reference_trace_csv(expected, trace)
    assert written.read_bytes() == expected.read_bytes()


def _blank(cells, *columns):
    for name in columns:
        cells[TRACE_COLUMNS.index(name)] = ""


def _fill(cells, *columns):
    for name in columns:
        cells[TRACE_COLUMNS.index(name)] = "1"


# Each case edits the rows of a recorded pgsa_ml trace (row k sits on line
# k + 3) and names the line the loader must blame and its message.
STEP_RULE = "every row but the last must fill alpha, step_norm and backtracks"
LAST_RULE = "the last row leaves alpha, step_norm and backtracks empty"
COUNT_RULE = "rows, but its certificate counts"
MISALIGNED = {
    "blank_step_cells": (lambda rows: _blank(rows[5], "alpha", "step_norm"), 8, STEP_RULE),
    "blank_alpha": (lambda rows: _blank(rows[5], "alpha"), 8, STEP_RULE),
    "blank_backtracks": (lambda rows: _blank(rows[5], "backtracks"), 8, STEP_RULE),
    "filled_last_row": (
        lambda rows: _fill(rows[-1], "alpha", "step_norm", "backtracks"), -1, LAST_RULE
    ),
    "blank_err_to_final": (
        lambda rows: _blank(rows[7], "err_to_final"),
        10,
        "err_to_final must be filled in every row or in none",
    ),
    "blank_err_and_step": (
        lambda rows: _blank(rows[7], "err_to_final", "alpha"),
        10,
        "err_to_final must be filled in every row or in none",
    ),
    "dropped_row": (lambda rows: rows.pop(5), -1, COUNT_RULE),
    "renumbered_k": (lambda rows: rows[1].__setitem__(0, "7"), 4, "k must read 1, found '7'"),
    "swapped_k": (lambda rows: rows.insert(3, rows.pop(2)), 5, "k must read 2, found '3'"),
    "extra_row": (lambda rows: rows.insert(5, list(rows[5])), -1, COUNT_RULE),
    "bad_objective": (
        lambda rows: rows[6].__setitem__(1, "abc"), 9, "could not convert string to float"
    ),
    "fractional_backtracks": (
        lambda rows: rows[4].__setitem__(6, "1.5"), 7, "invalid literal for int()"
    ),
}


@pytest.mark.parametrize("case", sorted(MISALIGNED))
def test_trace_rows_must_line_up_with_the_certificate(tmp_path, case):
    _, trace = _tiny_run("l1l2", "pgsa_ml", record_trace=True)
    path = tmp_path / "trace.csv"
    write_trace_csv(path, trace)
    lines = path.read_text().splitlines()
    rows = [line.split(",") for line in lines[2:]]
    edit, line, message = MISALIGNED[case]
    edit(rows)
    path.write_text("\n".join(lines[:2] + [",".join(cells) for cells in rows]) + "\n")
    with pytest.raises(ParseError) as err:
        load_trace_csv(path)
    assert f"line {line if line > 0 else len(rows) + 2}: " in str(err.value)
    assert message in str(err.value)


def test_fixed_step_trace_rows_carry_no_backtracks(tmp_path):
    _, trace = _tiny_run("sgep", "pgsa")
    path = tmp_path / "trace.csv"
    write_trace_csv(path, trace)
    lines = path.read_text().splitlines()
    lines[3] += "2"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError) as err:
        load_trace_csv(path)
    assert "line 4:" in str(err.value)


@pytest.mark.parametrize("solver", ["pgsa", "pgsa_ml"])
def test_zero_iteration_trace_round_trips(tmp_path, solver):
    problem = _tiny_sgep()
    x0 = sgep_default_init(8, 3)
    if solver == "pgsa":
        trace = run_pgsa(problem, x0, PgsaConfig(max_iter=0))
    else:
        trace = run_pgsa_ls(problem, x0, LineSearchConfig(N=0, max_iter=0))
    path = tmp_path / "trace.csv"
    write_trace_csv(path, trace)
    loaded, _ = load_trace_csv(path)
    assert loaded.iterations == trace.iterations == 0
    if trace.backtracks is None:
        assert loaded.backtracks is None
    else:
        assert np.array_equal(loaded.backtracks, trace.backtracks)
