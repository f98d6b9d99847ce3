"""End-to-end command-line behavior: exit codes, files written, determinism."""

from __future__ import annotations

import json

import numpy as np
import pytest
from conftest import _BLAS_THREADS

from fracopt import ExperimentConfig, cli, exceptions, fit_linear_rate
from fracopt.cli import main
from fracopt.io import (
    RESULT_COLUMNS,
    TRACE_COLUMNS,
    load_trace_csv,
    save_matrix_csv,
)


@pytest.fixture()
def sgep_files(tmp_path):
    a_path = tmp_path / "A.csv"
    b_path = tmp_path / "B.csv"
    save_matrix_csv(a_path, np.diag([2.0, 1.0]))
    save_matrix_csv(b_path, np.diag([1.0, 4.0]))
    return a_path, b_path


def run_cli(*argv: str) -> int:
    return main([str(arg) for arg in argv])


def test_solve_small_eigenproblem(sgep_files, capsys):
    a_path, b_path = sgep_files
    code = run_cli(
        "solve", "sgep", "--matrix-a", a_path, "--matrix-b", b_path, "-r", "1"
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert abs(payload["objective"] - 0.5) <= 1e-12
    assert payload["converged_reason"] == "step_tol"
    assert payload["criticality_residual"] <= 1e-10
    assert payload["iterations"] >= 1
    assert "wall_time_s" in payload


def test_gen_solve_and_verify_run_on_one_blas_thread(sgep_files, tmp_path):
    # As in the bench workers: then a drawn B, L = eigvalsh(B)[-1] and with
    # them a trace do not depend on the machine's core count.
    if _BLAS_THREADS is None:
        pytest.skip("numpy's bundled OpenBLAS was not found")
    get_threads, set_threads = _BLAS_THREADS
    a_path, b_path = sgep_files
    trace_path = tmp_path / "trace.csv"
    files = ("--matrix-a", a_path, "--matrix-b", b_path, "-r", "1")
    for argv in (
        ("gen", "sfda", "--n", "10", "--p1", "5", "--p2", "5", "--r", "2", "--out-dir", tmp_path),
        ("solve", "sgep", *files, "--trace", trace_path),
        ("verify", "--trace", trace_path),
    ):
        set_threads(2)
        assert run_cli(*argv) == 0
        assert get_threads() == 1


def test_solve_then_verify_round_trip(sgep_files, tmp_path, capsys):
    a_path, b_path = sgep_files
    trace_path = tmp_path / "trace.csv"
    code = run_cli(
        "solve", "sgep",
        "--matrix-a", a_path, "--matrix-b", b_path, "-r", "2",
        "--x0", _write_vector(tmp_path, "x0.csv", [0.6, 0.8]),
        "--solver", "pgsa", "--trace", trace_path,
    )
    assert code == 0
    capsys.readouterr()
    code = run_cli(
        "verify", "--trace", trace_path, "--problem", "sgep",
        "--matrix-a", a_path, "--matrix-b", b_path, "-r", "2", "--rate-fit",
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "zero violations" in out


def _write_vector(tmp_path, name, values):
    path = tmp_path / name
    save_matrix_csv(path, np.asarray(values, dtype=float)[:, None])
    return path


def test_verify_flags_corrupted_trace(sgep_files, tmp_path, capsys):
    a_path, b_path = sgep_files
    trace_path = tmp_path / "trace.csv"
    run_cli(
        "solve", "sgep",
        "--matrix-a", a_path, "--matrix-b", b_path, "-r", "2",
        "--x0", _write_vector(tmp_path, "x0.csv", [0.6, 0.8]),
        "--solver", "pgsa", "--trace", trace_path,
    )
    capsys.readouterr()
    lines = trace_path.read_text().splitlines()
    # Push the k=1 objective (fourth line, after the params line and the
    # header) above the starting value, which no monotone run can produce.
    cells = lines[3].split(",")
    cells[1] = repr(float(cells[1]) + 10.0)
    lines[3] = ",".join(cells)
    trace_path.write_text("\n".join(lines) + "\n")
    code = run_cli(
        "verify", "--trace", trace_path, "--problem", "sgep",
        "--matrix-a", a_path, "--matrix-b", b_path, "-r", "2",
    )
    out = capsys.readouterr().out
    assert code == 1
    assert "violation at iteration 1" in out
    assert "audit failed" in out


@pytest.mark.parametrize("raised, code", [(0.0, 0), (10.0, 1)], ids=["clean", "corrupted"])
def test_verify_rate_fit_without_err_to_final_says_why(raised, code, sgep_files, tmp_path, capsys):
    # A trace with a blank err_to_final column (and no iterates) cannot be
    # fitted; verify says so and still exits with the audit's code.
    a_path, b_path = sgep_files
    trace_path = tmp_path / "trace.csv"
    run_cli(
        "solve", "sgep",
        "--matrix-a", a_path, "--matrix-b", b_path, "-r", "2",
        "--x0", _write_vector(tmp_path, "x0.csv", [0.6, 0.8]),
        "--solver", "pgsa", "--trace", trace_path,
    )
    capsys.readouterr()
    lines = trace_path.read_text().splitlines()
    for row in range(2, len(lines)):
        cells = lines[row].split(",")
        cells[TRACE_COLUMNS.index("err_to_final")] = ""
        if row == 3:  # the k=1 objective, raised above the start in the corrupted case
            cells[1] = repr(float(cells[1]) + raised)
        lines[row] = ",".join(cells)
    trace_path.write_text("\n".join(lines) + "\n")
    assert load_trace_csv(trace_path)[1] is None
    assert run_cli("verify", "--trace", trace_path, "--rate-fit") == code
    out = capsys.readouterr().out
    assert "rate fit: trace has no iterates and no err_to_final column\n" in out
    assert ("audit ok" if code == 0 else "audit failed") in out


def test_default_solve_then_default_verify_is_clean(tmp_path, capsys):
    # verify reads the solver (pgsa_ml by default) and its parameters from
    # the trace, not from flags that would have to repeat them.
    data = tmp_path / "data"
    run_cli(
        "gen", "sfda", "--n", "50", "--p1", "100", "--p2", "100", "--r", "5",
        "--seed", "0", "--out-dir", data,
    )
    trace_path = tmp_path / "trace.csv"
    problem_flags = (
        "--matrix-a", data / "A.csv", "--matrix-b", data / "B.csv", "-r", "5",
    )
    assert run_cli("solve", "sgep", *problem_flags, "--trace", trace_path) == 0
    capsys.readouterr()
    code = run_cli("verify", "--trace", trace_path, "--problem", "sgep", *problem_flags)
    out = capsys.readouterr().out
    assert code == 0
    assert "zero violations" in out


def test_bench_trace_verifies_without_problem_files(tmp_path, capsys):
    cfg = _bench_config(tmp_path, trials=1)
    out_dir = tmp_path / "out"
    assert run_cli("bench", "--config", cfg, "--out-dir", out_dir, "--trace") == 0
    capsys.readouterr()
    code = run_cli("verify", "--trace", out_dir / "traces" / "trace_pgsa_ml_0.csv")
    out = capsys.readouterr().out
    assert code == 0
    assert "zero violations" in out


@pytest.mark.parametrize("blanked", [(2, 3), (6,)])
def test_verify_blanked_step_cells_is_io_error(tmp_path, capsys, blanked):
    # Blank alpha and step_norm, or backtracks, in one middle row of a bench
    # trace: the rows no longer line up with the certificate.
    cfg = _bench_config(tmp_path, trials=1)
    out_dir = tmp_path / "out"
    assert run_cli("bench", "--config", cfg, "--out-dir", out_dir, "--trace") == 0
    capsys.readouterr()
    trace_path = out_dir / "traces" / "trace_pgsa_ml_0.csv"
    lines = trace_path.read_text().splitlines()
    cells = lines[7].split(",")
    for column in blanked:
        cells[column] = ""
    lines[7] = ",".join(cells)
    trace_path.write_text("\n".join(lines) + "\n")
    code = run_cli("verify", "--trace", trace_path)
    assert code == 3
    assert "line 8:" in capsys.readouterr().err


def test_verify_renumbered_k_is_io_error(tmp_path, capsys):
    # Edit the k cell of line 4 (row k = 1) of a bench trace from 1 to 7.
    cfg = _bench_config(tmp_path, trials=1)
    out_dir = tmp_path / "out"
    assert run_cli("bench", "--config", cfg, "--out-dir", out_dir, "--trace") == 0
    capsys.readouterr()
    trace_path = out_dir / "traces" / "trace_pgsa_ml_0.csv"
    lines = trace_path.read_text().splitlines()
    assert lines[3].startswith("1,")
    lines[3] = "7" + lines[3][1:]
    trace_path.write_text("\n".join(lines) + "\n")
    assert run_cli("verify", "--trace", trace_path) == 3
    assert "line 4: k must read 1, found '7'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "edit",
    [
        "drop_line",
        "drop_keys",
        "zero_lipschitz_pgsa",
        "zero_bounds_pgsa_ml",
        "nan_lipschitz_pgsa",
        "infinite_lipschitz_pgsa",
        "overflowing_lipschitz_pgsa",
        "overflowing_step_tol_pgsa_ml",
    ],
)
def test_verify_trace_without_usable_params_line_is_io_error(edit, sgep_files, tmp_path, capsys):
    a_path, b_path = sgep_files
    trace_path = tmp_path / "trace.csv"
    solver = "pgsa" if edit.endswith("_pgsa") else "pgsa_ml"
    run_cli(
        "solve", "sgep", "--matrix-a", a_path, "--matrix-b", b_path, "-r", "1",
        "--solver", solver, "--trace", trace_path,
    )
    capsys.readouterr()
    lines = trace_path.read_text().splitlines()
    header = json.loads(lines[0][2:])
    if edit == "drop_line":
        del lines[0]
    elif edit == "drop_keys":
        # A pgsa_ml audit needs a, eta, N and more than the mode.
        header["params"] = {"mode": "pgsa_ml"}
    elif edit.startswith(("nan", "infinite")):
        # json.dumps writes NaN and Infinity, which JSON lacks.  A NaN L made
        # every check against it pass, an infinite one every step fail.
        header["params"]["lipschitz"] = float("nan" if edit.startswith("nan") else "inf")
    elif edit.startswith("overflowing"):
        # json reads 1e400 as inf through parse_float, never through parse_constant.
        header["params"]["step_tol" if "step_tol" in edit else "lipschitz"] = "1e400"
    else:
        # The 1/L step cap and the a*M + L backtracking floor divide by zero.
        header["params"]["lipschitz"] = 0
        if solver == "pgsa_ml":
            header["params"]["g_sup_bound"] = 0
    if edit != "drop_line":
        lines[0] = "# " + json.dumps(header).replace('"1e400"', "1e400")
    trace_path.write_text("\n".join(lines) + "\n")
    code = run_cli("verify", "--trace", trace_path)
    assert code == 3
    assert "line 1" in capsys.readouterr().err


def test_verify_trace_whose_mode_contradicts_its_window_is_io_error(tmp_path, capsys):
    # Raise row k = 3 of a pgsa_ml bench trace just above row k = 2: the
    # monotone audit flags it.  Claiming N = 4 would make it a legal
    # nonmonotone step, so a header whose N contradicts its mode is refused.
    cfg = _bench_config(tmp_path, trials=1)
    out_dir = tmp_path / "out"
    assert run_cli("bench", "--config", cfg, "--out-dir", out_dir, "--trace") == 0
    trace_path = out_dir / "traces" / "trace_pgsa_ml_0.csv"
    lines = trace_path.read_text().splitlines()
    rows = [line.split(",") for line in lines[2:]]
    rows[3][1] = repr(float(rows[2][1]) + 1e-6)
    lines[2:] = map(",".join, rows)
    trace_path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert run_cli("verify", "--trace", trace_path) == 1
    out = capsys.readouterr().out.splitlines()
    kinds = {line.split()[4] for line in out if "iteration 3:" in line}
    assert kinds == {"acceptance", "window_monotonicity"}
    assert '"N": 0' in lines[0]
    lines[0] = lines[0].replace('"N": 0', '"N": 4')
    trace_path.write_text("\n".join(lines) + "\n")
    assert run_cli("verify", "--trace", trace_path) == 3
    assert "line 1: params mode: not what a solver writes for them" in capsys.readouterr().err


@pytest.mark.parametrize(
    "solver, reason, edit, key",
    [
        ("pgsa_ml", "max_iter", {"max_iter": ..., "step_tol": ...}, "max_iter"),
        ("pgsa_ml", "max_iter", {"max_iter": None, "step_tol": None}, "max_iter, step_tol"),
        ("pgsa_ml", None, {"relative_tol": "no"}, "relative_tol"),
        ("pgsa_ml", None, {"f_is_convex": "yes"}, "f_is_convex"),
        ("pgsa_ml", None, {"g_sup_bound": -5.0}, "g_sup_bound"),
        ("pgsa", None, {"alpha_lower": 1e-9}, "alpha_lower"),
        ("pgsa", None, {"lipschitz": 0}, "lipschitz"),
        ("pgsa_ml", None, {"lipschitz": -1.0}, "lipschitz"),
        ("pgsa_ml", None, {"N": 4}, "mode"),
        ("pgsa_ml", None, {"max_iter": 2.5}, "need max_iter >= 0, got max_iter = 2.5"),
        ("pgsa", None, {"max_iter": True}, "got max_iter = True (not an integer)"),
        ("pgsa_ml", None, {"max_iter": 1e300}, "got max_iter = 1e+300 (not an integer)"),
        ("pgsa_nl", None, {"N": 1.5}, "need N >= 0, got N = 1.5 (not an integer)"),
        ("pgsa_nl", None, {"N": True}, "got N = True (not an integer)"),
    ],
    ids=[
        "max_iter-stop-without-its-keys",
        "max_iter-stop-with-null-keys",
        "relative_tol-string",
        "f_is_convex-string",
        "negative-g_sup_bound",
        "pgsa-alpha_lower-off-alpha",
        "zero-lipschitz",
        "negative-lipschitz",
        "N-contradicts-mode",
        "max_iter-float",
        "max_iter-true",
        "max_iter-1e300",
        "N-float",
        "N-true",
    ],
)
def test_verify_refuses_a_header_no_solver_writes(solver, reason, edit, key, tmp_path, capsys):
    # The audit alone passes every edited trace (the first with 140 checks,
    # though its rows stop by step_tol), so only the header check refuses them.
    # A max_iter or N that is no integer is refused the same way.
    data = tmp_path / "gen"
    run_cli("gen", "sfda", "--out-dir", data, "--n", "20", "--p1", "10", "--p2", "10", "--r", "3")
    files = ("--matrix-a", data / "A.csv", "--matrix-b", data / "B.csv", "-r", "3")
    trace_path = tmp_path / "trace.csv"
    assert run_cli("solve", "sgep", *files, "--solver", solver, "--trace", trace_path) == 0
    assert run_cli("verify", "--trace", trace_path) == 0
    first, rest = trace_path.read_text().split("\n", 1)
    meta = json.loads(first[2:])
    if reason is not None:
        meta["certificate"]["converged_reason"] = reason
    for name, value in edit.items():  # ... drops the key
        if value is ...:
            del meta["params"][name]
        else:
            meta["params"][name] = value
    trace_path.write_text("# " + json.dumps(meta) + "\n" + rest)
    capsys.readouterr()
    assert run_cli("verify", "--trace", trace_path) == 3
    err = capsys.readouterr().err
    assert "line 1: " in err and key in err


@pytest.mark.parametrize(
    "column, cell", [(2, "nan"), (1, "inf")], ids=["alpha-nan", "objective-inf"]
)
def test_verify_non_finite_row_cell_is_io_error(column, cell, tmp_path, capsys):
    # Refused on load, before the audit, which would pass a nan alpha.
    cfg = _bench_config(tmp_path, trials=1)
    out_dir = tmp_path / "out"
    assert run_cli("bench", "--config", cfg, "--out-dir", out_dir, "--trace") == 0
    capsys.readouterr()
    trace_path = out_dir / "traces" / "trace_pgsa_ml_0.csv"
    lines = trace_path.read_text().splitlines()
    cells = lines[7].split(",")
    cells[column] = cell
    lines[7] = ",".join(cells)
    trace_path.write_text("\n".join(lines) + "\n")
    assert run_cli("verify", "--trace", trace_path) == 3
    assert f"line 8: {cell} is not a finite number" in capsys.readouterr().err


def test_verify_missing_trace_file_is_io_error(sgep_files, tmp_path, capsys):
    a_path, b_path = sgep_files
    code = run_cli(
        "verify", "--trace", tmp_path / "missing.csv", "--problem", "sgep",
        "--matrix-a", a_path, "--matrix-b", b_path, "-r", "2",
    )
    assert code == 3
    assert "error:" in capsys.readouterr().err


def test_solve_ragged_csv_is_io_error(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("1.0,2.0\n3.0\n")
    b_path = tmp_path / "B.csv"
    save_matrix_csv(b_path, np.eye(2))
    code = run_cli("solve", "sgep", "--matrix-a", bad, "--matrix-b", b_path, "-r", "1")
    assert code == 3
    assert "line 2" in capsys.readouterr().err


def test_solve_oversized_sparsity_is_validation_error(sgep_files, capsys):
    a_path, b_path = sgep_files
    code = run_cli(
        "solve", "sgep", "--matrix-a", a_path, "--matrix-b", b_path, "-r", "5"
    )
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_solve_infeasible_start_is_solver_error(sgep_files, tmp_path, capsys):
    a_path, b_path = sgep_files
    dense = _write_vector(tmp_path, "dense.csv", [0.6, 0.8])
    code = run_cli(
        "solve", "sgep",
        "--matrix-a", a_path, "--matrix-b", b_path, "-r", "1", "--x0", dense,
    )
    assert code == 5
    assert "error:" in capsys.readouterr().err


def test_solve_mismatched_matrices_is_dimension_error(tmp_path, capsys):
    a_path = tmp_path / "A.csv"
    b_path = tmp_path / "B.csv"
    save_matrix_csv(a_path, np.eye(2))
    save_matrix_csv(b_path, np.eye(3))
    code = run_cli("solve", "sgep", "--matrix-a", a_path, "--matrix-b", b_path, "-r", "1")
    assert code == 4
    code = run_cli(
        "solve", "sgep", "--matrix-a", a_path, "--matrix-b", a_path, "-r", "1",
        "--x0", _write_vector(tmp_path, "x3.csv", [1.0, 0.0, 0.0]),
    )
    assert code == 4
    capsys.readouterr()


@pytest.mark.parametrize("solver", ["pgsa", "pgsa_ml", "pgsa_nl"])
def test_solve_start_of_the_wrong_length_is_dimension_error(solver, sgep_files, tmp_path, capsys):
    a_path, b_path = sgep_files
    code = run_cli(
        "solve", "sgep", "--matrix-a", a_path, "--matrix-b", b_path, "-r", "1",
        "--solver", solver, "--x0", _write_vector(tmp_path, "x3.csv", [1.0, 0.0, 0.0]),
    )
    assert code == 4
    assert capsys.readouterr().err == "error: x0 has length 3, problem dimension is 2\n"


def test_solve_l1l2_dimension_mismatch(tmp_path, capsys):
    a_path = tmp_path / "A.csv"
    save_matrix_csv(a_path, np.ones((2, 3)))
    b_path = _write_vector(tmp_path, "b.csv", [1.0, 2.0, 3.0])
    code = run_cli("solve", "l1l2", "--matrix-a", a_path, "--vector-b", b_path)
    assert code == 4
    assert capsys.readouterr().err == "error: observation has length 3, sensing matrix has 2 rows\n"


def test_solve_config_with_unknown_key_is_validation_error(sgep_files, tmp_path, capsys):
    a_path, b_path = sgep_files
    cfg = tmp_path / "solver.json"
    cfg.write_text('{"momentum": 0.9}')
    code = run_cli(
        "solve", "sgep", "--matrix-a", a_path, "--matrix-b", b_path, "-r", "1",
        "--config", cfg,
    )
    assert code == 2
    assert "momentum" in capsys.readouterr().err


@pytest.mark.parametrize(
    "solver, config, flags, rejected",
    [
        ("pgsa_ml", {"window": 7, "alpha": 0.5}, [], "alpha, window"),
        ("pgsa_nl", {"alpha": 0.5}, [], "alpha"),
        ("pgsa", {"eta": 0.4}, [], "eta"),
        ("pgsa", {"window": 3}, [], "window"),
        ("pgsa_ml", {}, ["--alpha", "0.5"], "alpha"),
    ],
    ids=["ml-window-alpha", "nl-alpha", "pgsa-eta", "pgsa-window", "ml-alpha-flag"],
)
def test_solve_rejects_keys_the_solver_does_not_read(
    solver, config, flags, rejected, sgep_files, tmp_path, capsys
):
    a_path, b_path = sgep_files
    cfg = tmp_path / "solver.json"
    cfg.write_text(json.dumps(config))
    code = run_cli(
        "solve", "sgep", "--matrix-a", a_path, "--matrix-b", b_path, "-r", "1",
        "--solver", solver, "--config", cfg, *flags,
    )
    assert code == 2
    err = capsys.readouterr().err
    assert solver in err and rejected in err


def test_solve_passes_window_to_the_nonmonotone_solver(sgep_files, tmp_path, capsys):
    a_path, b_path = sgep_files
    cfg = tmp_path / "solver.json"
    cfg.write_text('{"window": 7, "eta": 0.4}')
    trace_path = tmp_path / "trace.csv"
    code = run_cli(
        "solve", "sgep", "--matrix-a", a_path, "--matrix-b", b_path, "-r", "1",
        "--solver", "pgsa_nl", "--config", cfg, "--trace", trace_path,
    )
    assert code == 0
    capsys.readouterr()
    params = json.loads(trace_path.read_text().splitlines()[0][2:])["params"]
    assert params["N"] == 7 and params["eta"] == 0.4


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (["sgep", "--matrix-b", "B", "-r", "1"], 2, "sgep needs --matrix-a"),
        (["sgep", "--matrix-a", "A", "-r", "1"], 2, "sgep needs --matrix-b"),
        (["sgep", "--matrix-a", "A", "--matrix-b", "B"], 2, "sgep needs a sparsity level -r"),
        (["l1l2", "--matrix-a", "A"], 2, "l1l2 needs --vector-b"),
        (["sgep", "--config", "array.json"], 3, "array.json: expected a JSON object"),
    ],
)
def test_solve_missing_input_is_reported(argv, code, message, tmp_path, capsys, monkeypatch):
    # Each is reported before any data file is read.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "array.json").write_text("[1, 2]")
    assert run_cli("solve", *argv) == code
    assert capsys.readouterr().err == f"error: {message}\n"


def test_solve_config_with_bad_json_is_io_error(sgep_files, tmp_path, capsys):
    a_path, b_path = sgep_files
    cfg = tmp_path / "solver.json"
    cfg.write_text("{not json")
    code = run_cli(
        "solve", "sgep", "--matrix-a", a_path, "--matrix-b", b_path, "-r", "1",
        "--config", cfg,
    )
    assert code == 3
    capsys.readouterr()


def _bench_config(tmp_path, **extra):
    data = {
        "experiment": "sfda",
        "solver": "pgsa_ml",
        "trials": 2,
        "master_seed": 0,
        "n": 50,
        "p1": 60,
        "p2": 60,
        "r": 5,
    }
    data.update(extra)
    path = tmp_path / "bench.json"
    path.write_text(json.dumps(data))
    return path


def test_bench_writes_results_and_records(tmp_path, capsys):
    cfg = _bench_config(tmp_path)
    out_dir = tmp_path / "out"
    code = run_cli("bench", "--config", cfg, "--out-dir", out_dir)
    assert code == 0
    lines = (out_dir / "results.csv").read_text().strip().splitlines()
    assert lines[0] == ",".join(RESULT_COLUMNS)
    assert len(lines) == 2
    records = [
        json.loads(line)
        for line in (out_dir / "runs.jsonl").read_text().splitlines()
    ]
    assert len(records) == 2
    assert all(record["solver"] == "pgsa_ml" for record in records)
    assert all("wall_time_s" not in record for record in records)
    assert "wrote:" in capsys.readouterr().out


def test_bench_trials_flag_overrides_the_config(tmp_path, capsys):
    cfg = _bench_config(tmp_path, trials=2)
    out_dir = tmp_path / "out"
    assert run_cli("bench", "--config", cfg, "--trials", "1", "--out-dir", out_dir) == 0
    records = [json.loads(line) for line in (out_dir / "runs.jsonl").read_text().splitlines()]
    assert [record["trial"] for record in records] == [0]
    assert "solver=pgsa_ml, mean_objective=" in capsys.readouterr().out


def test_bench_zero_trials_writes_header_only(tmp_path, capsys):
    cfg = _bench_config(tmp_path, trials=0)
    out_dir = tmp_path / "out"
    code = run_cli("bench", "--config", cfg, "--out-dir", out_dir)
    assert code == 0
    lines = (out_dir / "results.csv").read_text().strip().splitlines()
    assert lines == [",".join(RESULT_COLUMNS)]
    assert (out_dir / "runs.jsonl").read_text() == ""
    capsys.readouterr()


def test_bench_records_do_not_depend_on_thread_count(tmp_path, capsys):
    cfg = _bench_config(tmp_path, trials=3)
    first = tmp_path / "one"
    second = tmp_path / "two"
    assert run_cli("bench", "--config", cfg, "--out-dir", first, "--threads", "1") == 0
    assert run_cli("bench", "--config", cfg, "--out-dir", second, "--threads", "3") == 0
    capsys.readouterr()
    assert (first / "runs.jsonl").read_bytes() == (second / "runs.jsonl").read_bytes()
    # The aggregate table is identical except for wall time, which is the one
    # deliberately non-reproducible column.
    for one, two in zip(
        (first / "results.csv").read_text().splitlines(),
        (second / "results.csv").read_text().splitlines(),
    ):
        cells_one = one.split(",")
        cells_two = two.split(",")
        time_idx = RESULT_COLUMNS.index("mean_time_s")
        cells_one[time_idx] = cells_two[time_idx] = ""
        assert cells_one == cells_two


def test_bench_l1l2_reports_success_rate(tmp_path, capsys):
    cfg = _bench_config(
        tmp_path,
        experiment="l1l2",
        trials=2,
        n=60,
        m=20,
        k=3,
        dct_f=1.0,
    )
    out_dir = tmp_path / "out"
    code = run_cli("bench", "--config", cfg, "--out-dir", out_dir)
    assert code == 0
    capsys.readouterr()
    lines = (out_dir / "results.csv").read_text().strip().splitlines()
    header = lines[0].split(",")
    row = lines[1].split(",")
    rate = float(row[header.index("success_rate")])
    assert 0.0 <= rate <= 1.0
    records = [
        json.loads(line)
        for line in (out_dir / "runs.jsonl").read_text().splitlines()
    ]
    assert all("relative_error" in record for record in records)


def test_bench_writes_one_failure_line_per_failed_trial(tmp_path, capsys):
    # alpha_upper below each trial's resolved alpha_lower fails every trial.
    cfg = _bench_config(tmp_path, n=20, p1=20, p2=20, r=3, alpha_upper=1e-9)
    out_dir = tmp_path / "out"
    assert run_cli("bench", "--config", cfg, "--out-dir", out_dir) == 0
    assert "failures.jsonl" in capsys.readouterr().out
    failures = [
        json.loads(line)
        for line in (out_dir / "failures.jsonl").read_text().splitlines()
    ]
    assert [(fail["trial"], fail["solver"]) for fail in failures] == [
        (0, "pgsa_ml"),
        (1, "pgsa_ml"),
    ]
    assert all(fail["error"] == "InvalidConfigError" for fail in failures)
    assert all(fail["master_seed"] == 0 for fail in failures)
    assert all("alpha_upper" in fail["message"] for fail in failures)
    assert (out_dir / "runs.jsonl").read_text() == ""


def test_verify_rate_fit_prints_the_fit(tmp_path, capsys):
    cfg = _bench_config(tmp_path, experiment="l1l2", trials=1, n=60, m=20, k=3)
    out_dir = tmp_path / "out"
    assert run_cli("bench", "--config", cfg, "--out-dir", out_dir, "--trace") == 0
    capsys.readouterr()
    trace_path = out_dir / "traces" / "trace_pgsa_ml_0.csv"
    assert run_cli("verify", "--trace", trace_path, "--rate-fit") == 0
    out = capsys.readouterr().out
    fit = fit_linear_rate(load_trace_csv(trace_path)[0])
    assert fit.slope < 0
    expected = (
        f"rate fit: slope {fit.slope:.6f}, r_squared {fit.r_squared:.4f}, "
        f"window {fit.window[0]}..{fit.window[1]} ({fit.n_points} points)\n"
    )
    assert expected in out
    assert "audit ok" in out


def test_bench_trace_flag_writes_trace_files(tmp_path, capsys):
    cfg = _bench_config(tmp_path, trials=1)
    out_dir = tmp_path / "out"
    code = run_cli("bench", "--config", cfg, "--out-dir", out_dir, "--trace")
    assert code == 0
    capsys.readouterr()
    traces = sorted((out_dir / "traces").glob("trace_*.csv"))
    assert len(traces) == 1
    assert "pgsa_ml" in traces[0].name


def test_bench_unknown_config_key_is_validation_error(tmp_path, capsys):
    cfg = _bench_config(tmp_path, verbosity=3)
    code = run_cli("bench", "--config", cfg, "--out-dir", tmp_path / "out")
    assert code == 2
    assert "verbosity" in capsys.readouterr().err


def test_bench_bad_json_is_io_error(tmp_path, capsys):
    cfg = tmp_path / "bench.json"
    cfg.write_text("[1, 2")
    code = run_cli("bench", "--config", cfg, "--out-dir", tmp_path / "out")
    assert code == 3
    capsys.readouterr()


def test_bench_ignores_fracopt_environment_variables(tmp_path, capsys, monkeypatch):
    # A run is fixed by its config file and flags; no FRACOPT_* variable changes it.
    cfg = _bench_config(tmp_path, trials=1)
    run_cli("bench", "--config", cfg, "--out-dir", tmp_path / "plain")
    monkeypatch.setenv("FRACOPT_TRIALS", "3")
    monkeypatch.setenv("FRACOPT_STEP_TOL", "1e-3")
    code = run_cli("bench", "--config", cfg, "--out-dir", tmp_path / "env")
    assert code == 0
    capsys.readouterr()
    plain = (tmp_path / "plain" / "runs.jsonl").read_bytes()
    assert (tmp_path / "env" / "runs.jsonl").read_bytes() == plain
    assert len(plain.splitlines()) == 1


@pytest.mark.parametrize(
    "command, config",
    [
        ("bench", {"trials": "3"}),
        ("bench", {"threads": "2"}),
        ("bench", {"trials": True}),
        ("solve", {"max_iter": "5"}),
    ],
    ids=["trials-str", "threads-str", "trials-bool", "solve-max-iter-str"],
)
def test_wrong_typed_config_value_is_validation_error(
    command, config, sgep_files, tmp_path, capsys
):
    if command == "bench":
        argv = ["bench", "--config", _bench_config(tmp_path, **config)]
        argv += ["--out-dir", tmp_path / "out"]
    else:
        a_path, b_path = sgep_files
        path = tmp_path / "solver.json"
        path.write_text(json.dumps(config))
        argv = ["solve", "sgep", "--matrix-a", a_path, "--matrix-b", b_path, "-r", "1"]
        argv += ["--config", path]
    assert run_cli(*argv) == 2
    assert "must be" in capsys.readouterr().err


@pytest.mark.parametrize("where", ["gen-flag", "bench-flag", "bench-config"])
def test_negative_seed_is_validation_error_before_any_output(where, tmp_path, capsys):
    out_dir = tmp_path / "out"
    if where == "gen-flag":
        argv = ["gen", "sfda", "--n", "10", "--p1", "5", "--p2", "5", "--r", "2", "--seed", "-1"]
    elif where == "bench-flag":
        argv = ["bench", "--config", _bench_config(tmp_path), "--seed", "-1"]
    else:
        argv = ["bench", "--config", _bench_config(tmp_path, master_seed=-1)]
    assert run_cli(*argv, "--out-dir", out_dir) == 2
    assert "need master_seed >= 0, got master_seed = -1" in capsys.readouterr().err
    assert not out_dir.exists()


def test_gen_sfda_round_trips_through_solve(tmp_path, capsys):
    out_dir = tmp_path / "gen"
    code = run_cli(
        "gen", "sfda", "--out-dir", out_dir, "--n", "20",
        "--p1", "30", "--p2", "30", "--r", "3", "--seed", "4",
    )
    assert code == 0
    meta = json.loads((out_dir / "meta.json").read_text())
    assert meta["n"] == 20
    assert meta["within_ridge"] == 0.5
    capsys.readouterr()
    code = run_cli(
        "solve", "sgep",
        "--matrix-a", out_dir / "A.csv", "--matrix-b", out_dir / "B.csv", "-r", "3",
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["objective"] > 0.0


def test_gen_l1l2_round_trips_through_solve(tmp_path, capsys):
    out_dir = tmp_path / "gen"
    code = run_cli(
        "gen", "l1l2", "--out-dir", out_dir, "--n", "60", "--m", "20", "--k", "3",
    )
    assert code == 0
    capsys.readouterr()
    code = run_cli(
        "solve", "l1l2",
        "--matrix-a", out_dir / "A.csv", "--vector-b", out_dir / "b.csv",
        "--relative-tol",
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["objective"] > 0.0
    truth = np.loadtxt(out_dir / "xtrue.csv")
    assert truth.shape == (60,)


@pytest.mark.parametrize("solver, checks", [("pgsa", 2404), ("pgsa_ml", 3604), ("pgsa_nl", 3604)])
def test_gen_l1l2_solve_trace_then_verify_with_the_problem(solver, checks, tmp_path, capsys):
    data = tmp_path / "gen"
    run_cli("gen", "l1l2", "--out-dir", data, "--n", "60", "--m", "20", "--k", "3")
    files = ("--matrix-a", data / "A.csv", "--vector-b", data / "b.csv")
    trace_path = tmp_path / "trace.csv"
    assert run_cli("solve", "l1l2", *files, "--solver", solver, "--trace", trace_path) == 0
    capsys.readouterr()
    assert run_cli("verify", "--trace", trace_path, "--problem", "l1l2", *files) == 0
    assert capsys.readouterr().out == f"audit ok: {checks} checks, zero violations\n"


@pytest.mark.parametrize(
    "edit, violations",
    [
        ({}, []),
        (
            {"objective": 123.0, "converged_reason": "max_iter"},
            [
                "certificate objective 123.0 is not the last row's {last!r}",
                "max_iter stop after 18 steps",
                "max_iter stop with the last step within step_tol",
            ],
        ),
        (
            {"converged_reason": "max_iter"},
            [
                "max_iter stop after 18 steps",
                "max_iter stop with the last step within step_tol",
            ],
        ),
    ],
    ids=["unedited", "objective-and-reason", "reason-only"],
)
def test_verify_checks_the_certificate_against_the_rows(edit, violations, tmp_path, capsys):
    data = tmp_path / "gen"
    run_cli("gen", "sfda", "--out-dir", data, "--n", "100", "--p1", "50", "--p2", "50", "--r", "5")
    files = ("--matrix-a", data / "A.csv", "--matrix-b", data / "B.csv", "-r", "5")
    trace_path = tmp_path / "trace.csv"
    assert run_cli("solve", "sgep", *files, "--solver", "pgsa_ml", "--trace", trace_path) == 0
    first, rest = trace_path.read_bytes().split(b"\n", 1)
    meta = json.loads(first[2:])
    assert meta["certificate"]["converged_reason"] == "step_tol"
    assert meta["certificate"]["iterations"] == 18
    # The last objective's final bits depend on the BLAS kernel, so read it back.
    last = float(load_trace_csv(trace_path)[0].objective[-1])
    meta["certificate"].update(edit)
    trace_path.write_bytes(b"# " + json.dumps(meta, sort_keys=True).encode() + b"\n" + rest)
    capsys.readouterr()
    code = run_cli("verify", "--trace", trace_path, "--problem", "sgep", *files)
    out = capsys.readouterr().out.splitlines()
    if not violations:
        assert (code, out) == (0, ["audit ok: 112 checks, zero violations"])
        return
    assert code == 1
    assert [line.split(") ", 1)[1] for line in out[:-1]] == [
        violation.format(last=last) for violation in violations
    ]
    assert all(line.startswith("violation at iteration 18: certificate") for line in out[:-1])
    assert out[-1] == f"audit failed: {len(violations)} violations in 113 checks"


@pytest.mark.parametrize(
    "sizes",
    [["--n", "10", "--k", "20"], ["--m", "0"], ["--dct-f", "0"], ["--dct-f", "inf"]],
    ids=["k-above-n", "m-zero", "dct-f-zero", "dct-f-inf"],
)
def test_gen_bad_l1l2_sizes_is_validation_error(sizes, tmp_path, capsys):
    assert run_cli("gen", "l1l2", "--out-dir", tmp_path, *sizes) == 2
    assert "error:" in capsys.readouterr().err


def test_bench_bad_l1l2_sizes_is_validation_error(tmp_path, capsys):
    cfg = _bench_config(tmp_path, experiment="l1l2", k=2000)
    assert run_cli("bench", "--config", cfg, "--out-dir", tmp_path / "out") == 2
    assert "k = 2000" in capsys.readouterr().err


@pytest.mark.parametrize(
    "sizes, message",
    [({"n": 7}, "multiple of 5"), ({"r": 0}, "r = 0"), ({"p1": 0}, "p1 = 0")],
    ids=["n-not-multiple-of-5", "r-zero", "p1-zero"],
)
def test_bench_bad_sfda_sizes_is_validation_error(sizes, message, tmp_path, capsys):
    # The sizes SfdaRecipe rejects are rejected up front, before any trial runs.
    cfg = _bench_config(tmp_path, **sizes)
    assert run_cli("bench", "--config", cfg, "--out-dir", tmp_path / "out") == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "problem, solver, bad",
    [
        ("sgep", "pgsa_ml", {"eta": 2}),
        ("sgep", "pgsa_nl", {"window": -1}),
        ("sgep", "pgsa_ml", {"a": 0}),
        ("sgep", "pgsa_nl", {"a": float("nan")}),
        ("sgep", "pgsa", {"alpha": -1}),
        ("sgep", "pgsa", {"step_tol": -1}),
        ("sgep", "pgsa_ml", {"max_iter": -3}),
        ("sgep", "pgsa_ml", {"alpha_lower": 2.0, "alpha_upper": 1.0}),
        ("sgep", "pgsa_nl", {"alpha0": 5.0, "alpha_lower": 0.1, "alpha_upper": 1.0}),
        ("l1l2", "pgsa_ml", {"lam": -1}),
        ("l1l2", "pgsa_ml", {"box_lower": 0.5}),
        ("sgep", "pgsa_ml", {"alpha": 0.5}),
        ("sgep", "pgsa", {"window": 3}),
        ("sgep", "pgsa_ml", {"window": 3}),
        ("sgep", "pgsa", {"alpha": float("inf")}),
        ("sgep", "pgsa_nl", {"a": float("inf")}),
        ("sgep", "pgsa", {"step_tol": float("inf")}),
        ("sgep", "pgsa_ml", {"alpha_upper": float("inf")}),
    ],
    ids=[
        "eta", "window", "a-zero", "a-nan", "alpha", "step_tol", "max_iter",
        "interval", "alpha0", "lam", "box", "ml-alpha-unread", "pgsa-window-unread",
        "ml-window-unread", "alpha-inf", "a-inf", "step_tol-inf", "alpha_upper-inf",
    ],
)
def test_solve_and_bench_reject_a_bad_run_parameter_alike(
    problem, solver, bad, sgep_files, tmp_path, capsys
):
    a_path, b_path = sgep_files
    if problem == "sgep":
        (tmp_path / "solver.json").write_text(json.dumps(bad))
        flags = ["--matrix-b", b_path, "-r", "1", "--config", tmp_path / "solver.json"]
        experiment = {}
    else:
        vector = _write_vector(tmp_path, "b.csv", [1.0, -1.0])
        flags = ["--vector-b", vector] + [f"--{k.replace('_', '-')}={v}" for k, v in bad.items()]
        experiment = {"experiment": "l1l2", "n": 64}
    code = run_cli("solve", problem, "--matrix-a", a_path, "--solver", solver, *flags)
    solve_err = capsys.readouterr().err
    cfg = _bench_config(tmp_path, solver=solver, **experiment, **bad)
    # bench rejects the value before any trial runs, so it writes nothing.
    assert run_cli("bench", "--config", cfg, "--out-dir", tmp_path / "out") == code == 2
    assert capsys.readouterr().err == solve_err
    assert solve_err.startswith("error: ")
    assert not (tmp_path / "out").exists()


def test_solve_infinite_step_tol_flag_is_validation_error_before_any_output(
    sgep_files, tmp_path, capsys
):
    # Its trace would hold "step_tol": Infinity, which verify refuses.
    a_path, b_path = sgep_files
    trace_path = tmp_path / "trace.csv"
    code = run_cli(
        "solve", "sgep", "--matrix-a", a_path, "--matrix-b", b_path, "-r", "1",
        "--step-tol", "inf", "--trace", trace_path,
    )
    assert code == 2
    assert capsys.readouterr().err == "error: step_tol must be nonnegative and finite, got inf\n"
    assert not trace_path.exists()


def test_parser_problem_defaults_are_the_experiment_config_defaults():
    args = cli.build_parser().parse_args(["solve", "l1l2"])
    defaults = ExperimentConfig()
    assert (args.lam, args.box_lower, args.box_upper) == (
        defaults.lam, defaults.box_lower, defaults.box_upper
    )


@pytest.mark.parametrize("problem", ["sgep", "l1l2"])
def test_solve_non_finite_data_is_validation_error(problem, tmp_path, capsys):
    a_path = tmp_path / "A.csv"
    if problem == "sgep":
        save_matrix_csv(a_path, np.diag([2.0, np.nan]))
        flags = ["--matrix-b", a_path, "-r", "1"]
    else:
        save_matrix_csv(a_path, np.array([[1.0, np.nan]]))
        flags = ["--vector-b", _write_vector(tmp_path, "b.csv", [1.0])]
    assert run_cli("solve", problem, "--matrix-a", a_path, *flags) == 2
    assert "finite" in capsys.readouterr().err


def test_solve_infinite_box_is_validation_error(tmp_path, capsys):
    a_path = tmp_path / "A.csv"
    save_matrix_csv(a_path, np.array([[1.0, 0.5], [0.5, 2.0]]))
    b_path = _write_vector(tmp_path, "b.csv", [1.0, -1.0])
    code = run_cli(
        "solve", "l1l2", "--matrix-a", a_path, "--vector-b", b_path,
        "--box-lower=-inf", "--box-upper", "inf", "--trace", tmp_path / "trace.csv",
    )
    assert code == 2
    assert "box bounds must be finite" in capsys.readouterr().err
    assert not (tmp_path / "trace.csv").exists()


@pytest.mark.parametrize(
    "extra, message",
    [
        ({"experiment": "custom_sgep"}, "unknown experiment 'custom_sgep'"),
        ({"matrix_a": "A.csv"}, "unknown config keys: matrix_a"),
    ],
    ids=["custom_sgep", "matrix_a"],
)
def test_bench_config_for_a_file_backed_problem_is_validation_error(
    extra, message, tmp_path, capsys
):
    # Every bench trial draws its own instance; files are for solve and verify.
    cfg = _bench_config(tmp_path, **extra)
    assert run_cli("bench", "--config", cfg, "--out-dir", tmp_path / "out") == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "experiment, sizes, stop",
    [
        ("sfda", {"n": 50, "p1": 60, "p2": 60, "r": 5}, (1e-6, False)),
        ("l1l2", {"n": 60, "m": 20, "k": 3}, (1e-8, True)),
    ],
    ids=["sfda", "l1l2"],
)
def test_solve_keeps_the_stop_rule_of_its_family(experiment, sizes, stop, tmp_path, capsys):
    # solve records the (step_tol, relative_tol) a bench of the same family records.
    data = tmp_path / "data"
    gen_flags = [f"--{size}={value}" for size, value in sizes.items()]
    assert run_cli("gen", experiment, "--out-dir", data, *gen_flags) == 0
    if experiment == "sfda":
        files = ["sgep", "--matrix-a", data / "A.csv", "--matrix-b", data / "B.csv", "-r", "5"]
    else:
        files = ["l1l2", "--matrix-a", data / "A.csv", "--vector-b", data / "b.csv"]
    assert run_cli("solve", *files, "--trace", tmp_path / "solve.csv") == 0
    cfg = _bench_config(tmp_path, experiment=experiment, trials=1, **sizes)
    assert run_cli("bench", "--config", cfg, "--out-dir", tmp_path / "out", "--trace") == 0
    capsys.readouterr()
    for path in (tmp_path / "solve.csv", tmp_path / "out" / "traces" / "trace_pgsa_ml_0.csv"):
        params = load_trace_csv(path)[0].params
        assert (params["step_tol"], params["relative_tol"]) == stop


@pytest.mark.parametrize("command", ["solve", "verify"])
@pytest.mark.parametrize(
    "matrix, message",
    [
        ([[2.0, 1.5], [0.5, 2.0]], "A is not symmetric: max |M - M.T| = 1.000e+00"),
        ([[2.0, 1.0], [1.0, 2.0], [0.0, 1.0]], "A must be square, got shape (3, 2)"),
    ],
    ids=["asymmetric", "non-square"],
)
def test_sgep_file_that_is_not_symmetric_is_validation_error(
    command, matrix, message, sgep_files, tmp_path, capsys
):
    # The file is solved as written or rejected by SgepProblem, never averaged.
    good_a, b_path = sgep_files
    a_path = tmp_path / "bad.csv"
    save_matrix_csv(a_path, np.array(matrix))
    files = ["--matrix-a", a_path, "--matrix-b", b_path, "-r", "1"]
    if command == "solve":
        argv = ["solve", "sgep", *files]
    else:
        trace = tmp_path / "trace.csv"
        solve = ["solve", "sgep", "--matrix-a", good_a, "--matrix-b", b_path, "-r", "1"]
        assert run_cli(*solve, "--trace", trace) == 0
        capsys.readouterr()
        argv = ["verify", "--trace", trace, "--problem", "sgep", *files]
    assert run_cli(*argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "error, code",
    [
        (exceptions.InvalidConfigError, 2),
        (exceptions.InvalidProblemError, 2),
        (exceptions.ParseError, 3),
        (OSError, 3),
        (FileNotFoundError, 3),
        (exceptions.DimensionMismatchError, 4),
        (exceptions.DomainError, 5),
        (exceptions.LineSearchError, 5),
        (exceptions.NumericsError, 5),
        (exceptions.DegenerateInputError, 5),
    ],
    ids=lambda value: value.__name__ if isinstance(value, type) else str(value),
)
def test_each_error_class_exits_with_its_documented_code(
    error, code, tmp_path, capsys, monkeypatch
):
    def fail(args):
        raise error("boom")

    monkeypatch.setattr(cli, "cmd_gen", fail)
    assert run_cli("gen", "sfda", "--out-dir", tmp_path) == code
    assert capsys.readouterr().err == "error: boom\n"


def test_an_unmapped_error_propagates(tmp_path, monkeypatch):
    def fail(args):
        raise exceptions.InsufficientDataError("not an exit code")

    monkeypatch.setattr(cli, "cmd_gen", fail)
    with pytest.raises(exceptions.InsufficientDataError):
        run_cli("gen", "sfda", "--out-dir", tmp_path)
