"""File formats: CSV matrices and vectors, result tables, run records, traces.

Matrices are plain CSV, one row per line, comma-separated floats, no header.
Square matrices loaded for eigenvalue problems are symmetrized by averaging
with the transpose, so tiny asymmetries from text round-tripping never
surface as validation failures.  Result tables and traces are headered CSV;
a trace's header follows a ``# {json}`` line with its solver parameters and
certificate, so the file alone can be re-audited.  Per-run records are JSON
lines with sorted keys and no timing fields, so a repeated run with the same
configuration and seed is byte-identical.
"""

from __future__ import annotations

import csv
import dataclasses
import json
from pathlib import Path
from typing import Any, Iterable

import numpy as np

from .exceptions import ParseError
from .pgsa import SolverTrace
from .problem import Certificate

RESULT_COLUMNS = [
    "experiment",
    "solver",
    "mean_objective",
    "mean_time_s",
    "success_rate",
    "mean_iterations",
    "trials",
    "failed",
]

TRACE_COLUMNS = ["k", "objective", "alpha", "step_norm", "err_to_final", "g_value", "backtracks"]


def _parse_rows(path: str | Path) -> list[list[float]]:
    rows: list[list[float]] = []
    with open(path, "r", newline="") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rows.append([float(cell) for cell in line.split(",")])
            except ValueError as exc:
                raise ParseError(f"{path}: line {lineno}: {exc}") from None
    if not rows:
        raise ParseError(f"{path}: file contains no data rows")
    return rows


def load_matrix_csv(path: str | Path, symmetrize: bool = False) -> np.ndarray:
    """Load a dense matrix; optionally average with its transpose."""
    rows = _parse_rows(path)
    width = len(rows[0])
    for i, row in enumerate(rows, start=1):
        if len(row) != width:
            raise ParseError(
                f"{path}: line {i}: expected {width} values, found {len(row)}"
            )
    matrix = np.asarray(rows, dtype=float)
    if symmetrize:
        if matrix.shape[0] != matrix.shape[1]:
            raise ParseError(f"{path}: cannot symmetrize a {matrix.shape} matrix")
        matrix = 0.5 * (matrix + matrix.T)
    return matrix


def load_vector_csv(path: str | Path) -> np.ndarray:
    """Load a vector stored either one value per line or as a single row."""
    rows = _parse_rows(path)
    if all(len(row) == 1 for row in rows):
        return np.asarray([row[0] for row in rows], dtype=float)
    if len(rows) == 1:
        return np.asarray(rows[0], dtype=float)
    raise ParseError(f"{path}: not a vector (neither one column nor one row)")


def save_matrix_csv(path: str | Path, matrix: np.ndarray) -> None:
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    with open(path, "w", newline="") as handle:
        for row in matrix:
            handle.write(",".join(repr(float(v)) for v in row))
            handle.write("\n")


def save_vector_csv(path: str | Path, vector: np.ndarray) -> None:
    with open(path, "w", newline="") as handle:
        for value in np.asarray(vector, dtype=float).ravel():
            handle.write(repr(float(value)))
            handle.write("\n")


def write_result_rows(path: str | Path, rows: Iterable[dict[str, Any]]) -> None:
    """Write the aggregate benchmark table (always with a header row)."""
    with open(path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=RESULT_COLUMNS, quoting=csv.QUOTE_MINIMAL)
        writer.writeheader()
        for row in rows:
            writer.writerow({key: row.get(key, "") for key in RESULT_COLUMNS})


def write_jsonl(path: str | Path, records: Iterable[dict[str, Any]]) -> None:
    """One JSON object per line, keys sorted, compact separators."""
    with open(path, "w", newline="") as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True, separators=(",", ":")))
            handle.write("\n")


def write_trace_csv(path: str | Path, trace: SolverTrace) -> None:
    """Per-iteration trace table after a ``# {json}`` line with the run's
    ``params`` and certificate; err_to_final is empty without iterates."""
    errors = trace.errors_to_final() if trace.iterates is not None else None
    iterations = trace.iterations
    meta = {"params": trace.params, "certificate": dataclasses.asdict(trace.certificate)}
    with open(path, "w", newline="") as handle:
        handle.write("# " + json.dumps(meta, sort_keys=True) + "\n")
        writer = csv.writer(handle, quoting=csv.QUOTE_MINIMAL)
        writer.writerow(TRACE_COLUMNS)
        for k in range(iterations + 1):
            taking_step = k < iterations
            writer.writerow(
                [
                    k,
                    repr(float(trace.objective[k])),
                    repr(float(trace.alpha[k])) if taking_step else "",
                    repr(float(trace.step_norm[k])) if taking_step else "",
                    repr(float(errors[k])) if errors is not None else "",
                    repr(float(trace.g_value[k])),
                    int(trace.backtracks[k]) if trace.backtracks is not None and taking_step else "",
                ]
            )


def load_trace_csv(path: str | Path) -> tuple[SolverTrace, np.ndarray | None]:
    """Rebuild a trace from its CSV form.

    Returns the trace plus the err_to_final column (None when it was empty).
    The trace gets back its ``params`` and certificate from the first line,
    so ``audit_trace`` needs nothing else; it has no iterates.  A file
    without that line is a ParseError naming line 1.
    """
    objective: list[float] = []
    g_value: list[float] = []
    alpha: list[float] = []
    step_norm: list[float] = []
    backtracks: list[int] = []
    errors: list[float] = []
    with open(path, "r", newline="") as handle:
        line = handle.readline()
        try:
            if not line.startswith("# "):
                raise ValueError("expected a '# {json}' line with params and certificate")
            meta = json.loads(line[2:])
            params, cert = dict(meta["params"]), Certificate(**meta["certificate"])
        except (ValueError, KeyError, TypeError) as exc:
            raise ParseError(f"{path}: line 1: {exc}") from None
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != TRACE_COLUMNS:
            raise ParseError(f"{path}: line 2: expected trace header {TRACE_COLUMNS}")
        for lineno, row in enumerate(reader, start=3):
            if not row:
                continue
            if len(row) != len(TRACE_COLUMNS):
                raise ParseError(
                    f"{path}: line {lineno}: expected {len(TRACE_COLUMNS)} columns, "
                    f"found {len(row)}"
                )
            try:
                objective.append(float(row[1]))
                g_value.append(float(row[5]))
                if row[2] != "":
                    alpha.append(float(row[2]))
                    step_norm.append(float(row[3]))
                if row[6] != "":
                    backtracks.append(int(row[6]))
                if row[4] != "":
                    errors.append(float(row[4]))
            except ValueError as exc:
                raise ParseError(f"{path}: line {lineno}: {exc}") from None
    if not objective:
        raise ParseError(f"{path}: trace has no data rows")
    trace = SolverTrace(
        objective=np.asarray(objective),
        g_value=np.asarray(g_value),
        alpha=np.asarray(alpha),
        step_norm=np.asarray(step_norm),
        final_x=np.empty(0),
        certificate=cert,
        params=params,
        backtracks=np.asarray(backtracks, dtype=int) if backtracks else None,
    )
    return trace, (np.asarray(errors) if errors else None)
