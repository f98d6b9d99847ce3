"""File formats: CSV matrices and vectors, result tables, run records, traces.

Matrices are plain CSV, one row per line, comma-separated floats, no header,
loaded as they are written.  Result tables and traces are headered CSV;
a trace's header follows a ``# {json}`` line with its solver parameters and
certificate, so the file alone can be re-audited.  Per-run records are JSON
lines with sorted keys and no timing fields, so a repeated run with the same
configuration and seed is byte-identical.
"""

from __future__ import annotations

import csv
import dataclasses
import json
from itertools import compress, count, zip_longest
from pathlib import Path
from typing import Any, Callable, Iterable

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


def load_matrix_csv(path: str | Path) -> np.ndarray:
    """Load a dense matrix."""
    rows = _parse_rows(path)
    width = len(rows[0])
    for i, row in enumerate(rows, start=1):
        if len(row) != width:
            raise ParseError(
                f"{path}: line {i}: expected {width} values, found {len(row)}"
            )
    return np.asarray(rows, dtype=float)


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
    ``params`` and certificate; err_to_final is empty when the trace has none.

    Each column is formatted in one pass, floats by ``repr`` so that a reload
    is exact, and the rows are joined with ``\\r\\n`` ends: byte for byte
    what ``csv.writer`` writes row by row.  The step cells (alpha, step_norm,
    backtracks) of the last row are empty.
    """

    def cells(values: Any, dtype: type = float, fmt: Callable[[Any], str] = repr) -> Iterable[str]:
        return () if values is None else map(fmt, np.asarray(values, dtype=dtype).tolist())

    errors = trace.err_to_final if trace.iterates is None else trace.errors_to_final()
    columns = (
        map(str, range(trace.iterations + 1)),
        cells(trace.objective),
        cells(trace.alpha),
        cells(trace.step_norm),
        cells(errors),
        cells(trace.g_value),
        cells(trace.backtracks, int, str),
    )
    meta = {"params": trace.params, "certificate": dataclasses.asdict(trace.certificate)}
    with open(path, "w", newline="") as handle:
        handle.write("# " + json.dumps(meta, sort_keys=True) + "\n")
        handle.write(",".join(TRACE_COLUMNS) + "\r\n")
        handle.write("\r\n".join(map(",".join, zip_longest(*columns, fillvalue=""))) + "\r\n")


def load_trace_csv(path: str | Path) -> tuple[SolverTrace, np.ndarray | None]:
    """Rebuild a trace from its CSV form.

    Returns the trace and its ``err_to_final`` (None when that column was
    empty).  The first line gives back ``params`` and the certificate, so
    ``audit_trace``, ``fit_linear_rate`` and ``write_trace_csv`` need nothing
    else; there are no iterates.  A file without that line is a ParseError naming line 1.

    The rows must line up with the certificate, or the file is a ParseError
    naming the offending line: there are ``iterations + 1`` of them, with k
    reading 0, 1, ..., iterations as ``write_trace_csv`` writes it; every
    row but the last fills alpha, step_norm and, in a line-search trace,
    backtracks, and a fixed-step trace leaves backtracks empty; the last row
    leaves those three empty; err_to_final is filled in every row or in none.
    The rows are checked and parsed column by column.
    """
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
        lines = list(reader)
    rows = list(filter(None, lines))
    if not rows:
        raise ParseError(f"{path}: trace has no data rows")
    linenos = list(compress(count(3), lines))  # the line each row sits on

    def parse_error(index: int, message: str) -> ParseError:
        return ParseError(f"{path}: line {linenos[index]}: {message}")

    width = len(TRACE_COLUMNS)
    if set(map(len, rows)) != {width}:
        index = next(k for k, row in enumerate(rows) if len(row) != width)
        raise parse_error(index, f"expected {width} columns, found {len(rows[index])}")
    columns = dict(zip(TRACE_COLUMNS, zip(*rows)))
    last = len(rows) - 1
    line_search = params.get("mode") in ("pgsa_ml", "pgsa_nl")
    with_errors = rows[0][4] != ""
    # Which rows fill err_to_final, alpha, step_norm and backtracks, against
    # which rows write_trace_csv fills: all or none for err_to_final, every
    # row but the last for the step cells, backtracks only in a line search.
    names = ("err_to_final", "alpha", "step_norm", "backtracks")
    filled = np.array([np.fromiter(map(bool, columns[name]), bool, len(rows)) for name in names])
    expected = np.array([[with_errors], [True], [True], [line_search]]).repeat(len(rows), 1)
    expected[1:, last] = False
    wrong = (filled != expected).any(axis=0)
    if wrong.any():
        index = int(wrong.argmax())
        if filled[0, index] != with_errors:
            message = "err_to_final must be filled in every row or in none"
        elif index == last:
            message = "the last row leaves alpha, step_norm and backtracks empty"
        else:
            rule = "and backtracks" if line_search else "and leave backtracks empty"
            message = f"every row but the last must fill alpha, step_norm {rule}"
        raise parse_error(index, message)
    if len(rows) != cert.iterations + 1:
        raise parse_error(
            last,
            f"trace ends after {len(rows)} rows, but its certificate counts "
            f"{cert.iterations} iterations",
        )
    counter = tuple(map(str, range(len(rows))))
    if columns["k"] != counter:
        index = next(k for k, cell in enumerate(columns["k"]) if cell != counter[k])
        raise parse_error(index, f"k must read {index}, found {columns['k'][index]!r}")

    def parse(name: str, count: int = len(rows), kind: type = float) -> np.ndarray:
        cells = columns[name][:count]
        try:
            return np.array(list(map(kind, cells)), dtype=kind)
        except ValueError:
            for index, cell in enumerate(cells):
                try:
                    kind(cell)
                except ValueError as exc:
                    raise parse_error(index, str(exc)) from None
            raise

    trace = SolverTrace(
        objective=parse("objective"),
        g_value=parse("g_value"),
        alpha=parse("alpha", last),
        step_norm=parse("step_norm", last),
        final_x=np.empty(0),
        certificate=cert,
        params=params,
        backtracks=parse("backtracks", last, int) if line_search else None,
        err_to_final=parse("err_to_final") if with_errors else None,
    )
    return trace, trace.err_to_final
