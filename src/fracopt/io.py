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
import math
from itertools import compress, count, zip_longest
from pathlib import Path
from typing import Any, Callable, Iterable

import numpy as np

from .exceptions import InvalidConfigError, ParseError
from .pgsa import LineSearchConfig, PgsaConfig, SolverTrace, _resolve
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


def _parse_rows(path: str | Path) -> dict[int, list[float]]:
    rows: dict[int, list[float]] = {}
    with open(path, "r", newline="") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rows[lineno] = [float(cell) for cell in line.split(",")]
            except ValueError as exc:
                raise ParseError(f"{path}: line {lineno}: {exc}") from None
    if not rows:
        raise ParseError(f"{path}: file contains no data rows")
    return rows


def load_matrix_csv(path: str | Path) -> np.ndarray:
    """Load a dense matrix."""
    rows = _parse_rows(path)
    width = len(next(iter(rows.values())))
    for lineno, row in rows.items():
        if len(row) != width:
            raise ParseError(f"{path}: line {lineno}: expected {width} values, found {len(row)}")
    return np.asarray(list(rows.values()), dtype=float)


def load_vector_csv(path: str | Path) -> np.ndarray:
    """Load a vector stored either one value per line or as a single row."""
    rows = list(_parse_rows(path).values())
    if all(len(row) == 1 for row in rows):
        return np.asarray([row[0] for row in rows], dtype=float)
    if len(rows) == 1:
        return np.asarray(rows[0], dtype=float)
    raise ParseError(f"{path}: not a vector (neither one column nor one row)")


def save_matrix_csv(path: str | Path, matrix: np.ndarray) -> None:
    """One row per line, each float by ``repr``; ``v[:, None]`` writes a vector one per line."""
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    with open(path, "w", newline="") as handle:
        for row in matrix:
            handle.write(",".join(repr(float(v)) for v in row))
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


def _finite_float(text: str) -> float:
    """json's float hook: ``1e400`` as much as ``NaN`` or ``Infinity`` is an error."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text} is not a finite number")
    return value


def load_trace_csv(path: str | Path) -> tuple[SolverTrace, np.ndarray | None]:
    """Rebuild a trace from its CSV form.

    Returns the trace and its ``err_to_final`` (None when that column was
    empty).  The first line gives back ``params`` and the certificate, so
    ``audit_trace``, ``fit_linear_rate`` and ``write_trace_csv`` need nothing
    else; there are no iterates.  A file without that line is a ParseError naming line 1,
    as is a line holding NaN, +-Infinity or a number that overflows to one, or
    ``params`` other than what ``pgsa._resolve`` makes of the PgsaConfig (mode "pgsa")
    or LineSearchConfig they hold and their own L, convexity and M; it names the keys.

    The rows must line up with the certificate, or the file is a ParseError
    naming the offending line: there are ``iterations + 1`` of them, with k
    reading 0, 1, ..., iterations as ``write_trace_csv`` writes it; every
    row but the last fills alpha, step_norm and, in a line-search trace,
    backtracks, and a fixed-step trace leaves backtracks empty; the last row
    leaves those three empty; err_to_final is filled in every row or in none.
    Float cells are finite, as in the header; rows are checked and parsed column by column.
    """
    with open(path, "r", newline="") as handle:
        line = handle.readline()
        try:
            if not line.startswith("# "):
                raise ValueError("expected a '# {json}' line with params and certificate")
            meta = json.loads(line[2:], parse_constant=_finite_float, parse_float=_finite_float)
            params, cert = dict(meta["params"]), Certificate(**meta["certificate"])
            line_search = params["mode"] != "pgsa"
            config = LineSearchConfig if line_search else PgsaConfig
            fields = (f.name for f in dataclasses.fields(config) if f.name != "record_trace")
            cfg = config(**{name: params[name] for name in fields})
            constants = params["lipschitz"], params["f_is_convex"], params["g_sup_bound"]
            resolved = _resolve(cfg, *constants, 0)  # n = 0 only fills an unset max_iter
            wrong = {key for key in params.keys() & resolved.keys() if params[key] != resolved[key]}
            wrong = sorted(wrong | (params.keys() ^ resolved.keys()))
            if wrong:
                raise ValueError(f"params {', '.join(wrong)}: not what a solver writes for them")
        except (ValueError, KeyError, TypeError, InvalidConfigError) as exc:
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
            values = np.array(list(map(kind, cells)), dtype=kind)
            if np.isfinite(values).all():
                return values
        except ValueError:
            pass
        for index, cell in enumerate(cells):  # name the first cell that is no finite kind
            try:
                (_finite_float if kind is float else kind)(cell)
            except ValueError as exc:
                raise parse_error(index, str(exc)) from None

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
