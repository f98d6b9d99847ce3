"""Spans and callback counters for the traced benchmark run.

Spans are recorded from the benchmark's side, around each call into a public
fracopt function, kept in memory and written out when the run ends.  Problem
callbacks are far too many for one span each (about 25k per l1l2 solve), so a
proxy around the problem a solver receives accumulates their counts and
seconds, and the benchmark stores those totals on the enclosing solve span.
"""

from __future__ import annotations

import itertools
import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator

from fracopt import FractionalProblem

CALLBACKS = (
    "eval_f",
    "eval_h",
    "eval_g",
    "grad_h",
    "subgrad_g",
    "prox_f",
    "critical_residual",
)


def _counted(name: str):
    def method(self: CountingProblem, *args: Any) -> Any:
        start = time.perf_counter()
        result = getattr(self.inner, name)(*args)
        self.seconds[name] += time.perf_counter() - start
        self.calls[name] += 1
        return result

    method.__name__ = name
    return method


class CountingProblem(FractionalProblem):
    """Forwards every callback to ``inner``, counting calls and seconds.

    Arguments and results pass through untouched, so a solve through the
    proxy is bit-identical to a solve on ``inner``.
    """

    def __init__(self, inner: FractionalProblem):
        self.inner = inner
        self.dim = inner.dim
        self.calls = dict.fromkeys(CALLBACKS, 0)
        self.seconds = dict.fromkeys(CALLBACKS, 0.0)

    eval_f = _counted("eval_f")
    eval_h = _counted("eval_h")
    eval_g = _counted("eval_g")
    grad_h = _counted("grad_h")
    subgrad_g = _counted("subgrad_g")
    prox_f = _counted("prox_f")
    critical_residual = _counted("critical_residual")

    @property
    def lipschitz_grad_h(self) -> float:
        return self.inner.lipschitz_grad_h

    @property
    def f_is_convex(self) -> bool:
        return self.inner.f_is_convex

    @property
    def g_sup_bound(self) -> float | None:
        return self.inner.g_sup_bound


class Tracer:
    """In-memory spans with parent links; a disabled tracer records nothing.

    Every span carries the trial ID of its trial span, so the spans of one
    trial can be grouped.  ``span`` yields a dict on which the caller may set
    attributes (iteration counts, callback totals); a disabled tracer yields
    a throwaway dict, so callers need no branch.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict[str, Any]] = []
        self._open: list[dict[str, Any]] = []
        self._ids = itertools.count()

    @contextmanager
    def span(self, name: str, trial: int | None = None) -> Iterator[dict[str, Any]]:
        if not self.enabled:
            yield {}
            return
        parent = self._open[-1] if self._open else None
        if trial is None and parent is not None:
            trial = parent["trial"]
        record: dict[str, Any] = {
            "id": next(self._ids),
            "parent": parent["id"] if parent is not None else None,
            "trial": trial,
            "name": name,
        }
        self._open.append(record)
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()
            self.spans.append(record)

    def named(self, name: str) -> list[dict[str, Any]]:
        return [span for span in self.spans if span["name"] == name]

    def write(self, path: Path, header: dict[str, Any]) -> None:
        """One JSON header line, then one line per span in start order."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            handle.write(json.dumps(header, sort_keys=True) + "\n")
            for span in sorted(self.spans, key=lambda s: s["start"]):
                handle.write(json.dumps(span, sort_keys=True) + "\n")

