"""Layer spans recorded from the benchmark's side of each call.

The traced run times the public functions of each layer by replacing
them where their caller looks them up (a module global such as
``repro.serve.service.apply_bin_edges``, or a class attribute such as
``GradientBoostedTrees.predict_block``) with a wrapper that records a
span. Nothing inside the program changes; the wrappers are removed when
the traced pass ends.

A span's self time is its duration minus the time its child spans (on
the same thread) cover. Durations are kept in memory per span name and
summarised when the run ends.
"""

from __future__ import annotations

import functools
import threading
import time
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from typing import Any

from perfbench.common import Checks, median

#: ``rows(args, kwargs) -> int`` counts the rows a call processed.
RowCounter = Callable[[tuple, dict], int]


def first_arg_rows(args: tuple, kwargs: dict) -> int:
    """Rows of the first array argument (``apply_bin_edges(X, ...)``)."""
    return int(args[0].shape[0])


def method_arg_rows(args: tuple, kwargs: dict) -> int:
    """Rows of the first argument after ``self``."""
    return first_arg_rows(args[1:], kwargs)


class Tracer:
    """Records spans: per name, the duration, self time and rows of each call."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._patches: list[tuple[Any, str, Any]] = []
        #: name -> list of (duration_s, self_s, rows)
        self.calls: dict[str, list[tuple[float, float, int]]] = {}
        #: "module.attr" of each installed wrapper -> calls through it
        self.fired: dict[str, int] = {}

    # -- recording -------------------------------------------------------

    def _stack(self) -> list[list[float]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _close(self, name: str, start: float, frame: list[float], rows: int) -> None:
        duration = time.perf_counter() - start
        stack = self._stack()
        stack.pop()
        if stack:
            stack[-1][0] += duration
        self.calls.setdefault(name, []).append((duration, duration - frame[0], rows))

    @contextmanager
    def span(self, name: str, rows: int = 0) -> Iterator[None]:
        """A span around benchmark-side code (a call the benchmark makes itself)."""
        frame = [0.0]
        self._stack().append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(name, start, frame, rows)

    def wrap(self, owner: Any, attr: str, name: str, rows: RowCounter | None = None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper until :meth:`uninstall`."""
        original = getattr(owner, attr)
        where = f"{getattr(owner, '__name__', type(owner).__name__)}.{attr}"
        fired = self.fired
        fired[where] = 0

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            fired[where] += 1
            frame = [0.0]
            self._stack().append(frame)
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                self._close(name, start, frame, rows(args, kwargs) if rows else 0)

        self.replace(owner, attr, traced)

    def replace(self, owner: Any, attr: str, replacement: Any) -> None:
        """Set ``owner.attr`` to ``replacement`` until :meth:`uninstall`."""
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self, install: Callable[["Tracer"], None]) -> Iterator["Tracer"]:
        install(self)
        try:
            yield self
        finally:
            self.uninstall()

    def check_fired(self, checks: Checks) -> None:
        """Every installed wrapper must have been called at least once.

        A wrapper that never fires means the program no longer looks the
        function up where the wrapper sits (say, it moved to another
        module), so its layer metric would read 0 and look perfect.
        """
        silent = sorted(where for where, n in self.fired.items() if n == 0)
        what = "traced wrappers never called " + ", ".join(silent)
        checks.add(len(self.fired), len(silent), what)

    # -- summaries -------------------------------------------------------

    def count(self, name: str) -> int:
        return len(self.calls.get(name, ()))

    def total_s(self, name: str) -> float:
        return sum(c[0] for c in self.calls.get(name, ()))

    def self_s(self, name: str) -> float:
        return sum(c[1] for c in self.calls.get(name, ()))

    def rows(self, name: str) -> int:
        return sum(c[2] for c in self.calls.get(name, ()))

    def p50_ms(self, name: str) -> float:
        return median([c[0] for c in self.calls.get(name, ())]) * 1e3

    def us_per_row(self, name: str) -> float:
        rows = self.rows(name)
        return self.total_s(name) / rows * 1e6 if rows else 0.0

    def us_per_call(self, name: str) -> float:
        n = self.count(name)
        return self.total_s(name) / n * 1e6 if n else 0.0
