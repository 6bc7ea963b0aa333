"""Shared plumbing of the repo benchmark: statistics, set-up timing, results.

Every workload module exposes ``run(ctx) -> Outcome``. ``ctx`` carries
the command-line arguments and a scratch directory inside the checkout;
the outcome carries the checked-output counts and the metrics of the
requested mode (end-to-end untraced, per-layer traced).
"""

from __future__ import annotations

import functools
import gc
import json
import math
import queue
import resource
import statistics
import threading
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent

#: How many times an untraced run repeats its set-up; ``setup_s`` is the median.
SETUP_REPEATS = 3
#: Seconds one reference kernel takes on the nominal host (slowdown 1.0).
REFERENCE_S = 0.0035
#: Seconds the thread hand-off kernel takes on the nominal host.
HANDOFF_S = 0.002


@dataclass(frozen=True)
class Context:
    """What one workload run receives from the command line."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    workdir: Path


@dataclass
class Checks:
    """Counts of checked outputs; every mismatch is a failure."""

    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def add(self, attempted: int, failed: int, what: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.notes.append(f"{what}: {failed} of {attempted} wrong")

    def expect(self, ok: bool, what: str) -> None:
        self.add(1, 0 if ok else 1, what)


@dataclass
class Outcome:
    """A workload's result: check counts plus named metrics."""

    checks: Checks
    metrics: dict[str, float]
    #: Human-readable lines printed before the JSON result.
    report: list[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.checks.attempted > 0 and self.checks.failed == 0


def setup_repeats(ctx: Context, repeats: int = SETUP_REPEATS) -> int:
    """Set-ups per run: several when ``setup_s`` is reported, one for a traced run."""
    return 1 if ctx.trace else repeats


def settle() -> None:
    """Collect garbage and freeze the survivors before timing starts.

    Set-up state and the benchmark's pre-drawn inputs are long-lived;
    frozen, they no longer make every garbage collection during the
    timed phase traverse them.
    """
    gc.collect()
    gc.freeze()


@functools.cache
def _reference_inputs() -> tuple[Any, Any]:
    import numpy as np

    return np.linspace(0.0, 1.0, 2048), np.random.default_rng(0).random((40, 2000))


def _reference_kernel() -> None:
    """Fixed work of the workloads' kinds: dict updates, a keyed sort, small
    numpy reductions and a row sort."""
    import numpy as np

    x, rows = _reference_inputs()
    counts: dict[int, int] = {}
    for i in range(6000):
        key = (i * 7919) % 1021
        counts[key] = counts.get(key, 0) + i
    sorted(range(4000), key=lambda v: (v * 2654435761) % 4093)
    total = 0.0
    for i in range(300):
        total += float((x * (1.0 + i * 1e-6)).sum())
    np.sort(rows, axis=1)


def _handoff_kernel(round_trips: int = 300) -> None:
    """Items passed to a second thread and back, as a batcher and its callers do."""
    to_worker: queue.SimpleQueue = queue.SimpleQueue()
    back: queue.SimpleQueue = queue.SimpleQueue()

    def echo() -> None:
        while (item := to_worker.get()) is not None:
            back.put(item)

    worker = threading.Thread(target=echo)
    worker.start()
    try:
        for i in range(round_trips):
            to_worker.put(i)
            back.get()
    finally:
        to_worker.put(None)
        worker.join()


class HostPace:
    """How many times slower than nominal the shared host runs during a run.

    The host's speed drifts with other tenants' load, by up to 70% within
    minutes, and every CPU-bound timing drifts with it. A workload calls
    :meth:`sample` right after each unit of work it times (a collector
    batch, a search generation, a burst, a set-up; never inside a timed
    span), so the samples cover the same stretch of the host as the
    timings, and reports its CPU-bound timings divided by the run's
    :attr:`slowdown`: as they would read on the nominal host. With
    ``handoffs`` each sample also passes items to a second thread and
    back, for work whose speed also hangs on waking another thread.
    """

    def __init__(self, handoffs: bool = False) -> None:
        self.handoffs = handoffs
        self.nominal_s = REFERENCE_S + (HANDOFF_S if handoffs else 0.0)
        self.samples: list[float] = []

    def sample(self, times: int = 5) -> float:
        """Time the kernel(s) ``times`` times; return the seconds spent."""
        spent = 0.0
        for _ in range(times):
            start = time.perf_counter()
            _reference_kernel()
            if self.handoffs:
                _handoff_kernel()
            self.samples.append(time.perf_counter() - start)
            spent += self.samples[-1]
        return spent

    @property
    def slowdown(self) -> float:
        """Mean kernel time over nominal: above 1 on a slower host."""
        return statistics.fmean(self.samples) / self.nominal_s


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def tail_percentile(n: int) -> float:
    """The highest percentile with at least ten samples beyond it, capped at 99.

    Below twenty samples no percentile has ten beyond it without falling
    under the median; the maximum is reported instead (percentile 100).
    """
    if n < 20:
        return 100.0
    return min(99.0, math.floor(100.0 * (1.0 - 10.0 / n)))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]); ``inf`` values stay ``inf``."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[min(rank, len(ordered)) - 1])


def latency_summary(values_ms: Sequence[float]) -> tuple[float, float, float, int]:
    """``(p50, tail, tail_percentile, n)`` of a latency sample."""
    n = len(values_ms)
    q = tail_percentile(n)
    return percentile(values_ms, 50.0), percentile(values_ms, q), q, n


def peak_rss_mb() -> float:
    """This process's resident-set high-water mark, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def repeated_setup(
    build: Callable[[int], tuple[Any, float]], close: Callable[[Any], None], repeats: int
) -> tuple[Any, float]:
    """Run ``build(i)`` ``repeats`` times; keep the last state, return the median time.

    ``build`` returns ``(state, seconds)``, timing only the set-up itself
    (generating benchmark inputs is excluded). Each earlier state is
    closed before the next set-up starts, so the repeats measure the
    same cold start rather than a growing process. The earlier state is
    dropped and collected before the next set-up: alive during it, it
    stacked on the new set-up's peak and made ``peak_rss_mb`` read
    275 or 303 MB on serve-churn depending on when it was freed. The
    median is adjusted to the nominal host (:class:`HostPace`, sampled
    after each set-up).
    """
    times: list[float] = []
    pace = HostPace()
    state = None
    for i in range(repeats):
        if state is not None:
            close(state)
            state = None
            gc.collect()
        state, seconds = build(i)
        times.append(seconds)
        pace.sample()
    return state, median(times) / pace.slowdown


def accuracy(pred: Sequence[float], true: Sequence[float]) -> dict[str, float]:
    """Share of predictions > 0, share within ±10% of measured, and R²."""
    import numpy as np

    p = np.asarray(pred, dtype=float)
    t = np.asarray(true, dtype=float)
    if p.size == 0:
        return {"positive_frac": 0.0, "within10_frac": 0.0, "r2": 0.0}
    ss_res = float(np.sum((t - p) ** 2))
    ss_tot = float(np.sum((t - t.mean()) ** 2))
    return {
        "positive_frac": float(np.mean(p > 0)),
        "within10_frac": float(np.mean(np.abs(p - t) <= 0.1 * np.abs(t))),
        "r2": 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0,
    }


def load_spec() -> dict[str, Any]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def result_line(outcome: Outcome, trace: bool) -> str:
    """The JSON result: exactly the metrics BENCHMARK.json names for the mode.

    End-to-end metrics must all be produced by the workload. A per-layer
    metric the workload does not exercise reads 0 (the layer did no work);
    a layer it does exercise cannot read 0 by accident, because every
    installed wrapper must fire (``Tracer.check_fired``).
    """
    spec = load_spec()
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for entry in wanted:
        name = entry["name"]
        if name not in outcome.metrics and not trace:
            raise KeyError(f"workload did not measure end-to-end metric {name!r}")
        value = float(outcome.metrics.get(name, 0.0))
        if not math.isfinite(value):
            raise ValueError(f"metric {name!r} is not finite: {value}")
        metrics[name] = {"value": value, "unit": entry["unit"]}
    return json.dumps(
        {
            "correct": outcome.correct,
            "attempted": outcome.checks.attempted,
            "failed": outcome.checks.failed,
            "metrics": metrics,
        }
    )
