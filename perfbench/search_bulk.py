"""The ``search-bulk`` workload: evolutionary search through the bulk query plane.

``run_search`` asks a fresh :class:`~repro.serve.bulk.BulkQueryPlane`
(default budgets: 4096 cached encodings) about 1024 candidates per
generation for 8 generations on one warm device, serial backend. The
8192 candidates overflow the encoding cache mid-run. The served system
is the same paper-scale model as the serving workloads, and the device
is fixed; the workload seed seeds the search.

Checks: every candidate gets an answer, and a sample of the final
generation predicted in bulk equals the per-request
``PredictRequest.definition`` path byte for byte.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any

import numpy as np

from perfbench.common import Checks, Context, HostPace, Outcome, accuracy, median, peak_rss_mb
from perfbench.common import repeated_setup, settle, setup_repeats
from perfbench.serving import Serving, publish_system, swapper, timed_swaps
from perfbench.tracing import Tracer, first_arg_rows, method_arg_rows

POPULATION = 1024
GENERATIONS = 8
#: Final-generation candidates re-checked on the per-request path.
SAMPLE = 128
#: Publish + refresh swaps timed before and after the searches (each).
SWAPS = 15
#: Searches per run for each 10 s of ``--seconds``: two searches measure over
#: twice the span of one, which the host's slow spells then affect less.
SEARCHES_PER_10S = 2


@dataclass
class SearchRun:
    """One timed search, summarised; only its final generation is kept."""

    wall_s: float
    cpu_s: float
    candidates: int
    failed: int
    nonpositive: int
    generation_ms: list[float]
    #: Generation steps: search start to the 2nd query, query to query, last query to end.
    step_s: list[float]
    final: tuple[list, list]  # (networks, responses) of the last generation
    stats: dict[str, int]


def _plane_class():
    from repro.serve import BulkQueryPlane

    class RecordingPlane(BulkQueryPlane):
        """Keeps each generation's candidates, answers and call time.

        With ``pace`` set, the host is sampled after each call; ``pace_s``
        keeps the seconds each sampling took, which the caller takes out
        of its own timings.
        """

        def __init__(self, *args: Any, pace: HostPace | None = None, **kwargs: Any) -> None:
            super().__init__(*args, **kwargs)
            self.generations: list[tuple[list, list, float]] = []
            self.starts: list[float] = []
            self.pace = pace
            self.pace_s: list[float] = []

        def predict_block(self, networks, device, **kwargs):
            start = time.perf_counter()
            responses = super().predict_block(networks, device, **kwargs)
            self.starts.append(start)
            self.generations.append((list(networks), responses, time.perf_counter() - start))
            self.pace_s.append(self.pace.sample() if self.pace is not None else 0.0)
            return responses

    return RecordingPlane


def build(ctx: Context) -> tuple[Serving, float]:
    """The served system, a service warm from its dataset, and a warm-up search."""
    from repro.search import SearchConfig, run_search
    from repro.serve import ModelRegistry, PredictionService

    start = time.perf_counter()
    artifacts, registry_dir, checkpoint = publish_system(ctx)
    registry = ModelRegistry(registry_dir)
    service = PredictionService(registry, list(artifacts.suite), dataset=artifacts.dataset)
    state = Serving(artifacts, registry, checkpoint, service, [])
    # Warm-up: a small search on a throwaway plane (its caches are dropped).
    warm = _plane_class()(service)
    run_search(warm, artifacts.dataset.device_names[0], SearchConfig(population=64, generations=2))
    return state, time.perf_counter() - start


def _search(
    state: Serving,
    device: str,
    seed: int,
    tracer: Tracer | None = None,
    pace: HostPace | None = None,
) -> SearchRun:
    from repro.search import SearchConfig, run_search

    settle()
    plane = _plane_class()(state.service, pace=pace)
    config = SearchConfig(population=POPULATION, generations=GENERATIONS, seed=seed)
    cpu, start = time.process_time(), time.perf_counter()
    with tracer.span("search") if tracer is not None else nullcontext():
        run_search(plane, device, config)
    end = time.perf_counter()
    # Step i runs from query i to query i + 1 and holds the host sampling
    # after query i, which is not the search's time.
    wall, cpu = end - start - sum(plane.pace_s), time.process_time() - cpu
    marks = [start, *plane.starts[1:], end]
    steps = [b - a - p for a, b, p in zip(marks, marks[1:], plane.pace_s)]
    answers = [r for _, responses, _ in plane.generations for r in responses]
    networks, responses, _ = plane.generations[-1]
    return SearchRun(
        wall_s=wall,
        cpu_s=cpu,
        candidates=len(answers),
        failed=sum(not r.ok for r in answers),
        nonpositive=sum(r.ok and r.latency_ms <= 0 for r in answers),
        generation_ms=[g[2] * 1e3 for g in plane.generations],
        step_s=steps,
        final=(networks, responses),
        stats=dict(plane.stats),
    )


def run(ctx: Context) -> Outcome:
    state, setup_s = repeated_setup(lambda i: build(ctx), Serving.close, setup_repeats(ctx))
    try:
        return _measure(ctx, state, setup_s)
    finally:
        state.close()


def _measure(ctx: Context, state: Serving, setup_s: float) -> Outcome:
    rng = np.random.default_rng(ctx.seed)
    device = state.artifacts.dataset.device_names[0]
    runs: list[SearchRun] = []
    pace = HostPace()
    # Swaps before and after the searches, so their median spans the run.
    swap = swapper(state, None)
    settle()
    swaps = timed_swaps(swap, SWAPS)
    if not ctx.trace:
        for i in range(max(1, round(SEARCHES_PER_10S * ctx.seconds / 10))):
            runs.append(_search(state, device, ctx.seed * 1000 + i, pace=pace))
    else:
        plain = _search(state, device, ctx.seed * 1000).wall_s
        tracer = Tracer()
        with tracer.installed(_install):
            runs.append(_search(state, device, ctx.seed * 1000, tracer))
    settle()  # the search's garbage would otherwise be collected inside the swaps
    swaps += timed_swaps(swap, SWAPS)

    checks = Checks()
    candidates = sum(run.candidates for run in runs)
    checks.add(candidates, sum(run.failed for run in runs), "search-bulk answers")
    networks, responses = runs[-1].final
    picks = sorted(rng.choice(len(networks), size=min(SAMPLE, len(networks)), replace=False))
    sample = [(networks[i], responses[i]) for i in picks]
    _check_per_request(state, device, sample, checks)
    if ctx.trace:
        tracer.check_fired(checks)
    quality = _quality(state)
    nonpositive = sum(run.nonpositive for run in runs) / candidates

    search_s = sum(run.wall_s for run in runs)
    gen_ms = [ms for run in runs for ms in run.generation_ms]
    step_ms = [s * 1e3 for run in runs for s in run.step_s]
    lines = [
        f"search-bulk: {len(runs)} search(es) of {POPULATION} x {GENERATIONS} on {device} "
        f"(raw; host slowdown {pace.slowdown if pace.samples else 1.0:.3f}): "
        f"{candidates / search_s:.0f} candidates/s; generation step p50 {median(step_ms):.1f} ms, "
        f"max {max(step_ms):.1f} ms (n={len(step_ms)}); generation query p50 "
        f"{median(gen_ms):.1f} ms, max {max(gen_ms):.1f} ms; publish+refresh p50 "
        f"{median(swaps):.2f} ms (n={len(swaps)}); plane stats {runs[-1].stats}",
        f"search-bulk: {nonpositive:.4f} of candidate answers are <= 0 ms "
        "(known defect, recorded not hidden)",
    ]
    if not ctx.trace:
        metrics = {
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb(),
            "ok_frac": 1.0 - checks.failed / checks.attempted,
            "throughput_per_s": candidates / search_s * pace.slowdown,
            "p50_ms": median(step_ms) / pace.slowdown,
            **quality,
        }
        return Outcome(checks, metrics, lines)

    stats = runs[-1].stats
    requests = stats["requests"] or 1
    t = tracer
    metrics = {
        "tail_ms": max(step_ms),
        "update_ms": median(swaps),
        "bulk.predict_block_p50_ms": t.p50_ms("bulk.predict_block"),
        "bulk.predict_block_self_ms": t.self_s("bulk.predict_block")
        / t.count("bulk.predict_block")
        * 1e3,
        "bulk.encode_us_per_miss": t.us_per_call("bulk.encode"),
        "bulk.content_hash_us": t.us_per_call("content_hash"),
        "bulk.dedup_frac": stats["dedup_hits"] / requests,
        "bulk.pred_hit_frac": stats["pred_hits"] / requests,
        "bulk.enc_hit_frac": stats["enc_hits"] / max(1, stats["enc_hits"] + stats["enc_misses"]),
        "bulk.enc_evictions": stats["enc_evictions"],
        "binning.apply_us_per_row": t.us_per_row("binning.apply"),
        "gbt.predict_us_per_row": t.us_per_row("gbt.predict"),
        "search.materialize_us_per_candidate": t.total_s("search.materialize") / candidates * 1e6,
        "search.network_work_us_per_candidate": t.total_s("search.network_work") / candidates * 1e6,
        "search.self_s": t.self_s("search"),
        "search.nonpositive_frac": nonpositive,
        "proc.cpu_util": runs[-1].cpu_s / runs[-1].wall_s,
        "trace.unattributed_frac": 1.0 - t.total_s("search") / runs[-1].wall_s,
        "trace.overhead_frac": runs[-1].wall_s / plain - 1.0,
    }
    return Outcome(checks, metrics, lines)


def _install(tracer: Tracer) -> None:
    import repro.search.evolution as evolution
    import repro.serve.bulk as bulk
    from repro.core.representation import NetworkEncoder
    from repro.ml.gbt import GradientBoostedTrees
    from repro.serve import BulkQueryPlane

    tracer.wrap(BulkQueryPlane, "predict_block", "bulk.predict_block")
    tracer.wrap(NetworkEncoder, "encode_network", "bulk.encode")
    tracer.wrap(bulk, "network_content_hash", "content_hash")
    tracer.wrap(evolution, "network_content_hash", "content_hash")
    tracer.wrap(bulk, "apply_bin_edges", "binning.apply", first_arg_rows)
    tracer.wrap(GradientBoostedTrees, "predict_block", "gbt.predict", method_arg_rows)
    tracer.wrap(evolution, "_materialize", "search.materialize")
    tracer.wrap(evolution, "network_work", "search.network_work")


def _check_per_request(state: Serving, device: str, sample: list, checks: Checks) -> None:
    """Bulk answers must equal the per-request ``definition`` path, byte for byte."""
    from repro.serve import PredictRequest

    answers = state.service.predict_many(
        [PredictRequest(network=n.name, device=device, definition=n) for n, _ in sample]
    )
    wrong = sum(
        not (a.ok and b.ok and a.latency_ms == b.latency_ms)
        for a, (_, b) in zip(answers, sample)
    )
    checks.add(len(sample), wrong, "search-bulk bulk vs per-request")


def _quality(state: Serving) -> dict[str, float]:
    """Accuracy of bulk answers for the measured suite on every device.

    Search candidates have no measurements, so the model the search
    relies on is scored where measurements exist: every suite network
    on every device, answered through a fresh bulk plane.
    """
    dataset = state.artifacts.dataset
    plane = _plane_class()(state.service)
    suite = [state.artifacts.suite[name] for name in dataset.network_names]
    pred = [
        r.latency_ms for device in dataset.device_names for r in plane.predict_block(suite, device)
    ]
    return accuracy(pred, dataset.latencies_ms.ravel())
