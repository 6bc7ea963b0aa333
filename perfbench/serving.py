"""The two serving workloads: ``serve-open`` and ``serve-churn``.

Both serve the paper-scale system (118 networks x 105 devices, artifact
seed 0) through a :class:`~repro.serve.service.PredictionService` whose
model is published with ``publish_serving_checkpoint`` (signature 10,
50% contribution, every signature-complete member). The workload seed
drives the traffic: the request mix, the arrival schedule and which
devices start cold. Cold devices are unknown to the service and ship
``signature_ms`` with their requests.

Every answer is checked against a batch-of-one reference: a second
service with ``max_batch=1`` answers each distinct (device, network)
pair once. Batch composition never changes a prediction's bytes, and
unknown networks must come back as typed ``unknown_network`` misses.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import tempfile
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any

import numpy as np

from perfbench.common import Checks, Context, HostPace, Outcome, accuracy, latency_summary, median
from perfbench.common import peak_rss_mb, percentile, repeated_setup, settle, setup_repeats
from perfbench.loads import OpenRung, closed_loop, open_loop
from perfbench.tracing import Tracer, first_arg_rows, method_arg_rows

#: Artifact seed of the served system; the workload seed drives traffic only.
SYSTEM_SEED = 0
#: Per-request latency limit a rung must meet at its p99.
LIMIT_MS = 25.0
#: A generator whose median lateness exceeds this did not hold the rate.
GEN_LAG_P50_MS = 1.0
#: The rung whose latencies are reported, and its share of ``--seconds``.
REPORT_RPS = 2000.0
REPORT_SHARE = 0.3
#: Doubling ladder; the first failing rung is refined by bisection.
LADDER_RPS = (1000.0, 2000.0, 4000.0, 8000.0, 16000.0, 32000.0)
RUNG_SHARE = 0.08
BISECTIONS = 3
#: Requests in the pre-drawn stream (rungs take consecutive slices, cycling).
STREAM = 60_000
#: serve-churn: client threads.
CLIENTS = 2
#: Requests in a saturating burst (capacity and tracing overhead).
BURST = 8000
#: Tracing-overhead burst pairs.
OVERHEAD_PAIRS = 5
#: serve-open: publish + refresh swaps timed after every rung.
SWAPS_PER_RUNG = 3
#: serve-open: saturating bursts timed after every rung, one on each side of its swaps.
BURSTS_PER_RUNG = 2


@dataclass
class Serving:
    """One set-up: artifacts, registry, published model and a running service."""

    artifacts: Any
    registry: Any
    checkpoint: Any
    service: Any
    requests: list

    def close(self) -> None:
        self.service.close()


def _warm(service, dataset, devices) -> None:
    for device in devices:
        row = dataset.latencies_ms[dataset.device_index(device)]
        service.warm_device(device, dict(zip(dataset.network_names, map(float, row))))


def publish_system(ctx: Context) -> tuple[Any, str, Any]:
    """The served system: paper-scale artifacts and their published model.

    Returns ``(artifacts, registry_dir, checkpoint)``.
    """
    from repro.pipeline import build_paper_artifacts, publish_serving_checkpoint

    artifacts = build_paper_artifacts(seed=SYSTEM_SEED, use_cache=False)
    registry_dir = tempfile.mkdtemp(prefix="registry-", dir=ctx.workdir)
    _, checkpoint = publish_serving_checkpoint(
        artifacts, registry_dir, signature_size=10, contribution_fraction=0.5, seed=SYSTEM_SEED
    )
    return artifacts, registry_dir, checkpoint


def build(ctx: Context, cold_fraction: float, warmup) -> tuple[Serving, float]:
    """Artifacts, publish, service start and warm-up; returns the set-up and its time.

    The request stream is benchmark input, drawn here because it names
    the cold devices; its generation is excluded from the set-up time.
    """
    from repro.serve import ModelRegistry, PredictionService
    from repro.serve.loadgen import LoadProfile, build_requests

    start = time.perf_counter()
    artifacts, registry_dir, checkpoint = publish_system(ctx)
    setup_s = time.perf_counter() - start

    profile = LoadProfile(
        n_requests=STREAM, cold_fraction=cold_fraction, unknown_fraction=0.02, seed=ctx.seed
    )
    requests = build_requests(artifacts.dataset, checkpoint.signature_names, profile)
    cold = frozenset(r.device for r in requests if r.signature_ms is not None)

    start = time.perf_counter()
    registry = ModelRegistry(registry_dir)
    service = PredictionService(registry, list(artifacts.suite))
    _warm(service, artifacts.dataset, [d for d in artifacts.dataset.device_names if d not in cold])
    state = Serving(artifacts, registry, checkpoint, service, requests)
    warmup(state)
    setup_s += time.perf_counter() - start
    return state, setup_s


def reference(state: Serving) -> dict[tuple[str, str], Any]:
    """Batch-of-one answers for every distinct (device, network) in the stream."""
    from repro.serve import PredictionService, PredictRequest

    pairs = sorted({(r.device, r.network) for r in state.requests})
    with PredictionService(
        state.registry, list(state.artifacts.suite), max_batch=1, max_wait_ms=0.0
    ) as service:
        _warm(service, state.artifacts.dataset, state.artifacts.dataset.device_names)
        answers = service.predict_many([PredictRequest(network=n, device=d) for d, n in pairs])
    return dict(zip(pairs, answers))


def _same(response, ref) -> bool:
    if ref.ok:
        return response.ok and response.latency_ms == ref.latency_ms
    return response.error == ref.error == "unknown_network"


def check(checks: Checks, base: list, responses: list, ref: dict, what: str) -> None:
    """Compare answers with the reference, byte for byte, and their digests."""
    expected = [ref[(r.device, r.network)] for r in base]
    wrong = sum(not _same(got, want) for got, want in zip(responses, expected))
    checks.add(len(responses), wrong, what)


def digest(responses: list) -> str:
    values = np.array([r.latency_ms if r.ok else np.nan for r in responses], dtype=float)
    return hashlib.sha256(values.tobytes()).hexdigest()


def quality(state: Serving, ref: dict) -> dict[str, float]:
    """Accuracy of the answers against the measured latencies.

    Scored once per distinct (device, network) of the stream: every
    served answer was checked equal to its reference answer, so this is
    the accuracy of what was served, independent of how often the
    traffic repeated a pair.
    """
    dataset = state.artifacts.dataset
    pred, true = [], []
    for (device, network), answer in ref.items():
        if answer.ok:
            pred.append(answer.latency_ms)
            true.append(
                dataset.latencies_ms[dataset.device_index(device), dataset.network_index(network)]
            )
    return accuracy(pred, true)


def swapper(state: Serving, tracer: Tracer | None) -> Any:
    """A swap: publish the serving model's bytes again as a new version, then refresh.

    Same bytes means a new version with identical answers, so the
    output checks still hold after every swap.
    """
    model = state.registry.load(state.checkpoint)
    config = {"republished_from": state.checkpoint.key}
    metadata = state.checkpoint.metadata

    def swap() -> None:
        state.registry.publish(model, config, metadata=metadata)
        with tracer.span("service.refresh") if tracer is not None else nullcontext():
            state.service.refresh()

    return swap


def timed_swaps(swap, n: int) -> list[float]:
    """Milliseconds of ``n`` consecutive swaps."""
    times = []
    for _ in range(n):
        start = time.perf_counter()
        swap()
        times.append((time.perf_counter() - start) * 1e3)
    return times


def burst_s(state: Serving) -> float:
    """Wall time to drain a saturating burst of warm, known requests."""
    base = [r for r in state.requests if r.signature_ms is None][:BURST]
    start = time.perf_counter()
    futures = [state.service.submit(r) for r in base]
    for f in futures:
        f.result()
    return time.perf_counter() - start


def overhead_frac(state: Serving, install) -> float:
    """Traced / untraced burst wall - 1, median of pairs alternating which runs first."""
    ratios = []
    for k in range(OVERHEAD_PAIRS):
        if k % 2:
            with Tracer().installed(install):
                traced = burst_s(state)
            plain = burst_s(state)
        else:
            plain = burst_s(state)
            with Tracer().installed(install):
                traced = burst_s(state)
        ratios.append(traced / plain - 1.0)
    return median(ratios)


# -- tracing -------------------------------------------------------------


class ServingTrace:
    """Wrappers for the serving layers plus per-request flush timestamps."""

    def __init__(self, state: Serving) -> None:
        self.state = state
        self.tracer = Tracer()
        #: id(request) -> (flush start, flush end)
        self.flushed: dict[int, tuple[float, float]] = {}

    def install(self, tracer: Tracer) -> None:
        import repro.serve.service as service_mod
        from repro.ml.gbt import GradientBoostedTrees
        from repro.serve import ModelRegistry

        batcher = self.state.service._batcher
        flush = batcher.flush_fn
        flushed = self.flushed

        def traced_flush(items):
            start = time.perf_counter()
            with tracer.span("service.flush", rows=len(items)):
                out = flush(items)
            end = time.perf_counter()
            for item in items:
                flushed[id(item)] = (start, end)
            return out

        tracer.replace(batcher, "flush_fn", traced_flush)
        tracer.wrap(service_mod, "apply_bin_edges", "binning.apply", first_arg_rows)
        tracer.wrap(GradientBoostedTrees, "predict_block", "gbt.predict", method_arg_rows)
        tracer.wrap(ModelRegistry, "publish", "registry.publish")
        tracer.wrap(ModelRegistry, "load", "registry.load")

    def layer_metrics(self, before, after) -> dict[str, float]:
        t = self.tracer
        batches = after.batches - before.batches
        submitted = after.submitted - before.submitted
        flush_rows = t.rows("service.flush")
        return {
            "batcher.batch_size_mean": flush_rows / batches if batches else 0.0,
            "batcher.timeout_flush_frac": (
                (after.flushes["timeout"] - before.flushes["timeout"]) / batches if batches else 0.0
            ),
            "batcher.shed_frac": (after.shed - before.shed) / submitted if submitted else 0.0,
            "service.flush_p50_ms": t.p50_ms("service.flush"),
            "service.flush_us_per_row": t.us_per_row("service.flush"),
            # Self time, not flush minus all binning and descent: refresh
            # and onboarding also bin, outside any flush.
            "service.flush_self_us_per_row": (
                t.self_s("service.flush") / flush_rows * 1e6 if flush_rows else 0.0
            ),
            "service.refresh_p50_ms": t.p50_ms("service.refresh"),
            "service.warm_device_us": t.us_per_call("service.warm_device"),
            "registry.publish_p50_ms": t.p50_ms("registry.publish"),
            "registry.load_p50_ms": t.p50_ms("registry.load"),
            "binning.apply_us_per_row": t.us_per_row("binning.apply"),
            "gbt.predict_us_per_row": t.us_per_row("gbt.predict"),
        }

    def waits(self, base_times: list[float], sent: list) -> tuple[list[float], float]:
        """Queue waits (ms) and the summed wait + flush seconds of answered requests."""
        waits, covered = [], 0.0
        for t0, request in zip(base_times, sent):
            span = self.flushed.get(id(request))
            if span is not None:
                waits.append((span[0] - t0) * 1e3)
                covered += span[1] - t0
        return waits, covered


# -- serve-open ----------------------------------------------------------


def _latencies(rung: OpenRung) -> list[float]:
    """Per-request latencies; a failed request misses every limit (``inf``)."""
    return [
        lat if r.ok or r.error == "unknown_network" else float("inf")
        for lat, r in zip(rung.latency_ms, rung.responses)
    ]


def _rung_passes(rung: OpenRung, failed: int) -> bool:
    """p99 within the limit, <= 1% failed, no growing backlog, generator held the rate.

    Holding the rate means the generator's actual submit span kept up with
    the span of the schedule it drew, and its median lateness stayed small.
    """
    latency = _latencies(rung)
    n = len(latency)
    fifth = max(1, n // 5)
    backlog_ok = percentile(latency[-fifth:], 50) <= 2 * percentile(latency[:fifth], 50) + 2.0
    # The generator is compared with the schedule it drew, not the nominal
    # rate: a short rung's Poisson draw alone can fall 5% below nominal.
    held = (
        rung.achieved_rps >= 0.95 * rung.drawn_rps
        and percentile(list(rung.lag_ms), 50) <= GEN_LAG_P50_MS
    )
    return percentile(latency, 99) <= LIMIT_MS and failed <= 0.01 * n and backlog_ok and held


def run_open(ctx: Context) -> Outcome:
    def warmup(state: Serving) -> None:
        open_loop(state.service.submit, state.requests[:300], 1000.0, (ctx.seed, 0))
        burst_s(state)

    state, setup_s = repeated_setup(
        lambda i: build(ctx, 0.1, warmup), Serving.close, setup_repeats(ctx)
    )
    try:
        return _measure_open(ctx, state, setup_s)
    finally:
        state.close()


def _measure_open(ctx: Context, state: Serving, setup_s: float) -> Outcome:
    ref = reference(state)
    settle()
    checks = Checks()
    trace = ServingTrace(state) if ctx.trace else None
    cursor = [0]
    rungs: list[tuple[OpenRung, list, bool]] = []
    waits: list[float] = []
    covered = [0.0, 0.0]  # traced: (wait + flush seconds, latency seconds)

    bursts: list[float] = []
    # A burst's drain rate hangs on the batcher thread waking and being
    # woken as much as on compute, so the pace samples hand-offs too.
    pace = HostPace(handoffs=True)
    swaps: list[float] = []
    swap = swapper(state, trace.tracer if trace is not None else None)

    def between_rungs() -> None:
        # Capacity and swap samples are spread over the whole run, so
        # their medians do not hinge on one slow stretch of the host;
        # the rung's garbage is collected first, outside the timings.
        settle()
        for i in range(BURSTS_PER_RUNG):
            bursts.append(BURST / burst_s(state))
            if trace is None:
                pace.sample(10)
            if i == 0:
                swaps.extend(timed_swaps(swap, SWAPS_PER_RUNG))

    def rung(rate: float, seconds: float) -> tuple[OpenRung, bool]:
        n = max(100, int(rate * seconds))
        base = [state.requests[(cursor[0] + i) % STREAM] for i in range(n)]
        cursor[0] += n
        result = open_loop(state.service.submit, base, rate, (ctx.seed, len(rungs) + 1))
        if trace is not None:
            w, c = trace.waits(list(result.scheduled), base)
            waits.extend(w)
            covered[0] += c
            covered[1] += float(np.sum(result.latency_ms)) / 1e3
        before = checks.failed
        check(checks, base, result.responses, ref, f"serve-open {rate:.0f} rps answers")
        passed = _rung_passes(result, checks.failed - before)
        rungs.append((result, base, passed))
        between_rungs()
        return result, passed

    stats_before = state.service.batch_stats()
    cpu0, wall0 = time.process_time(), time.perf_counter()
    if trace is not None:
        trace.install(trace.tracer)
    try:
        # The report rung first, then the doubling ladder (reusing it at
        # its rate), then bisection between the last pass and first miss.
        report = rung(REPORT_RPS, REPORT_SHARE * ctx.seconds)
        best: OpenRung | None = None
        failed_at = None
        for rate in LADDER_RPS:
            result, ok = report if rate == REPORT_RPS else rung(rate, RUNG_SHARE * ctx.seconds)
            if not ok:
                failed_at = rate
                break
            best = result
        if failed_at is not None and best is not None:
            low, high = best.rate_rps, failed_at
            for _ in range(BISECTIONS):
                mid = round((low * high) ** 0.5)
                result, ok = rung(mid, RUNG_SHARE * ctx.seconds)
                if ok:
                    low, best = mid, result
                else:
                    high = mid
        capacity = median(bursts)
    finally:
        if trace is not None:
            trace.tracer.uninstall()
    cpu_s, wall_s = time.process_time() - cpu0, time.perf_counter() - wall0
    stats_after = state.service.batch_stats()

    report_rung, report_base, _ = rungs[0]
    p50, tail, q, n = latency_summary(_latencies(report_rung))
    # The ladder's last passing rung, at the rate the generator achieved;
    # 0 when the ladder's first rung already failed.
    max_rate = best.achieved_rps if best is not None else 0.0
    served = quality(state, ref)
    want = [ref[(r.device, r.network)] for r in report_base]
    lines = [
        f"serve-open: {REPORT_RPS:.0f} rps rung: p50 {p50:.3f} ms, p{q:g} {tail:.3f} ms (n={n}); "
        f"digest {digest(report_rung.responses)[:16]} vs reference {digest(want)[:16]}",
        "serve-open ladder: "
        + ", ".join(f"{r.rate_rps:.0f}{'+' if ok else '-'}" for r, _, ok in rungs)
        + f"; max rate {max_rate:.0f} rps (p99 <= {LIMIT_MS:g} ms); "
        f"burst capacity {capacity:.0f} rps (raw; host slowdown "
        f"{pace.slowdown if pace.samples else 1.0:.3f}); "
        f"publish+refresh p50 {median(swaps):.2f} ms (n={len(swaps)})",
        f"serve-open: nonpositive predictions {1 - served['positive_frac']:.4f} "
        "(known defect, recorded not hidden)",
    ]
    if not ctx.trace:
        metrics = {
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb(),
            "ok_frac": 1.0 - checks.failed / checks.attempted,
            "throughput_per_s": capacity * pace.slowdown,
            "p50_ms": p50,
            **served,
        }
        return Outcome(checks, metrics, lines)

    trace.tracer.check_fired(checks)
    metrics = trace.layer_metrics(stats_before, stats_after)
    metrics.update(
        {
            "tail_ms": tail,
            "serve.max_rate_rps": max_rate,
            "update_ms": median(swaps),
            "batcher.queue_wait_p50_ms": percentile(waits, 50),
            "batcher.queue_wait_p99_ms": percentile(waits, 99),
            "gen.lag_p99_ms": percentile([x for r, _, _ in rungs for x in r.lag_ms], 99),
            "service.cold_served_frac": _cold_served(report_base, report_rung.responses),
            "proc.cpu_util": cpu_s / wall_s,
            "trace.unattributed_frac": 1.0 - covered[0] / covered[1],
            "trace.overhead_frac": overhead_frac(state, ServingTrace(state).install),
        }
    )
    return Outcome(checks, metrics, lines)


def _cold_served(base: list, responses: list) -> float:
    served = [req for req, r in zip(base, responses) if r.ok]
    return sum(r.signature_ms is not None for r in served) / len(served) if served else 0.0


# -- serve-churn ---------------------------------------------------------


def run_churn(ctx: Context) -> Outcome:
    def warmup(state: Serving) -> None:
        warm = [r for r in state.requests[:2000] if r.signature_ms is None][:300]
        closed_loop(CLIENTS, 0.3, lambda i: state.service.predict(warm[i % len(warm)]))

    state, setup_s = repeated_setup(
        lambda i: build(ctx, 0.6, warmup), Serving.close, setup_repeats(ctx)
    )
    try:
        return _measure_churn(ctx, state, setup_s)
    finally:
        state.close()


def _measure_churn(ctx: Context, state: Serving, setup_s: float) -> Outcome:
    ref = reference(state)
    settle()
    service = state.service
    trace = ServingTrace(state) if ctx.trace else None
    tracer = trace.tracer if trace is not None else None
    swap = swapper(state, tracer)
    #: Devices whose ``warm_device`` has returned; a client reads it without
    #: the lock, so a device is added only once the service knows it.
    onboarded: set[str] = set()
    claimed: set[str] = set()  # devices a client has taken to onboard
    lock = threading.Lock()
    publishing = threading.Lock()  # the repository publishes one version at a time
    log: list[tuple[int, Any, float, float, Any]] = []  # (i, sent, t0, t1, response)
    swaps: list[float] = []
    joins: list[int] = []  # request index of each onboarding

    def step(i: int) -> None:
        request = state.requests[i % STREAM]
        if request.device in onboarded:
            request = dataclasses.replace(request, signature_ms=None)
        t0 = time.perf_counter()
        response = service.predict(request)
        t1 = time.perf_counter()
        log.append((i, request, t0, t1, response))
        if response.ok and request.signature_ms is not None:
            with lock:
                new = request.device not in claimed
                claimed.add(request.device)
            if new:
                with tracer.span("service.warm_device") if tracer is not None else nullcontext():
                    service.warm_device(request.device, request.signature_ms)
                onboarded.add(request.device)
                joins.append(i)
                # The collaborative repository retrains after every join:
                # one republish and refresh per onboarded device. Swaps
                # leave cyclic garbage; collecting it here keeps the peak
                # RSS from depending on where in the burst of swaps the
                # automatic collector runs (275-305 MB run to run without).
                with publishing:
                    swaps.extend(timed_swaps(swap, 1))
                    gc.collect()

    stats_before = service.batch_stats()
    cpu0 = time.process_time()
    if trace is not None:
        trace.install(trace.tracer)
    try:
        wall_s = closed_loop(CLIENTS, ctx.seconds, step)
    finally:
        if trace is not None:
            trace.tracer.uninstall()
    cpu_s = time.process_time() - cpu0
    stats_after = service.batch_stats()

    log.sort(key=lambda e: e[0])
    base = [state.requests[i % STREAM] for i, *_ in log]
    responses = [e[4] for e in log]
    checks = Checks()
    check(checks, base, responses, ref, "serve-churn answers")
    latencies = [(t1 - t0) * 1e3 for _, _, t0, t1, _ in log]
    p50, tail, q, n = latency_summary(latencies)
    served = quality(state, ref)
    lines = [
        f"serve-churn: {len(log)} requests from {CLIENTS} clients in {wall_s:.2f} s; "
        f"p50 {p50:.3f} ms, p{q:g} {tail:.3f} ms (n={n}); {len(onboarded)} devices onboarded "
        f"(last by request {max(joins, default=0)}); {len(swaps)} publish+refresh swaps, "
        f"p50 {median(swaps):.2f} ms",
        f"serve-churn: digest {digest(responses)[:16]} vs reference "
        f"{digest([ref[(r.device, r.network)] for r in base])[:16]}",
    ]
    if not ctx.trace:
        metrics = {
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb(),
            "ok_frac": 1.0 - checks.failed / checks.attempted,
            "throughput_per_s": len(log) / wall_s,
            "p50_ms": p50,
            **served,
        }
        return Outcome(checks, metrics, lines)

    trace.tracer.check_fired(checks)
    metrics = trace.layer_metrics(stats_before, stats_after)
    metrics["update_ms"] = median(swaps)
    waits, covered = trace.waits([e[2] for e in log], [e[1] for e in log])
    covered += sum(
        trace.tracer.total_s(name)
        for name in ("service.warm_device", "registry.publish", "service.refresh")
    )
    metrics.update(
        {
            "tail_ms": tail,
            "batcher.queue_wait_p50_ms": percentile(waits, 50),
            "batcher.queue_wait_p99_ms": percentile(waits, 99),
            "service.cold_served_frac": _cold_served([e[1] for e in log], responses),
            "proc.cpu_util": cpu_s / wall_s,
            "trace.unattributed_frac": 1.0 - covered / (CLIENTS * wall_s),
            "trace.overhead_frac": overhead_frac(state, ServingTrace(state).install),
        }
    )
    return Outcome(checks, metrics, lines)

