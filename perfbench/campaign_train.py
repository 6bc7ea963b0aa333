"""The ``campaign-train`` workload: measure a fleet, fit, publish.

Uncached measurement campaigns of ``build_fleet(1000)`` x
``BenchmarkSuite.default(n_random=200)`` (218k cells each, serial
backend) and a :class:`~repro.core.collaborative.CollaborativeRepository`
(signature 10) over the first campaign that 105 members join at 50%
contribution, which trains and publishes to a fresh registry. Campaigns
and fits interleave: campaign, fit, campaigns, re-fit, campaigns.

The fleet, suite and membership are fixed (seed 0), so every run does
the same work and trains the same kind of model; the workload seed
draws the measurement noise of every campaign. Each campaign measures
a freshly built suite under its own noise seed, so no memo of an
earlier campaign is reused.

Held-out accuracy is scored outside the timed span on the 895
non-member devices, over their non-signature networks (the paper's
unseen-device protocol).

Checks: the campaign matrix on a seeded device subset equals the frozen
``benchmarks/legacy_engine.py`` byte for byte, every cell is finite,
and re-training on the same inputs publishes the same checkpoint digest.
"""

from __future__ import annotations

import tempfile
import time
import tracemalloc
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any

import numpy as np

from perfbench.common import Checks, Context, HostPace, Outcome, accuracy, median, peak_rss_mb
from perfbench.common import repeated_setup, settle, setup_repeats
from perfbench.tracing import Tracer

#: Seed of the fleet, suite, signature tie-breaking and membership.
STRUCTURE_SEED = 0
#: Campaigns per run for each 10 s of ``--seconds`` (at least two). An
#: untraced run also fits twice: after the first campaign and, as a re-fit
#: of the same inputs that checks the digest, after the middle one.
CAMPAIGNS_PER_10S = 6
N_DEVICES = 1000
N_RANDOM = 200
MEMBERS = 105
CONTRIBUTION = 0.5
SIGNATURE = 10
#: Devices per collector call, as a sharded campaign calls it.
BATCH = 100
#: Devices re-measured by the frozen legacy engine.
ORACLE_DEVICES = 16
#: Devices of the small campaign whose peak traced allocation gives bytes/cell.
MEMORY_DEVICES = 100


@dataclass
class Campaign:
    """One timed campaign and what it measured."""

    suite: Any
    fleet: Any
    harness: Any
    dataset: Any
    seconds: float
    batch_rates: list[float]  # cells/s of each collector call


@dataclass
class Trained:
    """One timed select-join-fit-publish cycle over a campaign's matrix."""

    members: list[str]
    repo: Any
    registry: Any
    checkpoint: Any
    seconds: float


def build(ctx: Context) -> tuple[Any, float]:
    """Fleet construction, the suite's training encoding, and a small warm-up.

    The suite encoding is content-memoized by the program, so every timed
    fit (the first and the re-fits) reuses it; the first set-up pays it.
    """
    from repro.core.representation import shared_encoded_suite
    from repro.devices.catalog import DeviceFleet, build_fleet

    start = time.perf_counter()
    fleet = build_fleet(N_DEVICES, seed=STRUCTURE_SEED)
    shared_encoded_suite(list(_suite()))
    warm = _campaign(_suite(n_random=10), DeviceFleet(list(fleet)[:24]), ctx.seed)
    _train(ctx, warm, members=12)
    return fleet, time.perf_counter() - start


def _suite(n_random: int = N_RANDOM):
    from repro.generator.suite import BenchmarkSuite

    return BenchmarkSuite.default(n_random=n_random, seed=STRUCTURE_SEED)


def _campaign(
    suite, fleet, noise_seed: int, tracer: Tracer | None = None, pace: HostPace | None = None
) -> Campaign:
    """One uncached, serial campaign in device batches, each batch timed.

    The collector is called once per batch of ``BATCH`` devices, as a
    sharded campaign calls it; a cell's measurement depends only on its
    device, network and the harness seed, so the assembled matrix is the
    whole-fleet campaign's. ``pace`` is sampled after each batch.
    """
    from repro.dataset.collection import collect_dataset
    from repro.dataset.dataset import LatencyDataset
    from repro.devices.catalog import DeviceFleet
    from repro.devices.measurement import MeasurementHarness

    settle()
    harness = MeasurementHarness(seed=noise_seed)
    devices = list(fleet)
    parts, rates, seconds = [], [], 0.0
    with tracer.span("collection.collect") if tracer is not None else nullcontext():
        for lo in range(0, len(devices), BATCH):
            start = time.perf_counter()
            batch = DeviceFleet(devices[lo : lo + BATCH])
            parts.append(collect_dataset(suite, batch, harness, backend="serial", jobs=1))
            elapsed = time.perf_counter() - start
            rates.append(parts[-1].latencies_ms.size / elapsed)
            seconds += elapsed
            if pace is not None:
                pace.sample()
    dataset = LatencyDataset(
        np.vstack([part.latencies_ms for part in parts]),
        [name for part in parts for name in part.device_names],
        parts[0].network_names,
    )
    return Campaign(suite, fleet, harness, dataset, seconds, rates)


def _train(ctx: Context, campaign: Campaign, *, members: int = MEMBERS, tracer=None) -> Trained:
    """Signature selection, joins, fit and publish to a fresh registry (timed)."""
    from repro.core.collaborative import CollaborativeRepository
    from repro.serve import ModelRegistry

    span = tracer.span if tracer is not None else nullcontext
    settle()
    registry = ModelRegistry(tempfile.mkdtemp(prefix="registry-", dir=ctx.workdir))
    start = time.perf_counter()
    with span("collab.init"):
        repo = CollaborativeRepository(
            campaign.dataset, campaign.suite, signature_size=SIGNATURE, seed=STRUCTURE_SEED
        )
    chosen = _members(repo, campaign.dataset, members)
    with span("collab.join"):
        for device in chosen:
            repo.join(device, CONTRIBUTION)
    with span("collab.publish"):
        checkpoint = repo.publish_checkpoint(registry)
    return Trained(chosen, repo, registry, checkpoint, time.perf_counter() - start)


def _members(repo, dataset, count: int) -> list[str]:
    eligible = [d for d in dataset.device_names if repo.device_has_signature(d)]
    picks = np.random.default_rng(STRUCTURE_SEED).choice(len(eligible), size=count, replace=False)
    return [eligible[i] for i in sorted(picks)]


def run(ctx: Context) -> Outcome:
    fleet, setup_s = repeated_setup(lambda i: build(ctx), lambda s: None, setup_repeats(ctx))
    n_campaigns = max(2, round(CAMPAIGNS_PER_10S * ctx.seconds / 10))
    checks = Checks()
    tracer = Tracer() if ctx.trace else None
    pace = HostPace()
    # Only the first campaign is kept (the fits and the holdout use it);
    # each later one is checked as soon as it is measured, then dropped.
    campaign_ms: list[float] = []
    rates: list[float] = []
    cells = [0]

    def record(campaign: Campaign) -> Campaign:
        campaign_ms.append(campaign.seconds * 1e3)
        rates.extend(campaign.batch_rates)
        cells[0] += campaign.dataset.latencies_ms.size
        _check_campaign(campaign, checks)
        return campaign

    def measure(k: int) -> Campaign:
        return record(_campaign(_suite(), fleet, ctx.seed * 1000 + k, tracer, pace))

    refits: list[Trained] = []
    if not ctx.trace:
        # Campaigns and fits interleave (campaign, fit, campaigns, re-fit,
        # campaigns), so each median samples the whole run rather than one
        # stretch of a host whose speed drifts.
        fitted = measure(0)
        trained = _train(ctx, fitted)
        for k in range(1, n_campaigns):
            measure(k)
            if k == n_campaigns // 2:
                refits.append(_refit(ctx, fitted, trained))
    else:
        plain = _campaign(_suite(), fleet, ctx.seed * 1000 - 1)
        plain_s = plain.seconds + _train(ctx, plain).seconds
        del plain
        with tracer.installed(_install):
            cpu0, wall0 = time.process_time(), time.perf_counter()
            fitted = _campaign(_suite(), fleet, ctx.seed * 1000, tracer)
            trained = _train(ctx, fitted, tracer=tracer)
            cpu_s, wall_s = time.process_time() - cpu0, time.perf_counter() - wall0
        record(fitted)
        refits.append(_refit(ctx, fitted, trained))
    for refit in refits:
        checks.expect(
            refit.checkpoint.digest == trained.checkpoint.digest,
            "checkpoint digest repeats for the seed",
        )
    if ctx.trace:
        tracer.check_fired(checks)
    fit_ms = [t.seconds * 1e3 for t in (trained, *refits)]
    quality = _holdout(fitted, trained)

    # Every cell over every campaign second: the campaigns are spread over
    # the run, so this averages the host's speed over most of it, which is
    # steadier than a median of batches or of whole campaigns on a host
    # whose speed swings for seconds at a time.
    cells_per_s = cells[0] / (sum(campaign_ms) / 1e3)
    # The operator's wait from starting a campaign to a published model:
    # a typical campaign plus a typical select-join-fit-publish.
    cycle_ms = median(campaign_ms) + median(fit_ms)
    lines = [
        f"campaign-train: {len(campaign_ms)} campaign(s) of {N_DEVICES} devices x "
        f"{len(fitted.suite)} networks (raw; host slowdown "
        f"{pace.slowdown if pace.samples else 1.0:.3f}): {cells_per_s:.0f} cells/s; batch median "
        f"{median(rates):.0f}, max {max(rates):.0f} (n={len(rates)} batches of {BATCH} devices); "
        "campaign p50 "
        f"{median(campaign_ms):.0f} ms, max {max(campaign_ms):.0f} ms (n={len(campaign_ms)}); "
        "select+join+fit+publish " + ", ".join(f"{ms / 1e3:.2f}" for ms in fit_ms) + " s; "
        f"campaign-to-publish {cycle_ms:.0f} ms",
        f"campaign-train: holdout on {N_DEVICES - MEMBERS} non-member devices: "
        f"r2 {quality['r2']:.4f}, within 10% {quality['within10_frac']:.4f}, "
        f"positive {quality['positive_frac']:.4f}; checkpoint {trained.checkpoint.digest[:16]} "
        "re-fits " + ", ".join(r.checkpoint.digest[:16] for r in refits),
    ]
    if not ctx.trace:
        metrics = {
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb(),
            "ok_frac": 1.0 - checks.failed / checks.attempted,
            "throughput_per_s": cells_per_s * pace.slowdown,
            "p50_ms": cycle_ms / pace.slowdown,
            **quality,
        }
        return Outcome(checks, metrics, lines)

    t = tracer
    covered = sum(
        t.total_s(name)
        for name in ("collection.collect", "collab.init", "collab.join", "collab.publish")
    )
    metrics = {
        "tail_ms": campaign_ms[0] + fit_ms[0],
        "update_ms": median(fit_ms),
        "collection.collect_s": t.total_s("collection.collect"),
        "noise.cell_seeds_s": t.total_s("noise.cell_seeds"),
        "noise.state_table_s": t.total_s("noise.state_table"),
        "latency.tile_s": t.total_s("latency.tile"),
        "measurement.tile_self_s": t.self_s("measurement.tile"),
        "flops.network_work_s": t.total_s("flops.network_work"),
        "collection.bytes_per_cell": _bytes_per_cell(fitted),
        "signature.select_s": t.total_s("signature.select"),
        "collab.join_s": t.total_s("collab.join"),
        "collab.train_s": t.total_s("collab.train"),
        "binning.quantize_s": t.total_s("binning.quantize"),
        "gbt.fit_s": t.total_s("gbt.fit"),
        "registry.publish_p50_ms": t.p50_ms("registry.publish"),
        "proc.cpu_util": cpu_s / wall_s,
        "trace.unattributed_frac": 1.0 - covered / wall_s,
        "trace.overhead_frac": (fitted.seconds + trained.seconds) / plain_s - 1.0,
    }
    return Outcome(checks, metrics, lines)


def _install(tracer: Tracer) -> None:
    import repro.core.collaborative as collaborative
    import repro.devices.noise as noise
    import repro.generator.suite as suite_mod
    import repro.ml.gbt as gbt
    from repro.core.collaborative import CollaborativeRepository
    from repro.devices.latency import LatencyModel
    from repro.devices.measurement import MeasurementHarness
    from repro.serve import ModelRegistry

    tracer.wrap(noise, "cell_seeds", "noise.cell_seeds")
    tracer.wrap(noise, "pcg64_state_table", "noise.state_table")
    tracer.wrap(LatencyModel, "network_seconds_tile", "latency.tile")
    tracer.wrap(MeasurementHarness, "measure_tile_ms", "measurement.tile")
    tracer.wrap(suite_mod, "network_work", "flops.network_work")
    tracer.wrap(collaborative, "select_signature_set", "signature.select")
    tracer.wrap(CollaborativeRepository, "train", "collab.train")
    tracer.wrap(gbt, "fit_bin_edges", "binning.quantize")
    tracer.wrap(gbt, "apply_bin_edges", "binning.quantize")
    tracer.wrap(gbt.GradientBoostedTrees, "fit_binned", "gbt.fit")
    tracer.wrap(ModelRegistry, "publish", "registry.publish")


def _check_campaign(campaign: Campaign, checks: Checks) -> None:
    """Every cell is finite, and a device subset re-measured by the frozen
    legacy engine matches byte for byte."""
    from benchmarks.legacy_engine import legacy_collect_engine
    from repro.devices.catalog import DeviceFleet

    cells = campaign.dataset.latencies_ms
    checks.add(cells.size, int(np.count_nonzero(~np.isfinite(cells))), "campaign cells finite")
    names = campaign.dataset.device_names
    rng = np.random.default_rng(campaign.harness.seed)
    picks = sorted(rng.choice(len(names), ORACLE_DEVICES, replace=False))
    subset = DeviceFleet([campaign.fleet[names[i]] for i in picks])
    frozen = legacy_collect_engine(campaign.suite, subset, campaign.harness)
    rows = campaign.dataset.latencies_ms[picks]
    checks.add(rows.size, int(np.count_nonzero(frozen != rows)), "campaign vs legacy engine")


def _refit(ctx: Context, campaign: Campaign, trained: Trained) -> Trained:
    """Select, join, fit and publish again from the same inputs, with cold memos."""
    from repro.core.signature import clear_selection_memos

    clear_selection_memos()
    return _train(ctx, campaign, members=len(trained.members))


def _holdout(campaign: Campaign, trained: Trained) -> dict[str, float]:
    """Accuracy on the non-member devices' non-signature networks."""
    from repro.ml.binning import apply_bin_edges

    model = trained.registry.load(trained.checkpoint)
    regressor = model.regressor
    edges = regressor.bin_edges
    width = model.network_encoder.width
    dataset = campaign.dataset
    networks = [n for n in dataset.network_names if n not in set(trained.repo.signature_names)]
    cols = [dataset.network_index(n) for n in networks]
    enc = trained.repo.encoded_suite
    net_codes = apply_bin_edges(enc.matrix[[enc.row_index(n) for n in networks]], edges[:width])
    members = set(trained.members)
    holdout = [d for d in dataset.device_names if d not in members]
    hw = np.stack([model.hardware_encoder.encode_from_dataset(dataset, d) for d in holdout])
    hw_codes = apply_bin_edges(hw, edges[width:])
    pred = np.concatenate([regressor.predict_block(net_codes, row) for row in hw_codes])
    true = np.concatenate(
        [dataset.latencies_ms[dataset.device_index(d), cols] for d in holdout]
    )
    return accuracy(pred, true)


def _bytes_per_cell(campaign: Campaign) -> float:
    """Peak traced allocation of a small campaign, per cell (traced run only)."""
    from repro.dataset.collection import collect_dataset
    from repro.devices.catalog import DeviceFleet
    from repro.devices.measurement import MeasurementHarness

    names = campaign.dataset.device_names[:MEMORY_DEVICES]
    fleet = DeviceFleet([campaign.fleet[d] for d in names])
    tracemalloc.start()
    try:
        data = collect_dataset(
            campaign.suite, fleet, MeasurementHarness(seed=campaign.harness.seed + 1)
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / data.latencies_ms.size
