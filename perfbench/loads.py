"""The benchmark's own load generators.

``open_loop`` releases requests from one generator thread on a seeded
Poisson schedule and times each request from its *scheduled* send time,
so a generator stall counts against every request it delays; it also
records how late the generator ran. (``repro.serve.loadgen._run_open``
times from ``submit()`` instead, which hides such stalls.)

``closed_loop`` runs client threads that each wait for an answer before
sending their next request.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import Any

import numpy as np


@dataclass
class OpenRung:
    """One open-loop rung: offered rate, per-request timings and answers."""

    rate_rps: float
    responses: list[Any]
    scheduled: np.ndarray  # absolute perf_counter send times
    submitted: np.ndarray  # absolute perf_counter times submit() was called
    latency_ms: np.ndarray  # answer time - scheduled time
    lag_ms: np.ndarray  # submit time - scheduled time

    @property
    def drawn_rps(self) -> float:
        """The rate the Poisson schedule drew: requests over first-to-last scheduled send."""
        return _rate(self.scheduled)

    @property
    def achieved_rps(self) -> float:
        """The rate the generator sent at: requests over first-to-last actual submit."""
        return _rate(self.submitted)


def _rate(times: np.ndarray) -> float:
    span = float(times[-1] - times[0]) if len(times) > 1 else 0.0
    return (len(times) - 1) / span if span > 0 else 0.0


def open_loop(
    submit: Callable[[Any], Any],
    requests: Sequence[Any],
    rate_rps: float,
    seed: tuple[int, ...],
) -> OpenRung:
    """Offer ``requests`` at a Poisson ``rate_rps`` and wait for every answer."""
    n = len(requests)
    gaps = np.random.default_rng(seed).exponential(1.0 / rate_rps, size=n)
    offsets = np.cumsum(gaps) - gaps[0]
    done = np.zeros(n)
    submitted = np.zeros(n)
    futures = []
    clock = time.perf_counter
    start = clock() + 0.002
    scheduled = start + offsets
    for i in range(n):
        delay = scheduled[i] - clock()
        if delay > 0:
            time.sleep(delay)
        submitted[i] = clock()
        future = submit(requests[i])
        future.add_done_callback(lambda _f, i=i: done.__setitem__(i, clock()))
        futures.append(future)
    responses = [f.result() for f in futures]
    return OpenRung(
        rate_rps=rate_rps,
        responses=responses,
        scheduled=scheduled,
        submitted=submitted,
        latency_ms=(done - scheduled) * 1e3,
        lag_ms=(submitted - scheduled) * 1e3,
    )


def closed_loop(
    clients: int,
    seconds: float,
    step: Callable[[int], None],
) -> float:
    """Run ``clients`` threads calling ``step(i)`` with a shared, increasing ``i``.

    Each thread takes the next index and calls ``step`` until ``seconds``
    have passed. Returns the wall time from start until the last thread
    finished. ``step`` exceptions propagate to the caller.
    """
    lock = threading.Lock()
    counter = [0]
    errors: list[BaseException] = []
    deadline = time.perf_counter() + seconds

    def client() -> None:
        while time.perf_counter() < deadline and not errors:
            with lock:
                i = counter[0]
                counter[0] += 1
            try:
                step(i)
            except BaseException as exc:  # noqa: BLE001 - re-raised in the caller
                errors.append(exc)
                return

    threads = [
        threading.Thread(target=client, name=f"perfbench-client-{k}") for k in range(clients)
    ]
    start = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - start
    if errors:
        raise errors[0]
    return wall
