"""Open-loop load generation against the resilient serving tier.

An *open-loop* generator schedules request arrivals on the wall clock
(``i / rate`` seconds after start) regardless of how fast the server is
answering — unlike a closed loop, a slow server cannot throttle its own
load, which is what exposes queueing collapse, overload rejection and
tail latency.  This is the measurement shape behind
``repro serve-demo --resilient`` and its CI smoke: p50/p99 latency and
success rate, with and without injected faults.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.errors import (
    DeadlineExceededError,
    OverloadedError,
    ReproError,
)
from repro.serve.server import ResilientCongestionServer
from repro.serve.service import PredictRequest


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile over pre-sorted values."""
    if not sorted_values:
        return 0.0
    rank = max(0, min(len(sorted_values) - 1,
                      round(q / 100 * (len(sorted_values) - 1))))
    return sorted_values[rank]


@dataclass
class LoadReport:
    """Outcome of one open-loop run."""

    offered: int = 0
    succeeded: int = 0
    degraded: int = 0
    rejected_overload: int = 0
    deadline_misses: int = 0
    other_failures: int = 0
    duration_s: float = 0.0
    offered_rate_per_s: float = 0.0
    #: seconds from submit to future resolution, successes only
    latencies_s: list[float] = field(default_factory=list)

    @property
    def completed_rate_per_s(self) -> float:
        return self.succeeded / self.duration_s if self.duration_s else 0.0

    @property
    def success_rate(self) -> float:
        return self.succeeded / self.offered if self.offered else 0.0

    def summary(self) -> dict:
        latencies = sorted(self.latencies_s)
        return {
            "offered": self.offered,
            "succeeded": self.succeeded,
            "degraded": self.degraded,
            "rejected_overload": self.rejected_overload,
            "deadline_misses": self.deadline_misses,
            "other_failures": self.other_failures,
            "success_rate": round(self.success_rate, 4),
            "duration_s": round(self.duration_s, 6),
            "offered_rate_per_s": round(self.offered_rate_per_s, 2),
            "completed_rate_per_s": round(self.completed_rate_per_s, 2),
            "latency_ms": {
                "p50": round(1e3 * percentile(latencies, 50), 3),
                "p90": round(1e3 * percentile(latencies, 90), 3),
                "p99": round(1e3 * percentile(latencies, 99), 3),
                "max": round(1e3 * latencies[-1], 3) if latencies else 0.0,
            },
        }


def run_open_loop(
    server: ResilientCongestionServer,
    requests: list[PredictRequest],
    *,
    rate_per_s: float,
    timeout_s: float | None = None,
    collect_timeout_s: float = 60.0,
) -> LoadReport:
    """Offer ``requests`` at ``rate_per_s`` and collect every outcome.

    Every submitted future is awaited (bounded by
    ``collect_timeout_s``), so the report accounts for 100% of offered
    load: success, degraded success, overload rejection, deadline miss
    or other typed failure — a hang would fail the run, not stall it
    silently.
    """
    if rate_per_s <= 0:
        raise ValueError(f"rate_per_s must be positive, got {rate_per_s}")
    report = LoadReport(offered=len(requests))
    inflight: list[tuple[float, object]] = []
    completed_at: dict[int, float] = {}

    start = time.monotonic()
    for i, request in enumerate(requests):
        target = start + i / rate_per_s
        delay = target - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        submitted = time.monotonic()
        try:
            future = server.submit(request, timeout_s=timeout_s)
        except OverloadedError:
            report.rejected_overload += 1
            continue
        key = len(inflight)
        future.add_done_callback(
            lambda _f, key=key: completed_at.__setitem__(
                key, time.monotonic()
            )
        )
        inflight.append((submitted, future))

    for key, (submitted, future) in enumerate(inflight):
        try:
            response = future.result(timeout=collect_timeout_s)
        except DeadlineExceededError:
            report.deadline_misses += 1
            continue
        except ReproError:
            report.other_failures += 1
            continue
        report.succeeded += 1
        if response.degraded:
            report.degraded += 1
        finished = completed_at.get(key, time.monotonic())
        report.latencies_s.append(finished - submitted)

    report.duration_s = time.monotonic() - start
    report.offered_rate_per_s = rate_per_s
    return report
