"""The benchmark's own arithmetic: percentiles, failure accounting and
the closed loop that collects the samples."""

import math
import statistics
import time

#: A percentile is reported only when at least this many samples lie
#: beyond it; fewer would let one outlier set it.
MIN_BEYOND = 10


def rank(n, q):
    """Nearest-rank position (1-based) of percentile ``q`` of ``n``."""
    return max(1, math.ceil(q / 100.0 * n))


def beyond(n, q):
    """How many of ``n`` samples lie beyond percentile ``q``."""
    return n - rank(n, q)


def percentile(samples, q):
    """Nearest-rank percentile, or None when fewer than
    ``MIN_BEYOND`` samples lie beyond it."""
    n = len(samples)
    if n == 0 or beyond(n, q) < MIN_BEYOND:
        return None
    return sorted(samples)[rank(n, q) - 1]


def min_samples(q):
    """The smallest sample count that supports percentile ``q``."""
    n = 1
    while beyond(n, q) < MIN_BEYOND:
        n += 1
    return n


class Tally:
    """Attempted and failed ops, with the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = {}

    def ok(self, count=1):
        self.attempted += count

    def fail(self, reason, count=1):
        self.attempted += count
        self.failed += count
        self.reasons[reason] = self.reasons.get(reason, 0) + count

    def as_json(self):
        return {"attempted": self.attempted, "failed": self.failed,
                "reasons": dict(self.reasons)}

    def merge(self, counts):
        """Add another tally's ``as_json()`` counts to this one."""
        self.attempted += counts["attempted"]
        self.failed += counts["failed"]
        for reason, count in counts["reasons"].items():
            self.reasons[reason] = self.reasons.get(reason, 0) + count

    @property
    def error_rate(self):
        return self.failed / self.attempted if self.attempted else 0.0


def median(values):
    """The median, or 0 when there are no values."""
    return statistics.median(values) if values else 0.0


def closed_loop(op, seconds, min_ops, hard_stop_s,
                exhausted=lambda: False):
    """Run ``op`` back to back for ``seconds`` and at least ``min_ops``
    times (never past ``hard_stop_s``); ``op`` returns its latency.
    Returns (latencies, wall seconds)."""
    latencies = []
    start = time.perf_counter()
    deadline = start + seconds
    while not exhausted():
        now = time.perf_counter()
        if (now >= deadline and len(latencies) >= min_ops) \
                or now - start > hard_stop_s:
            break
        latencies.append(op())
    return latencies, time.perf_counter() - start
