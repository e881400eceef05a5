"""Serving telemetry: counters + latency histograms for ``/metrics``.

The serving layer's observability contract is one JSON document that
stitches together every telemetry source the repo already has:

* the queue's admission counters (:meth:`~repro.serve.queue.
  BoundedRequestQueue.counters`),
* per-(kind, status) request totals,
* queue-wait and service-time histograms with exact percentile reads
  from recorded samples (bounded reservoir) plus fixed power-of-two
  bucket counts for dashboards,
* the engine's own work counters — :class:`~repro.core.counters.
  SkylineCounters` sums and extras — summed across all served
  requests.  A graph's skyline is computed once and cached, so these
  count that first computation only.

Everything is plain ints/floats/strings, so ``json.dumps`` of
:meth:`ServerMetrics.as_dict` *is* the ``/metrics`` payload.
"""

from __future__ import annotations

from collections import Counter
from typing import Optional

__all__ = ["LatencyHistogram", "ServerMetrics"]

#: Histogram bucket upper bounds, seconds (powers of two from 1 ms up).
_BUCKET_BOUNDS = tuple(0.001 * 2**i for i in range(16))  # 1ms .. ~32.8s

#: Exact-percentile reservoir size per histogram.  Serving benchmarks
#: replay thousands of requests; keeping the most recent samples gives
#: exact p50/p99 over a sliding window at trivial memory cost.
_MAX_SAMPLES = 8192


class LatencyHistogram:
    """Fixed-bucket histogram with an exact-sample percentile reservoir."""

    def __init__(self):
        self.count = 0
        self.sum = 0.0
        self.bucket_counts = [0] * (len(_BUCKET_BOUNDS) + 1)
        self._samples: list[float] = []

    def observe(self, seconds: float) -> None:
        """Record one latency sample (bucket, sum, reservoir)."""
        self.count += 1
        self.sum += seconds
        for i, bound in enumerate(_BUCKET_BOUNDS):
            if seconds <= bound:
                self.bucket_counts[i] += 1
                break
        else:
            self.bucket_counts[-1] += 1
        self._samples.append(seconds)
        if len(self._samples) > _MAX_SAMPLES:
            del self._samples[: len(self._samples) - _MAX_SAMPLES]

    def percentile(self, p: float) -> Optional[float]:
        """Exact percentile over the retained samples (``None`` if empty).

        Nearest-rank on the sorted reservoir: ``p`` in ``[0, 100]``.
        """
        if not self._samples:
            return None
        ordered = sorted(self._samples)
        rank = max(0, min(len(ordered) - 1, round(p / 100.0 * (len(ordered) - 1))))
        return ordered[rank]

    def as_dict(self) -> dict:
        """Count, sum, buckets and reservoir percentiles as plain JSON."""
        doc = {
            "count": self.count,
            "sum_s": self.sum,
            "buckets": {
                f"le_{bound:.3f}s": n
                for bound, n in zip(_BUCKET_BOUNDS, self.bucket_counts)
            },
        }
        doc["buckets"]["le_inf"] = self.bucket_counts[-1]
        for label, p in (("p50_s", 50), ("p90_s", 90), ("p99_s", 99)):
            value = self.percentile(p)
            if value is not None:
                doc[label] = value
        return doc


class ServerMetrics:
    """Aggregated serving telemetry, rendered as the ``/metrics`` body."""

    def __init__(self):
        self.requests_total: Counter = Counter()  # (kind, status) -> n
        self.queue_wait = LatencyHistogram()
        self.service_time = LatencyHistogram()
        self.engine_counters: Counter = Counter()
        self.engine_extra: Counter = Counter()
        # -- supervision / self-healing (PR 9) -------------------------
        self.engine_failures: Counter = Counter()  # (graph, kind) -> n
        self.rebuilds: Counter = Counter()  # graph -> sessions rebuilt
        self.breaker_transitions: Counter = Counter()  # (graph, old->new)
        self.degraded: Counter = Counter()  # (graph, kind) -> n
        self.injected_faults: Counter = Counter()  # (graph, kind) -> n

    # -- recording -----------------------------------------------------
    def record_request(self, kind: str, status: int) -> None:
        """Count one completed request under its kind and HTTP status."""
        self.requests_total[(kind, status)] += 1

    def record_engine_failure(self, graph: str, kind: str) -> None:
        """Count one supervised engine failure by graph and failure kind."""
        self.engine_failures[(graph, kind)] += 1

    def record_rebuild(self, graph: str) -> None:
        """Count one session teardown-and-rebuild for ``graph``."""
        self.rebuilds[graph] += 1

    def record_breaker_transition(self, graph: str, old: str, new: str) -> None:
        """Count one circuit-breaker state transition for ``graph``."""
        self.breaker_transitions[(graph, f"{old}->{new}")] += 1

    def record_degraded(self, graph: str, kind: str) -> None:
        """Count one query answered from the degraded path (open breaker)."""
        self.degraded[(graph, kind)] += 1

    def record_injected_fault(self, graph: str, kind: str) -> None:
        """Count one chaos-plan fault performed on the engine thread."""
        self.injected_faults[(graph, kind)] += 1

    def absorb_engine_counters(self, counters) -> None:
        """Fold one call's :class:`SkylineCounters` into the totals.

        Numeric ``extra`` values are summed; flags and other
        non-numeric extras are counted by value so the surface stays
        JSON-able.
        """
        if counters is None:
            return
        for key, value in counters.as_dict().items():
            self.engine_counters[key] += value
        for key, value in getattr(counters, "extra", {}).items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                self.engine_extra[key] += value
            else:
                self.engine_extra[f"{key}={value}"] += 1

    # -- rendering -----------------------------------------------------
    def as_dict(self, *, queue_counters: Optional[dict] = None) -> dict:
        """The full /metrics document (requests/queue/latency/engine)."""
        requests = {}
        for (kind, status), n in sorted(self.requests_total.items()):
            requests.setdefault(kind, {})[str(status)] = n
        return {
            "requests": requests,
            "queue": dict(queue_counters or {}),
            "queue_wait": self.queue_wait.as_dict(),
            "service_time": self.service_time.as_dict(),
            "engine": {
                "counters": dict(sorted(self.engine_counters.items())),
                "extra": dict(sorted(self.engine_extra.items())),
            },
            "supervision": {
                "engine_failures": {
                    f"{graph}:{kind}": n
                    for (graph, kind), n in sorted(
                        self.engine_failures.items()
                    )
                },
                "rebuilds": dict(sorted(self.rebuilds.items())),
                "breaker_transitions": {
                    f"{graph}:{edge}": n
                    for (graph, edge), n in sorted(
                        self.breaker_transitions.items()
                    )
                },
                "degraded": {
                    f"{graph}:{kind}": n
                    for (graph, kind), n in sorted(self.degraded.items())
                },
                "injected_faults": {
                    f"{graph}:{kind}": n
                    for (graph, kind), n in sorted(
                        self.injected_faults.items()
                    )
                },
            },
        }
