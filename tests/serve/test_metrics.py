"""Unit tests for the serving telemetry surface."""

from __future__ import annotations

from repro.core.counters import SkylineCounters
from repro.serve.metrics import LatencyHistogram, ServerMetrics


def test_histogram_counts_sum_and_percentiles():
    histogram = LatencyHistogram()
    for ms in range(1, 101):  # 1ms .. 100ms
        histogram.observe(ms / 1000.0)
    assert histogram.count == 100
    assert abs(histogram.sum - sum(range(1, 101)) / 1000.0) < 1e-9
    assert abs(histogram.percentile(50) - 0.050) < 0.002
    assert abs(histogram.percentile(99) - 0.099) < 0.002
    doc = histogram.as_dict()
    assert doc["count"] == 100
    assert sum(doc["buckets"].values()) == 100
    assert "p99_s" in doc and "p50_s" in doc


def test_histogram_empty_percentile_is_none():
    histogram = LatencyHistogram()
    assert histogram.percentile(99) is None
    assert "p99_s" not in histogram.as_dict()


def test_histogram_overflow_bucket():
    histogram = LatencyHistogram()
    histogram.observe(1000.0)  # way past the largest bound
    assert histogram.as_dict()["buckets"]["le_inf"] == 1


def test_server_metrics_request_accounting():
    metrics = ServerMetrics()
    metrics.record_request("skyline", 200)
    metrics.record_request("skyline", 200)
    metrics.record_request("group", 429)
    doc = metrics.as_dict(queue_counters={"depth": 1})
    assert doc["requests"] == {
        "skyline": {"200": 2},
        "group": {"429": 1},
    }
    assert doc["queue"] == {"depth": 1}


def test_absorb_engine_counters_sums_and_labels():
    metrics = ServerMetrics()
    first = SkylineCounters()
    first.pair_tests = 5
    first.extra["filter_pretest_rejects"] = 2
    first.extra["kernel"] = "block"
    second = SkylineCounters()
    second.pair_tests = 7
    second.extra["filter_pretest_rejects"] = 1
    second.extra["kernel"] = "block"
    metrics.absorb_engine_counters(first)
    metrics.absorb_engine_counters(second)
    metrics.absorb_engine_counters(None)  # tolerated no-op
    engine = metrics.as_dict()["engine"]
    assert engine["counters"]["pair_tests"] == 12
    assert engine["extra"]["filter_pretest_rejects"] == 3
    assert engine["extra"]["kernel=block"] == 2


def test_metrics_document_is_json_serializable():
    import json

    metrics = ServerMetrics()
    metrics.record_request("clique", 200)
    metrics.queue_wait.observe(0.004)
    counters = SkylineCounters()
    counters.extra["density_fallback"] = True
    metrics.absorb_engine_counters(counters)
    json.dumps(metrics.as_dict(queue_counters={"depth": 0}))
