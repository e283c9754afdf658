"""Unit tests for the metrics registry."""

import pytest

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry


class TestCounter:
    def test_inc(self):
        c = Counter("reqs")
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_inc_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter("reqs").inc(-1)


class TestGauge:
    def test_set_and_add(self):
        g = Gauge("occupancy")
        g.add(10)
        g.add(-3)
        assert g.value == 7


class TestHistogram:
    def test_bucketing(self):
        h = Histogram("lat", boundaries=[1, 10, 100])
        for v in (0, 1, 5, 50, 1000):
            h.observe(v)
        snap = h.snapshot()
        assert snap["buckets"]["le=1"] == 2  # 0 and 1
        assert snap["buckets"]["le=10"] == 1  # 5
        assert snap["buckets"]["le=100"] == 1  # 50
        assert snap["buckets"]["le=+Inf"] == 1  # 1000
        assert snap["count"] == 5
        assert snap["sum"] == pytest.approx(1056)

    def test_boundaries_must_ascend(self):
        with pytest.raises(ValueError):
            Histogram("lat", boundaries=[10, 5])

    def test_boundaries_required(self):
        with pytest.raises(ValueError):
            Histogram("lat", boundaries=[])


class TestRegistry:
    def test_get_or_create_returns_same_handle(self):
        registry = MetricsRegistry()
        a = registry.counter("sim.macs")
        b = registry.counter("sim.macs")
        assert a is b
        a.inc()
        assert b.value == 1

    def test_kind_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError):
            registry.gauge("x")
        with pytest.raises(ValueError):
            registry.histogram("x", [1])


class TestHistogramQuantile:
    def test_empty_histogram_is_zero(self):
        hist = Histogram("h", boundaries=[1, 2, 4])
        assert hist.quantile(0.5) == 0.0

    def test_out_of_range_rejected(self):
        hist = Histogram("h", boundaries=[1])
        with pytest.raises(ValueError):
            hist.quantile(-0.1)
        with pytest.raises(ValueError):
            hist.quantile(1.1)

    def test_interpolates_within_bucket(self):
        hist = Histogram("h", boundaries=[10, 20, 30])
        for value in (5, 15, 25, 28):
            hist.observe(value)
        # rank 2 of 4 lands at the top of the (10, 20] bucket.
        assert hist.quantile(0.5) == pytest.approx(20.0)
        assert 0.0 < hist.quantile(0.25) <= 10.0
        assert 20.0 < hist.quantile(0.9) <= 30.0

    def test_overflow_clamps_to_last_boundary(self):
        hist = Histogram("h", boundaries=[1, 2])
        hist.observe(100)
        assert hist.quantile(0.99) == 2.0

    def test_monotone_in_q(self):
        hist = Histogram("h", boundaries=[0.001, 0.01, 0.1, 1.0, 10.0])
        for value in (0.005, 0.005, 0.02, 0.3, 0.3, 0.3, 2.0, 15.0):
            hist.observe(value)
        quantiles = [hist.quantile(q / 10) for q in range(11)]
        assert quantiles == sorted(quantiles)


class TestSnapshot:
    def test_snapshot_decouples_from_live_metrics(self):
        registry = MetricsRegistry()
        counter = registry.counter("serve.requests")
        counter.inc(3)
        view = registry.snapshot()
        counter.inc(5)
        assert view["serve.requests"] == 3
        assert registry.snapshot()["serve.requests"] == 8

    def test_prefix_filters_by_metric_name(self):
        registry = MetricsRegistry()
        registry.counter("serve.requests").inc()
        registry.counter("exec.cache.hits").inc()
        registry.gauge("serve.queue_depth").add(2)
        view = registry.snapshot(prefix="serve.")
        assert list(view) == ["serve.queue_depth", "serve.requests"]

    def test_snapshot_includes_histogram_structure(self):
        registry = MetricsRegistry()
        registry.histogram("lat", boundaries=[1, 2]).observe(1.5)
        view = registry.snapshot()
        assert view["lat"]["count"] == 1
        assert view["lat"]["buckets"]["le=2"] == 1
