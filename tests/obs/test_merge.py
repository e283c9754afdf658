"""Tests for cross-process merge support in the observability primitives."""

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import Profiler
from repro.obs.trace import Tracer


class TestProfilerMerge:
    def test_merge_accumulates(self):
        a = Profiler(enabled=True)
        b = Profiler(enabled=True)
        a.record("compile", 0.5)
        b.record("compile", 0.25)
        b.record("simulate", 1.0)
        a.merge(b)
        records = {r.label: r for r in a.records()}
        assert records["compile"].calls == 2
        assert records["compile"].total_s == pytest.approx(0.75)
        assert records["compile"].min_s == pytest.approx(0.25)
        assert records["compile"].max_s == pytest.approx(0.5)
        assert records["simulate"].calls == 1

    def test_merge_into_empty(self):
        a = Profiler()
        b = Profiler(enabled=True)
        b.record("x", 0.1)
        a.merge(b)
        assert len(a) == 1

    def test_source_unchanged(self):
        a = Profiler(enabled=True)
        b = Profiler(enabled=True)
        b.record("x", 0.1)
        a.merge(b)
        a.record("x", 0.2)
        assert {r.label: r.calls for r in b.records()} == {"x": 1}


class TestTracerMerge:
    def test_merge_appends_events_and_dropped(self):
        a = Tracer(enabled=True)
        b = Tracer(capacity=2, enabled=True)
        a.instant("parent", component="t", cycle=0)
        for i in range(3):  # overflows b's capacity: 1 drop
            b.instant(f"child{i}", component="t", cycle=i)
        a.merge(b)
        names = [e.name for e in a.events()]
        assert names == ["parent", "child1", "child2"]
        assert a.dropped == 1

    def test_merge_respects_destination_capacity(self):
        a = Tracer(capacity=2, enabled=True)
        b = Tracer(enabled=True)
        for i in range(3):
            b.instant(f"e{i}", component="t", cycle=i)
        a.merge(b)
        assert len(a) == 2
        assert a.dropped == 1


class TestRegistryMerge:
    def test_counters_add(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("hits").inc(2)
        b.counter("hits").inc(3)
        b.counter("misses").inc(1)
        a.merge(b)
        assert a.counter("hits").value == 5
        assert a.counter("misses").value == 1

    def test_gauges_take_latest(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.gauge("depth").add(4)
        b.gauge("depth").add(9)
        a.merge(b)
        assert a.gauge("depth").value == 9

    def test_histograms_add_buckets(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        boundaries = (1.0, 10.0)
        a.histogram("lat", boundaries).observe(0.5)
        b.histogram("lat", boundaries).observe(5.0)
        b.histogram("lat", boundaries).observe(50.0)
        a.merge(b)
        merged = a.histogram("lat", boundaries)
        assert merged.count == 3
        assert merged.sum == pytest.approx(55.5)
        assert merged.bucket_counts == [1, 1, 1]

    def test_histogram_boundary_mismatch_rejected(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.histogram("lat", (1.0,)).observe(0.5)
        b.histogram("lat", (2.0,)).observe(0.5)
        with pytest.raises(ValueError, match="boundary mismatch"):
            a.merge(b)

    def test_kind_mismatch_rejected(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("x").inc()
        b.gauge("x").add(1)
        with pytest.raises(ValueError, match="cannot merge"):
            a.merge(b)

    def test_merge_source_unchanged(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        b.counter("hits").inc(3)
        a.merge(b)
        a.counter("hits").inc(1)
        assert b.counter("hits").value == 3
