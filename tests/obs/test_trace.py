"""Unit tests for the structured event tracer.

Includes the overhead guarantees the subsystem is designed around: the
disabled path adds zero events, and the enabled ring buffer caps memory
by dropping the oldest events beyond capacity.
"""

import numpy as np
import pytest

from repro.core import Accelerator, Bounds, matmul_spec, output_stationary
from repro.obs.profile import span
from repro.obs.trace import Tracer, get_tracer, set_tracer, tracing


class TestDisabledPath:
    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer(capacity=16, enabled=False)
        tracer.instant("a", cycle=1)
        tracer.begin("b")
        tracer.end("b")
        tracer.complete("c", start_cycle=0, duration=5)
        previous = set_tracer(tracer)
        try:
            with span("d"):
                pass
        finally:
            set_tracer(previous)
        assert len(tracer) == 0
        assert tracer.events() == []
        assert tracer.dropped == 0

    def test_global_tracer_disabled_by_default(self):
        assert get_tracer().enabled is False

    def test_instrumented_run_adds_zero_events_when_disabled(self):
        baseline = len(get_tracer())
        acc = Accelerator(
            spec=matmul_spec(),
            bounds=Bounds({"i": 3, "j": 3, "k": 3}),
            transform=output_stationary(),
        )
        design = acc.build()
        design.run({"A": np.eye(3, dtype=int), "B": np.eye(3, dtype=int)})
        assert len(get_tracer()) == baseline == 0


class TestRingBuffer:
    def test_capacity_caps_memory_and_drops_oldest(self):
        tracer = Tracer(capacity=10, enabled=True)
        for i in range(25):
            tracer.instant(f"e{i}", cycle=i)
        events = tracer.events()
        assert len(events) == 10
        assert tracer.dropped == 15
        # The newest events survive; the oldest were dropped.
        assert [e.name for e in events] == [f"e{i}" for i in range(15, 25)]

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            Tracer(capacity=0)

    def test_clear(self):
        tracer = Tracer(capacity=2, enabled=True)
        for i in range(5):
            tracer.instant(f"e{i}")
        tracer.clear()
        assert len(tracer) == 0
        assert tracer.dropped == 0


class TestEventShapes:
    def test_cycle_domain_instant(self):
        tracer = Tracer(enabled=True)
        tracer.instant("tick", component="sim", cycle=7, live=3)
        (event,) = tracer.events()
        assert event.kind == "I"
        assert event.domain == "cycle"
        assert event.cycle == 7
        assert event.payload == {"live": 3}

    def test_wall_domain_instant(self):
        tracer = Tracer(enabled=True)
        tracer.instant("note")
        (event,) = tracer.events()
        assert event.domain == "wall"
        assert event.cycle is None

    def test_begin_end_pair(self):
        tracer = Tracer(enabled=True)
        tracer.begin("run", cycle=0)
        tracer.end("run", cycle=9)
        begin, end = tracer.events()
        assert (begin.kind, end.kind) == ("B", "E")
        assert end.ts == 9.0

    def test_complete_carries_duration(self):
        tracer = Tracer(enabled=True)
        tracer.complete("xfer", start_cycle=4, duration=11, bytes=64)
        (event,) = tracer.events()
        assert event.kind == "X"
        assert (event.ts, event.dur) == (4.0, 11.0)

    def test_span_measures_wall_time(self):
        times = iter([1.0, 3.5])
        tracer = Tracer(enabled=True, clock=lambda: next(times))
        previous = set_tracer(tracer)
        try:
            with span("work", component="compiler"):
                pass
        finally:
            set_tracer(previous)
        (event,) = tracer.events()
        assert event.kind == "X"
        assert event.domain == "wall"
        assert event.dur == pytest.approx(2.5e6)  # microseconds


class TestGlobalInstall:
    def test_set_tracer_returns_previous(self):
        original = get_tracer()
        mine = Tracer(enabled=True)
        previous = set_tracer(mine)
        try:
            assert previous is original
            assert get_tracer() is mine
        finally:
            set_tracer(original)

    def test_tracing_context_restores(self):
        original = get_tracer()
        with tracing(capacity=8) as tracer:
            assert get_tracer() is tracer
            assert tracer.enabled
            assert tracer.capacity == 8
        assert get_tracer() is original

    def test_instrumented_run_is_captured_when_enabled(self):
        acc = Accelerator(
            spec=matmul_spec(),
            bounds=Bounds({"i": 2, "j": 2, "k": 2}),
            transform=output_stationary(),
        )
        with tracing() as tracer:
            design = acc.build()
            design.run({"A": np.eye(2, dtype=int), "B": np.eye(2, dtype=int)})
        components = {e.component for e in tracer.events()}
        assert "compiler" in components
        assert "sim.array" in components
        names = [e.name for e in tracer.events()]
        assert "timestep" in names
