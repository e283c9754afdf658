"""Unit tests for the profiler and the ``span`` instrumentation primitive."""

import pickle
import threading

import numpy as np
import pytest

from repro.core import Accelerator, Bounds, matmul_spec, output_stationary
from repro.core.balancing import LoadBalancingScheme
from repro.core.sparsity import SparsityStructure
from repro.dse import explore
from repro.obs import profile
from repro.obs.profile import (
    Profiler,
    get_profiler,
    profiling,
    set_profiler,
    span,
)
from repro.obs.trace import Tracer, set_tracer, tracing


def ticking_clock(step=1.0):
    """A fake perf_counter advancing by ``step`` per read."""
    state = {"now": 0.0}

    def clock():
        state["now"] += step
        return state["now"]

    return clock


@pytest.fixture
def installed():
    """Install a profiler for the test; the previous one is restored."""
    restore = []

    def install(profiler):
        restore.append(set_profiler(profiler))
        return profiler

    yield install
    for previous in reversed(restore):
        set_profiler(previous)


class TestScope:
    def test_accumulates_per_label(self, installed):
        profiler = installed(Profiler(enabled=True, clock=ticking_clock(0.5)))
        for _ in range(3):
            with span("compile.prune"):
                pass
        (record,) = profiler.records()
        assert record.label == "compile.prune"
        assert record.calls == 3
        assert record.total_s == record.self_s == 1.5
        assert record.mean_s == 0.5
        assert record.min_s == record.max_s == 0.5

    def test_disabled_scope_is_noop(self, installed):
        clock_reads = []

        def clock():
            clock_reads.append(1)
            return 0.0

        profiler = installed(Profiler(enabled=False, clock=clock))
        previous = set_tracer(Tracer(enabled=False, clock=clock))
        try:
            with span("anything", "event", component="c", field=1):
                pass
        finally:
            set_tracer(previous)
        assert len(profiler) == 0
        assert clock_reads == []  # never even read the clock

    def test_records_sorted_most_expensive_first(self):
        profiler = Profiler(enabled=True)
        profiler.record("cheap", 0.001)
        profiler.record("dear", 0.5)
        assert [r.label for r in profiler.records()] == ["dear", "cheap"]

    def test_exception_still_recorded(self, installed):
        profiler = installed(Profiler(enabled=True, clock=ticking_clock()))
        with pytest.raises(RuntimeError):
            with span("boom"):
                raise RuntimeError
        assert profiler.records()[0].calls == 1


class TestSpan:
    def test_nested_self_time(self, installed):
        # Clock reads: outer in 1, inner in 2, inner out 3, outer out 4.
        profiler = installed(Profiler(enabled=True, clock=ticking_clock()))
        with span("dse.point"):
            with span("dse.compile"):
                pass
        records = {r.label: r for r in profiler.records()}
        assert (records["dse.point"].total_s, records["dse.point"].self_s) == (3, 2)
        assert (records["dse.compile"].total_s, records["dse.compile"].self_s) == (1, 1)
        assert [r.label for r in profiler.records()] == ["dse.point", "dse.compile"]

    def test_exception_in_inner_span_books_both_and_pops(self, installed):
        profiler = installed(Profiler(enabled=True, clock=ticking_clock()))
        with pytest.raises(ValueError):
            with span("outer"):
                with span("inner"):
                    raise ValueError("boom")
        records = {r.label: r for r in profiler.records()}
        assert records["outer"].calls == records["inner"].calls == 1
        assert (records["outer"].total_s, records["outer"].self_s) == (3, 2)
        assert profile._open.stack == []

    def test_spans_on_two_threads_never_nest(self, installed):
        profiler = installed(Profiler(enabled=True))
        inside = threading.Barrier(2)
        done = threading.Barrier(2)

        def worker(label, hold):
            with span(label):
                inside.wait(10)
                if hold:
                    done.wait(10)  # stays open until the other span closed
            if not hold:
                done.wait(10)

        threads = [
            threading.Thread(target=worker, args=("held", True)),
            threading.Thread(target=worker, args=("brief", False)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(10)
            assert not thread.is_alive()
        records = {r.label: r for r in profiler.records()}
        # Neither span subtracted the other's time as a child's.
        assert records["held"].self_s == records["held"].total_s
        assert records["brief"].self_s == records["brief"].total_s

    def test_enabled_profiler_pickles_and_merges_self_time(self, installed):
        # The default clock: what a worker's profiler carries home.
        profiler = installed(Profiler(enabled=True))
        with span("outer"):
            with span("inner"):
                pass
        shipped = pickle.loads(pickle.dumps(profiler))
        assert shipped.enabled
        home = Profiler(enabled=True)
        home.merge(shipped)
        home.merge(shipped)
        sent = {r.label: r for r in profiler.records()}
        got = {r.label: r for r in home.records()}
        for label in ("outer", "inner"):
            assert got[label].calls == 2
            assert got[label].total_s == 2 * sent[label].total_s
            assert got[label].self_s == 2 * sent[label].self_s
        assert sent["outer"].self_s == pytest.approx(
            sent["outer"].total_s - sent["inner"].total_s
        )

    def test_tracer_only_dse_point_emits_its_event(self):
        spec = matmul_spec()
        n = 2
        rng = np.random.default_rng(0)
        tensors = {"A": rng.integers(1, 4, (n, n)), "B": rng.integers(1, 4, (n, n))}
        assert get_profiler().enabled is False
        with tracing() as tracer:
            explore(
                spec,
                Bounds({"i": n, "j": n, "k": n}),
                tensors,
                transforms={"output-stationary": output_stationary()},
                sparsities={"dense": SparsityStructure()},
                balancings={"none": LoadBalancingScheme()},
            )
        (event,) = [
            e for e in tracer.events() if e.component == "dse" and e.kind == "X"
        ]
        assert event.name == "output-stationary / dense / none"
        assert event.domain == "wall"
        assert event.dur > 0
        assert event.payload == {
            "transform": "output-stationary",
            "sparsity": "dense",
            "balancing": "none",
        }


class TestTable:
    def test_empty(self):
        assert Profiler().table() == "(no profile samples recorded)"

    def test_columns_and_totals(self):
        profiler = Profiler(enabled=True)
        profiler.record("compile.elaborate", 0.002)
        profiler.record("compile.elaborate", 0.004)
        profiler.record("dse.simulate", 0.010)
        table = profiler.table()
        header, *rows = table.splitlines()
        assert header.split() == [
            "pass", "calls", "total", "(ms)", "self", "(ms)", "mean", "(us)",
            "max", "(us)", "share",
        ]
        assert rows[0].startswith("dse.simulate")  # most expensive first
        assert rows[-1].split()[0] == "total"
        assert rows[-1].split()[1] == "3"

    def test_reset(self):
        profiler = Profiler(enabled=True)
        profiler.record("x", 1.0)
        profiler.reset()
        assert len(profiler) == 0


class TestGlobalInstall:
    def test_disabled_by_default(self):
        assert get_profiler().enabled is False

    def test_set_profiler_returns_previous(self):
        original = get_profiler()
        mine = Profiler(enabled=True)
        previous = set_profiler(mine)
        try:
            assert previous is original
            assert get_profiler() is mine
        finally:
            set_profiler(original)

    def test_profiling_context_captures_compiler_passes(self):
        accelerator = Accelerator(
            spec=matmul_spec(),
            bounds=Bounds({"i": 2, "j": 2, "k": 2}),
            transform=output_stationary(),
        )
        with profiling() as profiler:
            accelerator.build()
        labels = {r.label for r in profiler.records()}
        assert "compile.elaborate" in labels
        assert "compile.map_spacetime" in labels
        assert get_profiler() is not profiler
