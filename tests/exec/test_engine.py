"""Tests for the parallel evaluation engine and its explore() integration."""

import numpy as np
import pytest

import repro.analysis.spec as analysis_spec
from repro.core import Bounds, SpecError, matmul_spec
from repro.core.accelerator import Accelerator
from repro.core.balancing import LoadBalancingScheme, row_shift_scheme
from repro.core.dataflow import (
    SpaceTimeTransform,
    hexagonal,
    input_stationary,
    output_stationary,
)
from repro.core.sparsity import SparsityStructure, csr_b_matrix
from repro.dse import explore
from repro.exec.cache import CompileCache
from repro.exec.engine import EngineReport, evaluate_sweep, resolve_jobs
from repro.obs.profile import Profiler, set_profiler
from repro.obs.trace import Tracer, set_tracer


@pytest.fixture(scope="module")
def workload():
    rng = np.random.default_rng(7)
    n = 4
    a = rng.integers(1, 5, (n, n))
    b = np.zeros((n, n), dtype=int)
    b[0, :] = rng.integers(1, 5, n)
    b[2, 1] = 3
    return Bounds({"i": n, "j": n, "k": n}), {"A": a, "B": b}


def _sweep_kwargs():
    spec = matmul_spec()
    return spec, dict(
        transforms={
            "output-stationary": output_stationary(),
            "input-stationary": input_stationary(),
            "hexagonal": hexagonal(),
        },
        sparsities={
            "dense": SparsityStructure(),
            "B-csr": csr_b_matrix(spec),
        },
        balancings={
            "none": LoadBalancingScheme(),
            "row-shift": row_shift_scheme(2),
        },
    )


def _signature(result):
    return [
        (p["name"], p["cycles"], p["utilization"], p["area_um2"],
         p["pe_count"], p["conn_count"])
        for p in result.points
    ]


class TestResolveJobs:
    def test_none_and_one_are_serial(self):
        assert resolve_jobs(None) == 1
        assert resolve_jobs(1) == 1

    def test_zero_is_cpu_count(self):
        import os

        assert resolve_jobs(0) == (os.cpu_count() or 1)

    def test_explicit(self):
        assert resolve_jobs(3) == 3

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            resolve_jobs(-1)


class TestParity:
    """Cached and parallel sweeps must be bit-identical to the serial
    uncached seed path -- same figures, same table bytes."""

    def test_cached_and_parallel_match_serial(self, workload):
        bounds, tensors = workload
        spec, kwargs = _sweep_kwargs()
        serial = explore(spec, bounds, tensors, **kwargs)
        cached = explore(spec, bounds, tensors, cache=CompileCache(), **kwargs)
        parallel = explore(
            spec, bounds, tensors, cache=CompileCache(), jobs=2, **kwargs
        )
        assert _signature(serial) == _signature(cached) == _signature(parallel)
        assert serial.table() == cached.table() == parallel.table()
        assert (
            [p["name"] for p in serial.pareto_frontier()]
            == [p["name"] for p in cached.pareto_frontier()]
            == [p["name"] for p in parallel.pareto_frontier()]
        )

    def test_shared_cache_across_sweeps_stays_correct(self, workload):
        bounds, tensors = workload
        spec, kwargs = _sweep_kwargs()
        cache = CompileCache()
        first = explore(spec, bounds, tensors, cache=cache, **kwargs)
        compile_lookups = sum(cache.stats.by_stage["compile"])
        point_hits = cache.stats.by_stage["dse.point"][0]
        second = explore(spec, bounds, tensors, cache=cache, **kwargs)
        assert _signature(first) == _signature(second)
        # The second sweep is answered whole from the point memo: every
        # point hits, and none of them reaches the compile stage.
        assert cache.stats.by_stage["dse.point"][0] - point_hits >= len(
            second.points
        )
        assert sum(cache.stats.by_stage["compile"]) == compile_lookups

    def test_cache_records_hits(self, workload):
        bounds, tensors = workload
        spec, kwargs = _sweep_kwargs()
        result = explore(spec, bounds, tensors, cache=CompileCache(), **kwargs)
        stats = result.report.cache_stats
        assert stats is not None
        assert stats.hits > 0
        assert stats.uncacheable == 0

    def test_engine_report_shape(self, workload):
        bounds, tensors = workload
        spec, kwargs = _sweep_kwargs()
        result = explore(spec, bounds, tensors, jobs=None, **kwargs)
        report = result.report
        assert isinstance(report, EngineReport)
        assert report.mode == "serial"
        assert report.evaluated == len(result.points)
        assert report.as_dict()["cache"] is None


class TestErrorDiscipline:
    """Only compile-step SpecErrors mark a point illegal; simulator
    failures always propagate, though explore skips illegal points."""

    def test_illegal_transform_skipped_and_tallied(self, workload):
        bounds, tensors = workload
        spec = matmul_spec()
        bad = SpaceTimeTransform([[1, 0, 0], [0, 1, 0], [1, 1, -1]])
        result = explore(
            spec, bounds, tensors,
            transforms={"good": output_stationary(), "bad": bad},
        )
        assert len(result) == 1
        assert result.report.skipped == 1

    def test_simulator_error_propagates_despite_skip_illegal(self, workload):
        bounds, _ = workload
        spec = matmul_spec()
        # Compilation cannot see tensor data, so the missing tensor only
        # explodes inside the simulator -- it must NOT be swallowed as
        # "illegal" or the sweep silently shrinks.
        with pytest.raises(SpecError, match="no data"):
            explore(
                spec, bounds, {"A": np.ones((4, 4), dtype=int)},
                transforms={"os": output_stationary()},
            )

    def test_simulator_error_propagates_in_parallel(self, workload):
        bounds, _ = workload
        spec = matmul_spec()
        with pytest.raises(SpecError, match="no data"):
            explore(
                spec, bounds, {"A": np.ones((4, 4), dtype=int)},
                transforms={"os": output_stationary()},
                jobs=2,
            )

    def test_all_illegal_still_raises(self, workload):
        bounds, tensors = workload
        spec = matmul_spec()
        bad = SpaceTimeTransform([[1, 0, 0], [0, 1, 0], [1, 1, -1]])
        with pytest.raises(SpecError, match="no legal design points"):
            explore(spec, bounds, tensors, transforms={"bad": bad})


class TestLegalityMemoization:
    def test_checker_runs_once_per_transform_subkey(self, workload, monkeypatch):
        """The domain-enumeration legality check depends only on
        (spec, bounds, transform): sweeping sparsity x balancing must not
        re-run it."""
        bounds, tensors = workload
        spec, kwargs = _sweep_kwargs()
        calls = []
        original = analysis_spec.check_spec_transform

        def counting(spec_, bounds_, transform_):
            calls.append(transform_)
            return original(spec_, bounds_, transform_)

        monkeypatch.setattr(analysis_spec, "check_spec_transform", counting)
        explore(spec, bounds, tensors, cache=CompileCache(), **kwargs)
        assert len(calls) == len(kwargs["transforms"])

    def test_without_cache_checker_runs_per_point(self, workload, monkeypatch):
        bounds, tensors = workload
        spec, kwargs = _sweep_kwargs()
        calls = []
        original = analysis_spec.check_spec_transform

        def counting(spec_, bounds_, transform_):
            calls.append(transform_)
            return original(spec_, bounds_, transform_)

        monkeypatch.setattr(analysis_spec, "check_spec_transform", counting)
        result = explore(spec, bounds, tensors, **kwargs)
        assert len(calls) == len(result.points)


class TestDeterministicOrdering:
    def test_table_breaks_cycle_ties_by_name(self):
        from repro.dse.explorer import ExplorationResult

        def point(name, cycles=10, area=100.0):
            return {
                "status": "ok", "name": name, "transform_name": "t",
                "sparsity_name": "s", "balancing_name": "b",
                "cycles": cycles, "utilization": 0.5, "area_um2": area,
                "pe_count": 4, "conn_count": 2, "pruned_variables": [],
            }

        report = EngineReport(jobs=1, evaluated=3, skipped=0)
        forward = ExplorationResult(
            [point("aa"), point("bb"), point("cc")], report
        )
        backward = ExplorationResult(
            [point("cc"), point("bb"), point("aa")], report
        )
        assert forward.table() == backward.table()
        assert (
            [p["name"] for p in forward.pareto_frontier()]
            == [p["name"] for p in backward.pareto_frontier()]
            == ["aa", "bb", "cc"]
        )


class TestObservabilityMerge:
    def test_parallel_profile_and_trace_merge(self, workload):
        bounds, tensors = workload
        spec, kwargs = _sweep_kwargs()
        profiler = Profiler(enabled=True)
        tracer = Tracer(enabled=True)
        previous_p = set_profiler(profiler)
        previous_t = set_tracer(tracer)
        try:
            result = explore(
                spec, bounds, tensors, cache=CompileCache(), jobs=2, **kwargs
            )
        finally:
            set_profiler(previous_p)
            set_tracer(previous_t)
        labels = {r.label: r.calls for r in profiler.records()}
        assert labels["dse.point"] == len(result.points)
        assert labels["dse.compile"] == len(result.points)
        assert labels["dse.simulate"] == len(result.points)
        names = {e.name for e in tracer.events()}
        assert any(" / " in name for name in names)  # per-point spans

    def test_serial_profile_unchanged(self, workload):
        bounds, tensors = workload
        spec, kwargs = _sweep_kwargs()
        profiler = Profiler(enabled=True)
        previous = set_profiler(profiler)
        try:
            result = explore(spec, bounds, tensors, **kwargs)
        finally:
            set_profiler(previous)
        labels = {r.label: r.calls for r in profiler.records()}
        assert labels["dse.point"] == len(result.points)


class TestTallies:
    def test_parallel_sweep_folds_worker_tallies_into_the_same_objects(
        self, workload, tmp_path
    ):
        from repro.exec.store import DiskStore, DiskStoreStats

        bounds, tensors = workload
        spec, kwargs = _sweep_kwargs()
        cache = CompileCache(store=DiskStore(str(tmp_path / "store")))
        stats, store_stats = cache.stats, cache.store.stats
        result = explore(spec, bounds, tensors, cache=cache, jobs=2, **kwargs)
        assert result.report.jobs == 2
        # Mutated in place: holders of the old references see the sweep.
        assert cache.stats is stats and cache.store.stats is store_stats
        assert stats.lookups > 0 and store_stats.writes > 0
        registry = cache.registry
        for name in ("hits", "misses", "disk_hits", "uncacheable"):
            assert (
                registry.counter(f"exec.cache.{name}").value
                == getattr(stats, name)
            ), name
        for name in DiskStoreStats.__slots__:
            assert (
                registry.counter(f"exec.store.{name}").value
                == getattr(store_stats, name)
            ), name
        assert sum(hits + misses for hits, misses in stats.by_stage.values()) == (
            stats.lookups
        )


def _candidate(name, transform, workload, **extra):
    bounds, tensors = workload
    fields = {
        "name": name,
        "transform_name": name,
        "transform": transform,
        "sparsity_name": "dense",
        "sparsity": SparsityStructure(),
        "balancing_name": "none",
        "balancing": LoadBalancingScheme(),
        "bounds": bounds,
        "tensors": tensors,
        "skip_illegal": False,
    }
    fields.update(extra)
    return fields


class TestPointMemo:
    """Each design point is evaluated once and its figures stored under
    one ``dse.point`` key; names come per candidate."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_identical_transforms_keep_their_own_names(self, workload, jobs):
        cache = CompileCache()
        candidates = [
            _candidate("os-a", output_stationary(), workload),
            _candidate("os-b", output_stationary(), workload),
        ]
        outcomes, _ = evaluate_sweep(
            matmul_spec(), candidates, jobs=jobs, cache=cache
        )
        assert [o["name"] for o in outcomes] == ["os-a", "os-b"]
        assert [o["transform_name"] for o in outcomes] == ["os-a", "os-b"]
        figures = [
            {k: v for k, v in o.items() if not k.endswith("name")}
            for o in outcomes
        ]
        assert figures[0] == figures[1]
        if jobs == 1:
            assert cache.stats.by_stage["dse.point"] == (1, 1)

    def test_store_without_point_entries_gives_identical_rows(self, tmp_path):
        import json
        import os
        import shutil

        from repro.exec.store import DiskStore
        from repro.exec.suite import build_suite, evaluate_suite

        suite = build_suite("resnet50", cap=4, seed=7)
        root = str(tmp_path / "store")
        first = evaluate_suite(suite, cache=CompileCache(store=DiskStore(root)))
        # A store written before the point memo existed holds every
        # other stage but no dse.point entries.
        store = DiskStore(root)
        shutil.rmtree(os.path.join(store.version_dir, "dse.point"))
        assert "dse.point" not in store.stage_summary()
        second = evaluate_suite(suite, cache=CompileCache(store=store))
        assert json.dumps(second.rows) == json.dumps(first.rows)
        assert store.stage_summary()["dse.point"]["entries"] == len(suite.cases)

    def test_fixed_baseline_that_fails_to_compile_still_raises(self, workload):
        bounds, _tensors = workload
        bad = SpaceTimeTransform([[1, 0, 0], [0, 1, 0], [1, 1, -1]])
        cache = CompileCache()
        with pytest.raises(SpecError) as direct:
            Accelerator(matmul_spec(), bounds, bad).build(cache=CompileCache())
        pruned, _ = evaluate_sweep(
            matmul_spec(),
            [_candidate("bad", bad, workload, skip_illegal=True)],
            cache=cache,
        )
        assert pruned == [
            {"status": "illegal", "name": "bad", "error": str(direct.value)}
        ]
        for _ in range(2):  # an illegal point is never memoized
            with pytest.raises(type(direct.value)) as raised:
                evaluate_sweep(
                    matmul_spec(), [_candidate("bad", bad, workload)],
                    cache=cache,
                )
            assert str(raised.value) == str(direct.value)
        assert "dse.point" not in cache.stats.by_stage
