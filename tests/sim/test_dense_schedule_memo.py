"""The ``sim.dense`` and ``area.model`` memo stages.

A dense design's closed-form schedule -- the grid, the ``T^-1``
round-trip, the timestep occupancy and the causality/regfile pass --
depends on ``(spec, bounds, transform)`` alone, and its area on the
compiled design alone, so a sweep whose layers share a few designs
computes each once.  Only the outputs are recomputed per layer.
"""

import numpy as np
import pytest

from repro.core import Bounds, SpecError, compile_design, matmul_spec
from repro.core.dataflow import SpaceTimeTransform, output_stationary
from repro.core.expr import Index, Local, Tensor
from repro.core.functionality import FunctionalSpec
from repro.exec import engine
from repro.exec.cache import CompileCache
from repro.exec.suite import build_suite, evaluate_suite
from repro.sim.spatial_array import SpatialArraySim


def _distinct_designs(suite):
    return len({
        tuple((name, case.bounds[name]) for name in case.bounds.names())
        for case in suite.cases
    })


@pytest.fixture(scope="module")
def resnet_sweep():
    """A cold ``resnet50`` cap-12 sweep on one cache, counting the area
    model's runs."""
    suite = build_suite("resnet50", cap=12, seed=7)
    calls = []
    real = engine.estimate_design_area

    def counting(design, *args, **kwargs):
        calls.append(design)
        return real(design, *args, **kwargs)

    engine.estimate_design_area = counting
    try:
        cache = CompileCache()
        result = evaluate_suite(suite, jobs=1, cache=cache)
    finally:
        engine.estimate_design_area = real
    return suite, cache, result, calls


class TestSweep:
    def test_one_schedule_per_design(self, resnet_sweep):
        suite, cache, _result, _calls = resnet_sweep
        designs = _distinct_designs(suite)
        assert designs == 2 < len(suite.cases)
        hits, misses = cache.stats.by_stage["sim.dense"]
        assert misses == designs
        assert hits + misses == len(suite.cases)

    def test_one_area_estimate_per_design(self, resnet_sweep):
        suite, cache, _result, calls = resnet_sweep
        assert len(calls) == _distinct_designs(suite)
        assert len({id(design) for design in calls}) == len(calls)
        hits, misses = cache.stats.by_stage["area.model"]
        assert misses == len(calls)
        assert hits + misses == len(suite.cases)

    def test_rows_match_an_uncached_sweep(self, resnet_sweep):
        _suite, _cache, result, _calls = resnet_sweep
        uncached = evaluate_suite(
            build_suite("resnet50", cap=12, seed=7), jobs=1, cache=None
        )
        assert result.rows == uncached.rows

    def test_memo_holds_no_per_point_array(self, resnet_sweep):
        _suite, cache, _result, _calls = resnet_sweep
        schedules = [
            value for (stage, _key), value in cache._entries.items()
            if stage == "sim.dense"
        ]
        assert schedules
        for n, length, steps, occupancy, _reads, _writes in schedules:
            assert len(steps) == len(occupancy) == length < n
            assert int(occupancy.sum()) == n


@pytest.fixture()
def design():
    return compile_design(
        matmul_spec(), Bounds({"i": 3, "j": 3, "k": 3}), output_stationary()
    )


@pytest.fixture()
def tensors(rng):
    return {"A": rng.integers(-3, 4, (3, 3)), "B": rng.integers(-3, 4, (3, 3))}


class TestSimulator:
    def test_layers_share_one_schedule(self, design, tensors, rng):
        cache = CompileCache()
        other = {"A": rng.integers(-3, 4, (3, 3)), "B": tensors["B"]}
        first = SpatialArraySim(design, memo=cache).run(tensors)
        second = SpatialArraySim(design, memo=cache).run(other)
        assert cache.stats.by_stage["sim.dense"] == (1, 1)
        assert np.array_equal(second.outputs["C"], other["A"] @ other["B"])
        fresh = SpatialArraySim(design).run(tensors)
        for result in (first, second):
            assert result.counters.as_dict() == fresh.counters.as_dict()
            assert result.schedule_length == fresh.schedule_length

    def test_scalar_path_never_reads_the_stage(self, design, tensors):
        cache = CompileCache()
        SpatialArraySim(design, memo=cache, vectorize=False).run(tensors)
        assert cache.stats.by_stage == {}

    def test_non_causal_design_raises_on_every_run(self, design, tensors):
        design.transform = SpaceTimeTransform(
            [[1, 0, 0], [0, 1, 0], [0, 0, -1]], space_dims=1
        )
        cache = CompileCache()
        messages = []
        for _ in range(2):
            with pytest.raises(SpecError) as err:
                SpatialArraySim(design, memo=cache).run(tensors)
            messages.append(str(err.value))
        assert messages == [
            "read of c at (0, 0, 1) before its producing timestep"
            " -- the space-time transform violates a dependency"
        ] * 2
        assert "sim.dense" not in cache.stats.by_stage
        assert not any(stage == "sim.dense" for stage, _ in cache._entries)

    def test_loop_verdict_is_memoized(self):
        """A suffix sum scheduled with ``t = -j`` is causal but runs
        backwards in the reference interpreter's point order, so the
        closed form defers to the loop; the memo keeps that verdict."""
        i, j = Index("i"), Index("j")
        A, C, s = Tensor("A", 2), Tensor("C", 1), Local("s", 2)
        spec = FunctionalSpec("suffix", [i, j])
        spec.let(s[i, j.upper_bound], A[i, j])
        spec.let(s[i, j], s[i, j + 1] + A[i, j])
        spec.let(C[i], s[i, j.lower_bound])
        design = compile_design(
            spec, Bounds({"i": 2, "j": 3}),
            SpaceTimeTransform([[1, 0], [0, -1]]), check=False,
        )
        tensors = {"A": np.arange(6).reshape(2, 3)}
        cache = CompileCache()
        runs = [SpatialArraySim(design, memo=cache).run(tensors) for _ in range(2)]
        assert cache.stats.by_stage["sim.dense"] == (1, 1)
        loop = SpatialArraySim(design, vectorize=False).run(tensors)
        for run in runs:
            assert run.outputs["C"].tolist() == [5, 17]
            assert run.counters.as_dict() == loop.counters.as_dict()
