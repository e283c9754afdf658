"""Tests for multi-dimensional-time transforms (4-index specs).

A spec with more indices than physical dimensions must fold the surplus
axes into *time*; the transform then has ``time_dims > 1`` and timesteps
order lexicographically.  The canonical case: a batched matmul on a 2-D
array, with the batch axis as the outer time dimension.
"""

import numpy as np
import pytest

from repro.core import Bounds, SpecError, compile_design, matmul_spec
from repro.core.dataflow import SpaceTimeTransform
from repro.core.functionality import batched_matmul_spec
from repro.obs.trace import tracing
from repro.sim.spatial_array import SpatialArraySim


@pytest.fixture(scope="module")
def transform():
    # space = (i, j); time = (n, i+j+k).
    return SpaceTimeTransform(
        [[0, 1, 0, 0], [0, 0, 1, 0], [1, 0, 0, 0], [0, 1, 1, 1]],
        space_dims=2,
    )


class TestBatchedMatmul:
    def test_transform_shape(self, transform):
        assert transform.space_dims == 2
        assert transform.time_dims == 2

    def test_correctness(self, transform, rng):
        spec = batched_matmul_spec()
        A = rng.integers(-3, 4, (2, 3, 4))
        B = rng.integers(-3, 4, (2, 4, 3))
        design = compile_design(
            spec, Bounds({"n": 2, "i": 3, "j": 3, "k": 4}), transform
        )
        result = SpatialArraySim(design).run({"A": A, "B": B})
        assert np.array_equal(result.outputs["C"], A @ B)

    def test_batch_folds_into_time(self, transform, rng):
        """Doubling the batch count doubles the schedule, not the array."""
        spec = batched_matmul_spec()
        designs = {}
        results = {}
        for batches in (1, 2):
            A = rng.integers(-3, 4, (batches, 3, 3))
            B = rng.integers(-3, 4, (batches, 3, 3))
            design = compile_design(
                spec, Bounds({"n": batches, "i": 3, "j": 3, "k": 3}), transform
            )
            designs[batches] = design
            results[batches] = SpatialArraySim(design).run({"A": A, "B": B})
        assert designs[1].pe_count == designs[2].pe_count
        assert results[2].cycles == 2 * results[1].cycles

    def test_pe_count_is_spatial_projection(self, transform):
        spec = batched_matmul_spec()
        design = compile_design(
            spec, Bounds({"n": 4, "i": 3, "j": 3, "k": 3}), transform
        )
        assert design.pe_count == 9  # 3x3 (i, j) plane only

    def test_timesteps_lexicographic(self, transform):
        """Batch 0's steps all precede batch 1's."""
        points = [(0, 1, 1, 1), (1, 0, 0, 0)]
        times = [transform.apply(p)[2:] for p in points]
        assert times[0] < times[1]


def _both_paths(design, tensors):
    """Run ``design`` closed-form and per-point; each entry is the result
    or the ``SpecError`` message, plus the ``sim.array`` trace events."""
    runs = []
    for vectorize in (True, False):
        sim = SpatialArraySim(design, memo=None, vectorize=vectorize)
        with tracing() as tracer:
            try:
                outcome = sim.run(tensors)
            except SpecError as err:
                outcome = str(err)
        events = [
            (e.name, e.kind, e.ts, e.payload)
            for e in tracer.events()
            if e.component == "sim.array"
        ]
        runs.append((outcome, events))
    return runs


class TestDensePaths:
    def test_traced_timesteps_agree(self, transform, rng):
        design = compile_design(
            batched_matmul_spec(), Bounds({"n": 2, "i": 3, "j": 2, "k": 3}),
            transform,
        )
        tensors = {
            "A": rng.integers(-3, 4, (2, 3, 3)),
            "B": rng.integers(-3, 4, (2, 3, 2)),
        }
        (fast, fast_events), (slow, slow_events) = _both_paths(design, tensors)
        assert fast.counters.as_dict() == slow.counters.as_dict()
        assert fast_events == slow_events
        steps = [e for e in fast_events if e[0] == "timestep"]
        assert len(steps) == fast.schedule_length
        assert sum(e[3]["live_pes"] for e in steps) == 2 * 3 * 2 * 3

    def test_backwards_schedule_past_the_compiler(self):
        """The compiler rejects a second time row that runs ``k``
        backwards; a design built past it must still fail at run time,
        with the same error from both dense paths."""
        spec = matmul_spec()
        bounds = Bounds({"i": 3, "j": 3, "k": 3})
        backwards = SpaceTimeTransform(
            [[1, 0, 0], [0, 1, 0], [0, 0, -1]], space_dims=1
        )
        with pytest.raises(SpecError):
            compile_design(spec, bounds, backwards)
        design = compile_design(
            spec, bounds,
            SpaceTimeTransform([[1, 0, 0], [0, 1, 0], [0, 0, 1]], space_dims=1),
        )
        design.transform = backwards
        tensors = {"A": np.ones((3, 3), dtype=np.int64),
                   "B": np.ones((3, 3), dtype=np.int64)}
        (fast, _), (slow, _) = _both_paths(design, tensors)
        assert fast == slow == (
            "read of c at (0, 0, 1) before its producing timestep"
            " -- the space-time transform violates a dependency"
        )
