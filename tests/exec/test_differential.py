"""Differential tests: independent evaluation paths must agree exactly.

The pairings, each exercising a redundancy the engine relies on:

* the vectorized skip-condition evaluator in
  :class:`~repro.sim.spatial_array.SpatialArraySim` against its scalar
  fallback (``vectorize=False``) -- byte-identical outputs and equal
  performance counters on the same compiled design and workload;
* the trace-compiled batched reference kernel
  (:mod:`repro.sim.kernel`) against the scalar spec interpreter
  (``interpret(..., kernel=False)``) -- byte-identical output arrays
  across random shapes, dtypes, and transforms, and identical sim
  results through the ``kernel=`` knob;
* serial (``jobs=1``) against process-pool (``jobs=2``) suite
  evaluation and ``--autotune`` -- identical row ordering and digests, so
  parallelism is pure speedup, never a result change;
* cold against warm (disk-backed) ``--autotune`` runs -- the persistent cache
  may only change *where* answers come from, never which winners are
  picked.
"""

import numpy as np
import pytest

from repro.core import Bounds, compile_design, matmul_spec
from repro.core.balancing import row_shift_scheme
from repro.core.dataflow import (
    SpaceTimeTransform,
    hexagonal,
    input_stationary,
    output_stationary,
    weight_stationary,
)
from repro.core.expr import Index, Select, SpecError, Tensor
from repro.core.functionality import batched_matmul_spec, conv1d_spec
from repro.core.sparsity import Skip, SparsityStructure, csr_b_matrix
from repro.exec.cache import CompileCache
from repro.exec.halving import sweep_suite
from repro.exec.store import DiskStore
from repro.exec.suite import build_suite, evaluate_suite
from repro.sim.kernel import compile_kernel
from repro.sim.spatial_array import SpatialArraySim

TRANSFORMS = {
    "output-stationary": output_stationary,
    "input-stationary": input_stationary,
    "weight-stationary": weight_stationary,
    "hexagonal": hexagonal,
}


def _masked(rng, shape, density):
    values = rng.integers(-4, 5, shape)
    if density < 1.0:
        values = np.where(rng.random(shape) < density, values, 0)
    return values


def _run_both_paths(design, tensors):
    """The same design and workload through the vectorized and scalar
    evaluators; ``memo=None`` so neither path can answer for the other."""
    fast = SpatialArraySim(design, memo=None, vectorize=True).run(tensors)
    slow = SpatialArraySim(design, memo=None, vectorize=False).run(tensors)
    return fast, slow


class TestVectorizedVsScalarSim:
    @pytest.mark.parametrize("transform_name", sorted(TRANSFORMS))
    @pytest.mark.parametrize("seed", [0, 7, 23])
    def test_dense_random_shapes(self, transform_name, seed):
        rng = np.random.default_rng([seed, 11])
        i, j, k = (int(d) for d in rng.integers(2, 7, 3))
        spec = matmul_spec()
        design = compile_design(
            spec, Bounds({"i": i, "j": j, "k": k}), TRANSFORMS[transform_name]()
        )
        tensors = {"A": rng.integers(-4, 5, (i, k)), "B": rng.integers(-4, 5, (k, j))}
        fast, slow = _run_both_paths(design, tensors)
        assert fast.outputs["C"].tobytes() == slow.outputs["C"].tobytes()
        assert fast.cycles == slow.cycles
        assert fast.utilization == slow.utilization
        assert fast.outputs["C"].dtype == slow.outputs["C"].dtype

    @pytest.mark.parametrize("transform_name", ["output-stationary", "input-stationary"])
    @pytest.mark.parametrize("density", [0.0, 0.3, 0.8])
    @pytest.mark.parametrize("balanced", [False, True])
    def test_sparse_random_densities(self, transform_name, density, balanced):
        rng = np.random.default_rng([int(density * 10), balanced, 5])
        i, j, k = (int(d) for d in rng.integers(3, 7, 3))
        spec = matmul_spec()
        design = compile_design(
            spec,
            Bounds({"i": i, "j": j, "k": k}),
            TRANSFORMS[transform_name](),
            sparsity=csr_b_matrix(spec),
            balancing=row_shift_scheme(max(i // 2, 1)) if balanced else None,
        )
        tensors = {
            "A": rng.integers(-4, 5, (i, k)),
            "B": _masked(rng, (k, j), density),
        }
        fast, slow = _run_both_paths(design, tensors)
        assert fast.outputs["C"].tobytes() == slow.outputs["C"].tobytes()
        assert fast.cycles == slow.cycles

    def test_scalar_path_is_really_taken(self):
        """Guard against the knob silently routing both runs through the
        vectorized evaluator."""
        spec = matmul_spec()
        design = compile_design(
            spec, Bounds({"i": 3, "j": 3, "k": 3}), output_stationary()
        )
        sim = SpatialArraySim(design, memo=None, vectorize=False)
        assert sim.vectorize is False
        tensors = {"A": np.eye(3, dtype=np.int64), "B": np.eye(3, dtype=np.int64)}
        assert np.array_equal(sim.run(tensors).outputs["C"], np.eye(3))


def _kernel_workload(kind, rng, floats=False):
    """A random (spec, bounds, tensors) triple for one library spec."""
    def values(shape):
        if floats:
            return rng.standard_normal(shape)
        return rng.integers(-4, 5, shape)

    if kind == "matmul":
        i, j, k = (int(d) for d in rng.integers(2, 7, 3))
        bounds = Bounds({"i": i, "j": j, "k": k})
        return matmul_spec(), bounds, {"A": values((i, k)), "B": values((k, j))}
    if kind == "conv1d":
        ox, oc, f = (int(d) for d in rng.integers(2, 6, 3))
        bounds = Bounds({"ox": ox, "oc": oc, "f": f})
        return (
            conv1d_spec(),
            bounds,
            {"I": values((ox + f - 1,)), "W": values((oc, f))},
        )
    n, i, j, k = (int(d) for d in rng.integers(2, 5, 4))
    bounds = Bounds({"n": n, "i": i, "j": j, "k": k})
    return (
        batched_matmul_spec(),
        bounds,
        {"A": values((n, i, k)), "B": values((n, k, j))},
    )


class TestKernelVsInterpreter:
    @pytest.mark.parametrize("kind", ["matmul", "conv1d", "bmm"])
    @pytest.mark.parametrize("seed", [0, 9, 31])
    @pytest.mark.parametrize("floats", [False, True])
    def test_random_shapes_byte_identical(self, kind, seed, floats):
        rng = np.random.default_rng([seed, 13])
        spec, bounds, tensors = _kernel_workload(kind, rng, floats=floats)
        kernel = compile_kernel(spec)
        assert kernel is not None
        got = kernel.replay(bounds, tensors)
        want = spec.interpret(bounds, tensors, kernel=False)
        assert sorted(got) == sorted(want)
        for name in want:
            assert got[name].dtype == want[name].dtype
            assert got[name].shape == want[name].shape
            assert got[name].tobytes() == want[name].tobytes()

    @pytest.mark.parametrize("transform_name", sorted(TRANSFORMS))
    @pytest.mark.parametrize("density", [0.0, 0.4, 1.0])
    def test_sim_kernel_knob_parity(self, transform_name, density):
        """A full sparse sim run must not depend on which reference
        backend computed the expected outputs."""
        rng = np.random.default_rng([transform_name == "hexagonal", int(density * 10)])
        i, j, k = (int(d) for d in rng.integers(3, 7, 3))
        spec = matmul_spec()
        design = compile_design(
            spec,
            Bounds({"i": i, "j": j, "k": k}),
            TRANSFORMS[transform_name](),
            sparsity=csr_b_matrix(spec),
        )
        tensors = {
            "A": rng.integers(-4, 5, (i, k)),
            "B": _masked(rng, (k, j), density),
        }
        with_kernel = SpatialArraySim(design, memo=None, kernel=True).run(tensors)
        without = SpatialArraySim(design, memo=None, kernel=False).run(tensors)
        assert with_kernel.outputs["C"].tobytes() == without.outputs["C"].tobytes()
        assert with_kernel.outputs["C"].dtype == without.outputs["C"].dtype
        assert with_kernel.cycles == without.cycles

    def test_kernel_knob_is_respected(self):
        design = compile_design(
            matmul_spec(), Bounds({"i": 3, "j": 3, "k": 3}), output_stationary()
        )
        assert SpatialArraySim(design, memo=None, kernel=False).kernel is False
        assert SpatialArraySim(design, memo=None).kernel is True

    def test_partial_fallback_mask_parity(self):
        """One batch-unsupported skip condition (a ``Select`` operand)
        must be evaluated scalar *on its own* and OR-ed into the batched
        mask of its supported sibling -- never discard it."""
        rng = np.random.default_rng(17)
        i, j, k = 4, 3, 5
        idx_i, idx_j, idx_k = Index("i"), Index("j"), Index("k")
        A, B = Tensor("A", 2), Tensor("B", 2)
        sparsity = SparsityStructure(
            [
                Skip([idx_j], B[idx_k, idx_j] == 0),
                Skip([idx_k], Select(A[idx_i, idx_k] == 0, 1, 0) == 1),
            ]
        )
        design = compile_design(
            matmul_spec(),
            Bounds({"i": i, "j": j, "k": k}),
            output_stationary(),
            sparsity=sparsity,
            check=False,
        )
        tensors = {
            "A": _masked(rng, (i, k), 0.6),
            "B": _masked(rng, (k, j), 0.5),
        }
        fast = SpatialArraySim(design, memo=None, vectorize=True)
        slow = SpatialArraySim(design, memo=None, vectorize=False)
        fast_points = fast._valid_points(tensors)
        assert fast_points == slow._valid_points(tensors)
        # Both masks actually bit: fewer points than the dense domain,
        # more than the supported condition alone would leave.
        assert 0 < len(fast_points) < i * j * k
        fast_run, slow_run = fast.run(tensors), slow.run(tensors)
        assert fast_run.outputs["C"].tobytes() == slow_run.outputs["C"].tobytes()
        assert fast_run.cycles == slow_run.cycles

    def test_sparse_multitime_schedule_matches_dense(self):
        """With a fully dense operand, a sparse design under a
        ``time_dims > 1`` transform must schedule exactly as many cycles
        as the dense design -- the linearization covers *all* time
        coordinates, not just the first."""
        spec = batched_matmul_spec()
        transform = SpaceTimeTransform(
            [[0, 1, 0, 0], [0, 0, 1, 0], [1, 0, 0, 0], [0, 1, 1, 1]],
            space_dims=2,
        )
        bounds = Bounds({"n": 2, "i": 3, "j": 3, "k": 4})
        idx_n, idx_j, idx_k = Index("n"), Index("j"), Index("k")
        B = Tensor("B", 3)
        sparsity = SparsityStructure([Skip([idx_j], B[idx_n, idx_k, idx_j] == 0)])
        rng = np.random.default_rng(29)
        tensors = {
            "A": rng.integers(1, 5, (2, 3, 4)),
            "B": rng.integers(1, 5, (2, 4, 3)),
        }
        dense = SpatialArraySim(
            compile_design(spec, bounds, transform), memo=None
        ).run(tensors)
        sparse = SpatialArraySim(
            compile_design(spec, bounds, transform, sparsity=sparsity, check=False),
            memo=None,
        ).run(tensors)
        assert dense.cycles == 16  # 2 batches x 8 wavefronts
        assert sparse.cycles == dense.cycles
        assert sparse.outputs["C"].tobytes() == dense.outputs["C"].tobytes()

    def test_scalar_skip_read_out_of_range_names_tensor(self):
        """An out-of-range tensor read inside a skip condition surfaces
        as a :class:`SpecError` naming the tensor and coordinates, not a
        bare ``IndexError``."""
        idx_j, idx_k = Index("j"), Index("k")
        B = Tensor("B", 2)
        sparsity = SparsityStructure([Skip([idx_j], B[idx_k + 10, idx_j] == 0)])
        design = compile_design(
            matmul_spec(),
            Bounds({"i": 2, "j": 2, "k": 2}),
            output_stationary(),
            sparsity=sparsity,
            check=False,
        )
        sim = SpatialArraySim(design, memo=None, vectorize=False)
        tensors = {
            "A": np.ones((2, 2), dtype=np.int64),
            "B": np.ones((2, 2), dtype=np.int64),
        }
        with pytest.raises(
            SpecError, match=r"tensor 'B' at out-of-range coordinates"
        ):
            sim.run(tensors)


class TestSerialVsParallel:
    def test_suite_rows_identical_across_jobs(self):
        suite = build_suite("alexnet", cap=4, seed=3)
        serial = evaluate_suite(suite, jobs=1, cache=CompileCache())
        parallel = evaluate_suite(
            build_suite("alexnet", cap=4, seed=3), jobs=2, cache=CompileCache()
        )
        assert serial.rows == parallel.rows
        assert [r["name"] for r in serial.rows] == [c.name for c in suite.cases]

    def test_autotune_rows_identical_across_jobs(self):
        serial = sweep_suite(
            build_suite("alexnet", cap=4, seed=3),
            autotune=True,
            budget=6,
            jobs=1,
            cache=CompileCache(),
        )
        parallel = sweep_suite(
            build_suite("alexnet", cap=4, seed=3),
            autotune=True,
            budget=6,
            jobs=2,
            cache=CompileCache(),
        )
        assert serial.rows == parallel.rows
        digests = [row["output_digest"] for row in serial.rows]
        assert digests == [row["output_digest"] for row in parallel.rows]
        assert all(digests)


class TestColdVsWarmAutotune:
    def test_disk_warmed_run_picks_identical_winners(self, tmp_path):
        root = str(tmp_path / "store")

        cold_cache = CompileCache(store=DiskStore(root))
        cold = sweep_suite(
            build_suite("alexnet", cap=4, seed=3),
            autotune=True,
            budget=8,
            jobs=1,
            cache=cold_cache,
        )
        assert cold_cache.store.stats.writes > 0

        warm_cache = CompileCache(store=DiskStore(root))
        warm = sweep_suite(
            build_suite("alexnet", cap=4, seed=3),
            autotune=True,
            budget=8,
            jobs=1,
            cache=warm_cache,
        )
        assert warm_cache.stats.disk_hits > 0

        assert cold.rows == warm.rows
        assert cold.total_cycles == warm.total_cycles
        assert cold.retuned_layers == warm.retuned_layers
        for before, after in zip(cold.rows, warm.rows):
            assert before["transform"] == after["transform"]
            assert before["sparsity"] == after["sparsity"]
            assert before["output_digest"] == after["output_digest"]
