"""Differential tests: independent evaluation paths must agree exactly.

The pairings, each exercising a redundancy the engine relies on:

* the vectorized simulator paths of
  :class:`~repro.sim.spatial_array.SpatialArraySim` (closed-form dense
  runs, batched skip conditions) against their per-point references
  (``vectorize=False``) -- byte-identical outputs, every performance
  counter and the schedule length equal on the same compiled design
  and workload;
* the trace-compiled batched reference kernel
  (:mod:`repro.sim.kernel`) against the scalar spec interpreter
  (``interpret(..., kernel=False)``) -- byte-identical output arrays
  across random shapes, dtypes, and transforms, and a sparse sim run's
  outputs against the scalar interpreter;
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
from repro.core.expr import (
    WILDCARD,
    Comparison,
    Const,
    Index,
    IndexValue,
    Local,
    Select,
    SpecError,
    Tensor,
)
from repro.core.functionality import (
    FunctionalSpec,
    batched_matmul_spec,
    conv1d_spec,
)
from repro.core.sparsity import (
    Skip,
    SparsityStructure,
    csr_b_matrix,
    csr_csc_both,
    diagonal_a_matrix,
    empty_rows_of_a,
)
from repro.exec.cache import CompileCache
from repro.exec.halving import sweep_suite
from repro.exec.store import DiskStore
from repro.exec.suite import build_suite, evaluate_suite
from repro.sim.kernel import KernelFallback, compile_kernel, skip_mask
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


def _assert_same_run(fast, slow):
    """Byte-identical outputs, every counter (suite rows' energy reads
    regfile traffic, MACs and idle cycles) and the schedule length."""
    assert sorted(fast.outputs) == sorted(slow.outputs)
    for name, want in slow.outputs.items():
        assert fast.outputs[name].dtype == want.dtype
        assert fast.outputs[name].tobytes() == want.tobytes()
    assert fast.counters.as_dict() == slow.counters.as_dict()
    assert fast.schedule_length == slow.schedule_length


def _batch_lifted(transform):
    """A rank-3 ``(i, j, k)`` transform lifted over bmm's leading batch
    index, which becomes the outer of two time dimensions."""
    matrix = [[0] + list(row) for row in transform.matrix]
    matrix.insert(transform.space_dims, [1, 0, 0, 0])
    return SpaceTimeTransform(matrix, space_dims=transform.space_dims)


class TestVectorizedVsScalarSim:
    @pytest.mark.parametrize("transform_name", sorted(TRANSFORMS))
    @pytest.mark.parametrize("seed", [0, 7, 23])
    def test_dense_random_shapes(self, transform_name, seed):
        rng = np.random.default_rng([seed, 11])
        i, j, k = (int(d) for d in rng.integers(2, 7, 3))
        transform = TRANSFORMS[transform_name]()
        design = compile_design(
            matmul_spec(), Bounds({"i": i, "j": j, "k": k}), transform
        )
        tensors = {"A": rng.integers(-4, 5, (i, k)), "B": rng.integers(-4, 5, (k, j))}
        _assert_same_run(*_run_both_paths(design, tensors))

        n = int(rng.integers(2, 4))
        design = compile_design(
            batched_matmul_spec(),
            Bounds({"n": n, "i": i, "j": j, "k": k}),
            _batch_lifted(transform),
        )
        tensors = {
            "A": rng.integers(-4, 5, (n, i, k)),
            "B": rng.integers(-4, 5, (n, k, j)),
        }
        fast, slow = _run_both_paths(design, tensors)
        _assert_same_run(fast, slow)
        assert np.array_equal(fast.outputs["C"], tensors["A"] @ tensors["B"])

    # One tensor read, two skips, an index-only condition, a wildcard row.
    @pytest.mark.parametrize(
        "sparsity",
        [csr_b_matrix, csr_csc_both, diagonal_a_matrix, empty_rows_of_a],
        ids=lambda factory: factory.__name__,
    )
    @pytest.mark.parametrize("transform_name", ["output-stationary", "input-stationary"])
    @pytest.mark.parametrize("density", [0.0, 0.3, 0.8])
    @pytest.mark.parametrize("balanced", [False, True])
    def test_sparse_random_densities(
        self, transform_name, density, balanced, sparsity
    ):
        rng = np.random.default_rng([int(density * 10), balanced, 5])
        i, j, k = (int(d) for d in rng.integers(3, 7, 3))
        spec = matmul_spec()
        design = compile_design(
            spec,
            Bounds({"i": i, "j": j, "k": k}),
            TRANSFORMS[transform_name](),
            sparsity=sparsity(spec),
            balancing=row_shift_scheme(max(i // 2, 1)) if balanced else None,
        )
        # csr_b_matrix's skip reads only B, so its A stays dense; the
        # other three skip on A (or on the diagonal of A).
        if sparsity is csr_b_matrix:
            a = rng.integers(-4, 5, (i, k))
        else:
            a = _masked(rng, (i, k), density)
        tensors = {"A": a, "B": _masked(rng, (k, j), density)}
        _assert_same_run(*_run_both_paths(design, tensors))

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

    def test_output_cell_written_twice_keeps_loop_order(self):
        """``O[k]`` is written at every ``i``; the last write in schedule
        order (``t = -i``: ``i = 0``) wins, not the last in point order."""
        i, k = Index("i"), Index("k")
        A, O, a = Tensor("A", 2), Tensor("O", 1), Local("a", 2)
        spec = FunctionalSpec("overwrite", [i, k])
        spec.let(a[i, k], A[i, k])
        spec.let(O[k], a[i, k])
        design = compile_design(
            spec, Bounds({"i": 3, "k": 2}),
            SpaceTimeTransform([[0, 1], [-1, 0]]), check=False,
        )
        tensors = {"A": np.arange(6).reshape(3, 2)}
        fast, slow = _run_both_paths(design, tensors)
        _assert_same_run(fast, slow)
        assert fast.outputs["O"].tolist() == [0, 1]

    def test_recurrence_backwards_in_point_order(self):
        """A suffix sum along ``j`` scheduled with ``t = -j`` is causal,
        though the reference interpreter's point order cannot run it."""
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
        fast, slow = _run_both_paths(design, tensors)
        _assert_same_run(fast, slow)
        assert fast.outputs["C"].tolist() == [5, 17]

    def test_untaken_select_branch_is_never_read(self):
        """The ``Select``'s false branch reads ``c`` one step ahead, which
        would be acausal, but the condition never picks it."""
        i, k = Index("i"), Index("k")
        A, C = Tensor("A", 2), Tensor("C", 1)
        c = Local("c", 2)
        spec = FunctionalSpec("guarded", [i, k])
        spec.let(c[i, k.lower_bound], 0)
        spec.let(c[i, k], Select(
            Comparison(">=", IndexValue(k), Const(0)),
            c[i, k - 1] + A[i, k],
            c[i, k + 1],
        ))
        spec.let(C[i], c[i, k.upper_bound])
        design = compile_design(
            spec, Bounds({"i": 2, "k": 3}),
            SpaceTimeTransform([[1, 0], [0, 1]]), check=False,
        )
        tensors = {"A": np.arange(6).reshape(2, 3)}
        fast, slow = _run_both_paths(design, tensors)
        _assert_same_run(fast, slow)
        assert fast.outputs["C"].tolist() == [3, 12]

    def test_boundary_rule_reading_a_local(self):
        """``c``'s phantom slot reads ``a``, which the recurrence's first
        step reaches before ``a`` is produced at that point; only the
        loop sees reads made while resolving an out-of-domain value."""
        i, k = Index("i"), Index("k")
        A, D = Tensor("A", 2), Tensor("D", 2)
        a, c = Local("a", 2), Local("c", 2)
        spec = FunctionalSpec("phantom", [i, k])
        spec.let(c[i, k.lower_bound], A[i, k] + a[i, k])
        spec.let(c[i, k], c[i, k - 1] + 1)
        spec.let(a[i, k], A[i, k])
        spec.let(D[i, k], c[i, k])
        design = compile_design(
            spec, Bounds({"i": 2, "k": 3}),
            SpaceTimeTransform([[1, 0], [0, 1]]), check=False,
        )
        tensors = {"A": np.arange(6).reshape(2, 3)}
        errors = []
        for vectorize in (True, False):
            sim = SpatialArraySim(design, memo=None, vectorize=vectorize)
            with pytest.raises(SpecError) as excinfo:
                sim.run(tensors)
            errors.append(str(excinfo.value))
        assert errors[0] == errors[1]
        assert errors[0].startswith("read of a at (0, 0) before its producing")


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
        """A full sparse sim run, whose outputs come from the batched
        kernel, must match the scalar interpreter byte for byte, and
        its cycle count must match the per-point skip path's."""
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
        run = SpatialArraySim(design, memo=None).run(tensors)
        want = spec.interpret(design.bounds, tensors, kernel=False)
        assert run.outputs["C"].tobytes() == want["C"].tobytes()
        assert run.outputs["C"].dtype == want["C"].dtype
        scalar = SpatialArraySim(design, memo=None, vectorize=False).run(tensors)
        assert run.cycles == scalar.cycles

    def test_partial_fallback_mask_parity(self):
        """One batch-unsupported skip condition (a data-dependent
        subscript) must be evaluated scalar *on its own* and OR-ed into
        the batched mask of its supported sibling -- never discard it."""
        A, i, k = Tensor("A", 2), Index("i"), Index("k")
        _assert_k_skip_parity(A[i, IndexValue(k) + 0] == 0, batched=False)

    def test_select_condition_mask_parity(self):
        """A ``Select`` skip condition is batched (both branches over
        every lane) and keeps the same points as the scalar path."""
        A, i, k = Tensor("A", 2), Index("i"), Index("k")
        _assert_k_skip_parity(Select(A[i, k] == 0, 1, 0) == 1, batched=True)

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

    @pytest.mark.parametrize("vectorize", [False, True])
    def test_scalar_skip_read_out_of_range_names_tensor(self, vectorize):
        """An out-of-range tensor read inside a skip condition surfaces
        as a :class:`SpecError` naming the tensor and coordinates, not a
        bare ``IndexError``."""
        idx_j, idx_k = Index("j"), Index("k")
        B = Tensor("B", 2)
        condition = B[idx_k + 10, idx_j] == 0
        with pytest.raises(
            SpecError,
            match=r"tensor 'B' at out-of-range coordinates \(10, 0\)",
        ):
            _run_skip(condition, vectorize, B=np.ones((2, 2), dtype=np.int64))

    @pytest.mark.parametrize("vectorize", [False, True])
    @pytest.mark.parametrize(
        "subscripts, tensors, message",
        [
            ((0, 0), {}, r"no data provided for tensor 'B'"),
            ((WILDCARD, 0), {}, r"no data provided for tensor 'B'"),
            (
                (WILDCARD, 10),
                {"B": np.ones((2, 2), dtype=np.int64)},
                r"tensor 'B' at out-of-range coordinates \(->, 10\)"
                r" \(shape \(2, 2\)\)",
            ),
        ],
        ids=["missing", "wildcard-missing", "wildcard-out-of-range"],
    )
    def test_skip_read_failures_name_tensor(
        self, subscripts, tensors, message, vectorize
    ):
        """Every failing skip read -- a missing tensor, a wildcard row of
        a missing tensor, a wildcard row out of range -- raises the same
        :class:`SpecError` naming the tensor on both paths."""
        B = Tensor("B", 2)
        idx_j = Index("j")
        subscripts = tuple(idx_j + s if isinstance(s, int) else s for s in subscripts)
        with pytest.raises(SpecError, match=message):
            _run_skip(B[subscripts] == 0, vectorize, **tensors)


def _assert_k_skip_parity(condition, batched):
    """Skip ``j`` where B is zero and ``k`` where ``condition`` holds:
    ``skip_mask`` batches ``condition`` (or falls back on it, per
    ``batched``), and the vectorized and scalar paths keep the same
    points and produce the same run."""
    rng = np.random.default_rng(17)
    i, j, k = 4, 3, 5
    idx_j, idx_k = Index("j"), Index("k")
    B = Tensor("B", 2)
    sparsity = SparsityStructure(
        [Skip([idx_j], B[idx_k, idx_j] == 0), Skip([idx_k], condition)]
    )
    bounds = Bounds({"i": i, "j": j, "k": k})
    spec = matmul_spec()
    design = compile_design(
        spec, bounds, output_stationary(), sparsity=sparsity, check=False
    )
    tensors = {
        "A": _masked(rng, (i, k), 0.6),
        "B": _masked(rng, (k, j), 0.5),
    }
    if batched:
        skip_mask(spec, bounds, tensors, condition)
    else:
        with pytest.raises(KernelFallback, match="data-dependent"):
            skip_mask(spec, bounds, tensors, condition)
    fast = SpatialArraySim(design, memo=None, vectorize=True)
    slow = SpatialArraySim(design, memo=None, vectorize=False)
    fast_points = fast._valid_points(tensors)
    assert np.array_equal(fast_points, slow._valid_points(tensors))
    # Both masks actually bit: fewer points than the dense domain,
    # more than the supported condition alone would leave.
    assert 0 < len(fast_points) < i * j * k
    fast_run, slow_run = fast.run(tensors), slow.run(tensors)
    assert fast_run.outputs["C"].tobytes() == slow_run.outputs["C"].tobytes()
    assert fast_run.cycles == slow_run.cycles


def _run_skip(condition, vectorize, **tensors):
    """Run a 2x2x2 matmul that skips ``j`` where ``condition`` holds."""
    design = compile_design(
        matmul_spec(),
        Bounds({"i": 2, "j": 2, "k": 2}),
        output_stationary(),
        sparsity=SparsityStructure([Skip([Index("j")], condition)]),
        check=False,
    )
    tensors.setdefault("A", np.ones((2, 2), dtype=np.int64))
    return SpatialArraySim(design, memo=None, vectorize=vectorize).run(tensors)


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
