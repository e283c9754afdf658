"""Tests for the spatial-array simulator (Figures 6 and 11 behaviours)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Bounds, compile_design, matmul_spec
from repro.core.balancing import flexible_pe_scheme, row_shift_scheme
from repro.core.dataflow import hexagonal, input_stationary, output_stationary
from repro.core.sparsity import (
    a100_two_four,
    csr_b_matrix,
    csr_csc_both,
    diagonal_a_matrix,
)
from repro.sim.spatial_array import SpatialArraySim


def _run(design, A, B):
    return SpatialArraySim(design).run({"A": A, "B": B})


class TestDenseExecution:
    @pytest.mark.parametrize(
        "transform",
        [output_stationary(), input_stationary(), hexagonal()],
        ids=["output-stationary", "input-stationary", "hexagonal"],
    )
    def test_matches_numpy(self, spec, bounds4, small_matrices, transform):
        A, B = small_matrices
        design = compile_design(spec, bounds4, transform)
        result = _run(design, A, B)
        assert np.array_equal(result.outputs["C"], A @ B)

    def test_cycle_count_is_schedule_length(self, spec, bounds4, small_matrices):
        A, B = small_matrices
        design = compile_design(spec, bounds4, output_stationary())
        result = _run(design, A, B)
        assert result.cycles == 10  # t = i + j + k over [0, 9]

    def test_utilization_matches_bound(self, spec, bounds4, small_matrices):
        A, B = small_matrices
        design = compile_design(spec, bounds4, output_stationary())
        result = _run(design, A, B)
        assert result.utilization == pytest.approx(
            design.array.utilization_bound()
        )

    def test_mac_count(self, spec, bounds4, small_matrices):
        A, B = small_matrices
        design = compile_design(spec, bounds4, output_stationary())
        result = _run(design, A, B)
        assert result.counters.macs == 64  # 4^3

    def test_fill_drain_overhead_charged(self, spec, bounds4, small_matrices):
        A, B = small_matrices
        design = compile_design(spec, bounds4, output_stationary())
        plain = SpatialArraySim(design).run({"A": A, "B": B})
        padded = SpatialArraySim(design, fill_drain_overhead=7).run(
            {"A": A, "B": B}
        )
        assert padded.cycles == plain.cycles + 7
        assert padded.utilization < plain.utilization

    def test_pipelined_time_row_stretches_schedule(self, spec, bounds4, small_matrices):
        """Figure 3: scaling the time row lengthens the schedule but the
        results are unchanged."""
        A, B = small_matrices
        base = compile_design(spec, bounds4, output_stationary())
        deep = compile_design(
            spec, bounds4, output_stationary().with_time_row([2, 2, 2])
        )
        r_base, r_deep = _run(base, A, B), _run(deep, A, B)
        assert np.array_equal(r_deep.outputs["C"], r_base.outputs["C"])
        assert r_deep.cycles > r_base.cycles

    @settings(max_examples=20, deadline=None)
    @given(
        n=st.integers(2, 5),
        seed=st.integers(0, 2**31 - 1),
        which=st.sampled_from(["os", "is", "hex"]),
    )
    def test_property_dataflow_never_changes_results(self, n, seed, which):
        """Functionality and dataflow are independent axes: any legal
        transform computes the same matmul."""
        rng = np.random.default_rng(seed)
        A = rng.integers(-6, 7, (n, n))
        B = rng.integers(-6, 7, (n, n))
        transform = {
            "os": output_stationary(),
            "is": input_stationary(),
            "hex": hexagonal(),
        }[which]
        spec = matmul_spec()
        design = compile_design(spec, Bounds({"i": n, "j": n, "k": n}), transform)
        result = SpatialArraySim(design).run({"A": A, "B": B})
        assert np.array_equal(result.outputs["C"], A @ B)


class TestSparseExecution:
    def test_csr_correctness(self, spec, bounds4, rng):
        A = rng.integers(-4, 5, (4, 4))
        B = rng.integers(-4, 5, (4, 4)) * (rng.random((4, 4)) < 0.4)
        design = compile_design(
            spec, bounds4, input_stationary(), sparsity=csr_b_matrix(spec)
        )
        result = _run(design, A, B)
        assert np.array_equal(result.outputs["C"], A @ B)

    def test_sparser_input_runs_faster(self, spec, rng):
        n = 8
        bounds = Bounds({"i": n, "j": n, "k": n})
        A = rng.integers(1, 5, (n, n))
        B_dense = rng.integers(1, 5, (n, n))
        B_sparse = B_dense * (rng.random((n, n)) < 0.2)
        design = compile_design(
            spec, bounds, input_stationary(), sparsity=csr_b_matrix(spec)
        )
        dense_run = _run(design, A, B_dense)
        sparse_run = _run(design, A, B_sparse)
        assert sparse_run.cycles < dense_run.cycles

    def test_empty_matrix(self, spec, bounds4, rng):
        A = rng.integers(1, 5, (4, 4))
        B = np.zeros((4, 4), dtype=int)
        design = compile_design(
            spec, bounds4, input_stationary(), sparsity=csr_b_matrix(spec)
        )
        result = _run(design, A, B)
        assert result.counters.macs == 0

    def test_outer_product_correctness(self, spec, bounds4, rng):
        A = rng.integers(-4, 5, (4, 4)) * (rng.random((4, 4)) < 0.5)
        B = rng.integers(-4, 5, (4, 4)) * (rng.random((4, 4)) < 0.5)
        design = compile_design(
            spec, bounds4, output_stationary(), sparsity=csr_csc_both(spec)
        )
        result = _run(design, A, B)
        assert np.array_equal(result.outputs["C"], A @ B)

    def test_diagonal_skip(self, spec, bounds4, rng):
        """Listing 2 line 5: only the i == k iterations execute."""
        A = np.diag(rng.integers(1, 5, 4))
        B = rng.integers(-4, 5, (4, 4))
        design = compile_design(
            spec, bounds4, output_stationary(), sparsity=diagonal_a_matrix(spec)
        )
        result = _run(design, A, B)
        assert result.counters.macs <= 16  # diagonal plane only

    @settings(max_examples=15, deadline=None)
    @given(
        n=st.integers(2, 6),
        density=st.floats(0.1, 0.9),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_property_sparse_correct_and_no_slower(self, n, density, seed):
        """Sparse execution is always correct and never slower than the
        dense schedule of the same design."""
        rng = np.random.default_rng(seed)
        A = rng.integers(-5, 6, (n, n))
        B = rng.integers(-5, 6, (n, n)) * (rng.random((n, n)) < density)
        spec = matmul_spec()
        bounds = Bounds({"i": n, "j": n, "k": n})
        design = compile_design(
            spec, bounds, input_stationary(), sparsity=csr_b_matrix(spec)
        )
        result = SpatialArraySim(design).run({"A": A, "B": B})
        assert np.array_equal(result.outputs["C"], A @ B)
        dense_schedule = 3 * (n - 1) + 1
        assert result.cycles <= dense_schedule


def _sorted_rank_compression(design, valid):
    """Point-by-point reference: each skipped iterator's value becomes its
    index in the sorted set of valid values of its fiber (the points that
    agree on the iterators it depends on)."""
    names = design.spec.index_names
    expansion = design.sparsity.expansion_dependencies()
    packed = [list(point) for point in valid]
    for axis, name in enumerate(names):
        if name not in expansion:
            continue
        deps = sorted(names.index(d) for d in expansion[name])
        fibers = {}
        for point in valid:
            context = tuple(point[d] for d in deps)
            fibers.setdefault(context, set()).add(point[axis])
        for row, point in zip(packed, valid):
            fiber = sorted(fibers[tuple(point[d] for d in deps)])
            row[axis] = fiber.index(point[axis])
    return packed


class TestCompression:
    """Skip masks and fiber compression against a reference written
    out point by point here, not against another path of the simulator."""

    I, J, K = 3, 5, 4

    def _check(self, sparsity, A, B, survives):
        spec = matmul_spec()
        design = compile_design(
            spec,
            Bounds({"i": self.I, "j": self.J, "k": self.K}),
            output_stationary(),
            sparsity=sparsity(spec),
        )
        sim = SpatialArraySim(design, memo=None)
        valid = [
            (i, j, k)
            for i in range(self.I)
            for j in range(self.J)
            for k in range(self.K)
            if survives(A, B, i, j, k)
        ]
        points = sim._valid_points({"A": A, "B": B})
        assert points.tolist() == [list(p) for p in valid]
        if valid:
            assert sim._compress_points(points).tolist() == (
                _sorted_rank_compression(design, valid)
            )
        return sim

    def _operands(self, density):
        rng = np.random.default_rng(11)
        A = rng.integers(1, 5, (self.I, self.K)) * (
            rng.random((self.I, self.K)) < density
        )
        B = rng.integers(1, 5, (self.K, self.J)) * (
            rng.random((self.K, self.J)) < density
        )
        return A, B

    def test_b_csr(self):
        A, B = self._operands(0.5)
        self._check(csr_b_matrix, A, B, lambda A, B, i, j, k: B[k, j] != 0)

    def test_outer_product_compresses_two_iterators(self):
        A, B = self._operands(0.6)
        self._check(
            csr_csc_both, A, B,
            lambda A, B, i, j, k: A[i, k] != 0 and B[k, j] != 0,
        )

    def test_a100_two_four_keeps_every_point_in_place(self):
        A, B = self._operands(0.5)
        sim = self._check(a100_two_four, A, B, lambda *_: True)
        points = sim._valid_points({"A": A, "B": B})
        assert np.array_equal(sim._compress_points(points), points)

    def test_fiber_with_one_survivor(self):
        A, B = self._operands(1.0)
        B[1] = 0
        B[1, 3] = 7  # row k=1 keeps only j=3, which packs to slot 0
        sim = self._check(csr_b_matrix, A, B, lambda A, B, i, j, k: B[k, j] != 0)
        packed = sim._compress_points(sim._valid_points({"A": A, "B": B}))
        assert set(packed[packed[:, 2] == 1, 1].tolist()) == {0}

    def test_all_zero_b_returns_the_scalar_outputs(self):
        A, _ = self._operands(1.0)
        B = np.zeros((self.K, self.J), dtype=np.int64)
        sim = self._check(csr_b_matrix, A, B, lambda *_: False)
        result = sim.run({"A": A, "B": B})
        assert result.schedule_length == 0 and result.counters.macs == 0
        scalar = sim.design.spec.interpret(
            sim.design.bounds, {"A": A, "B": B}, kernel=False
        )
        assert result.outputs.keys() == scalar.keys()
        for name, array in scalar.items():
            assert result.outputs[name].tobytes() == array.tobytes()
            assert result.outputs[name].dtype == array.dtype
            assert result.outputs[name].shape == array.shape


class TestLoadBalancedExecution:
    def _imbalanced(self, n, rng):
        A = rng.integers(1, 5, (n, n))
        B = np.zeros((n, n), dtype=int)
        B[0, :] = rng.integers(1, 5, n)  # one long row, rest nearly empty
        B[n // 2, 0] = 3
        return A, B

    def test_balancing_reduces_cycles(self, spec, rng):
        """Figure 6: adjacent-row balancing shortens imbalanced runs."""
        n = 8
        bounds = Bounds({"i": n, "j": n, "k": n})
        A, B = self._imbalanced(n, rng)
        base = compile_design(
            spec, bounds, input_stationary(), sparsity=csr_b_matrix(spec)
        )
        balanced = compile_design(
            spec,
            bounds,
            input_stationary(),
            sparsity=csr_b_matrix(spec),
            balancing=row_shift_scheme(n // 2),
        )
        r_base = _run(base, A, B)
        r_bal = _run(balanced, A, B)
        assert r_bal.cycles < r_base.cycles
        assert r_bal.counters.balancer_shifts > 0

    def test_balancing_preserves_results(self, spec, rng):
        n = 8
        bounds = Bounds({"i": n, "j": n, "k": n})
        A, B = self._imbalanced(n, rng)
        balanced = compile_design(
            spec,
            bounds,
            input_stationary(),
            sparsity=csr_b_matrix(spec),
            balancing=row_shift_scheme(n // 2),
        )
        result = _run(balanced, A, B)
        assert np.array_equal(result.outputs["C"], A @ B)

    def test_balanced_never_slower(self, spec, rng):
        """Balancing may be a no-op but must never lengthen the schedule."""
        n = 6
        bounds = Bounds({"i": n, "j": n, "k": n})
        for _ in range(5):
            A = rng.integers(1, 5, (n, n))
            B = rng.integers(0, 3, (n, n)) * (rng.random((n, n)) < 0.5)
            base = compile_design(
                spec, bounds, input_stationary(), sparsity=csr_b_matrix(spec)
            )
            balanced = compile_design(
                spec,
                bounds,
                input_stationary(),
                sparsity=csr_b_matrix(spec),
                balancing=row_shift_scheme(n // 2),
            )
            assert _run(balanced, A, B).cycles <= _run(base, A, B).cycles

    def test_pe_granular_balancing(self, spec, rng):
        n = 8
        bounds = Bounds({"i": n, "j": n, "k": n})
        A, B = self._imbalanced(n, rng)
        balanced = compile_design(
            spec,
            bounds,
            input_stationary(),
            sparsity=csr_b_matrix(spec),
            balancing=flexible_pe_scheme(n),
        )
        result = _run(balanced, A, B)
        assert np.array_equal(result.outputs["C"], A @ B)
