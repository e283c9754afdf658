"""End-to-end integration tests across subsystems.

These tests exercise whole paper flows: spec -> compile -> simulate ->
Verilog; ISA-driven data movement feeding a spatial array; and the
property that *any* legal space-time transform preserves functional
behaviour (the deepest claim behind the dataflow axis).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import check_netlist, errors_only
from repro.core import Accelerator, Bounds, compile_design, matmul_spec
from repro.core.dataflow import (
    SpaceTimeTransform,
    output_stationary,
    validate_schedule,
)
from repro.core.expr import SpecError
from repro.core.memspec import csr_buffer, dense_matrix_buffer
from repro.core.sparsity import csr_b_matrix
from repro.formats import CSRMatrix
from repro.isa import Machine, StellarDriver
from repro.rtl.lowering import lower_design
from repro.sim.spatial_array import SpatialArraySim


def _random_unimodular(rng) -> SpaceTimeTransform:
    """A random unimodular 3x3 matrix built from elementary row operations
    on the identity -- always invertible with integer inverse."""
    matrix = np.eye(3, dtype=int)
    for _ in range(rng.integers(1, 6)):
        src, dst = rng.choice(3, size=2, replace=False)
        matrix[dst] += int(rng.integers(-2, 3)) * matrix[src]
    return SpaceTimeTransform(matrix.tolist())


class TestTransformGenerality:
    """Functionality and dataflow are orthogonal: any causally-legal
    transform computes the same results."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_property_random_unimodular_transforms(self, seed):
        rng = np.random.default_rng(seed)
        transform = _random_unimodular(rng)
        spec = matmul_spec()
        try:
            validate_schedule(spec, transform)
        except SpecError:
            return  # causality violation: legitimately rejected
        n = 3
        bounds = Bounds({"i": n, "j": n, "k": n})
        A = rng.integers(-5, 6, (n, n))
        B = rng.integers(-5, 6, (n, n))
        design = compile_design(spec, bounds, transform)
        result = SpatialArraySim(design).run({"A": A, "B": B})
        assert np.array_equal(result.outputs["C"], A @ B)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_property_random_transforms_lower_to_clean_rtl(self, seed):
        rng = np.random.default_rng(seed)
        transform = _random_unimodular(rng)
        spec = matmul_spec()
        try:
            validate_schedule(spec, transform)
        except SpecError:
            return
        design = compile_design(spec, Bounds({"i": 3, "j": 3, "k": 3}), transform)
        assert errors_only(check_netlist(lower_design(design))) == []


class TestFullSystemFlow:
    """ISA-driven data movement into buffers, then array execution."""

    DIM = 4

    def test_dram_to_buffer_to_array(self, rng):
        # 1. Place matrices in DRAM and move them in through the ISA.
        A = rng.integers(1, 6, (self.DIM, self.DIM)).astype(float)
        Bd = (
            (rng.random((self.DIM, self.DIM)) < 0.5)
            * rng.integers(1, 6, (self.DIM, self.DIM))
        ).astype(float)
        B = CSRMatrix.from_dense(Bd)

        machine = Machine(
            [
                dense_matrix_buffer("SRAM_A", self.DIM, self.DIM),
                csr_buffer("SRAM_B", rows=self.DIM),
            ]
        )
        machine.dram.place_array(0x1000, A)
        machine.dram.place_array(0x2000, B.data.astype(float))
        machine.dram.place_array(0x3000, B.indices.astype(float))
        machine.dram.place_array(0x4000, B.indptr.astype(float))

        driver = StellarDriver(machine)
        driver.set_src_and_dst("DRAM", "SRAM_A")
        driver.set_data_addr(driver.FOR_SRC, 0x1000)
        for axis in range(2):
            driver.set_span(driver.FOR_BOTH, axis, self.DIM)
            driver.set_axis(driver.FOR_BOTH, axis, driver.DENSE)
        driver.set_stride(driver.FOR_BOTH, 0, 1)
        driver.set_stride(driver.FOR_BOTH, 1, self.DIM)
        move_cycles = driver.stellar_issue()

        driver.set_src_and_dst("DRAM", "SRAM_B")
        driver.set_data_addr(driver.FOR_SRC, 0x2000)
        driver.set_metadata_addr(driver.FOR_SRC, 0, driver.ROW_ID, 0x4000)
        driver.set_metadata_addr(driver.FOR_SRC, 0, driver.COORDS, 0x3000)
        driver.set_span(driver.FOR_BOTH, 0, driver.ENTIRE_AXIS)
        driver.set_span(driver.FOR_BOTH, 1, self.DIM)
        driver.set_stride(driver.FOR_BOTH, 0, 1)
        driver.set_axis(driver.FOR_BOTH, 0, driver.COMPRESSED)
        driver.set_axis(driver.FOR_BOTH, 1, driver.DENSE)
        move_cycles += driver.stellar_issue()

        # 2. Execute the sparse array on the buffered contents.
        a_in = machine.buffer("SRAM_A").to_dense_matrix(self.DIM, self.DIM)
        b_in = machine.buffer("SRAM_B").to_dense_matrix(self.DIM, self.DIM)
        spec = matmul_spec()
        from repro.core.dataflow import input_stationary

        design = compile_design(
            spec,
            Bounds({"i": self.DIM, "j": self.DIM, "k": self.DIM}),
            input_stationary(),
            sparsity=csr_b_matrix(spec),
        )
        result = SpatialArraySim(design).run({"A": a_in, "B": b_in})

        # 3. The end-to-end product matches numpy on the original data.
        assert np.allclose(result.outputs["C"], A @ Bd)
        assert move_cycles > 0
        total_cycles = move_cycles + result.cycles
        assert total_cycles > result.cycles  # data movement is not free

    def test_accelerator_facade_full_loop(self, rng):
        """Accelerator -> build -> simulate + Verilog + area in one flow."""
        accelerator = Accelerator(
            spec=matmul_spec(),
            bounds={"i": 4, "j": 4, "k": 4},
            transform=output_stationary(),
        )
        design = accelerator.build()
        A = rng.integers(-3, 4, (4, 4))
        B = rng.integers(-3, 4, (4, 4))
        result = design.run({"A": A, "B": B})
        assert np.array_equal(result.outputs["C"], A @ B)
        verilog = design.to_verilog()
        assert "matmul_top" in verilog
        assert errors_only(check_netlist(design.to_netlist())) == []
        assert design.area_report().total > 0


class TestCrossSubsystemConsistency:
    def test_simulator_agrees_with_interpreter_on_conv(self, rng):
        from repro.core.functionality import conv1d_spec

        spec = conv1d_spec()
        bounds = Bounds({"ox": 4, "oc": 3, "f": 3})
        I = rng.integers(-4, 5, (4 + 3 - 1,))
        W = rng.integers(-4, 5, (3, 3))
        transform = SpaceTimeTransform([[1, 0, 0], [0, 1, 0], [1, 1, 1]])
        design = compile_design(spec, bounds, transform)
        sim_out = SpatialArraySim(design).run({"I": I, "W": W}).outputs
        ref_out = spec.interpret(bounds, {"I": I, "W": W}, kernel=False)
        assert np.array_equal(sim_out["O"], ref_out["O"])

    def test_area_scales_with_array_size(self):
        from repro.core.dataflow import output_stationary
        from repro.area.model import estimate_design_area

        spec = matmul_spec()
        small = compile_design(
            spec, Bounds({"i": 2, "j": 2, "k": 2}), output_stationary()
        )
        large = compile_design(
            spec, Bounds({"i": 8, "j": 8, "k": 8}), output_stationary()
        )
        assert (
            estimate_design_area(large)["Matmul array"]
            > 10 * estimate_design_area(small)["Matmul array"]
        )
