"""Tests for the Accelerator facade (the Figure 1 design flow)."""

import numpy as np
import pytest

from repro.analysis import check_netlist, errors_only
from repro.core import Accelerator, Bounds, output_stationary, input_stationary
from repro.core.sparsity import csr_b_matrix
from repro.core.balancing import row_shift_scheme


@pytest.fixture
def acc(spec):
    return Accelerator(
        spec=spec,
        bounds={"i": 4, "j": 4, "k": 4},
        transform=output_stationary(),
    )


class TestFacade:
    def test_bounds_from_mapping(self, acc):
        assert isinstance(acc.bounds, Bounds)

    def test_build(self, acc):
        design = acc.build()
        assert design.pe_count == 16
        assert design.name == "matmul"

    def test_run_produces_correct_outputs(self, acc, small_matrices):
        A, B = small_matrices
        result = acc.build().run({"A": A, "B": B})
        assert np.array_equal(result.outputs["C"], A @ B)

    def test_to_verilog(self, acc):
        verilog = acc.build().to_verilog()
        assert "module matmul_top" in verilog
        assert "endmodule" in verilog

    def test_to_netlist_lints_clean(self, acc):
        assert errors_only(check_netlist(acc.build().to_netlist())) == []

    def test_area_report(self, acc):
        report = acc.build().area_report()
        assert report.total > 0
        assert "Matmul array" in report.components

    def test_summary(self, acc):
        assert "matmul" in acc.build().summary()


class TestAxisReplacement:
    """Each with_* helper swaps exactly one design concern."""

    def test_with_transform(self, acc):
        other = acc.with_transform(input_stationary())
        assert other.spec is acc.spec
        assert other.transform is not acc.transform
        design = other.build()
        assert design.dataflow_roles["b"] == "stationary"

    def test_with_sparsity(self, acc, spec):
        other = acc.with_sparsity(csr_b_matrix(spec)).with_transform(
            input_stationary()
        )
        design = other.build()
        assert design.pruned_variables() == ["c"]

    def test_with_balancing(self, acc):
        other = acc.with_balancing(row_shift_scheme(2))
        assert other.build().balancer is not None
        assert acc.build().balancer is None

    def test_with_bounds(self, acc):
        other = acc.with_bounds({"i": 2, "j": 2, "k": 2})
        assert other.build().pe_count == 4

    def test_original_unchanged(self, acc):
        acc.with_bounds({"i": 2, "j": 2, "k": 2})
        assert acc.build().pe_count == 16

    def test_replacement_preserves_correctness(self, acc, small_matrices):
        """Changing the dataflow axis never changes functional results."""
        A, B = small_matrices
        for other in (
            acc,
            acc.with_transform(input_stationary()),
        ):
            result = other.build().run({"A": A, "B": B})
            assert np.array_equal(result.outputs["C"], A @ B)
