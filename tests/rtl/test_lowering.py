"""Tests for lowering compiled designs to netlists and Verilog."""

import pytest

from repro.analysis import check_netlist, errors_only
from repro.core import compile_design
from repro.core.balancing import row_shift_scheme
from repro.core.dataflow import hexagonal, input_stationary, output_stationary
from repro.core.memspec import block_crs_buffer, csr_buffer, dense_matrix_buffer
from repro.core.sparsity import a100_two_four, csr_b_matrix
from repro.rtl.lowering import lower_design


@pytest.fixture
def dense_design(spec, bounds4):
    return compile_design(spec, bounds4, output_stationary())


@pytest.fixture
def sparse_design(spec, bounds4):
    return compile_design(
        spec, bounds4, input_stationary(), sparsity=csr_b_matrix(spec)
    )


class TestModuleInventory:
    def test_dense_modules(self, dense_design):
        nl = lower_design(dense_design)
        names = set(nl.modules)
        assert "matmul_pe" in names
        assert "matmul_array" in names
        assert "matmul_dma" in names
        assert "matmul_top" in names
        assert any(n.startswith("matmul_rf_") for n in names)

    def test_pe_instances_match_pe_count(self, dense_design):
        nl = lower_design(dense_design)
        array = nl.module("matmul_array")
        pe_instances = [
            i for i in array.instances if i.module_name == "matmul_pe"
        ]
        assert len(pe_instances) == dense_design.pe_count

    def test_balancer_emitted_when_present(self, spec, bounds4):
        design = compile_design(
            spec, bounds4, input_stationary(), balancing=row_shift_scheme(2)
        )
        nl = lower_design(design)
        assert "matmul_balancer" in nl.modules

    def test_no_balancer_by_default(self, dense_design):
        nl = lower_design(dense_design)
        assert "matmul_balancer" not in nl.modules

    def test_membuf_modules(self, spec, bounds4):
        design = compile_design(
            spec,
            bounds4,
            output_stationary(),
            membufs={
                "A": dense_matrix_buffer("A", 4, 4),
                "B": csr_buffer("B", rows=4),
            },
        )
        nl = lower_design(design)
        assert "matmul_membuf_A" in nl.modules
        assert "matmul_membuf_B" in nl.modules

    def test_compressed_membuf_has_metadata_srams(self, spec, bounds4):
        design = compile_design(
            spec, bounds4, output_stationary(),
            membufs={"B": csr_buffer("B", rows=4)},
        )
        nl = lower_design(design)
        membuf = nl.module("matmul_membuf_B")
        names = {n.name for n in membuf.nets}
        assert any("row_ids" in n for n in names)
        assert any("coords" in n for n in names)

    def test_block_crs_membuf_has_four_stages(self, spec, bounds4):
        design = compile_design(
            spec, bounds4, output_stationary(),
            membufs={"W": block_crs_buffer("W", block_rows=4)},
        )
        nl = lower_design(design)
        membuf = nl.module("matmul_membuf_W")
        stage_valids = [
            n.name for n in membuf.nets if n.name.endswith("_valid") and "stage" in n.name
        ]
        assert len(stage_valids) == 4  # Figure 12


class TestPEStructure:
    def test_pe_has_time_counter(self, dense_design):
        """Every Stellar PE carries the Figure 11 time counter."""
        nl = lower_design(dense_design)
        pe = nl.module("matmul_pe")
        assert "t_counter" in {n.name for n in pe.nets}

    def test_pruned_variable_has_rf_ports(self, sparse_design):
        """After the Figure 4 rewrite, c talks to regfiles directly."""
        nl = lower_design(sparse_design)
        pe = nl.module("matmul_pe")
        port_names = {p.name for p in pe.ports}
        assert "c_rf_rd_data" in port_names
        assert "c_rf_wr_data" in port_names
        assert "c_in" not in port_names

    def test_dense_variable_has_pipe_ports(self, dense_design):
        nl = lower_design(dense_design)
        pe = nl.module("matmul_pe")
        port_names = {p.name for p in pe.ports}
        assert "a_in" in port_names and "a_out" in port_names

    def test_stationary_variable_holds(self, sparse_design):
        nl = lower_design(sparse_design)
        pe = nl.module("matmul_pe")
        assert "b_hold" in {n.name for n in pe.nets}

    def test_optimistic_bundle_widens_ports(self, spec, bounds4):
        """Figure 5: OptimisticSkip produces 4x-wide bundle wires."""
        design = compile_design(
            spec, bounds4, output_stationary(), sparsity=a100_two_four(spec)
        )
        nl = lower_design(design)
        pe = nl.module("matmul_pe")
        a_in = pe.port("a_in")
        assert a_in.width == 32 * 4


class TestLintCleanliness:
    @pytest.mark.parametrize("transform", [
        output_stationary(), input_stationary(), hexagonal(),
    ])
    def test_dense_designs_lint_clean(self, spec, bounds4, transform):
        design = compile_design(spec, bounds4, transform)
        assert errors_only(check_netlist(lower_design(design))) == []

    def test_sparse_design_lints_clean(self, sparse_design):
        assert errors_only(check_netlist(lower_design(sparse_design))) == []

    def test_full_design_lints_clean(self, spec, bounds4):
        design = compile_design(
            spec,
            bounds4,
            input_stationary(),
            sparsity=csr_b_matrix(spec),
            balancing=row_shift_scheme(2),
            membufs={
                "A": dense_matrix_buffer("A", 4, 4),
                "B": csr_buffer("B", rows=4),
            },
        )
        assert errors_only(check_netlist(lower_design(design))) == []

    def test_dma_inflight_variant_lints_clean(self, dense_design):
        assert errors_only(check_netlist(lower_design(dense_design, max_inflight_dma=16))) == []


class TestVerilogOutput:
    def test_verilog_has_all_modules(self, dense_design):
        nl = lower_design(dense_design)
        text = nl.emit()
        for name in nl.modules:
            assert f"module {name} (" in text

    def test_dma_inflight_encoded(self, dense_design):
        text = lower_design(dense_design, max_inflight_dma=16).emit()
        assert "16" in text
