"""Integration tests for the full compilation pipeline (Section IV, Fig 7)."""

import os
import pickle
import pickletools

import pytest

from repro.analysis.check import _compiled_of, discover_examples
from repro.core import SpecError, compile_design
from repro.core.balancing import flexible_pe_scheme, row_shift_scheme
from repro.core.dataflow import (
    SpaceTimeTransform,
    hexagonal,
    input_stationary,
    output_stationary,
)
from repro.core.memspec import HardcodedParams, csr_buffer, dense_matrix_buffer
from repro.core.passes.regfile_opt import RegfileKind
from repro.core.sparsity import a100_two_four, csr_b_matrix, csr_csc_both


class TestDenseCompilation:
    def test_output_stationary(self, spec, bounds4):
        design = compile_design(spec, bounds4, output_stationary())
        assert design.pe_count == 16
        assert design.array.schedule_length == 10
        assert design.pruned_variables() == []

    def test_dataflow_roles(self, spec, bounds4):
        design = compile_design(spec, bounds4, input_stationary())
        assert design.dataflow_roles["b"] == "stationary"

    def test_hexagonal(self, spec, bounds4):
        design = compile_design(spec, bounds4, hexagonal())
        assert design.pe_count > 16

    def test_regfiles_for_all_io_variables(self, spec, bounds4):
        design = compile_design(spec, bounds4, output_stationary())
        assert set(design.regfile_plans) == {"a", "b", "c"}

    def test_summary_mentions_design(self, spec, bounds4):
        design = compile_design(spec, bounds4, output_stationary())
        text = design.summary()
        assert "16 PEs" in text
        assert "regfile[b]" in text

    def test_illegal_schedule_rejected(self, spec, bounds4):
        bad = SpaceTimeTransform([[1, 0, 0], [0, 1, 0], [1, 1, -1]])
        with pytest.raises(SpecError):
            compile_design(spec, bounds4, bad)


class TestSparseCompilation:
    def test_csr_prunes_accumulation(self, spec, bounds4):
        design = compile_design(
            spec, bounds4, input_stationary(), sparsity=csr_b_matrix(spec)
        )
        assert design.pruned_variables() == ["c"]
        assert design.array.conns_for("c") == []

    def test_sparse_regfiles_fall_back_to_crossbar(self, spec, bounds4):
        """Variables whose identity involves a compressed iterator get the
        searching baseline regfile (Section IV-D)."""
        design = compile_design(
            spec, bounds4, input_stationary(), sparsity=csr_b_matrix(spec)
        )
        # b and c depend on the skipped j.
        assert design.regfile_plans["b"].kind is RegfileKind.CROSSBAR
        assert design.regfile_plans["c"].kind is RegfileKind.CROSSBAR

    def test_outer_product_compiles(self, spec, bounds4):
        design = compile_design(
            spec, bounds4, output_stationary(), sparsity=csr_csc_both(spec)
        )
        assert "c" in design.pruned_variables()

    def test_a100_keeps_connections(self, spec, bounds4):
        design = compile_design(
            spec, bounds4, output_stationary(), sparsity=a100_two_four(spec)
        )
        assert design.pruned_variables() == []
        assert any(c.bundle == 4 for c in design.array.conns)


class TestBalancedCompilation:
    def test_row_scheme_plan(self, spec, bounds4):
        design = compile_design(
            spec, bounds4, input_stationary(), balancing=row_shift_scheme(2)
        )
        assert design.balancer is not None
        assert design.balancer.granularity == "row"
        assert design.balancer.bias_vectors == [(2, 0, -1)]

    def test_flexible_scheme_plan_and_pruning(self, spec, bounds4):
        design = compile_design(
            spec, bounds4, input_stationary(), balancing=flexible_pe_scheme(4)
        )
        assert design.balancer.granularity == "pe"
        assert set(design.pruned_variables()) == {"a", "b"}

    def test_no_balancer_by_default(self, spec, bounds4):
        design = compile_design(spec, bounds4, input_stationary())
        assert design.balancer is None


class TestMembufIntegration:
    def test_wavefront_membuf_unlocks_feedforward(self, spec, bounds4):
        """The Listing 6 / Figure 13 path through the full compiler."""
        membufs = {
            "B": dense_matrix_buffer(
                "B",
                4,
                4,
                hardcoded_read=HardcodedParams(
                    spans={0: 4, 1: 4}, wavefront=True
                ),
            )
        }
        design = compile_design(
            spec, bounds4, output_stationary(), membufs=membufs
        )
        assert design.regfile_plans["b"].kind is RegfileKind.FEEDFORWARD

    def test_unhardcoded_membuf_keeps_crossbar(self, spec, bounds4):
        membufs = {"B": dense_matrix_buffer("B", 4, 4)}
        design = compile_design(
            spec, bounds4, output_stationary(), membufs=membufs
        )
        assert design.regfile_plans["b"].kind is RegfileKind.CROSSBAR

    def test_membufs_recorded(self, spec, bounds4):
        membufs = {"B": csr_buffer("B", rows=4)}
        design = compile_design(spec, bounds4, output_stationary(), membufs=membufs)
        assert "B" in design.membufs


class TestSeparationOfConcerns:
    """The paper's core pitch: each axis can change independently."""

    def test_same_spec_many_dataflows(self, spec, bounds4):
        designs = [
            compile_design(spec, bounds4, t)
            for t in (output_stationary(), input_stationary(), hexagonal())
        ]
        pe_counts = {d.pe_count for d in designs}
        assert len(pe_counts) >= 2  # dataflow alone changes the array

    def test_sparsity_changes_only_connections(self, spec, bounds4):
        dense = compile_design(spec, bounds4, input_stationary())
        sparse = compile_design(
            spec, bounds4, input_stationary(), sparsity=csr_b_matrix(spec)
        )
        assert dense.pe_count == sparse.pe_count
        assert len(sparse.array.conns) < len(dense.array.conns)

    def test_balancing_changes_only_balancer_for_row_scheme(self, spec, bounds4):
        plain = compile_design(spec, bounds4, input_stationary())
        balanced = compile_design(
            spec, bounds4, input_stationary(), balancing=row_shift_scheme(2)
        )
        assert len(plain.array.conns) == len(balanced.array.conns)
        assert plain.balancer is None and balanced.balancer is not None


EXAMPLES = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "examples",
)
IR_CLASSES = {"IterationSpace", "VariableConns", "IORequests", "PhysicalPE"}


class TestCompiledCarriesHardware:
    """A compiled design holds the physical array, not the point graphs
    of the functional and pruned iteration spaces it came from."""

    @pytest.mark.parametrize(
        "example", discover_examples([EXAMPLES]), ids=lambda e: e.name
    )
    def test_pickle_names_no_ir_class(self, example):
        assert not example.error, example.error
        blob = pickle.dumps(_compiled_of(example.build()), protocol=4)
        names = {arg for _, arg, __ in pickletools.genops(blob)
                 if isinstance(arg, str)}
        assert names & IR_CLASSES == set()

    @pytest.mark.parametrize(
        "sparse, counts",
        [(False, (32, 16)), (True, (80, 64))],
        ids=["dense", "csr_b_matrix"],
    )
    def test_io_counts_of_pruned_space(self, spec, bounds4, sparse, counts):
        """``(inputs, outputs)`` IO requests: pruning ``c`` under CSR adds
        one regfile read and write per removed accumulation link."""
        design = compile_design(
            spec, bounds4, input_stationary(),
            sparsity=csr_b_matrix(spec) if sparse else None,
        )
        assert design.array.io_counts == counts
