"""Tests for sparse data-structure specs (Section III-C, Listing 2)."""

import pytest

from repro.core import WILDCARD, Const, Index, SpecError, Tensor, matmul_spec
from repro.core.expr import Comparison
from repro.core.sparsity import (
    Skip,
    SparsityStructure,
    a100_two_four,
    csr_b_matrix,
    csr_csc_both,
    diagonal_a_matrix,
    empty_rows_of_a,
    row_operand,
)


class TestSkip:
    def test_csr_expansion_deps(self):
        """Skip j when B(k, j) == 0: j_expanded = f(k, j_compressed)."""
        j, k = Index("j"), Index("k")
        B = Tensor("B", 2)
        skip = Skip([j], B[k, j] == 0)
        assert skip.expansion_dependencies() == {"j": frozenset({"k"})}

    def test_structured_condition(self):
        i, k = Index("i"), Index("k")
        skip = Skip([i, k], i != k)
        assert skip.is_structured()
        deps = skip.expansion_dependencies()
        assert deps["i"] == frozenset({"k"})
        assert deps["k"] == frozenset({"i"})

    def test_tensor_condition_not_structured(self):
        j, k = Index("j"), Index("k")
        B = Tensor("B", 2)
        assert not Skip([j], B[k, j] == 0).is_structured()

    def test_condition_tensors(self):
        j, k = Index("j"), Index("k")
        B = Tensor("B", 2)
        skip = Skip([j], B[k, j] == 0)
        assert [t.name for t in skip.condition_tensors()] == ["B"]

    def test_empty_skip_rejected(self):
        j, k = Index("j"), Index("k")
        B = Tensor("B", 2)
        with pytest.raises(SpecError):
            Skip([], B[k, j] == 0)

    def test_optimistic_needs_bundle(self):
        j, k = Index("j"), Index("k")
        B = Tensor("B", 2)
        with pytest.raises(SpecError):
            Skip([j], B[k, j] == 0, optimistic=True, bundle=1)

    def test_bundle_without_optimistic_rejected(self):
        j, k = Index("j"), Index("k")
        B = Tensor("B", 2)
        with pytest.raises(SpecError):
            Skip([j], B[k, j] == 0, bundle=4)

    def test_validate_against_unknown_index(self):
        spec = matmul_spec()
        z = Index("z")
        B = Tensor("B", 2)
        skip = Skip([z], B[Index("k"), Index("j")] == 0)
        with pytest.raises(SpecError):
            skip.validate_against(spec)

    def test_validate_against_unknown_condition_index(self):
        spec = matmul_spec()
        j, z = Index("j"), Index("z")
        B = Tensor("B", 2)
        skip = Skip([j], B[z, j] == 0)
        with pytest.raises(SpecError):
            skip.validate_against(spec)

    def test_repr_mentions_kind(self):
        j, k = Index("j"), Index("k")
        B = Tensor("B", 2)
        assert "Skip" in repr(Skip([j], B[k, j] == 0))
        assert "OptimisticSkip" in repr(
            Skip([j], B[k, j] == 0, optimistic=True, bundle=4)
        )

    def test_row_operand_is_a_compared_wildcard_access(self):
        """Only a wildcard access on the left of a top-level comparison
        is a whole-row test."""
        i, j, k = Index("i"), Index("j"), Index("k")
        A, B = Tensor("A", 2), Tensor("B", 2)
        row = A[i, WILDCARD]
        assert row_operand(row == 0) is row
        assert row_operand(B[k, j] == 0) is None
        assert row_operand(Comparison("==", Const(0), row)) is None
        assert row_operand((row + 1) == 1) is None


class TestSparsityStructure:
    def test_dense_by_default(self):
        assert SparsityStructure().is_dense()

    def test_merged_expansion_deps(self):
        spec = matmul_spec()
        structure = csr_csc_both(spec)
        deps = structure.expansion_dependencies()
        assert deps["i"] == frozenset({"k"})
        assert deps["j"] == frozenset({"k"})

    def test_skipped_iterators(self):
        spec = matmul_spec()
        assert csr_csc_both(spec).skipped_iterators() == frozenset({"i", "j"})

    def test_optimistic_bundles_excluded_from_expansion(self):
        spec = matmul_spec()
        structure = a100_two_four(spec)
        assert structure.expansion_dependencies() == {}
        assert structure.optimistic_bundles() == {"k": 4}

    def test_len_and_iter(self):
        spec = matmul_spec()
        structure = csr_csc_both(spec)
        assert len(structure) == 2
        assert len(list(structure)) == 2


class TestCanonicalStructures:
    def test_csr_b(self):
        """Listing 5."""
        spec = matmul_spec()
        structure = csr_b_matrix(spec)
        assert structure.skipped_iterators() == frozenset({"j"})
        structure.validate_against(spec)

    def test_diagonal(self):
        """Listing 2 line 5."""
        spec = matmul_spec()
        structure = diagonal_a_matrix(spec)
        assert structure.skipped_iterators() == frozenset({"i", "k"})
        assert all(s.is_structured() for s in structure)

    def test_empty_rows(self):
        """Listing 2 line 7: wildcard row condition."""
        spec = matmul_spec()
        structure = empty_rows_of_a(spec)
        skip = structure.skips[0]
        assert skip.skipped_names == ("k",)
        # The wildcard access contributes i to the expansion dependencies.
        assert skip.expansion_dependencies()["k"] == frozenset({"i"})

    def test_a100(self):
        """Figure 5: 2:4 structured sparsity."""
        spec = matmul_spec()
        structure = a100_two_four(spec)
        skip = structure.skips[0]
        assert skip.optimistic
        assert skip.bundle == 4
