"""Tests for functional specifications (paper Section III-A, Listing 1)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Bounds, Index, Local, SpecError, Tensor
from repro.core.functionality import (
    AssignmentKind,
    FunctionalSpec,
    batched_matmul_spec,
    conv1d_spec,
    matmul_spec,
)


class TestSpecConstruction:
    def test_listing1_builds(self, spec):
        assert spec.name == "matmul"
        assert len(spec.assignments) == 7

    def test_assignment_kinds(self, spec):
        kinds = [a.kind for a in spec.assignments]
        assert kinds == [
            AssignmentKind.INPUT,
            AssignmentKind.INPUT,
            AssignmentKind.INIT,
            AssignmentKind.COMPUTE,
            AssignmentKind.COMPUTE,
            AssignmentKind.COMPUTE,
            AssignmentKind.OUTPUT,
        ]

    def test_locals_discovered(self, spec):
        assert sorted(v.name for v in spec.locals()) == ["a", "b", "c"]

    def test_tensors_discovered(self, spec):
        assert sorted(t.name for t in spec.input_tensors()) == ["A", "B"]
        assert [t.name for t in spec.output_tensors()] == ["C"]

    def test_duplicate_indices_rejected(self):
        i = Index("i")
        with pytest.raises(SpecError):
            FunctionalSpec("bad", [i, i])

    def test_empty_indices_rejected(self):
        with pytest.raises(SpecError):
            FunctionalSpec("bad", [])

    def test_unknown_index_rejected(self):
        i, z = Index("i"), Index("z")
        a = Local("a", 1)
        spec = FunctionalSpec("s", [i])
        with pytest.raises(SpecError):
            spec.let(a[z], 0)

    def test_pin_on_an_unknown_index_rejected(self):
        """An output fires where its right-hand side's bound markers
        pin the domain, so a marker on an index the spec does not
        iterate pins nothing and is refused when the rule is added."""
        i, z = Index("i"), Index("z")
        X, Y = Tensor("X", 1), Tensor("Y", 1)
        spec = FunctionalSpec("s", [i])
        with pytest.raises(SpecError, match="z.upperBound"):
            spec.let(Y[i], X[z.upper_bound])
        assert spec.assignments == []
        # Off a pin, the marker is the bound's value and stays legal.
        a = Local("a", 1)
        spec.let(a[i], X[z.lower_bound])
        spec.let(Y[i], a[i])
        got = spec.interpret(Bounds({"i": 2, "z": (1, 3)}), {"X": np.arange(4)})
        assert got["Y"].tolist() == [1, 1]

    def test_wrong_local_rank_rejected(self):
        i, j = Index("i"), Index("j")
        a = Local("a", 1)  # should be rank 2
        spec = FunctionalSpec("s", [i, j])
        with pytest.raises(SpecError):
            spec.let(a[i], 0)

    def test_lhs_must_be_access(self, spec):
        with pytest.raises(SpecError):
            spec.let(42, 0)

    def test_macs_per_point(self, spec):
        assert spec.macs_per_point() == 1

    def test_no_data_dependent_accesses_in_matmul(self, spec):
        assert not spec.has_data_dependent_accesses()


class TestDifferenceVectors:
    def test_matmul_difference_vectors(self, spec):
        assert spec.difference_vector("a") == (0, 1, 0)
        assert spec.difference_vector("b") == (1, 0, 0)
        assert spec.difference_vector("c") == (0, 0, 1)

    def test_all_vectors(self, spec):
        assert spec.difference_vectors() == {
            "a": (0, 1, 0),
            "b": (1, 0, 0),
            "c": (0, 0, 1),
        }

    def test_variable_without_recurrence(self, spec):
        assert spec.difference_vector("nonexistent") is None

    def test_conv1d_vectors(self):
        spec = conv1d_spec()
        assert spec.difference_vector("img") == (0, 1, 0)
        assert spec.difference_vector("wgt") == (1, 0, 0)
        assert spec.difference_vector("acc") == (0, 0, 1)


class TestDependenceSets:
    def test_input_variables(self, spec):
        # a carries A(i, k): identified by i and k.
        assert spec.dependence_set("a") == frozenset({"i", "k"})
        assert spec.dependence_set("b") == frozenset({"j", "k"})

    def test_output_variable(self, spec):
        # c is emptied into C(i, j): identified by i and j.
        assert spec.dependence_set("c") == frozenset({"i", "j"})


class TestInterpreter:
    def test_matmul_matches_numpy(self, spec, small_matrices):
        A, B = small_matrices
        bounds = Bounds({"i": 4, "j": 4, "k": 4})
        out = spec.interpret(bounds, {"A": A, "B": B})
        assert np.array_equal(out["C"], A @ B)

    def test_rectangular_matmul(self, spec, rng):
        A = rng.integers(-3, 4, (2, 5))
        B = rng.integers(-3, 4, (5, 3))
        bounds = Bounds({"i": 2, "j": 3, "k": 5})
        out = spec.interpret(bounds, {"A": A, "B": B})
        assert np.array_equal(out["C"], A @ B)

    def test_size_one_reduction(self, spec, rng):
        A = rng.integers(-3, 4, (3, 1))
        B = rng.integers(-3, 4, (1, 3))
        bounds = Bounds({"i": 3, "j": 3, "k": 1})
        out = spec.interpret(bounds, {"A": A, "B": B})
        assert np.array_equal(out["C"], A @ B)

    def test_missing_bounds_rejected(self, spec):
        with pytest.raises(SpecError):
            spec.interpret(Bounds({"i": 4, "j": 4}), {})

    def test_missing_tensor_rejected(self, spec):
        bounds = Bounds({"i": 2, "j": 2, "k": 2})
        with pytest.raises(SpecError):
            spec.interpret(bounds, {"A": np.zeros((2, 2))})

    def test_conv1d_matches_reference(self, rng):
        spec = conv1d_spec()
        N, OC, F = 5, 3, 3
        I = rng.integers(-4, 5, (N + F - 1,))
        W = rng.integers(-4, 5, (OC, F))
        out = spec.interpret(Bounds({"ox": N, "oc": OC, "f": F}), {"I": I, "W": W})
        ref = np.array(
            [[sum(I[x + f] * W[oc, f] for f in range(F)) for oc in range(OC)]
             for x in range(N)]
        )
        assert np.array_equal(out["O"], ref)

    def test_batched_matmul_matches_numpy(self, rng):
        spec = batched_matmul_spec()
        A = rng.integers(-3, 4, (2, 3, 4))
        B = rng.integers(-3, 4, (2, 4, 3))
        bounds = Bounds({"n": 2, "i": 3, "j": 3, "k": 4})
        out = spec.interpret(bounds, {"A": A, "B": B})
        assert np.array_equal(out["C"], A @ B)

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=6),
        m=st.integers(min_value=1, max_value=6),
        k=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_property_matmul_equals_numpy(self, n, m, k, seed):
        """The reference interpreter is semantically a matmul for every
        domain size (hypothesis over shapes and data)."""
        rng = np.random.default_rng(seed)
        A = rng.integers(-9, 10, (n, k))
        B = rng.integers(-9, 10, (k, m))
        spec = matmul_spec()
        out = spec.interpret(Bounds({"i": n, "j": m, "k": k}), {"A": A, "B": B})
        assert np.array_equal(out["C"], A @ B)


class TestAssignmentQueries:
    def test_assignments_for(self, spec):
        assert len(spec.assignments_for("c")) == 2

    def test_compute_assignment(self, spec):
        compute = spec.compute_assignment("c")
        assert compute is not None
        assert compute.kind is AssignmentKind.COMPUTE

    def test_boundary_conditions(self, spec):
        init = spec.assignments_for("c")[0]
        assert init.boundary_conditions() == {"k": "lb"}
