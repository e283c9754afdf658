"""Tests for space-time transforms (paper Section III-B, Figure 2)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Bounds, SpecError, matmul_spec
from repro.core.dataflow import (
    SpaceTimeTransform,
    classify_dataflow,
    hexagonal,
    identity,
    input_stationary,
    output_stationary,
    validate_schedule,
    weight_stationary,
)


class TestConstruction:
    def test_identity(self):
        t = identity(3)
        assert t.apply((1, 2, 3)) == (1, 2, 3)

    def test_singular_rejected(self):
        with pytest.raises(SpecError):
            SpaceTimeTransform([[1, 1, 0], [1, 1, 0], [0, 0, 1]])

    def test_non_square_rejected(self):
        with pytest.raises(SpecError):
            SpaceTimeTransform([[1, 0], [0, 1], [1, 1]])

    def test_space_time_split(self):
        t = output_stationary()
        assert t.space_dims == 2
        assert t.time_dims == 1


class TestMapping:
    def test_equation_1_example(self):
        """Paper Section III-B: with T = identity, the MAC at i=1, j=2,
        k=3 maps to PE (1, 2) at timestep 3."""
        t = identity(3)
        st_coords = t.apply((1, 2, 3))
        assert st_coords[:2] == (1, 2)
        assert st_coords[2] == 3

    def test_output_stationary_space(self):
        t = output_stationary()
        assert t.space((2, 3, 1)) == (2, 3)  # x=i, y=j
        assert t.time((2, 3, 1)) == (6,)  # t=i+j+k

    def test_input_stationary_space(self):
        t = input_stationary()
        assert t.space((2, 3, 1)) == (1, 3)  # x=k, y=j

    def test_unapply_roundtrip(self):
        t = input_stationary()
        for point in [(0, 0, 0), (1, 2, 3), (3, 1, 2)]:
            assert t.unapply(t.apply(point)) == point

    def test_unapply_non_integer_returns_none(self):
        t = SpaceTimeTransform([[2, 0], [0, 1]], space_dims=1)
        assert t.unapply((1, 0)) is None  # i would be 1/2

    def test_wrong_rank_rejected(self):
        t = output_stationary()
        with pytest.raises(SpecError):
            t.apply((1, 2))
        with pytest.raises(SpecError):
            t.unapply((1, 2))

    @settings(max_examples=40, deadline=None)
    @given(
        point=st.tuples(
            st.integers(-8, 8), st.integers(-8, 8), st.integers(-8, 8)
        )
    )
    def test_property_roundtrip_all_named_transforms(self, point):
        for t in (output_stationary(), input_stationary(), weight_stationary(),
                  hexagonal(), identity(3)):
            assert t.unapply(t.apply(point)) == point


class TestDisplacement:
    def test_paper_worked_example(self):
        """Section IV-B: input-stationary T maps the partial-sum difference
        vector (0,0,1) to (dx=1, dy=0, dt=1): sums travel vertically."""
        t = input_stationary()
        assert t.displacement((0, 0, 1)) == (1, 0, 1)

    def test_stationary_weight(self):
        t = input_stationary()
        # b flows along i with difference vector (1,0,0); space part zero.
        assert t.is_stationary((1, 0, 0))
        assert not t.is_stationary((0, 0, 1))

    def test_pipeline_depth(self):
        t = output_stationary()
        assert t.pipeline_depth((0, 1, 0)) == 1

    def test_double_time_row_doubles_depth(self):
        t = output_stationary().with_time_row([2, 2, 2])
        assert t.pipeline_depth((0, 1, 0)) == 2

    def test_with_time_row_preserves_space(self):
        t = output_stationary().with_time_row([1, 1, 2])
        assert t.space((2, 3, 1)) == (2, 3)


class TestFootprints:
    def test_output_stationary_rectangular(self):
        t = output_stationary()
        fp = t.footprint(Bounds({"i": 4, "j": 4, "k": 4}), ("i", "j", "k"))
        assert fp.pe_count == 16
        assert fp.is_rectangular()

    def test_schedule_length(self):
        t = output_stationary()
        fp = t.footprint(Bounds({"i": 4, "j": 4, "k": 4}), ("i", "j", "k"))
        # t = i + j + k ranges over [0, 9].
        assert fp.schedule_length == 10

    def test_hexagonal_footprint_not_rectangular(self):
        """Figure 2c: the hexagonal transform unrolls all three indices
        onto a 2-D plane, producing a non-rectangular (hexagonal) array."""
        t = hexagonal()
        fp = t.footprint(Bounds({"i": 4, "j": 4, "k": 4}), ("i", "j", "k"))
        assert not fp.is_rectangular()
        assert fp.pe_count > 16  # more PEs than a 4x4 projection

    def test_hexagonal_is_2d(self):
        t = hexagonal()
        fp = t.footprint(Bounds({"i": 3, "j": 3, "k": 3}), ("i", "j", "k"))
        assert all(len(pos) == 2 for pos in fp.positions)


class TestClassification:
    def test_input_stationary_roles(self):
        spec = matmul_spec()
        roles = classify_dataflow(spec, input_stationary())
        assert roles["b"] == "stationary"
        assert roles["a"] == "moving"
        assert roles["c"] == "moving"

    def test_output_stationary_roles(self):
        spec = matmul_spec()
        roles = classify_dataflow(spec, output_stationary())
        assert roles["c"] == "stationary"
        assert roles["a"] == "moving"
        assert roles["b"] == "moving"

    def test_broadcast_detected(self):
        """A transform whose time row ignores j makes a (which flows along
        j) a zero-time-delta broadcast chain."""
        spec = matmul_spec()
        t = SpaceTimeTransform([[1, 0, 0], [0, 1, 0], [1, 0, 1]])
        roles = classify_dataflow(spec, t)
        assert roles["a"] == "broadcast"


class TestScheduleValidation:
    def test_named_transforms_valid(self):
        spec = matmul_spec()
        for t in (output_stationary(), input_stationary(), hexagonal()):
            validate_schedule(spec, t)  # must not raise

    def test_causality_violation_rejected(self):
        spec = matmul_spec()
        t = SpaceTimeTransform([[1, 0, 0], [0, 1, 0], [1, 1, -1]])
        with pytest.raises(SpecError):
            validate_schedule(spec, t)


def _backwards_second_row():
    """Matmul with space ``i`` and time ``(j, -k)``: the first time row
    holds the ``k`` recurrence still, the second runs it backwards."""
    return SpaceTimeTransform([[1, 0, 0], [0, 1, 0], [0, 0, -1]], space_dims=1)


class TestLexicographicCausality:
    """Every caller orders multi-dimensional time lexicographically, not
    by the first time row alone."""

    def test_time_delta_is_leading_nonzero_component(self):
        t = _backwards_second_row()
        assert t.time_delta((0, 0, 1)) == -1  # c: (0, -1)
        assert t.time_delta((0, 1, 0)) == 1  # a: (1, 0)
        assert t.time_delta((1, 0, 0)) == 0  # b: (0, 0), a broadcast
        assert output_stationary().time_delta((0, 0, 1)) == 1

    def test_validate_schedule_rejects(self):
        with pytest.raises(SpecError, match="'c': time delta -1 < 0"):
            validate_schedule(matmul_spec(), _backwards_second_row())

    def test_check_reports_error_not_just_broadcast(self):
        from repro.analysis import Severity, check_spec

        findings = check_spec(
            matmul_spec(), Bounds({"i": 3, "j": 3, "k": 3}), _backwards_second_row()
        )
        errors = [d for d in findings if d.severity is Severity.ERROR]
        assert [d.code for d in errors] == ["STL-SP-004"]
        assert "'c'" in errors[0].message

    def test_apply_transform_rejects(self):
        from repro.core.iterspace import apply_transform, elaborate

        itsp = elaborate(matmul_spec(), Bounds({"i": 3, "j": 3, "k": 3}))
        with pytest.raises(SpecError, match="causality for 'c'"):
            apply_transform(itsp, _backwards_second_row())

    @pytest.mark.parametrize("sparse", [False, True])
    def test_compile_rejects_dense_and_sparse(self, sparse):
        from repro.core import compile_design
        from repro.core.sparsity import csr_b_matrix

        spec = matmul_spec()
        sparsity = csr_b_matrix(spec) if sparse else None
        for check in (True, False):
            with pytest.raises(SpecError):
                compile_design(
                    spec, Bounds({"i": 3, "j": 3, "k": 3}),
                    _backwards_second_row(), sparsity=sparsity, check=check,
                )
