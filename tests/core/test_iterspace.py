"""Tests for the IterationSpace IR (Section IV-B, Figure 9)."""

import pytest

from repro.core import Bounds, SpecError
from repro.core.dataflow import (
    SpaceTimeTransform,
    input_stationary,
    output_stationary,
)
from repro.core.iterspace import (
    IODirection,
    Point,
    apply_transform,
    elaborate,
)


@pytest.fixture
def itsp(spec, bounds4):
    return elaborate(spec, bounds4)


class TestElaborate:
    def test_point_count(self, itsp):
        assert len(itsp.points) == 64  # 4^3

    def test_connection_variables(self, itsp):
        assert itsp.connected_variables() == frozenset({"a", "b", "c"})

    def test_connection_counts(self, itsp):
        # Each variable flows along one axis: 4*4*3 in-domain links.
        for variable in ("a", "b", "c"):
            assert len(itsp.conns_for(variable)) == 48

    def test_connection_offsets_match_difference_vectors(self, itsp, spec):
        for variable, d in spec.difference_vectors().items():
            offsets = {c.offset() for c in itsp.conns_for(variable)}
            assert offsets == {d}

    def test_input_io_at_boundaries(self, itsp):
        a_inputs = [
            io
            for io in itsp.io_for("a")
            if io.direction is IODirection.INPUT
        ]
        # a is loaded on the j = lb plane: 16 points.
        assert len(a_inputs) == 16
        assert all(io.point.coords[1] == 0 for io in a_inputs)
        assert all(io.tensor == "A" for io in a_inputs)

    def test_output_io_at_upper_boundary(self, itsp):
        c_outputs = [
            io for io in itsp.io_for("c") if io.direction is IODirection.OUTPUT
        ]
        # C is emitted on the k = ub plane: 16 points.
        assert len(c_outputs) == 16
        assert all(io.point.coords[2] == 3 for io in c_outputs)
        assert all(io.tensor == "C" for io in c_outputs)

    def test_missing_bounds_rejected(self, spec):
        with pytest.raises(SpecError):
            elaborate(spec, Bounds({"i": 4, "j": 4}))


class TestRewrites:
    def test_without_conns_removes_and_replaces(self, itsp):
        rewritten = itsp.without_conns(["c"])
        assert rewritten.conns_for("c") == []
        assert len(rewritten.conns_for("a")) == 48
        # Endpoints gained IO connections.
        c_io = rewritten.io_for("c")
        assert len(c_io) > len(itsp.io_for("c"))

    def test_without_conns_no_io_replacement(self, itsp):
        rewritten = itsp.without_conns(["c"], replace_with_io=False)
        assert rewritten.conns_for("c") == []
        assert len(rewritten.io_for("c")) == len(itsp.io_for("c"))

    def test_widened_sets_bundle(self, itsp):
        widened = itsp.widened("a", 4)
        assert all(c.bundle == 4 for c in widened.conns_for("a"))
        assert all(c.bundle == 1 for c in widened.conns_for("b"))


class TestApplyTransform:
    def test_output_stationary_pe_count(self, itsp):
        array = apply_transform(itsp, output_stationary())
        assert array.pe_count == 16

    def test_pe_folding(self, itsp):
        """Multiple iteration points fold onto each PE across timesteps."""
        array = apply_transform(itsp, output_stationary())
        assert len(array.positions()) == 16
        assert array.point_count == 64  # 16 PEs x one point per k

    def test_physical_conn_offsets(self, itsp):
        array = apply_transform(itsp, input_stationary())
        c_conns = array.conns_for("c")
        assert len(c_conns) == 1
        conn = c_conns[0]
        assert conn.space_offset == (1, 0)
        assert conn.time_offset == 1

    def test_stationary_conn(self, itsp):
        array = apply_transform(itsp, input_stationary())
        b_conns = array.conns_for("b")
        assert len(b_conns) == 1
        assert b_conns[0].is_stationary

    def test_broadcast_detected(self, itsp):
        t = SpaceTimeTransform([[1, 0, 0], [0, 1, 0], [1, 0, 1]])
        array = apply_transform(itsp, t)
        a_conns = array.conns_for("a")
        assert a_conns[0].is_broadcast

    def test_causality_violation_rejected(self, itsp):
        t = SpaceTimeTransform([[1, 0, 0], [0, 1, 0], [1, 1, -1]])
        with pytest.raises(SpecError):
            apply_transform(itsp, t)

    def test_rank_mismatch_rejected(self, itsp):
        t = SpaceTimeTransform([[1, 0], [0, 1]], space_dims=1)
        with pytest.raises(SpecError):
            apply_transform(itsp, t)

    def test_schedule_length(self, itsp):
        array = apply_transform(itsp, output_stationary())
        assert array.schedule_length == 10

    def test_utilization_bound(self, itsp):
        array = apply_transform(itsp, output_stationary())
        # 64 work points over 16 PEs x 10 steps.
        assert array.utilization_bound() == pytest.approx(0.4)

    def test_wire_length_nonzero_for_moving(self, itsp):
        array = apply_transform(itsp, output_stationary())
        assert array.total_wire_length() > 0


class TestPoint:
    def test_equality_and_hash(self):
        assert Point((1, 2)) == Point((1, 2))
        assert len({Point((1, 2)), Point((1, 2))}) == 1

    def test_inequality(self):
        assert Point((1, 2)) != Point((2, 1))
