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
            assert len(itsp.conns[variable]) == 48

    def test_connection_offsets_match_difference_vectors(self, itsp, spec):
        for variable, d in spec.difference_vectors().items():
            conns = itsp.conns[variable]
            assert conns.offset == d
            steps = itsp.points[conns.dst] - itsp.points[conns.src]
            assert {tuple(step) for step in steps.tolist()} == {d}

    def test_input_io_at_boundaries(self, itsp):
        a_inputs = itsp.io.rows("a", IODirection.INPUT)
        # a is loaded on the j = lb plane: 16 points.
        assert len(a_inputs) == 16
        assert (itsp.points[itsp.io.point[a_inputs], 1] == 0).all()
        assert all(tensor == "A" for tensor in itsp.io.tensor[a_inputs])

    def test_output_io_at_upper_boundary(self, itsp):
        c_outputs = itsp.io.rows("c", IODirection.OUTPUT)
        # C is emitted on the k = ub plane: 16 points.
        assert len(c_outputs) == 16
        assert (itsp.points[itsp.io.point[c_outputs], 2] == 3).all()
        assert all(tensor == "C" for tensor in itsp.io.tensor[c_outputs])

    def test_missing_bounds_rejected(self, spec):
        with pytest.raises(SpecError):
            elaborate(spec, Bounds({"i": 4, "j": 4}))


class TestRewrites:
    def test_without_conns_removes_and_replaces(self, itsp):
        rewritten = itsp.without_conns(["c"])
        assert "c" not in rewritten.conns
        assert len(rewritten.conns["a"]) == 48
        # Endpoints gained IO connections.
        c_io = rewritten.io.rows("c")
        assert len(c_io) > len(itsp.io.rows("c"))

    def test_without_conns_no_io_replacement(self, itsp):
        rewritten = itsp.without_conns(["c"], replace_with_io=False)
        assert "c" not in rewritten.conns
        assert len(rewritten.io.rows("c")) == len(itsp.io.rows("c"))

    def test_widened_sets_bundle(self, itsp):
        widened = itsp.widened("a", 4)
        assert widened.conns["a"].bundle == 4
        assert widened.conns["b"].bundle == 1


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


class TestColumns:
    def test_points_are_the_domain_grid(self, itsp, bounds4, spec):
        assert [tuple(p) for p in itsp.points.tolist()] == list(
            bounds4.domain(spec.index_names)
        )

    def test_without_conns_adds_each_endpoint_once(self, itsp):
        rewritten = itsp.without_conns(["c"])
        rows = rewritten.io.rows("c")
        keys = list(zip(
            rewritten.io.point[rows].tolist(),
            rewritten.io.is_input[rows].tolist(),
        ))
        assert len(keys) == len(set(keys))
        # Every k plane but the last sends, every k plane but the first
        # receives: 48 added inputs, plus 48 outputs beside the 16 stores.
        added = rows[len(itsp.io.rows("c")):]
        assert rewritten.io.is_input[added].sum() == 48
        assert (~rewritten.io.is_input[rows]).sum() == 16 + 48
