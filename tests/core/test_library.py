"""Tests for the merge/sort functional specs (Section III-A's
data-dependent idiom; the Figure 19a merger as a Stellar spec)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import check_netlist, errors_only
from repro.core import Bounds, compile_design
from repro.core.dataflow import SpaceTimeTransform
from repro.core.library import (
    MERGE_SENTINEL,
    merge_sorted_spec,
    sort_network_spec,
)
from repro.core.passes.regfile_opt import RegfileKind
from repro.rtl.lowering import lower_design


def _padded(fiber, length):
    out = np.full(length, MERGE_SENTINEL)
    out[: len(fiber)] = fiber
    return out


class TestMergeSpec:
    def _merge(self, lane_pairs, steps):
        spec = merge_sorted_spec()
        lanes = len(lane_pairs)
        A = np.stack([_padded(a, steps + 1) for a, _ in lane_pairs])
        B = np.stack([_padded(b, steps + 1) for _, b in lane_pairs])
        out = spec.interpret(Bounds({"l": lanes, "t": steps}), {"A": A, "B": B})
        return out["M"]

    def test_basic_merge(self):
        merged = self._merge([([1, 4, 9], [2, 3, 10])], steps=6)
        assert list(merged[0]) == [1, 2, 3, 4, 9, 10]

    def test_uneven_lists(self):
        merged = self._merge([([5], [1, 2, 3])], steps=4)
        assert list(merged[0]) == [1, 2, 3, 5]

    def test_one_empty_list(self):
        merged = self._merge([([], [1, 2])], steps=2)
        assert list(merged[0]) == [1, 2]

    def test_multiple_lanes_merge_independently(self):
        merged = self._merge(
            [([1, 3], [2, 4]), ([10, 30], [20, 40])], steps=4
        )
        assert list(merged[0]) == [1, 2, 3, 4]
        assert list(merged[1]) == [10, 20, 30, 40]

    def test_duplicates_preserved(self):
        merged = self._merge([([2, 2], [2])], steps=3)
        assert list(merged[0]) == [2, 2, 2]

    def test_is_data_dependent(self):
        assert merge_sorted_spec().has_data_dependent_accesses()

    @settings(max_examples=25, deadline=None)
    @given(
        a=st.lists(st.integers(-50, 50), max_size=8),
        b=st.lists(st.integers(-50, 50), min_size=1, max_size=8),
    )
    def test_property_merge_equals_sorted_concat(self, a, b):
        a, b = sorted(a), sorted(b)
        steps = len(a) + len(b)
        merged = self._merge([(a, b)], steps=steps)
        assert list(merged[0]) == sorted(a + b)


class TestMergeCompilation:
    """The merger compiles through the regular flow: Section IV-F's point
    that even non-affine-friendly structures can be built from the
    functionality language, paying the baseline-regfile cost."""

    @pytest.fixture
    def design(self):
        spec = merge_sorted_spec()
        transform = SpaceTimeTransform([[1, 0], [0, 1]])  # x=l, t=t
        return compile_design(spec, Bounds({"l": 4, "t": 8}), transform)

    def test_one_pe_per_lane(self, design):
        assert design.pe_count == 4

    def test_regfiles_fall_back_to_crossbar(self, design):
        """Data-dependent accesses force the Figure 14a baseline."""
        for plan in design.regfile_plans.values():
            assert plan.kind is RegfileKind.CROSSBAR

    def test_pointers_flow_through_time(self, design):
        for variable in ("pa", "pb"):
            conns = design.array.conns_for(variable)
            assert len(conns) == 1
            assert conns[0].is_stationary  # pointer stays in its lane PE

    def test_verilog_lints_clean(self, design):
        assert errors_only(check_netlist(lower_design(design))) == []


class TestSortNetwork:
    def _sort(self, values):
        spec = sort_network_spec()
        n = len(values)
        out = spec.interpret(
            Bounds({"p": n, "e": n}), {"V": np.asarray(values)}
        )
        return list(out["S"])

    def test_small(self):
        assert self._sort([3, 1, 2]) == [1, 2, 3]

    def test_already_sorted(self):
        assert self._sort([1, 2, 3, 4]) == [1, 2, 3, 4]

    def test_reverse_sorted(self):
        assert self._sort([5, 4, 3, 2, 1]) == [1, 2, 3, 4, 5]

    def test_duplicates(self):
        assert self._sort([2, 1, 2, 1]) == [1, 1, 2, 2]

    def test_single_element(self):
        assert self._sort([7]) == [7]

    @settings(max_examples=25, deadline=None)
    @given(values=st.lists(st.integers(-99, 99), min_size=1, max_size=9))
    def test_property_sorts_everything(self, values):
        assert self._sort(values) == sorted(values)

    def test_negative_values_within_sentinel_range(self):
        assert self._sort([-5, 5, 0]) == [-5, 0, 5]
