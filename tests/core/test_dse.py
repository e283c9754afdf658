"""Tests for the design-space exploration module."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Bounds, SpecError, matmul_spec
from repro.core.balancing import LoadBalancingScheme, row_shift_scheme
from repro.core.dataflow import (
    SpaceTimeTransform,
    hexagonal,
    input_stationary,
    output_stationary,
)
from repro.core.sparsity import SparsityStructure, csr_b_matrix
from repro.dse import explore
from repro.dse.explorer import adp, pareto_front
from repro.exec.cache import CompileCache


def _dominates_pair(q, p):
    """The definition: ``q`` is no worse than ``p`` in every column and
    better in at least one (every column is minimized)."""
    return all(a <= b for a, b in zip(q, p)) and any(a < b for a, b in zip(q, p))


def _dominates(q, p):
    """Dominance of outcome row ``q`` over ``p`` on (cycles, area)."""
    return _dominates_pair(
        (q["cycles"], q["area_um2"]), (p["cycles"], p["area_um2"])
    )


def _pairwise_front(rows):
    """The definition: rows that no other row dominates."""
    return [
        i for i, p in enumerate(rows)
        if not any(_dominates_pair(q, p) for q in rows)
    ]



@pytest.fixture(scope="module")
def workload():
    rng = np.random.default_rng(5)
    n = 6
    a = rng.integers(1, 5, (n, n))
    b = np.zeros((n, n), dtype=int)
    b[0, :] = rng.integers(1, 5, n)
    b[3, 1] = 2
    return Bounds({"i": n, "j": n, "k": n}), {"A": a, "B": b}


@pytest.fixture(scope="module")
def result(workload):
    bounds, tensors = workload
    spec = matmul_spec()
    return explore(
        spec,
        bounds,
        tensors,
        transforms={
            "output-stationary": output_stationary(),
            "input-stationary": input_stationary(),
            "hexagonal": hexagonal(),
        },
        sparsities={
            "dense": SparsityStructure(),
            "B-csr": csr_b_matrix(spec),
        },
        balancings={
            "none": LoadBalancingScheme(),
            "row-shift": row_shift_scheme(3),
        },
        cache=CompileCache(),
    )


class TestExplore:
    def test_full_cross_product(self, result):
        assert len(result) == 3 * 2 * 2

    def test_names_encode_axes(self, result):
        names = {p["name"] for p in result}
        assert "output-stationary / B-csr / row-shift" in names

    def test_metrics_populated(self, result):
        for point in result:
            assert point["cycles"] > 0
            assert 0 < point["utilization"] <= 1
            assert point["area_um2"] > 0
            assert point["pe_count"] > 0

    def test_sparse_skipping_reduces_cycles(self, result):
        by_name = {p["name"]: p for p in result}
        dense = by_name["input-stationary / dense / none"]
        sparse = by_name["input-stationary / B-csr / none"]
        assert sparse["cycles"] < dense["cycles"]

    def test_balancing_helps_on_imbalanced_workload(self, result):
        by_name = {p["name"]: p for p in result}
        plain = by_name["input-stationary / B-csr / none"]
        balanced = by_name["input-stationary / B-csr / row-shift"]
        assert balanced["cycles"] <= plain["cycles"]

    def test_illegal_transforms_skipped(self, workload):
        bounds, tensors = workload
        spec = matmul_spec()
        bad = SpaceTimeTransform([[1, 0, 0], [0, 1, 0], [1, 1, -1]])
        result = explore(
            spec,
            bounds,
            tensors,
            transforms={"good": output_stationary(), "bad": bad},
        )
        assert len(result) == 1

    def test_all_illegal_raises(self, workload):
        bounds, tensors = workload
        spec = matmul_spec()
        bad = SpaceTimeTransform([[1, 0, 0], [0, 1, 0], [1, 1, -1]])
        with pytest.raises(SpecError):
            explore(spec, bounds, tensors, transforms={"bad": bad})


class TestParetoFrontier:
    def test_frontier_nonempty_subset(self, result):
        frontier = result.pareto_frontier()
        assert 0 < len(frontier) <= len(result)

    def test_frontier_mutually_nondominated(self, result):
        frontier = result.pareto_frontier()
        for p in frontier:
            assert not any(_dominates(q, p) for q in frontier if q is not p)

    def test_every_point_dominated_or_on_frontier(self, result):
        frontier = result.pareto_frontier()
        frontier_ids = {id(p) for p in frontier}
        for p in result:
            if id(p) not in frontier_ids:
                assert any(_dominates(q, p) for q in result)

    def test_frontier_sorted_by_cycles(self, result):
        cycles = [p["cycles"] for p in result.pareto_frontier()]
        assert cycles == sorted(cycles)


class TestSelections:
    def test_best_by_each_metric(self, result):
        fastest = result.best_by("cycles")
        smallest = result.best_by("area")
        assert fastest["cycles"] == min(p["cycles"] for p in result)
        assert smallest["area_um2"] == min(p["area_um2"] for p in result)

    def test_best_by_adp(self, result):
        best = result.best_by("adp")
        assert adp(best) == min(adp(p) for p in result)
        assert adp(best) == best["area_um2"] * best["cycles"]

    def test_unknown_metric_rejected(self, result):
        with pytest.raises(ValueError):
            result.best_by("coolness")

    def test_table_renders(self, result):
        text = result.table()
        assert "pareto" in text
        assert text.count("\n") == len(result)


class TestDominance:
    """Dominance over (cycles, area), as :func:`pareto_front` applies it
    to two rows."""

    def test_strict_dominance(self):
        assert _dominates_pair((10, 100), (20, 200))
        assert pareto_front([(10, 100), (20, 200)]) == [0]

    def test_tradeoff_not_dominated(self):
        a, b = (10, 200), (20, 100)
        assert not _dominates_pair(a, b)
        assert not _dominates_pair(b, a)
        assert pareto_front([a, b]) == [0, 1]

    def test_equal_not_dominating(self):
        a, b = (10, 100), (10, 100)
        assert not _dominates_pair(a, b)
        assert pareto_front([a, b]) == [0, 1]


class TestParetoFront:
    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(2, 3).flatmap(
            lambda width: st.lists(
                st.lists(st.integers(0, 3), min_size=width, max_size=width),
                max_size=12,
            )
        )
    )
    def test_matches_pairwise_definition(self, rows):
        """Small value ranges force duplicate rows and per-column ties."""
        assert pareto_front(rows) == _pairwise_front(rows)

    def test_empty_input(self):
        assert pareto_front([]) == []
