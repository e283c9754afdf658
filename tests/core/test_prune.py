"""Tests for the connection-pruning passes (Section IV-B, Figures 4-5, 10)."""

import pytest

from repro.core.balancing import (
    LoadBalancingScheme,
    Offset,
    Range,
    Shift,
    flexible_pe_scheme,
    row_shift_scheme,
)
from repro.core.iterspace import elaborate
from repro.core.passes.prune import (
    connection_survives,
    prune_for_balancing,
    prune_for_sparsity,
)
from repro.core.sparsity import (
    SparsityStructure,
    a100_two_four,
    csr_b_matrix,
    csr_csc_both,
    diagonal_a_matrix,
    empty_rows_of_a,
)

ORDER = ("i", "j", "k")


@pytest.fixture
def itsp(spec, bounds4):
    return elaborate(spec, bounds4)


class TestSurvivalRule:
    """The worked example of Section IV-B, decomposed."""

    def test_partial_sums_pruned_by_csr(self):
        """c: Dep = {i, j}, d = (0,0,1); skipping j with deps(j) = {k} and
        d[k] != 0 makes the expanded j data-dependent -> prune."""
        assert not connection_survives(
            (0, 0, 1), frozenset({"i", "j"}), {"j": frozenset({"k"})}, ORDER
        )

    def test_a_matrix_survives_csr(self):
        """a: Dep = {i, k}; j is not in its dependence set, so moving
        along compressed j still delivers the right value."""
        assert connection_survives(
            (0, 1, 0), frozenset({"i", "k"}), {"j": frozenset({"k"})}, ORDER
        )

    def test_stationary_b_survives_csr(self):
        assert connection_survives(
            (1, 0, 0), frozenset({"j", "k"}), {"j": frozenset({"k"})}, ORDER
        )

    def test_direct_flow_along_skipped_dep_axis_pruned(self):
        """A variable moving along its own skipped identity axis cannot
        trust neighbours."""
        assert not connection_survives(
            (0, 1, 0), frozenset({"j"}), {"j": frozenset({"k"})}, ORDER
        )


class TestSparsityPruning:
    def test_figure4_rewrite(self, itsp, spec):
        """Listing 5 + Figure 4: B CSR removes c's connections only."""
        pruned, report = prune_for_sparsity(itsp, csr_b_matrix(spec))
        assert report.pruned_variables == ["c"]
        assert "c" not in pruned.conns
        assert len(pruned.conns["a"]) == 48
        assert len(pruned.conns["b"]) == 48

    def test_figure4_adds_io(self, itsp, spec):
        pruned, _ = prune_for_sparsity(itsp, csr_b_matrix(spec))
        assert len(pruned.io.rows("c")) > len(itsp.io.rows("c"))

    def test_outer_product_prunes_only_c(self, itsp, spec):
        """A CSC + B CSR (Listing 2, lines 1-3): both operand flows
        survive; only accumulation is pruned."""
        pruned, report = prune_for_sparsity(itsp, csr_csc_both(spec))
        assert report.pruned_variables == ["c"]
        assert len(pruned.conns["a"]) == 48
        assert len(pruned.conns["b"]) == 48

    def test_diagonal_restricts_points(self, itsp, spec):
        """Listing 2 line 5: a structured skip removes iteration points."""
        pruned, report = prune_for_sparsity(itsp, diagonal_a_matrix(spec))
        assert report.removed_points == 64 - 16  # only i == k survives
        assert (pruned.points[:, 0] == pruned.points[:, 2]).all()

    def test_diagonal_drops_dangling_conns(self, itsp, spec):
        pruned, _ = prune_for_sparsity(itsp, diagonal_a_matrix(spec))
        for conns in pruned.conns.values():
            assert ((0 <= conns.src) & (conns.src < len(pruned.points))).all()
            assert ((0 <= conns.dst) & (conns.dst < len(pruned.points))).all()
            steps = pruned.points[conns.dst] - pruned.points[conns.src]
            assert (steps == conns.offset).all()

    def test_empty_rows_prunes_accumulation(self, itsp, spec):
        """Listing 2 line 7: skipping k when a row of A is empty makes the
        expanded k depend on i, pruning partial-sum and operand flows that
        cross k or i."""
        pruned, report = prune_for_sparsity(itsp, empty_rows_of_a(spec))
        # c (Dep = {i,j}, d along k): k not in Dep(c) -> survives.
        assert "c" not in report.pruned_variables
        # a (Dep = {i,k}, d = (0,1,0)): k in Dep, deps(k) = {i}, d[i] = 0,
        # d[k] = 0 -> survives.
        assert "a" not in report.pruned_variables
        # b (Dep = {j,k}, d = (1,0,0)): k in Dep and deps(k) = {i} moves -> pruned.
        assert "b" in report.pruned_variables

    def test_a100_widens_instead_of_pruning(self, itsp, spec):
        """Figure 5: OptimisticSkip keeps connections as wider bundles."""
        pruned, report = prune_for_sparsity(itsp, a100_two_four(spec))
        assert report.pruned_variables == []
        # a and b depend on k: their connections are widened to bundles.
        assert report.widened_variables.get("a") == 4
        assert report.widened_variables.get("b") == 4
        assert pruned.conns["a"].bundle == 4
        # c's identity is (i, j): untouched.
        assert pruned.conns["c"].bundle == 1

    def test_dense_structure_is_noop(self, itsp):
        pruned, report = prune_for_sparsity(itsp, SparsityStructure())
        assert report.pruned_variables == []
        assert pruned.conn_count() == itsp.conn_count()


class TestBalancingPruning:
    def test_row_granular_preserves_conns(self, itsp):
        """Figure 10a: whole-row balancing keeps all connections."""
        pruned, report = prune_for_balancing(itsp, row_shift_scheme(2))
        assert report.pruned_variables == []
        assert pruned.conn_count() == itsp.conn_count()

    def test_pe_granular_prunes_flows(self, itsp):
        """Figure 10b / Listing 4: per-PE balancing prunes variables
        flowing along the constrained axes."""
        pruned, report = prune_for_balancing(itsp, flexible_pe_scheme(4))
        # a flows along j, b flows along i: both constrained.
        assert set(report.pruned_variables) == {"a", "b"}
        assert "a" not in pruned.conns
        assert "b" not in pruned.conns
        # c flows along k: unconstrained.
        assert len(pruned.conns["c"]) == 48

    def test_disabled_scheme_is_noop(self, itsp):
        pruned, report = prune_for_balancing(itsp, LoadBalancingScheme())
        assert pruned is itsp
        assert report.pruned_variables == []

    def test_offset_only_shift_prunes_nothing(self, itsp):
        scheme = LoadBalancingScheme(
            [Shift(src={"i": Range(2, 4)}, dst={"i": Range(0, 2), "k": Offset(1)})]
        )
        pruned, report = prune_for_balancing(itsp, scheme)
        assert report.pruned_variables == []
