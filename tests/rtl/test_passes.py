"""Unit tests for the netlist optimization pass pipeline (repro.rtl.passes)."""

import pytest

from repro.rtl.netlist import (
    Module,
    Netlist,
    RTLError,
    parse_expression,
    unparse,
)
from repro.rtl.passes import (
    OPT_LEVELS,
    PASS_PIPELINE_VERSION,
    PassResult,
    collapse_chains,
    const_fold,
    cse,
    dead_nets,
    fold_expression,
    run_passes,
    total_rewrites,
)
from repro.rtl.sim import RTLSimulator


def _netlist(module: Module) -> Netlist:
    netlist = Netlist(module.name)
    netlist.add(module)
    return netlist


def _base_module(name="m") -> Module:
    m = Module(name)
    m.input("clk")
    return m


# --- const_fold -----------------------------------------------------------


class TestConstFold:
    def _fold_rhs(self, rhs: str, widths=None) -> str:
        node, count = fold_expression(parse_expression(rhs), widths or {})
        return unparse(node) if count else rhs

    def test_literal_addition_folds(self):
        m = _base_module()
        m.output("q", 32)
        m.assign("q", "16'd3 + 16'd1")
        result = const_fold(_netlist(m))
        assert result.rewrites == 1
        assert m.assigns[0].rhs.tree == ("literal", 4, 17)

    def test_add_zero_identity(self):
        m = _base_module()
        m.input("x", 8)
        m.output("q", 8)
        m.assign("q", "x + 8'd0")
        const_fold(_netlist(m))
        assert m.assigns[0].rhs.text == "x"

    def test_multiply_by_zero(self):
        m = _base_module()
        m.input("x", 8)
        m.output("q", 8)
        m.assign("q", "x * 8'd0")
        const_fold(_netlist(m))
        assert m.assigns[0].rhs.tree[0] == "literal"

    def test_never_firing_guard_dropped(self):
        m = _base_module()
        m.reg("r", 8)
        m.output("q", 8)
        m.assign("q", "r")
        m.sync(["if (1'd0) r <= 8'd1;", "r <= r + 8'd1;"])
        const_fold(_netlist(m))
        assert [s.text for s in m.sync_blocks[0].statements] == ["r <= r + 8'd1;"]

    def test_always_firing_guard_unguarded(self):
        m = _base_module()
        m.reg("r", 8)
        m.output("q", 8)
        m.assign("q", "r")
        m.sync(["if (1'd1) r <= 8'd2;"])
        const_fold(_netlist(m))
        assert [s.text for s in m.sync_blocks[0].statements] == ["r <= 8'd2;"]

    def test_concat_fold_suppressed_when_width_changes(self):
        # (x + 8'd0) inside a concat has inferred width 32; folding it to
        # x (width 8) would repack the concat, so the fold must not fire.
        m = _base_module()
        m.input("x", 8)
        m.input("y", 8)
        m.output("q", 40)
        m.assign("q", "{x + 8'd0, y}")
        before = m.assigns[0]
        const_fold(_netlist(m))
        assert m.assigns[0] is before

    def test_negative_results_never_fold(self):
        # 0 - 1 is negative in the simulator's unmasked binop semantics;
        # no literal can represent it, so the fold must stay away.
        m = _base_module()
        m.output("q", 8)
        m.assign("q", "8'd0 - 8'd1")
        before = m.assigns[0]
        const_fold(_netlist(m))
        assert m.assigns[0] is before

    def test_folding_preserves_simulation(self):
        m = _base_module()
        m.input("x", 8)
        m.output("q", 16)
        m.assign("q", "(x + 8'd0) + (8'd2 * 8'd3)")
        netlist = _netlist(m)
        opt, _results = run_passes(netlist, 1)
        for value in (0, 7, 255):
            a = RTLSimulator(netlist)
            b = RTLSimulator(opt)
            a.poke("x", value)
            b.poke("x", value)
            a.step()
            b.step()
            assert a.peek("q") == b.peek("q")


# --- collapse_chains ------------------------------------------------------


class TestCollapseChains:
    def test_alias_wire_collapses(self):
        m = _base_module()
        m.input("x", 8)
        m.wire("alias_w", 8)
        m.output("q", 8)
        m.assign("alias_w", "x")
        m.assign("q", "alias_w + 8'd1")
        result = collapse_chains(_netlist(m))
        assert result.rewrites == 1
        assert [a.rhs.text for a in m.assigns] == ["x + 8'd1"]
        assert all(n.name != "alias_w" for n in m.nets)

    def test_port_alias_not_collapsed(self):
        m = _base_module()
        m.input("x", 8)
        m.output("q", 8)
        m.assign("q", "x")
        assert collapse_chains(_netlist(m)).rewrites == 0

    def test_narrower_alias_of_wider_source_not_collapsed(self):
        # alias masks the source to 4 bits; substitution would widen.
        m = _base_module()
        m.input("x", 8)
        m.wire("narrow", 4)
        m.output("q", 8)
        m.assign("narrow", "x")
        m.assign("q", "narrow")
        assert collapse_chains(_netlist(m)).rewrites == 0

    def test_width_sensitive_use_blocks_unequal_widths(self):
        # alias is wider than its source and appears as a concat part:
        # substituting would change the packing width.
        m = _base_module()
        m.input("x", 4)
        m.wire("wide", 8)
        m.output("q", 12)
        m.assign("wide", "x")
        m.assign("q", "{wide, x}")
        assert collapse_chains(_netlist(m)).rewrites == 0

    def test_multi_driver_alias_not_collapsed(self):
        m = _base_module()
        m.input("x", 8)
        child = Module("leaf")
        child.input("clk")
        child.output("o", 8)
        child.assign("o", "8'd5")
        m.wire("w", 8)
        m.output("q", 8)
        m.assign("w", "x")
        m.instantiate(child, "c0", {"clk": "clk", "o": "w"})
        m.assign("q", "w")
        netlist = _netlist(m)
        netlist.add(child)
        assert collapse_chains(netlist).rewrites == 0

    @staticmethod
    def _alias_over_literal(alias: str, source: str, literal: str) -> Netlist:
        m = _base_module()
        m.input(source, 4)
        m.wire(alias, 4)
        m.output("y", 4)
        m.assign(alias, source)
        m.assign("y", f"{alias} + {literal}")
        return _netlist(m)

    def test_rename_leaves_literals_alone(self):
        # The alias d1 also spells the digits of 4'd1, and its source d5
        # those of 4'd5: only the identifier token may be renamed.
        netlist = self._alias_over_literal("d1", "d5", "4'd1")
        opt, _results = run_passes(netlist, 1)
        assert [a.rhs.text for a in opt.top.assigns] == ["d5 + 4'd1"]
        sim = RTLSimulator(opt)
        sim.poke("d5", 5)
        assert sim.peek("y") == 6

    def test_rename_over_matching_literal_does_not_crash(self):
        netlist = self._alias_over_literal("d3", "x", "4'd3")
        opt, results = run_passes(netlist, 2)
        assert [a.rhs.text for a in opt.top.assigns] == ["x + 4'd3"]
        assert total_rewrites(results) >= 1

    def test_only_rewritten_nodes_are_rebuilt(self):
        m = _base_module()
        m.input("x", 8)
        m.wire("alias_w", 8)
        m.output("p", 8)
        m.output("q", 8)
        m.assign("alias_w", "x")
        m.assign("p", "x + 8'd2")
        m.assign("q", "alias_w + 8'd1")
        untouched = m.assigns[1]
        collapse_chains(_netlist(m))
        assert m.assigns[0].rhs is untouched.rhs
        assert m.assigns[1].rhs.text == "x + 8'd1"


# --- cse ------------------------------------------------------------------


class TestCSE:
    def test_duplicate_cone_shares_first_target(self):
        m = _base_module()
        m.input("a", 8)
        m.input("b", 8)
        m.wire("s1", 16)
        m.wire("s2", 16)
        m.output("q", 16)
        m.assign("s1", "a + b")
        m.assign("s2", "b + a")  # commutative: same canonical form
        m.assign("q", "s1 & s2")
        result = cse(_netlist(m))
        assert result.rewrites == 1
        assert m.assigns[1].rhs.text == "s1"

    def test_narrower_source_never_substituted(self):
        m = _base_module()
        m.input("a", 8)
        m.wire("n", 4)
        m.wire("w", 16)
        m.output("q", 16)
        m.assign("n", "a + a")
        m.assign("w", "a + a")
        m.assign("q", "w")
        assert cse(_netlist(m)).rewrites == 0

    def test_cse_preserves_simulation(self):
        m = _base_module()
        m.input("a", 8)
        m.input("b", 8)
        m.wire("s1", 16)
        m.wire("s2", 16)
        m.output("q", 16)
        m.assign("s1", "a + b")
        m.assign("s2", "a + b")
        m.assign("q", "s1 * s2")
        netlist = _netlist(m)
        opt, _results = run_passes(netlist, 2)
        for a_val, b_val in ((0, 0), (3, 4), (255, 255)):
            x = RTLSimulator(netlist)
            y = RTLSimulator(opt)
            for sim in (x, y):
                sim.poke("a", a_val)
                sim.poke("b", b_val)
                sim.step()
            assert x.peek("q") == y.peek("q")


# --- dead_nets ------------------------------------------------------------


class TestDeadNets:
    def test_unread_wire_removed(self):
        m = _base_module()
        m.input("x", 8)
        m.wire("unused", 8)
        m.output("q", 8)
        m.assign("unused", "x + 8'd1")
        m.assign("q", "x")
        result = dead_nets(_netlist(m))
        assert result.rewrites == 1
        assert [n.name for n in m.nets] == []
        assert len(m.assigns) == 1

    def test_self_incrementing_counter_removed(self):
        # The classic free-running counter nothing reads: its only read
        # is its own increment, so it must cascade away.
        m = _base_module()
        m.input("x", 8)
        m.reg("t_counter", 32)
        m.output("q", 8)
        m.sync(["t_counter <= t_counter + 32'd1;"], ["t_counter <= 32'd0;"])
        m.assign("q", "x")
        result = dead_nets(_netlist(m))
        assert result.rewrites == 1
        assert [n.name for n in m.nets] == []
        assert m.sync_blocks == []

    def test_read_by_live_logic_kept(self):
        m = _base_module()
        m.reg("counter", 8)
        m.output("q", 8)
        m.sync(["counter <= counter + 8'd1;"])
        m.assign("q", "counter")
        assert dead_nets(_netlist(m)).rewrites == 0

    def test_instance_connected_net_kept(self):
        child = Module("leaf")
        child.input("clk")
        child.input("i", 8)
        child.output("o", 8)
        child.assign("o", "i")
        m = _base_module("top")
        m.input("x", 8)
        m.wire("w", 8)
        m.output("q", 8)
        m.instantiate(child, "c0", {"clk": "clk", "i": "x", "o": "w"})
        m.assign("q", "w")
        netlist = Netlist("top")
        netlist.add(child)
        netlist.add(m)
        assert dead_nets(netlist).rewrites == 0

    def test_dead_chain_cascades(self):
        m = _base_module()
        m.input("x", 8)
        m.wire("a", 8)
        m.wire("b", 8)
        m.output("q", 8)
        m.assign("a", "x + 8'd1")
        m.assign("b", "a + 8'd1")  # b reads a; nothing reads b
        m.assign("q", "x")
        result = dead_nets(_netlist(m))
        assert result.rewrites == 2
        assert m.nets == []


# --- the pipeline ---------------------------------------------------------


class TestRunPasses:
    def test_input_never_mutated(self):
        m = _base_module()
        m.input("x", 8)
        m.wire("dead", 8)
        m.output("q", 8)
        m.assign("dead", "x")
        m.assign("q", "x + 8'd0")
        netlist = _netlist(m)
        opt, results = run_passes(netlist, 2)
        assert len(netlist.top.assigns) == 2
        assert len(netlist.top.nets) == 1
        assert netlist.opt_level == 0
        assert opt.opt_level == 2
        assert opt.pass_results == results
        assert total_rewrites(results) >= 2

    def test_opt_level_zero_is_identity(self):
        m = _base_module()
        m.output("q", 8)
        m.assign("q", "8'd1 + 8'd2")
        netlist = _netlist(m)
        opt, results = run_passes(netlist, 0)
        assert results == []
        assert opt.top.assigns[0].rhs.text == "8'd1 + 8'd2"

    def test_unknown_opt_level_rejected(self):
        with pytest.raises(ValueError, match="opt_level"):
            run_passes(Netlist("t"), 3)

    def test_unknown_pass_rejected(self):
        with pytest.raises(ValueError, match="unknown pass"):
            run_passes(Netlist("t"), 2, passes=["nonsense"])

    def test_pass_result_reporting(self):
        result = PassResult("demo")
        result.add("m1", 2)
        result.add("m2", 0)
        result.add("m1", 1)
        assert result.rewrites == 3
        assert result.to_dict() == {
            "pass": "demo",
            "rewrites": 3,
            "by_module": {"m1": 3},
        }
        assert "demo" in repr(result)

    def test_levels_are_cumulative_pipelines(self):
        assert OPT_LEVELS[0] == ()
        assert set(OPT_LEVELS[1]) < set(OPT_LEVELS[2])
        assert isinstance(PASS_PIPELINE_VERSION, int)

    def test_profiler_records_pass_scopes(self):
        from repro.obs.profile import Profiler, set_profiler

        m = _base_module()
        m.output("q", 8)
        m.assign("q", "8'd1 + 8'd2")
        profiler = Profiler(enabled=True)
        previous = set_profiler(profiler)
        try:
            run_passes(_netlist(m), 2)
        finally:
            set_profiler(previous)
        labels = {record.label for record in profiler.records()}
        assert any(label.startswith("rtl.passes.") for label in labels)


# --- unparse round-trips --------------------------------------------------


class TestUnparse:
    @pytest.mark.parametrize(
        "text",
        [
            "a + b",
            "(a + b) * c",
            "x[7:0]",
            "mem[addr + 8'd1]",
            "{a, b, 2'd3}",
            "{4{nibble}}",
            "!(a == b) | (c < 8'd9)",
            "~x & y",
            "-x + y",
        ],
    )
    def test_round_trip_preserves_ast_semantics(self, text):
        node = parse_expression(text)
        assert parse_expression(unparse(node)) is not None
        # Unparse of the reparse must be a fixpoint.
        rendered = unparse(node)
        assert unparse(parse_expression(rendered)) == rendered

    def test_unparse_rejects_garbage(self):
        with pytest.raises(RTLError):
            unparse(("mystery", 1))
