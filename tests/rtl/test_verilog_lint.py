"""Tests for Verilog emission and structural lint (repro.rtl)."""

from repro.analysis.diagnostics import Severity
from repro.analysis.netlist import check_module, check_netlist
from repro.rtl.netlist import Instance, Module, Netlist
from repro.rtl.verilog import emit_module, emit_netlist


def lint_module(module: Module, netlist: Netlist) -> list:
    """Error-severity module findings in the legacy string format."""
    return [
        d.legacy_text()
        for d in check_module(module, netlist)
        if d.severity >= Severity.ERROR
    ]


def lint_netlist(netlist: Netlist) -> list:
    """Error-severity netlist findings in the legacy string format."""
    return [
        d.legacy_text()
        for d in check_netlist(netlist)
        if d.severity >= Severity.ERROR
    ]


def _counter_module() -> Module:
    m = Module("counter")
    m.input("clk")
    m.input("rst")
    m.output("count", 8)
    m.reg("count_r", 8)
    m.sync(["count_r <= count_r + 8'd1;"], ["count_r <= 8'd0;"])
    m.assign("count", "count_r")
    return m


class TestEmission:
    def test_module_structure(self):
        text = emit_module(_counter_module())
        assert text.startswith("module counter (")
        assert text.rstrip().endswith("endmodule")
        assert "input clk" in text
        assert "output [7:0] count" in text
        assert "reg [7:0] count_r;" in text
        assert "always @(posedge clk) begin" in text
        assert "if (rst) begin" in text
        assert "assign count = count_r;" in text

    def test_memory_array_declaration(self):
        m = Module("mem")
        m.input("clk")
        m.reg("data", 32, depth=16)
        text = emit_module(m)
        assert "reg [31:0] data [0:15];" in text

    def test_netlist_emits_children_first(self):
        nl = Netlist("top")
        child = _counter_module()
        nl.add(child)
        top = Module("top")
        top.input("clk")
        top.input("rst")
        top.output("out", 8)
        top.wire("cnt", 8)
        top.assign("out", "cnt")
        top.instantiate(child, "c0", {"clk": "clk", "rst": "rst", "count": "cnt"})
        nl.add(top)
        text = emit_netlist(nl)
        assert text.index("module counter") < text.index("module top")
        assert text.count("endmodule") == 2

    def test_instance_connections(self):
        nl = Netlist("top")
        child = _counter_module()
        nl.add(child)
        top = Module("top")
        top.input("clk")
        top.input("rst")
        top.wire("cnt", 8)
        top.instantiate(child, "c0", {"clk": "clk", "rst": "rst", "count": "cnt"})
        nl.add(top)
        text = emit_netlist(nl)
        assert ".clk(clk)" in text
        assert ".count(cnt)" in text


class TestLint:
    def _netlist_with(self, module: Module) -> Netlist:
        nl = Netlist(module.name)
        nl.add(module)
        return nl

    def test_clean_module(self):
        m = _counter_module()
        assert lint_module(m, self._netlist_with(m)) == []

    def test_undeclared_identifier_detected(self):
        m = Module("m")
        m.input("clk")
        m.output("q")
        m.assign("q", "ghost_signal")
        problems = lint_module(m, self._netlist_with(m))
        assert any("ghost_signal" in p for p in problems)

    def test_undriven_output_detected(self):
        m = Module("m")
        m.input("clk")
        m.output("q")
        problems = lint_module(m, self._netlist_with(m))
        assert any("never driven" in p for p in problems)

    def test_assign_to_reg_detected(self):
        m = Module("m")
        m.input("clk")
        m.reg("r")
        m.assign("r", "1'b1")
        problems = lint_module(m, self._netlist_with(m))
        assert any("sync block" in p for p in problems)

    def test_sync_drive_of_wire_detected(self):
        m = Module("m")
        m.input("clk")
        m.wire("w")
        m.sync(["w <= 1'b1;"])
        problems = lint_module(m, self._netlist_with(m))
        assert any("non-reg" in p for p in problems)

    def test_guarded_sync_statement_accepted(self):
        m = Module("m")
        m.input("clk")
        m.input("en")
        m.reg("r", 8)
        m.sync(["if (en) r <= r + 8'd1;"])
        assert lint_module(m, self._netlist_with(m)) == []

    def test_unknown_child_module_detected(self):
        nl = Netlist("top")
        top = Module("top")
        top.input("clk")
        top.instances.append(Instance("ghost", "g0", {}))
        nl.add(top)
        problems = lint_netlist(nl)
        assert any("unknown" in p for p in problems)

    def test_unconnected_input_detected(self):
        nl = Netlist("top")
        child = _counter_module()
        nl.add(child)
        top = Module("top")
        top.input("clk")
        top.wire("cnt", 8)
        top.instantiate(child, "c0", {"clk": "clk", "count": "cnt"})  # rst missing
        nl.add(top)
        problems = lint_netlist(nl)
        assert any("unconnected" in p and "rst" in p for p in problems)

    def test_connection_to_missing_port_detected(self):
        nl = Netlist("top")
        child = _counter_module()
        nl.add(child)
        top = Module("top")
        top.input("clk")
        top.input("rst")
        top.wire("cnt", 8)
        top.instantiate(
            child, "c0",
            {"clk": "clk", "rst": "rst", "count": "cnt", "bogus": "clk"},
        )
        nl.add(top)
        problems = lint_netlist(nl)
        assert any("missing" in p and "bogus" in p for p in problems)

    def test_missing_top_detected(self):
        nl = Netlist("nothing")
        assert lint_netlist(nl) == ["top module 'nothing' is missing"]

    def test_cycle_detected(self):
        nl = Netlist("a")
        a = Module("a")
        a.input("clk")
        b = Module("b")
        b.input("clk")
        a.instantiate(b, "b0", {"clk": "clk"})
        b.instantiate(a, "a0", {"clk": "clk"})
        nl.add(a)
        nl.add(b)
        problems = lint_netlist(nl)
        assert any("cycle" in p for p in problems)
