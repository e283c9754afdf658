"""Edge-case tests for the RTL interpreter."""

import pytest

from repro.rtl.netlist import Module, Netlist, RTLError
from repro.rtl.netlist import parse_expression, parse_statement
from repro.rtl.sim import RTLSimulator


def _netlist(module: Module) -> Netlist:
    netlist = Netlist(module.name)
    netlist.add(module)
    return netlist


class TestMemories:
    def _memory_module(self) -> Module:
        module = Module("memory")
        module.input("clk")
        module.input("rst")
        module.input("wr_en")
        module.input("addr", 8)
        module.input("wr_data", 32)
        module.output("rd_data", 32)
        module.reg("mem", 32, depth=16)
        module.sync(["if (wr_en) mem[addr] <= wr_data;"])
        module.assign("rd_data", "mem[addr]")
        return module

    def test_write_then_read(self):
        sim = RTLSimulator(_netlist(self._memory_module()))
        sim.poke("addr", 3)
        sim.poke("wr_data", 77)
        sim.poke("wr_en", 1)
        sim.step(1)
        sim.poke("wr_en", 0)
        assert sim.peek("rd_data") == 77

    def test_unwritten_reads_zero(self):
        sim = RTLSimulator(_netlist(self._memory_module()))
        sim.poke("addr", 9)
        assert sim.peek("rd_data") == 0

    def test_peek_memory(self):
        sim = RTLSimulator(_netlist(self._memory_module()))
        sim.poke("addr", 2)
        sim.poke("wr_data", 5)
        sim.poke("wr_en", 1)
        sim.step(1)
        assert sim.peek_memory("mem", 2) == 5
        assert sim.peek_memory("mem", 3) == 0

    def test_peek_memory_without_index_rejected(self):
        sim = RTLSimulator(_netlist(self._memory_module()))
        with pytest.raises(RTLError):
            sim.peek("mem")


class TestSliceSemantics:
    def test_slice_read(self):
        module = Module("slicer")
        module.input("clk")
        module.input("bus", 16)
        module.output("high", 8)
        module.output("low", 8)
        module.assign("high", "bus[15:8]")
        module.assign("low", "bus[7:0]")
        sim = RTLSimulator(_netlist(module))
        sim.poke("bus", 0xAB12)
        assert sim.peek("high") == 0xAB
        assert sim.peek("low") == 0x12

    def test_concat_read(self):
        module = Module("packer")
        module.input("clk")
        module.input("a", 8)
        module.input("b", 8)
        module.output("packed", 16)
        module.assign("packed", "{a, b}")
        sim = RTLSimulator(_netlist(module))
        sim.poke("a", 0xCD)
        sim.poke("b", 0x34)
        assert sim.peek("packed") == 0xCD34

    def test_single_bit_index_read(self):
        module = Module("bit")
        module.input("clk")
        module.input("mask", 8)
        module.input("sel", 3)
        module.output("hit")
        module.assign("hit", "mask[sel]")
        sim = RTLSimulator(_netlist(module))
        sim.poke("mask", 0b00100000)
        sim.poke("sel", 5)
        assert sim.peek("hit") == 1
        sim.poke("sel", 4)
        assert sim.peek("hit") == 0


class TestNonBlockingSemantics:
    def test_swap_uses_pre_edge_values(self):
        """Two registers swapping through non-blocking assignments must
        exchange values, not duplicate one (the defining NBA behaviour)."""
        module = Module("swapper")
        module.input("clk")
        module.input("rst")
        module.reg("x", 8)
        module.reg("y", 8)
        module.sync(["x <= y;", "y <= x;"], ["x <= 8'd1;", "y <= 8'd2;"])
        sim = RTLSimulator(_netlist(module))
        sim.reset()
        assert (sim.peek("x"), sim.peek("y")) == (1, 2)
        sim.step(1)
        assert (sim.peek("x"), sim.peek("y")) == (2, 1)
        sim.step(1)
        assert (sim.peek("x"), sim.peek("y")) == (1, 2)

    def test_shift_chain_moves_one_per_cycle(self):
        module = Module("chain")
        module.input("clk")
        module.input("rst")
        module.input("din", 8)
        module.output("dout", 8)
        module.reg("s0", 8)
        module.reg("s1", 8)
        module.sync(["s0 <= din;", "s1 <= s0;"], ["s0 <= 8'd0;", "s1 <= 8'd0;"])
        module.assign("dout", "s1")
        sim = RTLSimulator(_netlist(module))
        sim.reset()
        sim.poke("din", 9)
        sim.step(1)
        assert sim.peek("dout") == 0
        sim.step(1)
        assert sim.peek("dout") == 9


class TestErrors:
    def test_unknown_signal_rejected(self):
        module = Module("m")
        module.input("clk")
        sim = RTLSimulator(_netlist(module))
        with pytest.raises(KeyError):
            sim.peek("ghost")

    def test_unknown_instance_path_rejected(self):
        module = Module("m")
        module.input("clk")
        sim = RTLSimulator(_netlist(module))
        with pytest.raises(RTLError):
            sim.peek("nothere.signal")

    def test_combinational_loop_detected(self):
        module = Module("loop")
        module.input("clk")
        module.wire("a")
        module.assign("a", "a + 1'b1")  # a = !a: oscillates, never settles
        with pytest.raises(RTLError):
            RTLSimulator(_netlist(module))


class TestParserErrors:
    @pytest.mark.parametrize("literal", ["8'dff", "8'b102", "8'd_"])
    def test_malformed_literal_raises_rtl_error_naming_it(self, literal):
        with pytest.raises(RTLError, match=f"malformed literal \"{literal}\""):
            parse_expression(f"a + {literal}")

    def test_only_an_identifier_is_a_name(self):
        with pytest.raises(RTLError, match="expected an identifier, found '<'"):
            parse_expression("a < <")
        with pytest.raises(RTLError, match="expected an identifier, found \"8'd1\""):
            parse_statement("8'd1 <= a;")
