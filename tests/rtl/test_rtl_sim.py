"""Tests for the RTL interpreter: the emitted netlists actually run.

These tests stand in for the paper's cycle-exact RTL validation: the
generated modules -- PEs, regfiles, DMA, whole arrays -- are executed
cycle by cycle and must behave as the hardware they describe.
"""

import pytest

from repro.core import Bounds, compile_design, matmul_spec
from repro.core.dataflow import input_stationary, output_stationary
from repro.core.sparsity import csr_b_matrix
from repro.rtl.lowering import lower_design
from repro.rtl.netlist import Module, Netlist, RTLError
from repro.rtl.netlist import parse_expression, parse_statement
from repro.rtl.sim import RTLSimulator


def _single_module_netlist(module: Module) -> Netlist:
    netlist = Netlist(module.name)
    netlist.add(module)
    return netlist


class TestExpressionParsing:
    def test_sized_literal(self):
        assert parse_expression("16'd42") == ("literal", 42, 16)

    def test_binary_literal(self):
        assert parse_expression("1'b1") == ("literal", 1, 1)

    def test_precedence(self):
        # a + b * c parses the multiply first.
        node = parse_expression("a + b * c")
        assert node[1] == "+"
        assert node[3][1] == "*"

    def test_slice(self):
        node = parse_expression("bus[15:8]")
        assert node[0] == "slice"

    def test_memory_index(self):
        node = parse_expression("mem[ptr]")
        assert node[0] == "index"

    def test_concat(self):
        node = parse_expression("{16'd1, 16'd2}")
        assert node[0] == "concat"

    def test_replication(self):
        node = parse_expression("{8{1'b0}}")
        assert node[0] == "repl"

    def test_guarded_statement(self):
        cond, lvalue, rhs = parse_statement("if (en) r <= r + 8'd1;")
        assert cond is not None
        assert lvalue == ("ref", "r")

    def test_unguarded_statement(self):
        cond, lvalue, _ = parse_statement("r <= 8'd0;")
        assert cond is None

    def test_garbage_rejected(self):
        with pytest.raises(RTLError):
            parse_expression("a @ b")


class TestCounterModule:
    def _counter(self) -> RTLSimulator:
        module = Module("counter")
        module.input("clk")
        module.input("rst")
        module.input("en")
        module.output("count", 8)
        module.reg("count_r", 8)
        module.sync(
            ["if (en) count_r <= count_r + 8'd1;"], ["count_r <= 8'd0;"]
        )
        module.assign("count", "count_r")
        return RTLSimulator(_single_module_netlist(module))

    def test_counts_when_enabled(self):
        sim = self._counter()
        sim.reset()
        sim.poke("en", 1)
        sim.step(5)
        assert sim.peek("count") == 5

    def test_holds_when_disabled(self):
        sim = self._counter()
        sim.reset()
        sim.poke("en", 1)
        sim.step(3)
        sim.poke("en", 0)
        sim.step(4)
        assert sim.peek("count") == 3

    def test_reset_clears(self):
        sim = self._counter()
        sim.poke("en", 1)
        sim.step(3)
        sim.reset()
        assert sim.peek("count") == 0

    def test_width_wraps(self):
        sim = self._counter()
        sim.reset()
        sim.poke("en", 1)
        sim.step(258)
        assert sim.peek("count") == 2  # 8-bit wrap


class TestGeneratedModules:
    @pytest.fixture(scope="class")
    def netlist(self):
        design = compile_design(
            matmul_spec(), Bounds({"i": 2, "j": 2, "k": 2}), output_stationary()
        )
        return lower_design(design)

    def test_pe_time_counter_runs(self, netlist):
        sim = RTLSimulator(netlist, top="matmul_pe")
        sim.reset()
        sim.step(7)
        assert sim.peek("t_counter") == 7

    def test_pe_pipeline_delays_operand(self, netlist):
        """A moving operand crosses the PE with exactly its pipeline
        depth (Figure 3's registers)."""
        sim = RTLSimulator(netlist, top="matmul_pe")
        sim.reset()
        sim.poke("a_in", 42)
        assert sim.peek("a_out") != 42  # not combinational
        sim.step(1)
        assert sim.peek("a_out") == 42

    def test_stationary_hold_register(self, netlist):
        sim = RTLSimulator(netlist, top="matmul_pe")
        sim.reset()
        sim.poke("c_in", 99)
        sim.poke("c_load", 1)
        sim.step(1)
        sim.poke("c_load", 0)
        sim.poke("c_in", 7)
        sim.step(3)
        assert sim.peek("c_hold") == 99  # held until the next load

    def test_feedforward_regfile_module(self):
        """The Figure 14c FIFO: data exits in entry order."""
        from repro.core.memspec import HardcodedParams, dense_matrix_buffer

        membufs = {
            "B": dense_matrix_buffer(
                "B", 2, 2,
                hardcoded_read=HardcodedParams(spans={0: 2, 1: 2}, wavefront=True),
            )
        }
        design = compile_design(
            matmul_spec(), Bounds({"i": 2, "j": 2, "k": 2}),
            output_stationary(), membufs=membufs,
        )
        netlist = lower_design(design)
        name = next(n for n in netlist.modules if "rf_b_feedforward" in n)
        sim = RTLSimulator(netlist, top=name)
        sim.reset()
        for value in (11, 22, 33):
            sim.poke("wr_data", value)
            sim.poke("wr_en", 1)
            sim.step(1)
        sim.poke("wr_en", 0)
        assert sim.peek("rd_valid") == 1
        outs = []
        for _ in range(3):
            outs.append(sim.peek("rd_data"))
            sim.poke("rd_en", 1)
            sim.step(1)
        assert outs == [11, 22, 33]

    def test_dma_inflight_counter(self, netlist):
        sim = RTLSimulator(netlist, top="matmul_dma")
        sim.reset()
        assert sim.peek("req_ready") == 1
        sim.poke("req_valid", 1)
        sim.step(1)
        assert sim.peek("inflight") == 1
        # A one-deep DMA refuses further requests while one is in flight.
        assert sim.peek("req_ready") == 0
        sim.poke("req_valid", 0)
        sim.poke("dram_resp_valid", 1)
        sim.step(1)
        assert sim.peek("inflight") == 0
        sim.poke("dram_resp_valid", 0)
        assert sim.peek("req_ready") == 1

    def test_full_array_settles_and_clocks(self, netlist):
        """The whole hierarchical top simulates without X-loops."""
        sim = RTLSimulator(netlist)
        sim.reset()
        sim.poke("start", 1)
        sim.step(1)
        assert sim.peek("busy") == 1
        sim.step(5)
        # Every PE's time counter advanced together (the global start).
        assert sim.peek("spatial_array.pe_0_0.t_counter") == 6
        assert sim.peek("spatial_array.pe_1_1.t_counter") == 6


class TestSparseGeneratedModules:
    def test_pruned_pe_regfile_ports_respond(self):
        design = compile_design(
            matmul_spec(),
            Bounds({"i": 2, "j": 2, "k": 2}),
            input_stationary(),
            sparsity=csr_b_matrix(matmul_spec()),
        )
        netlist = lower_design(design)
        sim = RTLSimulator(netlist, top="matmul_pe")
        sim.reset()
        sim.poke("en", 1)
        sim.poke("c_rf_rd_data", 17)
        # The pruned variable's datapath forwards regfile reads to writes.
        assert sim.peek("c_rf_wr_data") == 17
        assert sim.peek("c_rf_rd_req") == 1
