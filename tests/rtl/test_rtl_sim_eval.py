"""Tests for the RTL interpreter's evaluation path: lazy settling and
compiled expressions, checked against the equivalence checker's
independent evaluator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.equiv import _evaluate
from repro.rtl.netlist import Module, Netlist, RTLError
from repro.rtl.sim import RTLSimulator


def _netlist(module: Module) -> Netlist:
    netlist = Netlist(module.name)
    netlist.add(module)
    return netlist


class TestLazySettle:
    def _datapath(self) -> RTLSimulator:
        module = Module("datapath")
        module.input("clk")
        module.input("a", 8)
        module.input("b", 8)
        module.input("c", 8)
        module.output("out", 16)
        module.wire("total", 9)
        module.assign("total", "a + b")
        module.assign("out", "total * c")
        return RTLSimulator(_netlist(module))

    def _gated_loop(self) -> RTLSimulator:
        module = Module("gated_loop")
        module.input("clk")
        module.input("en")
        module.output("a")
        # With en high, a = !a: a combinational loop that never settles.
        module.assign("a", "(a + 1'b1) & en")
        return RTLSimulator(_netlist(module))

    def test_peek_after_several_pokes_sees_settled_value(self):
        sim = self._datapath()
        sim.poke("a", 200)
        sim.poke("b", 100)
        sim.poke("c", 3)
        assert sim.peek("total") == 300
        assert sim.peek("out") == 900
        sim.poke("c", 2)
        assert sim.peek("out") == 600

    def test_signal_values_sees_settled_state(self):
        sim = self._datapath()
        sim.poke("a", 1)
        sim.poke("b", 2)
        sim.poke("c", 5)
        values = sim.signal_values()
        assert values["datapath.total"] == (3, 9)
        assert values["datapath.out"] == (15, 16)

    def test_unobserved_pokes_do_not_settle(self):
        sim = self._gated_loop()
        sim.poke("en", 1)
        sim.poke("en", 0)
        assert sim.peek("a") == 0

    def test_loop_reached_by_a_poke_raises_on_every_observation(self):
        sim = self._gated_loop()
        sim.poke("en", 1)
        for observe in (
            lambda: sim.peek("a"),
            lambda: sim.step(),
            lambda: sim.peek("a"),
            sim.signal_values,
        ):
            with pytest.raises(RTLError, match="failed to settle"):
                observe()
        sim.poke("en", 0)
        assert sim.peek("a") == 0

    def test_reset_leaves_settled_state(self):
        module = Module("counter")
        module.input("clk")
        module.input("rst")
        module.input("en")
        module.output("count", 8)
        module.reg("count_r", 8)
        module.sync(["if (en) count_r <= count_r + 8'd1;"], ["count_r <= 8'd0;"])
        module.assign("count", "count_r")
        sim = RTLSimulator(_netlist(module))
        sim.poke("en", 1)
        sim.step(4)
        sim.reset()
        assert sim.peek("count") == 0
        assert sim.peek("rst") == 0
        sim.step(2)
        assert sim.peek("count") == 2

    def test_peek_memory_sees_settled_state(self):
        module = Module("scratchpad")
        module.input("clk")
        module.input("addr", 2)
        module.input("data", 8)
        module.reg("mem", 8, depth=4)
        module.assign("mem[addr]", "data + 8'd1")
        sim = RTLSimulator(_netlist(module))
        sim.poke("addr", 2)
        sim.poke("data", 9)
        assert sim.peek_memory("mem", 2) == 10


# ---------------------------------------------------------------------------
# Compiled expressions against repro.analysis.equiv._evaluate
# ---------------------------------------------------------------------------

_WIDTHS = {"a": 1, "b": 8, "c": 16, "d": 64}


def _literal(value: int, width: int = 32):
    return ("literal", value, width)


_refs = st.sampled_from(sorted(_WIDTHS)).map(lambda name: ("ref", name))
_sized = st.integers(1, 64).flatmap(
    lambda width: st.integers(0, (1 << width) - 1).map(
        lambda value: _literal(value, width)
    )
)
_bounds = st.tuples(st.integers(0, 63), st.integers(0, 63)).map(sorted)


def _computed_bounds(mask: int, width: int):
    """Bounds read from the signal b: lo = b & mask, hi = lo + width - 1,
    so the field is ``width`` bits wide (zero bits when width is 0)."""
    lo = ("binop", "&", ("ref", "b"), _literal(mask))
    hi = ("binop", "-", ("binop", "+", lo, _literal(width)), _literal(1))
    return hi, lo


_dynamic_bounds = st.builds(
    _computed_bounds, st.sampled_from([7, 31, 63]), st.integers(0, 16)
)


def _extend(children):
    return st.one_of(
        st.tuples(st.just("unop"), st.sampled_from("!~-"), children),
        st.tuples(
            st.just("binop"),
            st.sampled_from(
                ["+", "-", "*", "&", "|", "==", "!=", "<", "<=", ">", ">="]
            ),
            children,
            children,
        ),
        st.builds(
            lambda node, bounds: (
                "slice", node, _literal(bounds[1]), _literal(bounds[0])
            ),
            children,
            _bounds,
        ),
        st.builds(
            lambda node, bounds: ("slice", node, *bounds),
            children,
            _dynamic_bounds,
        ),
        # Packed-bit index by a literal or by the 8-bit signal b.
        st.builds(
            lambda node, index: ("index", node, index),
            children,
            st.one_of(st.integers(0, 70).map(_literal), st.just(("ref", "b"))),
        ),
        st.lists(children, min_size=1, max_size=4).map(
            lambda parts: ("concat", parts)
        ),
        st.builds(
            lambda count, node: ("repl", count, node),
            st.one_of(
                st.integers(0, 4).map(_literal),
                st.just(("binop", "&", ("ref", "b"), _literal(3))),
            ),
            children,
        ),
    )


_expressions = st.recursive(st.one_of(_refs, _sized), _extend, max_leaves=12)
_environments = st.fixed_dictionaries(
    {name: st.integers(0, (1 << width) - 1) for name, width in _WIDTHS.items()}
)


@pytest.fixture(scope="module")
def sim() -> RTLSimulator:
    module = Module("leaves")
    module.input("clk")
    for name, width in _WIDTHS.items():
        module.input(name, width)
    return RTLSimulator(_netlist(module))


class TestCompiledEvaluation:
    @settings(max_examples=300, deadline=None)
    @given(node=_expressions, env=_environments)
    def test_matches_equiv_evaluator(self, sim, node, env):
        for name, value in env.items():
            sim.poke(name, value)
        compiled = sim.top._compile(node)
        assert compiled() == _evaluate(node, env, _WIDTHS, set())

    @settings(max_examples=100, deadline=None)
    @given(
        bounds=st.lists(_dynamic_bounds, min_size=1, max_size=3),
        env=_environments,
    )
    def test_concat_of_computed_slices(self, sim, bounds, env):
        # Each part's packing width is hi - lo + 1, read when evaluated.
        for name, value in env.items():
            sim.poke(name, value)
        node = ("concat", [("slice", ("ref", "d"), *pair) for pair in bounds])
        node = ("repl", ("binop", "&", ("ref", "b"), _literal(3)), node)
        compiled = sim.top._compile(node)
        assert compiled() == _evaluate(node, env, _WIDTHS, set())

    def test_writes_at_computed_positions(self):
        module = Module("scatter")
        module.input("clk")
        module.input("lo", 4)
        module.input("data", 8)
        module.reg("field", 16)
        module.reg("flags", 8)
        module.sync(["field[lo + 4'd3:lo] <= data;", "flags[lo] <= data[7:7];"])
        sim = RTLSimulator(_netlist(module))
        field = flags = 0
        for lo, data in [(0, 0xAB), (5, 0xFF), (13, 0x96), (2, 0x00), (7, 0x81)]:
            sim.poke("lo", lo)
            sim.poke("data", data)
            sim.step()
            nibble = 0xF << lo
            field = ((field & ~nibble) | ((data & 0xF) << lo)) & 0xFFFF
            flags = ((flags & ~(1 << lo)) | ((data >> 7) << lo)) & 0xFF
            assert sim.peek("field") == field
            assert sim.peek("flags") == flags

    def test_errors_raise_when_evaluated_not_when_compiled(self, sim):
        undefined = sim.top._compile(("binop", "+", ("ref", "ghost"), _literal(1)))
        with pytest.raises(RTLError, match="undefined signal 'ghost' in leaves"):
            undefined()
