"""Tests for the RTL interpreter's evaluation path: lazy settling and
compiled expressions, checked against a direct walk of the tree."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.trace import tracing
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

    def test_sampler_reads_paths_in_the_given_order(self):
        child = Module("child")
        child.input("x", 4)
        child.output("y", 4)
        child.assign("y", "x + 4'd1")
        top = Module("top")
        top.input("a", 4)
        top.output("b", 4)
        top.wire("mid", 4)
        top.instantiate(child, "u0", {"x": "a", "y": "mid"})
        top.assign("b", "mid + 4'd1")
        netlist = Netlist("top")
        netlist.add(child)
        netlist.add(top)
        sim = RTLSimulator(netlist)
        # Three runs of one instance each: two of top's paths, u0's two,
        # then ``top.a`` alone.
        paths = ["top.b", "top.mid", "top.u0.y", "top.u0.x", "top.a"]
        sample = sim.sampler(paths)
        sim.poke("a", 5)
        assert sample() == [7, 6, 6, 5, 5]
        values = sim.signal_values()
        assert sample() == [values[path][0] for path in paths]
        assert sim.sampler([])() == []
        with pytest.raises(RTLError, match="no signal 'top.nope'"):
            sim.sampler(["top.nope"])

    def test_sampler_settles_first(self):
        sim = self._gated_loop()
        sample = sim.sampler(["gated_loop.a"])
        sim.poke("en", 1)
        with pytest.raises(RTLError, match="failed to settle"):
            sample()
        sim.poke("en", 0)
        assert sample() == [0]

    def test_driver_masks_to_the_declared_width(self):
        sim = self._datapath()
        drive = sim.driver(["a", "b", "c"])
        drive([0x1FF, 2, 3])
        assert sim.peek("a") == 0xFF
        assert sim.peek("out") == (0xFF + 2) * 3

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

    def test_disagreeing_whole_signal_drivers_fail_to_settle(self):
        sim = self._two_drivers()
        sim.poke("a", 3)
        sim.poke("b", 5)
        with pytest.raises(RTLError, match="failed to settle"):
            sim.peek("w")

    def test_agreeing_whole_signal_drivers_settle(self):
        sim = self._two_drivers()
        sim.poke("a", 6)
        sim.poke("b", 6)
        assert sim.peek("w") == 6

    def _two_drivers(self) -> RTLSimulator:
        module = Module("two_drivers")
        module.input("clk")
        module.input("a", 4)
        module.input("b", 4)
        module.output("w", 4)
        module.assign("w", "a")
        module.assign("w", "b")
        return RTLSimulator(_netlist(module))

    def test_disjoint_literal_slice_drivers_concatenate(self):
        module = Module("bus")
        module.input("clk")
        module.input("lo", 4)
        module.input("hi", 4)
        module.output("packed", 8)
        module.output("top", 4)
        module.assign("top", "packed[7:4]")
        module.assign("packed[7:4]", "hi")
        module.assign("packed[3:0]", "lo")
        sim = RTLSimulator(_netlist(module))
        sim.poke("lo", 0x5)
        sim.poke("hi", 0xC)
        assert sim.peek("packed") == 0xC5
        assert sim.peek("top") == 0xC

    def test_gated_loop_through_a_child_instance(self):
        child = Module("follower")
        child.input("in")
        child.output("out")
        child.assign("out", "in")
        parent = Module("ring")
        parent.input("clk")
        parent.input("en")
        parent.wire("fb")
        parent.wire("o")
        parent.assign("fb", "~(o & en)")
        parent.instantiate(child, "f", {"in": "fb", "out": "o"})
        netlist = Netlist("ring")
        netlist.add(child)
        netlist.add(parent)
        sim = RTLSimulator(netlist)
        assert sim.peek("o") == 1
        sim.poke("en", 1)
        with pytest.raises(RTLError, match="failed to settle"):
            sim.peek("o")
        with pytest.raises(RTLError, match="failed to settle"):
            sim.peek("f.out")
        sim.poke("en", 0)
        assert sim.peek("o") == 1
        assert sim.peek("f.in") == 1

    def test_assigns_listed_after_their_readers_settle(self):
        module = Module("chain")
        module.input("clk")
        module.input("a", 8)
        module.output("y", 8)
        module.wire("m", 8)
        module.assign("y", "m + 8'd1")
        module.assign("m", "a * 8'd2")
        sim = RTLSimulator(_netlist(module))
        sim.poke("a", 20)
        assert sim.peek("y") == 41

    def test_shared_code_tells_apart_children_with_other_ports(self):
        # One parent module, the very same nodes, over a child whose
        # port widths differ: the parent's wiring masks differ, so its
        # code must too.
        parent = Module("outer")
        parent.input("clk")
        parent.input("a", 8)
        parent.output("y", 8)
        parent.instantiate(Module("inner"), "c", {"i": "a", "o": "y"})

        def netlist(width):
            child = Module("inner")
            child.input("i", width)
            child.output("o", 8)
            child.assign("o", "i")
            out = Netlist("outer")
            out.add(child)
            out.add(parent)
            return out

        code = {}
        for width, expected in ((8, 0xAB), (4, 0xB)):
            sim = RTLSimulator(netlist(width), code=code)
            sim.poke("a", 0xAB)
            assert sim.peek("y") == expected

    def test_step_instant_counts_fired_sync_statements(self):
        module = Module("guarded")
        module.input("clk")
        module.input("rst")
        module.input("en")
        module.reg("x", 4)
        module.reg("y", 4)
        module.sync(
            ["x <= x + 4'd1;", "if (en) y <= x;", "if (!en) y <= 4'd9;"],
            ["x <= 4'd0;"],
        )
        sim = RTLSimulator(_netlist(module))
        with tracing() as tracer:
            sim.poke("en", 1)
            sim.step()
            sim.reset()
            sim.poke("en", 0)
            sim.step(2)
        steps = [e for e in tracer.events() if e.name == "step"]
        assert [e.payload["writes"] for e in steps] == [2, 1, 2, 2]
        assert [e.payload["reset"] for e in steps] == [False, True, False, False]
        assert [e.cycle for e in steps] == [1, 2, 3, 4]

    def test_undefined_read_raises_whatever_the_assign_order(self):
        for assigns in (
            [("y", "ghost + 4'd1"), ("ghost", "a")],
            [("ghost", "a"), ("y", "ghost + 4'd1")],
        ):
            module = Module("m")
            module.input("clk")
            module.input("a", 4)
            module.output("y", 4)
            for lhs, rhs in assigns:
                module.assign(lhs, rhs)
            with pytest.raises(RTLError, match="undefined signal 'ghost' in m"):
                RTLSimulator(_netlist(module))

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
# Compiled expressions against a direct walk of the tree
# ---------------------------------------------------------------------------

_WIDTHS = {"a": 1, "b": 8, "c": 16, "d": 64}


def _tree_walk(node, env):
    """The value of a memory-free ``node`` by a direct walk of its tree,
    the reference the compiled code is held to.  A concat part or repl
    body packs into a literal's size, a name's declared width,
    ``hi - lo + 1`` of a slice (its bounds evaluated), else 32 bits."""
    kind = node[0]

    def walk(child):
        return _tree_walk(child, env)

    def packed(part):
        value = walk(part)
        if part[0] == "literal":
            width = part[2]
        elif part[0] == "ref":
            width = _WIDTHS[part[1]]
        elif part[0] == "slice":
            width = walk(part[2]) - walk(part[3]) + 1
        else:
            width = 32
        return width, value & ((1 << width) - 1)

    if kind == "literal":
        return node[1] & ((1 << node[2]) - 1)
    if kind == "ref":
        return env[node[1]]
    if kind == "index":
        index = walk(node[2])
        return (walk(node[1]) >> index) & 1
    if kind == "slice":
        value, hi, lo = walk(node[1]), walk(node[2]), walk(node[3])
        return (value >> lo) & ((1 << (hi - lo + 1)) - 1)
    if kind in ("concat", "repl"):
        parts = node[1] if kind == "concat" else [node[2]] * walk(node[1])
        out = 0
        for width, value in map(packed, parts):
            out = (out << width) | value
        return out
    if kind == "unop":
        value = walk(node[2])
        return {"!": int(not value), "~": ~value, "-": -value}[node[1]]
    lhs, rhs = walk(node[2]), walk(node[3])
    return int({
        "+": lhs + rhs, "-": lhs - rhs, "*": lhs * rhs, "&": lhs & rhs,
        "|": lhs | rhs, "==": lhs == rhs, "!=": lhs != rhs, "<": lhs < rhs,
        "<=": lhs <= rhs, ">": lhs > rhs, ">=": lhs >= rhs,
    }[node[1]])


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
    def test_matches_tree_walk(self, sim, node, env):
        for name, value in env.items():
            sim.poke(name, value)
        compiled = sim.top.expression(node)
        assert compiled() == _tree_walk(node, env)

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
        compiled = sim.top.expression(node)
        assert compiled() == _tree_walk(node, env)

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
        undefined = sim.top.expression(("binop", "+", ("ref", "ghost"), _literal(1)))
        with pytest.raises(RTLError, match="undefined signal 'ghost' in leaves"):
            undefined()
