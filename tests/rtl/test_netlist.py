"""Tests for the structural RTL IR (repro.rtl.netlist)."""

import os

import pytest

from repro.analysis import check_netlist, discover_examples
from repro.rtl.netlist import (
    Assign,
    Expr,
    Module,
    Netlist,
    PortDir,
    RTLError,
    Statement,
    SyncBlock,
    parse_expression,
    refs,
)


class TestModuleBuilders:
    def test_ports(self):
        m = Module("m")
        m.input("clk")
        m.output("q", 8)
        assert m.port("q").width == 8
        assert m.port("clk").direction is PortDir.INPUT

    def test_duplicate_declaration_rejected(self):
        m = Module("m")
        m.input("clk")
        with pytest.raises(RTLError):
            m.wire("clk")

    def test_invalid_identifier_rejected(self):
        m = Module("m")
        with pytest.raises(RTLError):
            m.wire("3bad")

    def test_invalid_module_name_rejected(self):
        with pytest.raises(RTLError):
            Module("bad name")

    def test_zero_width_rejected(self):
        m = Module("m")
        with pytest.raises(RTLError):
            m.wire("w", 0)

    def test_memory_depth(self):
        m = Module("m")
        net = m.reg("mem", 32, depth=64)
        assert net.depth == 64

    def test_missing_port_raises(self):
        m = Module("m")
        with pytest.raises(RTLError):
            m.port("nope")

    def test_declared_names(self):
        m = Module("m")
        m.input("a")
        m.wire("b")
        m.reg("c")
        assert m.declared_names() == frozenset({"a", "b", "c"})


class TestNetlist:
    def test_duplicate_module_rejected(self):
        nl = Netlist("top")
        nl.add(Module("top"))
        with pytest.raises(RTLError):
            nl.add(Module("top"))

    def test_missing_module_raises(self):
        nl = Netlist("top")
        with pytest.raises(RTLError):
            nl.module("nope")

    def test_counts(self):
        nl = Netlist("top")
        child = Module("child")
        child.input("clk")
        nl.add(child)
        top = Module("top")
        top.input("clk")
        top.instantiate(child, "c0", {"clk": "clk"})
        top.instantiate(child, "c1", {"clk": "clk"})
        nl.add(top)
        assert nl.total_module_count() == 2
        assert nl.instance_count() == 2


def names(text):
    """The identifiers an accepted expression names: refs of its tree."""
    return set(refs(parse_expression(text)))


def assert_rejected_without_phantoms(text, declared=()):
    """``text`` is outside the grammar: its node keeps the error, and the
    lint reports STL-NL-018 and invents no undeclared identifier
    (STL-NL-001) from the literal spellings inside it."""
    assert Expr(text).error is not None
    module = Module("m")
    module.output("out", 32)
    for name in declared:
        module.wire(name, 32)
    module.assign("out", text)
    netlist = Netlist("m")
    netlist.add(module)
    codes = [d.code for d in check_netlist(netlist)]
    assert "STL-NL-018" in codes, codes
    assert "STL-NL-001" not in codes, codes


class TestExpressionIdentifiers:
    """``refs`` over a node's tree is the netlist's only name scan."""

    def test_simple(self):
        assert names("a + b * c") == {"a", "b", "c"}

    def test_skips_literals(self):
        assert names("x + 32'd15") == {"x"}

    def test_skips_hex_literals(self):
        assert names("y & 8'hff") == {"y"}

    def test_skips_keywords(self):
        # Keywords are grammar, never names; free-form blocks are rejected.
        assert set(Statement("if (en) q <= d;").names()) == {"en", "q", "d"}
        assert_rejected_without_phantoms("if (en) begin end", ["en"])

    def test_subscripts(self):
        assert names("mem[addr[3:0]]") == {"mem", "addr"}


# Literal spellings the grammar does not accept; their texts are
# STL-NL-018 findings rather than name scans.
_REJECTED_LITERALS = {
    "8'D42",
    "16'HDEAD",
    "'d42",
    "'hBEEF",
    "16'sb01",
    "16'SB01",
    "8'o17",
    "4'b10x1",
    "4'bz0?1",
    "1_000",
    "12_3_4",
}


class TestExpressionIdentifierRobustness:
    """Literals in every spelling shed no identifiers: the grammar reads
    them as literals or rejects the whole text."""

    @pytest.mark.parametrize(
        "literal",
        [
            "8'd42",
            "8'D42",
            "16'HDEAD",
            "8'hff",
            "'d42",
            "'hBEEF",
            "16'sb01",
            "16'SB01",
            "8'o17",
            "4'b10x1",
            "4'bz0?1",
            "32'hdead_beef",
            "1_000",
            "42",
            "12_3_4",
        ],
    )
    def test_literal_alone_yields_nothing(self, literal):
        if literal in _REJECTED_LITERALS:
            assert_rejected_without_phantoms(literal)
        else:
            assert names(literal) == set()

    @pytest.mark.parametrize(
        "expression, expected",
        [
            ("x + 16'HDEAD", {"x"}),
            ("{a, 8'o17, b}", {"a", "b"}),
            ("sel ? 8'hx : val", {"sel", "val"}),
            ("count + 1_000", {"count"}),
            ("d42 + 'd42", {"d42"}),
            ("case (s) 2'b01: q <= x; default: q <= y; endcase",
             {"s", "q", "x", "y"}),
        ],
    )
    def test_mixed_expressions(self, expression, expected):
        assert_rejected_without_phantoms(expression, sorted(expected))

    def test_property_random_literal_spellings(self):
        """Property-style sweep: a generated literal next to a known
        identifier never contributes names of its own."""
        from hypothesis import given, settings
        from hypothesis import strategies as st

        literal = st.builds(
            lambda size, signed, base, digits: (
                (str(size) if size else "") + "'" + signed + base + digits
            ),
            st.one_of(st.none(), st.integers(min_value=1, max_value=64)),
            st.sampled_from(["", "s", "S"]),
            st.sampled_from(list("bBoOdDhH")),
            st.text(
                alphabet="0123456789abcdefABCDEFxzXZ?_", min_size=1,
                max_size=8,
            ),
        )

        @given(literal=literal)
        @settings(max_examples=200, deadline=None)
        def check(literal):
            text = f"alpha + {literal} + omega"
            if Expr(text).error is None:
                assert names(text) == {"alpha", "omega"}, literal
            else:
                assert_rejected_without_phantoms(text, ["alpha", "omega"])

        check()

    def test_property_identifiers_always_survive(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        ident = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,10}", fullmatch=True)

        @given(names_=st.lists(ident, min_size=1, max_size=4, unique=True))
        @settings(max_examples=100, deadline=None)
        def check(names_):
            assert names(" + ".join(names_)) == set(names_)

        check()


class TestParsedNodes:
    def test_node_keeps_text_and_tree(self):
        assign = Assign("y", "a + 4'd1")
        assert assign.rhs.text == "a + 4'd1"
        assert assign.rhs.tree == parse_expression("a + 4'd1")
        assert assign.lhs.tree == ("ref", "y")

    def test_rejected_text_keeps_its_error(self):
        expr = Expr("a ? b : c")
        assert expr.error is not None
        with pytest.raises(RTLError, match="cannot tokenize"):
            expr.tree

    def test_nodes_are_immutable(self):
        assign = Assign("y", "a")
        with pytest.raises(AttributeError):
            assign.rhs = Expr("b")
        with pytest.raises(AttributeError):
            assign.rhs.text = "b"
        block = SyncBlock(["r <= r;"])
        assert isinstance(block.statements, tuple)

    def test_clone_shares_nodes(self):
        module = Module("m")
        module.output("y")
        module.assign("y", "1'b1")
        copy = module.clone()
        assert copy.assigns[0] is module.assigns[0]
        assert copy.assigns is not module.assigns

    def test_pickle_round_trip_keeps_trees(self):
        import pickle

        block = SyncBlock(["if (en) r <= r + 8'd1;"], ["r <= 8'd0;"])
        copy = pickle.loads(pickle.dumps(block))
        assert [s.text for s in copy.statements] == ["if (en) r <= r + 8'd1;"]
        assert copy.statements[0].tree == block.statements[0].tree
        bad = pickle.loads(pickle.dumps(Expr("a ? b : c")))
        with pytest.raises(RTLError):
            bad.tree

    def test_consumers_never_parse(self, monkeypatch):
        """The simulator, the lint and the equivalence checker read the
        trees the nodes parsed when they were built."""
        import repro.rtl.netlist as netlist_module
        from repro.analysis.equiv import check_equivalence
        from repro.rtl.lowering import lower_design
        from repro.rtl.passes import run_passes
        from repro.rtl.sim import RTLSimulator

        examples = os.path.join(
            os.path.dirname(os.path.dirname(os.path.dirname(
                os.path.abspath(__file__)))),
            "examples",
            "quickstart.py",
        )
        (target,) = discover_examples([examples])
        base = lower_design(target.build().build().compiled, check=False)
        optimized, results = run_passes(base, 2)
        assert sum(r.rewrites for r in results) > 0

        parsed = []
        tokenize = netlist_module._tokenize
        monkeypatch.setattr(
            netlist_module,
            "_tokenize",
            lambda text: parsed.append(text) or tokenize(text),
        )
        RTLSimulator(base).step(2)
        assert check_netlist(base) == []
        assert check_netlist(optimized) == []
        assert check_equivalence(base, optimized).ok
        assert parsed == []
