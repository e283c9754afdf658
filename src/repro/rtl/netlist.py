"""A minimal structural RTL intermediate representation.

Stellar lowers its optimized IR onto Chisel templates which Chisel then
lowers to Verilog (paper Figure 7).  Offline, with no JVM or EDA tools,
this package plays the Chisel role: a small structural netlist IR --
modules, ports, nets, registers, continuous assigns, synchronous blocks,
and instances -- that the Verilog emitter (:mod:`repro.rtl.verilog`)
renders as synthesizable-style text and the netlist dataflow analyzer
(:mod:`repro.analysis.netlist`) checks structurally.

The IR owns its expression grammar (:func:`parse_expression`,
:func:`parse_statement`).  Every expression text -- an assign side, a
sync statement, an instance connection -- is an immutable node that
parses its text once, when it is built, and keeps the tree next to the
text: the emitter writes the text verbatim, while the simulator, the
passes, the equivalence checker and the lint read the tree and never
parse.  Text the grammar rejects keeps its :class:`RTLError` instead,
which the lint reports and every other consumer raises.  A pass that
rewrites a node builds a new one, so only rewritten text is parsed
again.
"""

from __future__ import annotations

import enum
import re
from typing import Dict, Iterator, List, Optional, Sequence, Tuple


class RTLError(ValueError):
    """Raised for malformed netlists."""


_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

# ---------------------------------------------------------------------------
# The expression grammar
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<sized>\d+'[bdh][0-9a-fA-F_]+)|(?P<num>\d+)"
    r"|(?P<id>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op><=|>=|==|!=|<|>|\+|-|\*|&|\||!|~|\(|\)|\[|\]|\{|\}|,|:|;))"
)


def _tokens(text: str) -> Iterator["re.Match[str]"]:
    """The token matches of ``text``, each spanning the whitespace before it."""
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise RTLError(f"cannot tokenize {text[pos:]!r} in {text!r}")
        yield match
        pos = match.end()


def _tokenize(text: str) -> List[str]:
    return [match.group(0).strip() for match in _tokens(text)]


def _mask(value: int, width: int) -> int:
    return value & ((1 << width) - 1)


def _literal_value(token: str) -> Tuple[int, int]:
    """Parse a sized literal; returns (value, width)."""
    width_text, rest = token.split("'")
    base = {"b": 2, "d": 10, "h": 16}[rest[0]]
    try:
        return int(rest[1:].replace("_", ""), base), int(width_text)
    except ValueError:
        raise RTLError(f"malformed literal {token!r}") from None


class _Parser:
    """Recursive-descent parser for the emitted expression subset."""

    def __init__(self, tokens: List[str]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Optional[str]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, expected: Optional[str] = None) -> str:
        token = self.peek()
        if token is None:
            raise RTLError("unexpected end of expression")
        if expected is not None and token != expected:
            raise RTLError(f"expected {expected!r}, found {token!r}")
        self.pos += 1
        return token

    # expression := comparison (('&'|'|') comparison)*
    def expression(self):
        node = self.comparison()
        while self.peek() in ("&", "|"):
            op = self.take()
            node = ("binop", op, node, self.comparison())
        return node

    def comparison(self):
        node = self.sum()
        while self.peek() in ("==", "!=", "<", "<=", ">", ">="):
            op = self.take()
            node = ("binop", op, node, self.sum())
        return node

    def sum(self):
        node = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()
            node = ("binop", op, node, self.term())
        return node

    def term(self):
        node = self.unary()
        while self.peek() == "*":
            self.take()
            node = ("binop", "*", node, self.unary())
        return node

    def unary(self):
        if self.peek() in ("!", "~", "-"):
            op = self.take()
            return ("unop", op, self.unary())
        return self.primary()

    def primary(self):
        token = self.peek()
        if token == "(":
            self.take()
            node = self.expression()
            self.take(")")
            return self._postfix(node)
        if token == "{":
            self.take()
            first = self.expression()
            if self.peek() == "{":
                # Replication: {N{expr}}.
                self.take()
                inner = self.expression()
                self.take("}")
                self.take("}")
                return ("repl", first, inner)
            parts = [first]
            while self.peek() == ",":
                self.take()
                parts.append(self.expression())
            self.take("}")
            return ("concat", parts)
        if token is None:
            raise RTLError("unexpected end of expression")
        if "'" in token:
            value, width = _literal_value(self.take())
            return ("literal", value, width)
        if token.isdigit():
            return ("literal", int(self.take()), 32)
        return self._postfix(("ref", self.name()))

    def name(self) -> str:
        token = self.take()
        if not (token[0].isalpha() or token[0] == "_"):
            raise RTLError(f"expected an identifier, found {token!r}")
        return token

    def _postfix(self, node):
        while self.peek() == "[":
            self.take()
            first = self.expression()
            if self.peek() == ":":
                self.take()
                second = self.expression()
                self.take("]")
                node = ("slice", node, first, second)
            else:
                self.take("]")
                node = ("index", node, first)
        return node


def parse_expression(text: str):
    parser = _Parser(_tokenize(text))
    node = parser.expression()
    if parser.peek() not in (None, ";"):
        raise RTLError(f"trailing tokens in expression {text!r}")
    return node


def parse_statement(text: str):
    """Parse ``[if (cond)] lvalue <= expr ;`` into (cond, lvalue, expr)."""
    parser = _Parser(_tokenize(text))
    cond = None
    if parser.peek() == "if":
        parser.take()
        parser.take("(")
        cond = parser.expression()
        parser.take(")")
    lvalue = parser._postfix(("ref", parser.name()))
    parser.take("<=")
    rhs = parser.expression()
    if parser.peek() == ";":
        parser.take()
    if parser.peek() is not None:
        raise RTLError(f"trailing tokens in statement {text!r}")
    return cond, lvalue, rhs


def lvalue_base(node) -> Optional[str]:
    """The signal an lvalue writes: the ref under its selects, if any."""
    while node[0] in ("index", "slice"):
        node = node[1]
    return node[1] if node[0] == "ref" else None


def refs(node) -> Iterator[str]:
    """Every identifier an AST names, depth first, repeats included."""
    kind = node[0]
    if kind == "ref":
        yield node[1]
    elif kind != "literal":
        for child in node[1] if kind == "concat" else node[1:]:
            if type(child) is tuple:
                yield from refs(child)


def rename(text: str, old: str, new: str) -> str:
    """``text`` with every identifier token ``old`` spelled ``new``.

    Only identifier tokens change; literals (``4'd1`` holds no
    identifier ``d1``), whitespace and every other token keep their
    spelling.
    """
    return "".join(
        match.group(0)[: -len(old)] + new
        if match.group("id") == old
        else match.group(0)
        for match in _tokens(text)
    )


def unparse(node) -> str:
    """Render an expression AST back to the emitted string subset.

    Parenthesizes every compound node, so re-parsing is precedence-proof
    and round-trips through :func:`parse_expression`.
    """
    kind = node[0]
    if kind == "literal":
        value, width = node[1], node[2]
        return f"{width}'d{_mask(value, width)}"
    if kind == "ref":
        return node[1]
    if kind in ("index", "slice"):
        base = node[1]
        base_text = unparse(base) if base[0] == "ref" else f"({unparse(base)})"
        if kind == "index":
            return f"{base_text}[{unparse(node[2])}]"
        return f"{base_text}[{unparse(node[2])}:{unparse(node[3])}]"
    if kind == "concat":
        return "{" + ", ".join(unparse(part) for part in node[1]) + "}"
    if kind == "repl":
        return "{" + unparse(node[1]) + "{" + unparse(node[2]) + "}}"
    if kind == "unop":
        return f"({node[1]}{unparse(node[2])})"
    if kind == "binop":
        return f"({unparse(node[2])} {node[1]} {unparse(node[3])})"
    raise RTLError(f"cannot unparse AST node {node!r}")


def unparse_statement(cond, lvalue, rhs) -> str:
    body = f"{unparse(lvalue)} <= {unparse(rhs)};"
    if cond is not None:
        return f"if ({unparse(cond)}) {body}"
    return body


# ---------------------------------------------------------------------------
# Parsed nodes
# ---------------------------------------------------------------------------


class _Node:
    """Base of the immutable IR nodes.

    A pass that rewrites a node builds a new one instead, so a node's
    tree always matches its text and clones can share nodes.
    """

    __slots__ = ()

    def __init__(self, **fields):
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(
            f"{type(self).__name__} nodes are immutable; build a new one"
        )

    def __setstate__(self, state):
        # Pickle restores slots through setattr.
        _Node.__init__(self, **state[1])


class _Text(_Node):
    """One text of the netlist and the tree parsed from it when built."""

    __slots__ = ("text", "_tree", "error")

    def __init__(self, text: str):
        try:
            tree, error = self._parse(text), None
        except RTLError as rejected:
            tree, error = None, rejected
        super().__init__(text=text, _tree=tree, error=error)

    @classmethod
    def of(cls, value):
        """``value`` if it already is such a node, else a node of its text."""
        return value if isinstance(value, cls) else cls(value)

    @property
    def tree(self):
        """The parsed tree; raises the parser's :class:`RTLError` when the
        grammar rejected the text (:attr:`error` holds it)."""
        if self.error is not None:
            raise self.error.with_traceback(None)
        return self._tree

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.text!r})"


class Expr(_Text):
    """An expression: an assign side or an instance connection."""

    __slots__ = ()
    _parse = staticmethod(parse_expression)

    def names(self) -> Iterator[str]:
        """Every identifier the expression names, in text order."""
        return refs(self.tree)


class Statement(_Text):
    """A sequential statement ``[if (cond)] lvalue <= expr;``; its tree
    is the ``(cond, lvalue, expr)`` triple, ``cond`` None when unguarded."""

    __slots__ = ()
    _parse = staticmethod(parse_statement)

    def names(self) -> Iterator[str]:
        """Every identifier the statement names, in text order."""
        for part in self.tree:
            if part is not None:
                yield from refs(part)


class Assign(_Node):
    """A continuous assignment ``assign lhs = rhs;``."""

    __slots__ = ("lhs", "rhs")

    def __init__(self, lhs, rhs):
        super().__init__(lhs=Expr.of(lhs), rhs=Expr.of(rhs))


class SyncBlock(_Node):
    """An ``always @(posedge clk)`` block of sequential statements."""

    __slots__ = ("statements", "reset_statements")

    def __init__(self, statements: Sequence, reset_statements: Sequence = ()):
        super().__init__(
            statements=tuple(Statement.of(s) for s in statements),
            reset_statements=tuple(Statement.of(s) for s in reset_statements),
        )


class Instance(_Node):
    """An instantiation of a child module with named port connections."""

    __slots__ = ("module_name", "instance_name", "connections")

    def __init__(self, module_name: str, instance_name: str, connections: Dict):
        super().__init__(
            module_name=module_name,
            instance_name=instance_name,
            connections={
                port: Expr.of(signal) for port, signal in connections.items()
            },
        )


# ---------------------------------------------------------------------------
# Declarations and containers
# ---------------------------------------------------------------------------


class PortDir(enum.Enum):
    INPUT = "input"
    OUTPUT = "output"


class Port:
    """A module port with direction and bit width."""

    __slots__ = ("name", "direction", "width")

    def __init__(self, name: str, direction: PortDir, width: int = 1):
        if width < 1:
            raise RTLError(f"port {name!r} must be at least 1 bit wide")
        self.name = name
        self.direction = direction
        self.width = width

    def __repr__(self) -> str:
        return f"Port({self.direction.value} [{self.width - 1}:0] {self.name})"


class Net:
    """A wire or register declaration inside a module."""

    __slots__ = ("name", "width", "is_reg", "depth")

    def __init__(self, name: str, width: int = 1, is_reg: bool = False, depth: int = 0):
        if width < 1:
            raise RTLError(f"net {name!r} must be at least 1 bit wide")
        self.name = name
        self.width = width
        self.is_reg = is_reg
        self.depth = depth  # >0 declares a memory array (SRAM macro stand-in)

    def __repr__(self) -> str:
        kind = "reg" if self.is_reg else "wire"
        return f"Net({kind} [{self.width - 1}:0] {self.name})"


class Module:
    """One RTL module: ports, nets, assigns, sync blocks, and instances."""

    def __init__(self, name: str):
        if not _IDENT.fullmatch(name):
            raise RTLError(f"invalid module name {name!r}")
        self.name = name
        self.ports: List[Port] = []
        self.nets: List[Net] = []
        self.assigns: List[Assign] = []
        self.sync_blocks: List[SyncBlock] = []
        self.instances: List[Instance] = []
        self._names: Dict[str, int] = {}

    # Builders ---------------------------------------------------------------
    def add_port(self, name: str, direction: PortDir, width: int = 1) -> Port:
        self._declare(name)
        port = Port(name, direction, width)
        self.ports.append(port)
        return port

    def input(self, name: str, width: int = 1) -> Port:
        return self.add_port(name, PortDir.INPUT, width)

    def output(self, name: str, width: int = 1) -> Port:
        return self.add_port(name, PortDir.OUTPUT, width)

    def wire(self, name: str, width: int = 1) -> Net:
        self._declare(name)
        net = Net(name, width, is_reg=False)
        self.nets.append(net)
        return net

    def reg(self, name: str, width: int = 1, depth: int = 0) -> Net:
        self._declare(name)
        net = Net(name, width, is_reg=True, depth=depth)
        self.nets.append(net)
        return net

    def assign(self, lhs: str, rhs: str) -> Assign:
        assign = Assign(lhs, rhs)
        self.assigns.append(assign)
        return assign

    def sync(self, statements: Sequence[str], reset: Sequence[str] = ()) -> SyncBlock:
        block = SyncBlock(statements, reset)
        self.sync_blocks.append(block)
        return block

    def instantiate(
        self, module: "Module", instance_name: str, connections: Dict[str, str]
    ) -> Instance:
        inst = Instance(module.name, instance_name, connections)
        self.instances.append(inst)
        return inst

    def _declare(self, name: str) -> None:
        if not _IDENT.fullmatch(name):
            raise RTLError(f"invalid identifier {name!r} in module {self.name!r}")
        if name in self._names:
            raise RTLError(f"duplicate declaration of {name!r} in {self.name!r}")
        self._names[name] = 1

    # Queries ----------------------------------------------------------------
    def declared_names(self) -> frozenset:
        return frozenset(
            [p.name for p in self.ports] + [n.name for n in self.nets]
        )

    def port(self, name: str) -> Port:
        for port in self.ports:
            if port.name == name:
                return port
        raise RTLError(f"module {self.name!r} has no port {name!r}")

    def has_port(self, name: str) -> bool:
        return any(p.name == name for p in self.ports)

    def clone(self) -> "Module":
        """An independent copy for the passes to rewrite: its own ports,
        nets and lists, sharing the immutable nodes."""
        copy = Module(self.name)
        for port in self.ports:
            copy.add_port(port.name, port.direction, port.width)
        for net in self.nets:
            copy._declare(net.name)
            copy.nets.append(Net(net.name, net.width, net.is_reg, net.depth))
        copy.assigns = list(self.assigns)
        copy.sync_blocks = list(self.sync_blocks)
        copy.instances = list(self.instances)
        return copy

    def __repr__(self) -> str:
        return (
            f"Module({self.name!r}, ports={len(self.ports)},"
            f" nets={len(self.nets)}, instances={len(self.instances)})"
        )


class Netlist:
    """A design: a set of modules with a designated top."""

    def __init__(self, top_name: str):
        self.modules: Dict[str, Module] = {}
        self.top_name = top_name
        #: Optimization rung this netlist was produced at (0 = as lowered);
        #: set by :func:`repro.rtl.passes.run_passes` together with
        #: ``pass_results``, the per-pass rewrite statistics.
        self.opt_level = 0
        self.pass_results: List = []

    def add(self, module: Module) -> Module:
        if module.name in self.modules:
            raise RTLError(f"duplicate module {module.name!r}")
        self.modules[module.name] = module
        return module

    def module(self, name: str) -> Module:
        try:
            return self.modules[name]
        except KeyError:
            raise RTLError(f"no module named {name!r}") from None

    @property
    def top(self) -> Module:
        return self.module(self.top_name)

    def emit(self) -> str:
        from .verilog import emit_netlist

        return emit_netlist(self)

    def clone(self) -> "Netlist":
        """An independent copy of every module (for the passes)."""
        copy = Netlist(self.top_name)
        for module in self.modules.values():
            copy.add(module.clone())
        copy.opt_level = self.opt_level
        copy.pass_results = list(self.pass_results)
        return copy

    def total_module_count(self) -> int:
        return len(self.modules)

    def instance_count(self) -> int:
        return sum(len(m.instances) for m in self.modules.values())

    def __repr__(self) -> str:
        return f"Netlist(top={self.top_name!r}, modules={len(self.modules)})"
