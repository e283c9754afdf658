"""A minimal structural RTL intermediate representation.

Stellar lowers its optimized IR onto Chisel templates which Chisel then
lowers to Verilog (paper Figure 7).  Offline, with no JVM or EDA tools,
this package plays the Chisel role: a small structural netlist IR --
modules, ports, nets, registers, continuous assigns, synchronous blocks,
and instances -- that the Verilog emitter (:mod:`repro.rtl.verilog`)
renders as synthesizable-style text and the netlist dataflow analyzer
(:mod:`repro.analysis.netlist`) checks structurally.

The IR is deliberately flat and explicit: expressions inside assigns and
always-blocks are plain strings over declared identifiers, which keeps the
emitter trivial.  Their only grammar is the parser in :mod:`repro.rtl.sim`
(``parse_expression`` / ``parse_statement``): the simulator, the passes,
the equivalence checker and the lint all read its ASTs, and the lint
reports text it rejects.
"""

from __future__ import annotations

import enum
import re
from typing import Dict, Iterable, List, Sequence


class RTLError(ValueError):
    """Raised for malformed netlists."""


_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

# Verilog keywords and literal markers that may appear inside expression
# strings without being declared identifiers.
_EXPR_KEYWORDS = frozenset(
    {
        "posedge",
        "negedge",
        "if",
        "else",
        "begin",
        "end",
        "signed",
        "case",
        "endcase",
        "default",
    }
)

# One scan, three token classes: based literals (sized ``8'd42``, unsized
# ``'hFF``, signed ``16'sb01``, with x/z/? digits and underscores), plain
# numbers (so ``1_000`` can never shed a ``_000`` identifier), and
# identifiers.  Literals and numbers are consumed and discarded, so the
# base/digit letters inside them can never leak out as identifiers.
_EXPR_TOKEN = re.compile(
    r"(?P<lit>(?:\d[\d_]*)?'\s*[sS]?[bBoOdDhH][0-9a-fA-FxzXZ?_]+)"
    r"|(?P<num>\d[\d_]*)"
    r"|(?P<id>[A-Za-z_][A-Za-z0-9_]*)"
)


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


class Assign:
    """A continuous assignment ``assign lhs = rhs;``."""

    __slots__ = ("lhs", "rhs")

    def __init__(self, lhs: str, rhs: str):
        self.lhs = lhs
        self.rhs = rhs


class SyncBlock:
    """An ``always @(posedge clk)`` block of sequential statement strings."""

    __slots__ = ("statements", "reset_statements")

    def __init__(
        self,
        statements: Sequence[str],
        reset_statements: Sequence[str] = (),
    ):
        self.statements = list(statements)
        self.reset_statements = list(reset_statements)


class Instance:
    """An instantiation of a child module with named port connections."""

    __slots__ = ("module_name", "instance_name", "connections")

    def __init__(
        self,
        module_name: str,
        instance_name: str,
        connections: Dict[str, str],
    ):
        self.module_name = module_name
        self.instance_name = instance_name
        self.connections = dict(connections)


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
        """A deep, independent copy (the optimization passes mutate it)."""
        copy = Module(self.name)
        for port in self.ports:
            copy.add_port(port.name, port.direction, port.width)
        for net in self.nets:
            copy._declare(net.name)
            copy.nets.append(Net(net.name, net.width, net.is_reg, net.depth))
        for assign in self.assigns:
            copy.assigns.append(Assign(assign.lhs, assign.rhs))
        for block in self.sync_blocks:
            copy.sync_blocks.append(
                SyncBlock(block.statements, block.reset_statements)
            )
        for inst in self.instances:
            copy.instances.append(
                Instance(inst.module_name, inst.instance_name, inst.connections)
            )
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
        return Netlist._get(self, name)

    @staticmethod
    def _get(netlist: "Netlist", name: str) -> Module:
        try:
            return netlist.modules[name]
        except KeyError:
            raise RTLError(f"no module named {name!r}") from None

    @property
    def top(self) -> Module:
        return self.module(self.top_name)

    def emit(self) -> str:
        from .verilog import emit_netlist

        return emit_netlist(self)

    def clone(self) -> "Netlist":
        """A deep, independent copy of every module (for the passes)."""
        copy = Netlist(self.top_name)
        for module in self.modules.values():
            copy.add(module.clone())
        copy.opt_level = self.opt_level
        copy.pass_results = list(self.pass_results)
        return copy

    def lint(self) -> List[str]:
        # Error-severity findings of the netlist dataflow analyzer in the
        # legacy ``module: message`` string format.
        from ..analysis.diagnostics import Severity
        from ..analysis.netlist import check_netlist

        return [
            d.legacy_text()
            for d in check_netlist(self)
            if d.severity >= Severity.ERROR
        ]

    def total_module_count(self) -> int:
        return len(self.modules)

    def instance_count(self) -> int:
        return sum(len(m.instances) for m in self.modules.values())

    def __repr__(self) -> str:
        return f"Netlist(top={self.top_name!r}, modules={len(self.modules)})"


def expression_identifiers(expression: str) -> Iterable[str]:
    """Extract candidate identifiers from an expression string.

    Skips Verilog keywords, based literals in every spelling the IR (or a
    hand-written expression) may contain -- sized ``8'd42``, unsized
    ``'hFF``, uppercase bases ``16'HDEAD``, signed ``8'sb01``, octal,
    x/z/? digits, embedded underscores -- and plain numeric literals, so
    neither base letters (``d42``) nor underscore tails (``_000``) are
    ever mistaken for identifiers.  The equivalence checker's
    canonicalization relies on this being exact.
    """
    for match in _EXPR_TOKEN.finditer(expression):
        name = match.group("id")
        if name and name not in _EXPR_KEYWORDS:
            yield name
