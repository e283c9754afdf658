"""An RTL interpreter for generated netlists.

The paper validates its generated RTL with cycle-exact FPGA simulation
(FireSim); offline, this module plays that role for the emitted designs:
it *executes* a :class:`~repro.rtl.netlist.Netlist` cycle by cycle --
evaluating continuous assigns to a combinational fixpoint, propagating
values across module instances (including slice-connected buses), and
committing synchronous blocks on each clock edge with synchronous reset.

The expression language is exactly the subset the lowering emits:
identifiers, sized literals (``16'd3``, ``1'b0``) and unsized 32-bit
numbers, ``+ - * < <= > >= == != & | ! ~``, bit-slices ``x[hi:lo]``,
memory subscripts ``mem[expr]``, concatenations ``{a, b}``, replications
``{n{x}}``, and guarded non-blocking assignments ``if (cond) lhs <= rhs;``.
Values are Python integers masked to their declared widths, so overflow
behaves as hardware would.

The simulator never parses: every assign, statement and instance
connection of the netlist IR carries the tree :mod:`repro.rtl.netlist`
parsed from its text when the node was built, and building a simulator
raises the parser's :class:`~repro.rtl.netlist.RTLError` for a node
whose text the grammar rejected.

Two things keep the interpretation cheap:

* **Compiling once per instance.**  Each instance turns every
  expression, lvalue and port connection into a closure over its own
  signal dict when it is built; a sweep calls closures and walks no
  syntax trees.  An expression error (an undefined signal, a memory read
  without a subscript) raises when the closure runs, as it would in a
  tree walk.
* **Settling lazily.**  ``poke`` writes the value and marks the logic
  unsettled; the combinational fixpoint runs before the next
  observation -- ``peek``, ``peek_memory``, ``signal_values`` -- and in
  ``step`` both before the edge is sampled and after it is committed.  A
  settle that fails leaves the logic unsettled, so every later
  observation raises the same error.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, Tuple

from ..obs.trace import get_tracer
from .netlist import Module, Netlist, PortDir, RTLError, _mask

# ---------------------------------------------------------------------------
# Compilation
# ---------------------------------------------------------------------------


#: Binary operator -> factory taking the compiled operands and returning
#: the compiled operation; operands evaluate left to right.
_BINOPS: Dict[str, Callable] = {
    "+": lambda a, b: lambda: a() + b(),
    "-": lambda a, b: lambda: a() - b(),
    "*": lambda a, b: lambda: a() * b(),
    "&": lambda a, b: lambda: a() & b(),
    "|": lambda a, b: lambda: a() | b(),
    "==": lambda a, b: lambda: 1 if a() == b() else 0,
    "!=": lambda a, b: lambda: 1 if a() != b() else 0,
    "<": lambda a, b: lambda: 1 if a() < b() else 0,
    "<=": lambda a, b: lambda: 1 if a() <= b() else 0,
    ">": lambda a, b: lambda: 1 if a() > b() else 0,
    ">=": lambda a, b: lambda: 1 if a() >= b() else 0,
}


def _raiser(message: str) -> Callable:
    """A compiled node that fails when evaluated, never when compiled."""

    def fail(*_):
        raise RTLError(message)

    return fail


def _literal_bounds(node) -> Optional[Tuple[int, int]]:
    """``(hi, lo)`` of a slice with literal bounds and a width >= 0."""
    if node[2][0] != "literal" or node[3][0] != "literal":
        return None
    hi, lo = _mask(*node[2][1:]), _mask(*node[3][1:])
    return (hi, lo) if hi >= lo - 1 else None


class _ModuleState:
    """Runtime state of one module instance.

    Every expression of the module is compiled, once, into a closure over
    this instance's ``values`` and ``memories``; a compiled expression
    takes no arguments and returns the value, a compiled lvalue (a
    *writer*) takes the value and returns whether a visible value
    changed.  Errors in an expression raise when it is evaluated.
    """

    def __init__(self, module: Module, netlist: Netlist, path: str):
        self.path = path
        self.widths: Dict[str, int] = {}
        self.values: Dict[str, int] = {}
        self.memories: Dict[str, Dict[int, int]] = {}
        for port in module.ports:
            self.widths[port.name] = port.width
            self.values[port.name] = 0
        for net in module.nets:
            self.widths[net.name] = net.width
            if net.depth:
                self.memories[net.name] = {}
            else:
                self.values[net.name] = 0
        self.assigns = [
            (self._writer(a.lhs.tree), self._compile(a.rhs.tree))
            for a in module.assigns
        ]
        self.sync_blocks = [
            (
                [self._statement(s.tree) for s in block.statements],
                [self._statement(s.tree) for s in block.reset_statements],
            )
            for block in module.sync_blocks
        ]
        # Every instance's child and connection trees first, so the
        # module's own errors raise before any child's.
        wiring = [
            (
                inst.instance_name,
                netlist.module(inst.module_name),
                {port: expr.tree for port, expr in inst.connections.items()},
            )
            for inst in module.instances
        ]
        self.children: List[Tuple["_ModuleState", list, list]] = []
        for name, child_module, conns in wiring:
            child = _ModuleState(child_module, netlist, f"{path}.{name}")
            # Inputs and outputs, each in child port order.
            wired = [p for p in child_module.ports if p.name in conns]
            self.children.append(
                (
                    child,
                    [
                        (p.name, self._compile(conns[p.name]), (1 << p.width) - 1)
                        for p in wired
                        if p.direction is PortDir.INPUT
                    ],
                    [
                        (p.name, self._writer(conns[p.name]))
                        for p in wired
                        if p.direction is PortDir.OUTPUT
                    ],
                )
            )

    # -- expressions -----------------------------------------------------

    def _compile(self, node) -> Callable[[], int]:
        kind = node[0]
        compile_ = self._compile
        if kind == "literal":
            value = _mask(node[1], node[2])
            return lambda: value
        if kind == "ref":
            return self._read(node[1])
        if kind == "index":
            base = node[1]
            index = compile_(node[2])
            if base[0] == "ref" and base[1] in self.memories:
                memory = self.memories[base[1]]
                return lambda: memory.get(index(), 0)
            value = compile_(base)

            def index_bit():
                bit = index()
                return (value() >> bit) & 1

            return index_bit
        if kind == "slice":
            value = compile_(node[1])
            bounds = _literal_bounds(node)
            if bounds is not None:
                lo, field = bounds[1], (1 << (bounds[0] - bounds[1] + 1)) - 1
                return lambda: (value() >> lo) & field
            hi, lo_ = compile_(node[2]), compile_(node[3])

            def slice_():
                whole, top, bottom = value(), hi(), lo_()
                return (whole >> bottom) & ((1 << (top - bottom + 1)) - 1)

            return slice_
        if kind == "concat":
            parts = [(compile_(part), self._width(part)) for part in node[1]]

            def concat():
                out = 0
                for part, width in parts:
                    bits = width()
                    out = (out << bits) | (part() & ((1 << bits) - 1))
                return out

            return concat
        if kind == "repl":
            count, piece = compile_(node[1]), compile_(node[2])
            width = self._width(node[2])

            def repl():
                times, bits = count(), width()
                chunk = piece() & ((1 << bits) - 1)
                out = 0
                for _ in range(times):
                    out = (out << bits) | chunk
                return out

            return repl
        if kind == "unop":
            operand = compile_(node[2])
            if node[1] == "!":
                return lambda: 0 if operand() else 1
            if node[1] == "~":
                return lambda: ~operand()
            return lambda: -operand()
        if kind == "binop":
            return _BINOPS[node[1]](compile_(node[2]), compile_(node[3]))
        return _raiser(f"unknown AST node {node!r}")

    def _read(self, name: str) -> Callable[[], int]:
        values = self.values
        if name in self.memories:
            return _raiser(f"memory {name!r} used without a subscript")
        if name in values:
            # Declared signals never leave ``values``.
            return lambda: values[name]
        message = f"undefined signal {name!r} in {self.path}"

        def read_undeclared():
            # An undeclared name exists once some lvalue has written it.
            if name not in values:
                raise RTLError(message)
            return values[name]

        return read_undeclared

    def _width(self, node) -> Callable[[], int]:
        """The packing width of a concat or replication operand."""
        if node[0] == "slice":
            bounds = _literal_bounds(node)
            if bounds is None:
                hi, lo = self._compile(node[2]), self._compile(node[3])
                return lambda: hi() - lo() + 1
            width = bounds[0] - bounds[1] + 1
        elif node[0] == "literal":
            width = node[2]
        elif node[0] == "ref":
            width = self.widths.get(node[1], 32)
        else:
            width = 32
        return lambda: width

    # -- writes ----------------------------------------------------------

    def _writer(self, lvalue) -> Callable[[int], bool]:
        values = self.values
        kind = lvalue[0]
        if kind == "ref":
            name = lvalue[1]
            mask = (1 << self.widths.get(name, 32)) - 1

            def write_ref(value: int) -> bool:
                new = value & mask
                if values.get(name) != new:
                    values[name] = new
                    return True
                return False

            return write_ref
        if kind == "index":
            base, index = lvalue[1], self._compile(lvalue[2])
            if base[0] == "ref" and base[1] in self.memories:
                memory = self.memories[base[1]]
                mask = (1 << self.widths[base[1]]) - 1

                def write_memory(value: int) -> bool:
                    address, new = index(), value & mask
                    if memory.get(address) != new:
                        memory[address] = new
                        return True
                    return False

                return write_memory
            # Single-bit write into a packed register.
            name = base[1]
            mask = (1 << self.widths.get(name, 32)) - 1

            def write_bit(value: int) -> bool:
                bit = index()
                current = values.get(name, 0)
                updated = (current & ~(1 << bit)) | ((value & 1) << bit)
                values[name] = updated & mask
                return updated != current

            return write_bit
        if kind == "slice":
            name = lvalue[1][1]
            mask = (1 << self.widths.get(name, 32)) - 1
            hi, lo = self._compile(lvalue[2]), self._compile(lvalue[3])

            def write_slice(value: int) -> bool:
                top, bottom = hi(), lo()
                field = (1 << (top - bottom + 1)) - 1
                current = values.get(name, 0)
                updated = (current & ~(field << bottom)) | ((value & field) << bottom)
                values[name] = updated & mask
                return updated != current

            return write_slice
        return _raiser(f"unsupported lvalue {lvalue!r}")

    def _statement(self, statement):
        cond, lvalue, rhs = statement
        return (
            None if cond is None else self._compile(cond),
            self._writer(lvalue),
            self._compile(rhs),
        )

    # -- combinational settle --------------------------------------------

    def settle(self) -> bool:
        """One combinational sweep; returns True if anything changed."""
        changed = False
        for write, rhs in self.assigns:
            if write(rhs()):
                changed = True
        for child, inputs, outputs in self.children:
            ports = child.values
            for name, rhs, mask in inputs:
                new = rhs() & mask
                if ports[name] != new:
                    ports[name] = new
                    changed = True
            if child.settle():
                changed = True
            for name, write in outputs:
                if write(ports[name]):
                    changed = True
        return changed

    # -- introspection -----------------------------------------------------

    def descendants(self) -> Iterator["_ModuleState"]:
        """This instance and every instance below it, preorder."""
        yield self
        for child, _, _ in self.children:
            yield from child.descendants()

    # -- clock edge --------------------------------------------------------

    def sample_edge(self, reset: bool, writes: List[Tuple[Callable, int]]) -> None:
        """Evaluate all sync blocks against pre-edge state, appending the
        deferred ``(writer, value)`` pairs (non-blocking assignment
        semantics) to ``writes``."""
        for statements, reset_statements in self.sync_blocks:
            active = reset_statements if reset and reset_statements else statements
            for cond, write, rhs in active:
                if cond is None or cond():
                    writes.append((write, rhs()))
        for child, _, _ in self.children:
            child.sample_edge(reset, writes)


class RTLSimulator:
    """Executes a netlist: ``poke`` inputs, ``step`` clocks, ``peek`` any
    signal by hierarchical path."""

    MAX_SETTLE_ITERATIONS = 256

    def __init__(self, netlist: Netlist, top: Optional[str] = None):
        self.netlist = netlist
        module = netlist.module(top or netlist.top_name)
        self.top = _ModuleState(module, netlist, module.name)
        self.cycle = 0
        self._dirty = True
        self._settle()

    def _settle(self) -> None:
        """Settle the combinational logic if a write since the last settle
        may have unsettled it; a failed settle leaves it pending."""
        if not self._dirty:
            return
        for _ in range(self.MAX_SETTLE_ITERATIONS):
            if not self.top.settle():
                self._dirty = False
                return
        raise RTLError("combinational logic failed to settle (loop?)")

    def _resolve(self, path: str) -> Tuple[_ModuleState, str]:
        parts = path.split(".")
        state = self.top
        for part in parts[:-1]:
            for child, _, _ in state.children:
                if child.path.endswith("." + part) or child.path == part:
                    state = child
                    break
            else:
                raise RTLError(f"no instance {part!r} under {state.path}")
        return state, parts[-1]

    def poke(self, path: str, value: int) -> None:
        """Drive a signal; the logic settles before the next observation."""
        state, name = self._resolve(path)
        new = _mask(value, state.widths.get(name, 32))
        if state.values.get(name) != new:
            state.values[name] = new
            self._dirty = True

    def peek(self, path: str) -> int:
        state, name = self._resolve(path)
        self._settle()
        if name in state.memories:
            raise RTLError(f"{name!r} is a memory; use peek_memory")
        return state.values[name]

    def peek_memory(self, path: str, index: int) -> int:
        state, name = self._resolve(path)
        self._settle()
        return state.memories[name].get(index, 0)

    def signal_values(self) -> Dict[str, Tuple[int, int]]:
        """Every non-memory signal in the hierarchy: path -> (value, width).

        This is the probe surface the VCD exporter
        (:func:`repro.obs.export.dump_rtl_vcd`) samples each cycle.
        """
        self._settle()
        out: Dict[str, Tuple[int, int]] = {}
        for state in self.top.descendants():
            for name, width in state.widths.items():
                if name in state.memories:
                    continue
                out[f"{state.path}.{name}"] = (state.values.get(name, 0), width)
        return out

    def step(self, cycles: int = 1) -> None:
        """Advance the clock; synchronous reset follows the ``rst`` input."""
        tracer = get_tracer()
        for _ in range(cycles):
            self._settle()
            reset = bool(self.top.values.get("rst", 0))
            writes: List[Tuple[Callable, int]] = []
            self.top.sample_edge(reset, writes)
            for write, value in writes:
                if write(value):
                    self._dirty = True
            self.cycle += 1
            self._settle()
            if tracer.enabled:
                tracer.instant(
                    "step", component="rtl", cycle=self.cycle,
                    reset=reset, writes=len(writes),
                )

    def reset(self, cycles: int = 1) -> None:
        """Pulse ``rst`` for the given number of cycles."""
        self.poke("rst", 1)
        self.step(cycles)
        self.poke("rst", 0)
