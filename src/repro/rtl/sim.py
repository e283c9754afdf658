"""An RTL simulator for generated netlists.

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

Three things keep the simulation cheap:

* **A schedule fixed per module.**  A module's combinational nodes --
  its assigns, each child input wiring, each child instance (one node)
  and each child output wiring -- are sorted once into dependency order
  by the signal names they read and write, ties kept in netlist order,
  so one pass in that order settles the module.  Only nodes that can
  need more than one pass -- a combinational loop (also one through a
  child's ports), or the drivers of a signal whose writers can disagree
  (two whole-signal writers, overlapping or computed slices) -- run as a
  group to a fixpoint, bounded by ``MAX_SETTLE_ITERATIONS``.  Disjoint
  literal slices of one bus are independent writers, not a group.
* **Straight-line code, compiled once.**  Each module's settle pass and
  its clock edge (sample every active statement, then commit them in
  order) are emitted as Python source -- netlist names only as string
  keys through ``repr``, constants only as ints, operators from the
  IR's table -- and compiled in chunks of at most ``_CHUNK_NODES`` nodes, so
  ``compile`` never holds one huge body.  Every instance of a module
  runs the same code on its own signal dict; simulators handed one
  ``code`` dict share it for every module built from the same immutable
  IR nodes and declarations.  An expression error (an undefined signal,
  a memory read without a subscript) raises when the code runs, as it
  would in a tree walk.
* **Settling lazily.**  ``poke`` writes the value and marks the logic
  unsettled; the settle runs before the next observation -- ``peek``,
  ``peek_memory``, ``signal_values``, a ``sampler`` call -- and in
  ``step`` both before the edge is sampled and after it is committed.  A
  settle that fails leaves the logic unsettled, so every later
  observation raises the same error.
"""

from __future__ import annotations

import functools
import heapq
import operator
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from ..obs.trace import get_tracer
from .netlist import (
    BINARY_OPERATORS,
    COMPARISONS,
    Module,
    Netlist,
    PortDir,
    RTLError,
    _mask,
    lvalue_base,
    packing_width,
    refs,
)

#: Most combinational nodes compiled in one ``compile`` call.
_CHUNK_NODES = 64


# ---------------------------------------------------------------------------
# Runtime helpers the generated code calls
# ---------------------------------------------------------------------------


def _fail(message: str):
    raise RTLError(message)


def _undefined(name: str, path: str):
    raise RTLError(f"undefined signal {name!r} in {path}")


def _bit(index: int, value: int) -> int:
    """``value[index]`` with the index evaluated first."""
    return (value >> index) & 1


def _slice(value: int, hi: int, lo: int) -> int:
    return (value >> lo) & ((1 << (hi - lo + 1)) - 1)


def _concat(*parts: int) -> int:
    """Pack ``width, value, width, value, ...``, most significant first."""
    out = 0
    for at in range(0, len(parts), 2):
        bits = parts[at]
        out = (out << bits) | (parts[at + 1] & ((1 << bits) - 1))
    return out


def _repl(count: int, bits: int, piece: int) -> int:
    chunk = piece & ((1 << bits) - 1)
    out = 0
    for _ in range(count):
        out = (out << bits) | chunk
    return out


_HELPERS = {
    "_fail": _fail,
    "_undefined": _undefined,
    "_bit": _bit,
    "_slice": _slice,
    "_concat": _concat,
    "_repl": _repl,
}


def _compile_function(source: str) -> Callable:
    """The function ``source`` defines."""
    namespace = dict(_HELPERS)
    exec(compile(source, "<rtl.sim>", "exec"), namespace)  # noqa: S102
    return namespace["generated"]


def _fixpoint(chunks, *state) -> None:
    """Run a loop group's chunks until a whole pass changes nothing."""
    for _ in range(RTLSimulator.MAX_SETTLE_ITERATIONS):
        changed = 0
        for chunk in chunks:
            changed |= chunk(*state)
        if not changed:
            return
    raise RTLError("combinational logic failed to settle (loop?)")


def _in_order(steps, *state) -> None:
    for step in steps:
        step(*state)


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------


def _literal_bounds(node) -> Optional[Tuple[int, int]]:
    """``(hi, lo)`` of a slice with literal bounds and a width >= 0."""
    if node[2][0] != "literal" or node[3][0] != "literal":
        return None
    hi, lo = _mask(*node[2][1:]), _mask(*node[3][1:])
    return (hi, lo) if hi >= lo - 1 else None


class _Emitter:
    """Python source for one module's expressions and writes.

    The generated code sees the instance's signal dict as ``v``, its
    memories as ``m`` and its path as ``p``.  Operands evaluate in the
    order a tree walk reads them, so the first error raised is the same.
    Literals and masks are written in hex: Python refuses to write an
    int of more than 4,300 decimal digits, a ~14,280-bit bus.
    """

    def __init__(self, widths: Dict[str, int], memories):
        self.widths = widths
        self.memories = memories

    # -- expressions -----------------------------------------------------

    def expr(self, node) -> str:
        kind = node[0]
        expr = self.expr
        if kind == "literal":
            return hex(_mask(node[1], node[2]))
        if kind == "ref":
            name = node[1]
            if name in self.memories:
                return f"_fail({f'memory {name!r} used without a subscript'!r})"
            if name in self.widths:
                return f"v[{name!r}]"
            return f"_undefined({name!r}, p)"
        if kind == "index":
            base = node[1]
            if base[0] == "ref" and base[1] in self.memories:
                return f"m[{base[1]!r}].get({expr(node[2])}, 0)"
            if node[2][0] == "literal":
                return f"(({expr(base)} >> {expr(node[2])}) & 1)"
            return f"_bit({expr(node[2])}, {expr(base)})"
        if kind == "slice":
            bounds = _literal_bounds(node)
            if bounds is None:
                return f"_slice({expr(node[1])}, {expr(node[2])}, {expr(node[3])})"
            field = hex((1 << (bounds[0] - bounds[1] + 1)) - 1)
            if bounds[1]:
                return f"(({expr(node[1])} >> {bounds[1]}) & {field})"
            return f"({expr(node[1])} & {field})"
        if kind == "concat":
            parts = [f"{self._width(part)}, {expr(part)}" for part in node[1]]
            return f"_concat({', '.join(parts)})"
        if kind == "repl":
            return (
                f"_repl({expr(node[1])}, {self._width(node[2])}, {expr(node[2])})"
            )
        if kind == "unop":
            if node[1] == "!":
                return f"(0 if {expr(node[2])} else 1)"
            return f"({'~' if node[1] == '~' else '-'}{expr(node[2])})"
        if kind == "binop" and node[1] in BINARY_OPERATORS:
            code = f"{expr(node[2])} {node[1]} {expr(node[3])}"
            return f"(1 if {code} else 0)" if node[1] in COMPARISONS else f"({code})"
        return f"_fail({f'unknown AST node {node!r}'!r})"

    def _width(self, node) -> str:
        """The packing width of a concat or replication operand, computed
        when the code runs only for a slice with non-literal bounds."""
        width = packing_width(node, self.widths)
        if width is None:
            return f"({self.expr(node[2])} - {self.expr(node[3])} + 1)"
        return repr(width)

    # -- writes ----------------------------------------------------------

    def write(self, lvalue, value: str, track: bool) -> List[str]:
        """Lines writing ``value`` through ``lvalue``; with ``track``,
        they set ``c`` when a stored value changes.  ``value`` is
        evaluated before the lvalue's own index and bounds, as in a tree
        walk."""
        kind = lvalue[0]
        base = lvalue[1] if kind in ("index", "slice") else lvalue
        if kind not in ("ref", "index", "slice") or base[0] != "ref":
            return [f"x = {value}", f"_fail({f'unsupported lvalue {lvalue!r}'!r})"]
        name = base[1]
        ones = (1 << self.widths.get(name, 32)) - 1
        mask = hex(ones)
        if kind == "ref":
            return _store(f"v[{name!r}]", f"v.get({name!r})", f"{value} & {mask}", track)
        if kind == "index" and name in self.memories:
            index = self.expr(lvalue[2])
            if not track:
                return [f"m[{name!r}][{index}] = {value} & {mask}"]
            return [f"x = {value} & {mask}", f"a = {index}"] + _store(
                f"m[{name!r}][a]", f"m[{name!r}].get(a)", "x", track
            )
        current = f"v[{name!r}]" if name in self.widths else f"v.get({name!r}, 0)"
        bounds = _literal_bounds(lvalue) if kind == "slice" else None
        if bounds is not None and not track:
            field = (1 << (bounds[0] - bounds[1] + 1)) - 1
            keep = ~(field << bounds[1]) & ones
            return [
                f"v[{name!r}] = ({current} & {hex(keep)})"
                f" | ((({value} & {hex(field)}) << {bounds[1]}) & {mask})"
            ]
        if kind == "index":
            lines = [f"x = {value}", f"l = {self.expr(lvalue[2])}", "f = 1"]
        else:
            lines = [
                f"x = {value}",
                f"h = {self.expr(lvalue[2])}",
                f"l = {self.expr(lvalue[3])}",
                "f = (1 << (h - l + 1)) - 1",
            ]
        lines += [
            f"y = {current}",
            "u = (y & ~(f << l)) | ((x & f) << l)",
            f"v[{name!r}] = u & {mask}",
        ]
        return lines + ["if u != y:", "    c = 1"] if track else lines


def _store(target: str, current: str, value: str, track: bool) -> List[str]:
    """Lines storing ``value`` at ``target``, with ``track`` setting ``c``
    when it differs from ``current``."""
    if not track:
        return [f"{target} = {value}"]
    return [f"x = {value}", f"if {current} != x:", f"    {target} = x", "    c = 1"]


# ---------------------------------------------------------------------------
# Levelization
# ---------------------------------------------------------------------------


class _CombNode:
    """One combinational node of a module.

    ``reads`` and ``writes`` hold signal names and, for child ports,
    ``(child, port)`` pairs; a node writing through ``lvalue`` also
    reads its index or slice bounds and writes its base.  ``span`` is
    how the node covers what it writes (``None`` whole, ``(hi, lo)`` a
    literal slice, ``"computed"``), ``lines(track)`` its code and
    ``child`` the child whose ports it touches.
    """

    __slots__ = ("reads", "writes", "span", "lines", "child")

    def __init__(self, reads, lines, lvalue=None, writes=(), child=None):
        reads = list(reads)
        self.span = None
        if lvalue is not None:
            if lvalue[0] in ("index", "slice"):
                reads += [name for part in lvalue[2:] for name in refs(part)]
            base = lvalue_base(lvalue)
            writes = [base] if base else []
            self.span = _span(lvalue)
        self.reads = frozenset(reads)
        self.writes = tuple(writes)
        self.lines = lines
        self.child = child


def _span(lvalue):
    kind = lvalue[0]
    if kind == "ref":
        return None
    if kind == "slice":
        bounds = _literal_bounds(lvalue)
        if bounds is not None:
            return bounds
    if kind == "index" and lvalue[2][0] == "literal":
        bit = _mask(*lvalue[2][1:])
        return (bit, bit)
    return "computed"


def _conflicting(spans) -> bool:
    """Whether writers covering ``spans`` of one signal can disagree."""
    if len(spans) < 2:
        return False
    if any(span is None or span == "computed" for span in spans):
        return True
    ordered = sorted(spans, key=lambda span: span[1])
    return any(
        later[1] <= earlier[0] for earlier, later in zip(ordered, ordered[1:])
    )


def _components(nodes: List[_CombNode]) -> List[Tuple[List[_CombNode], bool]]:
    """The nodes as ``(members, iterate)`` steps in dependency order.

    Strongly connected nodes -- a loop, or the writers of one signal that
    can disagree -- form one step that iterates; steps are topologically
    sorted with ties broken by netlist order."""
    writers: Dict[object, List[int]] = {}
    for at, node in enumerate(nodes):
        for name in node.writes:
            writers.setdefault(name, []).append(at)
    edges: List[set] = [set() for _ in nodes]
    for at, node in enumerate(nodes):
        for name in node.reads:
            for writer in writers.get(name, ()):
                edges[writer].add(at)
    for ats in writers.values():
        if _conflicting([nodes[at].span for at in ats]):
            for writer, reader in zip(ats, ats[1:] + ats[:1]):
                edges[writer].add(reader)
    members = _strongly_connected(edges)
    component = [0] * len(nodes)
    for c, group in enumerate(members):
        for at in group:
            component[at] = c

    # Kahn's algorithm over the components, earliest netlist order first.
    waiting = [0] * len(members)
    for at, targets in enumerate(edges):
        for target in targets:
            if component[at] != component[target]:
                waiting[component[target]] += 1
    ready = [(group[0], c) for c, group in enumerate(members) if not waiting[c]]
    heapq.heapify(ready)
    steps = []
    while ready:
        _, c = heapq.heappop(ready)
        group = members[c]
        iterate = len(group) > 1 or group[0] in edges[group[0]]
        steps.append(([nodes[at] for at in group], iterate))
        for at in group:
            for target in edges[at]:
                successor = component[target]
                if successor != c:
                    waiting[successor] -= 1
                    if not waiting[successor]:
                        heapq.heappush(ready, (members[successor][0], successor))
    return steps


def _strongly_connected(edges: List[set]) -> List[List[int]]:
    """Tarjan's strongly connected components of a graph given as
    successor sets, each component's members sorted."""
    index: Dict[int, int] = {}
    low: Dict[int, int] = {}
    stack: List[int] = []
    on_stack = set()
    members: List[List[int]] = []
    for root in range(len(edges)):
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(edges[root]))]
        while work:
            at, successors = work[-1]
            for successor in successors:
                if successor not in index:
                    index[successor] = low[successor] = len(index)
                    stack.append(successor)
                    on_stack.add(successor)
                    work.append((successor, iter(edges[successor])))
                    break
                if successor in on_stack:
                    low[at] = min(low[at], index[successor])
            else:
                work.pop()
                if work:
                    low[work[-1][0]] = min(low[work[-1][0]], low[at])
                if low[at] == index[at]:
                    group = []
                    while group[-1:] != [at]:
                        group.append(stack.pop())
                        on_stack.discard(group[-1])
                    members.append(sorted(group))
    return members


# ---------------------------------------------------------------------------
# Per-module code
# ---------------------------------------------------------------------------


def _module_source(module: Module, netlist: Netlist) -> tuple:
    """What a module's code is generated from: its port and net
    declarations, its assign sides, sync statements and instance
    connections (immutable IR nodes, each holding the tree of its text)
    and the ports of each child.  :class:`_ModuleCode` reads nothing
    else, so simulators share a module's code by this tuple."""
    return (
        tuple((p.name, p.width) for p in module.ports),
        tuple((n.name, n.width, n.depth) for n in module.nets),
        tuple((a.lhs, a.rhs) for a in module.assigns),
        tuple((b.statements, b.reset_statements) for b in module.sync_blocks),
        tuple(
            (
                inst.instance_name,
                inst.module_name,
                tuple(
                    (p.name, p.direction, p.width)
                    for p in netlist.module(inst.module_name).ports
                ),
                tuple(inst.connections.items()),
            )
            for inst in module.instances
        ),
    )


class _ModuleCode:
    """One module's signals, children and compiled settle and edge, built
    from its :func:`_module_source`."""

    def __init__(self, source: tuple):
        ports, nets, assigns, blocks, instances = source
        # Every tree of the module first -- assigns, sync statements,
        # instance connections -- so its own errors raise before any
        # child's.
        assigns = [(lhs.tree, rhs.tree) for lhs, rhs in assigns]
        blocks = [
            ([s.tree for s in statements], [s.tree for s in reset])
            for statements, reset in blocks
        ]
        wiring = [
            (child_ports, {port: expr.tree for port, expr in conns})
            for _, _, child_ports, conns in instances
        ]
        self.widths: Dict[str, int] = dict(ports)
        memories = set()
        for name, width, depth in nets:
            self.widths[name] = width
            if depth:
                memories.add(name)
        self.memories = tuple(sorted(memories))
        emitter = _Emitter(self.widths, memories)
        self.children = [(name, child) for name, child, _, _ in instances]

        nodes: List[_CombNode] = []
        for lhs, rhs in assigns:
            nodes.append(_CombNode(
                refs(rhs),
                lambda track, lhs=lhs, rhs=rhs: emitter.write(
                    lhs, emitter.expr(rhs), track
                ),
                lvalue=lhs,
            ))
        for at, (child_ports, conns) in enumerate(wiring):
            wired = [p for p in child_ports if p[0] in conns]
            inputs = [(n, w) for n, d, w in wired if d is PortDir.INPUT]
            outputs = [n for n, d, _ in wired if d is PortDir.OUTPUT]
            for port, width in inputs:
                rhs = conns[port]
                nodes.append(_CombNode(
                    refs(rhs),
                    lambda track, target=f"k{at}[{port!r}]", rhs=rhs,
                    mask=hex((1 << width) - 1): _store(
                        target, target, f"{emitter.expr(rhs)} & {mask}", track
                    ),
                    writes=[(at, port)],
                    child=at,
                ))
            nodes.append(_CombNode(
                [(at, port) for port, _ in inputs],
                lambda track, at=at: [f"s[{at}]()"],
                writes=[(at, port) for port in outputs],
            ))
            for port in outputs:
                lvalue = conns[port]
                nodes.append(_CombNode(
                    [(at, port)],
                    lambda track, lvalue=lvalue, port=f"k{at}[{port!r}]": (
                        emitter.write(lvalue, port, track)
                    ),
                    lvalue=lvalue,
                    child=at,
                ))

        self.settle = self._compile_settle(_components(nodes))
        self.edge = self._compile_edge(emitter, blocks)

    # -- settle ----------------------------------------------------------

    @staticmethod
    def _chunk_source(nodes: List[_CombNode], track: bool) -> str:
        children = sorted({node.child for node in nodes if node.child is not None})
        lines = ["def generated(v, m, k, s, p):"]
        lines += [f"    k{at} = k[{at}]" for at in children]
        if track:
            lines.append("    c = 0")
        for node in nodes:
            lines += ["    " + line for line in node.lines(track)]
        if track:
            lines.append("    return c")
        return "\n".join(lines) + "\n"

    def _compile_settle(self, steps) -> Callable:
        """One callable ``(v, m, k, s, p)`` settling an instance."""
        compiled: List[Callable] = []
        run: List[_CombNode] = []

        def chunks(nodes, track):
            return [
                _compile_function(
                    self._chunk_source(nodes[start:start + _CHUNK_NODES], track)
                )
                for start in range(0, len(nodes), _CHUNK_NODES)
            ]

        for group, iterate in steps:
            if iterate:
                compiled += chunks(run, False)
                run = []
                compiled.append(functools.partial(_fixpoint, chunks(group, True)))
            else:
                run += group
        compiled += chunks(run, False)
        if len(compiled) == 1:
            return compiled[0]
        return functools.partial(_in_order, compiled)

    # -- clock edge ------------------------------------------------------

    def _compile_edge(self, emitter: _Emitter, blocks) -> Optional[Callable]:
        """``(v, m, p, reset) -> fired statements`` for one instance, or
        ``None`` when the module has no synchronous statements."""
        normal = [s for statements, _ in blocks for s in statements]
        if not normal and not any(reset for _, reset in blocks):
            return None
        lines = ["def generated(v, m, p, r):"]
        if any(reset for _, reset in blocks):
            active = [s for statements, reset in blocks for s in reset or statements]
            lines.append("    if r:")
            lines += ["        " + line for line in self._edge_body(emitter, active)]
        lines += ["    " + line for line in self._edge_body(emitter, normal)]
        return _compile_function("\n".join(lines) + "\n")

    @staticmethod
    def _edge_body(emitter: _Emitter, statements) -> List[str]:
        """Sample every statement against pre-edge state, then commit the
        fired ones in order (non-blocking assignment semantics)."""
        sample, commit = [], []
        fired = 0
        for at, (cond, lvalue, rhs) in enumerate(statements):
            value = emitter.expr(rhs)
            write = emitter.write(lvalue, f"t{at}", False)
            if cond is None:
                sample.append(f"t{at} = {value}")
                commit += write
                fired += 1
            else:
                sample.append(f"t{at} = {value} if {emitter.expr(cond)} else None")
                commit.append(f"if t{at} is not None:")
                commit += ["    " + line for line in write + ["n += 1"]]
        return sample + [f"n = {fired}"] + commit + ["return n"]


# ---------------------------------------------------------------------------
# Instances
# ---------------------------------------------------------------------------


class _Instance:
    """Runtime state of one module instance, bound to its module's code."""

    def __init__(self, module: Module, netlist: Netlist, path: str,
                 modules: Dict[str, _ModuleCode], code: Dict[tuple, _ModuleCode]):
        shared = modules.get(module.name)
        if shared is None:
            source = _module_source(module, netlist)
            shared = code.get(source)
            if shared is None:
                shared = code[source] = _ModuleCode(source)
            modules[module.name] = shared
        self.path = path
        self.widths = shared.widths
        self.memories: Dict[str, Dict[int, int]] = {
            name: {} for name in shared.memories
        }
        self.values: Dict[str, int] = {
            name: 0 for name in self.widths if name not in self.memories
        }
        self.children = [
            _Instance(
                netlist.module(child), netlist, f"{path}.{name}", modules, code
            )
            for name, child in shared.children
        ]
        self.settle = functools.partial(
            shared.settle,
            self.values,
            self.memories,
            [child.values for child in self.children],
            [child.settle for child in self.children],
            path,
        )
        self.edge = None
        if shared.edge is not None:
            self.edge = functools.partial(
                shared.edge, self.values, self.memories, path
            )

    def descendants(self) -> Iterator["_Instance"]:
        """This instance and every instance below it, preorder."""
        yield self
        for child in self.children:
            yield from child.descendants()

    def expression(self, node) -> Callable[[], int]:
        """One expression compiled against this instance's signals; it
        raises its errors when called."""
        source = _Emitter(self.widths, self.memories).expr(node)
        function = _compile_function(
            f"def generated(v, m, p):\n    return {source}\n"
        )
        return functools.partial(function, self.values, self.memories, self.path)


def _tuple_getter(names: List[str]) -> Callable[[Dict[str, int]], tuple]:
    """An :func:`operator.itemgetter` over ``names`` that returns a tuple
    for a single name too."""
    if len(names) > 1:
        return operator.itemgetter(*names)
    name = names[0]
    return lambda values: (values[name],)


class RTLSimulator:
    """Executes a netlist: ``poke`` inputs, ``step`` clocks, ``peek`` any
    signal by hierarchical path.

    ``code`` maps each module's :func:`_module_source` to its compiled
    code, so simulators built with one dict generate and compile each
    distinct module once.
    """

    MAX_SETTLE_ITERATIONS = 256

    def __init__(self, netlist: Netlist, top: Optional[str] = None,
                 code: Optional[Dict[tuple, _ModuleCode]] = None):
        self.netlist = netlist
        module = netlist.module(top or netlist.top_name)
        self.top = _Instance(
            module, netlist, module.name, {}, {} if code is None else code
        )
        instances = list(self.top.descendants())
        self._edges = [inst.edge for inst in instances if inst.edge is not None]
        self._probes = {
            f"{inst.path}.{name}": (inst.values, name, width)
            for inst in instances
            for name, width in inst.widths.items()
            if name not in inst.memories
        }
        self.cycle = 0
        self._dirty = True
        self._settle()

    def _settle(self) -> None:
        """Settle the combinational logic if a write since the last settle
        may have unsettled it; a failed settle leaves it pending."""
        if self._dirty:
            self.top.settle()
            self._dirty = False

    def _resolve(self, path: str) -> Tuple[_Instance, str]:
        parts = path.split(".")
        state = self.top
        for part in parts[:-1]:
            for child in state.children:
                if child.path.endswith("." + part) or child.path == part:
                    state = child
                    break
            else:
                raise RTLError(f"no instance {part!r} under {state.path}")
        return state, parts[-1]

    def poke(self, path: str, value: int) -> None:
        """Drive a signal; the logic settles before the next observation."""
        self.driver([path])([value])

    def driver(self, paths: Sequence[str]) -> Callable[[Sequence[int]], None]:
        """A callable that pokes its ``i``-th value into ``paths[i]``,
        each path resolved once here rather than on every call."""
        targets = []
        for path in paths:
            state, name = self._resolve(path)
            mask = (1 << state.widths.get(name, 32)) - 1
            targets.append((state.values, name, mask))

        def drive(values: Sequence[int]) -> None:
            for (signals, name, mask), value in zip(targets, values):
                value &= mask
                if signals.get(name) != value:
                    signals[name] = value
                    self._dirty = True

        return drive

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
        return {
            path: (values[name], width)
            for path, (values, name, width) in self._probes.items()
        }

    def sampler(self, paths: Sequence[str]) -> Callable[[], List[int]]:
        """A callable that settles, then returns the values at ``paths`` as
        one list in that order.

        The paths are resolved once, here: each run of consecutive paths
        in one instance is read by one :func:`operator.itemgetter` over
        that instance's signal dict, so a sample builds no dict.
        """
        runs: List[Tuple[Dict[str, int], List[str]]] = []
        for path in paths:
            if path not in self._probes:
                raise RTLError(f"no signal {path!r} under {self.top.path}")
            values, name, _ = self._probes[path]
            if runs and runs[-1][0] is values:
                runs[-1][1].append(name)
            else:
                runs.append((values, [name]))
        reads = [(_tuple_getter(names), values) for values, names in runs]
        settle = self._settle

        def sample() -> List[int]:
            settle()
            out: List[int] = []
            extend = out.extend
            for get, values in reads:
                extend(get(values))
            return out

        return sample

    def step(self, cycles: int = 1) -> None:
        """Advance the clock; synchronous reset follows the ``rst`` input."""
        tracer = get_tracer()
        for _ in range(cycles):
            self._settle()
            reset = bool(self.top.values.get("rst", 0))
            writes = 0
            for edge in self._edges:
                writes += edge(reset)
            self._dirty = True
            self.cycle += 1
            self._settle()
            if tracer.enabled:
                tracer.instant(
                    "step", component="rtl", cycle=self.cycle,
                    reset=reset, writes=writes,
                )

    def run(
        self,
        paths: Sequence[str],
        cycles: int,
        reset_cycles: int = 1,
        inputs: Sequence[str] = (),
        schedule: Optional[Sequence[Sequence[int]]] = None,
    ) -> Iterator[List[int]]:
        """Step the clock ``cycles`` times, yielding the values at
        ``paths`` (one list, in that order) before the first edge and
        after each edge.

        Before edge ``cycle`` (numbered from 1) ``schedule[cycle]`` is
        driven into ``inputs``; ``schedule[0]`` is never driven.  When the
        design has ``rst``, it is held high for the first
        ``reset_cycles`` edges.
        """
        drive = self.driver(inputs)
        sample = self.sampler(paths)
        has_reset = reset_cycles > 0 and "rst" in self.top.values
        if has_reset:
            self.poke("rst", 1)
        yield sample()
        for cycle in range(1, cycles + 1):
            if schedule is not None:
                drive(schedule[cycle])
            self.step(1)
            if has_reset and cycle == reset_cycles:
                self.poke("rst", 0)
            yield sample()

    def reset(self, cycles: int = 1) -> None:
        """Pulse ``rst`` for the given number of cycles."""
        self.poke("rst", 1)
        self.step(cycles)
        self.poke("rst", 0)
