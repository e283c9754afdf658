"""Level 2: netlist dataflow lint (``STL-NL-*``).

Extends the structural name-level checks with dataflow analyses over
the structural RTL IR.  The netlist IR owns one grammar
(:mod:`repro.rtl.netlist`), and every assign, sync statement and
instance connection keeps the tree it parsed when it was built -- the
trees the RTL simulator, the passes and the equivalence checker also
read.  The lint checks those trees and never parses:

* **language conformance** (``STL-NL-018``): a node whose text the
  grammar rejected is an error and the other checks skip it, so the
  lint accepts no text the rest of the stack cannot run;
* **bit-width inference** over the ASTs of assigns, sync statements,
  and instance connections, warning on mismatches (``STL-NL-012``) -- a
  fold over the AST node kinds in which a literal is as wide as its node
  says, so an unsized number is 32 bits, as the simulator evaluates it;
* **combinational-loop detection** (``STL-NL-013``) via a cycle search
  over the per-module continuous-assign dependency graph (registers
  break cycles);
* **multiple-driver detection** (``STL-NL-014``), range-aware so the
  generated arrays -- which drive disjoint slices of one bus from many
  PE instances -- stay clean;
* **dead-net detection** (``STL-NL-015``) for declared-but-unreferenced
  nets;
* **reset-coverage checks** (``STL-NL-016``) for regs driven in a sync
  block whose reset arm forgets them (memory arrays are exempt -- SRAM
  macros are not reset);
* **part-select range checks** (``STL-NL-017``) during width inference.

The structural checks are ``STL-NL-001`` .. ``STL-NL-011``.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from ..rtl.netlist import Module, Netlist, PortDir, lvalue_base, refs, unparse
from .diagnostics import Diagnostic, Severity, suppress as _suppress

# ---------------------------------------------------------------------------
# Width inference
# ---------------------------------------------------------------------------

_COMPARISON_OPS = frozenset({"==", "!=", "<", ">", "<=", ">="})


class WidthEnv:
    """Declared widths of one module, as the width inferencer sees them."""

    def __init__(self, module: Module):
        self.widths: Dict[str, int] = {}
        self.memories: Set[str] = set()
        for port in module.ports:
            self.widths[port.name] = port.width
        for net in module.nets:
            self.widths[net.name] = net.width
            if net.depth > 0:
                self.memories.add(net.name)


def infer_width(
    node, env: WidthEnv, report: Callable[[str], None] = lambda message: None
) -> Optional[int]:
    """Inferred bit width of an expression AST, or None when unknown.

    Every subexpression is visited, and ``report`` receives a message
    for each range violation found on the way (reversed or out-of-bounds
    part/bit selects).  An operand of unknown width (an undeclared name,
    a select with non-literal bounds) leaves a context-determined result
    to the other operand.
    """
    kind = node[0]
    if kind == "literal":
        return node[2]
    if kind == "ref":
        return env.widths.get(node[1])
    widths = [
        infer_width(child, env, report)
        for child in (node[1] if kind == "concat" else node[1:])
        if type(child) is tuple
    ]
    if kind == "concat":
        return None if None in widths else sum(widths)
    if kind == "repl":
        count = node[1]
        if count[0] != "literal" or widths[1] is None:
            return None
        return count[1] * widths[1]
    if kind == "unop":
        return 1 if node[1] == "!" else widths[0]
    if kind == "binop":
        if node[1] in _COMPARISON_OPS:
            return 1
        known = [width for width in widths if width is not None]
        return max(known) if known else None
    base, width = node[1], widths[0]
    if kind == "index" and base[0] == "ref" and base[1] in env.memories:
        return width  # a memory element select keeps the element width
    name = lvalue_base(base) or unparse(base)
    if kind == "index":
        bit = node[2]
        if width is not None and bit[0] == "literal" and bit[1] >= width:
            report(f"bit-select [{bit[1]}] exceeds the {width}-bit width of {name!r}")
        return 1
    if node[2][0] != "literal" or node[3][0] != "literal":
        return None
    hi, lo = node[2][1], node[3][1]
    if hi < lo:
        report(f"part-select [{hi}:{lo}] of {name!r} is reversed")
        return None
    if width is not None and hi >= width:
        report(f"part-select [{hi}:{lo}] exceeds the {width}-bit width of {name!r}")
    return hi - lo + 1


# ---------------------------------------------------------------------------
# Module-level checks
# ---------------------------------------------------------------------------


def check_module(module: Module, netlist: Netlist) -> List[Diagnostic]:
    diagnostics: List[Diagnostic] = []
    loc = module.name
    declared = module.declared_names()
    env = WidthEnv(module)
    outputs = {p.name for p in module.ports if p.direction is PortDir.OUTPUT}
    inputs = {p.name for p in module.ports if p.direction is PortDir.INPUT}
    regs = {n.name for n in module.nets if n.is_reg}
    wires = {n.name for n in module.nets if not n.is_reg}
    driven: Set[str] = set()
    # Continuous drivers per signal: (lo, hi, description); hi None when the
    # driven range is not statically known (skipped by overlap detection).
    cont_drivers: Dict[str, List[Tuple[int, Optional[int], str]]] = {}
    # (target, rhs AST) of every parsed continuous assign.
    assign_graph: List[Tuple[Optional[str], tuple]] = []

    def emit(code, severity, message, suggestion=""):
        diagnostics.append(
            Diagnostic(code, severity, "netlist", message, loc, suggestion)
        )

    def parsed(node, where: str):
        """The tree of ``node``, or None (reported) if the grammar
        rejected its text."""
        if node.error is None:
            return node.tree
        emit(
            "STL-NL-018",
            Severity.ERROR,
            f"{node.text!r} in {where} is outside the netlist expression"
            f" language: {node.error}",
            suggestion="rewrite it in the subset repro.rtl.netlist parses",
        )
        return None

    def check_refs(names: Iterable[str], where: str) -> None:
        for name in names:
            if name not in declared:
                emit(
                    "STL-NL-001",
                    Severity.ERROR,
                    f"undeclared identifier {name!r} in {where}",
                )

    def width_of(node, where: str) -> Optional[int]:
        def report(message: str) -> None:
            emit("STL-NL-017", Severity.ERROR, f"{message} in {where}")

        return infer_width(node, env, report)

    def check_widths(target: str, lhs, rhs, where: str) -> None:
        lhs_width = width_of(lhs, where)
        rhs_width = width_of(rhs, where)
        if lhs_width is not None and rhs_width is not None and lhs_width != rhs_width:
            emit(
                "STL-NL-012",
                Severity.WARNING,
                f"width mismatch in {where}: target {target!r} is"
                f" {lhs_width} bits but expression is {rhs_width} bits",
                suggestion="resize one side or slice the wider value",
            )

    def record_driver(name: str, lvalue, description: str) -> None:
        kind, operands = lvalue[0], lvalue[2:]
        if kind == "ref":
            span = (0, env.widths.get(name, 1) - 1)
        elif lvalue[1][0] != "ref" or any(op[0] != "literal" for op in operands):
            span = (0, None)
        else:
            span = (operands[-1][1], operands[0][1])  # [hi] or [hi:lo]
        cont_drivers.setdefault(name, []).append((*span, description))

    # --- Continuous assigns --------------------------------------------
    for assign in module.assigns:
        where = f"assign {assign.lhs.text}"
        lhs = parsed(assign.lhs, where)
        rhs = None if lhs is None else parsed(assign.rhs, where)
        if rhs is None:
            continue
        name = lvalue_base(lhs)
        assign_graph.append((name, rhs))
        if name in regs:
            emit(
                "STL-NL-002",
                Severity.ERROR,
                f"assign drives reg {name!r} (must use a sync block)",
            )
        elif name not in wires | outputs:
            emit("STL-NL-004", Severity.ERROR, f"assign drives undeclared {name!r}")
        driven.add(name)
        if name:
            record_driver(name, lhs, where)
        check_refs(refs(rhs), where)
        if name in declared:
            check_widths(assign.lhs.text, lhs, rhs, where)

    # --- Sync blocks ----------------------------------------------------
    def sync_target(statement) -> Optional[str]:
        """Check one sync statement; returns the name it drives, or None
        when the grammar rejected it."""
        parts = parsed(statement, "sync block")
        if parts is None:
            return None
        check_refs(statement.names(), "sync block")
        _cond, lvalue, rhs = parts
        name = lvalue_base(lvalue)
        if name not in regs:
            emit("STL-NL-003", Severity.ERROR, f"sync block drives non-reg {name!r}")
        driven.add(name)
        if name in declared:
            target = unparse(lvalue)
            check_widths(target, lvalue, rhs, f"sync statement {target} <= ...")
        return name

    sync_block_of: Dict[str, int] = {}
    for block_index, block in enumerate(module.sync_blocks):
        block_driven = {sync_target(stmt) for stmt in block.statements}
        reset_covered = {sync_target(stmt) for stmt in block.reset_statements}
        block_driven = (block_driven | reset_covered) - {None}
        for name in sorted(block_driven):
            previous = sync_block_of.get(name)
            if previous is not None and previous != block_index:
                emit(
                    "STL-NL-014",
                    Severity.ERROR,
                    f"reg {name!r} is driven from multiple sync blocks",
                )
            sync_block_of[name] = block_index
        if block.reset_statements:
            for name in sorted(block_driven - reset_covered - env.memories):
                emit(
                    "STL-NL-016",
                    Severity.WARNING,
                    f"reg {name!r} is driven in a sync block but missing"
                    " from its reset arm",
                    suggestion="add a reset statement or drop the reset arm",
                )

    # --- Instances ------------------------------------------------------
    for inst in module.instances:
        child = netlist.modules.get(inst.module_name)
        if child is None:
            emit(
                "STL-NL-007",
                Severity.ERROR,
                f"instance {inst.instance_name!r} of unknown module"
                f" {inst.module_name!r}",
            )
            continue
        child_inputs = {
            p.name for p in child.ports if p.direction is PortDir.INPUT
        }
        for port_name, signal in inst.connections.items():
            where = f"instance {inst.instance_name}.{port_name}"
            node = parsed(signal, where)
            if node is None:
                continue
            if not child.has_port(port_name):
                emit(
                    "STL-NL-008",
                    Severity.ERROR,
                    f"{inst.instance_name} connects missing port"
                    f" {port_name!r} of {child.name}",
                )
                continue
            check_refs(refs(node), where)
            port = child.port(port_name)
            signal_width = width_of(node, where)
            if signal_width is not None and signal_width != port.width:
                emit(
                    "STL-NL-012",
                    Severity.WARNING,
                    f"width mismatch in {where}: port is {port.width} bits"
                    f" but {signal.text!r} is {signal_width} bits",
                )
            if port.direction is PortDir.OUTPUT:
                name = lvalue_base(node)
                if name:
                    driven.add(name)
                    record_driver(name, node, where)
        for port_name in sorted(child_inputs - set(inst.connections)):
            emit(
                "STL-NL-009",
                Severity.ERROR,
                f"{inst.instance_name} leaves input {port_name!r} of"
                f" {child.name} unconnected",
            )

    # --- Driven-set consistency ----------------------------------------
    for name in sorted(outputs - driven):
        emit("STL-NL-005", Severity.ERROR, f"output {name!r} is never driven")
    for name in sorted(driven & inputs):
        emit("STL-NL-006", Severity.ERROR, f"input port {name!r} is driven internally")

    # --- Multiple continuous drivers (range-aware) ----------------------
    for name, ranges in sorted(cont_drivers.items()):
        known = sorted(r for r in ranges if r[1] is not None)
        for (lo_a, hi_a, desc_a), (lo_b, hi_b, desc_b) in zip(known, known[1:]):
            if lo_b <= hi_a:
                emit(
                    "STL-NL-014",
                    Severity.ERROR,
                    f"{name!r} bits [{max(lo_a, lo_b)}:{min(hi_a, hi_b)}]"
                    f" have multiple drivers ({desc_a} and {desc_b})",
                )
                break

    # --- Combinational loops over the assign graph ----------------------
    diagnostics.extend(_check_comb_loops(assign_graph, regs, env.memories, loc))

    # --- Dead nets -------------------------------------------------------
    # Undecidable while any text is unreadable: it may name any net.
    nodes = [node for assign in module.assigns for node in (assign.lhs, assign.rhs)]
    for block in module.sync_blocks:
        nodes.extend(block.statements + block.reset_statements)
    for inst in module.instances:
        nodes.extend(inst.connections.values())
    if all(node.error is None for node in nodes):
        used = {name for node in nodes for name in node.names()}
        for net in module.nets:
            if net.name not in used:
                emit(
                    "STL-NL-015",
                    Severity.WARNING,
                    f"net {net.name!r} is declared but never used",
                    suggestion="delete the declaration",
                )

    return diagnostics


def _check_comb_loops(
    assign_graph: List[Tuple[Optional[str], tuple]],
    regs: Set[str],
    memories: Set[str],
    loc: str,
) -> List[Diagnostic]:
    """Cycles in the continuous-assign dependency graph are combinational
    loops; registers (sync-driven) legally break feedback paths."""
    sequential = regs | memories
    edges: Dict[str, List[str]] = {}
    for target, rhs in assign_graph:
        if not target or target in sequential:
            continue
        deps = [name for name in refs(rhs) if name not in sequential]
        edges.setdefault(target, []).extend(deps)

    diagnostics: List[Diagnostic] = []
    state: Dict[str, int] = {}

    def visit(name: str, stack: List[str]) -> None:
        if state.get(name) == 2:
            return
        if state.get(name) == 1:
            cycle = stack[stack.index(name):] + [name]
            diagnostics.append(
                Diagnostic(
                    "STL-NL-013",
                    Severity.ERROR,
                    "netlist",
                    "combinational loop: " + " -> ".join(cycle),
                    loc,
                    suggestion="break the loop with a register",
                )
            )
            return
        state[name] = 1
        for dep in edges.get(name, ()):
            visit(dep, stack + [name])
        state[name] = 2

    for name in sorted(edges):
        visit(name, [])
    return diagnostics


# ---------------------------------------------------------------------------
# Netlist-level checks
# ---------------------------------------------------------------------------


def check_netlist(
    netlist: Netlist, suppress: Iterable[str] = ()
) -> List[Diagnostic]:
    """Run every netlist check over every module of a design."""
    diagnostics: List[Diagnostic] = []
    if netlist.top_name not in netlist.modules:
        diagnostics.append(
            Diagnostic(
                "STL-NL-011",
                Severity.ERROR,
                "netlist",
                f"top module {netlist.top_name!r} is missing",
            )
        )
        return _suppress(diagnostics, suppress)

    for module in netlist.modules.values():
        diagnostics.extend(check_module(module, netlist))

    # Cycle check over the instantiation graph.
    state: Dict[str, int] = {}

    def visit(name: str, stack: List[str]) -> None:
        if state.get(name) == 2:
            return
        if state.get(name) == 1:
            diagnostics.append(
                Diagnostic(
                    "STL-NL-010",
                    Severity.ERROR,
                    "netlist",
                    "instantiation cycle: " + " -> ".join(stack + [name]),
                )
            )
            return
        state[name] = 1
        module = netlist.modules.get(name)
        if module is not None:
            for inst in module.instances:
                visit(inst.module_name, stack + [name])
        state[name] = 2

    visit(netlist.top_name, [])
    return _suppress(diagnostics, suppress)
