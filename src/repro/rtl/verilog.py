"""Verilog text emission for the structural netlist IR.

Renders each :class:`~repro.rtl.netlist.Module` as a Verilog-2001 module:
ANSI port lists, wire/reg declarations, continuous assigns, synchronous
``always @(posedge clk)`` blocks with synchronous reset, and named-port
instantiations.  The output is the repository's stand-in for the
synthesizable Verilog Stellar emits from its Chisel templates (see the
Substitutions table in DESIGN.md); the netlist dataflow analyzer
(:mod:`repro.analysis.netlist`) verifies its structural integrity in
place of a synthesis run.

The emitter raises :class:`~repro.rtl.netlist.RTLError` for netlists it
could only render as unsynthesizable text: a module with no ports (the
ANSI header would be malformed) or an instance connection naming a port
its child module does not have.
"""

from __future__ import annotations

from typing import List

from .netlist import Module, Netlist, RTLError

_INDENT = "  "


def _range(width: int) -> str:
    return f"[{width - 1}:0] " if width > 1 else ""


def emit_module(module: Module) -> str:
    if not module.ports:
        raise RTLError(
            f"module {module.name!r} has no ports; cannot emit an ANSI"
            " port header"
        )
    lines: List[str] = []
    ports = []
    for port in module.ports:
        ports.append(
            f"{_INDENT}{port.direction.value} {_range(port.width)}{port.name}"
        )
    header = f"module {module.name} ("
    lines.append(header)
    lines.append(",\n".join(ports))
    lines.append(");")

    for net in module.nets:
        kind = "reg" if net.is_reg else "wire"
        depth = f" [0:{net.depth - 1}]" if net.depth else ""
        lines.append(f"{_INDENT}{kind} {_range(net.width)}{net.name}{depth};")

    if module.nets and (module.assigns or module.sync_blocks or module.instances):
        lines.append("")

    for assign in module.assigns:
        lines.append(f"{_INDENT}assign {assign.lhs.text} = {assign.rhs.text};")

    for block in module.sync_blocks:
        lines.append(f"{_INDENT}always @(posedge clk) begin")
        if block.reset_statements:
            lines.append(f"{_INDENT * 2}if (rst) begin")
            for stmt in block.reset_statements:
                lines.append(f"{_INDENT * 3}{stmt.text}")
            lines.append(f"{_INDENT * 2}end else begin")
            for stmt in block.statements:
                lines.append(f"{_INDENT * 3}{stmt.text}")
            lines.append(f"{_INDENT * 2}end")
        else:
            for stmt in block.statements:
                lines.append(f"{_INDENT * 2}{stmt.text}")
        lines.append(f"{_INDENT}end")

    for inst in module.instances:
        lines.append(f"{_INDENT}{inst.module_name} {inst.instance_name} (")
        conns = [
            f"{_INDENT * 2}.{port}({signal.text})"
            for port, signal in inst.connections.items()
        ]
        lines.append(",\n".join(conns))
        lines.append(f"{_INDENT});")

    lines.append("endmodule")
    return "\n".join(lines)


def _check_connections(netlist: Netlist) -> None:
    for module in netlist.modules.values():
        for inst in module.instances:
            child = netlist.modules.get(inst.module_name)
            if child is None:
                continue  # unknown children are the lint's finding
            for port_name in inst.connections:
                if not child.has_port(port_name):
                    raise RTLError(
                        f"instance {inst.instance_name!r} in module"
                        f" {module.name!r} connects port {port_name!r},"
                        f" which module {inst.module_name!r} does not"
                        " have"
                    )


def emit_netlist(netlist: Netlist) -> str:
    """Emit every module, children before parents, top last."""
    _check_connections(netlist)
    emitted: List[str] = []
    done = set()

    def visit(name: str) -> None:
        if name in done:
            return
        done.add(name)
        module = netlist.module(name)
        for inst in module.instances:
            visit(inst.module_name)
        emitted.append(emit_module(module))

    # Visit the top last so leaf modules appear first in the file; also emit
    # any modules unreachable from the top (e.g. alternative regfiles kept
    # for exploration).
    visit(netlist.top_name)
    for name in sorted(netlist.modules):
        visit(name)

    optimized = ""
    if netlist.opt_level:
        rewrites = ", ".join(
            f"{result.name}={result.rewrites}"
            for result in netlist.pass_results
        )
        optimized = (
            f"// Optimized: opt_level {netlist.opt_level}"
            f" ({rewrites or 'no rewrites'})\n"
        )
    banner = (
        "// -----------------------------------------------------------------\n"
        f"// Generated by repro (Stellar reproduction) -- top: {netlist.top_name}\n"
        f"// Modules: {len(netlist.modules)}\n"
        + optimized
        + "// -----------------------------------------------------------------\n"
    )
    return banner + "\n\n".join(emitted) + "\n"
