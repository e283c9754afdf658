"""Consolidated design reports.

Renders everything an architect wants to see about one generated design
in a single text document: the compiled structure (PEs, connections,
dataflow roles), the register-file plans chosen by the Figure 14 ladder,
the calibrated area breakdown, memory-buffer pipelines, the balancer, and
Verilog statistics.  Used by ``python -m repro report`` and handy in
notebooks/regressions.
"""

from __future__ import annotations

from typing import List

from .area.model import estimate_design_area
from .core.accelerator import GeneratedDesign


def _section(title: str) -> List[str]:
    return ["", title, "-" * len(title)]


def design_report(design: GeneratedDesign, include_host_cpu: bool = False) -> str:
    """A complete text report for one generated design."""
    compiled = design.compiled
    lines: List[str] = [
        f"design: {compiled.name}",
        f"bounds: {compiled.bounds!r}",
        f"transform: {compiled.transform!r}",
    ]

    lines += _section("spatial array")
    lines.append(f"PEs: {compiled.pe_count}")
    lines.append(f"schedule length: {compiled.array.schedule_length} cycles")
    lines.append(f"dataflow roles: {compiled.dataflow_roles}")
    lines.append(
        f"utilization bound: {compiled.array.utilization_bound():.1%}"
    )
    for conn in compiled.array.conns:
        flavor = (
            "stationary"
            if conn.is_stationary
            else ("broadcast" if conn.is_broadcast else "pipelined")
        )
        lines.append(
            f"  conn {conn.variable}: dspace={conn.space_offset}"
            f" dt={conn.time_offset} [{flavor}]"
            + (f" x{conn.bundle}" if conn.bundle > 1 else "")
        )
    pruned = compiled.pruned_variables()
    if pruned:
        lines.append(f"pruned to regfile IO: {pruned}")

    lines += _section("register files (Figure 14 ladder)")
    for variable, plan in sorted(compiled.regfile_plans.items()):
        lines.append(
            f"  {variable}: {plan.kind.value:12s} entries={plan.entries:4d}"
            f" ports={plan.in_ports}/{plan.out_ports}"
            f" search={plan.search_width()}"
        )
        lines.append(f"      reason: {plan.reason}")

    if compiled.membufs:
        lines += _section("memory buffers (Figure 12 pipelines)")
        for name, spec in sorted(compiled.membufs.items()):
            axes = "/".join(a.axis_type.value for a in spec.axes)
            lines.append(
                f"  {name}: [{axes}] capacity={spec.capacity_bytes} B"
                f" latency={spec.access_latency()} cycles"
                f" metadata SRAMs={spec.metadata_sram_count()}"
            )

    if compiled.balancer is not None:
        lines += _section("load balancer (Equation 2)")
        lines.append(f"  granularity: {compiled.balancer.granularity}")
        lines.append(f"  bias vectors: {compiled.balancer.bias_vectors}")
        lines.append(
            f"  monitored regfiles: {compiled.balancer.monitored_variables}"
        )

    lines += _section("area (calibrated ASAP7-class model)")
    report = estimate_design_area(compiled, include_host_cpu=include_host_cpu)
    lines.append(report.table())

    lines += _section("verilog")
    # Lowering runs the netlist lint and raises on any error finding.
    netlist = design.to_netlist()
    text = netlist.emit()
    lines.append(f"  modules: {netlist.total_module_count()}")
    lines.append(f"  instances: {netlist.instance_count()}")
    lines.append(f"  lines: {len(text.splitlines())}")
    lines.append("  lint: clean")

    return "\n".join(lines)
