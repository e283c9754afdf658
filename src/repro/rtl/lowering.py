"""Lowering compiled designs to RTL netlists (paper Figure 7, right side).

Mirrors Stellar's mapping of the optimized IR onto Chisel templates:

* one PE module per spatial array (Figure 11) with a time counter, an IO
  request generator driven by ``T^-1``, pipeline registers per moving
  variable, and the user-defined compute logic;
* an array module instantiating a PE per physical position and wiring the
  surviving PE-to-PE connections (plus the global start/stall signals the
  paper notes as an area overhead, Section VI-B);
* one register-file module per variable, shaped by the optimization ladder
  (FIFO for feedforward, pointer-swapped banks for transposing/edge,
  coordinate-searching CAM for the crossbar baseline);
* one memory-buffer module per tensor with a pipeline stage per fibertree
  axis (Figure 12);
* a DMA and an optional load balancer;
* a top-level module stitching everything together.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..core.compiler import CompiledDesign
from ..core.memspec import AxisType, MemoryBufferSpec
from ..core.passes.regfile_opt import RegfileKind, RegfilePlan
from .netlist import Module, Netlist, PortDir

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..exec.cache import CompileCache


def lower_design(
    design: CompiledDesign,
    max_inflight_dma: int = 1,
    check: bool = True,
    opt_level: int = 0,
    cache: Optional["CompileCache"] = None,
) -> Netlist:
    """Lower a compiled design to a full accelerator netlist.

    With ``check=True`` (the default) the netlist dataflow analyzer runs
    over the result and raises :class:`repro.analysis.AnalysisError` on
    error-severity findings; pass ``check=False`` to collect diagnostics
    yourself via :func:`repro.analysis.check_netlist`.

    ``opt_level`` selects the :mod:`repro.rtl.passes` rung applied to the
    lowered netlist (0 = none, 1 = fold + collapse, 2 = full pipeline);
    the returned netlist carries ``opt_level`` and per-pass
    ``pass_results``.  Every rung is equivalence-checked against rung 0
    by :mod:`repro.analysis.equiv` (``repro verify``).

    ``cache`` (a :class:`repro.exec.cache.CompileCache`) memoizes the
    netlist (stage ``lower``) on the design's axes rather than the
    compiled object's identity, so recompiling an identical design still
    hits.  The optimization rung and, for optimized rungs, the pass
    pipeline's semantic version are key axes too: netlists optimized at
    different rungs -- or by a different pipeline generation -- never
    answer for each other.  A memoized netlist is shared; treat it as
    immutable.
    """
    from ..exec.cache import memo
    from .passes import PASS_PIPELINE_VERSION

    return memo(
        cache,
        "lower",
        design.axes + (
            max_inflight_dma, check, opt_level,
            PASS_PIPELINE_VERSION if opt_level else 0,
        ),
        lambda: _lower(design, max_inflight_dma, check, opt_level),
    )


def _lower(
    design: CompiledDesign, max_inflight_dma: int, check: bool, opt_level: int
) -> Netlist:
    """The lowering behind :func:`lower_design`."""
    name = _sanitize(design.name)
    netlist = Netlist(f"{name}_top")

    pe = _lower_pe(design, name)
    netlist.add(pe)
    array = _lower_array(design, name, pe)
    netlist.add(array)

    regfiles: Dict[str, Module] = {}
    for variable, plan in sorted(design.regfile_plans.items()):
        module = _lower_regfile(name, plan)
        netlist.add(module)
        regfiles[variable] = module

    membufs: Dict[str, Module] = {}
    for tensor, spec in sorted(design.membufs.items()):
        module = _lower_membuf(name, tensor, spec)
        netlist.add(module)
        membufs[tensor] = module

    dma = _lower_dma(name, max_inflight_dma)
    netlist.add(dma)

    balancer = None
    if design.balancer is not None:
        balancer = _lower_balancer(design, name)
        netlist.add(balancer)

    netlist.add(_lower_top(design, name, array, regfiles, membufs, dma, balancer))

    if opt_level:
        from .passes import run_passes

        netlist, _ = run_passes(netlist, opt_level)

    if check:
        from ..analysis.diagnostics import AnalysisError, errors_only
        from ..analysis.netlist import check_netlist
        from ..obs.profile import span

        with span("analysis.netlist"):
            findings = errors_only(check_netlist(netlist))
        if findings:
            raise AnalysisError(findings)
    return netlist


def _sanitize(name: str) -> str:
    return "".join(ch if ch.isalnum() or ch == "_" else "_" for ch in name)


def _pe_acc_name(design: CompiledDesign) -> str:
    """The PE-internal MAC accumulator name for this design.

    Every spec variable ``v`` contributes fixed-suffix declarations to
    the PE module (``v_in``/``v_out``/``v_hold``/``v_pipe_N``/...), so a
    spec whose local is literally named ``acc`` (the conv1d spec) would
    collide with the hard-coded accumulator's ``acc_out`` port.  Pick
    the first of ``acc``, ``acc_0``, ``acc_1``, ... whose register and
    ``_out`` port are both free; designs without the clash keep the
    historical names byte-for-byte.
    """
    conn_vars = {c.variable for c in design.array.conns}
    roles = design.dataflow_roles
    taken = {"clk", "rst", "en", "x_coord", "y_coord", "t_counter"}
    for variable in design.spec.difference_vectors():
        role = roles.get(variable, "moving")
        if variable in conn_vars and role == "stationary":
            taken.update(
                (f"{variable}_hold", f"{variable}_load", f"{variable}_in")
            )
        elif variable in conn_vars:
            depth = max(
                1, design.pipelining.registers_per_variable.get(variable, 0)
            )
            taken.update((f"{variable}_in", f"{variable}_out"))
            taken.update(f"{variable}_pipe_{s}" for s in range(depth))
        else:
            taken.update(
                f"{variable}_{suffix}"
                for suffix in (
                    "rf_rd_data", "rf_rd_req", "rf_wr_data", "rf_wr_req",
                    "val",
                )
            )
    name, counter = "acc", 0
    while name in taken or f"{name}_out" in taken:
        name = f"acc_{counter}"
        counter += 1
    return name


# ---------------------------------------------------------------------------
# PE (Figure 11)
# ---------------------------------------------------------------------------


def _lower_pe(design: CompiledDesign, name: str) -> Module:
    bits = next(iter(design.regfile_plans.values())).element_bits if design.regfile_plans else 32
    module = Module(f"{name}_pe")
    module.input("clk")
    module.input("rst")
    module.input("en")  # global start/stall (Section VI-B area note)
    module.input("x_coord", 16)
    module.input("y_coord", 16)

    # Time counter: with the PE's coordinates it reconstructs the tensor
    # iterators through T^-1 in the IO request generator.
    module.reg("t_counter", 32)
    module.sync(["t_counter <= t_counter + 32'd1;"], ["t_counter <= 32'd0;"])

    conn_vars = {c.variable for c in design.array.conns}
    roles = design.dataflow_roles
    compute_terms: List[str] = []

    for variable in sorted(design.spec.difference_vectors()):
        role = roles.get(variable, "moving")
        pipeline_depth = design.pipelining.registers_per_variable.get(variable, 0)
        if variable in conn_vars and role == "stationary":
            module.reg(f"{variable}_hold", bits)
            module.input(f"{variable}_load", 1)
            module.input(f"{variable}_in", bits)
            module.sync(
                [f"if ({variable}_load) {variable}_hold <= {variable}_in;"],
                [f"{variable}_hold <= {bits}'d0;"],
            )
            compute_terms.append(f"{variable}_hold")
        elif variable in conn_vars:
            bundle = max(
                (c.bundle for c in design.array.conns_for(variable)), default=1
            )
            width = bits * bundle
            module.input(f"{variable}_in", width)
            module.output(f"{variable}_out", width)
            prev = f"{variable}_in"
            for stage in range(max(1, pipeline_depth)):
                reg_name = f"{variable}_pipe_{stage}"
                module.reg(reg_name, width)
                module.sync(
                    [f"{reg_name} <= {prev};"], [f"{reg_name} <= {width}'d0;"]
                )
                prev = reg_name
            module.assign(f"{variable}_out", prev)
            compute_terms.append(f"{variable}_in")
        else:
            # Pruned connection: direct regfile IO (the Figure 4 rewrite).
            module.input(f"{variable}_rf_rd_data", bits)
            module.output(f"{variable}_rf_rd_req", 1)
            module.output(f"{variable}_rf_wr_data", bits)
            module.output(f"{variable}_rf_wr_req", 1)
            # IO request generator: fire when T^-1(x, y, t) lands on a
            # boundary of the iteration domain.
            module.assign(f"{variable}_rf_rd_req", "en")
            module.assign(f"{variable}_rf_wr_req", "en")
            module.wire(f"{variable}_val", bits)
            module.assign(f"{variable}_val", f"{variable}_rf_rd_data")
            module.assign(f"{variable}_rf_wr_data", f"{variable}_val")
            compute_terms.append(f"{variable}_val")

    # User-defined logic: a representative MAC datapath over the connected
    # operands (the exact expression tree lives in the functional spec; the
    # hardware instantiates one multiplier and one adder per compute rule).
    acc = _pe_acc_name(design)
    module.reg(acc, bits)
    if len(compute_terms) >= 2:
        product = f"{compute_terms[0]} * {compute_terms[1]}"
    elif compute_terms:
        product = compute_terms[0]
    else:
        product = f"{bits}'d0"
    module.sync([f"if (en) {acc} <= {acc} + {product};"], [f"{acc} <= {bits}'d0;"])
    module.output(f"{acc}_out", bits)
    module.assign(f"{acc}_out", acc)
    return module


# ---------------------------------------------------------------------------
# Spatial array
# ---------------------------------------------------------------------------


def _lower_array(design: CompiledDesign, name: str, pe: Module) -> Module:
    bits = next(iter(design.regfile_plans.values())).element_bits if design.regfile_plans else 32
    module = Module(f"{name}_array")
    module.input("clk")
    module.input("rst")
    module.input("en")

    positions = design.array.positions()
    pe_of: Dict[Tuple[int, ...], str] = {}
    offsets = {
        c.variable: c.space_offset for c in design.array.conns if not c.is_stationary
    }
    conn_vars = {c.variable for c in design.array.conns}
    stationary = {
        v for v, role in design.dataflow_roles.items() if role == "stationary"
    }
    pruned = set(design.spec.difference_vectors()) - conn_vars

    # Array-level buses: one slice per boundary (or per PE for pruned vars).
    bus_slices: Dict[str, int] = {}

    def bus(variable: str, suffix: str, count: int, width: int, direction: PortDir):
        port_name = f"{variable}_{suffix}"
        total = max(1, count) * width
        if direction is PortDir.INPUT:
            module.input(port_name, total)
        else:
            module.output(port_name, total)
        bus_slices[port_name] = width
        return port_name

    position_index = {pos: idx for idx, pos in enumerate(positions)}

    # Declare internal wires for PE-to-PE links.
    def pe_tag(pos: Tuple[int, ...]) -> str:
        return "pe_" + "_".join(str(v).replace("-", "m") for v in pos)

    for pos in positions:
        pe_of[pos] = pe_tag(pos)

    # For each moving variable, wires out of every PE.
    for variable in sorted(conn_vars - stationary):
        bundle = max((c.bundle for c in design.array.conns_for(variable)), default=1)
        width = bits * bundle
        for pos in positions:
            module.wire(f"{pe_of[pos]}__{variable}_out", width)

    in_bus: Dict[str, str] = {}
    load_bus: Dict[str, str] = {}
    for variable in sorted(conn_vars):
        bundle = max((c.bundle for c in design.array.conns_for(variable)), default=1)
        width = bits * bundle
        if variable in stationary:
            in_bus[variable] = bus(variable, "fill_data", len(positions), width, PortDir.INPUT)
            load_bus[variable] = bus(variable, "fill_en", len(positions), 1, PortDir.INPUT)
        else:
            boundary = _boundary_positions(positions, offsets.get(variable, ()))
            in_bus[variable] = bus(variable, "in_data", len(boundary), width, PortDir.INPUT)

    rf_rd_bus: Dict[str, str] = {}
    rf_wr_bus: Dict[str, str] = {}
    for variable in sorted(pruned):
        rf_rd_bus[variable] = bus(variable, "rf_rd_data", len(positions), bits, PortDir.INPUT)
        rf_wr_bus[variable] = bus(variable, "rf_wr_data", len(positions), bits, PortDir.OUTPUT)

    acc = _pe_acc_name(design)
    acc_bus = bus("array", f"{acc}_out", len(positions), bits, PortDir.OUTPUT)

    def slice_of(bus_name: str, index: int) -> str:
        width = bus_slices[bus_name]
        hi = (index + 1) * width - 1
        lo = index * width
        return f"{bus_name}[{hi}:{lo}]"

    boundary_index: Dict[str, Dict[Tuple[int, ...], int]] = {}
    for variable in conn_vars - stationary:
        boundary = _boundary_positions(positions, offsets.get(variable, ()))
        boundary_index[variable] = {pos: idx for idx, pos in enumerate(boundary)}

    for pos in positions:
        idx = position_index[pos]
        conns: Dict[str, str] = {
            "clk": "clk",
            "rst": "rst",
            "en": "en",
            "x_coord": f"16'd{abs(pos[0])}",
            "y_coord": f"16'd{abs(pos[1]) if len(pos) > 1 else 0}",
        }
        for variable in sorted(conn_vars):
            if variable in stationary:
                conns[f"{variable}_in"] = slice_of(in_bus[variable], idx)
                conns[f"{variable}_load"] = slice_of(load_bus[variable], idx)
                continue
            offset = offsets.get(variable, tuple(0 for _ in pos))
            src = tuple(p - o for p, o in zip(pos, offset))
            if src in pe_of:
                conns[f"{variable}_in"] = f"{pe_of[src]}__{variable}_out"
            else:
                b_idx = boundary_index[variable].get(pos, 0)
                conns[f"{variable}_in"] = slice_of(in_bus[variable], b_idx)
            conns[f"{variable}_out"] = f"{pe_of[pos]}__{variable}_out"
        for variable in sorted(pruned):
            conns[f"{variable}_rf_rd_data"] = slice_of(rf_rd_bus[variable], idx)
            conns[f"{variable}_rf_wr_data"] = slice_of(rf_wr_bus[variable], idx)
        conns[f"{acc}_out"] = slice_of(acc_bus, idx)
        module.instantiate(pe, pe_of[pos], conns)

    return module


def _boundary_positions(
    positions: List[Tuple[int, ...]], offset: Tuple[int, ...]
) -> List[Tuple[int, ...]]:
    """PEs whose upstream neighbour (pos - offset) is outside the array."""
    if not offset or not any(offset):
        return list(positions)
    pos_set = set(positions)
    return [
        pos
        for pos in positions
        if tuple(p - o for p, o in zip(pos, offset)) not in pos_set
    ]


# ---------------------------------------------------------------------------
# Register files (Figure 14)
# ---------------------------------------------------------------------------


def _lower_regfile(name: str, plan: RegfilePlan) -> Module:
    module = Module(f"{name}_rf_{plan.variable}_{plan.kind.value}")
    bits = plan.element_bits
    depth = max(2, plan.entries)
    module.input("clk")
    module.input("rst")
    module.input("wr_en")
    module.input("wr_data", bits)
    module.input("rd_en")
    module.output("rd_data", bits)
    module.output("rd_valid")

    if plan.kind is RegfileKind.FEEDFORWARD:
        # Figure 14c: a feed-forward FIFO of shift registers.
        module.reg("mem", bits, depth=depth)
        module.reg("rd_ptr", 16)
        module.reg("wr_ptr", 16)
        module.reg("count", 16)
        module.sync(
            [
                "if (wr_en) mem[wr_ptr] <= wr_data;",
                "if (wr_en) wr_ptr <= wr_ptr + 16'd1;",
                "if (rd_en) rd_ptr <= rd_ptr + 16'd1;",
                "if (wr_en) count <= count + 16'd1;",
            ],
            ["rd_ptr <= 16'd0;", "wr_ptr <= 16'd0;", "count <= 16'd0;"],
        )
        module.assign("rd_data", "mem[rd_ptr]")
        module.assign("rd_valid", "count != 16'd0")
    elif plan.kind in (RegfileKind.TRANSPOSING, RegfileKind.EDGE):
        # Figures 14b/14d: edge-only entry/exit with swapped pointer walks.
        module.reg("mem", bits, depth=depth)
        module.reg("row_ptr", 16)
        module.reg("col_ptr", 16)
        module.wire("edge_addr", 16)
        module.assign("edge_addr", "row_ptr + col_ptr")
        module.sync(
            [
                "if (wr_en) mem[edge_addr] <= wr_data;",
                "if (rd_en) col_ptr <= col_ptr + 16'd1;",
                "if (rd_en) row_ptr <= row_ptr + 16'd1;",
            ],
            ["row_ptr <= 16'd0;", "col_ptr <= 16'd0;"],
        )
        module.assign("rd_data", "mem[edge_addr]")
        module.assign("rd_valid", "rd_en")
    else:
        # Figure 14a: the baseline crossbar/CAM -- every output port searches
        # the coordinates of every entry.
        module.input("wr_coord", 32)
        module.input("rd_coord", 32)
        module.reg("mem", bits, depth=depth)
        module.reg("coords", 32, depth=depth)
        module.reg("valid_bits", depth)
        module.wire("search_idx", 16)
        module.wire("search_hit")
        # The coordinate search is a parallel comparison over all entries;
        # represented behaviourally here, costed as N comparators in the
        # area model.
        module.assign("search_idx", "rd_coord[15:0]")
        module.assign("search_hit", "valid_bits[search_idx[4:0]]")
        module.sync(
            [
                "if (wr_en) mem[wr_coord[15:0]] <= wr_data;",
                "if (wr_en) coords[wr_coord[15:0]] <= wr_coord;",
                "if (wr_en) valid_bits[wr_coord[4:0]] <= 1'b1;",
            ],
            ["valid_bits <= {depth{1'b0}};".replace("depth", str(depth))],
        )
        module.assign("rd_data", "mem[search_idx]")
        module.assign("rd_valid", "search_hit & rd_en")
    return module


# ---------------------------------------------------------------------------
# Memory buffers (Figure 12)
# ---------------------------------------------------------------------------


def _lower_membuf(name: str, tensor: str, spec: MemoryBufferSpec) -> Module:
    module = Module(f"{name}_membuf_{tensor}")
    bits = spec.element_bits
    module.input("clk")
    module.input("rst")
    module.input("req_valid")
    module.input("req_is_write")
    module.input("req_addr", 32)
    module.input("req_span", 32)
    module.input("wr_data", bits)
    module.output("resp_valid")
    module.output("resp_data", bits)

    depth = max(2, spec.capacity_elements())
    module.reg("data_sram", bits, depth=depth)

    prev_valid = "req_valid"
    prev_addr = "req_addr"
    for axis_idx, axis in enumerate(spec.axes):
        valid_reg = f"stage{axis_idx}_valid"
        addr_reg = f"stage{axis_idx}_addr"
        module.reg(valid_reg, 1)
        module.reg(addr_reg, 32)
        statements = [f"{valid_reg} <= {prev_valid};"]
        if axis.axis_type is AxisType.DENSE:
            # Dense axes are simple affine address generators.
            statements.append(f"{addr_reg} <= {prev_addr} + req_span;")
        elif axis.axis_type is AxisType.COMPRESSED:
            # Indirect lookups: segment (row-id) SRAM then coordinate SRAM.
            module.reg(f"axis{axis_idx}_row_ids", 32, depth=depth)
            module.reg(f"axis{axis_idx}_coords", 32, depth=depth)
            statements.append(
                f"{addr_reg} <= axis{axis_idx}_row_ids[{prev_addr}[15:0]]"
                f" + axis{axis_idx}_coords[{prev_addr}[15:0]];"
            )
        elif axis.axis_type is AxisType.BITVECTOR:
            module.reg(f"axis{axis_idx}_bitmask", 64, depth=depth)
            statements.append(
                f"{addr_reg} <= {prev_addr} + axis{axis_idx}_bitmask[{prev_addr}[15:0]][5:0];"
            )
        else:  # LINKED_LIST
            module.reg(f"axis{axis_idx}_next_ptr", 32, depth=depth)
            module.reg(f"axis{axis_idx}_ll_coords", 32, depth=depth)
            statements.append(
                f"{addr_reg} <= axis{axis_idx}_next_ptr[{prev_addr}[15:0]];"
            )
        module.sync(statements, [f"{valid_reg} <= 1'b0;", f"{addr_reg} <= 32'd0;"])
        prev_valid = valid_reg
        prev_addr = addr_reg

    module.reg("resp_valid_r", 1)
    module.reg("resp_data_r", bits)
    module.sync(
        [
            f"resp_valid_r <= {prev_valid};",
            f"resp_data_r <= data_sram[{prev_addr}[15:0]];",
            f"if (req_is_write & {prev_valid}) data_sram[{prev_addr}[15:0]] <= wr_data;",
        ],
        ["resp_valid_r <= 1'b0;", f"resp_data_r <= {bits}'d0;"],
    )
    module.assign("resp_valid", "resp_valid_r")
    module.assign("resp_data", "resp_data_r")
    return module


# ---------------------------------------------------------------------------
# DMA, balancer, top
# ---------------------------------------------------------------------------


def _lower_dma(name: str, max_inflight: int) -> Module:
    module = Module(f"{name}_dma")
    module.input("clk")
    module.input("rst")
    module.input("req_valid")
    module.input("req_is_write")
    module.input("req_addr", 64)
    module.output("req_ready")
    module.input("dram_resp_valid")
    module.input("dram_resp_data", 64)
    module.output("dram_req_valid")
    module.output("dram_req_addr", 64)
    module.output("resp_valid")
    module.output("resp_data", 64)

    width = max(4, max_inflight.bit_length() + 1)
    module.reg("inflight", width)
    module.wire("can_issue")
    module.assign("can_issue", f"inflight < {width}'d{max_inflight}")
    module.assign("req_ready", "can_issue")
    module.assign("dram_req_valid", "req_valid & can_issue")
    module.assign("dram_req_addr", "req_addr")
    module.sync(
        [
            "if (req_valid & can_issue & !dram_resp_valid)"
            f" inflight <= inflight + {width}'d1;",
            "if (dram_resp_valid & !(req_valid & can_issue))"
            f" inflight <= inflight - {width}'d1;",
        ],
        [f"inflight <= {width}'d0;"],
    )
    module.reg("resp_valid_r", 1)
    module.reg("resp_data_r", 64)
    module.sync(
        ["resp_valid_r <= dram_resp_valid;", "resp_data_r <= dram_resp_data;"],
        ["resp_valid_r <= 1'b0;", "resp_data_r <= 64'd0;"],
    )
    module.assign("resp_valid", "resp_valid_r")
    module.assign("resp_data", "resp_data_r")
    return module


def _lower_balancer(design: CompiledDesign, name: str) -> Module:
    module = Module(f"{name}_balancer")
    rank = len(design.spec.index_names)
    module.input("clk")
    module.input("rst")
    module.input("occupancy", 32)
    module.input("idle_mask", 32)
    module.output("bias_valid")
    module.output("bias_vector", 16 * rank)
    module.reg("bias_r", 16 * rank)
    module.reg("bias_valid_r", 1)
    bias = design.balancer.bias_vectors[0] if design.balancer.bias_vectors else (0,) * rank
    literal = "{" + ", ".join(f"16'd{abs(int(v))}" for v in bias) + "}"
    module.sync(
        [
            f"bias_valid_r <= idle_mask != 32'd0;",
            f"if (idle_mask != 32'd0) bias_r <= {literal};",
        ],
        ["bias_valid_r <= 1'b0;", f"bias_r <= {16 * rank}'d0;"],
    )
    module.assign("bias_valid", "bias_valid_r")
    module.assign("bias_vector", "bias_r")
    return module


def _lower_top(
    design: CompiledDesign,
    name: str,
    array: Module,
    regfiles: Dict[str, Module],
    membufs: Dict[str, Module],
    dma: Module,
    balancer,
) -> Module:
    module = Module(f"{name}_top")
    module.input("clk")
    module.input("rst")
    module.input("start")
    module.output("busy")
    module.input("dram_resp_valid")
    module.input("dram_resp_data", 64)
    module.output("dram_req_valid")
    module.output("dram_req_addr", 64)

    module.reg("running", 1)
    module.sync(
        ["if (start) running <= 1'b1;"],
        ["running <= 1'b0;"],
    )
    module.assign("busy", "running")

    # Wire the array: every array input bus tied to regfile reads (modeled
    # as zero-extended reads here; the simulator carries the real data).
    array_conns: Dict[str, str] = {"clk": "clk", "rst": "rst", "en": "running"}
    for port in array.ports:
        if port.name in ("clk", "rst", "en"):
            continue
        wire_name = f"arr_{port.name}"
        module.wire(wire_name, port.width)
        if port.direction is PortDir.INPUT:
            module.assign(wire_name, f"{port.width}'d0")
        array_conns[port.name] = wire_name
    module.instantiate(array, "spatial_array", array_conns)

    for variable, rf in sorted(regfiles.items()):
        conns = {"clk": "clk", "rst": "rst"}
        for port in rf.ports:
            if port.name in ("clk", "rst"):
                continue
            wire_name = f"rf_{variable}_{port.name}"
            module.wire(wire_name, port.width)
            if port.direction is PortDir.INPUT:
                module.assign(wire_name, f"{port.width}'d0")
            conns[port.name] = wire_name
        module.instantiate(rf, f"regfile_{variable}", conns)

    for tensor, membuf in sorted(membufs.items()):
        conns = {"clk": "clk", "rst": "rst"}
        for port in membuf.ports:
            if port.name in ("clk", "rst"):
                continue
            wire_name = f"mb_{tensor}_{port.name}"
            module.wire(wire_name, port.width)
            if port.direction is PortDir.INPUT:
                module.assign(wire_name, f"{port.width}'d0")
            conns[port.name] = wire_name
        module.instantiate(membuf, f"membuf_{tensor}", conns)

    dma_conns = {
        "clk": "clk",
        "rst": "rst",
        "dram_resp_valid": "dram_resp_valid",
        "dram_resp_data": "dram_resp_data",
        "dram_req_valid": "dram_req_valid",
        "dram_req_addr": "dram_req_addr",
    }
    for port in dma.ports:
        if port.name in dma_conns:
            continue
        wire_name = f"dma_{port.name}"
        module.wire(wire_name, port.width)
        if port.direction is PortDir.INPUT:
            module.assign(wire_name, f"{port.width}'d0")
        dma_conns[port.name] = wire_name
    module.instantiate(dma, "dma", dma_conns)

    if balancer is not None:
        conns = {"clk": "clk", "rst": "rst"}
        for port in balancer.ports:
            if port.name in ("clk", "rst"):
                continue
            wire_name = f"lb_{port.name}"
            module.wire(wire_name, port.width)
            if port.direction is PortDir.INPUT:
                module.assign(wire_name, f"{port.width}'d0")
            conns[port.name] = wire_name
        module.instantiate(balancer, "load_balancer", conns)

    return module
