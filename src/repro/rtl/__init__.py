"""Structural RTL backend: netlist IR, Verilog emitter, passes, lowering.

Netlist lint lives in :func:`repro.analysis.check_netlist`.
"""

from .lowering import lower_design
from .netlist import (
    Assign,
    Expr,
    Instance,
    Module,
    Net,
    Netlist,
    Port,
    PortDir,
    RTLError,
    Statement,
    SyncBlock,
    parse_expression,
    parse_statement,
)
from .passes import PASS_PIPELINE_VERSION, PassResult, run_passes
from .sim import RTLSimulator
from .verilog import emit_module, emit_netlist

__all__ = [
    "lower_design",
    "Assign",
    "Expr",
    "Instance",
    "Module",
    "Net",
    "Netlist",
    "PASS_PIPELINE_VERSION",
    "PassResult",
    "Port",
    "PortDir",
    "RTLError",
    "Statement",
    "SyncBlock",
    "emit_module",
    "emit_netlist",
    "run_passes",
    "RTLSimulator",
    "parse_expression",
    "parse_statement",
]
