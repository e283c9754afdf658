"""Level 2 golden tests: netlist dataflow lint (STL-NL-*)."""

import os

import pytest

from repro.analysis import Severity, check_netlist, discover_examples, errors_only
from repro.analysis.netlist import check_module, infer_width, WidthEnv
from repro.core import Accelerator, Bounds
from repro.core.dataflow import output_stationary
from repro.rtl.lowering import lower_design
from repro.rtl.netlist import (
    Assign,
    Module,
    Net,
    Netlist,
    Port,
    PortDir,
    RTLError,
    SyncBlock,
    parse_expression,
)
from repro.rtl.passes import run_passes
from repro.rtl.sim import RTLSimulator

EXAMPLES_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "examples",
)


def _module(name="m"):
    module = Module(name)
    module.ports.append(Port("clk", PortDir.INPUT, 1))
    return module


def _netlist(module):
    netlist = Netlist(module.name)
    netlist.add(module)
    return netlist


# --- One grammar: text the shared parser rejects is STL-NL-018 ----------


def _statement_findings(statement):
    module = _module()
    module.nets.append(Net("r", 8, is_reg=True))
    module.sync_blocks.append(SyncBlock([statement]))
    return check_module(module, _netlist(module))


def test_else_arm_statement_is_outside_the_language():
    (diag,) = _statement_findings("if (en) r <= 8'd1; else r <= 8'd2;")
    assert diag.code == "STL-NL-018"
    assert diag.severity is Severity.ERROR
    assert diag.message == (
        "\"if (en) r <= 8'd1; else r <= 8'd2;\" in sync block is outside the"
        " netlist expression language: trailing tokens in statement"
        " \"if (en) r <= 8'd1; else r <= 8'd2;\""
    )


def test_chained_statements_are_outside_the_language():
    findings = _statement_findings("r <= 8'd1; r <= 8'd2; if (go) r <= 8'd3;")
    assert [d.code for d in findings] == ["STL-NL-018"]


def test_rejected_statement_is_skipped_by_other_checks():
    module = _module()
    module.ports.append(Port("en", PortDir.INPUT, 1))
    module.ports.append(Port("a", PortDir.OUTPUT, 8))
    module.ports.append(Port("b", PortDir.OUTPUT, 8))
    module.nets.append(Net("a_r", 8, is_reg=True))
    module.nets.append(Net("b_r", 8, is_reg=True))
    module.assigns.append(Assign("a", "a_r"))
    module.assigns.append(Assign("b", "b_r"))
    module.sync_blocks.append(
        SyncBlock(["if (en) a_r <= 8'd1; else b_r <= 8'd2;"])
    )
    findings = check_module(module, _netlist(module))
    # One report for the statement; no driver, width or reset finding is
    # drawn from text the simulator cannot run.
    assert [d.code for d in findings] == ["STL-NL-018"]


def _form_netlist(kind, text):
    module = Module("top")
    for name in ("clk", "rst", "en"):
        module.input(name)
    module.output("out", 8)
    module.reg("r", 8)
    if kind == "sync":
        module.sync([text])
        module.assign("out", "r")
    else:
        module.sync(["r <= r + 8'd1;"])
        module.assign("out", text)
    return _netlist(module)


_FORMS = {
    "else-arm": ("sync", "if (en) r <= 8'd1; else r <= 8'd2;"),
    "two-assignments": ("sync", "r <= 8'd1; r <= 8'd2;"),
    "ternary": ("assign", "en ? r : 8'd0"),
    "shift": ("assign", "r << 1"),
    "x-literal": ("assign", "8'hx"),
    "bad-digit": ("assign", "8'dff"),
    "control": ("assign", "r + 8'd1"),
}


@pytest.mark.parametrize("kind, text", list(_FORMS.values()), ids=list(_FORMS))
def test_lint_and_simulator_agree_on_the_language(kind, text):
    netlist = _form_netlist(kind, text)
    try:
        RTLSimulator(netlist)
    except RTLError:
        rejected = True
    else:
        rejected = False
    codes = [d.code for d in check_netlist(netlist)]
    assert ("STL-NL-018" in codes) == rejected
    assert rejected == (text != _FORMS["control"][1])


# --- Width inference -----------------------------------------------------


def test_width_inference_core_forms():
    module = _module()
    module.nets.append(Net("w8", 8))
    module.nets.append(Net("w16", 16))
    module.nets.append(Net("mem", 32, is_reg=True, depth=4))
    env = WidthEnv(module)

    def width(text):
        return infer_width(parse_expression(text), env)

    assert width("8'd3") == 8
    assert width("w8 + 8'd1") == 8
    assert width("w16[7:0]") == 8
    assert width("w16[3]") == 1
    assert width("{w8, w8}") == 16
    assert width("{4{w8}}") == 32
    assert width("w8 == 8'd7") == 1
    assert width("mem[w8]") == 32
    # Unsized numbers are 32 bits, as the simulator evaluates them.
    assert width("w8 + 1") == 32
    # Selects apply to any base, not only to a name.
    assert width("(w8 + w16)[3:0]") == 4


def test_range_reports_name_the_select_base():
    module = _module()
    module.nets.append(Net("w8", 8))
    env = WidthEnv(module)
    reports = []
    infer_width(parse_expression("{w8[9:0], w8[8], w8[0:3], (w8 + w8)[8]}"), env,
                reports.append)
    assert reports == [
        "part-select [9:0] exceeds the 8-bit width of 'w8'",
        "bit-select [8] exceeds the 8-bit width of 'w8'",
        "part-select [0:3] of 'w8' is reversed",
        "bit-select [8] exceeds the 8-bit width of '(w8 + w8)'",
    ]


def test_width_mismatch_exact_diagnostic():
    module = _module()
    module.ports.append(Port("out", PortDir.OUTPUT, 8))
    module.nets.append(Net("wide", 16))
    module.assigns.append(Assign("wide", "16'd3"))
    module.assigns.append(Assign("out", "wide"))
    findings = check_module(module, _netlist(module))
    assert [d.code for d in findings] == ["STL-NL-012"]
    diag = findings[0]
    assert diag.severity is Severity.WARNING
    assert diag.location == "m"
    assert diag.message == (
        "width mismatch in assign out: target 'out' is 8 bits but"
        " expression is 16 bits"
    )


def test_combinational_loop_detected():
    module = _module()
    module.nets.append(Net("l1", 4))
    module.nets.append(Net("l2", 4))
    module.assigns.append(Assign("l1", "l2"))
    module.assigns.append(Assign("l2", "l1"))
    findings = check_module(module, _netlist(module))
    codes = [d.code for d in findings]
    assert "STL-NL-013" in codes
    loop = next(d for d in findings if d.code == "STL-NL-013")
    assert loop.severity is Severity.ERROR
    assert "l1" in loop.message and "l2" in loop.message


def test_multiple_sync_drivers_detected():
    module = _module()
    module.nets.append(Net("r", 8, is_reg=True))
    module.sync_blocks.append(SyncBlock(["r <= 8'd1;"]))
    module.sync_blocks.append(SyncBlock(["r <= 8'd2;"]))
    findings = check_module(module, _netlist(module))
    assert "STL-NL-014" in [d.code for d in findings]


def test_dead_net_detected():
    module = _module()
    module.nets.append(Net("unused", 4))
    findings = check_module(module, _netlist(module))
    assert [d.code for d in findings] == ["STL-NL-015"]
    assert findings[0].severity is Severity.WARNING


def test_reset_coverage_warns_only_with_reset_arm():
    module = _module()
    module.nets.append(Net("r1", 8, is_reg=True))
    module.nets.append(Net("r2", 8, is_reg=True))
    module.sync_blocks.append(
        SyncBlock(["r1 <= 8'd1;", "r2 <= 8'd2;"], reset_statements=["r1 <= 8'd0;"])
    )
    findings = check_module(module, _netlist(module))
    assert [d.code for d in findings] == ["STL-NL-016"]
    assert "r2" in findings[0].message
    # No reset arm at all: nothing to be inconsistent with.
    module.sync_blocks[0] = SyncBlock(["r1 <= 8'd1;", "r2 <= 8'd2;"])
    assert check_module(module, _netlist(module)) == []


# --- Error findings -------------------------------------------------------


def test_undeclared_identifier_exact_diagnostic():
    module = _module()
    module.nets.append(Net("w", 8))
    module.assigns.append(Assign("w", "ghost"))
    findings = errors_only(check_netlist(_netlist(module)))
    assert [(d.code, d.location, d.message) for d in findings] == [
        ("STL-NL-001", "m", "undeclared identifier 'ghost' in assign w")
    ]


def test_errors_only_hides_warnings():
    module = _module()
    module.nets.append(Net("unused", 4))
    assert check_netlist(_netlist(module))  # the dead-net warning
    assert errors_only(check_netlist(_netlist(module))) == []


def test_generated_design_is_clean_and_gate_passes(spec):
    design = Accelerator(
        spec=spec, bounds=Bounds({"i": 4, "j": 4, "k": 4}),
        transform=output_stationary(),
    ).build()
    netlist = lower_design(design.compiled)  # check=True by default
    assert check_netlist(netlist) == []
    # Every example, at every optimization rung.
    targets = discover_examples([EXAMPLES_DIR])
    assert len(targets) == 5
    for target in targets:
        base = lower_design(target.build().build().compiled)
        for opt_level in (0, 1, 2):
            optimized, _ = run_passes(base, opt_level)
            findings = check_netlist(optimized)
            assert findings == [], (target.name, opt_level, findings)


def test_missing_top_keeps_exact_legacy_string():
    netlist = Netlist("nothing")
    findings = check_netlist(netlist)
    assert [(d.code, d.location, d.message) for d in findings] == [
        ("STL-NL-011", "", "top module 'nothing' is missing")
    ]
