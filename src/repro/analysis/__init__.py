"""repro.analysis -- cross-layer static design checker.

Four levels, one diagnostic model:

* level 1, :mod:`repro.analysis.spec` (``STL-SP-*``): spec legality --
  transform injectivity, dependence causality, PE-grid realizability,
  sparsity/load-balancing annotation references;
* level 2, :mod:`repro.analysis.netlist` (``STL-NL-*``): netlist dataflow
  lint -- width inference and mismatch warnings, combinational-loop
  detection, multiple drivers, dead nets, reset coverage, plus the
  structural name-level checks;
* level 3, :mod:`repro.analysis.program` (``STL-PR-*``): ISA program
  verification -- decodability, field ranges, config-before-issue
  ordering, compressed-transfer metadata, DRAM window overlap;
* level 4, :mod:`repro.analysis.equiv` (``STL-EQ-*``): netlist
  equivalence -- proves every :mod:`repro.rtl.passes` optimization rung
  against its unoptimized source via structural hashing, bounded
  bit-precise evaluation, and a seeded lockstep differential with VCD
  trace alignment.

Each level is wired into its pipeline stage as an opt-out gate
(``compile_design(..., check=False)``, ``lower_design(..., check=False)``,
``StellarDriver(machine, check=False)``); ``python -m repro check``
runs levels 1-3 over every example design and ``python -m repro verify``
runs level 4 over every example and suite layer.
"""

from .check import (
    SCHEMA_VERSION,
    CheckReport,
    DesignReport,
    check_design,
    demo_program,
    discover_examples,
    run_check,
)
from .diagnostics import (
    AnalysisError,
    Diagnostic,
    Severity,
    errors_only,
    max_severity,
    render_json,
    render_text,
    suppress,
)
from .equiv import EquivResult, check_equivalence
from .netlist import check_netlist
from .program import check_program, machine_unit_names
from .spec import check_spec, check_spec_annotations, check_spec_transform
from .verify import VerifyReport, VerifyTarget, run_verify, verify_design

__all__ = [
    "SCHEMA_VERSION",
    "AnalysisError",
    "CheckReport",
    "DesignReport",
    "Diagnostic",
    "EquivResult",
    "Severity",
    "VerifyReport",
    "VerifyTarget",
    "check_design",
    "check_equivalence",
    "check_netlist",
    "check_program",
    "check_spec",
    "check_spec_annotations",
    "check_spec_transform",
    "demo_program",
    "discover_examples",
    "errors_only",
    "machine_unit_names",
    "max_severity",
    "render_json",
    "render_text",
    "run_check",
    "run_verify",
    "suppress",
    "verify_design",
]
