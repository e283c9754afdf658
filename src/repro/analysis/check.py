"""The full three-level check ladder and example-design discovery.

``python -m repro check`` (see :mod:`repro.cli`) funnels through here:
:func:`discover_examples` imports every ``examples/*.py`` file and calls
its ``build()`` entry point; :func:`check_design` runs the returned
design through spec legality, netlist lint, and ISA program verification;
:func:`run_check` aggregates everything into a :class:`CheckReport` with
text and JSON renderings.

Per-level timings are recorded through the ambient
:class:`repro.obs.profile.Profiler` under ``analysis.spec``,
``analysis.netlist``, and ``analysis.program`` (plus the compiler's own
``compile.*`` scopes for the build step), so ``repro check --profile``
can show where checking time goes.
"""

from __future__ import annotations

import importlib.util
import os
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.expr import SpecError
from ..obs.profile import span
from .diagnostics import (
    Diagnostic,
    Severity,
    max_severity,
    render_text,
    suppress as _suppress,
)
from .netlist import check_netlist
from .program import check_program
from .spec import check_spec

#: Version of the JSON report layout emitted by ``repro check --json``
#: and ``repro verify --json``.  Bump on any breaking change to the
#: report dictionaries so CI consumers can pin what they parse.
SCHEMA_VERSION = 2

#: DRAM base addresses of the synthesized demo program are spaced this
#: far apart so distinct transfers can never overlap.
_WINDOW_STRIDE = 1 << 20
_DEFAULT_SPAN = 4


class DesignReport:
    """The checker's findings for one design."""

    def __init__(
        self,
        name: str,
        diagnostics: Sequence[Diagnostic],
        source: str = "",
        levels: Sequence[str] = (),
    ):
        self.name = name
        self.source = source
        self.diagnostics = list(diagnostics)
        self.levels = list(levels)

    @property
    def clean(self) -> bool:
        return not self.diagnostics

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "source": self.source,
            "levels": self.levels,
            "diagnostics": [d.to_dict() for d in self.diagnostics],
        }


class CheckReport:
    """Aggregated findings over every checked design."""

    def __init__(self, designs: Sequence[DesignReport]):
        self.designs = list(designs)

    @property
    def diagnostics(self) -> List[Diagnostic]:
        out: List[Diagnostic] = []
        for design in self.designs:
            out.extend(design.diagnostics)
        return out

    def max_severity(self) -> Optional[Severity]:
        return max_severity(self.diagnostics)

    def counts(self) -> Dict[str, int]:
        counts = {"error": 0, "warning": 0, "info": 0}
        for diagnostic in self.diagnostics:
            counts[diagnostic.severity.name.lower()] += 1
        return counts

    def to_dict(self) -> Dict[str, object]:
        counts = self.counts()
        return {
            "schema_version": SCHEMA_VERSION,
            "designs": [d.to_dict() for d in self.designs],
            "summary": {
                "designs": len(self.designs),
                "errors": counts["error"],
                "warnings": counts["warning"],
                "infos": counts["info"],
            },
        }

    def text(self) -> str:
        lines: List[str] = []
        for design in self.designs:
            levels = "+".join(design.levels) if design.levels else "none"
            if design.clean:
                lines.append(f"ok   {design.name}: clean ({levels})")
            else:
                lines.append(
                    f"FAIL {design.name}:"
                    f" {len(design.diagnostics)} diagnostic(s) ({levels})"
                )
                for diagnostic in design.diagnostics:
                    lines.append("  " + diagnostic.render().replace("\n", "\n  "))
        counts = self.counts()
        lines.append(
            f"checked {len(self.designs)} design(s):"
            f" {counts['error']} error(s), {counts['warning']} warning(s)"
        )
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# One design through the ladder
# ---------------------------------------------------------------------------


def check_design(
    design,
    name: Optional[str] = None,
    suppress: Iterable[str] = (),
    cache=None,
) -> DesignReport:
    """Run one design through all three analysis levels.

    ``design`` may be an :class:`~repro.core.accelerator.Accelerator`, a
    :class:`~repro.core.accelerator.GeneratedDesign`, or a
    :class:`~repro.core.compiler.CompiledDesign`.  Netlist and program
    levels are skipped when the spec level reports errors (the design
    cannot be compiled).

    ``cache`` (a :class:`~repro.exec.cache.CompileCache`) memoizes the
    expensive halves -- the domain-enumerating ``analysis.spec``
    findings and the compile/lower products feeding levels 2 and 3 --
    under the same stage keys the compiler uses.  With a persistent
    cache, repeat ``repro check`` invocations skip re-enumerating
    iteration domains entirely.

    Two escape hatches let single layers be checked in isolation: a bare
    :class:`~repro.rtl.netlist.Netlist` runs only level 2, and an encoded
    instruction stream (a sequence of ``(opcode, rs1, rs2)`` triples)
    runs only level 3.
    """
    if hasattr(design, "modules") and hasattr(design, "top_name"):
        with span("analysis.netlist"):
            found = check_netlist(design)
        return DesignReport(
            name or design.top_name, _suppress(found, suppress), levels=["netlist"]
        )
    if _is_stream(design):
        with span("analysis.program"):
            found = check_program(design)
        return DesignReport(
            name or "program", _suppress(found, suppress), levels=["program"]
        )

    axes = getattr(design, "compiled", design)  # unwrap a GeneratedDesign
    if not hasattr(axes, "spec") or not hasattr(axes, "transform"):
        raise TypeError(
            f"cannot check {type(design).__name__}: expected an Accelerator,"
            " GeneratedDesign, or CompiledDesign"
        )
    label = name or axes.spec.name
    diagnostics: List[Diagnostic] = []
    levels = ["spec"]

    with span("analysis.spec"):
        diagnostics.extend(
            check_spec(
                axes.spec,
                axes.bounds,
                axes.transform,
                axes.sparsity,
                axes.balancing,
                cache=cache,
            )
        )

    if not any(d.severity >= Severity.ERROR for d in diagnostics):
        try:
            from ..rtl.lowering import lower_design

            compiled = _compiled_of(design, cache=cache)
            netlist = lower_design(compiled, check=False, cache=cache)
        except SpecError as error:
            diagnostics.append(
                Diagnostic(
                    "STL-CK-001",
                    Severity.ERROR,
                    "check",
                    f"design failed to compile: {error}",
                    label,
                )
            )
        else:
            levels.append("netlist")
            with span("analysis.netlist"):
                diagnostics.extend(check_netlist(netlist))
            levels.append("program")
            with span("analysis.program"):
                stream, unit_names = demo_program(compiled)
                diagnostics.extend(check_program(stream, unit_names))

    return DesignReport(label, _suppress(diagnostics, suppress), levels=levels)


def _is_stream(design) -> bool:
    return (
        isinstance(design, (list, tuple))
        and len(design) > 0
        and all(
            isinstance(entry, (list, tuple)) and len(entry) == 3
            for entry in design
        )
    )


def _compiled_of(design, cache=None):
    """The compiled design of an Accelerator (built without the analysis
    gate), a GeneratedDesign or a CompiledDesign."""
    if hasattr(design, "build"):  # Accelerator
        return design.build(check=False, cache=cache).compiled
    return getattr(design, "compiled", design)


# ---------------------------------------------------------------------------
# Demo program synthesis (level 3 input)
# ---------------------------------------------------------------------------


def demo_program(compiled) -> Tuple[List[Tuple[int, int, int]], Dict[int, str]]:
    """A canonical load program for a design's memory buffers.

    Synthesizes the DRAM-to-buffer transfers a host would issue before
    launching the design -- one per buffer, dense or CSR-style depending
    on the buffer's fibertree axes -- and returns the encoded stream plus
    the unit-id map.  Designs without buffers get a single dense load
    into a stand-in scratchpad, so level 3 always has a program to check.
    """
    from ..core.memspec import dense_matrix_buffer

    membufs = dict(compiled.membufs) if compiled.membufs else {
        "scratch": dense_matrix_buffer(
            "scratch", _DEFAULT_SPAN, _DEFAULT_SPAN
        )
    }
    unit_names = {0: "DRAM"}
    unit_ids = {}
    for offset, tensor in enumerate(sorted(membufs)):
        unit_names[offset + 1] = tensor
        unit_ids[tensor] = offset + 1

    stream: List[Tuple[int, int, int]] = []
    base = _WINDOW_STRIDE
    for tensor in sorted(membufs):
        transfer = _buffer_transfer(membufs[tensor], unit_ids[tensor], base)
        if transfer is not None:
            stream.extend(transfer)
            base += _WINDOW_STRIDE
    return stream, unit_names


def _buffer_transfer(
    bufspec, unit_id: int, base: int
) -> Optional[List[Tuple[int, int, int]]]:
    from ..core.memspec import AxisType
    from ..isa.encoding import (
        ENTIRE_AXIS,
        AxisTypeCode,
        MetadataType,
        Opcode,
        Target,
        make,
    )

    # Program axes are innermost-first; buffer axes are outermost-first.
    axes = list(reversed(bufspec.axes))
    types = [axis.axis_type for axis in axes]
    out: List[Tuple[int, int, int]] = []

    def push(opcode, target=Target.FOR_BOTH, axis=0, metadata_type=0, value=0):
        out.append(make(opcode, target, axis, metadata_type, value).encode())

    push(Opcode.SET_SRC_AND_DST, value=(0 << 8) | unit_id)
    push(Opcode.SET_ADDRESS, Target.FOR_SRC, value=base)

    if all(t is AxisType.DENSE for t in types):
        stride = 1
        for axis_index, axis in enumerate(axes):
            span = axis.size or _DEFAULT_SPAN
            push(Opcode.SET_SPAN, axis=axis_index, value=span)
            push(Opcode.SET_AXIS_TYPE, axis=axis_index, value=int(AxisTypeCode.DENSE))
            push(Opcode.SET_DATA_STRIDE, axis=axis_index, value=stride)
            stride *= span
    elif (
        len(types) == 2
        and types[0] is AxisType.COMPRESSED
        and types[1] is AxisType.DENSE
    ):
        # CSR-style: Listing 7's second snippet.
        rows = axes[1].size or _DEFAULT_SPAN
        push(
            Opcode.SET_METADATA_ADDRESS,
            Target.FOR_SRC,
            axis=0,
            metadata_type=int(MetadataType.ROW_ID),
            value=base + (_WINDOW_STRIDE >> 2),
        )
        push(
            Opcode.SET_METADATA_ADDRESS,
            Target.FOR_SRC,
            axis=0,
            metadata_type=int(MetadataType.COORD),
            value=base + (_WINDOW_STRIDE >> 1),
        )
        push(Opcode.SET_SPAN, axis=0, value=ENTIRE_AXIS)
        push(Opcode.SET_SPAN, axis=1, value=rows)
        push(Opcode.SET_DATA_STRIDE, axis=0, value=1)
        push(Opcode.SET_AXIS_TYPE, axis=0, value=int(AxisTypeCode.COMPRESSED))
        push(Opcode.SET_AXIS_TYPE, axis=1, value=int(AxisTypeCode.DENSE))
    else:
        # Bitvector / linked-list / deeper fibertrees have no canonical
        # host-side load program yet; skip them.
        return None

    push(Opcode.ISSUE)
    return out


# ---------------------------------------------------------------------------
# Example discovery
# ---------------------------------------------------------------------------


class ExampleTarget:
    """One discovered example file and its ``build()`` entry point."""

    def __init__(self, name: str, path: str, build=None, error: str = ""):
        self.name = name
        self.path = path
        self.build = build
        self.error = error


def discover_examples(paths: Sequence[str]) -> List[ExampleTarget]:
    """Import every example file and locate its ``build()`` entry point.

    ``paths`` may mix files and directories; directories contribute their
    non-underscore ``*.py`` files in sorted order.  Import failures and
    missing ``build()`` functions are reported as targets with ``error``
    set rather than raised, so one broken example cannot hide the rest.
    """
    files: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            for entry in sorted(os.listdir(path)):
                if entry.endswith(".py") and not entry.startswith("_"):
                    files.append(os.path.join(path, entry))
        else:
            files.append(path)

    targets: List[ExampleTarget] = []
    for path in files:
        name = os.path.splitext(os.path.basename(path))[0]
        try:
            spec = importlib.util.spec_from_file_location(
                f"repro_example_{name}", path
            )
            if spec is None or spec.loader is None:
                raise ImportError(f"cannot load {path}")
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
        except Exception as error:  # noqa: BLE001 -- report, don't crash
            targets.append(
                ExampleTarget(name, path, error=f"import failed: {error}")
            )
            continue
        build = getattr(module, "build", None)
        if not callable(build):
            targets.append(
                ExampleTarget(
                    name, path, error="example has no build() entry point"
                )
            )
        else:
            targets.append(ExampleTarget(name, path, build=build))
    return targets


def run_check(
    paths: Sequence[str],
    suppress: Iterable[str] = (),
    cache=None,
) -> CheckReport:
    """Discover examples under ``paths`` and run each through the ladder.

    ``cache`` is forwarded to :func:`check_design` for every discovered
    design, so designs sharing axes -- and repeat invocations, when the
    cache is disk-backed -- reuse the memoized analysis products."""
    reports: List[DesignReport] = []
    for target in discover_examples(paths):
        if target.error:
            reports.append(
                DesignReport(
                    target.name,
                    [
                        Diagnostic(
                            "STL-CK-001",
                            Severity.ERROR,
                            "check",
                            target.error,
                            target.name,
                        )
                    ],
                    source=target.path,
                )
            )
            continue
        try:
            design = target.build()
        except Exception as error:  # noqa: BLE001 -- report, don't crash
            reports.append(
                DesignReport(
                    target.name,
                    [
                        Diagnostic(
                            "STL-CK-001",
                            Severity.ERROR,
                            "check",
                            f"build() raised {type(error).__name__}: {error}",
                            target.name,
                        )
                    ],
                    source=target.path,
                )
            )
            continue
        report = check_design(
            design, name=target.name, suppress=suppress, cache=cache
        )
        report.source = target.path
        reports.append(report)
    return CheckReport(reports)


__all__ = [
    "SCHEMA_VERSION",
    "CheckReport",
    "DesignReport",
    "ExampleTarget",
    "check_design",
    "demo_program",
    "discover_examples",
    "render_text",
    "run_check",
]
