"""The unified diagnostic model shared by every analysis level.

A :class:`Diagnostic` is one finding of the static checker: a stable code
(``STL-SP-004``), a severity, the layer it was found at (``spec``,
``netlist``, ``program``), an optional location, a message, and an
optional suggestion.  The three checkers (:mod:`repro.analysis.spec`,
:mod:`repro.analysis.netlist`, :mod:`repro.analysis.program`) all return
plain lists of diagnostics, which the renderers here turn into text or
JSON and which the pipeline gates turn into an :class:`AnalysisError`.

Code namespaces (documented in DESIGN.md):

* ``STL-SP-*`` -- spec legality (level 1);
* ``STL-NL-*`` -- netlist dataflow lint (level 2);
* ``STL-PR-*`` -- ISA program verification (level 3);
* ``STL-EQ-*`` -- netlist equivalence of optimization passes (level 4):
  001 combinational cone refuted, 002 interface mismatch, 003
  differential trace divergence (first divergent signal and cycle);
* ``STL-CK-*`` -- checker-harness failures (an example failed to build);
* ``STL-FZ-*`` -- differential fuzzing mismatches (:mod:`repro.fuzz`):
  000 harness error (an oracle crashed outside the compared paths), then
  one code per oracle -- 001 ``sim.scalar_vs_vectorized``, 002
  ``sim.interpreter_vs_kernel``, 003 ``exec.serial_vs_parallel``, 004
  ``exec.cold_vs_warm``, 005 ``rtl.opt0_vs_opt2``, 006
  ``exec.halving_eta1_vs_exhaustive``.
"""

from __future__ import annotations

import enum
import json
import re
from typing import Dict, Iterable, List, Optional, Sequence

from ..core.expr import SpecError

_CODE = re.compile(r"^STL-[A-Z]{2}-\d{3}$")


class Severity(enum.IntEnum):
    """Ordered severities; comparisons follow the integer values."""

    INFO = 10
    WARNING = 20
    ERROR = 30

    @classmethod
    def parse(cls, text: str) -> "Severity":
        try:
            return cls[text.upper()]
        except KeyError:
            raise ValueError(f"unknown severity {text!r}") from None


class Diagnostic:
    """One finding of the static checker."""

    __slots__ = ("code", "severity", "layer", "location", "message", "suggestion")

    def __init__(
        self,
        code: str,
        severity: Severity,
        layer: str,
        message: str,
        location: str = "",
        suggestion: str = "",
    ):
        if not _CODE.match(code):
            raise ValueError(f"malformed diagnostic code {code!r}")
        self.code = code
        self.severity = Severity(severity)
        self.layer = layer
        self.location = location
        self.message = message
        self.suggestion = suggestion

    def to_dict(self) -> Dict[str, str]:
        return {
            "code": self.code,
            "severity": self.severity.name.lower(),
            "layer": self.layer,
            "location": self.location,
            "message": self.message,
            "suggestion": self.suggestion,
        }

    def render(self) -> str:
        where = f" [{self.location}]" if self.location else ""
        line = f"{self.severity.name.lower()}: {self.code}{where}: {self.message}"
        if self.suggestion:
            line += f"\n  suggestion: {self.suggestion}"
        return line

    def __repr__(self) -> str:
        return (
            f"Diagnostic({self.code}, {self.severity.name},"
            f" layer={self.layer!r}, message={self.message!r})"
        )


class AnalysisError(SpecError, RuntimeError):
    """Raised by the opt-out pipeline gates when error diagnostics exist.

    Subclasses both :class:`SpecError` (the compiler's legality-error type)
    and :class:`RuntimeError` (the ISA executor's error type) so existing
    callers that catch either keep working when the gate fires first.
    """

    def __init__(self, diagnostics: Sequence[Diagnostic]):
        self.diagnostics = list(diagnostics)
        super().__init__(render_text(self.diagnostics))


def suppress(
    diagnostics: Iterable[Diagnostic], codes: Iterable[str]
) -> List[Diagnostic]:
    """Drop diagnostics whose code is in ``codes`` (exact match)."""
    dropped = set(codes)
    return [d for d in diagnostics if d.code not in dropped]


def errors_only(diagnostics: Iterable[Diagnostic]) -> List[Diagnostic]:
    return [d for d in diagnostics if d.severity >= Severity.ERROR]


def max_severity(diagnostics: Iterable[Diagnostic]) -> Optional[Severity]:
    severities = [d.severity for d in diagnostics]
    return max(severities) if severities else None


def render_text(diagnostics: Sequence[Diagnostic]) -> str:
    """Human-readable multi-line rendering, most severe first."""
    ordered = sorted(
        diagnostics, key=lambda d: (-int(d.severity), d.layer, d.code, d.location)
    )
    lines = [d.render() for d in ordered]
    counts = _counts(diagnostics)
    if counts:
        summary = ", ".join(f"{n} {name}(s)" for name, n in counts.items())
        lines.append(f"-- {summary}")
    return "\n".join(lines) if lines else "no diagnostics"


def render_json(diagnostics: Sequence[Diagnostic], indent: int = 2) -> str:
    return json.dumps(
        {
            "diagnostics": [d.to_dict() for d in diagnostics],
            "counts": _counts(diagnostics),
        },
        indent=indent,
    )


def _counts(diagnostics: Iterable[Diagnostic]) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for diagnostic in diagnostics:
        name = diagnostic.severity.name.lower()
        counts[name] = counts.get(name, 0) + 1
    return counts
