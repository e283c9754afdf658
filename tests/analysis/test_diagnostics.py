"""The unified diagnostic model: codes, severities, rendering."""

import json

import pytest

from repro.analysis import (
    AnalysisError,
    Diagnostic,
    Severity,
    errors_only,
    max_severity,
    render_json,
    render_text,
    suppress,
)
from repro.core.expr import SpecError


def _diag(code="STL-SP-004", severity=Severity.ERROR, **kwargs):
    kwargs.setdefault("message", "boom")
    return Diagnostic(code, severity, "spec", **kwargs)


def test_code_format_enforced():
    with pytest.raises(ValueError):
        Diagnostic("SP-004", Severity.ERROR, "spec", "boom")
    with pytest.raises(ValueError):
        Diagnostic("STL-SPEC-4", Severity.ERROR, "spec", "boom")
    Diagnostic("STL-NL-013", Severity.WARNING, "netlist", "fine")


def test_severity_ordering_and_parse():
    assert Severity.ERROR > Severity.WARNING > Severity.INFO
    assert Severity.parse("warning") is Severity.WARNING
    with pytest.raises(ValueError):
        Severity.parse("fatal")


def test_render_orders_most_severe_first():
    text = render_text(
        [
            _diag("STL-NL-012", Severity.WARNING, message="narrow"),
            _diag("STL-SP-004", Severity.ERROR, message="acausal"),
        ]
    )
    assert text.index("acausal") < text.index("narrow")
    assert "1 error(s)" in text and "1 warning(s)" in text
    assert render_text([]) == "no diagnostics"


def test_render_json_round_trips():
    payload = json.loads(render_json([_diag(suggestion="fix it")]))
    (entry,) = payload["diagnostics"]
    assert entry["code"] == "STL-SP-004"
    assert entry["severity"] == "error"
    assert entry["suggestion"] == "fix it"
    assert payload["counts"] == {"error": 1}


def test_filters():
    warning = _diag("STL-NL-012", Severity.WARNING)
    error = _diag()
    assert errors_only([warning, error]) == [error]
    assert suppress([warning, error], ["STL-SP-004"]) == [warning]
    assert max_severity([warning, error]) is Severity.ERROR
    assert max_severity([]) is None


def test_analysis_error_satisfies_both_legacy_exception_types():
    error = AnalysisError([_diag()])
    assert isinstance(error, SpecError)
    assert isinstance(error, RuntimeError)
    assert "STL-SP-004" in str(error)
    assert error.diagnostics[0].code == "STL-SP-004"
