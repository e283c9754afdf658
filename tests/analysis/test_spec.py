"""Level 1 golden tests: spec-legality diagnostics (STL-SP-*)."""

import pytest

from repro.analysis import AnalysisError, Severity, check_spec
from repro.core import Accelerator, Bounds, compile_design
from repro.core.balancing import LoadBalancingScheme, Range, Shift
from repro.core.dataflow import (
    SpaceTimeTransform,
    hexagonal,
    output_stationary,
)


@pytest.fixture
def bounds():
    return Bounds({"i": 4, "j": 4, "k": 4})


def _acausal():
    # Negated time row: every dependence runs backwards in time.
    return SpaceTimeTransform([[1, 0, 0], [0, 1, 0], [-1, -1, -1]])


def test_clean_design_has_no_diagnostics(spec, bounds):
    assert check_spec(spec, bounds, output_stationary()) == []


def test_acausal_transform_exact_diagnostic(spec, bounds):
    findings = check_spec(spec, bounds, _acausal())
    assert [d.code for d in findings] == ["STL-SP-004"] * 3
    by_name = {d.message.split("'")[1]: d for d in findings}
    diag = by_name["a"]
    assert diag.severity is Severity.ERROR
    assert diag.layer == "spec"
    assert diag.location == "matmul"
    assert diag.message == (
        "transform violates causality for 'a': time delta -1 < 0"
        " along difference vector (0, 1, 0)"
    )


def _singular(matrix):
    """A singular transform.  ``SpaceTimeTransform.__init__`` rejects
    these, so STL-SP-003 is reachable only by bypassing it."""
    transform = SpaceTimeTransform.__new__(SpaceTimeTransform)
    transform.matrix = tuple(tuple(row) for row in matrix)
    transform.rank = len(matrix)
    transform.space_dims = transform.rank - 1
    transform.time_dims = 1
    transform._inverse = None
    return transform


@pytest.mark.parametrize(
    "matrix, sizes, expected",
    [
        (
            [[1, 0, 0], [0, 1, 1], [1, 1, 1]],
            {"i": 3, "j": 3, "k": 3},
            [(
                "STL-SP-003",
                "transform is not injective: iterations (0, 0, 1) and"
                " (0, 1, 0) both map to space-time (0, 1, 1)",
            )],
        ),
        (
            [[0, 0, 0], [0, 1, 0], [1, 1, 1]],
            {"i": (1, 3), "j": 2, "k": (2, 4)},
            [(
                "STL-SP-003",
                "transform is not injective: iterations (1, 0, 3) and"
                " (2, 0, 2) both map to space-time (0, 0, 4)",
            )],
        ),
        (
            [[1, -1, 0], [0, 0, 1], [1, -1, 1]],
            {"i": (-2, 1), "j": 3, "k": 2},
            [
                (
                    "STL-SP-003",
                    "transform is not injective: iterations (-2, 0, 0) and"
                    " (-1, 1, 0) both map to space-time (-2, 0, -2)",
                ),
                (
                    "STL-SP-004",
                    "transform violates causality for 'a': time delta -1 < 0"
                    " along difference vector (0, 1, 0)",
                ),
                (
                    "STL-SP-007",
                    "transform image includes negative PE coordinates"
                    " ((-4, 1), (0, 1)); the RTL backend folds them by"
                    " absolute value",
                ),
            ],
        ),
    ],
    ids=["adjacent-pair", "offset-bounds", "negative-coords"],
)
def test_non_injective_transform_exact_diagnostic(spec, matrix, sizes, expected):
    """STL-SP-003 names the first collision in point order: the earliest
    point whose image an earlier point already has, and the first point
    with that image."""
    findings = check_spec(spec, Bounds(sizes), _singular(matrix))
    assert [(d.code, d.message) for d in findings] == expected
    assert findings[0].severity is Severity.ERROR
    assert findings[0].location == "matmul"
    assert findings[0].suggestion == "use an invertible space-time matrix"


def test_rank_mismatch_reported_before_anything_else(spec):
    findings = check_spec(
        spec, Bounds({"i": 4, "j": 4, "k": 4}), SpaceTimeTransform([[1, 0], [0, 1]])
    )
    assert [d.code for d in findings] == ["STL-SP-001"]


def test_missing_bounds_detected(spec):
    findings = check_spec(spec, Bounds({"i": 4, "j": 4}), output_stationary())
    assert [d.code for d in findings] == ["STL-SP-002"]
    assert "'k'" in findings[0].message or "k" in findings[0].message


def test_negative_coordinates_warn_not_error(spec, bounds):
    findings = check_spec(spec, bounds, hexagonal())
    assert [d.code for d in findings] == ["STL-SP-007"]
    assert findings[0].severity is Severity.WARNING


def test_unknown_balancing_iterator_detected(spec, bounds):
    scheme = LoadBalancingScheme(
        [Shift({"nope": Range(0, 1)}, {"j": Range(2, 3)})]
    )
    findings = check_spec(spec, bounds, output_stationary(), balancing=scheme)
    assert "STL-SP-010" in [d.code for d in findings]


def test_compile_gate_raises_analysis_error(spec, bounds):
    with pytest.raises(AnalysisError) as excinfo:
        compile_design(spec, bounds, _acausal())
    assert any(d.code == "STL-SP-004" for d in excinfo.value.diagnostics)


def test_compile_gate_reports_what_check_spec_reports(spec, bounds):
    # A shape error stops the checks, annotation checks included, in the
    # gate exactly as in check_spec.
    transform = SpaceTimeTransform([[1, 0], [0, 1]])
    scheme = LoadBalancingScheme(
        [Shift(src={"q": Range(0, 1)}, dst={"i": Range(0, 1)})]
    )
    findings = check_spec(spec, bounds, transform, balancing=scheme)
    assert [d.code for d in findings] == ["STL-SP-001"]
    with pytest.raises(AnalysisError) as excinfo:
        compile_design(spec, bounds, transform, balancing=scheme)
    assert [d.code for d in excinfo.value.diagnostics] == ["STL-SP-001"]


def test_compile_gate_opt_out(spec, bounds):
    # With check=False only the legacy validate_schedule runs (which also
    # rejects this transform but with the plain SpecError).
    from repro.core.expr import SpecError

    with pytest.raises(SpecError):
        compile_design(spec, bounds, _acausal(), check=False)


def test_accelerator_build_forwards_check(spec, bounds):
    acc = Accelerator(spec=spec, bounds=bounds, transform=_acausal())
    with pytest.raises(AnalysisError):
        acc.build()
