"""Level 1: specification-legality checks (``STL-SP-*``).

Validates a design *before* compilation: the space-time transform must be
injective over the iteration domain (two iterations mapped to the same
(space, time) coordinate would collide in one PE at one cycle), every
dependence must advance monotonically in time (causality), the PE grid
implied by the transform image must be realizable by the generated array
(16-bit coordinate ports, absolute-value folding of negative positions),
and the sparsity/load-balancing annotations must reference iterators and
tensors that actually exist in the functional spec.

Checks mirror :func:`repro.core.dataflow.validate_schedule` but return
:class:`~repro.analysis.diagnostics.Diagnostic` lists instead of raising
on first failure, so ``repro check`` can report everything at once.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..core.balancing import LoadBalancingScheme
from ..core.dataflow import SpaceTimeTransform, lex_order, run_starts
from ..core.expr import Bounds
from ..core.functionality import FunctionalSpec
from ..core.sparsity import SparsityStructure
from .diagnostics import Diagnostic, Severity, suppress as _suppress

#: PE coordinate ports in the generated array are this wide (see
#: ``repro.rtl.lowering._lower_pe``); space coordinates must fit.
_COORD_BITS = 16

#: Injectivity and the PE grid are checked over the whole domain's
#: space-time image up to this many iteration points.
_MAX_ENUMERATED_POINTS = 1 << 16


def check_spec(
    spec: FunctionalSpec,
    bounds: Bounds,
    transform: SpaceTimeTransform,
    sparsity: Optional[SparsityStructure] = None,
    balancing: Optional[LoadBalancingScheme] = None,
    suppress: Tuple[str, ...] = (),
    cache=None,
) -> List[Diagnostic]:
    """Run every spec-legality check; returns all findings.

    Composes :func:`check_spec_transform` (the domain-enumeration checks,
    which depend only on ``(spec, bounds, transform)``) with
    :func:`check_spec_annotations` (cheap reference checks of the
    sparsity/balancing annotations).  A shape error (``STL-SP-001`` /
    ``STL-SP-002``) stops there: every other check presumes a
    well-shaped spec/bounds/transform.  This is the one composition
    rule, for ``repro check`` and the compiler's gate alike.

    ``cache`` (a :class:`~repro.exec.cache.CompileCache`) memoizes the
    transform-legality findings under the ``analysis.spec`` stage, keyed
    on ``(spec, bounds, transform)``, so sweeping sparsity or balancing
    candidates verifies each transform once and ``repro check`` shares
    entries with compiles -- including persisted ones when the cache has
    a disk tier.  The annotation checks are never cached.
    """
    from ..exec.cache import memo

    diagnostics = list(
        memo(
            cache,
            "analysis.spec",
            (spec, bounds, transform),
            lambda: check_spec_transform(spec, bounds, transform),
        )
    )
    aborted = len(diagnostics) == 1 and diagnostics[0].code in (
        "STL-SP-001",
        "STL-SP-002",
    )
    if not aborted:
        diagnostics.extend(check_spec_annotations(spec, sparsity, balancing))
    return _suppress(diagnostics, suppress)


def check_spec_transform(
    spec: FunctionalSpec,
    bounds: Bounds,
    transform: SpaceTimeTransform,
) -> List[Diagnostic]:
    """The transform-legality subset of :func:`check_spec`.

    Everything here -- shape consistency, injectivity, causality, PE-grid
    realizability -- is a pure function of ``(spec, bounds, transform)``;
    sweeping sparsity or balancing candidates never changes the result,
    so design-space exploration verifies each sub-key exactly once.
    """
    diagnostics: List[Diagnostic] = []
    order = spec.index_names

    # --- Shape consistency (everything else depends on it) -------------
    if transform.rank != len(order):
        diagnostics.append(
            Diagnostic(
                "STL-SP-001",
                Severity.ERROR,
                "spec",
                f"transform rank {transform.rank} does not match the"
                f" {len(order)} iteration indices {list(order)}",
                location=spec.name,
                suggestion="use one transform row/column per iteration index",
            )
        )
        return diagnostics

    missing = [name for name in order if name not in bounds]
    if missing:
        diagnostics.append(
            Diagnostic(
                "STL-SP-002",
                Severity.ERROR,
                "spec",
                f"bounds are missing iteration indices {missing}",
                location=spec.name,
                suggestion="give every index of the spec an explicit bound",
            )
        )
        return diagnostics

    extra = [name for name in bounds.names() if name not in order]
    if extra:
        diagnostics.append(
            Diagnostic(
                "STL-SP-011",
                Severity.WARNING,
                "spec",
                f"bounds name indices {extra} that the spec does not iterate",
                location=spec.name,
            )
        )

    # Linear maps collide on a full domain iff they collide on a difference
    # vector; an invertible matrix never does, so for big domains the
    # constructor's invertibility check already covers injectivity.  The
    # grid checks are skipped there too.
    image = None
    if bounds.point_count(order) <= _MAX_ENUMERATED_POINTS:
        points = bounds.grid(order)
        image = transform.image(points)
        diagnostics.extend(_check_injectivity(spec, points, image))
    diagnostics.extend(_check_causality(spec, transform))
    if image is not None:
        diagnostics.extend(_check_grid(spec, image, transform.space_dims))
    return diagnostics


def check_spec_annotations(
    spec: FunctionalSpec,
    sparsity: Optional[SparsityStructure] = None,
    balancing: Optional[LoadBalancingScheme] = None,
) -> List[Diagnostic]:
    """The annotation-reference subset of :func:`check_spec`: sparsity
    skips and load-balancing shifts must name iterators and tensors the
    functional spec actually has."""
    diagnostics: List[Diagnostic] = []
    diagnostics.extend(_check_sparsity(spec, sparsity))
    diagnostics.extend(_check_balancing(spec, balancing))
    return diagnostics


# ---------------------------------------------------------------------------
# Injectivity
# ---------------------------------------------------------------------------


def _check_injectivity(
    spec: FunctionalSpec, points: np.ndarray, image: np.ndarray
) -> List[Diagnostic]:
    """Two iteration points mapped to the same (space, time) coordinate
    would execute in the same PE at the same cycle.  Reports the first
    collision in point order: the earliest point whose image an earlier
    point already has, and the first point with that image."""
    order = lex_order(image)
    starts = run_starts(image[order])
    if starts.all():
        return []
    # Each run of equal images lists its points in point order (the sort
    # is stable), so a run's start is its first point.
    run_first = order[starts][np.cumsum(starts) - 1]
    later = np.flatnonzero(~starts)
    at = later[np.argmin(order[later])]
    point = tuple(points[order[at]].tolist())
    other = tuple(points[run_first[at]].tolist())
    mapped = tuple(image[order[at]].tolist())
    return [
        Diagnostic(
            "STL-SP-003",
            Severity.ERROR,
            "spec",
            f"transform is not injective: iterations {other} and"
            f" {point} both map to space-time {mapped}",
            location=spec.name,
            suggestion="use an invertible space-time matrix",
        )
    ]


# ---------------------------------------------------------------------------
# Causality
# ---------------------------------------------------------------------------


def _check_causality(
    spec: FunctionalSpec, transform: SpaceTimeTransform
) -> List[Diagnostic]:
    diagnostics: List[Diagnostic] = []
    for name, d in spec.difference_vectors().items():
        space = transform.displacement(d)[: transform.space_dims]
        dt = transform.time_delta(d)
        if dt < 0:
            diagnostics.append(
                Diagnostic(
                    "STL-SP-004",
                    Severity.ERROR,
                    "spec",
                    f"transform violates causality for {name!r}: time delta"
                    f" {dt} < 0 along difference vector {d}",
                    location=spec.name,
                    suggestion="flip the sign of the time row along this dependence",
                )
            )
        elif dt == 0 and any(space):
            diagnostics.append(
                Diagnostic(
                    "STL-SP-005",
                    Severity.WARNING,
                    "spec",
                    f"{name!r} moves {space} in space with zero time delta --"
                    " a combinational broadcast chain across PEs",
                    location=spec.name,
                    suggestion="add a time component to pipeline the path",
                )
            )
    return diagnostics


# ---------------------------------------------------------------------------
# PE grid vs transform image
# ---------------------------------------------------------------------------


def _check_grid(
    spec: FunctionalSpec, image: np.ndarray, space_dims: int
) -> List[Diagnostic]:
    diagnostics: List[Diagnostic] = []
    # The PE footprint's bounding box: each space column's extent.
    space = image[:, :space_dims]
    box = tuple(zip(space.min(axis=0).tolist(), space.max(axis=0).tolist()))
    if any(hi >= (1 << _COORD_BITS) for _, hi in box):
        diagnostics.append(
            Diagnostic(
                "STL-SP-006",
                Severity.ERROR,
                "spec",
                f"transform image spans PE coordinates {box} which overflow"
                f" the {_COORD_BITS}-bit coordinate ports of the array",
                location=spec.name,
                suggestion="tile the iteration space before mapping it",
            )
        )
    if any(lo < 0 for lo, _ in box):
        diagnostics.append(
            Diagnostic(
                "STL-SP-007",
                Severity.WARNING,
                "spec",
                f"transform image includes negative PE coordinates {box};"
                " the RTL backend folds them by absolute value",
                location=spec.name,
                suggestion="translate the space rows to a non-negative origin",
            )
        )
    return diagnostics


# ---------------------------------------------------------------------------
# Annotation references
# ---------------------------------------------------------------------------


def _check_sparsity(
    spec: FunctionalSpec, sparsity: Optional[SparsityStructure]
) -> List[Diagnostic]:
    diagnostics: List[Diagnostic] = []
    if sparsity is None:
        return diagnostics
    known_tensors = {
        t.name for t in (*spec.input_tensors(), *spec.output_tensors())
    }
    for skip in sparsity:
        for name in skip.skipped_names:
            if name not in spec.index_names:
                diagnostics.append(
                    Diagnostic(
                        "STL-SP-008",
                        Severity.ERROR,
                        "spec",
                        f"sparsity skip names unknown iterator {name!r};"
                        f" spec iterates {list(spec.index_names)}",
                        location=spec.name,
                    )
                )
        for name in skip.condition.free_indices():
            if name not in spec.index_names:
                diagnostics.append(
                    Diagnostic(
                        "STL-SP-008",
                        Severity.ERROR,
                        "spec",
                        f"skip condition references unknown iterator {name!r}",
                        location=spec.name,
                    )
                )
        for tensor in skip.condition_tensors():
            if tensor.name not in known_tensors:
                diagnostics.append(
                    Diagnostic(
                        "STL-SP-009",
                        Severity.ERROR,
                        "spec",
                        f"skip condition references unknown tensor"
                        f" {tensor.name!r}; spec has {sorted(known_tensors)}",
                        location=spec.name,
                    )
                )
    return diagnostics


def _check_balancing(
    spec: FunctionalSpec, balancing: Optional[LoadBalancingScheme]
) -> List[Diagnostic]:
    diagnostics: List[Diagnostic] = []
    if balancing is None:
        return diagnostics
    for shift in balancing:
        for name in (*shift.src, *shift.dst):
            if name not in spec.index_names:
                diagnostics.append(
                    Diagnostic(
                        "STL-SP-010",
                        Severity.ERROR,
                        "spec",
                        f"load-balancing shift references unknown iterator"
                        f" {name!r}; spec iterates {list(spec.index_names)}",
                        location=spec.name,
                    )
                )
    return diagnostics
