"""Register-file optimization ladder (paper Section IV-D, Figure 14).

The baseline Stellar register file is a fully-associative crossbar: every
input and output port can reach every entry, and outputs search the
coordinates of all entries.  That worst-case fallback supports arbitrary
indirect accesses, but most accelerators never need it.  The compiler runs
a ladder of checks -- from most to least efficient -- and picks the first
regfile variant whose access pattern can be *proven* at elaboration time:

1. ``FEEDFORWARD`` (Figure 14c): inputs enter in exactly the order outputs
   leave; a simple array of shift registers.
2. ``TRANSPOSING`` (Figure 14d): the output order is the coordinate
   transpose of the input order; entry/exit edges are chosen to realize
   the layout transform in the wiring.
3. ``EDGE`` (Figure 14b): orders differ but every access can be confined
   to regfile edges (any causal permutation of a known order).
4. ``CROSSBAR`` (Figure 14a): the baseline fallback for data-dependent
   access patterns.

Producer orders come from memory buffers with hardcoded read parameters
(Listing 6 / Figure 13a); consumer orders come from the spatial array's
IO requests under its space-time transform (Figure 13b).
"""

from __future__ import annotations

import enum
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ...obs.trace import get_tracer
from ..dataflow import SpaceTimeTransform, lex_order, run_starts
from ..iterspace import IODirection, IterationSpace


class RegfileKind(enum.Enum):
    """The four regfile variants of Figure 14, cheapest first."""

    FEEDFORWARD = "feedforward"
    TRANSPOSING = "transposing"
    EDGE = "edge"
    CROSSBAR = "crossbar"

    @property
    def relative_cost(self) -> int:
        return {
            RegfileKind.FEEDFORWARD: 1,
            RegfileKind.TRANSPOSING: 2,
            RegfileKind.EDGE: 3,
            RegfileKind.CROSSBAR: 8,
        }[self]


class RegfilePlan:
    """The chosen regfile for one variable: kind, depth, and port counts."""

    def __init__(
        self,
        variable: str,
        kind: RegfileKind,
        entries: int,
        in_ports: int,
        out_ports: int,
        element_bits: int = 32,
        reason: str = "",
    ):
        self.variable = variable
        self.kind = kind
        self.entries = entries
        self.in_ports = in_ports
        self.out_ports = out_ports
        self.element_bits = element_bits
        self.reason = reason

    def search_width(self) -> int:
        """How many entries each output port must observe (Figure 14):
        1 for feedforward, an edge's worth for edge/transposing designs,
        every entry for the crossbar baseline."""
        if self.kind is RegfileKind.FEEDFORWARD:
            return 1
        if self.kind in (RegfileKind.TRANSPOSING, RegfileKind.EDGE):
            return max(1, int(round(self.entries ** 0.5)))
        return self.entries

    def __repr__(self) -> str:
        return (
            f"RegfilePlan({self.variable!r}, {self.kind.value}, entries={self.entries},"
            f" ports={self.in_ports}/{self.out_ports})"
        )


def consumption_order(
    iterspace: IterationSpace,
    transform: SpaceTimeTransform,
    variable: str,
    direction: IODirection = IODirection.INPUT,
) -> Optional[List[Tuple[int, ...]]]:
    """The order in which a spatial array consumes (or produces) a
    variable's elements, derived from its IO requests under the transform.

    Elements are identified by their dependence-set coordinates (e.g. B's
    elements by ``(k, j)``); each element counts once, at its first
    request, and the order is by time step, then by physical position,
    reproducing Figure 13b (an invertible transform gives every point its
    own pair, so the order is total).  Returns None when the variable's
    element identity cannot be statically determined (data-dependent
    specs).
    """
    spec = iterspace.spec
    if spec.has_data_dependent_accesses():
        return None
    subscripts = _element_subscripts(spec, variable, direction)
    if subscripts is None:
        return None

    io = iterspace.io
    points = iterspace.points[io.point[io.rows(variable, direction)]]
    if not len(points):
        return None
    env = {name: points[:, axis] for axis, name in enumerate(spec.index_names)}
    elements = np.empty((len(points), len(subscripts)), dtype=np.int64)
    for column, sub in enumerate(subscripts):
        elements[:, column] = sub.evaluate(env, iterspace.bounds)
    by_element = lex_order(elements)
    first = by_element[run_starts(elements[by_element])]
    image = transform.image(points[first])
    space_dims = transform.space_dims
    # Full time tuple (lexicographic) first, then the position.
    keys = np.concatenate([image[:, space_dims:], image[:, :space_dims]], axis=1)
    return [tuple(e) for e in elements[first[lex_order(keys)]].tolist()]


def _element_subscripts(spec, variable: str, direction: IODirection):
    """The tensor-coordinate subscripts identifying a variable's elements.

    Elements are named by the coordinates of their backing tensor access
    (B's elements are ``(k, j)`` from ``B(k, j)``), so regfile orders are
    directly comparable with memory-buffer emission orders (Figure 13).
    """
    from ..functionality import AssignmentKind

    if direction is IODirection.INPUT:
        for assignment in spec.assignments_for(variable):
            if assignment.kind is AssignmentKind.INPUT:
                for access in assignment.rhs.references():
                    if access.target.name not in {v.name for v in spec.locals()}:
                        return access.subscripts
    else:
        for assignment in spec.assignments:
            if assignment.kind is AssignmentKind.OUTPUT and any(
                r.target.name == variable for r in assignment.rhs.references()
            ):
                return assignment.lhs.subscripts
    # Fall back to the dependence-set projection.
    dep = sorted(
        spec.dependence_set(variable), key=lambda name: spec.index_names.index(name)
    )
    if not dep:
        return None
    from ..expr import Index

    return tuple(Index(name) for name in dep)


def _transpose_order(order: Sequence[Tuple[int, ...]]) -> List[Tuple[int, ...]]:
    return [tuple(reversed(element)) for element in order]


def choose_regfile(
    variable: str,
    producer_order: Optional[Sequence[Tuple[int, ...]]],
    consumer_order: Optional[Sequence[Tuple[int, ...]]],
    entries: Optional[int] = None,
    in_ports: int = 1,
    out_ports: int = 1,
    element_bits: int = 32,
    data_dependent: bool = False,
) -> RegfilePlan:
    """Run the optimization ladder of Section IV-D for one variable."""
    count = entries
    if count is None:
        count = len(consumer_order or producer_order or []) or 16

    def plan(kind: RegfileKind, reason: str) -> RegfilePlan:
        tracer = get_tracer()
        if tracer.enabled:
            tracer.instant(
                "choose_regfile", component="compiler.passes",
                variable=variable, kind=kind.value, entries=count,
                reason=reason,
            )
        return RegfilePlan(
            variable, kind, count, in_ports, out_ports, element_bits, reason
        )

    if data_dependent:
        return plan(
            RegfileKind.CROSSBAR,
            "data-dependent access pattern; baseline fallback (Figure 14a)",
        )
    if producer_order is None or consumer_order is None:
        return plan(
            RegfileKind.CROSSBAR,
            "access order not provable at elaboration time; baseline fallback",
        )

    producer = list(producer_order)
    consumer = list(consumer_order)
    if producer == consumer:
        return plan(
            RegfileKind.FEEDFORWARD,
            "inputs enter in the exact order outputs exit (Figure 14c)",
        )
    if _transpose_order(producer) == consumer:
        return plan(
            RegfileKind.TRANSPOSING,
            "consumption order is the coordinate transpose of the fill order"
            " (Figure 14d)",
        )
    if sorted(producer) == sorted(consumer):
        return plan(
            RegfileKind.EDGE,
            "orders differ but cover the same elements; edge-only access"
            " suffices (Figure 14b)",
        )
    return plan(
        RegfileKind.CROSSBAR,
        "producer and consumer element sets differ; baseline fallback",
    )
