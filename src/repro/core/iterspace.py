"""The ``IterationSpace`` intermediate representation (paper Section IV-B).

The compiler's central IR mirrors Figure 9: an :class:`IterationSpace` is a
set of :class:`Point` s, each corresponding to one assignment of values to
the tensor iterators; :class:`Point2PointConn` s describing data
dependencies between points; and :class:`IOConn` s representing input or
output requests to external register files.  The IR evolves in three
stages:

1. *Functional* (Figure 9a) -- built purely from the functional spec; one
   point per iteration-domain element, connections along each variable's
   difference vector, IO connections at domain boundaries.
2. *Pruned* (Figure 9b) -- after sparsity and load-balancing analyses
   remove connections no longer guaranteed to carry useful values and
   replace them with IO connections (:mod:`repro.core.passes.prune`).
3. *Physical* (Figure 9c) -- after the space-time transform maps points to
   PEs; multiple iteration points that share space coordinates fold into a
   single PE with a time-varying role.  The :class:`PhysicalArray` is the
   hardware, not a third point graph: it keeps the PE positions,
   connections and port counts, and only counts of the points and IO
   requests it was mapped from.
"""

from __future__ import annotations

import enum
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from .dataflow import SpaceTimeTransform
from .expr import Bounds, SpecError
from .functionality import Assignment, AssignmentKind, FunctionalSpec


class IODirection(enum.Enum):
    INPUT = "input"
    OUTPUT = "output"


class Point:
    """One element of the tensor iteration space."""

    __slots__ = ("coords",)

    def __init__(self, coords: Sequence[int]):
        self.coords = tuple(coords)

    def __eq__(self, other) -> bool:
        return isinstance(other, Point) and self.coords == other.coords

    def __hash__(self) -> int:
        return hash(self.coords)

    def __repr__(self) -> str:
        return f"Point{self.coords}"


class Point2PointConn:
    """A data dependency between two iteration points for one variable."""

    __slots__ = ("variable", "src", "dst", "bundle")

    def __init__(self, variable: str, src: Point, dst: Point, bundle: int = 1):
        self.variable = variable
        self.src = src
        self.dst = dst
        self.bundle = bundle  # >1 for OptimisticSkip widened connections

    def offset(self) -> Tuple[int, ...]:
        return tuple(d - s for s, d in zip(self.src.coords, self.dst.coords))

    def __repr__(self) -> str:
        wide = f" x{self.bundle}" if self.bundle > 1 else ""
        return f"P2P({self.variable}: {self.src!r} -> {self.dst!r}{wide})"


class IOConn:
    """An input- or output-request to an external register file."""

    __slots__ = ("variable", "point", "direction", "tensor")

    def __init__(
        self,
        variable: str,
        point: Point,
        direction: IODirection,
        tensor: Optional[str] = None,
    ):
        self.variable = variable
        self.point = point
        self.direction = direction
        self.tensor = tensor

    def __repr__(self) -> str:
        arrow = "<-" if self.direction is IODirection.INPUT else "->"
        target = self.tensor or "regfile"
        return f"IO({self.variable} @ {self.point!r} {arrow} {target})"


class IterationSpace:
    """The compiler IR: points, connections, IO requests (Figure 9)."""

    def __init__(
        self,
        spec: FunctionalSpec,
        bounds: Bounds,
        points: Iterable[Point],
        p2p_conns: Iterable[Point2PointConn],
        io_conns: Iterable[IOConn],
    ):
        self.spec = spec
        self.bounds = bounds
        self.points: List[Point] = list(points)
        self.p2p_conns: List[Point2PointConn] = list(p2p_conns)
        self.io_conns: List[IOConn] = list(io_conns)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def conns_for(self, variable: str) -> List[Point2PointConn]:
        return [c for c in self.p2p_conns if c.variable == variable]

    def io_for(self, variable: str) -> List[IOConn]:
        return [c for c in self.io_conns if c.variable == variable]

    def connected_variables(self) -> FrozenSet[str]:
        return frozenset(c.variable for c in self.p2p_conns)

    def conn_count(self) -> int:
        return len(self.p2p_conns)

    # ------------------------------------------------------------------
    # Rewrites
    # ------------------------------------------------------------------

    def without_conns(
        self, variables: Iterable[str], replace_with_io: bool = True
    ) -> "IterationSpace":
        """Remove every connection of the given variables, optionally
        replacing each removed connection with regfile IO at its endpoints
        (the Figure 2a -> Figure 4 rewrite)."""
        doomed = set(variables)
        kept = [c for c in self.p2p_conns if c.variable not in doomed]
        new_io = list(self.io_conns)
        if replace_with_io:
            existing = {
                (c.variable, c.point, c.direction) for c in self.io_conns
            }
            for conn in self.p2p_conns:
                if conn.variable not in doomed:
                    continue
                for point, direction in (
                    (conn.dst, IODirection.INPUT),
                    (conn.src, IODirection.OUTPUT),
                ):
                    key = (conn.variable, point, direction)
                    if key not in existing:
                        existing.add(key)
                        new_io.append(IOConn(conn.variable, point, direction))
        return IterationSpace(self.spec, self.bounds, self.points, kept, new_io)

    def widened(self, variable: str, bundle: int) -> "IterationSpace":
        """Widen a variable's connections to carry value bundles
        (OptimisticSkip, Figure 5)."""
        conns = [
            Point2PointConn(c.variable, c.src, c.dst, bundle)
            if c.variable == variable
            else c
            for c in self.p2p_conns
        ]
        return IterationSpace(self.spec, self.bounds, self.points, conns, self.io_conns)


def elaborate(spec: FunctionalSpec, bounds: Bounds) -> IterationSpace:
    """Build the functional-stage IR of Figure 9a.

    One point per element of the iteration domain; per-variable connections
    along the variable's difference vector; IO connections where boundary
    assignments load inputs or store outputs.
    """
    order = spec.index_names
    for name in order:
        if name not in bounds:
            raise SpecError(f"bounds missing index {name!r}")

    points = [Point(coords) for coords in bounds.domain(order)]
    point_set = set(points)

    p2p: List[Point2PointConn] = []
    for variable, d in spec.difference_vectors().items():
        if all(v == 0 for v in d):
            continue
        for point in points:
            src = Point(tuple(c - delta for c, delta in zip(point.coords, d)))
            if src in point_set:
                p2p.append(Point2PointConn(variable, src, point))

    io: List[IOConn] = []
    for assignment in spec.assignments:
        if assignment.kind is AssignmentKind.INPUT:
            tensor = next(
                (
                    access.target.name
                    for access in assignment.rhs.references()
                    if access.target.name not in {v.name for v in spec.locals()}
                ),
                None,
            )
            for point in _boundary_points(assignment, spec, bounds, points):
                io.append(
                    IOConn(assignment.variable.name, point, IODirection.INPUT, tensor)
                )
        elif assignment.kind is AssignmentKind.OUTPUT:
            source_locals = {
                access.target.name
                for access in assignment.rhs.references()
            }
            for point in _output_points(assignment, spec, bounds, points):
                for local_name in source_locals:
                    io.append(
                        IOConn(
                            local_name,
                            point,
                            IODirection.OUTPUT,
                            assignment.lhs.target.name,
                        )
                    )

    return IterationSpace(spec, bounds, points, p2p, io)


def _boundary_points(
    assignment: Assignment,
    spec: FunctionalSpec,
    bounds: Bounds,
    points: Sequence[Point],
) -> Iterable[Point]:
    conditions = assignment.boundary_conditions()
    targets = {}
    for name, which in conditions.items():
        lo, hi = bounds[name]
        targets[spec.index_names.index(name)] = lo if which == "lb" else hi
    for point in points:
        if all(point.coords[axis] == val for axis, val in targets.items()):
            yield point


def _output_points(
    assignment: Assignment,
    spec: FunctionalSpec,
    bounds: Bounds,
    points: Sequence[Point],
) -> Iterable[Point]:
    # Outputs fire where the RHS's bound markers hold (e.g. k == k.upperBound).
    from .expr import BoundMarker

    targets = {}
    for access in assignment.rhs.references():
        for sub in access.subscripts:
            if isinstance(sub, BoundMarker):
                lo, hi = bounds[sub.index.name]
                targets[spec.index_names.index(sub.index.name)] = (
                    lo if sub.which == "lb" else hi
                )
    for point in points:
        if all(point.coords[axis] == val for axis, val in targets.items()):
            yield point


# ---------------------------------------------------------------------------
# Physical (post-transform) representation
# ---------------------------------------------------------------------------


class PhysicalConn:
    """A PE-to-PE connection in physical space: offset and register depth."""

    __slots__ = ("variable", "space_offset", "time_offset", "bundle")

    def __init__(
        self,
        variable: str,
        space_offset: Tuple[int, ...],
        time_offset: int,
        bundle: int = 1,
    ):
        self.variable = variable
        self.space_offset = space_offset
        self.time_offset = time_offset
        self.bundle = bundle

    @property
    def is_broadcast(self) -> bool:
        """Zero time offset with nonzero space offset: a combinational chain."""
        return self.time_offset == 0 and any(self.space_offset)

    @property
    def is_stationary(self) -> bool:
        return not any(self.space_offset)

    def __repr__(self) -> str:
        return (
            f"PhysicalConn({self.variable}, dspace={self.space_offset},"
            f" dt={self.time_offset}, bundle={self.bundle})"
        )


class PhysicalArray:
    """The physical-stage IR of Figure 9c: the hardware the backends build.

    It holds the PE positions (sorted), the uniform PE-to-PE connections,
    the regfile ports per variable and the schedule length, plus two
    counts taken from the pruned space it was mapped from: its iteration
    points and its ``(inputs, outputs)`` IO requests.  The points
    themselves are not kept.
    """

    def __init__(
        self,
        positions: List[Tuple[int, ...]],
        point_count: int,
        conns: List[PhysicalConn],
        io_ports: Dict[str, int],
        io_counts: Tuple[int, int],
        schedule_length: int,
    ):
        self._positions = positions
        self.point_count = point_count
        self.conns = conns
        self.io_ports = io_ports  # variable -> number of regfile ports needed
        self.io_counts = io_counts  # (inputs, outputs): regfile reads, writes
        self.schedule_length = schedule_length

    @property
    def pe_count(self) -> int:
        return len(self._positions)

    def positions(self) -> List[Tuple[int, ...]]:
        return list(self._positions)

    def conns_for(self, variable: str) -> List[PhysicalConn]:
        return [c for c in self.conns if c.variable == variable]

    def total_wire_length(self) -> int:
        """Manhattan wire length summed over all PE-to-PE connections --
        the congestion proxy used when comparing dataflows (Section I)."""
        per_pe = sum(
            sum(abs(v) for v in conn.space_offset)
            for conn in self.conns
            if not conn.is_stationary
        )
        return per_pe * self.pe_count

    def utilization_bound(self) -> float:
        """Fraction of PE-timesteps holding real work (dense upper bound)."""
        total_slots = self.pe_count * self.schedule_length
        return self.point_count / total_slots if total_slots else 0.0


def apply_transform(
    iterspace: IterationSpace, transform: SpaceTimeTransform
) -> PhysicalArray:
    """Map a (pruned) IterationSpace through a space-time transform,
    producing the physical array of Figure 9c."""
    if transform.rank != len(iterspace.spec.index_names):
        raise SpecError(
            f"transform rank {transform.rank} does not match spec indices"
            f" {iterspace.spec.index_names}"
        )

    positions: Set[Tuple[int, ...]] = set()
    times: List[int] = []
    for point in iterspace.points:
        st = transform.apply(point.coords)
        positions.add(st[: transform.space_dims])
        times.append(st[transform.space_dims])

    # Uniform connections: every variable's connections share one offset by
    # construction (difference vectors are constant), so deduplicate before
    # mapping -- an invertible T keeps distinct offsets distinct.
    seen: Dict[Tuple[str, Tuple[int, ...], int], PhysicalConn] = {}
    for conn in iterspace.p2p_conns:
        offset = conn.offset()
        key = (conn.variable, offset, conn.bundle)
        if key in seen:
            continue
        dt = transform.time_delta(offset)
        if dt < 0:
            raise SpecError(
                f"transform violates causality for {conn.variable!r}"
                f" (time delta {dt})"
            )
        disp = transform.apply(offset)
        seen[key] = PhysicalConn(
            conn.variable,
            disp[: transform.space_dims],
            disp[transform.space_dims],
            conn.bundle,
        )

    io_ports: Dict[str, int] = {}
    io_sites: Set[Tuple[str, Tuple[int, ...]]] = set()
    inputs = 0
    for io in iterspace.io_conns:
        space = transform.space(io.point.coords)
        if (io.variable, space) not in io_sites:
            io_sites.add((io.variable, space))
            io_ports[io.variable] = io_ports.get(io.variable, 0) + 1
        inputs += io.direction is IODirection.INPUT

    schedule_length = (max(times) - min(times) + 1) if times else 0
    return PhysicalArray(
        sorted(positions),
        len(iterspace.points),
        list(seen.values()),
        io_ports,
        (inputs, len(iterspace.io_conns) - inputs),
        schedule_length,
    )
