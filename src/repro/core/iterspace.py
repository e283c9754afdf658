"""The ``IterationSpace`` intermediate representation (paper Section IV-B).

The compiler's central IR mirrors Figure 9 -- iteration points, the data
dependencies between them, and input or output requests to external
register files -- stored as columns over one domain grid, so that every
compiler stage is an array operation:

* the points are one ``(N, rank)`` int64 array, one row per assignment of
  values to the tensor iterators, in lexicographic order (at elaboration,
  exactly :meth:`Bounds.grid <repro.core.expr.Bounds.grid>`);
* each variable's point-to-point connections are two row-index arrays
  ``(src, dst)`` into the points, plus the one offset (its difference
  vector) and bundle width they all share (:class:`VariableConns`);
* the IO requests are columns, one row per request in request order:
  the point's row index, the direction, the variable and the tensor
  (:class:`IORequests`).

The IR evolves in three stages:

1. *Functional* (Figure 9a) -- built purely from the functional spec by
   :func:`elaborate`: the whole grid; each variable's connections are the
   grid shifted by its difference vector and masked to the bounds; IO
   requests sit where column masks pick out the boundary planes on which
   assignments load inputs or store outputs.
2. *Pruned* (Figure 9b) -- after sparsity and load-balancing analyses
   remove connections no longer guaranteed to carry useful values and
   replace them with IO requests (:mod:`repro.core.passes.prune`).  A
   rewrite re-indexes the columns; the points array is shared or masked,
   never rebuilt point by point.
3. *Physical* (Figure 9c) -- after the space-time transform maps points to
   PEs with one product ``points @ T.T`` (:func:`apply_transform`);
   multiple iteration points that share space coordinates fold into a
   single PE with a time-varying role.  The :class:`PhysicalArray` is the
   hardware, not a third iteration space: it keeps the PE positions,
   connections and port counts, and only counts of the points and IO
   requests it was mapped from.  Every value on it is a plain Python int.
"""

from __future__ import annotations

import enum
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .dataflow import SpaceTimeTransform, distinct_rows
from .expr import BoundMarker, Bounds, SpecError
from .functionality import AssignmentKind, FunctionalSpec


class IODirection(enum.Enum):
    INPUT = "input"
    OUTPUT = "output"


class VariableConns:
    """One variable's point-to-point connections.

    Every connection of a variable runs along its difference vector, so
    connection ``n`` is the row pair ``src[n] -> dst[n]`` into the space's
    points, and all of them share ``offset`` (``dst - src``) and
    ``bundle`` (>1 for OptimisticSkip widened connections, Figure 5).
    """

    __slots__ = ("offset", "bundle", "src", "dst")

    def __init__(
        self,
        offset: Sequence[int],
        src: np.ndarray,
        dst: np.ndarray,
        bundle: int = 1,
    ):
        self.offset = tuple(offset)
        self.src = src
        self.dst = dst
        self.bundle = bundle

    def __len__(self) -> int:
        return len(self.dst)


class IORequests:
    """Requests to external register files, as columns in request order.

    Row ``n`` is a request of variable ``variable[n]`` at point row
    ``point[n]``, an input when ``is_input[n]``; ``tensor[n]`` names the
    backing tensor, or is None for a request to the variable's own
    regfile (one that pruning added).  The name columns are object arrays
    holding the spec's own ``str`` objects, so every name the compiler
    reads back from them is the object the spec holds.
    """

    __slots__ = ("point", "is_input", "variable", "tensor")

    def __init__(
        self,
        point: np.ndarray,
        is_input: np.ndarray,
        variable: np.ndarray,
        tensor: np.ndarray,
    ):
        self.point = point
        self.is_input = is_input
        self.variable = variable
        self.tensor = tensor

    @classmethod
    def concat(cls, parts: Sequence["IORequests"]) -> "IORequests":
        if not parts:
            return cls(
                np.zeros(0, dtype=np.int64),
                np.zeros(0, dtype=bool),
                np.zeros(0, dtype=object),
                np.zeros(0, dtype=object),
            )
        return cls(*(
            np.concatenate([getattr(part, column) for part in parts])
            for column in cls.__slots__
        ))

    def __len__(self) -> int:
        return len(self.point)

    def variables(self) -> List[str]:
        """The variables with requests, in order of their first request."""
        _, first = np.unique(self.variable, return_index=True)
        return [self.variable[i] for i in np.sort(first)]

    def rows(
        self, variable: str, direction: Optional[IODirection] = None
    ) -> np.ndarray:
        """The indices of ``variable``'s requests (in ``direction`` only,
        when given), in request order."""
        mask = self.variable == variable
        if direction is not None:
            mask &= self.is_input == (direction is IODirection.INPUT)
        return np.flatnonzero(mask)

    def tensor_of(self, rows: np.ndarray) -> Optional[str]:
        """The tensor of the first of ``rows`` that names one."""
        return next((t for t in self.tensor[rows] if t), None)


class IterationSpace:
    """The compiler IR: points, connections, IO requests (Figure 9).

    ``conns`` maps each variable with at least one connection to its
    :class:`VariableConns`, in the spec's difference-vector order.
    Instances are never mutated; rewrites return new spaces that share
    the columns they do not change.
    """

    def __init__(
        self,
        spec: FunctionalSpec,
        bounds: Bounds,
        points: np.ndarray,
        conns: Mapping[str, VariableConns],
        io: IORequests,
    ):
        self.spec = spec
        self.bounds = bounds
        self.points = points
        self.conns: Dict[str, VariableConns] = dict(conns)
        self.io = io

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def connected_variables(self) -> FrozenSet[str]:
        return frozenset(self.conns)

    def conn_count(self) -> int:
        return sum(len(conns) for conns in self.conns.values())

    # ------------------------------------------------------------------
    # Rewrites
    # ------------------------------------------------------------------

    def without_conns(
        self, variables: Iterable[str], replace_with_io: bool = True
    ) -> "IterationSpace":
        """Remove every connection of the given variables, optionally
        replacing each removed connection with regfile IO at its endpoints
        (the Figure 2a -> Figure 4 rewrite): an input at its destination
        and an output at its source, each added once per point."""
        doomed = set(variables)
        kept = {v: c for v, c in self.conns.items() if v not in doomed}
        parts = [self.io]
        if replace_with_io:
            for variable, conns in self.conns.items():
                if variable in doomed:
                    parts.append(self._endpoint_io(variable, conns))
        return IterationSpace(
            self.spec, self.bounds, self.points, kept, IORequests.concat(parts)
        )

    def _endpoint_io(self, variable: str, conns: VariableConns) -> IORequests:
        # Connection by connection: (dst, input), then (src, output).
        point = np.stack([conns.dst, conns.src], axis=1).reshape(-1)
        is_input = np.tile([True, False], len(conns))
        keys = point * 2 + is_input
        _, first = np.unique(keys, return_index=True)
        first.sort()
        existing = self.io.rows(variable)
        taken = self.io.point[existing] * 2 + self.io.is_input[existing]
        first = first[~np.isin(keys[first], taken)]
        return IORequests(
            point[first],
            is_input[first],
            _repeated(variable, len(first)),
            _repeated(None, len(first)),
        )

    def widened(self, variable: str, bundle: int) -> "IterationSpace":
        """Widen a variable's connections to carry value bundles
        (OptimisticSkip, Figure 5)."""
        conns = dict(self.conns)
        if variable in conns:
            old = conns[variable]
            conns[variable] = VariableConns(old.offset, old.src, old.dst, bundle)
        return IterationSpace(self.spec, self.bounds, self.points, conns, self.io)

    def restricted(self, keep: np.ndarray) -> "IterationSpace":
        """The space on the points where the bool mask ``keep`` holds:
        connections with both endpoints kept and requests at kept points
        survive, re-indexed to the kept rows."""
        row_of = np.cumsum(keep) - 1
        conns = {}
        for variable, old in self.conns.items():
            both = keep[old.src] & keep[old.dst]
            if both.any():
                conns[variable] = VariableConns(
                    old.offset, row_of[old.src[both]], row_of[old.dst[both]],
                    old.bundle,
                )
        io = self.io
        rows = np.flatnonzero(keep[io.point])
        io = IORequests(
            row_of[io.point[rows]], io.is_input[rows], io.variable[rows],
            io.tensor[rows],
        )
        return IterationSpace(self.spec, self.bounds, self.points[keep], conns, io)


def elaborate(spec: FunctionalSpec, bounds: Bounds) -> IterationSpace:
    """Build the functional-stage IR of Figure 9a.

    One point per element of the iteration domain; per-variable connections
    along the variable's difference vector; IO requests where boundary
    assignments load inputs or store outputs.
    """
    order = spec.index_names
    for name in order:
        if name not in bounds:
            raise SpecError(f"bounds missing index {name!r}")

    points = bounds.grid(order)
    lows = np.array([bounds[name][0] for name in order], dtype=np.int64)
    highs = np.array([bounds[name][1] for name in order], dtype=np.int64)
    # Row-major strides: the row of a point is ``(point - lows) @ strides``.
    sizes = highs - lows + 1
    strides = np.ones(len(order), dtype=np.int64)
    for axis in range(len(order) - 2, -1, -1):
        strides[axis] = strides[axis + 1] * sizes[axis + 1]

    conns: Dict[str, VariableConns] = {}
    for variable, d in spec.difference_vectors().items():
        if all(v == 0 for v in d):
            continue
        delta = np.array(d, dtype=np.int64)
        src = points - delta
        dst = np.flatnonzero(((src >= lows) & (src <= highs)).all(axis=1))
        if len(dst):
            conns[variable] = VariableConns(d, dst - int(delta @ strides), dst)

    local_names = {v.name for v in spec.locals()}
    parts: List[IORequests] = []
    for assignment in spec.assignments:
        if assignment.kind is AssignmentKind.INPUT:
            tensor = next(
                (
                    access.target.name
                    for access in assignment.rhs.references()
                    if access.target.name not in local_names
                ),
                None,
            )
            rows = _plane_rows(
                points, order, bounds, assignment.boundary_conditions().items()
            )
            parts.append(IORequests(
                rows,
                np.ones(len(rows), dtype=bool),
                _repeated(assignment.variable.name, len(rows)),
                _repeated(tensor, len(rows)),
            ))
        elif assignment.kind is AssignmentKind.OUTPUT:
            # Requests run point by point, each point's locals in the
            # set's iteration order.
            source_locals = list({
                access.target.name for access in assignment.rhs.references()
            })
            # Outputs fire where the RHS's bound markers hold (e.g.
            # k == k.upperBound).
            rows = _plane_rows(points, order, bounds, [
                (sub.index.name, sub.which)
                for access in assignment.rhs.references()
                for sub in access.subscripts
                if isinstance(sub, BoundMarker)
            ])
            parts.append(IORequests(
                np.repeat(rows, len(source_locals)),
                np.zeros(len(rows) * len(source_locals), dtype=bool),
                np.tile(np.array(source_locals, dtype=object), len(rows)),
                _repeated(
                    assignment.lhs.target.name, len(rows) * len(source_locals)
                ),
            ))

    return IterationSpace(spec, bounds, points, conns, IORequests.concat(parts))


def _repeated(name: Optional[str], count: int) -> np.ndarray:
    """An object column holding ``name`` itself ``count`` times.  ``np.full``
    would store converted copies; names read back from the columns reach
    the compiled design, and its pickle writes one shared string once but
    each equal copy in full."""
    column = np.empty(count, dtype=object)
    column.fill(name)
    return column


def _plane_rows(
    points: np.ndarray,
    order: Sequence[str],
    bounds: Bounds,
    markers: Iterable[Tuple[str, str]],
) -> np.ndarray:
    """The rows of ``points`` on the boundary plane the ``(index, "lb" |
    "ub")`` markers pin (a later marker of one index wins)."""
    targets = {}
    for name, which in markers:
        lo, hi = bounds[name]
        targets[order.index(name)] = lo if which == "lb" else hi
    mask = np.ones(len(points), dtype=bool)
    for axis, value in targets.items():
        mask &= points[:, axis] == value
    return np.flatnonzero(mask)


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

    space_dims = transform.space_dims
    image = transform.image(iterspace.points)
    positions = [tuple(p) for p in distinct_rows(image[:, :space_dims]).tolist()]
    times = image[:, space_dims]
    schedule_length = int(times.max() - times.min() + 1) if len(times) else 0

    # Uniform connections: all of a variable's connections share one
    # offset, and an invertible T keeps distinct offsets distinct, so each
    # connected variable maps to one physical connection.
    conns: List[PhysicalConn] = []
    for variable, variable_conns in iterspace.conns.items():
        offset = variable_conns.offset
        dt = transform.time_delta(offset)
        if dt < 0:
            raise SpecError(
                f"transform violates causality for {variable!r}"
                f" (time delta {dt})"
            )
        disp = transform.apply(offset)
        conns.append(PhysicalConn(
            variable, disp[:space_dims], disp[space_dims], variable_conns.bundle
        ))

    # One regfile port per distinct PE position a variable's requests reach.
    io = iterspace.io
    sites = image[io.point, :space_dims]
    io_ports = {
        variable: len(distinct_rows(sites[io.rows(variable)]))
        for variable in io.variables()
    }
    inputs = int(io.is_input.sum())
    return PhysicalArray(
        positions,
        len(iterspace.points),
        conns,
        io_ports,
        (inputs, len(io) - inputs),
        schedule_length,
    )
