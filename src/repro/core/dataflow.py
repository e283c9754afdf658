"""Dataflow specifications: space-time transforms (paper Section III-B).

A dataflow in Stellar is a linear transformation ``T`` -- an invertible
integer matrix -- from the tensor iteration space to physical space and
time coordinates on a spatial array (Equation 1)::

    T . (i, j, k)^T = (x, y, t)^T

Changing numerical values in ``T`` produces input-stationary,
output-stationary, weight-stationary or hexagonal arrays (Figure 2), and
scaling the *time row* controls how aggressively the array is pipelined
(Figure 3): a variable with iteration-space difference vector ``d`` moves
through the array with space-time displacement ``T . d``, whose time
component is the number of pipeline registers on that path.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .expr import Bounds, SpecError, exact_inverse
from .functionality import FunctionalSpec


class SpaceTimeTransform:
    """An invertible integer space-time transform.

    The last row is the *time* row; the preceding ``space_dims`` rows map
    iteration points to physical PE coordinates.
    """

    def __init__(self, matrix: Sequence[Sequence[int]], space_dims: Optional[int] = None):
        rows = [tuple(int(v) for v in row) for row in matrix]
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise SpecError("space-time transform must be a square matrix")
        self.matrix: Tuple[Tuple[int, ...], ...] = tuple(rows)
        self.rank = n
        self.space_dims = n - 1 if space_dims is None else space_dims
        if not (0 < self.space_dims < n + 1):
            raise SpecError("space_dims must be between 1 and the matrix rank")
        self.time_dims = n - self.space_dims
        if self.time_dims < 1:
            raise SpecError("at least one time dimension is required")
        self._inverse = exact_inverse(rows)  # raises if singular

    # ------------------------------------------------------------------
    # Mapping
    # ------------------------------------------------------------------

    def apply(self, point: Sequence[int]) -> Tuple[int, ...]:
        """Map an iteration-space point to ``(x..., t...)``."""
        if len(point) != self.rank:
            raise SpecError(
                f"point has {len(point)} coordinates, transform expects {self.rank}"
            )
        return tuple(
            sum(c * p for c, p in zip(row, point)) for row in self.matrix
        )

    def space(self, point: Sequence[int]) -> Tuple[int, ...]:
        return self.apply(point)[: self.space_dims]

    def time(self, point: Sequence[int]) -> Tuple[int, ...]:
        return self.apply(point)[self.space_dims:]

    def unapply(self, spacetime: Sequence[int]) -> Optional[Tuple[int, ...]]:
        """Recover the iteration point for a space-time coordinate.

        This is the computation each PE's "IO Request Generator" performs at
        runtime with ``T^-1`` (Figure 11).  Returns None when the space-time
        coordinate does not correspond to an integer iteration point.
        """
        if len(spacetime) != self.rank:
            raise SpecError("space-time vector has the wrong rank")
        values: List[int] = []
        for row in self._inverse:
            acc = sum(c * s for c, s in zip(row, spacetime))
            if isinstance(acc, Fraction):
                if acc.denominator != 1:
                    return None
                acc = int(acc)
            values.append(int(acc))
        return tuple(values)

    def integer_inverse(self) -> Tuple[Tuple[Tuple[int, ...], ...], int]:
        """``T^-1`` as ``(numerators, denominator)`` with integer entries.

        ``unapply(st)`` equals ``(numerators @ st) / denominator`` and is an
        integer point exactly when every product is divisible by the
        denominator -- the form batch evaluation over a whole domain needs,
        since it avoids per-point :class:`~fractions.Fraction` arithmetic.
        """
        denominator = 1
        for row in self._inverse:
            for value in row:
                if isinstance(value, Fraction):
                    denominator = denominator * value.denominator // gcd(
                        denominator, value.denominator
                    )
        numerators = tuple(
            tuple(int(value * denominator) for value in row)
            for row in self._inverse
        )
        return numerators, denominator

    # ------------------------------------------------------------------
    # Derived properties
    # ------------------------------------------------------------------

    def displacement(self, difference_vector: Sequence[int]) -> Tuple[int, ...]:
        """Space-time displacement ``T . d`` of a difference vector.

        E.g. the input-stationary transform maps the partial-sum vector
        ``(0, 0, 1)`` to ``(dx=1, dy=0, dt=1)``: sums travel vertically down
        the array, one pipeline stage per hop (Section IV-B).
        """
        return self.apply(difference_vector)

    def time_delta(self, difference_vector: Sequence[int]) -> int:
        """The leading nonzero time component of ``T . d``, or 0.

        Timesteps order lexicographically over the time rows, so a
        dependence runs forward exactly when this is positive, backward
        when it is negative, and is a same-cycle (broadcast) hop when it
        is 0.  A second time row can run a dependence backwards even
        when the first row holds it still.
        """
        for delta in self.displacement(difference_vector)[self.space_dims:]:
            if delta:
                return delta
        return 0

    def pipeline_depth(self, difference_vector: Sequence[int]) -> int:
        """Number of pipeline registers along a variable's path (Figure 3)."""
        return sum(abs(v) for v in self.displacement(difference_vector)[self.space_dims:])

    def is_stationary(self, difference_vector: Sequence[int]) -> bool:
        """True when the variable never moves between PEs (zero space delta)."""
        disp = self.displacement(difference_vector)
        return all(v == 0 for v in disp[: self.space_dims])

    def with_time_row(self, row: Sequence[int]) -> "SpaceTimeTransform":
        """Return a copy with a different (single) time row -- the knob used
        in Figure 3 to trade clock frequency against pipeline latency."""
        if self.time_dims != 1:
            raise SpecError("with_time_row requires a single time dimension")
        matrix = [list(r) for r in self.matrix[:-1]] + [list(row)]
        return SpaceTimeTransform(matrix, self.space_dims)

    def image(self, points: np.ndarray) -> np.ndarray:
        """Map an ``(N, rank)`` array of iteration points to their
        ``(N, rank)`` space-time coordinates: ``points @ T.T``, each row
        ``apply`` of the matching point."""
        if points.shape[1] != self.rank:
            raise SpecError(
                f"point has {points.shape[1]} coordinates, transform expects"
                f" {self.rank}"
            )
        return points @ np.array(self.matrix, dtype=np.int64).T

    def footprint(self, bounds: Bounds, order: Sequence[str]) -> "ArrayFootprint":
        """The physical PEs and schedule length for a domain."""
        image = self.image(bounds.grid(order))
        positions = distinct_rows(image[:, : self.space_dims]).tolist()
        times = image[:, self.space_dims:]
        by_time = lex_order(times)
        return ArrayFootprint(
            frozenset(tuple(p) for p in positions),
            tuple(times[by_time[0]].tolist()),
            tuple(times[by_time[-1]].tolist()),
        )

    def __repr__(self) -> str:
        rows = "; ".join(" ".join(str(v) for v in row) for row in self.matrix)
        return f"SpaceTimeTransform([{rows}], space_dims={self.space_dims})"


class ArrayFootprint:
    """The set of occupied PE coordinates and the time extent of a mapping."""

    def __init__(self, positions: frozenset, t_min: Tuple[int, ...], t_max: Tuple[int, ...]):
        self.positions = positions
        self.t_min = t_min
        self.t_max = t_max

    @property
    def pe_count(self) -> int:
        return len(self.positions)

    @property
    def schedule_length(self) -> int:
        return self.t_max[0] - self.t_min[0] + 1

    def bounding_box(self) -> Tuple[Tuple[int, int], ...]:
        dims = len(next(iter(self.positions)))
        return tuple(
            (min(p[d] for p in self.positions), max(p[d] for p in self.positions))
            for d in range(dims)
        )

    def is_rectangular(self) -> bool:
        box = self.bounding_box()
        expected = 1
        for lo, hi in box:
            expected *= hi - lo + 1
        return expected == self.pe_count


def lex_order(rows: np.ndarray) -> np.ndarray:
    """A stable argsort of the rows of a 2-D int array in lexicographic
    (tuple) order: equal rows keep their relative order."""
    if rows.shape[1] == 0:
        return np.arange(len(rows))
    return np.lexsort(rows.T[::-1])


def run_starts(sorted_rows: np.ndarray) -> np.ndarray:
    """Which rows of a lexicographically sorted array begin a run of
    equal rows: with :func:`lex_order`, the first occurrence of each
    distinct row."""
    starts = np.ones(len(sorted_rows), dtype=bool)
    starts[1:] = (sorted_rows[1:] != sorted_rows[:-1]).any(axis=1)
    return starts


def distinct_rows(rows: np.ndarray) -> np.ndarray:
    """The distinct rows of a 2-D int array, in lexicographic order."""
    ordered = rows[lex_order(rows)]
    return ordered[run_starts(ordered)]


# ---------------------------------------------------------------------------
# Named transforms for the 3-index matmul spec (Figure 2)
# ---------------------------------------------------------------------------


def output_stationary() -> SpaceTimeTransform:
    """Figure 2b: ``x = i, y = j, t = i + j + k``; C(i, j) stays in place."""
    return SpaceTimeTransform([[1, 0, 0], [0, 1, 0], [1, 1, 1]])


def input_stationary() -> SpaceTimeTransform:
    """Figure 2a: ``x = k, y = j, t = i + j + k``; B(k, j) stays in place and
    partial sums travel vertically down the array (``T.(0,0,1) = (1,0,1)``)."""
    return SpaceTimeTransform([[0, 0, 1], [0, 1, 0], [1, 1, 1]])


def weight_stationary() -> SpaceTimeTransform:
    """The Gemmini-style weight-stationary dataflow; identical in structure
    to :func:`input_stationary` with the weight matrix held in place."""
    return input_stationary()


def hexagonal() -> SpaceTimeTransform:
    """Figure 2c: all three indices spatially unrolled onto a 2-D plane,
    yielding a hexagonal PE footprint with short, routable wires [4]."""
    return SpaceTimeTransform([[1, 0, -1], [0, 1, -1], [1, 1, 1]])


def identity(rank: int) -> SpaceTimeTransform:
    return SpaceTimeTransform(
        [[int(r == c) for c in range(rank)] for r in range(rank)]
    )


def classify_dataflow(spec: FunctionalSpec, transform: SpaceTimeTransform) -> Dict[str, str]:
    """Describe each local variable's role under a transform.

    Returns a map of variable name to one of ``stationary``, ``moving`` or
    ``broadcast`` (zero time delta -- a combinational wire spanning PEs).
    """
    roles: Dict[str, str] = {}
    for name, d in spec.difference_vectors().items():
        disp = transform.displacement(d)
        space = disp[: transform.space_dims]
        time = disp[transform.space_dims:]
        if all(v == 0 for v in space):
            roles[name] = "stationary"
        elif all(v == 0 for v in time):
            roles[name] = "broadcast"
        else:
            roles[name] = "moving"
    return roles


def validate_schedule(spec: FunctionalSpec, transform: SpaceTimeTransform) -> None:
    """Check the transform is a legal schedule for the spec.

    Every data dependence must strictly advance in time: for each difference
    vector ``d``, the time part of ``T . d`` must be lexicographically
    positive (:meth:`SpaceTimeTransform.time_delta`), or zero only if the
    data does not move in space (a stationary value).  A zero time delta
    with nonzero space delta is a broadcast, which is legal hardware but
    flagged by callers that disallow combinational chains.
    """
    for name, d in spec.difference_vectors().items():
        dt = transform.time_delta(d)
        if dt < 0:
            raise SpecError(
                f"transform violates causality for {name!r}: time delta {dt} < 0"
                f" along difference vector {d}"
            )
