"""Load-balancing specifications (paper Sections III-D and IV-E).

Stellar lets users shift computations from one region of the tensor
iteration space onto *target* iterations that would otherwise idle.
Listing 3's row-granular scheme::

    Shift /*i=*/ N -> 2*N, j, k  to  /*i=*/ 0 -> N, j, k+1

is written here as::

    Shift(src={"i": Range(N, 2 * N)}, dst={"i": Range(0, N), "k": Offset(1)})

and Listing 4's "a few very flexible PEs"::

    Shift i, j, k  to  /*i=*/ 0, /*j=*/ 0 -> 4, k

as::

    Shift(src={}, dst={"i": Range(0, 1), "j": Range(0, 4)})

At runtime the generated load balancer applies a *space-time bias*
(Equation 2) -- a vector added to the iteration coordinates before the
space-time transform -- so that an idle PE behaves as if it were a PE
elsewhere in the array and takes over its work.

The *granularity* of a shift also feeds back into spatial-array structure
(Figure 10): when individual PEs within a row can independently take work
from another row, their horizontal PE-to-PE connections can no longer be
trusted to carry the right operands, and the pruning pass replaces them
with register-file ports.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from .expr import SpecError
from .functionality import FunctionalSpec


class Range:
    """A half-open iterator range ``[lo, hi)`` inside a shift clause."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: int, hi: int):
        if hi <= lo:
            raise SpecError(f"empty shift range [{lo}, {hi})")
        self.lo = lo
        self.hi = hi

    def __contains__(self, value: int) -> bool:
        return self.lo <= value < self.hi

    @property
    def extent(self) -> int:
        return self.hi - self.lo

    def __repr__(self) -> str:
        return f"Range({self.lo}, {self.hi})"


class Offset:
    """A relative clause: ``k -> k + delta`` (the ``k+1`` of Listing 3)."""

    __slots__ = ("delta",)

    def __init__(self, delta: int):
        self.delta = delta

    def __repr__(self) -> str:
        return f"Offset({self.delta:+d})"


class Shift:
    """One load-balancing rule: move work from ``src`` onto ``dst``.

    ``src`` maps iterator names to :class:`Range` (which iterations may be
    moved); unnamed iterators are unconstrained (Listing 4 omits all three).
    ``dst`` maps iterator names to :class:`Range` (the target region whose
    PEs take the work) or :class:`Offset` (a relative retargeting such as
    ``k -> k + 1``).
    """

    def __init__(
        self,
        src: Dict[str, Range],
        dst: Dict[str, object],
        granularity: Optional[str] = None,
    ):
        for name, clause in dst.items():
            if not isinstance(clause, (Range, Offset)):
                raise SpecError(
                    f"dst clause for {name!r} must be Range or Offset, got {clause!r}"
                )
        self.src = dict(src)
        self.dst = dict(dst)
        self._granularity = granularity

    def bias_vector(self, order: Sequence[str]) -> Tuple[int, ...]:
        """The space-time bias (Equation 2) applied to shifted iterations.

        For Range->Range clauses the bias is ``src.lo - dst.lo`` (mapping
        target iterations back onto source work); Offset clauses contribute
        ``-delta``.
        """
        bias: List[int] = []
        for name in order:
            src_clause = self.src.get(name)
            dst_clause = self.dst.get(name)
            if isinstance(dst_clause, Offset):
                bias.append(-dst_clause.delta)
            elif isinstance(dst_clause, Range) and isinstance(src_clause, Range):
                bias.append(src_clause.lo - dst_clause.lo)
            else:
                bias.append(0)
        return tuple(bias)

    def constrained_axes(self) -> FrozenSet[str]:
        """Axes along which the target region is a *proper* sub-range.

        A shift like Listing 4, whose target pins ``i = 0`` and
        ``j in [0, 4)``, lets individual PEs in those rows/columns
        independently pick up foreign work -- so connections along the
        constrained axes are no longer guaranteed (Figure 10b).
        """
        return frozenset(
            name for name, clause in self.dst.items() if isinstance(clause, Range)
        )

    def validate_against(self, spec: FunctionalSpec) -> None:
        for name in (*self.src, *self.dst):
            if name not in spec.index_names:
                raise SpecError(
                    f"shift references unknown iterator {name!r};"
                    f" spec has {spec.index_names}"
                )

    def is_row_granular(self, order: Sequence[str]) -> bool:
        """True when entire hyperplanes trade work as a unit (Figure 10a):
        the target ranges tile the source ranges axis-by-axis with equal
        extents, so each target PE has exactly one source PE to mirror."""
        for name, clause in self.dst.items():
            if isinstance(clause, Range):
                src_clause = self.src.get(name)
                if not isinstance(src_clause, Range):
                    return False
                if src_clause.extent != clause.extent:
                    return False
        return True

    def __repr__(self) -> str:
        return f"Shift(src={self.src!r}, dst={self.dst!r})"


class LoadBalancingScheme:
    """The full load-balancing axis of a design: an ordered list of shifts."""

    def __init__(self, shifts: Iterable[Shift] = ()):
        self.shifts: List[Shift] = list(shifts)

    def add(self, shift: Shift) -> "LoadBalancingScheme":
        self.shifts.append(shift)
        return self

    def is_disabled(self) -> bool:
        return not self.shifts

    def pruned_axes(self, order: Sequence[str]) -> FrozenSet[str]:
        """Axes whose PE-to-PE connections must be replaced with regfile
        ports because PEs along them balance independently (Figure 10b)."""
        axes: set = set()
        for shift in self.shifts:
            if not shift.is_row_granular(order):
                axes |= set(shift.constrained_axes())
        return frozenset(axes)

    def validate_against(self, spec: FunctionalSpec) -> None:
        for shift in self.shifts:
            shift.validate_against(spec)

    def __iter__(self):
        return iter(self.shifts)

    def __len__(self) -> int:
        return len(self.shifts)

    def __repr__(self) -> str:
        return f"LoadBalancingScheme({self.shifts!r})"


def row_shift_scheme(n: int) -> LoadBalancingScheme:
    """Listing 3: shift rows ``[N, 2N)`` of the i axis onto idle rows
    ``[0, N)`` one k-step ahead -- adjacent-row work sharing (Figure 6)."""
    return LoadBalancingScheme(
        [Shift(src={"i": Range(n, 2 * n)}, dst={"i": Range(0, n), "k": Offset(1)})]
    )


def flexible_pe_scheme(columns: int = 4) -> LoadBalancingScheme:
    """Listing 4: a small set of very flexible PEs (``i = 0``,
    ``j in [0, columns)``) that may take work from anywhere."""
    return LoadBalancingScheme(
        [Shift(src={}, dst={"i": Range(0, 1), "j": Range(0, columns)})]
    )
