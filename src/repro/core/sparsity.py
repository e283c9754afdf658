"""Sparse data-structure specifications (paper Section III-C).

Sparsity in Stellar is expressed in terms of which tensor iterators may be
*skipped*, and under which conditions -- independently of how tensors are
actually encoded in memory (that is the job of the memory-buffer axis,
Section III-E).  Listing 2's examples::

    Skip j when B(k, j) == 0         # B is CSR
    Skip i and k when i != k         # A is diagonal
    Skip k when A(i, ->) == 0        # rows of A may be entirely empty

are written here as::

    Skip([j], B[k, j] == 0)
    Skip([i, k], Comparison("!=", IndexValue(i), IndexValue(k)))
    Skip([k], A[i, WILDCARD] == 0)

``OptimisticSkip`` is the structured-sparsity variant (Figure 5, the A100
2:4 scheme): instead of removing PE-to-PE connections, the compiler widens
them into bundles of potentially-useful values.

The key analysis exported here is :meth:`Skip.expansion_dependencies`:
skipping iterator ``j`` under condition ``B(k, j) == 0`` makes the expanded
coordinate a data-dependent function ``j_expanded = f(k, j_compressed)``
whose value changes with ``k``.  Section IV-B uses these dependencies to
decide which PE-to-PE connections are still *guaranteed* to carry useful
values (see :mod:`repro.core.passes.prune`).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from .expr import WILDCARD, Access, Comparison, Expr, Index, SpecError, Tensor
from .functionality import FunctionalSpec


def row_operand(condition: Expr) -> Optional[Access]:
    """The whole-row access a skip condition tests, if any.

    In ``A(i, ->) == 0`` (Listing 2) a wildcard access on the left of a
    top-level comparison reads as its row's any-nonzero flag (0 or 1).
    A wildcard anywhere else cannot be evaluated.
    """
    if isinstance(condition, Comparison):
        lhs = condition.lhs
        if isinstance(lhs, Access) and any(s is WILDCARD for s in lhs.subscripts):
            return lhs
    return None


class Skip:
    """``Skip <iterators> when <condition>``.

    Parameters
    ----------
    skipped:
        The iterators whose iterations may be elided.
    condition:
        A boolean expression over tensor accesses and indices.  Iterations
        where the condition holds are skipped.
    optimistic:
        When True this is an ``OptimisticSkip`` (Figure 5): PE-to-PE
        connections are retained but widened to carry ``bundle`` candidate
        values instead of a single scalar.
    bundle:
        Bundle width for optimistic skips (e.g. 4 for the A100 2:4 format,
        which scans four adjacent weights for two non-zeros).
    """

    def __init__(
        self,
        skipped: Sequence[Index],
        condition: Expr,
        optimistic: bool = False,
        bundle: int = 1,
    ):
        if not skipped:
            raise SpecError("a Skip must name at least one iterator")
        if not isinstance(condition, Expr):
            raise SpecError("skip condition must be a boolean expression")
        if optimistic and bundle < 2:
            raise SpecError("an OptimisticSkip needs a bundle width of at least 2")
        if not optimistic and bundle != 1:
            raise SpecError("bundle width is only meaningful for OptimisticSkip")
        self.skipped: Tuple[Index, ...] = tuple(skipped)
        self.skipped_names: Tuple[str, ...] = tuple(ix.name for ix in skipped)
        self.condition = condition
        self.optimistic = optimistic
        self.bundle = bundle

    # ------------------------------------------------------------------
    # Analyses
    # ------------------------------------------------------------------

    def condition_tensors(self) -> List[Tensor]:
        return [
            access.target
            for access in self.condition.references()
            if isinstance(access.target, Tensor)
        ]

    def expansion_dependencies(self) -> Dict[str, FrozenSet[str]]:
        """For each skipped iterator, the iterators its expansion depends on.

        The expanded coordinate of a skipped iterator ``s`` is an arbitrary
        function of the *other* free indices of the skip condition: with
        ``Skip j when B(k, j) == 0``, ``j_expanded = f(k, j_compressed)``,
        so ``deps = {"k"}``.  A structured condition such as ``i != k``
        couples the skipped iterators to each other.
        """
        free = self.condition.free_indices()
        out: Dict[str, FrozenSet[str]] = {}
        for name in self.skipped_names:
            out[name] = frozenset(free - {name})
        return out

    def is_structured(self) -> bool:
        """Structured skips (no tensor in the condition, e.g. ``i != k``)
        have expansion functions known at compile time."""
        return not self.condition_tensors()

    def validate_against(self, spec: FunctionalSpec) -> None:
        for name in self.skipped_names:
            if name not in spec.index_names:
                raise SpecError(
                    f"skip names unknown iterator {name!r}; spec has {spec.index_names}"
                )
        for name in self.condition.free_indices():
            if name not in spec.index_names:
                raise SpecError(f"skip condition references unknown iterator {name!r}")

    def __repr__(self) -> str:
        kind = "OptimisticSkip" if self.optimistic else "Skip"
        names = " and ".join(self.skipped_names)
        extra = f", bundle={self.bundle}" if self.optimistic else ""
        return f"{kind} {names} when {self.condition!r}{extra}"


class SparsityStructure:
    """The full sparsity axis of a design: an ordered list of skips."""

    def __init__(self, skips: Iterable[Skip] = ()):
        self.skips: List[Skip] = list(skips)

    def add(self, skip: Skip) -> "SparsityStructure":
        self.skips.append(skip)
        return self

    def skipped_iterators(self) -> FrozenSet[str]:
        out: set = set()
        for skip in self.skips:
            out |= set(skip.skipped_names)
        return frozenset(out)

    def expansion_dependencies(self) -> Dict[str, FrozenSet[str]]:
        """Merged expansion dependencies across all (pessimistic) skips."""
        merged: Dict[str, set] = {}
        for skip in self.skips:
            if skip.optimistic:
                continue
            for name, deps in skip.expansion_dependencies().items():
                merged.setdefault(name, set()).update(deps)
        return {name: frozenset(deps) for name, deps in merged.items()}

    def optimistic_bundles(self) -> Dict[str, int]:
        """Bundle widths per iterator introduced by OptimisticSkips."""
        out: Dict[str, int] = {}
        for skip in self.skips:
            if skip.optimistic:
                for name in skip.skipped_names:
                    out[name] = max(out.get(name, 1), skip.bundle)
        return out

    def validate_against(self, spec: FunctionalSpec) -> None:
        for skip in self.skips:
            skip.validate_against(spec)

    def is_dense(self) -> bool:
        return not self.skips

    def __iter__(self):
        return iter(self.skips)

    def __len__(self) -> int:
        return len(self.skips)

    def __repr__(self) -> str:
        return f"SparsityStructure({self.skips!r})"


# ---------------------------------------------------------------------------
# Canonical structures from the paper
# ---------------------------------------------------------------------------


def csr_b_matrix(spec: FunctionalSpec) -> SparsityStructure:
    """Listing 5: ``Skip j when B(k, j) == 0`` -- the B matrix is CSR."""
    j = _index(spec, "j")
    k = _index(spec, "k")
    B = _tensor(spec, "B")
    return SparsityStructure([Skip([j], B[k, j] == 0)])


def csr_csc_both(spec: FunctionalSpec) -> SparsityStructure:
    """Listing 2 lines 1-3: A is CSC and B is CSR (outer-product matmul)."""
    i, j, k = (_index(spec, n) for n in "ijk")
    A, B = _tensor(spec, "A"), _tensor(spec, "B")
    return SparsityStructure(
        [Skip([i], A[i, k] == 0), Skip([j], B[k, j] == 0)]
    )


def diagonal_a_matrix(spec: FunctionalSpec) -> SparsityStructure:
    """Listing 2 line 5: ``Skip i and k when i != k`` -- A is diagonal."""
    i, k = _index(spec, "i"), _index(spec, "k")
    return SparsityStructure([Skip([i, k], i != k)])


def empty_rows_of_a(spec: FunctionalSpec) -> SparsityStructure:
    """Listing 2 line 7: ``Skip k when A(i, ->) == 0`` -- whole-row skips."""
    k = _index(spec, "k")
    i = _index(spec, "i")
    A = _tensor(spec, "A")
    return SparsityStructure([Skip([k], A[i, WILDCARD] == 0)])


def a100_two_four(spec: FunctionalSpec) -> SparsityStructure:
    """Figure 5: NVIDIA A100 2:4 structured sparsity on the A (weight)
    matrix, expressed with ``OptimisticSkip`` over bundles of four."""
    k = _index(spec, "k")
    i = _index(spec, "i")
    A = _tensor(spec, "A")
    return SparsityStructure(
        [Skip([k], A[i, k] == 0, optimistic=True, bundle=4)]
    )


def _index(spec: FunctionalSpec, name: str) -> Index:
    for ix in spec.indices:
        if ix.name == name:
            return ix
    raise SpecError(f"spec {spec.name!r} has no index {name!r}")


def _tensor(spec: FunctionalSpec, name: str) -> Tensor:
    for tensor in (*spec.input_tensors(), *spec.output_tensors()):
        if tensor.name == name:
            return tensor
    raise SpecError(f"spec {spec.name!r} has no tensor {name!r}")
