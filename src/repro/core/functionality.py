"""Functional specifications: the first of Stellar's five design axes.

A :class:`FunctionalSpec` captures *what* an accelerator computes -- its
tensor inputs and outputs and the recurrences connecting them -- with no
commitment to the order, time, or place of each operation (paper Section
III-A).  The canonical example is the matrix-multiplication spec of
Listing 1::

    i, j, k = indices("i j k")
    A, B, C = Tensor("A", 2), Tensor("B", 2), Tensor("C", 2)
    a, b, c = Local("a", 3), Local("b", 3), Local("c", 3)

    spec = FunctionalSpec("matmul", [i, j, k])
    spec.let(a[i, j.lower_bound, k], A[i, k])
    spec.let(b[i.lower_bound, j, k], B[k, j])
    spec.let(c[i, j, k.lower_bound], 0)
    spec.let(a[i, j, k], a[i, j - 1, k])
    spec.let(b[i, j, k], b[i - 1, j, k])
    spec.let(c[i, j, k], c[i, j, k - 1] + a[i, j - 1, k] * b[i - 1, j, k])
    spec.let(C[i, j], c[i, j, k.upper_bound])

The spec exposes the analyses the compiler needs:

* :meth:`difference_vector` -- the per-variable reuse direction (Section
  IV-B's "difference vectors"), which the dataflow transform maps onto
  PE-to-PE connections;
* :meth:`dependence_set` -- the iterators that parametrize a variable's
  *identity* (e.g. partial sums ``c`` are identified by ``(i, j)``), used
  by the sparsity analysis to decide which connections survive skipping;
* :meth:`interpret` -- a reference interpreter producing ground-truth
  outputs for simulator validation.
"""

from __future__ import annotations

import enum
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from .expr import (
    Access,
    BoundMarker,
    Bounds,
    Const,
    EvalContext,
    Expr,
    Index,
    IndexExpr,
    Local,
    SpecError,
    Symbol,
    Tensor,
    _as_value,
)


class AssignmentKind(enum.Enum):
    """Role of an assignment within a functional specification."""

    INPUT = "input"  # boundary load from an external tensor
    INIT = "init"  # boundary initialization with a constant
    COMPUTE = "compute"  # interior recurrence between local variables
    OUTPUT = "output"  # boundary store to an external tensor


class Assignment:
    """A single single-assignment rule ``lhs := rhs``."""

    def __init__(self, lhs: Access, rhs: Expr, kind: AssignmentKind):
        self.lhs = lhs
        self.rhs = rhs
        self.kind = kind

    @property
    def variable(self) -> Symbol:
        return self.lhs.target

    def boundary_conditions(self) -> Dict[str, str]:
        """Map of index name -> 'lb'/'ub' for bound markers on the LHS."""
        out: Dict[str, str] = {}
        for sub in self.lhs.subscripts:
            if isinstance(sub, BoundMarker):
                out[sub.index.name] = sub.which
        return out

    def pinned_bounds(self) -> List[Tuple[str, str]]:
        """The ``(index name, 'lb'/'ub')`` pins of the points it fires at.

        Outputs fire where their right-hand side's bound markers match;
        every other rule where its left-hand side's do.
        """
        if self.kind is AssignmentKind.OUTPUT:
            return [
                (sub.index.name, sub.which)
                for access in self.rhs.references()
                for sub in access.subscripts
                if isinstance(sub, BoundMarker)
            ]
        return list(self.boundary_conditions().items())

    def __repr__(self) -> str:
        return f"{self.lhs!r} := {self.rhs!r}  [{self.kind.value}]"


class FunctionalSpec:
    """An accelerator's functional behaviour over a tensor iteration space."""

    def __init__(self, name: str, iteration_indices: Sequence[Index]):
        if not iteration_indices:
            raise SpecError("a functional spec needs at least one index")
        names = [ix.name for ix in iteration_indices]
        if len(set(names)) != len(names):
            raise SpecError(f"duplicate iteration indices: {names}")
        self.name = name
        self.indices: Tuple[Index, ...] = tuple(iteration_indices)
        self.index_names: Tuple[str, ...] = tuple(names)
        self.assignments: List[Assignment] = []

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def let(self, lhs: Access, rhs) -> Assignment:
        """Add an assignment, inferring its kind from the shapes involved."""
        if not isinstance(lhs, Access):
            raise SpecError("assignment left-hand side must be a tensor/local access")
        rhs = _as_value(rhs)
        kind = self._classify(lhs, rhs)
        assignment = Assignment(lhs, rhs, kind)
        self._validate(assignment)
        self.assignments.append(assignment)
        return assignment

    def _classify(self, lhs: Access, rhs: Expr) -> AssignmentKind:
        if isinstance(lhs.target, Tensor):
            return AssignmentKind.OUTPUT
        has_boundary = any(isinstance(s, BoundMarker) for s in lhs.subscripts)
        if has_boundary:
            refs = list(rhs.references())
            if any(isinstance(r.target, Tensor) for r in refs):
                return AssignmentKind.INPUT
            if not refs:
                return AssignmentKind.INIT
        return AssignmentKind.COMPUTE

    def _validate(self, assignment: Assignment) -> None:
        for access in (assignment.lhs, *assignment.rhs.references()):
            for sub in access.subscripts:
                if isinstance(sub, IndexExpr):
                    for name in sub.free_indices():
                        if name not in self.index_names:
                            raise SpecError(
                                f"unknown index {name!r} in {access!r}; spec indices"
                                f" are {self.index_names}"
                            )
        # A pin says at which points of the domain a rule fires, so it
        # must name an iterated index; elsewhere a bound marker is a value.
        for name, which in assignment.pinned_bounds():
            if name not in self.index_names:
                marker = "lowerBound" if which == "lb" else "upperBound"
                raise SpecError(
                    f"{assignment!r} is pinned to {name}.{marker}, but the"
                    f" spec iterates only {self.index_names}"
                )
        if isinstance(assignment.lhs.target, Local):
            if assignment.lhs.target.rank != len(self.index_names):
                raise SpecError(
                    f"local {assignment.lhs.target.name!r} must have rank"
                    f" {len(self.index_names)} (one per iteration index)"
                )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def locals(self) -> List[Local]:
        seen: Dict[str, Local] = {}
        for assignment in self.assignments:
            for access in (assignment.lhs, *assignment.rhs.references()):
                if isinstance(access.target, Local):
                    seen.setdefault(access.target.name, access.target)
        return list(seen.values())

    def input_tensors(self) -> List[Tensor]:
        seen: Dict[str, Tensor] = {}
        for assignment in self.assignments:
            if assignment.kind in (AssignmentKind.INPUT, AssignmentKind.COMPUTE):
                for access in assignment.rhs.references():
                    if isinstance(access.target, Tensor):
                        seen.setdefault(access.target.name, access.target)
        return list(seen.values())

    def output_tensors(self) -> List[Tensor]:
        seen: Dict[str, Tensor] = {}
        for assignment in self.assignments:
            if assignment.kind is AssignmentKind.OUTPUT:
                seen.setdefault(assignment.lhs.target.name, assignment.lhs.target)
        return list(seen.values())

    def assignments_for(self, variable_name: str) -> List[Assignment]:
        return [a for a in self.assignments if a.variable.name == variable_name]

    def compute_assignment(self, variable_name: str) -> Optional[Assignment]:
        for assignment in self.assignments_for(variable_name):
            if assignment.kind is AssignmentKind.COMPUTE:
                return assignment
        return None

    def computed_locals(self) -> frozenset:
        """Locals with an interior recurrence.

        The recurrence defines such a local at *every* in-domain point;
        its boundary INPUT/INIT rules describe the phantom slot one step
        outside the domain (the paper's ``k.lowerBound`` initialization)
        and only answer out-of-domain reads.
        """
        return frozenset(
            a.variable.name
            for a in self.assignments
            if a.kind is AssignmentKind.COMPUTE
        )

    def has_data_dependent_accesses(self) -> bool:
        """True for merge/sort-style specs with value-typed subscripts."""
        return any(
            access.is_data_dependent
            for assignment in self.assignments
            for access in (assignment.lhs, *assignment.rhs.references())
        )

    # ------------------------------------------------------------------
    # Analyses used by the compiler
    # ------------------------------------------------------------------

    def difference_vector(self, variable_name: str) -> Optional[Tuple[int, ...]]:
        """The reuse direction of a local variable in iteration space.

        From ``c(i, j, k) := c(i, j, k - 1) + ...`` the self-reference offset
        is ``(0, 0, -1)``, so the difference vector -- the displacement data
        travels per step -- is ``(0, 0, 1)`` (paper Section IV-B).
        Returns None for variables with no interior recurrence.
        """
        compute = self.compute_assignment(variable_name)
        if compute is None:
            return None
        for access in compute.rhs.references():
            if access.target.name != variable_name:
                continue
            offsets = access.subscript_offsets(self.index_names)
            if offsets is None:
                return None
            return tuple(-o for o in offsets)
        return None

    def dependence_set(self, variable_name: str) -> frozenset:
        """Iterators that parametrize the variable's *identity*.

        A local fed from ``A(i, k)`` carries a value identified by
        ``(i, k)``; a partial-sum local emptied into ``C(i, j)`` is
        identified by ``(i, j)``.  Sparsity analysis uses this to decide
        whether a PE-to-PE connection still delivers the value the
        destination PE needs after coordinates become data-dependent.
        """
        deps: frozenset = frozenset()
        found = False
        for assignment in self.assignments_for(variable_name):
            if assignment.kind is AssignmentKind.INPUT:
                for access in assignment.rhs.references():
                    if isinstance(access.target, Tensor):
                        deps |= access.free_indices()
                        found = True
        for assignment in self.assignments:
            if assignment.kind is AssignmentKind.OUTPUT:
                refs = list(assignment.rhs.references())
                if any(r.target.name == variable_name for r in refs):
                    deps |= assignment.lhs.free_indices()
                    found = True
        if not found:
            # Fall back: everything except the flow axis parametrizes identity.
            d = self.difference_vector(variable_name)
            if d is not None:
                deps = frozenset(
                    name for name, delta in zip(self.index_names, d) if delta == 0
                )
        return deps

    def difference_vectors(self) -> Dict[str, Tuple[int, ...]]:
        out: Dict[str, Tuple[int, ...]] = {}
        for local in self.locals():
            d = self.difference_vector(local.name)
            if d is not None:
                out[local.name] = d
        return out

    def macs_per_point(self) -> int:
        """Number of multiply ops in interior compute rules (for FLOP counts)."""

        def count(expr: Expr) -> int:
            if isinstance(expr, (Access, Const)):
                return 0
            total = 1 if getattr(expr, "op", None) == "*" else 0
            return total + sum(count(child) for child in expr.children())

        return sum(
            count(a.rhs)
            for a in self.assignments
            if a.kind is AssignmentKind.COMPUTE
        )

    # ------------------------------------------------------------------
    # Reference interpreter
    # ------------------------------------------------------------------

    def interpret(
        self,
        bounds: Bounds,
        tensors: Mapping[str, np.ndarray],
        kernel: bool = True,
    ) -> Dict[str, np.ndarray]:
        """Execute the spec directly over the iteration domain.

        This is the semantic ground truth: the compiler and simulator must
        produce identical outputs for any valid dataflow.  Iteration is
        lexicographic-ascending, which is safe for specs whose difference
        vectors are lexicographically non-negative (all specs in the paper).

        With ``kernel=True`` (the default) the trace-compiled batched
        evaluator (:mod:`repro.sim.kernel`) answers when this spec is
        traceable -- byte-identical results, no per-point dispatch --
        and any untraceable shape falls through to the scalar walker
        below.  ``kernel=False`` forces the scalar path; it stays the
        ground truth the kernel is differentially tested against.
        """
        for name in self.index_names:
            if name not in bounds:
                raise SpecError(f"bounds missing index {name!r}")
        if kernel:
            from ..sim.kernel import replay_interpret

            result = replay_interpret(self, bounds, tensors)
            if result is not None:
                return result
        outputs: Dict[str, Dict[Tuple[int, ...], Union[int, float]]] = {
            t.name: {} for t in self.output_tensors()
        }
        interpreter = _Interpreter(self, bounds, tensors)
        for point in bounds.domain(self.index_names):
            interpreter.step(point, outputs)
        return {
            name: _dict_to_array(cells, tensors)
            for name, cells in outputs.items()
        }

    def _applies_at(
        self, assignment: Assignment, env: Mapping[str, int], bounds: Bounds
    ) -> bool:
        """Does this assignment's boundary pattern match the current point?"""
        for name, which in assignment.pinned_bounds():
            lo, hi = bounds[name]
            want = lo if which == "lb" else hi
            if env[name] != want:
                return False
        return True


def _undefined_read(name: str, coords: Tuple[int, ...]) -> SpecError:
    return SpecError(f"read of {name} at {coords} before definition")


class _Interpreter:
    """Steps the spec's rules one point at a time, resolving local reads
    through recurrences and boundary rules.

    ``unproduced`` builds the error for an in-domain read of a value no
    earlier step stored; the simulator passes its own, which blames the
    space-time schedule.
    """

    def __init__(
        self, spec, bounds, tensors,
        unproduced: Callable[[str, Tuple[int, ...]], SpecError] = _undefined_read,
    ):
        self.spec = spec
        self.bounds = bounds
        self.tensors = tensors
        self.unproduced = unproduced
        self.values: Dict[Tuple[str, Tuple[int, ...]], Union[int, float]] = {}
        self.computed = spec.computed_locals()

    def step(
        self,
        point: Tuple[int, ...],
        outputs: Dict[str, Dict[Tuple[int, ...], Union[int, float]]],
    ) -> Tuple[int, int]:
        """Fire every rule that applies at ``point``: store its locals'
        values and write its output cells into ``outputs``.  Returns the
        regfile traffic, ``(input reads, output writes)``."""
        spec, bounds = self.spec, self.bounds
        env = dict(zip(spec.index_names, point))
        ctx = EvalContext(env, bounds, self.read)
        reads = writes = 0
        for assignment in spec.assignments:
            if not spec._applies_at(assignment, env, bounds):
                continue
            if assignment.kind is AssignmentKind.OUTPUT:
                coords = tuple(
                    int(s.evaluate(env, bounds)) for s in assignment.lhs.subscripts
                )
                outputs[assignment.lhs.target.name][coords] = (
                    assignment.rhs.evaluate(ctx)
                )
                writes += 1
                continue
            if (
                assignment.kind is not AssignmentKind.COMPUTE
                and assignment.variable.name in self.computed
            ):
                continue
            key = (assignment.variable.name, point)
            if key not in self.values:
                self.values[key] = assignment.rhs.evaluate(ctx)
            if assignment.kind is AssignmentKind.INPUT:
                reads += 1
        return reads, writes

    def read(self, symbol: Symbol, coords: Tuple[int, ...]):
        if isinstance(symbol, Tensor):
            array = self.tensors.get(symbol.name)
            if array is None:
                raise SpecError(f"no data provided for tensor {symbol.name!r}")
            return array[coords]
        # Local variable read.
        key = (symbol.name, coords)
        if key in self.values:
            return self.values[key]
        # Out-of-domain read: resolve through a boundary assignment by
        # clamping the out-of-range axis to its boundary (the paper's
        # phantom ``lowerBound`` slot, e.g. ``c(i, j, k.lowerBound) := 0``).
        env = dict(zip(self.spec.index_names, coords))
        # Innermost axes first: a phantom read beyond the fiber end (the
        # sort network's +/-inf neighbours) resolves before a phantom read
        # of an earlier pass/timestep.
        for name in reversed(self.spec.index_names):
            lo, hi = self.bounds[name]
            if env[name] < lo or env[name] > hi:
                clamped = dict(env)
                clamped[name] = lo if env[name] < lo else hi
                for assignment in self.spec.assignments_for(symbol.name):
                    conds = assignment.boundary_conditions()
                    which = conds.get(name)
                    if which == ("lb" if env[name] < lo else "ub"):
                        ctx = EvalContext(clamped, self.bounds, self.read)
                        return assignment.rhs.evaluate(ctx)
                raise SpecError(
                    f"read of {symbol.name} at out-of-domain point {coords} with"
                    f" no boundary rule on axis {name!r}"
                )
        raise self.unproduced(symbol.name, coords)


def _dict_to_array(
    cells: Dict[Tuple[int, ...], Union[int, float]],
    tensors: Mapping[str, np.ndarray],
) -> np.ndarray:
    if not cells:
        return np.zeros((0,))
    rank = len(next(iter(cells)))
    shape = tuple(max(c[axis] for c in cells) + 1 for axis in range(rank))
    dtype = np.result_type(
        *(np.asarray(v).dtype for v in list(cells.values())[:4]), np.int64
    )
    if any(isinstance(v, float) for v in cells.values()):
        dtype = np.float64
    out = np.zeros(shape, dtype=dtype)
    for coords, value in cells.items():
        out[coords] = value
    return out


def matmul_spec(name: str = "matmul") -> FunctionalSpec:
    """The canonical matrix-multiplication spec of paper Listing 1."""
    i, j, k = Index("i"), Index("j"), Index("k")
    A, B, C = Tensor("A", 2), Tensor("B", 2), Tensor("C", 2)
    a, b, c = Local("a", 3), Local("b", 3), Local("c", 3)
    spec = FunctionalSpec(name, [i, j, k])
    spec.let(a[i, j.lower_bound, k], A[i, k])
    spec.let(b[i.lower_bound, j, k], B[k, j])
    spec.let(c[i, j, k.lower_bound], 0)
    spec.let(a[i, j, k], a[i, j - 1, k])
    spec.let(b[i, j, k], b[i - 1, j, k])
    spec.let(c[i, j, k], c[i, j, k - 1] + a[i, j - 1, k] * b[i - 1, j, k])
    spec.let(C[i, j], c[i, j, k.upper_bound])
    return spec


def conv1d_spec(name: str = "conv1d") -> FunctionalSpec:
    """A 1-D convolution spec: ``O(ox) = sum_f I(ox + f) * W(f)``.

    Indices: ``ox`` output position, ``oc`` output channel, ``f`` filter tap.
    2-D convolutions are lowered to matmuls via im2col in the workload layer,
    mirroring how Gemmini executes them (paper Section VI-A).
    """
    ox, oc, f = Index("ox"), Index("oc"), Index("f")
    I, W, O = Tensor("I", 1), Tensor("W", 2), Tensor("O", 2)
    img = Local("img", 3)
    wgt = Local("wgt", 3)
    acc = Local("acc", 3)
    spec = FunctionalSpec(name, [ox, oc, f])
    spec.let(img[ox, oc.lower_bound, f], I[ox + f])
    spec.let(wgt[ox.lower_bound, oc, f], W[oc, f])
    spec.let(acc[ox, oc, f.lower_bound], 0)
    spec.let(img[ox, oc, f], img[ox, oc - 1, f])
    spec.let(wgt[ox, oc, f], wgt[ox - 1, oc, f])
    spec.let(acc[ox, oc, f], acc[ox, oc, f - 1] + img[ox, oc - 1, f] * wgt[ox - 1, oc, f])
    spec.let(O[ox, oc], acc[ox, oc, f.upper_bound])
    return spec


def batched_matmul_spec(name: str = "bmm") -> FunctionalSpec:
    """A four-index batched matmul: ``C(n, i, j) = sum_k A(n, i, k) B(n, k, j)``.

    Exercises specs with more indices than physical dimensions -- the
    space-time transform must fold the batch axis into time.
    """
    n, i, j, k = (Index(x) for x in ("n", "i", "j", "k"))
    A, B, C = Tensor("A", 3), Tensor("B", 3), Tensor("C", 3)
    a, b, c = Local("a", 4), Local("b", 4), Local("c", 4)
    spec = FunctionalSpec(name, [n, i, j, k])
    spec.let(a[n, i, j.lower_bound, k], A[n, i, k])
    spec.let(b[n, i.lower_bound, j, k], B[n, k, j])
    spec.let(c[n, i, j, k.lower_bound], 0)
    spec.let(a[n, i, j, k], a[n, i, j - 1, k])
    spec.let(b[n, i, j, k], b[n, i - 1, j, k])
    spec.let(c[n, i, j, k], c[n, i, j, k - 1] + a[n, i, j - 1, k] * b[n, i - 1, j, k])
    spec.let(C[n, i, j], c[n, i, j, k.upper_bound])
    return spec
