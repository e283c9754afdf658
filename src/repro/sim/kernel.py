"""Trace-compiled batched reference kernels.

:func:`repro.core.functionality.FunctionalSpec.interpret` is the
semantic ground truth of the whole stack, but its scalar form walks the
expression tree once *per iteration point* -- pure-Python dispatch that
dominates every sparse :class:`~repro.sim.spatial_array.SpatialArraySim`
run (the sparse path's functional outputs always come from the
reference interpreter).  This module borrows Taichi's trace-then-lower
idiom: symbolically execute each assignment's :class:`~repro.core.expr.Expr`
tree **once over index symbols, not values**, classify every local
variable's recurrence, and lower the spec's assignment DAG into a
closed-form batched numpy program:

* a *pointwise* rule (``out(l, t) := Select(...)``) lowers to one
  vectorized expression evaluation over the whole domain grid;
* a *propagate* rule (``a(i, j, k) := a(i, j - 1, k)``) lowers to its
  boundary value broadcast along the flow axis;
* a *scan* rule (``c(i, j, k) := c(i, j, k - 1) + g``) lowers to a
  ``ufunc.accumulate`` prefix scan over the time-like flow axis, seeded
  with the boundary ("phantom slot") value so the left-associated
  evaluation order -- and therefore float rounding -- matches the
  scalar interpreter bit for bit.

Out-of-domain reads resolve through the same boundary-rule clamping the
scalar interpreter performs, batched lane-wise: the innermost
out-of-range axis selects the rule, and only the lanes that need a
boundary value evaluate its right-hand side (compressed to 1-D so a
discarded lane can never raise a spurious error).

**Fallback contract**: any expression shape the tracer does not
recognize -- data-dependent accesses, multi-step or multi-reference
recurrences, locals without a compute rule, a missing boundary rule at
replay time -- raises :class:`KernelFallback`, and callers transparently
re-run the scalar interpreter.  The two paths are required to agree
byte for byte; the differential suite in
``tests/exec/test_differential.py`` proves it.

The same evaluator computes the simulator's sparse skip masks
(:func:`skip_mask`) under the same contract: a condition it cannot
batch raises :class:`KernelFallback`, and the simulator evaluates that
condition point by point.

Tracing a spec costs less than fingerprinting it, so compiled kernels
are memoized per spec object (:func:`cached_kernel`), never under a
content key; what a cache memoizes is the replayed outputs (the
simulator's ``sim.reference`` stage).  Compiled kernels are pure data
(step descriptors plus references into the spec's expression trees), so
they pickle cleanly.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..core.expr import (
    Access,
    BinOp,
    Bounds,
    Comparison,
    Const,
    EvalContext,
    Expr,
    IndexValue,
    Local,
    Select,
    SpecError,
    Tensor,
    WILDCARD,
)
from ..core.functionality import Assignment, AssignmentKind, FunctionalSpec
from ..core.sparsity import row_operand
from ..obs.profile import span
from ..obs.trace import get_tracer

#: Elementwise ufuncs for value BinOps.  ``min``/``max`` map to the
#: broadcasting numpy counterparts of the Python builtins the scalar
#: evaluator uses; everything else matches Python's integer semantics
#: (``//`` floors, ``%`` follows the divisor's sign).
_UFUNCS = {
    "+": np.add,
    "-": np.subtract,
    "*": np.multiply,
    "/": np.true_divide,
    "//": np.floor_divide,
    "%": np.mod,
    "min": np.minimum,
    "max": np.maximum,
}

#: Scan operators whose accumulate order is insensitive to which side of
#: the BinOp carries the recurrence (bitwise, for floats too: IEEE
#: addition and multiplication commute, as do min/max).
_COMMUTATIVE = frozenset({"+", "*", "min", "max"})

_COMPARES = {
    "==": np.equal,
    "!=": np.not_equal,
    "<": np.less,
    "<=": np.less_equal,
    ">": np.greater,
    ">=": np.greater_equal,
}


class KernelFallback(Exception):
    """The tracer/replayer met a shape it does not support.

    Callers catch this and fall back to the scalar interpreter, which
    either handles the shape or raises the precise :class:`SpecError`
    the spec deserves.  The ``reason`` is carried for tracing.
    """

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class _LocalStep:
    """One lowered local-variable definition.

    ``mode`` is ``"pointwise"`` (no self reference), ``"propagate"``
    (the rule is exactly its own value one step back along
    ``flow_axis``), or ``"scan"`` (``op`` folded along ``flow_axis``
    with ``operand`` as the per-point term).
    """

    __slots__ = ("name", "mode", "flow_axis", "op", "operand", "rhs")

    def __init__(
        self,
        name: str,
        mode: str,
        flow_axis: Optional[int] = None,
        op: Optional[str] = None,
        operand: Optional[Expr] = None,
        rhs: Optional[Expr] = None,
    ):
        self.name = name
        self.mode = mode
        self.flow_axis = flow_axis
        self.op = op
        self.operand = operand
        self.rhs = rhs

    def __repr__(self) -> str:
        extra = "" if self.flow_axis is None else f", axis={self.flow_axis}"
        return f"_LocalStep({self.name!r}, {self.mode}{extra})"


class CompiledKernel:
    """A batched numpy program equivalent to ``spec.interpret``.

    Built once per spec by :func:`compile_kernel`; replayed for any
    (bounds, tensors) workload without per-point Python dispatch.
    """

    def __init__(self, spec: FunctionalSpec, steps: Sequence[_LocalStep]):
        self.spec = spec
        self.steps = tuple(steps)

    def __repr__(self) -> str:
        return f"CompiledKernel({self.spec.name!r}, {len(self.steps)} steps)"

    # ------------------------------------------------------------------

    def replay(
        self, bounds: Bounds, tensors: Mapping[str, np.ndarray]
    ) -> Dict[str, np.ndarray]:
        """Evaluate the whole iteration space as fused array ops.

        Raises :class:`KernelFallback` when the workload needs a
        boundary rule the spec does not provide (the scalar path owns
        the precise diagnostic), and the same :class:`SpecError` as the
        interpreter for missing tensor data.
        """
        for name in self.spec.index_names:
            if name not in bounds:
                raise SpecError(f"bounds missing index {name!r}")
        tracer = get_tracer()
        with span("sim.kernel.replay"):
            replayer = _Replay(self.spec, bounds, tensors)
            for step in self.steps:
                replayer.run_step(step)
            outputs = replayer.outputs()
        if tracer.enabled:
            tracer.instant(
                "kernel_replay",
                component="sim.kernel",
                spec=self.spec.name,
                points=bounds.point_count(self.spec.index_names),
                steps=len(self.steps),
            )
        return outputs


# ---------------------------------------------------------------------------
# Trace: classify the spec's assignment DAG into lowered steps
# ---------------------------------------------------------------------------


def _self_accesses(rhs: Expr, name: str) -> List[Access]:
    return [a for a in rhs.references() if a.target.name == name]


def _check_traceable_accesses(spec: FunctionalSpec) -> None:
    for assignment in spec.assignments:
        for access in (assignment.lhs, *assignment.rhs.references()):
            if any(sub is WILDCARD for sub in access.subscripts):
                raise KernelFallback(
                    f"wildcard subscript on {access.target.name!r}"
                )


def _classify_local(spec: FunctionalSpec, local: Local) -> _LocalStep:
    compute = spec.compute_assignment(local.name)
    if compute is None:
        raise KernelFallback(f"local {local.name!r} has no compute rule")
    selfs = _self_accesses(compute.rhs, local.name)
    if not selfs:
        return _LocalStep(local.name, "pointwise", rhs=compute.rhs)
    if len(selfs) > 1:
        raise KernelFallback(
            f"{local.name!r} references itself {len(selfs)} times"
        )
    self_access = selfs[0]
    offsets = self_access.subscript_offsets(spec.index_names)
    if offsets is None:
        raise KernelFallback(
            f"{local.name!r} self-reference is not a constant offset"
        )
    nonzero = [(axis, off) for axis, off in enumerate(offsets) if off != 0]
    if len(nonzero) != 1 or nonzero[0][1] != -1:
        raise KernelFallback(
            f"{local.name!r} recurrence steps {offsets}, not a single -1"
        )
    flow_axis = nonzero[0][0]
    if compute.rhs is self_access:
        return _LocalStep(local.name, "propagate", flow_axis=flow_axis)
    rhs = compute.rhs
    if not isinstance(rhs, BinOp) or rhs.op not in _UFUNCS:
        raise KernelFallback(
            f"{local.name!r} recurrence is not a direct binary fold"
        )
    if rhs.lhs is self_access:
        operand = rhs.rhs
    elif rhs.rhs is self_access:
        if rhs.op not in _COMMUTATIVE:
            raise KernelFallback(
                f"{local.name!r}: {rhs.op!r} fold with the recurrence on the"
                " right is order-sensitive"
            )
        operand = rhs.lhs
    else:
        raise KernelFallback(
            f"{local.name!r} self-reference is nested below the top-level fold"
        )
    if _self_accesses(operand, local.name):
        raise KernelFallback(
            f"{local.name!r} appears in its own fold operand"
        )
    return _LocalStep(
        local.name, "scan", flow_axis=flow_axis, op=rhs.op, operand=operand
    )


def _local_dependencies(spec: FunctionalSpec, name: str) -> frozenset:
    """Locals read while defining ``name`` (compute + boundary rules)."""
    deps = set()
    for assignment in spec.assignments_for(name):
        if assignment.kind is AssignmentKind.OUTPUT:
            continue
        for access in assignment.rhs.references():
            if isinstance(access.target, Local) and access.target.name != name:
                deps.add(access.target.name)
    return frozenset(deps)


def compile_kernel(spec: FunctionalSpec) -> Optional[CompiledKernel]:
    """Trace ``spec`` into a :class:`CompiledKernel`, or None on fallback.

    Tracing is symbolic -- no bounds or tensors are consulted -- so one
    compiled kernel serves every workload of the spec.  ``None`` means
    the scalar interpreter must be used (the fallback contract); the
    reason is emitted as a ``kernel_fallback`` trace event.
    """
    tracer = get_tracer()
    with span("sim.kernel.compile"):
        try:
            kernel = _compile(spec)
        except KernelFallback as fallback:
            if tracer.enabled:
                tracer.instant(
                    "kernel_fallback",
                    component="sim.kernel",
                    spec=spec.name,
                    reason=fallback.reason,
                )
            return None
    if tracer.enabled:
        tracer.instant(
            "kernel_compile",
            component="sim.kernel",
            spec=spec.name,
            steps=len(kernel.steps),
        )
    return kernel


def _compile(spec: FunctionalSpec) -> CompiledKernel:
    if spec.has_data_dependent_accesses():
        raise KernelFallback("spec has data-dependent accesses")
    _check_traceable_accesses(spec)
    steps = {local.name: _classify_local(spec, local) for local in spec.locals()}
    deps = {name: _local_dependencies(spec, name) for name in steps}
    for name, needed in deps.items():
        missing = needed - set(steps)
        if missing:
            raise KernelFallback(
                f"{name!r} reads undeclared locals {sorted(missing)}"
            )
    ordered: List[_LocalStep] = []
    placed: set = set()
    remaining = dict(deps)
    while remaining:
        ready = sorted(
            name for name, needed in remaining.items() if needed <= placed
        )
        if not ready:
            raise KernelFallback(
                f"cyclic local dependencies among {sorted(remaining)}"
            )
        for name in ready:
            ordered.append(steps[name])
            placed.add(name)
            del remaining[name]
    return CompiledKernel(spec, ordered)


# ---------------------------------------------------------------------------
# Replay: evaluate the lowered program over a concrete domain
# ---------------------------------------------------------------------------


class _Replay:
    """Replay state: the domain grid plus each local's full-domain array."""

    def __init__(self, spec, bounds: Bounds, tensors: Mapping[str, np.ndarray]):
        self.spec = spec
        self.bounds = bounds
        self.tensors = tensors
        self.names = spec.index_names
        self.ranges = [bounds[name] for name in self.names]
        self.shape = tuple(hi - lo + 1 for lo, hi in self.ranges)
        rank = len(self.names)
        # Broadcastable per-axis coordinate vectors (an open meshgrid):
        # evaluating an affine index expression over these broadcasts to
        # exactly the lanes that need it, never the full grid.
        self.env: Dict[str, np.ndarray] = {}
        for axis, (name, (lo, hi)) in enumerate(zip(self.names, self.ranges)):
            vec = np.arange(lo, hi + 1, dtype=np.int64)
            self.env[name] = vec.reshape(
                (1,) * axis + (-1,) + (1,) * (rank - axis - 1)
            )
        self.locals: Dict[str, np.ndarray] = {}

    # -- step execution --------------------------------------------------

    def run_step(self, step: _LocalStep) -> None:
        if step.mode == "pointwise":
            value = np.broadcast_to(
                np.asarray(self.eval(step.rhs, self.env)), self.shape
            )
            self.locals[step.name] = np.ascontiguousarray(value)
            return
        axis = step.flow_axis
        lo = self.ranges[axis][0]
        # The phantom slot one step outside the domain (the paper's
        # ``k.lowerBound`` initialization), resolved through the same
        # boundary clamping an out-of-domain scalar read performs.
        init_coords = [self.env[name] for name in self.names]
        init_coords[axis] = np.full((1,) * len(self.shape), lo - 1, dtype=np.int64)
        init = self.read_local(step.name, init_coords)
        init = np.broadcast_to(
            np.asarray(init),
            self.shape[:axis] + (1,) + self.shape[axis + 1:],
        )
        if step.mode == "propagate":
            value = np.broadcast_to(init, self.shape)
            self.locals[step.name] = np.ascontiguousarray(value)
            return
        term = np.broadcast_to(
            np.asarray(self.eval(step.operand, self.env)), self.shape
        )
        # Seed the accumulate with the boundary value so the fold is
        # exactly the interpreter's left-associated order:
        # ((init op g0) op g1) op ... -- bit-identical for floats too.
        stacked = np.concatenate(
            [init.astype(np.result_type(init, term), copy=False), term],
            axis=axis,
        )
        acc = _UFUNCS[step.op].accumulate(stacked, axis=axis)
        slices = [slice(None)] * len(self.shape)
        slices[axis] = slice(1, None)
        self.locals[step.name] = np.ascontiguousarray(acc[tuple(slices)])

    # -- expression evaluation -------------------------------------------

    def eval(self, expr: Expr, env: Mapping[str, np.ndarray]):
        if isinstance(expr, Const):
            return expr.value
        if isinstance(expr, IndexValue):
            return expr.expr.evaluate(env, self.bounds)
        if isinstance(expr, Access):
            if expr.is_data_dependent:
                raise KernelFallback(
                    f"data-dependent subscript on {expr.target.name!r}"
                )
            if any(sub is WILDCARD for sub in expr.subscripts):
                raise KernelFallback(
                    f"wildcard subscript on {expr.target.name!r}"
                )
            coords = [sub.evaluate(env, self.bounds) for sub in expr.subscripts]
            if isinstance(expr.target, Tensor):
                return self.tensor(expr.target.name)[tuple(coords)]
            return self.read_local(expr.target.name, coords)
        if isinstance(expr, BinOp):
            return _UFUNCS[expr.op](
                self.eval(expr.lhs, env), self.eval(expr.rhs, env)
            )
        if isinstance(expr, Comparison):
            return _COMPARES[expr.op](
                self.eval(expr.lhs, env), self.eval(expr.rhs, env)
            )
        if isinstance(expr, Select):
            # Both branches evaluate over every lane (the scalar path
            # evaluates one per point).  A branch that only raises on
            # lanes the condition discards must not fail the whole
            # replay -- fall back so the lazily-evaluating scalar path
            # decides whether the error is real.
            cond = self.eval(expr.cond, env)
            try:
                if_true = self.eval(expr.if_true, env)
                if_false = self.eval(expr.if_false, env)
            except (IndexError, SpecError) as err:
                raise KernelFallback(
                    f"Select branch not lane-safe: {err}"
                ) from err
            return np.where(cond, if_true, if_false)
        raise KernelFallback(f"untraceable expression {type(expr).__name__}")

    def tensor(self, name: str) -> np.ndarray:
        array = self.tensors.get(name)
        if array is None:
            raise SpecError(f"no data provided for tensor {name!r}")
        return np.asarray(array)

    # -- local reads with boundary clamping ------------------------------

    def read_local(self, name: str, coord_exprs: Sequence) -> np.ndarray:
        """Batched counterpart of the interpreter's ``read``.

        In-domain lanes gather from the local's array; out-of-domain
        lanes resolve through the boundary rule of their *innermost*
        out-of-range axis (matching the scalar clamping order), with
        the rule's right-hand side evaluated only on the lanes that
        need it.
        """
        shape = np.broadcast_shapes(*(np.shape(c) for c in coord_exprs))
        coords = [
            np.broadcast_to(np.asarray(c, dtype=np.int64), shape)
            for c in coord_exprs
        ]
        below = [c < lo for c, (lo, _hi) in zip(coords, self.ranges)]
        above = [c > hi for c, (_lo, hi) in zip(coords, self.ranges)]
        # Innermost out-of-range axis wins, as in the scalar read's
        # ``reversed(index_names)`` walk: compute the selecting axis per
        # lane, outer axes first so later (inner) assignments override.
        selector = np.full(shape, -1, dtype=np.int64)
        out_anywhere = False
        for axis in range(len(self.names)):
            out = below[axis] | above[axis]
            if out.any():
                out_anywhere = True
                selector = np.where(out, axis, selector)
        array = self.locals.get(name)
        if array is not None:
            gather = tuple(
                np.clip(c - lo, 0, max(hi - lo, 0))
                for c, (lo, hi) in zip(coords, self.ranges)
            )
            result = np.asarray(array[gather])
            if not out_anywhere:
                return result
            result = result.copy()
        else:
            # A recurrence step reading its own phantom boundary slot:
            # legal only when every lane resolves via a boundary rule.
            if bool((selector < 0).any()):
                raise KernelFallback(f"read of {name!r} before definition")
            result = np.zeros(shape, dtype=np.int64)
        for axis, axis_name in enumerate(self.names):
            lo, hi = self.ranges[axis]
            for side, side_mask, clamped in (
                ("lb", below[axis], lo),
                ("ub", above[axis], hi),
            ):
                mask = side_mask & (selector == axis)
                if not mask.any():
                    continue
                rule = self._boundary_rule(name, axis_name, side)
                if rule is None:
                    raise KernelFallback(
                        f"read of {name!r} beyond axis {axis_name!r} has no"
                        f" {side!r} boundary rule"
                    )
                # Lane-compress: outer axes keep their (possibly still
                # out-of-range) coordinates for recursive resolution,
                # exactly like the scalar read re-entering itself.
                lane_env = {
                    n: coords[a][mask] for a, n in enumerate(self.names)
                }
                lane_env[axis_name] = np.full(
                    int(mask.sum()), clamped, dtype=np.int64
                )
                value = np.asarray(self.eval(rule.rhs, lane_env))
                value = np.broadcast_to(value, lane_env[axis_name].shape)
                promoted = np.result_type(result.dtype, value.dtype)
                if promoted != result.dtype:
                    result = result.astype(promoted)
                result[mask] = value
        return result

    def _boundary_rule(
        self, name: str, axis_name: str, side: str
    ) -> Optional[Assignment]:
        for assignment in self.spec.assignments_for(name):
            if assignment.kind is AssignmentKind.OUTPUT:
                continue
            if assignment.boundary_conditions().get(axis_name) == side:
                return assignment
        return None

    # -- output assembly -------------------------------------------------

    def outputs(self) -> Dict[str, np.ndarray]:
        cells: Dict[str, List[Tuple[List[np.ndarray], np.ndarray]]] = {
            t.name: [] for t in self.spec.output_tensors()
        }
        for assignment in self.spec.assignments:
            if assignment.kind is not AssignmentKind.OUTPUT:
                continue
            fired = self._output_env(assignment)
            if fired is None:
                continue
            env = fired
            coords = [
                sub.evaluate(env, self.bounds)
                for sub in assignment.lhs.subscripts
            ]
            value = self.eval(assignment.rhs, env)
            sub_shape = np.broadcast_shapes(
                *(np.shape(c) for c in coords), np.shape(value)
            )
            coords = [
                np.broadcast_to(np.asarray(c, dtype=np.int64), sub_shape).reshape(-1)
                for c in coords
            ]
            value = np.broadcast_to(np.asarray(value), sub_shape).reshape(-1)
            cells[assignment.lhs.target.name].append((coords, value))
        return {
            name: _assemble(pieces) for name, pieces in cells.items()
        }

    def _output_env(
        self, assignment: Assignment
    ) -> Optional[Dict[str, np.ndarray]]:
        """The firing sub-domain of an output rule, or None when its
        bound-marker pins are jointly unsatisfiable (never fires)."""
        from ..core.expr import BoundMarker

        pins: Dict[str, int] = {}
        for access in assignment.rhs.references():
            for sub in access.subscripts:
                if isinstance(sub, BoundMarker):
                    lo, hi = self.bounds[sub.index.name]
                    want = lo if sub.which == "lb" else hi
                    if pins.get(sub.index.name, want) != want:
                        return None
                    pins[sub.index.name] = want
        env = dict(self.env)
        rank = len(self.names)
        for axis, name in enumerate(self.names):
            if name in pins:
                env[name] = np.full(
                    (1,) * rank, pins[name], dtype=np.int64
                )
        return env


def _assemble(
    pieces: Sequence[Tuple[List[np.ndarray], np.ndarray]]
) -> np.ndarray:
    """``_dict_to_array``'s batched twin: zero-filled dense array sized
    to the maximum written coordinate, int64-or-wider, float64 when any
    value is floating."""
    if not pieces:
        return np.zeros((0,))
    rank = len(pieces[0][0])
    shape = tuple(
        int(max(coords[axis].max() for coords, _values in pieces)) + 1
        for axis in range(rank)
    )
    dtype = np.result_type(
        *(values.dtype for _coords, values in pieces), np.int64
    )
    if any(
        np.issubdtype(values.dtype, np.floating) for _coords, values in pieces
    ):
        dtype = np.dtype(np.float64)
    out = np.zeros(shape, dtype=dtype)
    for coords, values in pieces:
        out[tuple(coords)] = values
    return out


# ---------------------------------------------------------------------------
# The kernel memo
# ---------------------------------------------------------------------------

_MEMO_LIMIT = 64
_kernel_memo: Dict[int, Tuple[object, Optional[CompiledKernel]]] = {}


def cached_kernel(spec: FunctionalSpec) -> Optional[CompiledKernel]:
    """Per-spec-identity memo over :func:`compile_kernel`.

    Holds a strong reference to each traced spec so a recycled ``id``
    can never alias a dead spec's kernel (the same discipline as
    ``CompileCache.fingerprint_of``).  ``None`` -- the spec falls back to
    the scalar interpreter -- is memoized too.
    """
    cached = _kernel_memo.get(id(spec))
    if cached is not None and cached[0] is spec:
        return cached[1]
    kernel = compile_kernel(spec)
    if len(_kernel_memo) >= _MEMO_LIMIT:
        _kernel_memo.clear()
    _kernel_memo[id(spec)] = (spec, kernel)
    return kernel


def replay_interpret(
    spec: FunctionalSpec,
    bounds: Bounds,
    tensors: Mapping[str, np.ndarray],
) -> Optional[Dict[str, np.ndarray]]:
    """Kernel-backed ``interpret``, or None when the scalar path must run.

    :func:`cached_kernel` supplies the compiled kernel.  Replay-time
    fallbacks -- a workload needing a boundary rule the spec lacks --
    also return None so the scalar interpreter can raise its precise
    diagnostic.
    """
    kernel = cached_kernel(spec)
    if kernel is None:
        return None
    try:
        return kernel.replay(bounds, tensors)
    except KernelFallback:
        return None


def skip_mask(
    spec: FunctionalSpec,
    bounds: Bounds,
    tensors: Mapping[str, np.ndarray],
    condition: Expr,
) -> np.ndarray:
    """Where ``condition`` holds over the whole domain, as a flat bool mask
    in lexicographic point order (``bounds.domain(spec.index_names)``).

    A skip condition is evaluated with the same batched evaluator as the
    spec's rules; a whole-row test (:func:`~repro.core.sparsity.
    row_operand`) compares the row's any-nonzero flag.  Raises
    :class:`KernelFallback` for what the caller must evaluate point by
    point: a data-dependent subscript, a local read, any other wildcard
    access, or an out-of-range tensor read (whose :class:`SpecError`
    names the coordinates, which a batched read cannot).
    """
    for access in condition.references():
        if isinstance(access.target, Local):
            raise KernelFallback(f"skip condition reads {access.target.name!r}")
    replayer = _Replay(spec, bounds, tensors)
    env = replayer.env
    row = row_operand(condition)
    try:
        if row is None:
            value = replayer.eval(condition, env)
        else:
            if row.is_data_dependent:
                raise KernelFallback(
                    f"data-dependent subscript on {row.target.name!r}"
                )
            wild = [axis for axis, s in enumerate(row.subscripts) if s is WILDCARD]
            flags = replayer.tensor(row.target.name).astype(bool).any(
                axis=tuple(wild)
            )
            coords = [
                s.evaluate(env, bounds) for s in row.subscripts if s is not WILDCARD
            ]
            value = _COMPARES[condition.op](
                flags[tuple(coords)].astype(np.int64),
                replayer.eval(condition.rhs, env),
            )
    except IndexError as err:
        raise KernelFallback(f"skip condition read out of range: {err}") from err
    mask = np.broadcast_to(np.asarray(value, dtype=bool), replayer.shape)
    return mask.reshape(-1)


def condition_holds(condition: Expr, ctx: EvalContext) -> bool:
    """Evaluate a skip condition at one point; a whole-row test
    (:func:`~repro.core.sparsity.row_operand`) reads its row through
    ``ctx.read`` and compares the row's any-nonzero flag."""
    row = row_operand(condition)
    if row is None:
        return bool(condition.evaluate(ctx))
    coords = tuple(
        slice(None) if s is WILDCARD else int(s.evaluate(ctx.env, ctx.bounds))
        for s in row.subscripts
    )
    value = 1 if np.asarray(ctx.read(row.target, coords)).any() else 0
    return Comparison._OPS[condition.op](value, condition.rhs.evaluate(ctx))


def skipped_mask(
    spec: FunctionalSpec,
    bounds: Bounds,
    tensors: Mapping[str, np.ndarray],
    conditions: Sequence[Expr],
    read,
    batched: bool = True,
) -> np.ndarray:
    """Where any of ``conditions`` holds, as a flat bool mask over the
    rows of ``bounds.grid(spec.index_names)``.

    With ``batched``, each condition is evaluated over the whole grid at
    once (:func:`skip_mask`); a condition that raises
    :class:`KernelFallback` is evaluated point at a time *on its own*,
    reading tensors through ``read`` (:func:`condition_holds`), and OR-ed
    into the batched mask -- one unsupported condition never discards the
    batched work of its supported siblings.
    """
    order = spec.index_names
    skipped = np.zeros(bounds.point_count(order), dtype=bool)
    pointwise = list(conditions)
    if batched:
        pointwise = []
        for condition in conditions:
            try:
                skipped |= skip_mask(spec, bounds, tensors, condition)
            except KernelFallback:
                pointwise.append(condition)
    if pointwise:
        for index, point in enumerate(bounds.grid(order).tolist()):
            ctx = EvalContext(dict(zip(order, point)), bounds, read)
            if any(condition_holds(c, ctx) for c in pointwise):
                skipped[index] = True
    return skipped
