"""Cycle-level simulation of generated spatial arrays.

:class:`SpatialArraySim` executes a :class:`~repro.core.compiler.CompiledDesign`
the way the generated hardware would (paper Figure 11): every timestep,
each PE reconstructs its tensor-iteration point by multiplying its
space-time coordinates through ``T^-1``; if the point is live it performs
its assignments, pulling operands from PE-to-PE connections or register
files, and counting busy/idle cycles and IO traffic.

Dense designs execute the full iteration domain in closed form: the
schedule is one ``points @ T.T`` product, busy/idle cycles, regfile
traffic and MACs follow from it and the spec's boundary rules, the
dependences the per-point loop would honour implicitly are checked
explicitly (same :class:`SpecError`), and the outputs come from the
reference kernel (:mod:`repro.sim.kernel`).  All but the outputs depend
on the design alone, so a memo schedules each design once however many
workloads run on it.  The per-point loop stays as
the ``vectorize=False`` reference, and answers for the spec shapes the
closed form cannot see, such as data-dependent subscripts or a ``Select``;
it steps the spec interpreter one point at a time in schedule order.

Sparse designs -- those compiled with pessimistic ``Skip`` s -- first
*compress* each skipped iterator against the actual tensor contents (only
nonzero coordinates occupy iteration slots) and schedule the compressed
points; workload imbalance then appears exactly as in the paper's
Figure 6: short fibers leave their PEs idle while long fibers run on.
When the design has a load-balancing scheme, the balancer simulator
redistributes that work and shortens the schedule.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..core.compiler import CompiledDesign
from ..core.expr import Local, Select, SpecError
from ..core.functionality import AssignmentKind, _dict_to_array, _Interpreter
from ..obs.trace import get_tracer
from .balancer import spatial_balanced_makespan
from .counters import PerfCounters
from . import kernel as _kernel


class SimResult:
    """Outputs plus performance statistics of one simulated invocation."""

    def __init__(
        self,
        outputs: Dict[str, np.ndarray],
        counters: PerfCounters,
        schedule_length: int,
    ):
        self.outputs = outputs
        self.counters = counters
        self.schedule_length = schedule_length

    @property
    def cycles(self) -> int:
        return self.counters.cycles

    @property
    def utilization(self) -> float:
        return self.counters.pe_utilization

    def __repr__(self) -> str:
        return f"SimResult(cycles={self.cycles}, util={self.utilization:.3f})"


class SpatialArraySim:
    """Simulator for one compiled spatial-array design.

    Parameters
    ----------
    design:
        The compiled design to execute.
    fill_drain_overhead:
        Extra cycles charged for pipeline fill/drain per invocation.  The
        paper attributes part of Stellar-Gemmini's ~10% utilization gap to
        per-tile start overheads and global start/stall signals
        (Section VI-B); handwritten baselines set this to 0.
    memo:
        An optional :class:`repro.exec.cache.CompileCache`.  When given,
        it answers two memory-only stages.  ``sim.dense`` holds a dense
        design's closed-form schedule per ``(spec, bounds, transform)``
        (:func:`_dense_schedule`), so the layers of a workload that share
        a design schedule it once; only ``vectorize=True`` runs read it.
        ``sim.reference`` holds the reference outputs per ``(spec,
        bounds, tensors)``, so the dense and sparse candidates of one
        workload, and its balancing variants, compute them once.  Whole
        runs are never memoized here; the evaluation engine memoizes
        each design point's finished figures (the ``dse.point`` stage).
    vectorize:
        When ``False``, dense runs take the exact per-point loop (which
        steps the spec interpreter) instead of the closed form, and skip
        conditions are evaluated point at a time instead of by the
        kernel's batched evaluator (:func:`repro.sim.kernel.skip_mask`).
        The two paths are required to agree bit-for-bit in outputs,
        every counter and the schedule length -- this knob exists so the
        differential test suite and the ``sim.scalar_vs_vectorized``
        fuzz oracle can prove it on the same workload.  Pass
        ``memo=None`` alongside, or the content-keyed reference memo
        will answer for the other path.

    Reference outputs -- the sparse path's outputs and the closed-form
    dense path's -- come from
    :meth:`~repro.core.functionality.FunctionalSpec.interpret`, which
    replays the trace-compiled batched kernel (:mod:`repro.sim.kernel`)
    whenever the spec is traceable; ``interpret(kernel=False)`` is the
    scalar ground truth the differential suite compares against.
    """

    def __init__(
        self,
        design: CompiledDesign,
        fill_drain_overhead: int = 0,
        memo=None,
        vectorize: bool = True,
    ):
        self.design = design
        self.fill_drain_overhead = fill_drain_overhead
        self.memo = memo
        self.vectorize = vectorize

    # ------------------------------------------------------------------

    def run(self, tensors: Mapping[str, np.ndarray]) -> SimResult:
        tensors = {name: np.asarray(arr) for name, arr in tensors.items()}
        if self._is_sparse():
            return self._run_sparse(tensors)
        return self._run_dense(tensors)

    def _is_sparse(self) -> bool:
        return any(not skip.optimistic for skip in self.design.sparsity)

    # ------------------------------------------------------------------
    # Dense execution: exact space-time propagation
    # ------------------------------------------------------------------

    def _run_dense(self, tensors: Mapping[str, np.ndarray]) -> SimResult:
        design = self.design
        schedule = None
        if self.vectorize:
            from ..exec.cache import memo

            schedule = memo(
                self.memo,
                "sim.dense",
                (design.spec, design.bounds, design.transform),
                lambda: _dense_schedule(design),
            )
        if schedule is None:
            return self._run_dense_loop(tensors)
        return self._run_dense_batched(tensors, schedule)

    def _run_dense_batched(
        self, tensors: Mapping[str, np.ndarray], schedule: DenseSchedule
    ) -> SimResult:
        """The dense run in closed form, from the design's
        :func:`_dense_schedule`; only the outputs depend on ``tensors``."""
        design = self.design
        spec = design.spec
        pe_count = design.array.pe_count
        n, length, steps, occupancy, reads, writes = schedule

        counters = PerfCounters()
        counters.pe_busy_cycles = n
        counters.pe_idle_cycles = length * pe_count - n
        counters.macs = n * max(1, spec.macs_per_point())
        counters.regfile_reads = reads
        counters.regfile_writes = writes
        tracer = get_tracer()
        if tracer.enabled:
            tracer.begin(
                "dense_run", component="sim.array",
                cycle=0, pes=pe_count, timesteps=length,
            )
            for step_index, (step, live) in enumerate(
                zip(steps.tolist(), occupancy.tolist())
            ):
                tracer.instant(
                    "timestep", component="sim.array",
                    cycle=step_index, live_pes=live, time=step,
                )
        return self._finish_dense(
            self._reference_outputs(tensors), counters, length
        )

    def _run_dense_loop(self, tensors: Mapping[str, np.ndarray]) -> SimResult:
        """The exact per-point reference: every timestep, each live PE
        performs its assignments, pulling operands produced earlier."""
        design = self.design
        spec = design.spec
        bounds = design.bounds
        counters = PerfCounters()
        points, times = _dense_image(design)

        by_time: Dict[Tuple[int, ...], List[Tuple[int, ...]]] = {}
        for key, row in zip(times.tolist(), points.tolist()):
            by_time.setdefault(tuple(key), []).append(tuple(row))

        outputs: Dict[str, Dict[Tuple[int, ...], object]] = {
            t.name: {} for t in spec.output_tensors()
        }
        interpreter = _Interpreter(
            spec, bounds, tensors, unproduced=_unproduced_read
        )
        pe_count = design.array.pe_count
        macs_per_point = max(1, spec.macs_per_point())

        if times.shape[1] == 1:
            t_min, t_max = min(by_time)[0], max(by_time)[0]
            timesteps = [(t,) for t in range(t_min, t_max + 1)]
        else:
            timesteps = sorted(by_time)
        tracer = get_tracer()
        if tracer.enabled:
            tracer.begin(
                "dense_run", component="sim.array",
                cycle=0, pes=pe_count, timesteps=len(timesteps),
            )
        for step_index, t in enumerate(timesteps):
            live = sorted(by_time.get(t, ()))
            counters.pe_busy_cycles += len(live)
            counters.pe_idle_cycles += pe_count - len(live)
            if tracer.enabled:
                tracer.instant(
                    "timestep", component="sim.array",
                    cycle=step_index, live_pes=len(live), time=list(t),
                )
            for point in live:
                reads, writes = interpreter.step(point, outputs)
                counters.regfile_reads += reads
                counters.regfile_writes += writes
                counters.macs += macs_per_point

        result_outputs = {
            name: _dict_to_array(cells, tensors)
            for name, cells in outputs.items()
        }
        return self._finish_dense(result_outputs, counters, len(timesteps))

    def _finish_dense(
        self, outputs: Dict[str, np.ndarray], counters: PerfCounters,
        schedule: int,
    ) -> SimResult:
        """Charge fill/drain and close the trace span of a dense run."""
        counters.cycles = schedule + self.fill_drain_overhead
        counters.pe_idle_cycles += (
            self.fill_drain_overhead * self.design.array.pe_count
        )
        tracer = get_tracer()
        if tracer.enabled:
            tracer.end(
                "dense_run", component="sim.array",
                cycle=counters.cycles, macs=counters.macs,
            )
        return SimResult(outputs, counters, schedule)

    # ------------------------------------------------------------------
    # Sparse execution: compressed scheduling
    # ------------------------------------------------------------------

    def _run_sparse(self, tensors: Mapping[str, np.ndarray]) -> SimResult:
        design = self.design
        spec = design.spec
        transform = design.transform
        counters = PerfCounters()

        tracer = get_tracer()
        valid = self._valid_points(tensors)
        if tracer.enabled:
            tracer.instant(
                "sparse_compress", component="sim.array", cycle=0,
                valid_points=len(valid),
                domain_points=design.bounds.point_count(spec.index_names),
            )

        if not len(valid):
            # No surviving work: outputs are still well-defined (all the
            # boundary initializations flow straight through).
            return SimResult(self._reference_outputs(tensors), counters, 0)

        # Schedule the compressed points through the transform -- one
        # matrix product for the whole workload; the first space
        # coordinate (the row) drains a work queue, and *all* time
        # coordinates linearize into one lexicographic cycle number
        # (a transform folding e.g. a batch axis into a second time
        # dimension schedules each batch after the previous one).
        st = transform.image(self._compress_points(valid))
        rows = st[:, 0]
        times = _linearize_times(st[:, transform.space_dims:])

        schedule_length = int(times.max()) - int(times.min()) + 1
        pe_count = max(1, design.array.pe_count)
        macs_per_point = max(1, spec.macs_per_point())
        work = len(valid)

        if not design.balancing.is_disabled() and design.balancer is not None:
            # After pruning, rows drain independent work queues; balancing
            # shortens the longest queue.  The pipeline skew (schedule time
            # not attributable to queue depth) is unaffected by balancing.
            slot_pairs = np.unique(np.stack([rows, times], axis=1), axis=0)
            row_lo = int(slot_pairs[:, 0].min())
            row_hi = int(slot_pairs[:, 0].max())
            per_row = np.bincount(
                slot_pairs[:, 0] - row_lo, minlength=row_hi - row_lo + 1
            ).tolist()
            skew = schedule_length - max(per_row)
            balanced = spatial_balanced_makespan(
                per_row, design.balancer.granularity
            )
            cycles = min(schedule_length, balanced.cycles + skew)
            counters.balancer_shifts = balanced.shifts
            if tracer.enabled:
                tracer.instant(
                    "balanced", component="sim.array", cycle=cycles,
                    shifts=balanced.shifts, unbalanced_cycles=schedule_length,
                )
        else:
            cycles = schedule_length

        counters.cycles = cycles + self.fill_drain_overhead
        counters.macs = work * macs_per_point
        counters.pe_busy_cycles = work
        counters.pe_idle_cycles = max(0, counters.cycles * pe_count - work)
        counters.regfile_reads, counters.regfile_writes = design.array.io_counts

        # Functional outputs: skipping zero-valued iterations never changes
        # results, so the reference interpreter provides them.
        outputs = self._reference_outputs(tensors)
        if tracer.enabled:
            tracer.complete(
                "sparse_run", component="sim.array",
                start_cycle=0, duration=counters.cycles,
                work=work, utilization=round(counters.pe_utilization, 4),
            )
        return SimResult(outputs, counters, schedule_length)

    def _reference_outputs(self, tensors: Mapping[str, np.ndarray]):
        """Outputs from the reference semantics, memoized per workload
        under the ``sim.reference`` stage.

        ``interpret`` replays the spec's trace-compiled kernel when the
        spec is traceable and walks it point by point otherwise; the two
        are byte-identical, so the memo is keyed on content only.
        """
        design = self.design

        def build():
            return design.spec.interpret(design.bounds, tensors)

        from ..exec.cache import memo

        return memo(
            self.memo, "sim.reference", (design.spec, design.bounds, tensors), build
        )

    def _valid_points(self, tensors: Mapping[str, np.ndarray]) -> np.ndarray:
        """Iteration points that survive the pessimistic skip conditions,
        as an ``(N, rank)`` array in lexicographic point order.

        With ``vectorize``, each condition the kernel's batched evaluator
        takes is evaluated over the whole domain at once, and any other
        point at a time (:func:`repro.sim.kernel.skipped_mask`).
        """
        spec = self.design.spec
        bounds = self.design.bounds
        skipped = _kernel.skipped_mask(
            spec, bounds, tensors,
            [s.condition for s in self.design.sparsity if not s.optimistic],
            _skip_reader(tensors),
            batched=self.vectorize,
        )
        return bounds.grid(spec.index_names)[~skipped]

    def _compress_points(self, valid: np.ndarray) -> np.ndarray:
        """The compressed coordinates of ``valid``, row for row.

        Every skipped iterator's value becomes its rank among the
        distinct valid values sharing its context -- the uncompressed
        values of the iterators it depends on, i.e. the fiber it is
        compressed within (the expansion-function inverse of Section
        IV-B).  One sort ranks every fiber at once, as a CSR ``indptr``
        does: each (context, value) pair is one linear key with the
        value least significant, so the sorted distinct keys list each
        fiber's values in ascending order.
        """
        order = self.design.spec.index_names
        bounds = self.design.bounds
        expansion = self.design.sparsity.expansion_dependencies()
        axis_of = {name: axis for axis, name in enumerate(order)}
        packed = valid.copy()
        for name in order:
            if name not in expansion:
                continue
            columns = sorted(axis_of[d] for d in expansion[name] if d in axis_of)
            columns.append(axis_of[name])
            ranges = [bounds[order[column]] for column in columns]
            lows = np.array([lo for lo, _hi in ranges], dtype=np.int64)
            spans = tuple(hi - lo + 1 for lo, hi in ranges)
            keys = np.ravel_multi_index(tuple((valid[:, columns] - lows).T), spans)
            slots, slot_of = np.unique(keys, return_inverse=True)
            # A fiber's first slot is the first key at or after its
            # value-0 key.
            first = np.searchsorted(slots, slots - slots % spans[-1])
            packed[:, axis_of[name]] = (np.arange(len(slots)) - first)[slot_of]
        return packed


def _linearize_times(times_nd: np.ndarray) -> np.ndarray:
    """Collapse multi-dimensional time coordinates into one lexicographic
    cycle number.

    Mixed-radix over the observed span of each time axis (outermost axis
    most significant), so tuple order -- the dense path's ``sorted(by_time)``
    -- is preserved and every (outer, inner) combination occupies its own
    schedule slot.  A single time axis passes through unchanged.
    """
    if times_nd.shape[1] == 1:
        return times_nd[:, 0]
    mins = times_nd.min(axis=0)
    spans = times_nd.max(axis=0) - mins + 1
    strides = np.ones(len(spans), dtype=np.int64)
    for axis in range(len(spans) - 2, -1, -1):
        strides[axis] = strides[axis + 1] * spans[axis + 1]
    return ((times_nd - mins) * strides).sum(axis=1)


#: ``(point_count, schedule_length, steps, occupancy, regfile_reads,
#: regfile_writes)`` of a dense run: ``steps`` holds each timestep's
#: time tuple and ``occupancy`` its live PE count, one row per cycle.
DenseSchedule = Tuple[int, int, np.ndarray, np.ndarray, int, int]


def _dense_image(design: CompiledDesign) -> Tuple[np.ndarray, np.ndarray]:
    """The domain grid in point order and each point's time coordinates.

    The whole domain maps through ``T`` in one matrix product, and the
    PE-side ``T^-1`` round-trip (each PE's IO request generator) is one
    more product against the integer numerator matrix -- exact, no
    per-point Fractions.  A point that does not come back raises.
    """
    transform = design.transform
    points = design.bounds.grid(design.spec.index_names)
    st = transform.image(points)
    numerators, denominator = transform.integer_inverse()
    scaled = st @ np.array(numerators, dtype=np.int64).T
    bad = (scaled % denominator != 0).any(axis=1) | (
        scaled // denominator != points
    ).any(axis=1)
    if bad.any():
        point = tuple(int(v) for v in points[int(np.argmax(bad))])
        raise SpecError(
            f"space-time transform is not invertible on point {point}"
        )
    return points, st[:, transform.space_dims :]


def _dense_schedule(design: CompiledDesign) -> Optional[DenseSchedule]:
    """The closed-form schedule of a dense run, or None when the loop
    must answer.

    Everything but the outputs follows from ``(spec, bounds,
    transform)`` alone: every point is one busy PE-cycle, and regfile
    traffic is the number of points where each boundary rule applies.
    Outputs come from the reference kernel, which the loop is required
    to match once the schedule is causal -- so causality, which the
    loop enforces implicitly by failing on a read of a value not yet
    produced, is checked explicitly here (:func:`_dense_accesses`) and
    its :class:`SpecError` raised.  The value holds no per-point array,
    so memoizing it per design costs a few schedule-length rows.
    """
    spec = design.spec
    if not _batchable(spec):
        return None
    points, times = _dense_image(design)
    n = len(points)

    # Multi-dimensional time (e.g. a batched matmul folding the batch
    # axis into a second time dimension) orders timesteps
    # lexicographically; each occupied time tuple is one cycle.  With
    # one time dimension every cycle of the span counts, idle or not.
    if times.shape[1] == 1:
        t_min = int(times.min())
        occupancy = np.bincount(times[:, 0] - t_min)
        steps = t_min + np.arange(len(occupancy))[:, None]
    else:
        steps, occupancy = np.unique(times, axis=0, return_counts=True)
    # The loop visits points by (time tuple, point); grid rows are
    # already in point order, so a stable sort by time gives the rank.
    rank = np.empty(n, dtype=np.int64)
    rank[np.lexsort(times.T[::-1])] = np.arange(n)

    accesses = _dense_accesses(spec, design.bounds, points, rank)
    if accesses is None:
        return None
    reads, writes = accesses
    return n, len(occupancy), steps, occupancy, reads, writes


def _has_select(expr) -> bool:
    return isinstance(expr, Select) or any(
        _has_select(child) for child in expr.children()
    )


def _batchable(spec) -> bool:
    """Does :func:`_dense_accesses` see every local read the loop makes?

    Not with a data-dependent subscript, nor with a ``Select`` (the loop
    never reads its untaken branch), a boundary rule that reads a local
    (out-of-domain resolution reads it at a clamped point), or a local
    whose rank is not the spec's.
    """
    if spec.has_data_dependent_accesses():
        return False
    rank = len(spec.index_names)
    for assignment in spec.assignments:
        if _has_select(assignment.rhs):
            return False
        local_reads = [
            access for access in assignment.rhs.references()
            if isinstance(access.target, Local)
        ]
        if any(access.target.rank != rank for access in local_reads):
            return False
        if (
            local_reads
            and assignment.kind is not AssignmentKind.OUTPUT
            and assignment.boundary_conditions()
        ):
            return False
    return True


def _subscript_columns(subscripts, points, rows, axis_of, bounds) -> np.ndarray:
    """Affine ``subscripts`` evaluated at grid ``rows``, one column each."""
    env = {name: points[rows, axis] for name, axis in axis_of.items()}
    columns = [
        np.broadcast_to(np.asarray(sub.evaluate(env, bounds), dtype=np.int64),
                        rows.shape)
        for sub in subscripts
    ]
    if not columns:
        return np.empty((len(rows), 0), dtype=np.int64)
    return np.stack(columns, axis=1)


def _dense_accesses(
    spec, bounds, points: np.ndarray, rank: np.ndarray
) -> Optional[Tuple[int, int]]:
    """Regfile ``(reads, writes)`` of a dense run, after checking causality.

    One boolean mask per assignment mirrors the loop's access pattern: a
    rule *applies* where its bound markers match; a local's rule *stores*
    where it is the first applying rule of that local (the boundary
    rules of a recurrence-defined local never do); and a right-hand side
    is evaluated where its rule stores, or, for an output, wherever it
    applies.  Each in-domain local read must find its value produced
    earlier in the loop's order: at a point of lower ``rank`` (time
    tuple, then point), or at the same point by an earlier rule.  The
    first read that does not raises the loop's own :class:`SpecError`.

    Returns None when the kernel cannot stand in for the loop's outputs:
    a read that is causal in time but runs backwards in point order (the
    reference interpreter's order), or an output cell written twice (the
    last write wins, and the two orders could pick different ones).
    """
    names = spec.index_names
    axis_of = {name: axis for axis, name in enumerate(names)}
    lo = np.array([bounds[name][0] for name in names], dtype=np.int64)
    hi = np.array([bounds[name][1] for name in names], dtype=np.int64)
    n = len(points)
    never = len(spec.assignments)  # the producer stage of an unstored cell
    computed = spec.computed_locals()
    producer: Dict[str, np.ndarray] = {}
    evaluated = []
    written: Dict[str, List[np.ndarray]] = {}
    reads = writes = 0
    for index, assignment in enumerate(spec.assignments):
        applies = np.ones(n, dtype=bool)
        for name, which in assignment.pinned_bounds():
            low, high = bounds[name]
            applies &= points[:, axis_of[name]] == (low if which == "lb" else high)
        if assignment.kind is AssignmentKind.OUTPUT:
            rows = np.flatnonzero(applies)
            writes += len(rows)
            evaluated.append((index, assignment, rows))
            written.setdefault(assignment.lhs.target.name, []).append(
                _subscript_columns(
                    assignment.lhs.subscripts, points, rows, axis_of, bounds
                )
            )
            continue
        name = assignment.variable.name
        if assignment.kind is not AssignmentKind.COMPUTE and name in computed:
            continue
        if assignment.kind is AssignmentKind.INPUT:
            reads += int(applies.sum())
        stage = producer.setdefault(name, np.full(n, never))
        stores = applies & (stage == never)
        stage[stores] = index
        evaluated.append((index, assignment, np.flatnonzero(stores)))

    first = None  # ((rank, rule, operand), local, cell) of the earliest bad read
    backwards = False
    for index, assignment, rows in evaluated:
        for position, access in enumerate(assignment.rhs.references()):
            if not isinstance(access.target, Local):
                continue
            coords = _subscript_columns(
                access.subscripts, points, rows, axis_of, bounds
            )
            inside = ((coords >= lo) & (coords <= hi)).all(axis=1)
            src = rows[inside]
            cell = np.ravel_multi_index(tuple((coords[inside] - lo).T), hi - lo + 1)
            made = producer.get(access.target.name)
            stage = np.full(len(cell), never) if made is None else made[cell]
            unready = (stage == never) | ((cell == src) & (stage >= index))
            late = unready | (rank[cell] > rank[src])
            if late.any():
                hit = np.flatnonzero(late)
                best = hit[np.argmin(rank[src[hit]])]
                key = (int(rank[src[best]]), index, position)
                if first is None or key < first[0]:
                    where = tuple(int(v) for v in coords[inside][best])
                    first = (key, access.target.name, where)
            elif (cell > src).any():
                backwards = True
    if first is not None:
        _, name, where = first
        raise _unproduced_read(name, where)
    if backwards:
        return None
    for blocks in written.values():
        _, writes_per_cell = np.unique(
            np.concatenate(blocks), axis=0, return_counts=True
        )
        if (writes_per_cell > 1).any():
            return None
    return reads, writes


def _unproduced_read(name: str, coords: Tuple[int, ...]) -> SpecError:
    return SpecError(
        f"read of {name} at {coords} before its producing timestep"
        " -- the space-time transform violates a dependency"
    )


def _skip_reader(tensors: Mapping[str, np.ndarray]):
    """The tensor read of a point-at-a-time skip condition: a missing
    tensor or an out-of-range read raises the :class:`SpecError` that
    names the tensor (and the coordinates, ``->`` for a wildcard)."""

    def read(symbol, coords):
        array = tensors.get(symbol.name)
        if array is None:
            raise SpecError(f"no data provided for tensor {symbol.name!r}")
        try:
            return array[coords]
        except IndexError as err:
            where = ", ".join(
                "->" if isinstance(c, slice) else str(c) for c in coords
            )
            raise SpecError(
                f"skip condition reads tensor {symbol.name!r} at"
                f" out-of-range coordinates ({where})"
                f" (shape {np.asarray(array).shape})"
            ) from err

    return read


def differential_run(
    design: CompiledDesign,
    tensors: Mapping[str, np.ndarray],
    vectorize: bool = True,
) -> SimResult:
    """Run ``design`` with memoization disabled -- the oracle entry point.

    Differential comparisons of the simulator's redundant evaluation
    strategies (scalar vs vectorized skip evaluation) are only
    meaningful when each invocation actually exercises its own path;
    the content-keyed ``sim.reference`` memo would otherwise answer for
    both sides.  This helper pins ``memo=None`` so callers (the
    ``repro.fuzz`` oracles, the differential test suite) cannot get that
    wrong.
    """
    return SpatialArraySim(design, memo=None, vectorize=vectorize).run(tensors)
