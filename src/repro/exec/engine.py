"""Parallel evaluation of design-space sweeps.

:func:`evaluate_sweep` is the one execution core of every sweep -- an
explore sweep, a suite, an autotuning rung, the fuzz oracles: it takes
an ordered candidate list (one dict per design point) and evaluates
each point -- compile, simulate, estimate area -- either inline or
fanned out over a process pool.  Its outcome dicts are the rows every
caller ranks and reports.  Three properties the callers rely on:

* **determinism** -- outcomes are returned in candidate order no matter
  how the pool interleaves them, so parallel and serial sweeps produce
  identical results;
* **error discipline** -- only :class:`~repro.core.expr.SpecError` (and
  its :class:`~repro.analysis.diagnostics.AnalysisError` subclass)
  raised while *compiling* marks a point illegal; simulator and area
  model failures always propagate, because silently dropping a crashed
  point would shrink the Pareto frontier without anyone noticing;
* **observability** -- when the parent's profiler/tracer are enabled,
  each worker profiles and traces locally and the parent merges the
  per-point records back, so ``--profile`` and trace exports describe
  the whole fleet.

Every process-pool sweep runs on one worker model, :class:`ResidentPool`:
a ``jobs > 1`` sweep without a caller-supplied pool gets a one-shot
pool that is closed when the sweep returns, while the serve daemon and
the fuzz harness keep one alive across sweeps.  A worker's only state
is its long-lived :class:`~repro.exec.cache.CompileCache` (with its own
handle on the parent's persistent :class:`~repro.exec.store.DiskStore`
root when there is one -- atomic entry writes make sharing the root
safe).  Workers never share the parent's cache object: each task runs
on fresh :class:`~repro.exec.cache.CacheStats` and
:class:`~repro.exec.store.DiskStoreStats` tallies and ships them home
with its profiler and tracer, and the parent folds each one into its
own with that type's ``merge``.

With a cache, each design point's finished figures are memoized whole
under the ``dse.point`` stage (:func:`_evaluate_candidate`), so a warm
or duplicate point costs one lookup.

A candidate is the whole design point: its own ``bounds``, its own
operand mapping ``tensors``, its own ``skip_illegal`` policy, and
``want_energy`` / ``want_digest`` flags asking for an energy estimate
and a canonical output fingerprint in the outcome.  The sweep itself
fixes only the spec and the element width, so an explore sweep (one
workload, many transforms), a suite (one design, many layers) and an
autotuning rung (both crossed) are the same call.  Each task carries
the sweep settings, its index and its candidate, inline -- a suite
layer's operands are a few hundred bytes, so pickling them per task is
cheap and leaves nothing open in the worker.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..area.energy import energy_from_counters
from ..area.model import estimate_design_area
from ..core.accelerator import Accelerator
from ..core.expr import SpecError
from ..obs.profile import get_profiler, profiling, span
from ..obs.trace import get_tracer, tracing
from ..sim.spatial_array import SpatialArraySim
from .cache import CacheStats, CompileCache, memo
from .fingerprint import fingerprint
from .store import DiskStore, DiskStoreStats


def resolve_jobs(jobs: Optional[int]) -> int:
    """The effective worker count for a ``jobs`` request.

    ``None`` and ``1`` mean serial (one inline worker); ``0`` means one
    worker per CPU; any other positive value is taken literally.
    """
    if jobs is None:
        return 1
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    if jobs == 0:
        return os.cpu_count() or 1
    return jobs


class EngineReport:
    """How a sweep was executed: worker count, outcome tallies, cache."""

    def __init__(
        self,
        jobs: int,
        evaluated: int,
        skipped: int,
        cache_stats: Optional[CacheStats] = None,
    ):
        self.jobs = jobs
        self.evaluated = evaluated
        self.skipped = skipped
        self.cache_stats = cache_stats

    @property
    def mode(self) -> str:
        return "serial" if self.jobs <= 1 else "parallel"

    def as_dict(self) -> Dict[str, object]:
        return {
            "mode": self.mode,
            "jobs": self.jobs,
            "evaluated": self.evaluated,
            "skipped": self.skipped,
            "cache": self.cache_stats.as_dict() if self.cache_stats else None,
        }

    def __repr__(self) -> str:
        return (
            f"EngineReport({self.mode}, jobs={self.jobs},"
            f" evaluated={self.evaluated}, skipped={self.skipped})"
        )


# ---------------------------------------------------------------------------
# One design point
# ---------------------------------------------------------------------------


class _Illegal(Exception):
    """A compile-step :class:`SpecError` (its ``__cause__``) carried out
    of the point memo, told apart from one the simulator raises."""


def _evaluate_candidate(
    spec,
    element_bits: int,
    candidate: Mapping[str, object],
    cache: Optional[CompileCache],
) -> Dict[str, object]:
    """Compile + simulate + area for one candidate on its own
    ``bounds`` and operand set ``tensors``.

    Runs against whatever profiler/tracer are currently installed, so the
    same code serves the inline path (parent observability) and the
    worker path (local observability, merged later).

    A candidate may opt into extra figures with ``want_energy`` (energy
    model over the sim counters) and ``want_digest`` (canonical
    fingerprint of the simulated outputs, for byte-identity checks
    across runs and transports).

    With a ``cache``, the measured figures are memoized whole under the
    ``dse.point`` stage, keyed on the point's content: spec, bounds,
    transform, sparsity, balancing, element width, operand set and the
    two ``want_*`` flags.  A warm or duplicate point then costs one
    lookup.  Names never enter the memo, so two content-identical
    transforms keep their own ``transform_name``.  A missed point still
    estimates its area once per compiled design: the memory-only
    ``area.model`` stage is keyed on the design's
    :attr:`~repro.core.compiler.CompiledDesign.axes` (a shared
    ``compile`` hit is then keyed from the identity memo alone).

    ``skip_illegal`` (default off) turns a compile-step
    :class:`SpecError` into an ``illegal`` outcome instead of raising:
    explore and the autotuner sweep exploration combos permissively (an
    illegal transform is a pruned point), while a suite layer or a
    layer's fixed baseline design must compile, and a failure there is
    a configuration bug.  Illegal points are never memoized.
    """
    name = candidate["name"]
    bounds = candidate["bounds"]
    tensors = candidate["tensors"]
    want_energy = bool(candidate.get("want_energy"))
    want_digest = bool(candidate.get("want_digest"))

    def measure() -> Dict[str, object]:
        accelerator = Accelerator(
            spec=spec,
            bounds=bounds,
            transform=candidate["transform"],
            sparsity=candidate["sparsity"],
            balancing=candidate["balancing"],
            element_bits=element_bits,
        )
        # Only the compile step decides legality.  A SpecError out of the
        # simulator (bad workload data, a broken transform round-trip) is
        # a real failure and must surface, not shrink the sweep.
        try:
            with span("dse.compile"):
                design = accelerator.build(cache=cache)
        except SpecError as err:
            raise _Illegal() from err
        with span("dse.simulate"):
            result = SpatialArraySim(design.compiled, memo=cache).run(tensors)
        with span("dse.area"):
            compiled = design.compiled
            area = memo(
                cache, "area.model", compiled.axes,
                lambda: estimate_design_area(compiled),
            )
        figures = {
            "cycles": int(result.cycles),
            "utilization": float(result.utilization),
            "area_um2": float(area.total),
            "pe_count": int(design.pe_count),
            "conn_count": len(design.compiled.array.conns),
            "pruned_variables": tuple(design.compiled.pruned_variables()),
        }
        if want_energy:
            energy = energy_from_counters(
                result.counters, element_bytes=max(1, element_bits // 8)
            )
            figures["energy_pj"] = float(energy.total_pj)
        if want_digest:
            figures["output_digest"] = fingerprint(result.outputs)
        return figures

    with span(
        "dse.point", name, component="dse",
        transform=candidate["transform_name"],
        sparsity=candidate["sparsity_name"],
        balancing=candidate["balancing_name"],
    ):
        try:
            figures = memo(
                cache,
                "dse.point",
                (spec, bounds, candidate["transform"],
                 candidate["sparsity"], candidate["balancing"],
                 element_bits, tensors, want_energy, want_digest),
                measure,
            )
        except _Illegal as illegal:
            if not candidate.get("skip_illegal"):
                raise illegal.__cause__ from None
            get_tracer().instant("illegal_point", component="dse", point=name)
            return {"status": "illegal", "name": name, "error": str(illegal.__cause__)}
    outcome = {
        "status": "ok",
        "name": name,
        "transform_name": candidate["transform_name"],
        "sparsity_name": candidate["sparsity_name"],
        "balancing_name": candidate["balancing_name"],
    }
    outcome.update(figures)
    outcome["pruned_variables"] = list(figures["pruned_variables"])
    return outcome


# ---------------------------------------------------------------------------
# Worker processes
# ---------------------------------------------------------------------------


def _fork_context():
    import multiprocessing

    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


#: A worker's only state: the long-lived CompileCache its initializer
#: builds, shared by every task the worker runs.
_WORKER_CACHE: Optional[CompileCache] = None


def _init_resident_worker(store_config) -> None:
    global _WORKER_CACHE
    store = DiskStore(**store_config) if store_config else None
    _WORKER_CACHE = CompileCache(store=store)


def _run_resident_task(task) -> Dict[str, object]:
    """Evaluate one candidate in a worker.

    ``task`` is ``(settings, index, candidate)``: the sweep's settings
    (see :func:`evaluate_sweep`) and the candidate's position and dict.
    The outcome carries the task's own profiler, tracer and cache/store
    tallies for the parent to merge.
    """
    settings, index, candidate = task
    cache = _WORKER_CACHE if settings["use_cache"] else None
    if cache is not None:
        cache.stats = CacheStats()
        if cache.store is not None:
            cache.store.stats = DiskStoreStats()
    with ExitStack() as observers:
        profiler = (
            observers.enter_context(profiling()) if settings["profile"] else None
        )
        tracer = observers.enter_context(tracing()) if settings["trace"] else None
        outcome = _evaluate_candidate(
            settings["spec"], settings["element_bits"], candidate, cache
        )
    outcome["index"] = index
    outcome["profile"] = profiler
    outcome["trace"] = tracer
    outcome["cache_stats"] = cache.stats if cache is not None else None
    outcome["store_stats"] = (
        cache.store.stats if cache is not None and cache.store is not None else None
    )
    return outcome


class ResidentPool:
    """The worker pool every parallel :func:`evaluate_sweep` runs on.

    Each worker owns one long-lived
    :class:`~repro.exec.cache.CompileCache` (with its own handle on the
    shared disk store when ``store_config`` is given) and nothing else:
    every task carries its sweep settings and candidate inline, so no
    per-sweep state outlives a task.  A sweep without a ``pool`` builds
    a one-shot ``ResidentPool`` and closes it when the sweep returns;
    long-running callers (the serve daemon, the fuzz harness) keep one
    alive across sweeps so fork cost is paid once and the workers'
    in-memory caches stay warm.

    The pool is lazy: workers fork on first use, and :meth:`close`
    (also the context-manager exit) retires them.  If the executor
    cannot be created at all, :func:`evaluate_sweep` falls back to
    serial inline evaluation.
    """

    def __init__(
        self,
        jobs: Optional[int] = None,
        store_config: Optional[Dict[str, object]] = None,
    ):
        self.workers = resolve_jobs(jobs)
        self.store_config = dict(store_config) if store_config else None
        self._executor: Optional[ProcessPoolExecutor] = None

    def executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=_fork_context(),
                initializer=_init_resident_worker,
                initargs=(self.store_config,),
            )
        return self._executor

    @property
    def started(self) -> bool:
        return self._executor is not None

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def __enter__(self) -> "ResidentPool":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "live" if self.started else "idle"
        return f"ResidentPool(workers={self.workers}, {state})"


# ---------------------------------------------------------------------------
# The sweep
# ---------------------------------------------------------------------------


def _report(
    jobs: int, outcomes: List[Dict[str, object]], cache: Optional[CompileCache]
) -> EngineReport:
    skipped = sum(1 for out in outcomes if out["status"] == "illegal")
    return EngineReport(
        jobs=jobs,
        evaluated=len(outcomes) - skipped,
        skipped=skipped,
        cache_stats=cache.stats if cache is not None else None,
    )


def evaluate_sweep(
    spec,
    candidates: Sequence[Mapping[str, object]],
    element_bits: int = 32,
    jobs: Optional[int] = None,
    cache: Optional[CompileCache] = None,
    on_outcome: Optional[Callable[[int, Dict[str, object]], None]] = None,
    pool: Optional[ResidentPool] = None,
) -> Tuple[List[Dict[str, object]], EngineReport]:
    """Evaluate every candidate of ``spec``; outcomes come back in
    candidate order.

    Each candidate is one whole design point: a dict with ``name``,
    ``transform_name`` / ``transform``, ``sparsity_name`` /
    ``sparsity``, ``balancing_name`` / ``balancing``, the workload's
    ``bounds`` and its operand mapping ``tensors``; optional
    ``skip_illegal`` (default off), ``want_energy`` and ``want_digest``
    flags.  Candidates sharing a workload should share its ``bounds``
    and ``tensors`` objects, so the cache keys them from its identity
    memo.  Outcomes are plain dicts with ``status`` either ``"ok"``
    (plus the measured figures) or ``"illegal"`` (plus the compile
    error text).  A single design point is a one-candidate sweep.

    ``on_outcome(index, outcome)`` -- when given -- is invoked once per
    candidate *in candidate order* as each outcome is finalized (worker
    observability merged), so callers can stream results before the
    sweep completes; parallel sweeps release outcome ``i`` once
    candidates ``0..i`` have all finished, which keeps the stream order
    deterministic no matter how the pool interleaves.

    ``jobs`` follows :func:`resolve_jobs`; with one worker the sweep
    runs inline in this process, otherwise on a one-shot
    :class:`ResidentPool` closed before returning.  ``pool`` routes the
    fan-out through a caller's long-lived :class:`ResidentPool` instead
    (the serve daemon's configuration); ``jobs`` is ignored in that
    case.  Each task carries the sweep settings, its index and its
    candidate.  If a pool cannot be created (no process-spawning rights
    in a sandbox) the sweep silently degrades to serial, with identical
    results by construction.
    """
    if pool is not None:
        workers = min(pool.workers, max(1, len(candidates)))
    else:
        workers = min(resolve_jobs(jobs), max(1, len(candidates)))

    if workers <= 1:
        outcomes = []
        for index, candidate in enumerate(candidates):
            outcome = _evaluate_candidate(spec, element_bits, candidate, cache)
            outcomes.append(outcome)
            if on_outcome is not None:
                on_outcome(index, outcome)
        return outcomes, _report(1, outcomes, cache)

    settings = {
        "spec": spec,
        "element_bits": element_bits,
        "use_cache": cache is not None,
        "profile": get_profiler().enabled,
        "trace": get_tracer().enabled,
    }
    owned = pool is None
    if owned:
        store = cache.store if cache is not None else None
        pool = ResidentPool(
            workers, store.spawn_config() if store is not None else None
        )
    try:
        executor = pool.executor()
    except (OSError, PermissionError):  # pragma: no cover - sandboxed envs
        return evaluate_sweep(
            spec, candidates, element_bits=element_bits, jobs=1,
            cache=cache, on_outcome=on_outcome,
        )

    outcomes: List[Optional[Dict[str, object]]] = [None] * len(candidates)
    profiler = get_profiler()
    tracer = get_tracer()
    try:
        futures = [
            executor.submit(_run_resident_task, (settings, index, candidate))
            for index, candidate in enumerate(candidates)
        ]
        # Collect in submission order: outcomes are finalized, merged
        # back, and streamed in sweep order no matter how the pool
        # interleaves, and the first failing candidate (by sweep order,
        # not completion order) raises, deterministically.
        for future in futures:
            outcome = future.result()
            index = outcome.pop("index")
            worker_profile = outcome.pop("profile")
            worker_trace = outcome.pop("trace")
            cache_stats = outcome.pop("cache_stats")
            store_stats = outcome.pop("store_stats")
            if worker_profile is not None and profiler.enabled:
                profiler.merge(worker_profile)
            if worker_trace is not None and tracer.enabled:
                tracer.merge(worker_trace)
            if cache is not None:
                cache.stats.merge(cache_stats)
                if cache.store is not None and store_stats is not None:
                    cache.store.stats.merge(store_stats)
            outcomes[index] = outcome
            if on_outcome is not None:
                on_outcome(index, outcome)
    finally:
        if owned:
            pool.close()
    return outcomes, _report(workers, outcomes, cache)
