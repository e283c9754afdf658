"""repro.exec: the parallel + cached design-space evaluation engine.

Three cooperating pieces (see DESIGN.md's "Performance engineering"):

* :mod:`repro.exec.fingerprint` -- canonical content hashing of design
  axes (specs, bounds, transforms, sparsity, balancing, tensors), the
  keying primitive every cache below is built on;
* :mod:`repro.exec.cache` -- :class:`CompileCache`, a content-addressed
  memo store for :func:`~repro.core.compiler.compile_design` /
  :func:`~repro.rtl.lowering.lower_design` products and their
  intermediate stages (elaboration, legality checking, pruning,
  simulator sub-products), so sweeps stop re-paying compilation for
  configurations that share axes;
* :mod:`repro.exec.engine` -- deterministic point evaluation for every
  sweep (:func:`repro.dse.explore` ranks its outcome rows directly),
  inline or fanned out over a
  :class:`ResidentPool` (one worker model: each worker keeps only its
  long-lived compile cache, each task carries its own operands inline),
  with each task's profiler, tracer and cache/store tallies merged back
  into the parent's.

Persistence and batching layers on top:

* :mod:`repro.exec.store` -- :class:`DiskStore`, the atomic, versioned,
  content-addressed disk tier behind :class:`CompileCache`, so compile
  and simulation products survive the process;
* :mod:`repro.exec.suite` -- whole-workload-table evaluation
  (``python -m repro sweep resnet50``, or any user table via
  ``repro sweep path/to/table.json``), routing every layer through
  :func:`evaluate_sweep` as one candidate list;
* :mod:`repro.exec.halving` -- per-layer Pareto autotuning by
  multi-fidelity successive halving (``repro sweep <suite> --halving``):
  every layer crossed with the DSE design space, cheap reduced-cap
  rungs pruning candidates, winners picked off the Pareto frontier
  under a configurable objective (cycles / energy / EDP) and optional
  constraints, deterministically.  ``--autotune`` is its ``eta=1``
  (exhaustive) case over the non-widened space.

Wall-clock speed is measured outside the package, by the end-to-end
benchmark in ``benchmarks/e2e`` (plus ``benchmarks/speed_floors.py``
for the ratios that have no end-to-end workload yet).
"""

from .cache import (
    CacheStats,
    CompileCache,
    persistent_compile_cache,
)
from .engine import EngineReport, ResidentPool, evaluate_sweep, resolve_jobs
from .fingerprint import FINGERPRINT_VERSION, FingerprintError, fingerprint
from .halving import OBJECTIVES, select_winner
from .store import DiskStore, DiskStoreStats, default_cache_dir
from .suite import (
    Suite,
    SuiteCase,
    SuiteError,
    SuiteResult,
    build_suite,
    build_table_suite,
    evaluate_suite,
    format_rows,
    load_workload_table,
    suite_names,
)

__all__ = [
    "CacheStats",
    "CompileCache",
    "DiskStore",
    "DiskStoreStats",
    "EngineReport",
    "FINGERPRINT_VERSION",
    "FingerprintError",
    "OBJECTIVES",
    "ResidentPool",
    "Suite",
    "SuiteCase",
    "SuiteError",
    "SuiteResult",
    "build_suite",
    "build_table_suite",
    "default_cache_dir",
    "evaluate_suite",
    "evaluate_sweep",
    "fingerprint",
    "format_rows",
    "load_workload_table",
    "persistent_compile_cache",
    "resolve_jobs",
    "select_winner",
    "suite_names",
]
