"""The pluggable oracle registry of the differential fuzzing harness.

Every oracle compares two *independently implemented* evaluation paths
of the same case and answers "did they agree byte-for-byte?".  The
repository already maintains each pairing as a contract (documented in
DESIGN.md and hand-tested in ``tests/exec/test_differential.py``); the
fuzzer turns those contracts into free correctness checks over random
workloads:

===============================  ==========================================
oracle                            paths compared
===============================  ==========================================
``sim.scalar_vs_vectorized``     per-point vs vectorized
                                 :class:`SpatialArraySim` runs (dense
                                 closed form, batched skip conditions):
                                 outputs, every counter, schedule length
``sim.interpreter_vs_kernel``    scalar spec interpreter vs the
                                 trace-compiled batched kernel, replayed
                                 twice (cold, then on its warm plan)
``exec.serial_vs_parallel``      ``jobs=1`` inline sweep vs process-pool
                                 fan-out over the same candidates
``exec.cold_vs_warm``            fresh evaluation vs one answered from a
                                 just-written persistent disk store
``rtl.opt0_vs_opt2``             unoptimized vs fully optimized netlist,
                                 proven via :func:`check_equivalence`
``exec.halving_eta1_vs_exhaustive``  ``--autotune`` (single-exact-rung
                                 successive halving) vs the brute-force
                                 reference :func:`brute_force_autotune`
===============================  ==========================================

Oracles return ``None`` on agreement or a human-readable mismatch
description; :func:`run_oracle` wraps that into an
:class:`OracleVerdict` with the ``STL-FZ-*`` diagnostic for the oracle.
A :class:`~repro.core.expr.SpecError` raised while *materializing or
compiling* the case marks it ``illegal`` (the adversarial near-illegal
mutations are supposed to land here, identically on every path); any
other exception is a harness error (``STL-FZ-000``) -- a crash is never
silently counted as agreement.
"""

from __future__ import annotations

import tempfile
from typing import Callable, Dict, List, Optional

import numpy as np

from ..analysis.diagnostics import Diagnostic, Severity, errors_only
from ..analysis.equiv import check_equivalence
from ..core.compiler import compile_design
from ..core.expr import SpecError
from ..dse.space import suite_design_space
from ..exec.cache import CompileCache
from ..exec.engine import ResidentPool, evaluate_point, evaluate_sweep
from ..exec.halving import sweep_suite
from ..exec.store import DEFAULT_MAX_BYTES, DiskStore
from ..exec.suite import build_table_suite
from ..rtl.lowering import lower_design
from ..sim.kernel import KernelFallback, compile_kernel
from ..sim.spatial_array import differential_run
from .generate import FuzzCase, design_space_for

#: Diagnostic code per oracle; STL-FZ-000 is reserved for harness errors.
HARNESS_ERROR_CODE = "STL-FZ-000"
ORACLE_CODES: Dict[str, str] = {
    "sim.scalar_vs_vectorized": "STL-FZ-001",
    "sim.interpreter_vs_kernel": "STL-FZ-002",
    "exec.serial_vs_parallel": "STL-FZ-003",
    "exec.cold_vs_warm": "STL-FZ-004",
    "rtl.opt0_vs_opt2": "STL-FZ-005",
    "exec.halving_eta1_vs_exhaustive": "STL-FZ-006",
}


class OracleVerdict:
    """The outcome of running one case through its oracle."""

    __slots__ = ("case_id", "oracle", "status", "detail", "diagnostics")

    def __init__(
        self,
        case_id: str,
        oracle: str,
        status: str,
        detail: str = "",
        diagnostics: Optional[List[Diagnostic]] = None,
    ):
        if status not in ("ok", "illegal", "mismatch", "error"):
            raise ValueError(f"unknown verdict status {status!r}")
        self.case_id = case_id
        self.oracle = oracle
        self.status = status
        self.detail = detail
        self.diagnostics = list(diagnostics or [])

    @property
    def agreed(self) -> bool:
        """Whether the case passed (paths agreed, or refused identically)."""
        return self.status in ("ok", "illegal")

    def to_dict(self) -> Dict[str, object]:
        return {
            "case_id": self.case_id,
            "oracle": self.oracle,
            "status": self.status,
            "detail": self.detail,
            "diagnostics": [d.to_dict() for d in self.diagnostics],
        }

    def __repr__(self) -> str:
        return (
            f"OracleVerdict({self.oracle}, {self.status},"
            f" case={self.case_id[:12]})"
        )


class OracleContext:
    """Campaign-wide shared resources for the oracles.

    The parallel-sweep oracle would pay a process-pool fork per case if
    each invocation built its own executor; the context instead owns one
    lazy :class:`ResidentPool` amortized across the whole campaign.
    Close it (or use the context manager) when the campaign ends.
    """

    def __init__(self, pool_jobs: int = 2):
        self.pool_jobs = pool_jobs
        self._pool: Optional[ResidentPool] = None

    @property
    def pool(self) -> ResidentPool:
        if self._pool is None:
            self._pool = ResidentPool(jobs=self.pool_jobs)
        return self._pool

    def close(self) -> None:
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    def __enter__(self) -> "OracleContext":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


# ---------------------------------------------------------------------------
# Comparison helpers
# ---------------------------------------------------------------------------


def _diff_outputs(got: Dict[str, np.ndarray], want: Dict[str, np.ndarray]):
    if sorted(got) != sorted(want):
        return f"output tensor sets differ: {sorted(got)} vs {sorted(want)}"
    for name in sorted(want):
        a, b = np.asarray(got[name]), np.asarray(want[name])
        if a.shape != b.shape:
            return f"{name}: shapes differ {a.shape} vs {b.shape}"
        if a.dtype != b.dtype:
            return f"{name}: dtypes differ {a.dtype} vs {b.dtype}"
        if a.tobytes() != b.tobytes():
            where = np.argwhere(a != b)
            first = tuple(int(v) for v in where[0]) if len(where) else ()
            return (
                f"{name}: values differ at {len(where)} positions,"
                f" first at {first}"
            )
    return None


def _materialize(case: FuzzCase):
    """The live (spec, bounds, tensors, transform, sparsity, balancing).

    Raises :class:`SpecError` for near-illegal mutations (the singular
    transform) -- :func:`run_oracle` maps that to an ``illegal`` verdict.
    """
    spec = case.build_spec()
    return (
        spec,
        case.build_bounds(),
        case.build_tensors(),
        case.build_transform(),
        case.build_sparsity(spec),
        case.build_balancing(),
    )


def _compile(case: FuzzCase):
    spec, bounds, tensors, transform, sparsity, balancing = _materialize(case)
    design = compile_design(
        spec, bounds, transform, sparsity=sparsity, balancing=balancing
    )
    return design, tensors


def _case_candidate(case: FuzzCase, **extra: object) -> Dict[str, object]:
    spec = case.build_spec()
    fields: Dict[str, object] = {
        "name": f"fuzz-{case.index}",
        "transform_name": case.transform_name,
        "transform": case.build_transform(),
        "sparsity_name": case.sparsity_name,
        "sparsity": case.build_sparsity(spec),
        "balancing_name": case.balancing_name,
        "balancing": case.build_balancing(),
        "want_digest": True,
    }
    fields.update(extra)
    return fields


# ---------------------------------------------------------------------------
# The oracles
# ---------------------------------------------------------------------------


def _oracle_scalar_vs_vectorized(case: FuzzCase, _ctx: OracleContext):
    design, tensors = _compile(case)
    fast = differential_run(design, tensors, vectorize=True)
    slow = differential_run(design, tensors, vectorize=False)
    diff = _diff_outputs(fast.outputs, slow.outputs)
    if diff:
        return f"vectorized vs scalar outputs: {diff}"
    fast_counters = fast.counters.as_dict()
    slow_counters = slow.counters.as_dict()
    for name in sorted(set(fast_counters) | set(slow_counters)):
        if fast_counters.get(name) != slow_counters.get(name):
            return (
                f"counter {name} differs: vectorized"
                f" {fast_counters.get(name)} vs scalar {slow_counters.get(name)}"
            )
    if fast.schedule_length != slow.schedule_length:
        return (
            f"schedule length differs: vectorized {fast.schedule_length}"
            f" vs scalar {slow.schedule_length}"
        )
    return None


def _oracle_interpreter_vs_kernel(case: FuzzCase, _ctx: OracleContext):
    spec = case.build_spec()
    bounds = case.build_bounds()
    tensors = case.build_tensors()
    want = spec.interpret(bounds, tensors, kernel=False)
    kernel = compile_kernel(spec)
    if kernel is None:
        return None  # untraceable spec: the fallback contract is the answer
    # The second replay runs against the plan the first one built.
    for replay in ("cold", "warm"):
        try:
            got = kernel.replay(bounds, tensors)
        except KernelFallback:
            return None  # replay-time fallback: the scalar path owns this shape
        diff = _diff_outputs(got, want)
        if diff:
            return f"{replay} kernel vs scalar interpreter: {diff}"
    return None


def _oracle_serial_vs_parallel(case: FuzzCase, ctx: OracleContext):
    spec = case.build_spec()
    bounds = case.build_bounds()
    tensors = case.build_tensors()
    candidates = [_case_candidate(case)]
    for index, combo in enumerate(
        design_space_for(case.spec_name).sample(3, seed=case.tensor_seed)
    ):
        candidates.append(
            combo.candidate(name=f"fuzz-{case.index}-s{index}", want_digest=True)
        )
    serial, _ = evaluate_sweep(
        spec, bounds, tensors, candidates,
        skip_illegal=True, jobs=1, cache=CompileCache(),
    )
    parallel, _ = evaluate_sweep(
        spec, bounds, tensors, candidates,
        skip_illegal=True, cache=CompileCache(), pool=ctx.pool,
    )
    if serial != parallel:
        for index, (a, b) in enumerate(zip(serial, parallel)):
            if a != b:
                keys = sorted(
                    set(a) | set(b),
                    key=lambda key: (a.get(key) == b.get(key), key),
                )
                field = keys[0]
                return (
                    f"candidate {index} ({a.get('name')}) differs on"
                    f" {field!r}: serial {a.get(field)!r} vs parallel"
                    f" {b.get(field)!r}"
                )
        return "outcome lists differ in length"
    return None


def _oracle_cold_vs_warm(case: FuzzCase, _ctx: OracleContext):
    spec = case.build_spec()
    bounds = case.build_bounds()
    tensors = case.build_tensors()
    with tempfile.TemporaryDirectory(prefix="stellar-fuzz-store-") as root:
        # An explicit budget keeps the oracle off STELLAR_CACHE_MAX_BYTES.
        cold_cache = CompileCache(store=DiskStore(root, DEFAULT_MAX_BYTES))
        cold = evaluate_point(
            spec, bounds, tensors, _case_candidate(case), cache=cold_cache
        )
        warm_cache = CompileCache(store=DiskStore(root, DEFAULT_MAX_BYTES))
        warm = evaluate_point(
            spec, bounds, tensors, _case_candidate(case), cache=warm_cache
        )
        warm_disk_hits = warm_cache.stats.disk_hits
    if cold != warm:
        fields = sorted(
            key for key in set(cold) | set(warm)
            if cold.get(key) != warm.get(key)
        )
        return (
            f"cold vs warm outcomes differ on {fields}:"
            f" {[(cold.get(f), warm.get(f)) for f in fields]}"
        )
    if warm_disk_hits == 0:
        return (
            "warm run never hit the disk store -- the persistent tier is"
            " not actually serving the second evaluation"
        )
    return None


def _oracle_rtl_opt0_vs_opt2(case: FuzzCase, _ctx: OracleContext):
    design, _tensors = _compile(case)
    before = lower_design(design, check=False, opt_level=0)
    after = lower_design(design, check=False, opt_level=2)
    result = check_equivalence(
        before, after, cycles=16, seed=0, design_name=f"fuzz-{case.index}"
    )
    if not result.ok:
        findings = errors_only(result.diagnostics)
        summary = "; ".join(
            f"{d.code}: {d.message}" for d in findings[:3]
        )
        return f"opt0 vs opt2 netlists not equivalent: {summary}"
    return None


def brute_force_autotune(suite, space):
    """Exhaustive per-layer autotuning, written independently of
    :mod:`repro.exec.halving` as the reference for the
    ``exec.halving_eta1_vs_exhaustive`` oracle.

    One full-fidelity sweep over every (layer x combo); per layer, the
    points no other point Pareto-dominates on (cycles, area, energy);
    the winner minimizes (cycles, area, label).  Returns ``(winners,
    fixed_total_cycles)``, one ``(layer, transform, sparsity, balancing,
    cycles, output_digest)`` tuple per layer.
    """
    combos = space.combos()
    baseline = (suite.transform_name, suite.sparsity_name, suite.balancing_name)
    candidates = [
        combo.candidate(
            name=f"{case.name} @ {combo.label}", bounds=case.bounds,
            tensors_key=case.name, want_energy=True, want_digest=True,
            skip_illegal=True,
        )
        for case in suite.cases
        for combo in combos
    ]
    outcomes, _report = evaluate_sweep(
        suite.spec, None, None, candidates, element_bits=suite.element_bits,
        skip_illegal=True, jobs=1, cache=CompileCache(),
        tensor_table=suite.tensor_table(),
    )
    winners, fixed_total = [], 0
    for index, case in enumerate(suite.cases):
        chunk = outcomes[index * len(combos):(index + 1) * len(combos)]
        layer = [(c, o) for c, o in zip(combos, chunk) if o["status"] == "ok"]
        metrics = [(o["cycles"], o["area_um2"], o["energy_pj"]) for _c, o in layer]
        frontier = [
            pair
            for pair, mine in zip(layer, metrics)
            if not any(
                theirs != mine and all(t <= m for t, m in zip(theirs, mine))
                for theirs in metrics
            )
        ]
        combo, out = min(
            frontier, key=lambda p: (p[1]["cycles"], p[1]["area_um2"], p[0].label)
        )
        winners.append(
            (case.name, *combo.names, out["cycles"], out["output_digest"])
        )
        fixed_total += next(
            o["cycles"]
            for c, o in layer
            if c.names == baseline and c.is_default_uarch
        )
    return winners, fixed_total


def _oracle_halving_vs_exhaustive(case: FuzzCase, _ctx: OracleContext):
    layer = {
        "name": f"fuzz-{case.index}",
        "m": case.bounds["i"],
        "k": case.bounds["k"],
        "n": case.bounds["j"],
        "a_density": case.densities.get("A", 1.0),
        "b_density": case.densities.get("B", 1.0),
    }
    seed = case.tensor_seed % 100000
    suite = build_table_suite([layer], cap=4, seed=seed, source="fuzz")
    halved = sweep_suite(
        build_table_suite([layer], cap=4, seed=seed, source="fuzz"),
        autotune=True, cache=CompileCache(), jobs=1,
    )
    winners, fixed_total = brute_force_autotune(
        suite, suite_design_space(suite)
    )
    halved_winners = [
        (r["name"], r["transform"], r["sparsity"], r["balancing"],
         r["cycles"], r["output_digest"])
        for r in halved.rows
    ]
    if halved_winners != winners:
        return (
            f"winner rows differ: halving(eta=1) {halved_winners}"
            f" vs brute-force reference {winners}"
        )
    if halved.fixed_total_cycles != fixed_total:
        return (
            f"fixed total cycles differ: {halved.fixed_total_cycles}"
            f" vs {fixed_total}"
        )
    return None


ORACLES: Dict[str, Callable[[FuzzCase, OracleContext], Optional[str]]] = {
    "sim.scalar_vs_vectorized": _oracle_scalar_vs_vectorized,
    "sim.interpreter_vs_kernel": _oracle_interpreter_vs_kernel,
    "exec.serial_vs_parallel": _oracle_serial_vs_parallel,
    "exec.cold_vs_warm": _oracle_cold_vs_warm,
    "rtl.opt0_vs_opt2": _oracle_rtl_opt0_vs_opt2,
    "exec.halving_eta1_vs_exhaustive": _oracle_halving_vs_exhaustive,
}


def oracle_names() -> List[str]:
    return list(ORACLES)


def run_oracle(case: FuzzCase, ctx: OracleContext) -> OracleVerdict:
    """Run ``case`` through its oracle and classify the outcome."""
    try:
        oracle = ORACLES[case.oracle]
    except KeyError:
        raise ValueError(
            f"unknown oracle {case.oracle!r}; available:"
            f" {', '.join(oracle_names())}"
        ) from None
    case_id = case.case_id
    try:
        detail = oracle(case, ctx)
    except SpecError as err:
        # Both paths refuse the case the same way (the compile step is
        # shared); near-illegal mutations are *supposed* to end here.
        return OracleVerdict(case_id, case.oracle, "illegal", str(err))
    except Exception as err:  # noqa: BLE001 - a crash is a finding
        diagnostic = Diagnostic(
            HARNESS_ERROR_CODE,
            Severity.ERROR,
            "fuzz",
            f"oracle {case.oracle} crashed: {type(err).__name__}: {err}",
            location=f"case {case_id[:12]}",
            suggestion=(
                "replay with `python -m repro fuzz --replay <artifact>`"
                " after saving the case"
            ),
        )
        return OracleVerdict(
            case_id, case.oracle, "error",
            f"{type(err).__name__}: {err}", [diagnostic],
        )
    if detail:
        diagnostic = Diagnostic(
            ORACLE_CODES[case.oracle],
            Severity.ERROR,
            "fuzz",
            detail,
            location=f"case {case_id[:12]}",
            suggestion="replay the shrunk corpus artifact to reproduce",
        )
        return OracleVerdict(
            case_id, case.oracle, "mismatch", detail, [diagnostic]
        )
    return OracleVerdict(case_id, case.oracle, "ok")


__all__ = [
    "HARNESS_ERROR_CODE",
    "ORACLE_CODES",
    "ORACLES",
    "OracleContext",
    "OracleVerdict",
    "oracle_names",
    "run_oracle",
]
