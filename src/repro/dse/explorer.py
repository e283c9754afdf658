"""Automated design-space exploration over Stellar's five axes.

The paper motivates Stellar by the need for "automated and rapid design
space exploration" with a strong separation of concerns: architects should
be able to "modify these different design considerations in isolation and
observe the subtle interactions between them to determine the best
accelerator design choice" (Section I).  This module is that loop: it
takes per-axis candidate lists and has the evaluation engine
(:func:`repro.exec.engine.evaluate_sweep`) compile the cross product and
evaluate each design on a user workload with the cycle-level simulator
and the area model.  :class:`ExplorationResult` then ranks the engine's
own outcome rows -- one dict per legal design point -- and extracts the
Pareto frontier over (cycles, area) with :func:`pareto_front`, the
frontier the suite autotuner uses too.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Mapping, Optional, Sequence

import numpy as np

from ..core.balancing import LoadBalancingScheme, flexible_pe_scheme, row_shift_scheme
from ..core.dataflow import SpaceTimeTransform
from ..core.expr import Bounds, IndexExpr, SpecError
from ..core.functionality import (
    AssignmentKind,
    FunctionalSpec,
    batched_matmul_spec,
    conv1d_spec,
    matmul_spec,
)
from ..core.sparsity import SparsityStructure, a100_two_four, csr_b_matrix, csr_csc_both
from ..obs.trace import get_tracer
from .space import DesignSpace, standard_transforms

if TYPE_CHECKING:
    # Annotation-only: the runtime imports live inside explore(), so
    # importing repro.dse does not trigger the repro.exec package (which
    # imports back into repro.dse for the autotuner).
    from ..exec.cache import CompileCache
    from ..exec.engine import EngineReport


#: Functional specs by name (``--spec``, the served ``explore`` request).
SPECS: Dict[str, Callable[[], FunctionalSpec]] = {
    "matmul": matmul_spec,
    "conv1d": conv1d_spec,
    "bmm": batched_matmul_spec,
}

#: Sparsity structures for the matmul spec by name, each built from
#: the spec (``--sparsity``, the explore space).
SPARSITIES: Dict[str, Callable[[FunctionalSpec], SparsityStructure]] = {
    "dense": lambda spec: SparsityStructure(),
    "b-csr": csr_b_matrix,
    "outer-product": csr_csc_both,
    "a100-2-4": a100_two_four,
}

#: Load-balancing schemes by name, each built from the per-index size
#: (``--balancing``; the explore space sweeps ``none`` and ``row-shift``).
BALANCINGS: Dict[str, Callable[[int], LoadBalancingScheme]] = {
    "none": lambda size: LoadBalancingScheme(),
    "row-shift": lambda size: row_shift_scheme(size // 2),
    "flexible-pe": flexible_pe_scheme,
}


def pareto_front(metrics: Sequence[Sequence[float]]) -> List[int]:
    """Indices, in input order, of the rows of ``metrics`` that no other
    row dominates: no worse in every column and better in at least one
    (every column is minimized).

    Rows with equal metrics do not dominate each other, so duplicates of
    a frontier row all stay on it.
    """
    if len(metrics) == 0:
        return []
    table = np.asarray(metrics, dtype=float)
    # [q, p]: row q is no worse than row p in every column / better in one.
    no_worse = (table[:, None, :] <= table[None, :, :]).all(axis=2)
    better = (table[:, None, :] < table[None, :, :]).any(axis=2)
    dominated = (no_worse & better).any(axis=0)
    return np.flatnonzero(~dominated).tolist()


def adp(point: Mapping[str, object]) -> float:
    """The classic area-delay product of an outcome row (lower is better)."""
    return point["area_um2"] * point["cycles"]


class ExplorationResult:
    """The ``ok`` outcome rows of an explore sweep, plus how it ran.

    ``points`` are the engine's outcome dicts themselves (see
    :func:`repro.exec.engine.evaluate_sweep`), in candidate order; every
    selection below reads them by key.  ``report`` is the engine's
    :class:`~repro.exec.engine.EngineReport`: worker count,
    skipped-point tally, cache hit rates.
    """

    def __init__(self, points: List[Dict[str, object]], report: EngineReport):
        self.points = points
        self.report = report

    def pareto_frontier(self) -> List[Dict[str, object]]:
        """Rows no other row dominates over (cycles, area), sorted by
        cycles.

        Ties on (cycles, area) break by name, so the frontier -- like
        :meth:`table` -- is byte-identical however the sweep executed.
        """
        keep = pareto_front([(p["cycles"], p["area_um2"]) for p in self.points])
        return sorted(
            (self.points[i] for i in keep),
            key=lambda p: (p["cycles"], p["area_um2"], p["name"]),
        )

    def best_by(self, metric: str) -> Dict[str, object]:
        """The single best row by ``cycles``, ``area``, ``utilization``
        or ``adp``."""
        keys = {
            "cycles": lambda p: p["cycles"],
            "area": lambda p: p["area_um2"],
            "utilization": lambda p: -p["utilization"],
            "adp": adp,
        }
        if metric not in keys:
            raise ValueError(f"unknown metric {metric!r}; pick from {sorted(keys)}")
        return min(self.points, key=keys[metric])

    def table(self) -> str:
        lines = [
            f"{'design':44s} {'cycles':>7s} {'util':>7s} {'area (um^2)':>12s}"
            f" {'conns':>6s} {'pareto':>7s}"
        ]
        frontier = set(id(p) for p in self.pareto_frontier())
        for point in sorted(self.points, key=lambda p: (p["cycles"], p["name"])):
            lines.append(
                f"{point['name']:44s} {point['cycles']:7d}"
                f" {point['utilization']:7.1%} {point['area_um2']:12,.0f}"
                f" {point['conn_count']:6d}"
                f" {'  *' if id(point) in frontier else '':>7s}"
            )
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)


def explore(
    spec: FunctionalSpec,
    bounds: Bounds,
    tensors: Mapping[str, np.ndarray],
    transforms: Mapping[str, SpaceTimeTransform],
    sparsities: Optional[Mapping[str, SparsityStructure]] = None,
    balancings: Optional[Mapping[str, LoadBalancingScheme]] = None,
    element_bits: int = 32,
    jobs: Optional[int] = None,
    cache: Optional[CompileCache] = None,
) -> ExplorationResult:
    """Evaluate the cross product of per-axis candidates on one workload.

    Each candidate mapping is ``display name -> axis value``.  Illegal
    combinations -- those whose *compile* raises :class:`SpecError` (e.g.
    transforms violating causality for the spec) -- are skipped,
    mirroring how an architect would sweep broadly and keep what
    elaborates.  Failures past the compile (a simulator crash, missing
    workload data) always propagate.

    ``jobs`` selects the evaluation engine's worker count (``None``/1
    serial, 0 one worker per CPU, N explicit); ``cache`` memoizes the
    sweep's stages (``None`` disables memoization).  Results are
    bit-identical across all combinations.
    """
    from ..exec.engine import evaluate_sweep

    space = DesignSpace(transforms, sparsities, balancings)
    candidates = [
        combo.candidate(bounds=bounds, tensors=tensors, skip_illegal=True)
        for combo in space.combos()
    ]
    outcomes, report = evaluate_sweep(
        spec, candidates, element_bits=element_bits, jobs=jobs, cache=cache
    )
    points = [out for out in outcomes if out["status"] == "ok"]
    get_tracer().instant(
        "explore_done", component="dse",
        evaluated=len(points), skipped_illegal=report.skipped,
    )
    if not points:
        raise SpecError("no legal design points in the given space")
    return ExplorationResult(points, report)


def random_tensors(spec: FunctionalSpec, size: int, seed: int):
    """Random inputs sized to cover every access the spec makes.

    Subscripts may be affine combinations of indices (``I[ox + f]``), so
    each tensor axis is sized to the maximum subscript value over the
    iteration domain plus one.
    """
    bounds = Bounds({name: size for name in spec.index_names})
    max_env = {name: size - 1 for name in spec.index_names}
    extents: Dict[str, list] = {}
    for assignment in spec.assignments:
        if assignment.kind is AssignmentKind.OUTPUT:
            continue
        for access in assignment.rhs.references():
            if access.target.name not in {t.name for t in spec.input_tensors()}:
                continue
            sizes = extents.setdefault(access.target.name, [1] * access.target.rank)
            for axis, sub in enumerate(access.subscripts):
                if isinstance(sub, IndexExpr):
                    sizes[axis] = max(sizes[axis], sub.evaluate(max_env, bounds) + 1)
                else:
                    sizes[axis] = max(sizes[axis], size)

    rng = np.random.default_rng(seed)
    tensors = {}
    for tensor in spec.input_tensors():
        shape = tuple(extents.get(tensor.name, [size] * tensor.rank))
        tensors[tensor.name] = rng.integers(-4, 5, shape)
    return tensors


def explorable_spec(spec_name: str) -> FunctionalSpec:
    """The spec ``spec_name`` names, if the explore space covers it.

    The space's dataflows are the rank-3 Figure 2 transforms, so a spec
    over another number of indices (``bmm``) has no legal design point;
    it is refused with a :class:`ValueError` before anything compiles.
    """
    spec = SPECS[spec_name]()
    rank = len(spec.index_names)
    ranks = sorted({t.rank for t in standard_transforms().values()})
    if ranks != [rank]:
        raise ValueError(
            f"spec {spec_name!r} has {rank} indices, but the explore"
            f" dataflows are rank {', '.join(map(str, ranks))}"
        )
    return spec


def run_explore(
    spec_name: str,
    size: int,
    seed: int,
    jobs: Optional[int] = None,
    cache: Optional[CompileCache] = None,
) -> ExplorationResult:
    """The design-space sweep behind ``repro explore`` and the served
    ``explore`` request: every dataflow, the matmul sparsities and two
    balancings over a random workload of ``size`` per index.  A spec the
    space does not cover raises :class:`ValueError`
    (:func:`explorable_spec`)."""
    spec = explorable_spec(spec_name)
    sparsity_names = SPARSITIES if spec_name == "matmul" else ["dense"]
    return explore(
        spec,
        Bounds({name: size for name in spec.index_names}),
        random_tensors(spec, size, seed),
        transforms=standard_transforms(),
        sparsities={name: SPARSITIES[name](spec) for name in sparsity_names},
        balancings={
            name: BALANCINGS[name](size) for name in ("none", "row-shift")
        },
        jobs=jobs,
        cache=cache,
    )
