"""Connection-pruning passes (paper Section IV-B).

Stellar first builds a *dense* spatial array that maximizes PE-to-PE data
reuse, then removes the connections that sparsity or load balancing make
unreliable, replacing them with direct register-file IO.

Sparsity rule
-------------
A variable ``v`` travels along its difference vector ``d`` carrying a value
identified by the iterators in its dependence set ``Dep(v)``.  Skipping an
iterator ``s`` replaces it with a data-dependent expansion
``s_expanded = f(deps(s), s_compressed)`` (Section IV-B's worked example:
with B in CSR, ``j_expanded = f(k, j_compressed)``).  The connection is
still *guaranteed* to deliver the value the destination PE needs only when
the expanded coordinates of every iterator in ``Dep(v)`` are unchanged by
one step along ``d``; i.e. for every skipped ``s`` in ``Dep(v)``::

    d[s] == 0   and   d[t] == 0 for every t in deps(s)

Worked example (matmul, ``Skip j when B(k, j) == 0``): partial sums ``c``
have ``Dep(c) = {i, j}`` and ``d = (0, 0, 1)``.  Since ``j in Dep(c)`` and
``deps(j) = {k}`` while ``d[k] = 1``, the expanded ``j`` changes every step
-- so the vertical accumulation connections are pruned, reproducing the
Figure 2a -> Figure 4 rewrite.

Structured skips (conditions over indices only, e.g. ``i != k``) are
evaluated at elaboration time, over the whole domain grid at once, and
restrict the point set itself.

Load-balancing rule
-------------------
A shift whose target region lets PEs balance *independently* (Figure 10b)
invalidates connections flowing along the constrained axes; row-granular
shifts (Figure 10a) preserve all connections.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Sequence, Tuple

import numpy as np

from ...obs.trace import get_tracer
from ..balancing import LoadBalancingScheme
from ..expr import SpecError
from ..iterspace import IterationSpace
from ..sparsity import SparsityStructure


class PruneReport:
    """What a pruning pass did, for diagnostics and tests."""

    def __init__(self):
        self.pruned_variables: List[str] = []
        self.widened_variables: Dict[str, int] = {}
        self.removed_points: int = 0
        self.reasons: Dict[str, str] = {}

    def __repr__(self) -> str:
        return (
            f"PruneReport(pruned={self.pruned_variables},"
            f" widened={self.widened_variables}, removed_points={self.removed_points})"
        )


def connection_survives(
    d: Sequence[int],
    dep_set: FrozenSet[str],
    expansion_deps: Dict[str, FrozenSet[str]],
    order: Sequence[str],
) -> bool:
    """Apply the sparsity survival rule to one difference vector."""
    index_of = {name: axis for axis, name in enumerate(order)}
    for skipped, deps in expansion_deps.items():
        if skipped not in dep_set:
            continue
        if d[index_of[skipped]] != 0:
            return False
        for dep in deps:
            if dep in index_of and d[index_of[dep]] != 0:
                return False
    return True


def prune_for_sparsity(
    iterspace: IterationSpace, sparsity: SparsityStructure
) -> Tuple[IterationSpace, PruneReport]:
    """Prune connections per the sparsity structure (Figure 9a -> 9b)."""
    spec = iterspace.spec
    sparsity.validate_against(spec)
    report = PruneReport()
    order = spec.index_names

    result = iterspace

    # Structured skips restrict the iteration domain itself.
    structured = [s for s in sparsity if s.is_structured() and not s.optimistic]
    if structured:
        result = _restrict_points(result, structured, report)

    expansion_deps = sparsity.expansion_dependencies()
    if expansion_deps:
        doomed: List[str] = []
        for variable, d in spec.difference_vectors().items():
            if variable not in result.conns:
                continue
            dep_set = spec.dependence_set(variable)
            if not connection_survives(d, dep_set, expansion_deps, order):
                doomed.append(variable)
                report.reasons[variable] = (
                    f"expanded coordinates of {sorted(dep_set & set(expansion_deps))}"
                    f" become data-dependent along d={d}"
                )
        if doomed:
            result = result.without_conns(doomed)
            report.pruned_variables.extend(doomed)

    # OptimisticSkips keep connections but widen them into bundles (Fig. 5).
    for variable, bundle in _optimistic_targets(iterspace, sparsity).items():
        result = result.widened(variable, bundle)
        report.widened_variables[variable] = bundle

    tracer = get_tracer()
    if tracer.enabled:
        tracer.instant(
            "prune_for_sparsity", component="compiler.passes",
            pruned=list(report.pruned_variables),
            widened=dict(report.widened_variables),
            removed_points=report.removed_points,
        )
    return result, report


def _optimistic_targets(
    iterspace: IterationSpace, sparsity: SparsityStructure
) -> Dict[str, int]:
    """Variables whose connections are widened by OptimisticSkips: those
    whose dependence set contains an optimistically-skipped iterator."""
    spec = iterspace.spec
    bundles = sparsity.optimistic_bundles()
    if not bundles:
        return {}
    out: Dict[str, int] = {}
    for variable in spec.difference_vectors():
        dep_set = spec.dependence_set(variable)
        width = max(
            (bundle for name, bundle in bundles.items() if name in dep_set),
            default=1,
        )
        if width > 1:
            out[variable] = width
    return out


def _restrict_points(
    iterspace: IterationSpace, structured_skips, report: PruneReport
) -> IterationSpace:
    """Drop the points where any structured skip holds, evaluated over
    the whole domain grid at once where the kernel's batched evaluator
    takes the condition (:func:`repro.sim.kernel.skipped_mask`)."""
    # Imported here: the simulator package imports the compiler.
    from ...sim.kernel import skipped_mask

    spec = iterspace.spec
    bounds = iterspace.bounds
    order = spec.index_names
    on_grid = skipped_mask(
        spec, bounds, {}, [skip.condition for skip in structured_skips],
        _no_tensor_reads,
    )
    lows = np.array([bounds[name][0] for name in order], dtype=np.int64)
    shape = tuple(bounds.size(name) for name in order)
    skipped = on_grid[
        np.ravel_multi_index(tuple((iterspace.points - lows).T), shape)
    ]
    report.removed_points = int(skipped.sum())
    return iterspace.restricted(~skipped)


def _no_tensor_reads(symbol, coords):
    raise SpecError(
        "structured skip conditions must not reference tensors"
        f" (tried to read {symbol.name})"
    )


def prune_for_balancing(
    iterspace: IterationSpace, scheme: LoadBalancingScheme
) -> Tuple[IterationSpace, PruneReport]:
    """Prune connections invalidated by flexible load balancing (Fig. 10)."""
    spec = iterspace.spec
    scheme.validate_against(spec)
    report = PruneReport()
    if scheme.is_disabled():
        return iterspace, report

    order = spec.index_names
    axes = scheme.pruned_axes(order)
    if not axes:
        return iterspace, report

    index_of = {name: axis for axis, name in enumerate(order)}
    doomed: List[str] = []
    for variable, d in spec.difference_vectors().items():
        if variable not in iterspace.conns:
            continue
        if any(d[index_of[name]] != 0 for name in axes if name in index_of):
            doomed.append(variable)
            report.reasons[variable] = (
                f"flows along load-balanced axes {sorted(axes)}; PEs there may"
                " execute foreign iterations (Figure 10b)"
            )
    tracer = get_tracer()
    if tracer.enabled:
        tracer.instant(
            "prune_for_balancing", component="compiler.passes",
            pruned=list(doomed), axes=sorted(axes),
        )
    if doomed:
        report.pruned_variables.extend(doomed)
        return iterspace.without_conns(doomed), report
    return iterspace, report
