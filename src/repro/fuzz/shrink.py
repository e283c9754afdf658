"""Greedy case minimization for failing fuzz cases.

When an oracle reports a mismatch, the raw case is rarely the story:
a 6x5x4 sparse workload under a hexagonal transform with a skew
mutation obscures whichever single ingredient actually triggers the
divergence.  The shrinker walks a deterministic candidate ladder --
densify the workload, clear the mutation, neutralize the transform,
drop the batch axis, then shrink bounds axis by axis -- keeping a
candidate only when it is strictly *smaller* (by :func:`case_cost`) and
still fails the same oracle, until no candidate survives.  The result
is the smallest-reproducing artifact the corpus stores.

Everything here re-runs the real oracle; there is no modeling of "what
probably still fails".  A candidate that stops failing is simply
rejected -- which is also how the shrinker isolates root causes: if
densifying makes the bug vanish, the minimized case keeps its sparsity
and the artifact says so.
"""

from __future__ import annotations

from typing import Iterator, Tuple

from .generate import FuzzCase
from .oracles import OracleContext, run_oracle

#: Ceiling on oracle re-runs per shrink; generous for the tiny bounds
#: the generator emits, and a backstop against candidate-ladder cycles.
MAX_SHRINK_STEPS = 200


def case_cost(case: FuzzCase) -> Tuple[int, ...]:
    """Strictly-decreasing shrink metric, iteration-space points first."""
    return (
        case.points,
        len(case.bounds),
        1 if case.sparsity_name != "dense" else 0,
        1 if case.balancing_name != "none" else 0,
        sum(1 for d in case.densities.values() if d < 1.0),
        1 if case.mutation is not None else 0,
        1 if case.transform_name != "output-stationary" else 0,
        sum(case.bounds.values()),
    )


def _candidates(case: FuzzCase) -> Iterator[FuzzCase]:
    """Shrink candidates in priority order; all are legal cases."""
    # Densify: drop the sparsity machinery entirely, then one knob at a
    # time, so a sparsity-specific bug keeps exactly the knob it needs.
    if case.sparsity_name != "dense" or case.balancing_name != "none":
        yield case.replace(
            sparsity_name="dense",
            balancing_name="none",
            densities={name: 1.0 for name in case.densities},
        )
    if case.balancing_name != "none":
        yield case.replace(balancing_name="none")
    if any(d < 1.0 for d in case.densities.values()):
        yield case.replace(
            densities={name: 1.0 for name in case.densities}
        )
    # Strip the adversarial mutation (restores the legal transform).
    if case.mutation is not None:
        yield case.replace(mutation=None)
    # Neutralize the transform to the canonical dataflow.
    if case.transform_name != "output-stationary":
        yield case.replace(transform_name="output-stationary")
    # Drop the batch axis: a bmm case often reproduces as plain matmul.
    if case.spec_name == "bmm" and set(case.bounds) == {"n", "i", "j", "k"}:
        yield case.replace(
            spec_name="matmul",
            bounds={k: case.bounds[k] for k in ("i", "j", "k")},
        )
    # Shrink bounds, largest axis first: halve, then decrement.
    for name in sorted(
        case.bounds, key=lambda n: (-case.bounds[n], n)
    ):
        size = case.bounds[name]
        if size > 1:
            halved = dict(case.bounds)
            halved[name] = max(1, size // 2)
            yield case.replace(bounds=halved)
            decremented = dict(case.bounds)
            decremented[name] = size - 1
            yield case.replace(bounds=decremented)


def shrink_case(
    case: FuzzCase,
    ctx: OracleContext,
    max_steps: int = MAX_SHRINK_STEPS,
) -> Tuple[FuzzCase, int]:
    """Minimize a failing ``case``; returns ``(smallest_case, steps)``.

    ``steps`` counts oracle re-runs (the ``fuzz.shrink_steps`` counter).
    The input case is assumed to fail its oracle; the returned case is
    guaranteed to still fail (it is the last accepted candidate, or the
    input itself when nothing smaller reproduces).
    """
    current = case
    steps = 0
    improved = True
    while improved and steps < max_steps:
        improved = False
        for candidate in _candidates(current):
            if case_cost(candidate) >= case_cost(current):
                continue
            if steps >= max_steps:
                break
            steps += 1
            if not run_oracle(candidate, ctx).agreed:
                current = candidate
                improved = True
                break
    return current, steps


__all__ = ["MAX_SHRINK_STEPS", "case_cost", "shrink_case"]
