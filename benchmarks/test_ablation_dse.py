"""Ablation: the full design-space sweep and its Pareto frontier.

The paper motivates Stellar with "automated and rapid design space
exploration" across independent axes (Section I).  This bench runs the
cross product of dataflows x sparsity structures x balancing schemes on
an imbalanced sparse workload and prints the Pareto frontier over
(cycles, area) -- showing that no single axis choice dominates, which is
the reason the axes must be explorable independently.
"""

import numpy as np

from repro.core import Bounds, matmul_spec
from repro.core.balancing import LoadBalancingScheme, row_shift_scheme
from repro.core.dataflow import hexagonal, input_stationary, output_stationary
from repro.core.sparsity import SparsityStructure, csr_b_matrix
from repro.dse import explore
from repro.exec.cache import CompileCache

N = 6


def _run_sweep():
    rng = np.random.default_rng(13)
    a = rng.integers(1, 5, (N, N))
    b = np.zeros((N, N), dtype=int)
    b[0, :] = rng.integers(1, 5, N)
    b[2, :2] = rng.integers(1, 5, 2)
    spec = matmul_spec()
    return explore(
        spec,
        Bounds({"i": N, "j": N, "k": N}),
        {"A": a, "B": b},
        transforms={
            "output-stationary": output_stationary(),
            "input-stationary": input_stationary(),
            "hexagonal": hexagonal(),
        },
        sparsities={
            "dense": SparsityStructure(),
            "B-csr": csr_b_matrix(spec),
        },
        balancings={
            "none": LoadBalancingScheme(),
            "row-shift": row_shift_scheme(N // 2),
        },
        cache=CompileCache(),
    )


def test_ablation_design_space_sweep(benchmark):
    result = benchmark(_run_sweep)

    print("\n" + result.table())
    frontier = result.pareto_frontier()
    print(f"\n  pareto frontier: {[p['name'] for p in frontier]}")

    assert len(result) == 12
    assert len(frontier) >= 2  # a real trade-off, not a single winner
    # The frontier spans a real cycles/area trade-off.
    assert frontier[0]["cycles"] < frontier[-1]["cycles"]
    assert frontier[0]["area_um2"] > frontier[-1]["area_um2"]
    # Sparse skipping is on the fast end of the frontier.
    assert any("B-csr" in p["name"] for p in frontier)
    benchmark.extra_info["frontier"] = [p["name"] for p in frontier]
