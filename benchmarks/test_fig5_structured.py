"""Figure 5: the A100 2:4 structured-sparsity scheme via OptimisticSkip.

Compiles the output-stationary matmul with the 2:4 structure and checks
that PE-to-PE connections survive as 4-wide bundles rather than being
pruned, then executes a 2:4-sparse workload.
"""

import numpy as np

from repro.analysis import check_netlist, errors_only
from repro.core import compile_design
from repro.core.dataflow import output_stationary
from repro.core.sparsity import a100_two_four
from repro.rtl.lowering import lower_design
from repro.sim.spatial_array import SpatialArraySim


def _two_four_sparse(rng, n):
    """A matrix where two of every four adjacent elements are zero."""
    dense = rng.integers(1, 9, (n, n))
    for r in range(n):
        for group in range(0, n, 4):
            kill = rng.choice(4, size=2, replace=False)
            for offset in kill:
                if group + offset < n:
                    dense[r, group + offset] = 0
    return dense


def _compile(spec, bounds):
    return compile_design(
        spec, bounds, output_stationary(), sparsity=a100_two_four(spec)
    )


def test_fig5_a100_structured_sparsity(benchmark, spec, bounds4, rng):
    design = benchmark(_compile, spec, bounds4)

    bundles = {c.variable: c.bundle for c in design.array.conns}
    print(f"\n  connection bundles: {bundles};"
          f" pruned: {design.pruned_variables() or 'none'}")

    # OptimisticSkip retains connections but widens them to value bundles.
    assert design.pruned_variables() == []
    assert bundles["a"] == 4  # the weight operand scans 4 candidates
    assert bundles["b"] == 4
    assert bundles["c"] == 1  # partial sums still scalar

    # The generated PE carries 4x-wide operand wires.
    netlist = lower_design(design)
    pe = netlist.module("matmul_pe")
    assert pe.port("a_in").width == 32 * 4
    assert errors_only(check_netlist(netlist)) == []

    # Functional check on an actual 2:4 weight matrix.
    A = _two_four_sparse(rng, 4)
    B = rng.integers(-4, 5, (4, 4))
    result = SpatialArraySim(design).run({"A": A, "B": B})
    assert np.array_equal(result.outputs["C"], A @ B)
    benchmark.extra_info["bundles"] = bundles
