"""Figure 4 / Listing 5: CSR sparsity prunes the accumulation connections.

Compiles the input-stationary matmul array with and without ``Skip j when
B(k, j) == 0`` and reports the connection/IO-port changes of the
Figure 2a -> Figure 4 rewrite.
"""

import numpy as np

from repro.analysis import check_netlist, errors_only
from repro.core import compile_design
from repro.core.dataflow import input_stationary
from repro.core.sparsity import csr_b_matrix
from repro.rtl.lowering import lower_design
from repro.sim.spatial_array import SpatialArraySim


def _compile_pair(spec, bounds):
    dense = compile_design(spec, bounds, input_stationary())
    sparse = compile_design(
        spec, bounds, input_stationary(), sparsity=csr_b_matrix(spec)
    )
    return dense, sparse


def test_fig4_csr_pruning(benchmark, spec, bounds4, rng):
    dense, sparse = benchmark(_compile_pair, spec, bounds4)

    print()
    print(f"  dense  array: {len(dense.array.conns)} connection classes,"
          f" io ports {dense.array.io_ports}")
    print(f"  sparse array: {len(sparse.array.conns)} connection classes,"
          f" io ports {sparse.array.io_ports},"
          f" pruned: {sparse.pruned_variables()}")

    # The vertical accumulation connections are removed...
    assert sparse.pruned_variables() == ["c"]
    assert sparse.array.conns_for("c") == []
    assert len(dense.array.conns_for("c")) == 1
    # ...while both operand flows survive.
    assert len(sparse.array.conns_for("a")) == 1
    assert len(sparse.array.conns_for("b")) == 1
    # The pruned variable gains regfile IO (more ports to outer regfiles).
    assert sparse.array.io_ports["c"] > dense.array.io_ports["c"]

    # Both compute correctly; the sparse design skips zeros.
    A = rng.integers(-4, 5, (4, 4))
    B = rng.integers(-4, 5, (4, 4)) * (rng.random((4, 4)) < 0.4)
    r_dense = SpatialArraySim(dense).run({"A": A, "B": B})
    r_sparse = SpatialArraySim(sparse).run({"A": A, "B": B})
    assert np.array_equal(r_dense.outputs["C"], A @ B)
    assert np.array_equal(r_sparse.outputs["C"], A @ B)
    assert r_sparse.counters.macs <= r_dense.counters.macs

    # The generated RTL for both lints clean.
    assert errors_only(check_netlist(lower_design(dense))) == []
    assert errors_only(check_netlist(lower_design(sparse))) == []
    benchmark.extra_info["pruned"] = sparse.pruned_variables()
