#!/usr/bin/env python3
"""A full sparse matrix-multiplication system, OuterSPACE-style.

This example stitches the whole substrate together the way the paper's
Figure 8 system does:

1. Program the accelerator through the RISC-V-style ISA (Table II /
   Listing 7): move a CSR matrix from DRAM into a private memory buffer
   with real address/metadata arithmetic.
2. Run the outer-product multiply phase (A CSC x A CSR), producing
   scattered partial matrices.
3. Merge the partial matrices with the two merger designs of Figure 19
   and compare their throughput and area (Section VI-D).
4. Show the Section VI-C DMA bottleneck and its fix on the same matrix.

Run:  python examples/sparse_matmul_system.py
"""

import numpy as np

from repro.area.model import (
    flattened_merger_area,
    row_partitioned_merger_area,
)
from repro.baselines import outerspace
from repro.baselines.mergers import (
    flattened_merge,
    merge_reference,
    row_partitioned_merge,
    sparch_partial_matrices,
)
from repro.core.memspec import csr_buffer, dense_matrix_buffer
from repro.formats import spgemm_reference
from repro.isa import Machine, StellarDriver
from repro.workloads import synthesize


def build():
    """The compute side of the system: a CSR-skipping matmul array with
    private memory buffers for the stationary and streamed operands."""
    from repro import Accelerator, matmul_spec
    from repro.core.dataflow import input_stationary
    from repro.core.sparsity import csr_b_matrix

    spec = matmul_spec()
    n = 8
    return Accelerator(
        spec=spec,
        bounds={"i": n, "j": n, "k": n},
        transform=input_stationary(),
        sparsity=csr_b_matrix(spec),
        membufs={
            "A": dense_matrix_buffer("A", n, n),
            "B": csr_buffer("B", rows=n),
        },
    )


def main():
    # A scaled synthetic stand-in for a SuiteSparse matrix (DESIGN.md's
    # substitution table explains the scaling).
    matrix = synthesize("poisson3Da", max_rows=96, seed=11)
    print(f"workload: poisson3Da surrogate, shape={matrix.shape},"
          f" nnz={matrix.nnz}, scaled {matrix.scale_factor:.0f}x down")

    # --- 1. ISA-level programming (Section V) ---------------------------
    machine = Machine([csr_buffer("SRAM_A", rows=matrix.shape[0],
                                  capacity_bytes=1 << 20)])
    machine.dram.place_array(0x1000, matrix.data.astype(float))
    machine.dram.place_array(0x9000, matrix.indices.astype(float))
    machine.dram.place_array(0xF000, matrix.indptr.astype(float))

    driver = StellarDriver(machine)
    driver.set_src_and_dst("DRAM", "SRAM_A")
    driver.set_data_addr(driver.FOR_SRC, 0x1000)
    driver.set_metadata_addr(driver.FOR_SRC, 0, driver.ROW_ID, 0xF000)
    driver.set_metadata_addr(driver.FOR_SRC, 0, driver.COORDS, 0x9000)
    driver.set_span(driver.FOR_BOTH, 0, driver.ENTIRE_AXIS)
    driver.set_span(driver.FOR_BOTH, 1, matrix.shape[0])
    driver.set_stride(driver.FOR_BOTH, 0, 1)
    driver.set_metadata_stride(driver.FOR_BOTH, 0, 0, driver.COORDS, 1)
    driver.set_metadata_stride(driver.FOR_BOTH, 1, 0, driver.ROW_ID, 1)
    driver.set_axis(driver.FOR_BOTH, 0, driver.COMPRESSED)
    driver.set_axis(driver.FOR_BOTH, 1, driver.DENSE)
    cycles = driver.stellar_issue()

    loaded = machine.buffer("SRAM_A").to_dense_matrix(*matrix.shape)
    assert np.allclose(loaded, matrix.to_dense())
    print(f"ISA: moved CSR matrix into SRAM_A in {cycles} cycles"
          f" ({len(driver.history)} instructions)")

    # --- 2 & 3. Multiply + merge (Figures 18-19) ------------------------
    rounds = sparch_partial_matrices(matrix, ways=64)
    all_partials = [p for rnd in rounds for p in rnd]
    merged = merge_reference(all_partials)
    want = spgemm_reference(matrix, matrix)
    assert len(merged) == want.nnz
    print(f"multiply phase: {len(all_partials)} partial matrices,"
          f" {sum(len(p) for p in all_partials)} partial products,"
          f" {len(merged)} merged nonzeros (matches reference SpGEMM)")

    flat_cycles = sum(flattened_merge(r).cycles for r in rounds)
    row_cycles = sum(row_partitioned_merge(r).cycles for r in rounds)
    flat_area = flattened_merger_area(16)
    row_area = row_partitioned_merger_area(32)
    print(
        f"mergers: flattened x16 -> {flat_cycles} cycles"
        f" ({flat_area / 1000:.0f}K um^2);"
        f" row-partitioned x32 -> {row_cycles} cycles"
        f" ({row_area / 1000:.0f}K um^2, {flat_area / row_area:.0f}x smaller)"
    )

    # --- 4. The DMA bottleneck and its fix (Section VI-C) ---------------
    slow = outerspace.simulate(matrix, max_inflight=outerspace.DEFAULT_MAX_INFLIGHT)
    fast = outerspace.simulate(matrix, max_inflight=outerspace.IMPROVED_MAX_INFLIGHT)
    print(
        f"throughput: {slow.gflops:.2f} GFLOP/s with the default DMA ->"
        f" {fast.gflops:.2f} GFLOP/s with 16 in-flight requests"
        f" (same DRAM bandwidth; OuterSPACE reported"
        f" {outerspace.PAPER_REPORTED_GFLOPS})"
    )


if __name__ == "__main__":
    main()
