#!/usr/bin/env python3
"""Quickstart: generate, simulate, and emit Verilog for a dense matmul
accelerator in ~30 lines of user code.

This walks the Figure 1 flow end to end: write the functional spec
(paper Listing 1), pick a dataflow (a space-time transform, Figure 2),
build, simulate against numpy, inspect the area report, and write the
generated Verilog to disk.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import Accelerator, matmul_spec, output_stationary


def build() -> Accelerator:
    """The quickstart design: a 4x4 output-stationary dense matmul.

    1. Functionality: the Listing 1 matmul spec (or write your own with
       FunctionalSpec -- see examples/sparse_accelerator_exploration.py).
    2. Dataflow: an output-stationary 4x4 array (x=i, y=j, t=i+j+k).
    """
    return Accelerator(
        spec=matmul_spec(),
        bounds={"i": 4, "j": 4, "k": 4},
        transform=output_stationary(),
    )


def main():
    accelerator = build()

    # 3. Build: compile the five design axes into a hardware description.
    design = accelerator.build()
    print(design.summary())

    # 4. Simulate: the cycle-level model executes the generated array.
    rng = np.random.default_rng(0)
    A = rng.integers(-5, 6, (4, 4))
    B = rng.integers(-5, 6, (4, 4))
    result = design.run({"A": A, "B": B})
    assert np.array_equal(result.outputs["C"], A @ B)
    print(
        f"\nsimulated {result.counters.macs} MACs in {result.cycles} cycles"
        f" (PE utilization {result.utilization:.1%}); outputs match numpy"
    )

    # 5. Inspect area (calibrated analytical model; see DESIGN.md).
    print("\n" + design.area_report().table())

    # 6. Emit Verilog (lowering lints the netlist and raises on errors).
    verilog = design.to_verilog()
    path = "matmul_accelerator.v"
    with open(path, "w") as f:
        f.write(verilog)
    print(f"\nwrote {len(verilog.splitlines())} lines of lint-clean Verilog to {path}")


if __name__ == "__main__":
    main()
