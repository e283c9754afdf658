#!/usr/bin/env python
"""Wall-clock speed floors that have no end-to-end workload yet.

    PYTHONPATH=src python benchmarks/speed_floors.py

Three speedups, each with the parity check it has always carried:

* ``quick`` -- the size-6 matmul DSE sweep, serial uncached over the
  best of cached and parallel (one worker per CPU); identical points;
* ``kernel_reference`` -- the scalar reference interpreter over the
  trace-compiled batched kernel on a 12^3 matmul; byte-identical outputs;
* ``suite_resnet50`` -- a cold over a warm ``repro sweep resnet50``
  (cap 8, seed 0) in two fresh subprocesses sharing one disk-store
  root; identical rows.  A subprocess that fails fails the floor.

Each floor is half the speedup last committed as its baseline, so it
trips on a >2x relative slowdown -- or when the slow side gets faster,
which is why a ``jobs>1`` / cold-vs-warm end-to-end workload should
replace this script.  Prints one line per floor; exits 1 if any fails.
"""

import json
import os
import subprocess
import sys
import tempfile
import time

import numpy as np

import repro
from repro.cli import SPARSITIES, TRANSFORMS, _random_tensors
from repro.core import Bounds, matmul_spec
from repro.core.balancing import LoadBalancingScheme, row_shift_scheme
from repro.core.sparsity import SparsityStructure
from repro.dse.explorer import explore
from repro.exec.cache import CompileCache
from repro.sim.kernel import compile_kernel

#: Half of the committed ``quick`` baseline speedup, 2.8415x.
QUICK_FLOOR = 1.4208

#: The kernel's absolute 2.0x floor, or half of its committed
#: ``kernel_reference`` baseline speedup (44.9889x), whichever is higher.
KERNEL_FLOOR = max(2.0, 22.4945)

#: Half of the committed ``suite_resnet50`` baseline speedup, 31.2328x.
SUITE_FLOOR = 15.6164


def _best_of(fn, repeats):
    """Minimum wall time over ``repeats`` calls, plus the last value."""
    best, value = float("inf"), None
    for _ in range(repeats):
        start = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - start)
    return best, value


def quick(size=6, seed=0):
    spec = matmul_spec()
    bounds = Bounds({name: size for name in spec.index_names})
    tensors = _random_tensors(spec, size, seed)
    sparsities = {"dense": SparsityStructure()}
    sparsities.update(
        (name, factory(spec)) for name, factory in SPARSITIES.items() if factory
    )
    kwargs = dict(
        transforms={name: factory() for name, factory in TRANSFORMS.items()},
        sparsities=sparsities,
        balancings={
            "none": LoadBalancingScheme(),
            "row-shift": row_shift_scheme(size // 2),
        },
    )
    times, points = [], []
    for cache, jobs in ((False, None), (True, None), (CompileCache(), 0)):
        start = time.perf_counter()
        result = explore(spec, bounds, tensors, cache=cache, jobs=jobs, **kwargs)
        times.append(time.perf_counter() - start)
        points.append([
            (p.name, p.cycles, round(p.utilization, 12), round(p.area_um2, 6))
            for p in result.points
        ])
    identical = points[0] == points[1] == points[2]
    return times[0] / min(times[1:]), identical, QUICK_FLOOR


def kernel_reference(size=12, seed=0, repeats=3):
    spec = matmul_spec()
    bounds = Bounds({name: size for name in spec.index_names})
    rng = np.random.default_rng(seed)
    tensors = {name: rng.integers(-8, 8, (size, size)) for name in "AB"}
    kernel = compile_kernel(spec)
    scalar_s, scalar = _best_of(
        lambda: spec.interpret(bounds, tensors, kernel=False), repeats
    )
    kernel.replay(bounds, tensors)  # warm the ufunc machinery
    kernel_s, batched = _best_of(lambda: kernel.replay(bounds, tensors), repeats)
    identical = set(scalar) == set(batched) and all(
        scalar[name].dtype == batched[name].dtype
        and scalar[name].shape == batched[name].shape
        and scalar[name].tobytes() == batched[name].tobytes()
        for name in scalar
    )
    return scalar_s / max(kernel_s, 1e-9), identical, KERNEL_FLOOR


def suite_resnet50(cap=8, seed=0):
    src_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    pythonpath = os.pathsep.join(p for p in (src_root, os.environ.get("PYTHONPATH")) if p)
    command = [sys.executable, "-m", "repro", "sweep", "resnet50",
               "--cap", str(cap), "--seed", str(seed), "--json"]
    with tempfile.TemporaryDirectory(prefix="stellar-floors-") as cache_dir:
        env = dict(os.environ, STELLAR_CACHE_DIR=cache_dir, PYTHONPATH=pythonpath)
        cold, warm = [
            json.loads(subprocess.run(
                command, capture_output=True, text=True, env=env,
                timeout=600, check=True,
            ).stdout)
            for _ in range(2)
        ]
    cold_s = float(cold["aggregates"]["elapsed_s"])
    warm_s = max(float(warm["aggregates"]["elapsed_s"]), 1e-9)
    return cold_s / warm_s, cold["rows"] == warm["rows"], SUITE_FLOOR


def main():
    failed = 0
    for floor in (quick, kernel_reference, suite_resnet50):
        try:
            speedup, identical, threshold = floor()
        except Exception as exc:  # a failed run is a failed floor
            failed += 1
            print(f"{floor.__name__}: FAILED to run: {exc!r}")
            continue
        ok = identical and speedup >= threshold
        failed += not ok
        print(
            f"{floor.__name__}: {speedup:.2f}x (floor {threshold:.4f}x),"
            f" results identical: {identical} -> {'ok' if ok else 'FAIL'}"
        )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
