"""End-to-end benchmark of the five user paths of ``repro``.

Run from the repository root::

    python3 benchmarks/e2e/run.py --seed 7                  # all workloads
    python3 benchmarks/e2e/run.py --workload dense-cnn --seed 7 --seconds 15
    python3 benchmarks/e2e/run.py --workload serve-warm --trace 1
    python3 benchmarks/e2e/run.py --smoke                   # 1 op each, cap 4

Each workload runs in fresh child processes, one after another.  Set-up
is repeated :data:`SETUP_REPS` times in separate children and reported
as the median; the last child goes on to measure.  The gated times are
divided by the slowdown of a fixed piece of Python run alongside them
(``reference.py``), which cancels most of a shared host's swings in
speed; the raw wall times are printed too.  Every metric is printed by
name with its unit; the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  Every op's output is
checked against ``golden.json`` (or, for a seed without golden digests,
against the first op of the run); a mismatch fails the op and the
command exits 1.

``--trace`` swaps the end-to-end metrics for per-layer ones, recorded
by wrapping each layer's public functions from ``spans.py``.

The benchmark reads and writes only inside the checkout.  Scratch
stores and sockets live under ``.bench_tmp/`` and are removed at exit;
``STELLAR_CACHE_DIR`` and ``TMPDIR`` point there too, never at
``~/.cache``.  Per-workload JSON files are written only to ``--out``;
without it the printed report is the whole result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional, Tuple

import reference

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
GOLDEN = os.path.join(HERE, "golden.json")
SCRATCH = os.path.join(ROOT, ".bench_tmp")

WORKLOADS = ("dense-cnn", "sparse-spmm", "halving-search", "serve-warm", "verify-rtl")

#: Set-up runs per measured run; ``setup_s`` is their median.
SETUP_REPS = 3

#: Seeds with committed golden digests: the default seed and two
#: held-out seeds.
GOLDEN_SEEDS = (7, 101, 202)

#: A child that has not finished after this long is killed.
CHILD_TIMEOUT_S = 170.0

#: Gated end-to-end metric -> unit.  Both times are normalised by the
#: reference run alongside them (``reference.py``): raw op times moved
#: by up to 30% from run to run with the shared host's speed (see
#: README.md).  The raw times are reported, ungated, by :func:`reported`.
END_TO_END = {
    "setup_s": "s",
    "op_norm_s": "s",
    "peak_rss_mb": "MB",
}

#: Tail percentiles, in per mille, tried from the highest down; the
#: first with at least ten samples beyond it is reported.
TAIL_LEVELS = (999, 990, 950, 900)


def per_layer_names() -> List[str]:
    import spans

    names = []
    for layer in spans.LAYERS:
        names += [f"{layer}.calls", f"{layer}.self_s"]
    names.append("serve.client.wait_s")
    names += [f"exec.cache.{stage}.hit_rate" for stage in spans.STAGE_LAYERS]
    names += [
        "exec.store.hit_rate",
        "exec.shm.worker_fds_per_request",
        "trace.unattributed_share",
        "trace.overhead",
    ]
    return names


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name.endswith((".calls", "_per_request")):
        return "count"
    if name.endswith("_s"):
        return "s"
    return "ratio"


def tail(samples: List[float]) -> Optional[Tuple[float, float, int]]:
    """``(percentile, value, beyond)`` for the highest level in
    :data:`TAIL_LEVELS` with at least ten samples beyond it (nearest
    rank), or ``None`` when there are too few samples for any."""
    ordered = sorted(samples)
    count = len(ordered)
    for level in TAIL_LEVELS:
        rank = max(1, -(-level * count // 1000))
        if count - rank >= 10:
            return level / 10, ordered[rank - 1], count - rank
    return None


def reported(result: Dict[str, object]) -> Dict[str, Dict[str, object]]:
    """The ungated end-to-end metrics of an untraced run, in wall time:
    set-up, the median and fastest op, throughput, and the tail where
    :func:`tail` finds one; and the two slowdowns the gated times were
    divided by."""
    samples = result["latencies"]
    rate = "requests_per_s" if result["workload"] == "serve-warm" else "ops_per_s"
    out = {
        "setup_wall_s": {"value": statistics.median(result["setup_samples"]),
                         "unit": "s", "better": "lower"},
        "op_p50_s": {"value": statistics.median(samples) if samples else 0.0,
                     "unit": "s", "better": "lower"},
        "op_min_s": {"value": min(samples, default=0.0),
                     "unit": "s", "better": "lower"},
        rate: {"value": result["ops_per_s"], "unit": "1/s", "better": "higher"},
        "slowdown": {"value": result["slowdown"], "unit": "ratio",
                     "better": "lower"},
        "setup_slowdown": {"value": statistics.median(result["setup_slowdowns"]),
                           "unit": "ratio", "better": "lower"},
    }
    found = tail(samples)
    if found is not None:
        level, value, _beyond = found
        out[f"op_p{level:g}_s"] = {"value": value, "unit": "s", "better": "lower"}
    return out


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------


def child_env(tmp: str) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["STELLAR_CACHE_DIR"] = os.path.join(tmp, "default-store")
    env["TMPDIR"] = tmp
    # One load-generating process on a 2-vCPU box: no BLAS threads.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def pin_to_one_cpu() -> None:
    """Run this process and every process it starts on one CPU.

    The host can slow each vCPU by its own amount, and the reference
    measures the vCPU it runs on.  Unpinned, the serve daemon is free to
    run on the other one: its normalised op time then fell by up to 18%
    as the host got busy, against up to 9% pinned (see README.md)."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def spawn_child(config: Dict[str, object], deadline: float) -> Dict[str, object]:
    """Run one child to completion and return its result object, with
    ``setup_slowdown``: the reference run just before the spawn and just
    after the child's set-up, over the quiet host's time for it."""
    tmp = tempfile.mkdtemp(prefix=f"{config['workload']}-", dir=config["scratch"])
    parent_ref_s = reference.run(reference.SETUP_CHUNKS)
    config = dict(config, tmp=tmp, spawned_at=time.time())
    child = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "--child", json.dumps(config)],
        cwd=ROOT,
        env=child_env(tmp),
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, _ = child.communicate(timeout=max(1.0, deadline - time.time()))
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        raise RuntimeError(f"{config['workload']}: child timed out") from None
    finally:
        if child.poll() is None:
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()
        shutil.rmtree(tmp, ignore_errors=True)
    lines = out.strip().splitlines()
    if child.returncode != 0 or not lines:
        raise RuntimeError(
            f"{config['workload']}: child exited {child.returncode}"
        )
    result = json.loads(lines[-1])
    quiet_s = 2 * reference.SETUP_CHUNKS * reference.CHUNK_S
    result["setup_slowdown"] = (parent_ref_s + result["setup_ref_s"]) / quiet_s
    return result


def child_main(config_text: str) -> int:
    import workloads

    result = workloads.run_child(json.loads(config_text))
    print(json.dumps(result), flush=True)
    return 0


# ---------------------------------------------------------------------------
# One workload
# ---------------------------------------------------------------------------


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    smoke: bool,
    scratch: str,
    golden: Dict[str, object],
) -> Dict[str, object]:
    """Set up :data:`SETUP_REPS` times (once for traced and smoke runs),
    measure in the last child, and derive the metrics."""
    deadline = time.time() + CHILD_TIMEOUT_S
    seed_golden = golden["seeds"].get(str(seed), {}).get(name)
    reps = 1 if trace or smoke else SETUP_REPS
    setups, slowdowns = [], []
    attempted = failed = 0
    for rep in range(reps):
        result = spawn_child(
            {
                "workload": name, "seed": seed, "seconds": seconds,
                "trace": trace, "smoke": smoke, "scratch": scratch,
                "setup_only": rep < reps - 1, "golden": seed_golden,
            },
            deadline,
        )
        setups.append(result["setup_s"])
        slowdowns.append(result["setup_slowdown"])
        attempted += result["attempted"]
        failed += result["failed"]
    result.update(
        attempted=attempted, failed=failed,
        setup_samples=setups, setup_slowdowns=slowdowns,
    )
    if trace:
        metrics = {key: result["layers"][key] for key in per_layer_names()}
    else:
        metrics = {
            "setup_s": statistics.median(
                setup / slowdown for setup, slowdown in zip(setups, slowdowns)
            ),
            "op_norm_s": result["op_norm_s"],
            "peak_rss_mb": result["peak_rss_mb"],
        }
        result["reported"] = reported(result)
    result["metrics"] = {
        key: {"value": value, "unit": unit_of(key)} for key, value in metrics.items()
    }
    result["correct"] = failed == 0 and not result["check"]["mismatches"]
    return result


def describe(result: Dict[str, object], trace: bool) -> List[str]:
    name = result["workload"]
    check = result["check"]
    mode = (
        "golden digests" if check["golden_checked"] and not check["identity_checked"]
        else "golden digests + identical ops" if check["golden_checked"]
        else "identical ops (no golden digests for this seed)"
    )
    lines = [
        f"== {name} (seed {result['seed']}): {result['attempted']} ops attempted,"
        f" {result['failed']} failed, error_rate"
        f" {result['failed'] / max(1, result['attempted']):.4f}; check: {mode}"
    ]
    lines += [f"   mismatch {item}" for item in check["mismatches"]]
    for key, metric in result["metrics"].items():
        lines.append(f"   {key:<44} {metric['value']:.6g} {metric['unit']}")
    if trace:
        share = result["layers"]["trace.self_sum_share"]
        lines.append(f"   {'trace.self_sum_share':<44} {share:.6g} ratio")
        for label in result["unknown_layers"]:
            lines.append(f"   note: self time under unmapped label {label!r}")
    else:
        for key, metric in result["reported"].items():
            lines.append(f"   {key:<44} {metric['value']:.6g} {metric['unit']}"
                         " (not gated)")
        samples = result["latencies"]
        found = tail(samples)
        lines.append(
            f"   op samples {len(samples)}"
            + (f", {found[2]} beyond the tail" if found else ", too few for a tail")
            + "; set-up samples"
            f" {', '.join(f'{s:.3f}' for s in result['setup_samples'])} s"
        )
    return lines


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def record_golden(scratch: str) -> int:
    """Rewrite ``golden.json`` from one op of each workload per seed."""
    seeds: Dict[str, Dict[str, Dict[str, str]]] = {}
    for seed in GOLDEN_SEEDS:
        for name in WORKLOADS:
            result = spawn_child(
                {
                    "workload": name, "seed": seed, "seconds": 0.0,
                    "trace": False, "smoke": False, "scratch": scratch,
                    "setup_only": True, "golden": None,
                },
                time.time() + CHILD_TIMEOUT_S,
            )
            seeds.setdefault(str(seed), {})[name] = result["digests"]
            print(f"recorded {name} seed {seed}", file=sys.stderr)
    payload = {
        "about": "sha256 of the canonical JSON (sorted keys, no spaces) of"
        " each op's rows with time fields removed; see workloads.digest",
        "seeds": seeds,
    }
    with open(GOLDEN, "w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, default=None,
                        help="run one workload (default: all, in turn)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="measuring time per workload run")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="report per-layer metrics from a traced run")
    parser.add_argument("--out", default=None,
                        help="directory for per-workload JSON results"
                        " (default: none written)")
    parser.add_argument("--smoke", action="store_true",
                        help="one op per workload at cap 4, 30 served requests")
    parser.add_argument("--record-golden", action="store_true",
                        help="rewrite golden.json for the golden seeds")
    parser.add_argument("--child", default=None, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    if args.child is not None:
        return child_main(args.child)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"e2e: no repro package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    pin_to_one_cpu()
    os.makedirs(SCRATCH, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=SCRATCH)
    try:
        if args.record_golden:
            return record_golden(scratch)
        with open(GOLDEN) as handle:
            golden = json.load(handle)
        if args.out:
            os.makedirs(args.out, exist_ok=True)
        names = [args.workload] if args.workload else list(WORKLOADS)
        results = []
        for name in names:
            try:
                result = run_workload(
                    name, args.seed, args.seconds, bool(args.trace), args.smoke,
                    scratch, golden,
                )
            except RuntimeError as err:
                print(f"e2e: {err}", file=sys.stderr)
                return 1
            results.append(result)
            print("\n".join(describe(result, bool(args.trace))), flush=True)
            if args.out:
                with open(os.path.join(args.out, f"{name}.json"), "w") as handle:
                    json.dump(dict(result, args=vars(args)), handle, indent=1)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(SCRATCH)  # only when no other run is using it
        except OSError:
            pass

    if args.workload:
        metrics = results[0]["metrics"]
    else:
        metrics = {
            f"{result['workload']}.{key}": metric
            for result in results
            for key, metric in result["metrics"].items()
        }
    correct = all(result["correct"] for result in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(result["attempted"] for result in results),
        "failed": sum(result["failed"] for result in results),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
