"""Compare end-to-end benchmark results of a parent and a change.

    python3 benchmarks/e2e/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the ``--out`` directories of repeated runs of
``run.py`` with identical settings (``parent/01``, ``parent/02``, ...),
each with one ``<workload>.json`` per workload; runs pair up by their
path relative to the directory.  Run at least ten pairs, alternating
which side runs first.

One row per (metric, workload): each side's median and quartiles, the
share of pairs the change won (ties count for neither), and a verdict:

* ``gain`` -- the change won at least 9/10 of the pairs and the medians
  differ, in the better direction, by more than the parent's IQR;
* ``unresolved`` -- either side's IQR is wider than the metric's bound
  (as a share of its median), unless every change run reads better
  than every parent run;
* ``regression`` -- the change's median is worse than the parent's by
  more than the bound;
* ``no regression`` -- otherwise.

Metrics without a bound (the per-layer ones, and the ungated
``reported`` ones such as ``op_p50_s``) get ``gain`` or ``no gain``.
Bounds and directions come from ``BENCHMARK.json``, and for the
``reported`` metrics from the result files.  Exits 1 when any row is a
regression, 2 on unusable input.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from typing import Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(HERE)), "BENCHMARK.json")

MIN_PAIRS = 10
GAIN_SHARE = 0.9


def metric_specs(path: str = BENCHMARK) -> Dict[str, Tuple[str, Optional[float]]]:
    """Metric name -> (better, bound) from ``BENCHMARK.json``."""
    with open(path) as handle:
        benchmark = json.load(handle)
    specs = {m["name"]: (m["better"], m["bound"]) for m in benchmark["end_to_end"]}
    specs.update({m["name"]: (m["better"], None) for m in benchmark["per_layer"]})
    return specs


def load_runs(
    directory: str,
) -> Tuple[Dict[str, Dict[Tuple[str, str], float]], Dict[str, str]]:
    """``(runs, ungated)``: relative run path -> {(metric, workload):
    value}, and the better direction of each ungated ``reported``
    metric found."""
    runs: Dict[str, Dict[Tuple[str, str], float]] = {}
    ungated: Dict[str, str] = {}
    for dirpath, _dirs, files in os.walk(directory):
        for filename in files:
            if not filename.endswith(".json"):
                continue
            with open(os.path.join(dirpath, filename)) as handle:
                result = json.load(handle)
            run = os.path.relpath(dirpath, directory)
            values = runs.setdefault(run, {})
            for metric, entry in result["metrics"].items():
                values[(metric, result["workload"])] = float(entry["value"])
            for metric, entry in result.get("reported", {}).items():
                values[(metric, result["workload"])] = float(entry["value"])
                ungated[metric] = entry["better"]
    return runs, ungated


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def relative_spread(values: Sequence[float]) -> float:
    q1, median, q3 = quartiles(values)
    if median == 0:
        return 0.0 if q3 == q1 else float("inf")
    return (q3 - q1) / abs(median)


def verdict(
    parent: Sequence[float],
    change: Sequence[float],
    better: str,
    bound: Optional[float],
) -> Tuple[str, float]:
    """``(verdict, share of pairs won)`` for paired samples."""
    sign = 1.0 if better == "higher" else -1.0
    won = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    share = won / len(parent)
    p1, p_median, p3 = quartiles(parent)
    gained = sign * (statistics.median(change) - p_median)
    if share >= GAIN_SHARE and gained > p3 - p1:
        return "gain", share
    if bound is None:
        return "no gain", share
    if better == "higher":
        every_better = min(change) > max(parent)
    else:
        every_better = max(change) < min(parent)
    if max(relative_spread(parent), relative_spread(change)) > bound:
        return ("no regression" if every_better else "unresolved"), share
    if gained < -bound * abs(p_median):
        return "regression", share
    return "no regression", share


def compare(parent_dir: str, change_dir: str, specs) -> List[Dict[str, object]]:
    parent_runs, ungated = load_runs(parent_dir)
    change_runs, _ = load_runs(change_dir)
    specs = dict({name: (better, None) for name, better in ungated.items()}, **specs)
    paired = sorted(set(parent_runs) & set(change_runs))
    if len(paired) < MIN_PAIRS:
        raise ValueError(
            f"{len(paired)} paired runs; at least {MIN_PAIRS} are needed"
        )
    keys = sorted(
        set.intersection(
            *(set(parent_runs[run]) & set(change_runs[run]) for run in paired)
        )
    )
    rows = []
    for metric, workload in keys:
        if metric not in specs:
            continue
        better, bound = specs[metric]
        parent = [parent_runs[run][(metric, workload)] for run in paired]
        change = [change_runs[run][(metric, workload)] for run in paired]
        outcome, share = verdict(parent, change, better, bound)
        rows.append({
            "metric": metric, "workload": workload, "pairs": len(paired),
            "parent": quartiles(parent), "change": quartiles(change),
            "won": share, "verdict": outcome,
        })
    return rows


def _side(q: Tuple[float, float, float]) -> str:
    return f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    try:
        rows = compare(argv[0], argv[1], metric_specs())
    except (OSError, ValueError, KeyError) as err:
        print(f"compare: {err}", file=sys.stderr)
        return 2
    print(f"{'metric':<34} {'workload':<15} {'parent median [q1, q3]':<34}"
          f" {'change median [q1, q3]':<34} {'won':>5}  verdict")
    for row in rows:
        print(f"{row['metric']:<34} {row['workload']:<15} {_side(row['parent']):<34}"
              f" {_side(row['change']):<34} {row['won']:>5.0%}  {row['verdict']}")
    return 1 if any(row["verdict"] == "regression" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
