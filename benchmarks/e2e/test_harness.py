"""Tests of the end-to-end benchmark harness.

    PYTHONPATH=src python -m pytest benchmarks/e2e
"""

import json
import os
import shutil
import subprocess
import sys
import threading
import time

import pytest

import compare
import reference
import run
import spans
import workloads


class FakeClocks:
    """Per-thread CPU clocks plus one shared wall clock, advanced by
    hand: ``work`` burns CPU on the calling thread and wall time."""

    def __init__(self):
        self._cpu = threading.local()
        self.now = 0.0

    def cpu(self) -> float:
        return getattr(self._cpu, "value", 0.0)

    def wall(self) -> float:
        return self.now

    def work(self, amount: float) -> None:
        self._cpu.value = self.cpu() + amount
        self.now += amount


def test_nested_spans_book_self_time_and_outermost_calls():
    clocks = FakeClocks()
    tracer = spans.Tracer(clock=clocks.wall)
    with tracer.span(spans.ROOT):
        clocks.work(1)
        with tracer.span("exec.suite"):
            clocks.work(2)
            with tracer.span("sim.dense"):
                clocks.work(3)
            with tracer.span("exec.suite"):  # same layer: no new span
                clocks.work(4)
        clocks.work(5)
    totals = tracer.totals()
    assert totals["self_s"] == {spans.ROOT: 6, "exec.suite": 6, "sim.dense": 3}
    assert totals["calls"] == {spans.ROOT: 1, "exec.suite": 1, "sim.dense": 1}
    assert sum(totals["self_s"].values()) == clocks.now


def test_client_wait_and_server_work_are_not_counted_twice():
    clocks = FakeClocks()
    tracer = spans.Tracer(clock=clocks.cpu, wait_clock=clocks.wall)

    def server():
        with tracer.span("serve.server"):
            clocks.work(2)
            with tracer.span("sim.sparse"):
                clocks.work(8)

    with tracer.span("serve.client"):
        clocks.work(1)
        with tracer.span("serve.client", count=False, wait=True):
            thread = threading.Thread(target=server)
            thread.start()
            thread.join(10)
            assert not thread.is_alive()
        clocks.work(1)
    totals = tracer.totals()
    assert totals["self_s"] == {"serve.client": 2, "serve.server": 2, "sim.sparse": 8}
    assert totals["wait_s"] == {"serve.client": 10}
    assert totals["calls"]["serve.client"] == 1
    assert sum(totals["self_s"].values()) == clocks.now


def test_install_wraps_every_alias_and_undo_restores():
    import repro.exec.cache as cache_module
    from repro.exec.cache import CompileCache
    from repro.exec.fingerprint import fingerprint as original

    tracer = spans.Tracer()
    patches = spans.install(tracer)
    try:
        assert cache_module.fingerprint is not original
        cache = CompileCache()
        for _ in range(2):
            assert cache.memo("sim.dense", (1, 2), lambda: "built") == "built"
    finally:
        patches.undo()
    assert cache_module.fingerprint is original
    assert CompileCache.memo is CompileCache.__dict__["memo"]
    totals = tracer.totals()
    assert totals["calls"]["exec.cache"] == 2
    assert totals["calls"]["exec.fingerprint"] >= 2
    assert "sim.dense" in totals["self_s"]  # the build, charged to its stage
    hits = spans.hit_tally([(cache.stats, None)])
    assert hits == {"exec.cache.sim.dense": (1, 2)}
    figures = spans.layer_metrics(totals, hits, ops=2, wall_s=1.0)
    assert figures["exec.cache.sim.dense.hit_rate"] == 0.5
    assert figures["exec.store.hit_rate"] == 0.0


@pytest.mark.parametrize(
    "count, expected",
    [
        (9, None),
        (100, (90.0, 89, 10)),
        (199, (90.0, 179, 19)),
        (200, (95.0, 189, 10)),
        (1000, (99.0, 989, 10)),
        (10000, (99.9, 9989, 10)),
    ],
)
def test_tail_is_the_highest_percentile_with_ten_samples_beyond(count, expected):
    assert run.tail([float(v) for v in range(count)]) == expected


def test_digest_ignores_time_fields_only():
    rows = [{"cycles": 12, "matmul": (1, 2, 3), "elapsed_s": 0.5,
             "nested": {"ts": 1.0, "dur": 2.0, "energy_pj": 3.5}}]
    same = [{"cycles": 12, "matmul": [1, 2, 3], "elapsed_s": 9.0,
             "nested": {"ts": 7.0, "dur": 8.0, "energy_pj": 3.5}}]
    assert workloads.digest(rows) == workloads.digest(same)
    assert workloads.digest(rows) != workloads.digest([dict(rows[0], cycles=13)])


def test_checker_uses_golden_digests_then_first_op_identity():
    checker = workloads.Checker({"a": workloads.digest([1])})
    assert checker.check("a", [1])
    assert not checker.check("a", [2])
    assert checker.check("b", [3]) and checker.check("b", [3])
    assert not checker.check("b", [4])
    summary = checker.summary()
    assert (summary["golden_checked"], summary["identity_checked"]) == (2, 3)
    assert len(summary["mismatches"]) == 2


def test_op_time_is_divided_by_the_reference_slowdown(monkeypatch):
    # A host at half speed: every reference chunk takes twice as long.
    monkeypatch.setattr(reference, "chunk", lambda: 2 * reference.CHUNK_S)
    window = workloads.Measurement()
    assert window.slowdown == 1.0
    for latency in (1.0, 3.0):
        window.latencies.append(latency)
        window.wall_s += latency
        window.keep_reference()
    owed = reference.SHARE * window.wall_s
    assert owed <= window.ref_s < owed + 2 * reference.CHUNK_S
    assert window.slowdown == pytest.approx(2.0)
    assert window.op_norm_s == pytest.approx(1.0)


def test_reference_runs_between_parts_and_is_not_op_time(monkeypatch, tmp_path):
    def chunk():
        time.sleep(0.01)
        return reference.CHUNK_S

    monkeypatch.setattr(reference, "chunk", chunk)
    inside = []

    class ThreeParts(workloads.Sequential):
        parts_s = 0.0

        def op(self):
            for _ in range(3):
                started = time.perf_counter()
                time.sleep(0.05)
                self.parts_s += time.perf_counter() - started
                self.lap()
                if self._window is not None:
                    inside.append(self._window.ref_chunks)
            return "parts", [1]

    workload = ThreeParts(7, 0, str(tmp_path))
    window = workload.measure(workloads.Checker(), 0.0, 1)
    assert inside[-1] >= 2  # sampled during the op, not only after it
    assert window.latencies[0] == pytest.approx(workload.parts_s, abs=0.005)
    plain = workload.measure(workloads.Checker(), 0.0, 1, with_reference=False)
    assert plain.ref_chunks == 0


def test_benchmark_json_names_exactly_the_reported_metrics():
    with open(compare.BENCHMARK) as handle:
        benchmark = json.load(handle)
    gated = [w["name"] for w in benchmark["workloads"]]
    assert gated == [name for name in run.WORKLOADS if name != "sparse-spmm"]
    assert {m["name"]: m["unit"] for m in benchmark["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in benchmark["per_layer"]} == {
        name: run.unit_of(name) for name in run.per_layer_names()
    }
    assert benchmark["paths"] == ["benchmarks/e2e"]


@pytest.mark.parametrize(
    "parent, change, better, expected",
    [
        ([1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0],
         [0.8, 0.81, 0.79, 0.8, 0.82, 0.78, 0.8, 0.81, 0.79, 0.8], "lower", "gain"),
        ([1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0],
         [1.2, 1.21, 1.19, 1.2, 1.22, 1.18, 1.2, 1.21, 1.19, 1.2], "lower",
         "regression"),
        ([1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0],
         [1.01, 1.0, 1.0, 0.99, 1.03, 0.99, 1.0, 1.0, 1.0, 1.01], "lower",
         "no regression"),
        ([1.0, 2.0, 0.5, 1.5, 1.0, 2.0, 0.5, 1.5, 1.0, 2.0],
         [1.0, 2.0, 0.5, 1.5, 1.0, 2.0, 0.5, 1.5, 1.0, 2.0], "lower",
         "unresolved"),
        ([100.0] * 5 + [101.0] * 5, [120.0] * 5 + [121.0] * 5, "higher", "gain"),
    ],
)
def test_compare_verdicts(parent, change, better, expected):
    assert compare.verdict(parent, change, better, 0.1)[0] == expected


def test_compare_gives_reported_metrics_unbounded_rows(tmp_path):
    for side, rate in (("parent", 10.0), ("change", 20.0)):
        for index in range(10):
            run_dir = tmp_path / side / f"{index:02d}"
            run_dir.mkdir(parents=True)
            (run_dir / "serve-warm.json").write_text(json.dumps({
                "workload": "serve-warm",
                "metrics": {"op_norm_s": {"value": 1.0, "unit": "s"}},
                "reported": {"requests_per_s": {
                    "value": rate + index / 100, "unit": "1/s", "better": "higher",
                }},
            }))
    rows = compare.compare(
        str(tmp_path / "parent"), str(tmp_path / "change"), compare.metric_specs()
    )
    assert {row["metric"]: row["verdict"] for row in rows} == {
        "op_norm_s": "no regression", "requests_per_s": "gain",
    }


def test_compare_needs_ten_pairs(tmp_path):
    for side in ("parent", "change"):
        for index in range(3):
            run_dir = tmp_path / side / f"{index:02d}"
            run_dir.mkdir(parents=True)
            (run_dir / "dense-cnn.json").write_text(json.dumps({
                "workload": "dense-cnn",
                "metrics": {"op_norm_s": {"value": 1.0, "unit": "s"}},
            }))
    with pytest.raises(ValueError, match="at least 10"):
        compare.compare(str(tmp_path / "parent"), str(tmp_path / "change"), {})


def test_verify_digest_does_not_depend_on_the_checkout_path(tmp_path):
    checkout = tmp_path / "elsewhere"
    ignore = shutil.ignore_patterns("__pycache__", ".bench_tmp")
    for part in ("src", "examples", os.path.join("benchmarks", "e2e")):
        shutil.copytree(os.path.join(run.ROOT, part), checkout / part, ignore=ignore)
    out = tmp_path / "out"
    completed = subprocess.run(
        [sys.executable, os.path.join("benchmarks", "e2e", "run.py"), "--smoke",
         "--workload", "verify-rtl", "--seed", "7", "--out", str(out)],
        capture_output=True, text=True, timeout=300, cwd=checkout,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
    result = json.loads((out / "verify-rtl.json").read_text())
    assert result["check"]["golden_checked"] == 2
    assert result["check"]["mismatches"] == []


def test_smoke_run_has_no_errors(tmp_path):
    completed = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--smoke",
         "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=600, cwd=run.ROOT,
    )
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > 0
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted(
        f"{name}.json" for name in run.WORKLOADS
    )
