"""Tests for workload-suite construction and batched evaluation."""

import json
import os

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.exec.cache import CompileCache
from repro.exec.store import DiskStore
from repro.exec.suite import (
    Suite,
    build_suite,
    evaluate_suite,
    suite_names,
)


class TestConstruction:
    def test_registry_names(self):
        assert set(suite_names()) == {"resnet50", "alexnet", "suitesparse"}

    @pytest.mark.parametrize("name", ["resnet50", "alexnet", "suitesparse"])
    def test_build_is_deterministic(self, name):
        first = build_suite(name, cap=4, seed=3)
        second = build_suite(name, cap=4, seed=3)
        assert isinstance(first, Suite)
        assert [c.name for c in first.cases] == [c.name for c in second.cases]
        for a, b in zip(first.cases, second.cases):
            for tensor in a.tensors:
                np.testing.assert_array_equal(a.tensors[tensor], b.tensors[tensor])

    @pytest.mark.parametrize("name", ["resnet50", "alexnet", "suitesparse"])
    def test_tensors_match_bounds(self, name):
        suite = build_suite(name, cap=4)
        assert suite.cases
        for case in suite.cases:
            i, j, k = (case.bounds.size(axis) for axis in ("i", "j", "k"))
            assert i <= 4 and j <= 4 and k <= 4
            assert case.tensors["A"].shape == (i, k)
            assert case.tensors["B"].shape == (k, j)

    def test_candidates_route_per_case_operands(self):
        """Each candidate holds its case's own bounds and operand
        objects, not copies: a resident served suite then keys every
        repeat of a layer from the fingerprint identity memo."""
        suite = build_suite("alexnet", cap=4)
        candidates = suite.candidates()
        assert len(candidates) == len(suite.cases)
        for case, candidate in zip(suite.cases, candidates):
            assert candidate["name"] == case.name
            assert candidate["tensors"] is case.tensors
            assert candidate["bounds"] is case.bounds
            assert candidate["want_energy"] and candidate["want_digest"]
            assert not candidate.get("skip_illegal")

    def test_unknown_suite_names_available(self):
        with pytest.raises(KeyError, match="resnet50"):
            build_suite("vgg19")


class TestEvaluation:
    def test_rows_carry_metrics_and_digests(self):
        suite = build_suite("alexnet", cap=4)
        result = evaluate_suite(suite, jobs=1)
        assert len(result.rows) == len(suite.cases)
        for row in result.rows:
            assert row["cycles"] > 0
            assert row["energy_pj"] > 0
            assert len(row["output_digest"]) == 64
            assert row["bounds_str"].count("x") == 2
        aggregates = result.aggregates()
        assert aggregates["total_cycles"] == result.total_cycles
        assert aggregates["cases"] == len(suite.cases)
        assert "elapsed_s" in aggregates

    def test_parallel_matches_serial_byte_identically(self):
        suite = build_suite("suitesparse", cap=4)
        serial = evaluate_suite(suite, jobs=1)
        parallel = evaluate_suite(build_suite("suitesparse", cap=4), jobs=2)
        assert [r["output_digest"] for r in serial.rows] == [
            r["output_digest"] for r in parallel.rows
        ]
        assert [r["cycles"] for r in serial.rows] == [
            r["cycles"] for r in parallel.rows
        ]

    def test_warm_store_reuses_results_identically(self, tmp_path):
        root = str(tmp_path / "store")
        cold_cache = CompileCache(store=DiskStore(root))
        cold = evaluate_suite(build_suite("alexnet", cap=4), jobs=1, cache=cold_cache)
        assert cold_cache.store.stats.writes > 0

        warm_cache = CompileCache(store=DiskStore(root))
        warm = evaluate_suite(build_suite("alexnet", cap=4), jobs=1, cache=warm_cache)
        assert warm_cache.store.stats.hits > 0
        assert warm_cache.stats.disk_hits > 0
        assert [r["output_digest"] for r in cold.rows] == [
            r["output_digest"] for r in warm.rows
        ]

    def test_table_renders_every_case(self):
        suite = build_suite("alexnet", cap=4)
        result = evaluate_suite(suite, jobs=1)
        rendered = result.table()
        for case in suite.cases:
            assert case.name in rendered


class TestCli:
    def test_sweep_json(self, capsys, tmp_path):
        status = cli_main(
            [
                "sweep", "alexnet", "--cap", "4", "--jobs", "1", "--json",
                "--cache-dir", str(tmp_path / "cache"),
            ]
        )
        assert status == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["suite"] == "alexnet"
        assert payload["rows"] and payload["aggregates"]["total_cycles"] > 0
        assert payload["store"]["writes"] > 0

    def test_sweep_table_and_no_disk_cache(self, capsys):
        status = cli_main(
            ["sweep", "alexnet", "--cap", "4", "--jobs", "1", "--no-disk-cache"]
        )
        assert status == 0
        out = capsys.readouterr().out
        assert "mean utilization" in out and "cases" in out
        assert "disk" not in out  # persistence was disabled

    def test_sweep_unknown_suite_exits_2(self, capsys):
        assert cli_main(["sweep", "nope"]) == 2
        assert "resnet50" in capsys.readouterr().err

    def test_sweep_halving_json(self, capsys):
        status = cli_main(
            [
                "sweep", "alexnet", "--cap", "4", "--jobs", "1",
                "--halving", "--json", "--no-disk-cache",
            ]
        )
        assert status == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["mode"] == "halving"
        assert payload["ladder"] == [2, "full"]
        assert [r["fidelity"] for r in payload["rungs"]] == ["cap2", "full"]
        aggregates = payload["aggregates"]
        assert aggregates["total_cycles"] <= aggregates["fixed_total_cycles"]
        assert aggregates["evaluations_saved"] > 1.0

    def test_sweep_halving_table_shows_rung_trail(self, capsys):
        status = cli_main(
            [
                "sweep", "alexnet", "--cap", "4", "--jobs", "1",
                "--halving", "--no-disk-cache",
            ]
        )
        assert status == 0
        out = capsys.readouterr().out
        assert "rungs cap2:" in out
        assert "fewer full-fidelity" in out

    def test_sweep_autotune_infeasible_constraint_exits_2(self, capsys):
        status = cli_main(
            [
                "sweep", "alexnet", "--autotune", "--constraint", "area<=1",
                "--jobs", "1", "--no-disk-cache",
            ]
        )
        assert status == 2
        assert "satisfies --constraint area<=1" in capsys.readouterr().err

    def test_sweep_halving_bad_constraint_exits_2(self, capsys):
        status = cli_main(
            [
                "sweep", "alexnet", "--cap", "4", "--jobs", "1",
                "--halving", "--constraint", "latency<=3",
                "--no-disk-cache",
            ]
        )
        assert status == 2
        assert "metric" in capsys.readouterr().err


class TestStreaming:
    def test_on_row_streams_every_row_in_case_order(self):
        suite = build_suite("alexnet", cap=4)
        streamed = []
        result = evaluate_suite(
            suite, jobs=1,
            on_row=lambda index, row: streamed.append((index, row)),
        )
        assert [index for index, _row in streamed] == list(
            range(len(suite.cases))
        )
        # The streamed rows ARE the result rows, info and all.
        assert [row for _index, row in streamed] == result.rows

    def test_parallel_stream_is_in_order_and_identical(self):
        suite = build_suite("alexnet", cap=4)
        streamed = []
        result = evaluate_suite(
            suite, jobs=2,
            on_row=lambda index, row: streamed.append(index),
        )
        assert streamed == list(range(len(suite.cases)))
        assert len(result.rows) == len(suite.cases)


class TestResidentPool:
    def test_pool_matches_per_sweep_executor_byte_identically(self):
        # A per-sweep pool is a one-shot ResidentPool, so the independent
        # reference is the serial inline sweep.
        from repro.exec.engine import ResidentPool

        baseline = evaluate_suite(build_suite("alexnet", cap=4), jobs=1)
        with ResidentPool(jobs=2) as pool:
            first = evaluate_suite(build_suite("alexnet", cap=4), pool=pool)
            # Reuse across sweeps: same workers, fresh request.
            second = evaluate_suite(build_suite("alexnet", cap=4), pool=pool)
            assert pool.started
        digests = lambda result: [  # noqa: E731
            r["output_digest"] for r in result.rows
        ]
        assert digests(first) == digests(baseline)
        assert digests(second) == digests(baseline)

    def test_pool_reuse_across_different_suites(self):
        from repro.exec.engine import ResidentPool

        with ResidentPool(jobs=2) as pool:
            alexnet = evaluate_suite(build_suite("alexnet", cap=4), pool=pool)
            sparse = evaluate_suite(
                build_suite("suitesparse", cap=4), pool=pool
            )
        assert len(alexnet.rows) > 0 and len(sparse.rows) > 0
        serial = evaluate_suite(build_suite("suitesparse", cap=4), jobs=1)
        assert [r["output_digest"] for r in sparse.rows] == [
            r["output_digest"] for r in serial.rows
        ]

    @pytest.mark.skipif(
        not os.path.isdir("/proc/self/fd"), reason="needs /proc/<pid>/fd"
    )
    def test_worker_descriptors_stay_flat_across_sweeps(self):
        # Resident workers must not accumulate per-request resources: a
        # long-lived daemon would otherwise hit its descriptor limit.
        from repro.exec.engine import ResidentPool

        def worker_fds(pool):
            return {
                pid: len(os.listdir(f"/proc/{pid}/fd"))
                for pid in pool._executor._processes
            }

        names = ["alexnet", "resnet50", "suitesparse"]
        with ResidentPool(jobs=2) as pool:
            evaluate_suite(build_suite(names[0], cap=4), pool=pool)
            first = worker_fds(pool)
            for sweep in range(1, 30):
                evaluate_suite(
                    build_suite(names[sweep % len(names)], cap=4), pool=pool
                )
            last = worker_fds(pool)
        assert set(last) == set(first)
        for pid, count in last.items():
            assert count <= first[pid] + 4, (pid, first[pid], count)

    def test_close_is_idempotent_and_pool_restarts(self):
        from repro.exec.engine import ResidentPool

        pool = ResidentPool(jobs=2)
        assert not pool.started
        pool.close()
        pool.close()
        result = evaluate_suite(build_suite("alexnet", cap=4), pool=pool)
        assert pool.started
        pool.close()
        assert not pool.started
        assert len(result.rows) > 0


class TestWorkloadTablePayloads:
    def test_read_workload_table_defaults_name(self, tmp_path):
        from repro.exec.suite import build_table_suite, read_workload_table

        path = tmp_path / "mynet.json"
        path.write_text(json.dumps([{"name": "l0", "m": 4, "k": 4, "n": 4}]))
        payload = read_workload_table(str(path))
        assert payload["name"] == "mynet"
        assert build_table_suite(payload).name == "mynet"

    def test_build_table_suite_labels_errors_with_source(self):
        from repro.exec.suite import SuiteError, build_table_suite

        with pytest.raises(SuiteError, match="request: row 1"):
            build_table_suite(
                [{"name": "l0", "m": -1, "k": 4, "n": 4}], source="request"
            )

    def test_build_table_suite_matches_file_loader(self, tmp_path):
        from repro.exec.suite import (
            build_table_suite,
            load_workload_table,
            read_workload_table,
        )

        rows = [
            {"name": "l0", "m": 4, "k": 4, "n": 4},
            {"name": "l1", "m": 6, "k": 4, "n": 5, "b_density": 0.5},
        ]
        path = tmp_path / "t.json"
        path.write_text(json.dumps(rows))
        via_file = evaluate_suite(load_workload_table(str(path)), jobs=1)
        via_payload = evaluate_suite(
            build_table_suite(read_workload_table(str(path))), jobs=1
        )
        assert [r["output_digest"] for r in via_file.rows] == [
            r["output_digest"] for r in via_payload.rows
        ]
