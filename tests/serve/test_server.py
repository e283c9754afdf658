"""End-to-end tests of the evaluation daemon over a unix socket.

Each test boots a real :class:`EvalServer` in a background thread.
Deterministic concurrency (the two-client dedup and drain tests) comes
from the ``evaluator`` injection point: a test-controlled evaluator
blocks on an event, so the test *knows* the second client arrives
while the first is in flight, instead of hoping a sleep wins a race.
"""

import json
import socket
import threading
import time

import pytest

from repro.exec.cache import CompileCache
from repro.exec.halving import halving_autotune_suite, sweep_suite
from repro.exec.store import SCHEMA_VERSION
from repro.exec.suite import (
    SuiteError,
    build_suite,
    build_table_suite,
    evaluate_suite,
)
from repro.obs.trace import get_tracer, tracing
from repro.serve import EvalServer, ServeClient, ServeError
from repro.serve import server as server_module
from repro.serve.protocol import jsonable, validate_request

TABLE = [
    {"name": "l0", "m": 4, "k": 4, "n": 4},
    {"name": "l1", "m": 6, "k": 4, "n": 5, "b_density": 0.5},
]


class ServerHarness:
    def __init__(self, tmp_path, socket_name, **kwargs):
        kwargs.setdefault("use_disk_cache", False)
        kwargs.setdefault("jobs", 1)
        kwargs.setdefault("drain_timeout", 5.0)
        self.server = EvalServer(**kwargs)
        self.socket_path = str(tmp_path / socket_name)
        ready = threading.Event()
        self.thread = threading.Thread(
            target=self.server.run,
            kwargs={
                "socket_path": self.socket_path,
                "ready": lambda _address: ready.set(),
            },
            daemon=True,
        )
        self.thread.start()
        assert ready.wait(10), "server never came up"
        self.client = ServeClient(self.socket_path, timeout=60.0)

    def stop(self):
        if self.thread.is_alive():
            self.server.stop()
            self.thread.join(timeout=15)
        assert not self.thread.is_alive()

    def wait_active(self, count, timeout=10.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            metrics = self.client.metrics()["server"]
            if metrics["active_requests"] >= count:
                return metrics
            time.sleep(0.01)
        raise AssertionError(f"never saw {count} active requests")


@pytest.fixture
def harness(tmp_path):
    harnesses = []

    def start(**kwargs):
        # Each daemon of a test listens on its own socket.
        h = ServerHarness(tmp_path, f"serve{len(harnesses)}.sock", **kwargs)
        harnesses.append(h)
        return h

    yield start
    for h in harnesses:
        h.stop()


class TestControlRequests:
    def test_ping_and_metrics(self, harness):
        h = harness()
        assert h.client.ping()["type"] == "pong"
        metrics = h.client.metrics()
        server = metrics["server"]
        for key in (
            "requests", "errors", "dedup_hits", "rows_streamed",
            "evaluations", "active_requests", "queue_depth",
            "latency_p50_s", "latency_p99_s", "uptime_s", "workers",
        ):
            assert key in server
        # The compile-cache registry rides along in the merged snapshot.
        assert isinstance(metrics["metrics"], dict)
        assert "exec.cache.hits" in metrics["metrics"]

    def test_shutdown_stops_the_server(self, harness):
        h = harness()
        reply = h.client.shutdown()
        assert reply["type"] == "shutting-down"
        h.thread.join(timeout=15)
        assert not h.thread.is_alive()


def batch_rows(suite, **flags):
    """The rows the batch engine gives ``suite``, as the wire sends them."""
    result = sweep_suite(suite, jobs=1, cache=CompileCache(), **flags)
    return json.dumps(jsonable(result.rows))


class TestNegativePaths:
    def raw_connection(self, h):
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(30)
        sock.connect(h.socket_path)
        return sock, sock.makefile("rwb")

    def roundtrip(self, stream, line: bytes):
        stream.write(line + b"\n")
        stream.flush()
        return json.loads(stream.readline())

    def test_errors_are_structured_and_connection_survives(self, harness):
        h = harness()
        sock, stream = self.raw_connection(h)
        try:
            cases = [
                (b"{malformed", "bad-json"),
                (b'{"type": "frobnicate"}', "unknown-type"),
                (b'{"type": "sweep", "suite": "nope"}', "unknown-suite"),
                (b'{"type": "sweep", "suite": "alexnet", "cap": 0}',
                 "bad-bounds"),
                (b'{"type": "sweep"}', "bad-request"),
                (b'{"type": "sweep", "suite": "alexnet", "jobs": 4}',
                 "unknown-field"),
            ]
            for line, code in cases:
                reply = self.roundtrip(stream, line)
                assert reply["type"] == "error"
                assert reply["code"] == code
                assert reply["message"]
            # The connection is still perfectly usable afterwards.
            assert self.roundtrip(stream, b'{"type": "ping"}')["type"] == "pong"
        finally:
            stream.close()
            sock.close()

    def test_oversized_line_is_a_bad_request_and_server_survives(
        self, harness
    ):
        h = harness()
        sock, stream = self.raw_connection(h)

        def send_oversized():
            # The server stops reading past its line limit and hangs up,
            # so the tail of the write may hit a closed socket.
            try:
                sock.sendall(b"x" * (1 << 20) + b"\n")
            except OSError:
                pass

        sender = threading.Thread(target=send_oversized, daemon=True)
        sender.start()
        try:
            reply = json.loads(stream.readline())
            assert reply["type"] == "error"
            assert reply["code"] == "bad-request"
            assert "too long" in reply["message"]
            try:  # closed; unread request bytes may turn EOF into a reset
                tail = stream.readline()
            except ConnectionResetError:
                tail = b""
            assert tail == b""
        finally:
            sender.join(timeout=30)
            stream.close()
            sock.close()
        assert h.client.metrics()["server"]["errors"] == 1
        result = h.client.sweep(table=TABLE, cap=8, seed=7)
        fresh = evaluate_suite(
            build_table_suite(TABLE, cap=8, seed=7), cache=CompileCache()
        )
        assert json.dumps(result["rows"]) == json.dumps(jsonable(fresh.rows))

    def test_bad_table_is_a_suite_error_terminal(self, harness):
        h = harness()
        with pytest.raises(ServeError) as excinfo:
            h.client.sweep(table=[{"name": "l0", "m": 0, "k": 4, "n": 4}])
        assert excinfo.value.code == "suite-error"
        assert "must be positive" in str(excinfo.value)

    def test_evaluator_crash_is_internal_error_and_server_survives(
        self, harness
    ):
        def exploding(request, emit_row, emit_trace):
            raise RuntimeError("boom")

        h = harness(evaluator=exploding)
        with pytest.raises(ServeError) as excinfo:
            h.client.sweep(suite="alexnet")
        assert excinfo.value.code == "internal-error"
        assert "boom" in str(excinfo.value)
        assert h.client.ping()["type"] == "pong"

    def test_suite_error_from_evaluator_keeps_its_code(self, harness):
        def failing(request, emit_row, emit_trace):
            raise SuiteError("row 3: no good")

        h = harness(evaluator=failing)
        with pytest.raises(ServeError) as excinfo:
            h.client.sweep(suite="alexnet")
        assert excinfo.value.code == "suite-error"

    def test_non_utf8_line_is_bad_json_and_the_connection_serves_on(
        self, harness
    ):
        h = harness()
        sock, stream = self.raw_connection(h)
        try:
            reply = self.roundtrip(stream, b"\xff\xfe")
            assert reply["type"] == "error"
            assert reply["code"] == "bad-json"
            stream.write(
                json.dumps(
                    {"type": "sweep", "table": TABLE, "cap": 8, "seed": 7}
                ).encode()
                + b"\n"
            )
            stream.flush()
            rows = []
            while True:
                message = json.loads(stream.readline())
                if message["type"] == "row":
                    rows.append(message["row"])
                elif message["type"] != "trace":
                    break
            assert message["type"] == "result"
        finally:
            stream.close()
            sock.close()
        assert json.dumps(rows) == batch_rows(
            build_table_suite(TABLE, cap=8, seed=7)
        )

    def test_client_gone_after_the_first_row_leaves_the_daemon_up(
        self, harness
    ):
        h = harness()
        request = {"type": "sweep", "suite": "alexnet", "cap": 4}
        sock, stream = self.raw_connection(h)
        try:
            stream.write(json.dumps(request).encode() + b"\n")
            stream.flush()
            while json.loads(stream.readline())["type"] != "row":
                pass
        finally:
            stream.close()
            sock.close()
        result = h.client.sweep(suite="alexnet", cap=4)
        assert json.dumps(result["rows"]) == batch_rows(
            build_suite("alexnet", cap=4)
        )
        assert h.client.metrics()["server"]["errors"] == 0


class TestSuiteMemo:
    @pytest.fixture
    def builds(self, monkeypatch):
        """Every suite the daemon builds, and every suite it sweeps."""
        built, swept = [], []

        def recording(builder):
            def build(*args, **kwargs):
                built.append(builder(*args, **kwargs))
                return built[-1]

            return build

        def sweep(suite, **kwargs):
            swept.append(suite)
            return sweep_suite(suite, **kwargs)

        for name in ("build_suite", "build_table_suite"):
            monkeypatch.setattr(
                server_module, name, recording(getattr(server_module, name))
            )
        monkeypatch.setattr(server_module, "sweep_suite", sweep)
        return built, swept

    def test_identical_requests_evaluate_one_suite(self, harness, builds):
        built, swept = builds
        h = harness()
        first = h.client.sweep(suite="alexnet", cap=4)
        second = h.client.sweep(suite="alexnet", cap=4)
        assert len(built) == 1
        assert swept[0] is swept[1] is built[0]
        assert json.dumps(first["rows"]) == json.dumps(second["rows"])

    def test_resident_operands_are_read_only(self, harness, builds):
        built, _swept = builds
        harness().client.sweep(suite="alexnet", cap=4)
        arrays = [
            array for case in built[0].cases for array in case.tensors.values()
        ]
        assert arrays and not any(array.flags.writeable for array in arrays)
        with pytest.raises(ValueError):
            built[0].cases[0].tensors["A"][0, 0] = 1

    @pytest.mark.parametrize(
        "flags", [{}, {"halving": True}, {"autotune": True}],
        ids=["plain", "halving", "autotune"],
    )
    def test_warm_rows_match_a_fresh_daemon_and_the_batch_engine(
        self, harness, flags
    ):
        warm = harness()
        for _ in range(2):
            rows = warm.client.sweep(table=TABLE, cap=4, seed=7, **flags)["rows"]
        fresh = harness().client.sweep(table=TABLE, cap=4, seed=7, **flags)
        assert json.dumps(rows) == json.dumps(fresh["rows"])
        assert json.dumps(rows) == batch_rows(
            build_table_suite(TABLE, cap=4, seed=7), **flags
        )

    @pytest.fixture
    def unswept(self, builds, monkeypatch):
        """Requests build (and record) their suite but sweep nothing."""

        class Empty:
            def to_dict(self):
                return {"rows": []}

        monkeypatch.setattr(server_module, "sweep_suite", lambda suite, **_: Empty())
        return builds

    def test_the_least_recently_used_suite_is_rebuilt(self, harness, unswept):
        built, _swept = unswept
        h = harness()
        bound = server_module.SUITE_MEMO_SIZE
        for seed in range(bound + 1):
            h.client.sweep(table=TABLE, cap=4, seed=seed)
        assert len(built) == bound + 1
        h.client.sweep(table=TABLE, cap=4, seed=bound)
        assert len(built) == bound + 1
        h.client.sweep(table=TABLE, cap=4, seed=0)
        assert len(built) == bound + 2
        assert len(h.server._suites) == bound

    def test_the_byte_budget_evicts_the_least_recently_used(
        self, harness, unswept, monkeypatch
    ):
        built, _swept = unswept
        h = harness()
        h.client.sweep(table=TABLE, cap=4, seed=0)
        size = h.server._suite_bytes
        assert size == sum(
            array.nbytes for case in built[0].cases for array in case.tensors.values()
        )
        monkeypatch.setattr(server_module, "SUITE_MEMO_BYTES", 2 * size)
        for seed in (1, 2):
            h.client.sweep(table=TABLE, cap=4, seed=seed)
        assert len(h.server._suites) == 2
        assert h.server._suite_bytes == 2 * size
        h.client.sweep(table=TABLE, cap=4, seed=0)
        assert len(built) == 4

    def test_a_table_over_the_byte_budget_is_never_kept(self, harness, unswept):
        built, _swept = unswept
        h = harness()
        h.client.sweep(table=TABLE, cap=4, seed=0)
        kept = dict(h.server._suites)
        row = {"name": "l0", "m": 64, "k": 64, "n": 64}
        per_row = sum(
            array.nbytes
            for array in build_table_suite([row], cap=64).cases[0].tensors.values()
        )
        large = [
            dict(row, name=f"l{index}")
            for index in range(server_module.SUITE_MEMO_BYTES // per_row + 1)
        ]
        for _ in range(2):
            h.client.sweep(table=large, cap=64)
        assert len(built) == 3
        assert h.server._suites == kept
        assert h.server._suite_bytes == sum(size for _suite, size in kept.values())

    def test_a_bad_table_is_never_memoized(self, harness, builds):
        built, _swept = builds
        h = harness()
        with pytest.raises(ServeError) as excinfo:
            h.client.sweep(table=[{"name": "l0", "m": 0, "k": 4, "n": 4}])
        assert excinfo.value.code == "suite-error"
        assert built == [] and len(h.server._suites) == 0

    def test_identical_inline_tables_share_one_suite(self, harness, builds):
        built, swept = builds
        h = harness()
        h.client.sweep(table=TABLE, cap=4)
        # Key order inside a row does not make a different table.
        h.client.sweep(table=[dict(reversed(row.items())) for row in TABLE], cap=4)
        assert len(built) == 1
        assert swept[0] is swept[1]
        h.client.sweep(table=TABLE, cap=8)
        assert len(built) == 2


class TestContentKeys:
    def test_a_suite_built_twice_keys_every_point_alike(self):
        class Recording(CompileCache):
            def __init__(self):
                super().__init__()
                self.point_keys = []

            def memo(self, stage, parts, build):
                if stage == "dse.point":
                    self.point_keys.append(self.key(parts))
                return super().memo(stage, parts, build)

        server = EvalServer(jobs=1, use_disk_cache=False)
        try:
            resident = server._build_suite(
                validate_request({"type": "sweep", "suite": "alexnet", "cap": 4})
            )
        finally:
            server._work.shutdown()
        keys = []
        for suite in (resident, build_suite("alexnet", cap=4)):
            cache = Recording()
            evaluate_suite(suite, jobs=1, cache=cache)
            keys.append(cache.point_keys)
        assert len(keys[0]) == len(resident.cases)
        assert keys[0] == keys[1]

    def test_a_fresh_daemon_answers_from_the_first_ones_store(
        self, harness, tmp_path
    ):
        store = str(tmp_path / "store")
        first = harness(use_disk_cache=True, cache_dir=store)
        rows = first.client.sweep(suite="alexnet", cap=4)["rows"]
        first.stop()
        second = harness(use_disk_cache=True, cache_dir=store)
        again = second.client.sweep(suite="alexnet", cap=4)["rows"]
        assert json.dumps(again) == json.dumps(rows)
        cache = second.server.cache
        assert cache.stats.by_stage["dse.point"] == (len(rows), 0)
        assert cache.store.stats.writes == 0

    def test_store_schema_version_stays_4(self):
        assert SCHEMA_VERSION == 4


class TestStreaming:
    def test_rows_stream_in_order_before_the_terminal(self, harness):
        def evaluator(request, emit_row, emit_trace):
            for index in range(5):
                emit_row(index, {"name": f"l{index}", "cycles": index})
            return {"aggregates": {"cases": 5}}

        h = harness(evaluator=evaluator)
        messages = list(h.client.request({"type": "sweep", "suite": "alexnet"}))
        kinds = [message["type"] for message in messages]
        assert kinds == ["row"] * 5 + ["result"]
        assert [m["index"] for m in messages[:-1]] == list(range(5))
        assert messages[-1]["aggregates"] == {"cases": 5}

    def test_stream_is_deterministic_across_repeats(self, harness):
        h = harness()
        first = h.client.sweep(table=TABLE)
        second = h.client.sweep(table=TABLE)
        assert json.dumps(first["rows"]) == json.dumps(second["rows"])

    def test_real_sweep_rows_match_the_batch_engine(self, harness):
        h = harness()
        traces = []
        result = h.client.sweep(
            table=TABLE, cap=8, seed=7, on_trace=traces.append
        )
        suite = build_table_suite(TABLE, cap=8, seed=7)
        expected = evaluate_suite(suite, cache=CompileCache())
        assert json.dumps(result["rows"]) == json.dumps(
            jsonable(expected.rows)
        )
        assert result["aggregates"]["cases"] == len(TABLE)
        assert result["dedup"] is False
        # A plain sweep has no autotuner rungs, so no progress streams.
        assert traces == []
        assert h.client.metrics()["server"]["traces_streamed"] == 0

    def test_explore_request_streams_design_points(self, harness):
        from repro.dse.explorer import run_explore

        h = harness()
        result = h.client.explore(spec="matmul", size=2, seed=0)
        assert result["points"] == len(result["rows"]) > 0
        assert result["best_adp"]
        assert set(result["pareto"]) <= {
            row["name"] for row in result["rows"]
        }
        # Each served row is the in-process sweep's outcome, renamed and
        # in a pinned key order.
        expected = run_explore("matmul", 2, 0, jobs=1, cache=CompileCache())
        assert [list(row) for row in result["rows"]] == [[
            "name", "transform", "sparsity", "balancing", "cycles",
            "utilization", "area_um2", "pe_count", "adp",
        ]] * len(expected.points)
        assert result["rows"] == [
            {
                "name": point["name"],
                "transform": point["transform_name"],
                "sparsity": point["sparsity_name"],
                "balancing": point["balancing_name"],
                "cycles": point["cycles"],
                "utilization": point["utilization"],
                "area_um2": point["area_um2"],
                "pe_count": point["pe_count"],
                "adp": point["area_um2"] * point["cycles"],
            }
            for point in expected.points
        ]
        assert result["pareto"] == [
            point["name"] for point in expected.pareto_frontier()
        ]
        assert result["best_adp"] == expected.best_by("adp")["name"]

    def test_explore_of_a_spec_outside_the_space_is_a_structured_error(
        self, harness
    ):
        h = harness()
        with pytest.raises(ServeError) as excinfo:
            h.client.explore(spec="bmm", size=2, seed=0)
        assert excinfo.value.code == "unsupported-spec"
        # The daemon serves the next request normally.
        assert h.client.explore(spec="matmul", size=2, seed=0)["points"] > 0


class TestTraces:
    def test_traces_interleave_with_rows_in_emission_order(self, harness):
        def evaluator(request, emit_row, emit_trace):
            emit_trace({"event": "rung_start", "rung": 0})
            emit_row(0, {"name": "l0", "cycles": 1})
            emit_trace({"event": "rung_finish", "rung": 0})
            return {"aggregates": {"cases": 1}}

        h = harness(evaluator=evaluator)
        messages = list(h.client.request({"type": "sweep", "suite": "alexnet"}))
        kinds = [message["type"] for message in messages]
        assert kinds == ["trace", "row", "trace", "result"]
        assert messages[0]["event"] == {"event": "rung_start", "rung": 0}
        assert h.client.metrics()["server"]["traces_streamed"] == 2

    def test_on_trace_callback_sees_events_and_result_omits_them(
        self, harness
    ):
        def evaluator(request, emit_row, emit_trace):
            emit_trace({"event": "rung_start", "rung": 0})
            emit_row(0, {"name": "l0", "cycles": 1})
            return {"aggregates": {"cases": 1}}

        h = harness(evaluator=evaluator)
        traces = []
        result = h.client.sweep(suite="alexnet", on_trace=traces.append)
        assert traces == [{"event": "rung_start", "rung": 0}]
        assert [row["name"] for row in result["rows"]] == ["l0"]
        assert "trace" not in result

    def test_dedup_replay_preserves_the_trace_row_interleaving(
        self, harness
    ):
        release = threading.Event()

        def evaluator(request, emit_row, emit_trace):
            emit_trace({"event": "rung_start", "rung": 0})
            emit_row(0, {"name": "l0", "cycles": 1})
            assert release.wait(30)
            emit_trace({"event": "rung_finish", "rung": 0})
            return {"aggregates": {"cases": 1}}

        h = harness(evaluator=evaluator)
        streams = [None, None]

        def run(slot):
            client = ServeClient(h.socket_path, timeout=60.0)
            streams[slot] = [
                (m["type"], m.get("event"), m.get("row"))
                for m in client.request({"type": "sweep", "suite": "alexnet"})
                if m["type"] != "result"
            ]

        first = threading.Thread(target=run, args=(0,))
        first.start()
        h.wait_active(1)
        # The joiner arrives after a trace and a row are already out;
        # the buffered prefix must replay in original order.
        second = threading.Thread(target=run, args=(1,))
        second.start()
        h.wait_active(2)
        release.set()
        for thread in (first, second):
            thread.join(timeout=30)

        assert streams[0] == streams[1]
        assert [kind for kind, _e, _r in streams[0]] == [
            "trace", "row", "trace"
        ]

    def test_real_halving_sweep_streams_rung_traces(self, harness):
        h = harness()
        traces = []
        result = h.client.sweep(
            table=TABLE, cap=8, seed=7, halving=True, on_trace=traces.append
        )
        events = []
        expected = halving_autotune_suite(
            build_table_suite(TABLE, cap=8, seed=7),
            jobs=1, cache=CompileCache(), on_rung=events.append,
        )
        assert json.dumps(result["rows"]) == json.dumps(
            jsonable(expected.rows)
        )
        assert result["mode"] == "halving"
        assert [r["fidelity"] for r in result["rungs"]] == [
            s.fidelity for s in expected.rungs
        ]
        assert traces == jsonable(events)
        assert len(traces) == 2 * len(expected.rungs)
        for trace in traces:
            # The flat shape ``repro sweep --server``'s progress lines read.
            assert trace["event"] in ("rung_start", "rung_finish")
            assert {"rung", "fidelity"} <= set(trace)
        assert h.client.metrics()["server"]["traces_streamed"] == len(traces)

    def test_autotune_sweep_applies_the_constraint(self, harness):
        h = harness()
        with pytest.raises(ServeError) as excinfo:
            h.client.sweep(
                table=TABLE, cap=4, autotune=True, constraint="area<=1"
            )
        assert excinfo.value.code == "suite-error"
        assert "--constraint area<=1" in str(excinfo.value)


def on_each_row(h, hook):
    """Wrap ``h``'s production evaluator so ``hook()`` runs on the
    evaluator thread, mid-sweep, before each row is emitted."""
    real = h.server._evaluator

    def evaluator(request, emit_row, emit_trace):
        def row(index, value):
            hook()
            emit_row(index, value)

        return real(request, row, emit_trace)

    h.server._evaluator = evaluator


class TestProcessTracer:
    def test_a_served_sweep_never_swaps_the_tracer(self, harness):
        before = get_tracer()
        during = []
        h = harness()
        on_each_row(h, lambda: during.append(get_tracer()))
        h.client.sweep(suite="alexnet", cap=4)
        assert during and all(tracer is before for tracer in during)
        assert get_tracer() is before and not before.enabled

    def test_a_tracing_block_overlapping_a_sweep_keeps_its_restore(
        self, harness
    ):
        original = get_tracer()
        mid_sweep, release = threading.Event(), threading.Event()

        def gate():
            mid_sweep.set()
            assert release.wait(30)

        h = harness()
        on_each_row(h, gate)
        client = threading.Thread(
            target=h.client.sweep, kwargs={"suite": "alexnet", "cap": 4}
        )
        # The block opens before the sweep and closes while it runs.
        with tracing():
            client.start()
            assert mid_sweep.wait(30)
        release.set()
        client.join(timeout=60)
        assert not client.is_alive()
        assert get_tracer() is original and not original.enabled


class TestDedup:
    def test_concurrent_identical_requests_share_one_evaluation(
        self, harness
    ):
        release = threading.Event()
        calls = []

        def evaluator(request, emit_row, emit_trace):
            calls.append(request["suite"])
            assert release.wait(30)
            for index in range(3):
                emit_row(index, {"name": f"l{index}", "cycles": 10 + index})
            return {"suite": request["suite"], "aggregates": {"cases": 3}}

        h = harness(evaluator=evaluator)
        results = [None, None]

        def run(slot):
            client = ServeClient(h.socket_path, timeout=60.0)
            results[slot] = client.sweep(suite="alexnet")

        threads = [
            threading.Thread(target=run, args=(slot,)) for slot in (0, 1)
        ]
        for thread in threads:
            thread.start()
        # Both requests are provably in flight before the evaluation is
        # allowed to produce anything.
        h.wait_active(2)
        release.set()
        for thread in threads:
            thread.join(timeout=30)

        assert calls == ["alexnet"]  # exactly one evaluation ran
        assert json.dumps(results[0]["rows"]) == json.dumps(
            results[1]["rows"]
        )
        assert sorted(r["dedup"] for r in results) == [False, True]
        server = h.client.metrics()["server"]
        assert server["dedup_hits"] == 1
        assert server["evaluations"] == 1
        assert server["rows_streamed"] == 3

    def test_different_requests_do_not_coalesce(self, harness):
        release = threading.Event()
        calls = []

        def evaluator(request, emit_row, emit_trace):
            calls.append(request["suite"])
            assert release.wait(30)
            return {"suite": request["suite"]}

        h = harness(evaluator=evaluator)
        results = {}

        def run(suite):
            client = ServeClient(h.socket_path, timeout=60.0)
            results[suite] = client.sweep(suite=suite)

        threads = [
            threading.Thread(target=run, args=(suite,))
            for suite in ("alexnet", "resnet50")
        ]
        for thread in threads:
            thread.start()
        h.wait_active(2)
        release.set()
        for thread in threads:
            thread.join(timeout=30)

        assert sorted(calls) == ["alexnet", "resnet50"]
        assert h.client.metrics()["server"]["dedup_hits"] == 0

    def test_sequential_repeats_are_not_dedup(self, harness):
        h = harness()
        first = h.client.sweep(table=TABLE)
        second = h.client.sweep(table=TABLE)
        assert first["dedup"] is False
        assert second["dedup"] is False  # nothing in flight to join


class TestGracefulShutdown:
    def test_in_flight_request_drains_before_exit(self, harness):
        release = threading.Event()

        def evaluator(request, emit_row, emit_trace):
            assert release.wait(30)
            emit_row(0, {"name": "l0", "cycles": 1})
            return {"aggregates": {"cases": 1}}

        h = harness(evaluator=evaluator)
        result = {}

        def run():
            client = ServeClient(h.socket_path, timeout=60.0)
            result["value"] = client.sweep(suite="alexnet")

        worker = threading.Thread(target=run)
        worker.start()
        h.wait_active(1)
        assert h.client.shutdown()["type"] == "shutting-down"
        release.set()
        worker.join(timeout=30)
        h.thread.join(timeout=30)
        assert not h.thread.is_alive()
        # The in-flight client still received its full result.
        assert result["value"]["aggregates"] == {"cases": 1}
        assert [row["name"] for row in result["value"]["rows"]] == ["l0"]

    def test_requests_after_shutdown_are_refused_as_draining(self, harness):
        release = threading.Event()

        def evaluator(request, emit_row, emit_trace):
            assert release.wait(30)
            return {"ok": True}

        h = harness(evaluator=evaluator)
        hold = threading.Thread(
            target=lambda: ServeClient(h.socket_path, timeout=60.0).sweep(
                suite="alexnet"
            )
        )
        hold.start()
        h.wait_active(1)

        # One pipelined connection: shutdown, then another request.
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(30)
        sock.connect(h.socket_path)
        stream = sock.makefile("rwb")
        try:
            stream.write(b'{"type": "shutdown"}\n')
            stream.write(b'{"type": "sweep", "suite": "alexnet"}\n')
            stream.flush()
            assert json.loads(stream.readline())["type"] == "shutting-down"
            refused = json.loads(stream.readline())
            assert refused["type"] == "error"
            assert refused["code"] == "draining"
        finally:
            stream.close()
            sock.close()
            release.set()
            hold.join(timeout=30)


class TestParseAddress:
    def test_classification(self):
        from repro.serve.client import parse_address

        assert parse_address("/tmp/serve.sock") == ("unix", "/tmp/serve.sock")
        assert parse_address("relative.sock") == ("unix", "relative.sock")
        assert parse_address("9999") == ("tcp", ("127.0.0.1", 9999))
        assert parse_address("127.0.0.1:9999") == (
            "tcp", ("127.0.0.1", 9999)
        )
        assert parse_address(":9999") == ("tcp", ("127.0.0.1", 9999))
        # A path with a colon is still a path.
        assert parse_address("/tmp/a:b/serve.sock")[0] == "unix"
        # host:notaport falls back to a unix path.
        assert parse_address("host:abc")[0] == "unix"


class TestConnect:
    def test_a_failed_connect_closes_its_socket(self, tmp_path, monkeypatch):
        made = []

        class Recording(socket.socket):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(self)

        monkeypatch.setattr(socket, "socket", Recording)
        client = ServeClient(str(tmp_path / "missing.sock"), timeout=5.0)
        with pytest.raises(ServeError) as excinfo:
            client.ping()
        assert excinfo.value.code == "connect-failed"
        assert len(made) == 1
        assert made[0].fileno() == -1


class TestTcpTransport:
    def test_sweep_over_tcp(self):
        def evaluator(request, emit_row, emit_trace):
            emit_row(0, {"name": "l0", "cycles": 1})
            return {"aggregates": {"cases": 1}}

        server = EvalServer(
            jobs=1, use_disk_cache=False, evaluator=evaluator,
            drain_timeout=5.0,
        )
        address = {}
        ready = threading.Event()

        def remember(bound):
            address["value"] = bound
            ready.set()

        thread = threading.Thread(
            target=server.run,
            kwargs={"port": 0, "ready": remember},
            daemon=True,
        )
        thread.start()
        assert ready.wait(10)
        client = ServeClient(address["value"], timeout=30.0)
        result = client.sweep(suite="alexnet")
        assert [row["name"] for row in result["rows"]] == ["l0"]
        assert client.metrics()["server"]["requests"] >= 1
        client.shutdown()
        thread.join(timeout=15)
        assert not thread.is_alive()
