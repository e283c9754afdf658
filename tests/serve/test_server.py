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
from repro.exec.suite import SuiteError, build_table_suite, evaluate_suite
from repro.serve import EvalServer, ServeClient, ServeError
from repro.serve.protocol import jsonable

TABLE = [
    {"name": "l0", "m": 4, "k": 4, "n": 4},
    {"name": "l1", "m": 6, "k": 4, "n": 5, "b_density": 0.5},
]


class ServerHarness:
    def __init__(self, tmp_path, **kwargs):
        kwargs.setdefault("use_disk_cache", False)
        kwargs.setdefault("jobs", 1)
        kwargs.setdefault("drain_timeout", 5.0)
        self.server = EvalServer(**kwargs)
        self.socket_path = str(tmp_path / "serve.sock")
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
        h = ServerHarness(tmp_path, **kwargs)
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
        result = h.client.sweep(table=TABLE, cap=8, seed=7)
        suite = build_table_suite(TABLE, cap=8, seed=7)
        expected = evaluate_suite(suite, cache=CompileCache())
        assert json.dumps(result["rows"]) == json.dumps(
            jsonable(expected.rows)
        )
        assert result["aggregates"]["cases"] == len(TABLE)
        assert result["dedup"] is False

    def test_explore_request_streams_design_points(self, harness):
        h = harness()
        result = h.client.explore(spec="matmul", size=2, seed=0)
        assert result["points"] == len(result["rows"]) > 0
        assert result["best_adp"]
        assert set(result["pareto"]) <= {
            row["name"] for row in result["rows"]
        }


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
        from repro.exec.halving import halving_autotune_suite
        from repro.exec.suite import build_table_suite

        expected = halving_autotune_suite(
            build_table_suite(TABLE, cap=8, seed=7),
            jobs=1, cache=CompileCache(),
        )
        assert json.dumps(result["rows"]) == json.dumps(
            jsonable(expected.rows)
        )
        assert result["mode"] == "halving"
        assert [r["fidelity"] for r in result["rungs"]] == [
            s.fidelity for s in expected.rungs
        ]
        events = [t["event"] for t in traces]
        assert events.count("rung_start") == len(expected.rungs)
        assert events.count("rung_finish") == len(expected.rungs)

    def test_autotune_sweep_applies_the_constraint(self, harness):
        h = harness()
        with pytest.raises(ServeError) as excinfo:
            h.client.sweep(
                table=TABLE, cap=4, autotune=True, constraint="area<=1"
            )
        assert excinfo.value.code == "suite-error"
        assert "--constraint area<=1" in str(excinfo.value)


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
