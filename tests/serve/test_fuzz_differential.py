"""Differential tests: the serve path against the batch path.

The workload table is *fuzz-generated* -- drawn from the same seeded
generator the fuzzing harness uses -- and evaluated twice: once through
a live :class:`EvalServer` via :class:`ServeClient`, once in-process
through :func:`sweep_suite`.  The two must agree byte-for-byte after
JSON canonicalization, both for a lone request and for two identical
``--halving`` requests coalesced by in-flight deduplication, where the
late joiner replays the buffered stream.  A halving sweep streams its
rung events as ``trace`` messages, so the joiner must see the same
trace/row interleaving the original subscriber saw.
"""

import json
import threading
import time

from repro.exec.cache import CompileCache
from repro.exec.halving import sweep_suite
from repro.exec.suite import build_table_suite
from repro.fuzz.generate import generate_cases
from repro.serve.protocol import jsonable

from .test_server import harness  # noqa: F401 - shared server fixture

CAP, SEED = 6, 7


def fuzz_table():
    """A workload table drawn from the fuzz generator's matmul stream."""
    cases = [
        c
        for c in generate_cases(0, 12, ["exec.halving_eta1_vs_exhaustive"])
        if c.mutation is None
    ]
    table = []
    for case in cases[:3]:
        table.append(
            {
                "name": f"fuzz-{case.index}",
                "m": case.bounds["i"],
                "k": case.bounds["k"],
                "n": case.bounds["j"],
                "a_density": case.densities.get("A", 1.0),
                "b_density": case.densities.get("B", 1.0),
            }
        )
    return table


TABLE = fuzz_table()


def batch_rows(**flags):
    result = sweep_suite(
        build_table_suite(TABLE, cap=CAP, seed=SEED),
        jobs=1,
        cache=CompileCache(),
        **flags,
    )
    return jsonable(result.rows)


class TestFuzzSweepDifferential:
    def test_server_rows_are_byte_identical_to_batch(self, harness):  # noqa: F811
        h = harness()
        result = h.client.sweep(table=TABLE, cap=CAP, seed=SEED)
        assert json.dumps(result["rows"]) == json.dumps(batch_rows())

    def test_dedup_replay_is_byte_identical_including_traces(self, harness):  # noqa: F811
        h = harness()
        release = threading.Event()
        real = h.server._evaluator

        def gated(request, emit_row, emit_trace):
            # Hold the sweep after its first rung event, so the second
            # client joins with that trace already buffered.
            def trace_then_wait(event):
                emit_trace(event)
                assert release.wait(30)

            return real(request, emit_row, trace_then_wait)

        h.server._evaluator = gated

        streams = [None, None]

        def client_run(slot):
            streamed = []
            result = h.client.sweep(
                table=TABLE,
                cap=CAP,
                seed=SEED,
                halving=True,
                on_row=lambda index, row: streamed.append(("row", index, row)),
                on_trace=lambda event: streamed.append(("trace", event)),
            )
            streams[slot] = {
                "rows": result["rows"],
                "streamed": streamed,
                "dedup": result["dedup"],
            }

        first = threading.Thread(target=client_run, args=(0,))
        second = threading.Thread(target=client_run, args=(1,))
        first.start()
        deadline = time.monotonic() + 30
        while h.client.metrics()["server"]["traces_streamed"] < 1:
            assert time.monotonic() < deadline, "no rung event streamed"
            time.sleep(0.01)
        second.start()
        h.wait_active(2)
        release.set()
        first.join(timeout=60)
        second.join(timeout=60)
        assert streams[0] is not None and streams[1] is not None

        # One evaluation, two byte-identical result streams.
        assert sorted(s["dedup"] for s in streams) == [False, True]
        expected = json.dumps(batch_rows(halving=True))
        for stream in streams:
            assert json.dumps(stream["rows"]) == expected

        # The dedup joiner replayed the exact trace/row interleaving the
        # original subscriber saw -- same events, same order, same
        # payloads.
        assert json.dumps(streams[0]["streamed"]) == json.dumps(
            streams[1]["streamed"]
        )
        kinds = [entry[0] for entry in streams[0]["streamed"]]
        assert kinds[0] == "trace" and "row" in kinds
        assert h.client.metrics()["server"]["dedup_hits"] == 1
