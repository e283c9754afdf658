"""The asyncio evaluation daemon behind ``repro serve``.

One :class:`EvalServer` owns a resident
:class:`~repro.exec.engine.ResidentPool`, a shared persistent
:class:`~repro.exec.cache.CompileCache`, and an in-flight request map.
Connections speak the :mod:`repro.serve.protocol` NDJSON dialect over a
unix socket or TCP.

Concurrency model -- three layers, one invariant:

* the **event loop** owns every piece of server state (the in-flight
  map, subscriber queues, metrics counters).  Connection handlers and
  completion callbacks all run here, so no locks;
* **one evaluator thread** (a single-worker ``ThreadPoolExecutor``)
  runs the actual sweeps.  Evaluations are serialized -- the process
  pool underneath already fans a single sweep out across every core,
  so concurrent sweeps would only fight over it;
* the **process pool** does the per-layer compile + simulate work and
  streams rows back through ``on_row``; the evaluator thread forwards
  each row to the loop with ``call_soon_threadsafe``, which preserves
  order, so subscribers always see rows ``0..n-1`` then the terminal.

Progress has one channel: the autotuner's ``on_rung`` callback, whose
rung start/finish events become ``trace`` messages interleaved with
the rows.  A plain sweep has no rungs and so streams no ``trace``
message.  No served sweep touches the process-global
:mod:`repro.obs.trace` tracer.

Deduplication: each admitted request is keyed by
:func:`~repro.serve.protocol.request_key`.  A second client arriving
while the same key is in flight becomes another subscriber of the
existing entry -- it first replays the rows already streamed, then
rides the live stream; exactly one evaluation runs.  The terminal
message carries ``dedup: true`` for the riders, and the
``serve.dedup_hits`` counter makes coalescing observable.

Built suites stay resident: the evaluator thread keeps the last
:data:`SUITE_MEMO_SIZE` suites it built, holding at most
:data:`SUITE_MEMO_BYTES` of operands between them, least recently used
evicted first, keyed on the fields that decide a suite (``suite``,
``table``, ``cap``, ``seed``).  A stored suite's operand arrays are
read-only, so a repeat request hands the very same objects to the
sweep and the compile cache keys every design point from its identity
memo instead of re-hashing fresh operands.  The memo is evaluator-thread state
(evaluations are serialized), so it takes no lock; a suite whose build
fails is never stored.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, List, Optional, Tuple

from ..exec.cache import CompileCache, persistent_compile_cache
from ..exec.engine import ResidentPool, resolve_jobs
from ..exec.fingerprint import fingerprint
from ..exec.halving import sweep_suite
from ..exec.suite import Suite, SuiteError, build_suite, build_table_suite
from ..obs.metrics import MetricsRegistry
from .protocol import (
    PROTOCOL_VERSION,
    RequestError,
    encode,
    error_message,
    jsonable,
    parse_line,
    request_key,
    validate_request,
)

#: Latency histogram boundaries in seconds: 1 ms to 60 s.
LATENCY_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)

#: Built suites the evaluator keeps resident, least recently used
#: evicted first.  ``serve-warm`` cycles six distinct ``(suite, cap,
#: seed)`` keys (three suites on each of two connections); a cyclic
#: working set larger than the bound never hits, so the bound holds it
#: with two to spare.
SUITE_MEMO_SIZE = 8

#: Operand bytes the resident suites may hold together: room for
#: :data:`SUITE_MEMO_SIZE` copies of the largest named suite at
#: ``MAX_SWEEP_CAP`` (``suitesparse``, 1.2 MB), so only a large inline
#: table reaches it.  A suite larger than this alone is evaluated but
#: never kept.
SUITE_MEMO_BYTES = 10 << 20

#: Terminal message types -- exactly one ends every request stream.
TERMINAL_TYPES = ("result", "error", "pong", "metrics", "shutting-down")


class _InFlight:
    """One admitted evaluation: its buffered stream plus subscribers.

    ``messages`` replays the non-terminal stream (``row`` and ``trace``
    messages, in emission order) to late-joining dedup subscribers;
    ``queues`` holds one ``asyncio.Queue`` per connection currently
    riding this evaluation.  All mutation happens on the event loop.
    """

    __slots__ = ("key", "messages", "queues", "task", "terminal")

    def __init__(self, key: str):
        self.key = key
        self.messages: List[Dict[str, object]] = []
        self.queues: List[asyncio.Queue] = []
        self.task: Optional[asyncio.Task] = None
        self.terminal: Optional[Dict[str, object]] = None


class EvalServer:
    """The resident design-evaluation service.

    ``evaluator`` is an injection point for tests: a callable
    ``(request, emit_row, emit_trace) -> payload`` run on the evaluator
    thread, where ``emit_row(index, row)`` streams one row,
    ``emit_trace(event)`` streams one ``trace`` message (the sweep
    evaluator passes it as the autotuner's ``on_rung``), and the
    returned payload becomes the terminal ``result`` body.  Production
    leaves it ``None`` and gets the suite/DSE evaluators below.
    """

    def __init__(
        self,
        jobs: Optional[int] = None,
        cache: Optional[CompileCache] = None,
        use_disk_cache: bool = True,
        cache_dir: Optional[str] = None,
        evaluator: Optional[Callable] = None,
        drain_timeout: float = 10.0,
    ):
        if cache is None:
            cache = (
                persistent_compile_cache(cache_dir)
                if use_disk_cache
                else CompileCache()
            )
        self.cache = cache
        self.jobs = jobs
        self.drain_timeout = drain_timeout
        workers = resolve_jobs(jobs)
        store = cache.store
        self.pool: Optional[ResidentPool] = (
            ResidentPool(
                jobs, store.spawn_config() if store is not None else None
            )
            if workers > 1
            else None
        )
        self._evaluator = evaluator if evaluator is not None else self._evaluate
        self._work = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="serve-eval"
        )
        self._inflight: Dict[str, _InFlight] = {}
        self._suites: "OrderedDict[str, Tuple[Suite, int]]" = OrderedDict()
        self._suite_bytes = 0
        self._connections: set = set()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._shutdown: Optional[asyncio.Event] = None
        self._started = time.monotonic()
        self.address: Optional[str] = None

        self.registry = MetricsRegistry()
        self._requests = self.registry.counter("serve.requests")
        self._errors = self.registry.counter("serve.errors")
        self._dedup_hits = self.registry.counter("serve.dedup_hits")
        self._rows_streamed = self.registry.counter("serve.rows_streamed")
        self._traces_streamed = self.registry.counter("serve.traces_streamed")
        self._evaluations = self.registry.counter("serve.evaluations")
        self._active = self.registry.gauge("serve.active_requests")
        self._queue_depth = self.registry.gauge("serve.queue_depth")
        self._latency = self.registry.histogram(
            "serve.latency_s", LATENCY_BUCKETS
        )

    # -- lifecycle -------------------------------------------------------

    async def serve(
        self,
        socket_path: Optional[str] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        ready: Optional[Callable[[str], None]] = None,
    ) -> None:
        """Bind, announce readiness, and run until a ``shutdown``
        request (or :meth:`stop`), then drain in-flight work."""
        self._loop = asyncio.get_running_loop()
        self._shutdown = asyncio.Event()
        self._started = time.monotonic()
        if socket_path is not None:
            if os.path.exists(socket_path):
                os.unlink(socket_path)
            server = await asyncio.start_unix_server(
                self._client_connected, path=socket_path
            )
            self.address = socket_path
        else:
            server = await asyncio.start_server(
                self._client_connected, host, port
            )
            bound = server.sockets[0].getsockname()
            self.address = f"{bound[0]}:{bound[1]}"
        if ready is not None:
            ready(self.address)
        try:
            await self._shutdown.wait()
            server.close()
            await server.wait_closed()
            # Graceful drain: let running evaluations finish and their
            # subscribers receive terminals, then retire stragglers.
            pending = [
                entry.task
                for entry in list(self._inflight.values())
                if entry.task is not None
            ]
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
            open_conns = [t for t in self._connections if not t.done()]
            if open_conns:
                _done, alive = await asyncio.wait(
                    open_conns, timeout=self.drain_timeout
                )
                for task in alive:
                    task.cancel()
        finally:
            self._work.shutdown(wait=True)
            if self.pool is not None:
                self.pool.close()
            if socket_path is not None and os.path.exists(socket_path):
                os.unlink(socket_path)

    def run(
        self,
        socket_path: Optional[str] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        ready: Optional[Callable[[str], None]] = None,
    ) -> None:
        """Blocking entry point (what ``repro serve`` calls)."""
        asyncio.run(self.serve(socket_path, host, port, ready))

    def stop(self) -> None:
        """Request shutdown from any thread."""
        if self._loop is not None and self._shutdown is not None:
            self._loop.call_soon_threadsafe(self._shutdown.set)

    # -- connection handling ---------------------------------------------

    async def _client_connected(self, reader, writer) -> None:
        task = asyncio.current_task()
        self._connections.add(task)
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError as err:
                    # A line past the stream's buffer limit: the reader
                    # is left mid-line, so answer and drop the connection.
                    self._requests.inc()
                    self._errors.inc()
                    await self._send(
                        writer,
                        error_message(
                            "bad-request", f"request line too long: {err}"
                        ),
                    )
                    break
                if not line:
                    break
                line = line.strip()
                if not line:
                    continue
                try:
                    request = validate_request(parse_line(line))
                except RequestError as err:
                    self._requests.inc()
                    self._errors.inc()
                    await self._send(
                        writer, error_message(err.code, str(err))
                    )
                    continue
                await self._handle_request(request, writer)
        except (ConnectionResetError, BrokenPipeError):
            pass
        except asyncio.CancelledError:
            # Drain-timeout cancellation during shutdown: fall through
            # to the close below instead of unwinding the loop.
            pass
        finally:
            self._connections.discard(task)
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _handle_request(self, request, writer) -> None:
        self._requests.inc()
        rtype = request["type"]
        if rtype == "ping":
            await self._send(
                writer, {"type": "pong", "protocol": PROTOCOL_VERSION}
            )
            return
        if rtype == "metrics":
            await self._send(writer, self.metrics_message())
            return
        if rtype == "shutdown":
            await self._send(
                writer,
                {"type": "shutting-down", "in_flight": len(self._inflight)},
            )
            self._shutdown.set()
            return
        if self._shutdown.is_set():
            self._errors.inc()
            await self._send(
                writer,
                error_message("draining", "server is shutting down"),
            )
            return

        started = time.monotonic()
        key = request_key(request)
        entry = self._inflight.get(key)
        dedup = entry is not None
        if dedup:
            self._dedup_hits.inc()
        else:
            entry = _InFlight(key)
            self._inflight[key] = entry
            self._queue_depth.add(1)
            self._evaluations.inc()
            entry.task = asyncio.ensure_future(self._run_entry(entry, request))

        queue: asyncio.Queue = asyncio.Queue()
        # Late joiner: replay what already streamed (rows and traces,
        # interleaved in emission order), then go live.
        for message in entry.messages:
            queue.put_nowait(message)
        if entry.terminal is not None:
            queue.put_nowait(entry.terminal)
        else:
            entry.queues.append(queue)

        self._active.add(1)
        try:
            while True:
                message = await queue.get()
                if message["type"] in ("result", "error"):
                    message = dict(message)
                    message["dedup"] = dedup
                    await self._send(writer, message)
                    break
                await self._send(writer, message)
        finally:
            self._active.add(-1)
            if queue in entry.queues:
                entry.queues.remove(queue)
            self._latency.observe(time.monotonic() - started)

    async def _send(self, writer, message: Dict[str, object]) -> None:
        writer.write(encode(message))
        await writer.drain()

    # -- evaluation ------------------------------------------------------

    async def _run_entry(self, entry: _InFlight, request) -> None:
        loop = asyncio.get_running_loop()

        def emit_row(index: int, row) -> None:
            # Evaluator thread -> loop.  call_soon_threadsafe preserves
            # submission order, and every emit lands before the
            # executor future's completion callback, so subscribers see
            # rows then terminal.
            loop.call_soon_threadsafe(
                self._broadcast_row, entry, index, jsonable(row)
            )

        def emit_trace(event) -> None:
            # Same ordering argument as emit_row: traces interleave
            # with rows exactly as the evaluator emitted them.
            loop.call_soon_threadsafe(
                self._broadcast_trace, entry, jsonable(event)
            )

        def work() -> Dict[str, object]:
            loop.call_soon_threadsafe(self._queue_depth.add, -1)
            return self._run_evaluator(request, emit_row, emit_trace)

        message = await loop.run_in_executor(self._work, work)
        self._finish_entry(entry, message)

    def _run_evaluator(self, request, emit_row, emit_trace) -> Dict[str, object]:
        """Evaluator-thread body: translate every failure into a
        structured terminal so the stream always ends cleanly."""
        try:
            payload = self._evaluator(request, emit_row, emit_trace)
            message = {"type": "result"}
            message.update(jsonable(payload))
            return message
        except SuiteError as err:
            return error_message("suite-error", str(err))
        except RequestError as err:
            return error_message(err.code, str(err))
        except Exception as err:  # noqa: BLE001 - the daemon must survive
            return error_message(
                "internal-error", f"{type(err).__name__}: {err}"
            )

    def _broadcast_row(self, entry: _InFlight, index: int, row) -> None:
        self._rows_streamed.inc()
        message = {"type": "row", "index": index, "row": row}
        entry.messages.append(message)
        for queue in entry.queues:
            queue.put_nowait(message)

    def _broadcast_trace(self, entry: _InFlight, event) -> None:
        self._traces_streamed.inc()
        message = {"type": "trace", "event": event}
        entry.messages.append(message)
        for queue in entry.queues:
            queue.put_nowait(message)

    def _finish_entry(self, entry: _InFlight, message: Dict[str, object]) -> None:
        if message["type"] == "error":
            self._errors.inc()
        entry.terminal = message
        self._inflight.pop(entry.key, None)
        for queue in entry.queues:
            queue.put_nowait(message)

    # -- evaluators ------------------------------------------------------

    def _evaluate(self, request, emit_row, emit_trace) -> Dict[str, object]:
        if request["type"] == "explore":
            return self._evaluate_explore(request, emit_row)
        return self._evaluate_sweep(request, emit_row, emit_trace)

    def _build_suite(self, request) -> Suite:
        """The request's suite, built once per ``(suite, table, cap,
        seed)`` and kept with read-only operands while it fits the
        memo's bounds."""
        key = fingerprint(
            tuple(request[field] for field in ("suite", "table", "cap", "seed"))
        )
        held = self._suites.get(key)
        if held is not None:
            self._suites.move_to_end(key)
            return held[0]
        if request["table"] is not None:
            suite = build_table_suite(
                request["table"],
                cap=request["cap"],
                seed=request["seed"],
                source="request table",
            )
        else:
            suite = build_suite(
                request["suite"], cap=request["cap"], seed=request["seed"]
            )
        size = 0
        for case in suite.cases:
            for array in case.tensors.values():
                array.flags.writeable = False
                size += array.nbytes
        if size > SUITE_MEMO_BYTES:
            return suite
        self._suites[key] = (suite, size)
        self._suite_bytes += size
        while (
            len(self._suites) > SUITE_MEMO_SIZE
            or self._suite_bytes > SUITE_MEMO_BYTES
        ):
            _key, (_suite, evicted) = self._suites.popitem(last=False)
            self._suite_bytes -= evicted
        return suite

    def _evaluate_sweep(self, request, emit_row, emit_trace) -> Dict[str, object]:
        result = sweep_suite(
            self._build_suite(request),
            autotune=request["autotune"],
            halving=request["halving"],
            eta=request["eta"],
            objective=request["objective"],
            budget=request["budget"],
            constraints=request["constraint"],
            jobs=self.jobs,
            cache=self.cache,
            pool=self.pool,
            on_row=emit_row,
            on_rung=emit_trace,
        )
        payload = result.to_dict()
        payload.pop("rows")
        return payload

    def _evaluate_explore(self, request, emit_row) -> Dict[str, object]:
        from ..dse.explorer import adp, run_explore

        size = request["size"]
        result = run_explore(
            request["spec"], size, request["seed"],
            jobs=self.jobs, cache=self.cache,
        )
        for index, point in enumerate(result.points):
            emit_row(
                index,
                {
                    "name": point["name"],
                    "transform": point["transform_name"],
                    "sparsity": point["sparsity_name"],
                    "balancing": point["balancing_name"],
                    "cycles": point["cycles"],
                    "utilization": point["utilization"],
                    "area_um2": point["area_um2"],
                    "pe_count": point["pe_count"],
                    "adp": adp(point),
                },
            )
        return {
            "spec": request["spec"],
            "size": size,
            "points": len(result.points),
            "pareto": [point["name"] for point in result.pareto_frontier()],
            "best_adp": result.best_by("adp")["name"],
            "engine": result.report.as_dict(),
        }

    # -- metrics ---------------------------------------------------------

    def metrics_message(self) -> Dict[str, object]:
        """The live ``metrics`` reply: server-level counters plus a
        merged snapshot of the serve and compile-cache registries."""
        merged = MetricsRegistry()
        merged.merge(self.registry)
        merged.merge(self.cache.registry)
        server = {
            "uptime_s": round(time.monotonic() - self._started, 3),
            "protocol": PROTOCOL_VERSION,
            "requests": self._requests.value,
            "errors": self._errors.value,
            "evaluations": self._evaluations.value,
            "dedup_hits": self._dedup_hits.value,
            "rows_streamed": self._rows_streamed.value,
            "traces_streamed": self._traces_streamed.value,
            "active_requests": self._active.value,
            "queue_depth": self._queue_depth.value,
            "in_flight_keys": len(self._inflight),
            "latency_p50_s": round(self._latency.quantile(0.5), 6),
            "latency_p99_s": round(self._latency.quantile(0.99), 6),
            "workers": self.pool.workers if self.pool is not None else 1,
        }
        return {
            "type": "metrics",
            "server": server,
            "metrics": jsonable(merged.snapshot()),
        }
