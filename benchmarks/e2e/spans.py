"""Outside-in per-layer tracing for the end-to-end benchmark.

The benchmark measures ``repro`` from the outside: :func:`install`
replaces the public functions of each layer with span-recording
wrappers by patching module and class attributes from this file, so
nothing under ``src/`` changes and an untraced run executes exactly the
code users run.

A span is one call into a layer.  Each thread keeps its own span stack;
a layer's *self time* is its span's duration minus the part covered by
child spans.  Three refinements keep the numbers honest:

* a call into the layer that is already on top of the stack (recursion,
  or a public function calling another of the same layer) opens no new
  span and counts no call, so ``calls`` counts outermost entries;
* ``CompileCache.memo`` is the ``exec.cache`` layer for its lookup only:
  the ``build`` callable it is handed runs under the layer that owns the
  memo stage (``STAGE_LAYERS``), as an attribution span that adds time
  but no call;
* a *wait* span (the serve client blocked on its socket) is covered time
  for its parent but is booked as ``wait_s``, not self time, so the
  client's wait and the server's work are not counted twice.
"""

from __future__ import annotations

import asyncio.base_events
import contextlib
import functools
import importlib
import socket
import sys
import threading
import time
import types
from typing import Callable, Dict, List, Tuple

#: The layers of the stack, in the order the report prints them.
LAYERS = (
    "analysis.spec",
    "core.compiler",
    "core.compiler.elaborate",
    "core.compiler.prune",
    "core.compiler.map_spacetime",
    "core.compiler.regfile_ladder",
    "sim.dense",
    "sim.sparse",
    "sim.kernel",
    "area.model",
    "area.energy",
    "dse.uarch",
    "exec.fingerprint",
    "exec.cache",
    "exec.store.get",
    "exec.store.put",
    "exec.engine",
    "exec.suite",
    "exec.halving",
    "analysis.verify",
    "rtl.lowering",
    "rtl.passes",
    "rtl.sim",
    "analysis.equiv",
    "serve.protocol",
    "serve.server",
    "serve.client",
)

#: The harness's own span around each op; its self time is the share of
#: the op no layer accounts for.
ROOT = "root"

#: ``CompileCache.memo`` stage -> the layer its ``build`` belongs to.
STAGE_LAYERS = {
    "analysis.spec": "analysis.spec",
    "compile": "core.compiler",
    "compile.elaborate": "core.compiler.elaborate",
    "compile.prune": "core.compiler.prune",
    "sim.dense": "sim.dense",
    "sim.sparse.compress": "sim.sparse",
    "sim.reference": "sim.kernel",
    "sim.kernel": "sim.kernel",
    "lower": "rtl.lowering",
}

#: Module-level functions wrapped per layer.  Every ``repro`` module
#: that imported one of them by name gets the wrapper too.
FUNCTIONS = (
    ("analysis.spec", "repro.analysis.spec",
     ("check_spec_transform", "check_spec_annotations")),
    ("core.compiler", "repro.core.compiler", ("compile_design",)),
    ("core.compiler.elaborate", "repro.core.iterspace", ("elaborate",)),
    ("core.compiler.prune", "repro.core.passes.prune",
     ("prune_for_sparsity", "prune_for_balancing")),
    ("core.compiler.map_spacetime", "repro.core.iterspace", ("apply_transform",)),
    # The regfile ladder stage has no public entry point of its own.
    ("core.compiler.regfile_ladder", "repro.core.compiler", ("_plan_regfiles",)),
    ("sim.kernel", "repro.sim.kernel",
     ("compile_kernel", "cached_kernel", "replay_interpret")),
    ("area.model", "repro.area.model", ("estimate_design_area",)),
    ("area.energy", "repro.area.energy", ("energy_from_counters",)),
    ("dse.uarch", "repro.dse.uarch", ("uarch_overlay",)),
    ("exec.fingerprint", "repro.exec.fingerprint", ("fingerprint",)),
    ("exec.engine", "repro.exec.engine", ("evaluate_sweep",)),
    ("exec.suite", "repro.exec.suite", ("evaluate_suite", "build_suite")),
    ("exec.halving", "repro.exec.halving", ("halving_autotune_suite",)),
    ("analysis.verify", "repro.analysis.verify", ("run_verify",)),
    ("rtl.lowering", "repro.rtl.lowering", ("lower_design",)),
    ("rtl.passes", "repro.rtl.passes", ("run_passes",)),
    ("analysis.equiv", "repro.analysis.equiv", ("check_equivalence",)),
    ("serve.protocol", "repro.serve.protocol",
     ("parse_line", "validate_request", "request_key", "encode")),
)

#: Functions that recurse through their own module's global.  Only the
#: bindings other modules imported are wrapped, so each recursion step
#: costs no wrapper call; in-module callers are already in the layer.
RECURSIVE = (
    ("serve.protocol", "repro.serve.protocol", "jsonable"),
)

#: Methods wrapped per layer: (layer, module, class, method names).
METHODS = (
    ("rtl.sim", "repro.rtl.sim", "RTLSimulator", ("__init__", "step", "reset")),
    ("exec.store.get", "repro.exec.store", "DiskStore", ("get",)),
    ("exec.store.put", "repro.exec.store", "DiskStore", ("put",)),
    ("serve.server", "repro.serve.server", "EvalServer",
     ("_run_evaluator", "_broadcast_row", "_broadcast_trace", "_finish_entry")),
    ("serve.client", "repro.serve.client", "ServeClient", ("sweep",)),
)


class _Frame:
    __slots__ = ("label", "start", "child", "counted", "wait")

    def __init__(self, label: str, start: float, counted: bool, wait):
        self.label = label
        self.start = start
        self.child = 0.0
        self.counted = counted
        self.wait = wait  # None, or the wait clock's reading at entry


class _ThreadState:
    __slots__ = ("stack", "self_s", "wait_s", "calls")

    def __init__(self):
        self.stack: List[_Frame] = []
        self.self_s: Dict[str, float] = {}
        self.wait_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}


class Tracer:
    """Per-thread span stacks feeding per-layer self time, wait time
    and call counts.

    ``clock`` times spans.  Threads that share the interpreter lock
    should use ``time.thread_time``: a thread waiting for the lock then
    accrues nothing, so self times across threads add up to the wall
    time instead of counting each lock wait twice.  ``wait_clock`` (wall
    time) times wait spans, which by definition consume no CPU.
    """

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        wait_clock: Callable[[], float] = time.perf_counter,
    ):
        self.clock = clock
        self.wait_clock = wait_clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: List[_ThreadState] = []

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState()
            self._local.state = state
            with self._lock:
                self._states.append(state)
        return state

    def enter(self, label: str, count: bool = True, wait: bool = False):
        """Open a span; returns the token :meth:`exit` takes."""
        state = self._state()
        stack = state.stack
        if stack and not wait:
            top = stack[-1]
            if top.label == label and top.wait is None:
                if count and not top.counted:
                    state.calls[label] = state.calls.get(label, 0) + 1
                return None
        if count:
            state.calls[label] = state.calls.get(label, 0) + 1
        frame = _Frame(
            label, self.clock(), count, self.wait_clock() if wait else None
        )
        stack.append(frame)
        return state, frame

    def exit(self, token) -> None:
        if token is None:
            return
        now = self.clock()
        state, frame = token
        stack = state.stack
        stack.pop()
        duration = now - frame.start
        if frame.wait is None:
            own = duration - frame.child
            state.self_s[frame.label] = state.self_s.get(frame.label, 0.0) + own
        else:
            waited = self.wait_clock() - frame.wait
            state.wait_s[frame.label] = state.wait_s.get(frame.label, 0.0) + waited
        if stack:
            stack[-1].child += duration

    @contextlib.contextmanager
    def span(self, label: str, count: bool = True, wait: bool = False):
        token = self.enter(label, count, wait)
        try:
            yield
        finally:
            self.exit(token)

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Sums over every thread: ``self_s``, ``wait_s`` and ``calls``."""
        merged: Dict[str, Dict[str, float]] = {
            "self_s": {}, "wait_s": {}, "calls": {},
        }
        with self._lock:
            states = list(self._states)
        for state in states:
            for kind, into in merged.items():
                for label, value in dict(getattr(state, kind)).items():
                    into[label] = into.get(label, 0) + value
        return merged


def hit_tally(stats) -> Dict[str, Tuple[int, int]]:
    """``(hits, lookups)`` per ``exec.cache.<stage>`` and for
    ``exec.store``, summed over ``(CacheStats, DiskStoreStats or None)``
    pairs -- the counters each ``CompileCache`` and its store keep."""
    tally: Dict[str, Tuple[int, int]] = {}

    def add(name: str, hits: int, lookups: int) -> None:
        h0, l0 = tally.get(name, (0, 0))
        tally[name] = (h0 + hits, l0 + lookups)

    for cache_stats, store_stats in stats:
        for stage, (hits, misses) in dict(cache_stats.by_stage).items():
            add(f"exec.cache.{stage}", hits, hits + misses)
        if store_stats is not None:
            add("exec.store", store_stats.hits, store_stats.lookups)
    return tally


# ---------------------------------------------------------------------------
# Patching
# ---------------------------------------------------------------------------


def _wrap(
    tracer: Tracer, label: str, function: Callable, count: bool = True
) -> Callable:
    enter, leave = tracer.enter, tracer.exit

    @functools.wraps(function)
    def traced(*args, **kwargs):
        token = enter(label, count)
        try:
            return function(*args, **kwargs)
        finally:
            leave(token)

    return traced


def _traced_run(tracer: Tracer, run: Callable) -> Callable:
    @functools.wraps(run)
    def traced(sim, tensors):
        token = tracer.enter("sim.sparse" if sim._is_sparse() else "sim.dense")
        try:
            return run(sim, tensors)
        finally:
            tracer.exit(token)

    return traced


def _traced_memo(tracer: Tracer, memo: Callable) -> Callable:
    @functools.wraps(memo)
    def traced(cache, stage, parts, build):
        def attributed_build():
            token = tracer.enter(STAGE_LAYERS.get(stage, stage), count=False)
            try:
                return build()
            finally:
                tracer.exit(token)

        token = tracer.enter("exec.cache")
        try:
            return memo(cache, stage, parts, attributed_build)
        finally:
            tracer.exit(token)

    return traced


def _socket_module(tracer: Tracer) -> types.SimpleNamespace:
    """A stand-in for the ``socket`` module whose sockets book every
    blocking read as ``serve.client`` wait time."""

    class WaitingSocket(socket.socket):
        def recv_into(self, *args, **kwargs):
            token = tracer.enter("serve.client", count=False, wait=True)
            try:
                return super().recv_into(*args, **kwargs)
            finally:
                tracer.exit(token)

    namespace = types.SimpleNamespace(**vars(socket))
    namespace.socket = WaitingSocket
    return namespace


class Patches:
    """Attribute replacements that :meth:`undo` restores in reverse."""

    def __init__(self):
        self._undo: List[Tuple[object, str, object]] = []

    def set(self, owner: object, name: str, value: object) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def function(
        self, module_name: str, name: str, wrapper: Callable, home: bool = True
    ) -> None:
        """Replace ``module.name`` (unless ``home`` is false) and every
        alias of it that another loaded ``repro`` module imported."""
        original = getattr(importlib.import_module(module_name), name)
        traced = wrapper(original)
        for module in list(sys.modules.values()):
            module_of = getattr(module, "__name__", "")
            if not module_of.startswith("repro"):
                continue
            if module_of == module_name and not home:
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.set(module, attr, traced)

    def undo(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)


def install(tracer: Tracer) -> Patches:
    """Wrap every layer's entry points; returns the patches to undo.

    A module imported after this call binds the wrappers from the
    defining module, so it is traced too, but :meth:`Patches.undo` does
    not reach it.
    """
    patches = Patches()
    for label, module_name, names in FUNCTIONS:
        for name in names:
            patches.function(module_name, name, functools.partial(_wrap, tracer, label))
    for label, module_name, name in RECURSIVE:
        patches.function(
            module_name, name, functools.partial(_wrap, tracer, label), home=False
        )
    for label, module_name, class_name, names in METHODS:
        cls = getattr(importlib.import_module(module_name), class_name)
        for name in names:
            patches.set(cls, name, _wrap(tracer, label, cls.__dict__[name]))

    from repro.exec.cache import CompileCache
    from repro.sim.spatial_array import SpatialArraySim
    import repro.serve.client as client

    patches.set(SpatialArraySim, "run", _traced_run(tracer, SpatialArraySim.run))
    patches.set(CompileCache, "memo", _traced_memo(tracer, CompileCache.memo))
    patches.set(client, "socket", _socket_module(tracer))
    # The daemon's event loop is the rest of serve.server: reading,
    # dispatching and writing happen in loop iterations, not in any
    # named function.  Only the serve run hosts a loop.
    loop_class = asyncio.base_events.BaseEventLoop
    patches.set(
        loop_class, "_run_once",
        _wrap(tracer, "serve.server", loop_class._run_once, count=False),
    )
    return patches


def layer_metrics(
    totals: Dict[str, Dict[str, float]],
    hits: Dict[str, Tuple[int, int]],
    ops: int,
    wall_s: float,
) -> Dict[str, float]:
    """Per-op layer figures from :meth:`Tracer.totals` and a
    :func:`hit_tally` (of the same window) over ``ops`` ops that took
    ``wall_s`` in all.

    ``trace.self_sum_share`` is every span's self time (the root's
    included) over the wall time: 1.0 when the spans account for all of
    it, above 1.0 when threads overlap.
    """
    ops = max(1, ops)
    self_s = totals["self_s"]
    calls = totals["calls"]
    out: Dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = calls.get(layer, 0) / ops
        out[f"{layer}.self_s"] = self_s.get(layer, 0.0) / ops
    out["serve.client.wait_s"] = totals["wait_s"].get("serve.client", 0.0) / ops
    for name in [f"exec.cache.{stage}" for stage in STAGE_LAYERS] + ["exec.store"]:
        found, lookups = hits.get(name, (0, 0))
        out[f"{name}.hit_rate"] = found / lookups if lookups else 0.0
    wall_s = max(wall_s, 1e-12)
    out["trace.unattributed_share"] = self_s.get(ROOT, 0.0) / wall_s
    out["trace.self_sum_share"] = sum(self_s.values()) / wall_s
    return out


def unknown_layers(totals: Dict[str, Dict[str, object]]) -> List[str]:
    """Labels that collected self time but are not in :data:`LAYERS`
    (a memo stage missing from :data:`STAGE_LAYERS`)."""
    known = set(LAYERS) | {ROOT}
    return sorted(label for label in totals["self_s"] if label not in known)
