"""Structured event tracing with a bounded ring buffer.

A :class:`Tracer` collects :class:`TraceEvent` records from every layer
of the stack -- per-timestep simulator activity, RTL interpreter steps,
compiler passes, DSE sweep points -- into a fixed-capacity ring buffer
(oldest events are dropped beyond capacity, with a ``dropped`` count).

Events live in one of two time domains:

* **cycle domain** -- timestamped by a simulated cycle number (the
  simulator and RTL interpreter);
* **wall domain** -- timestamped by ``time.perf_counter`` (compiler
  passes, DSE sweep points: the complete events every
  :func:`repro.obs.span` emits).

The exporter (:mod:`repro.obs.export`) renders each domain as its own
process in a Chrome ``trace_event`` timeline.

Tracing is **disabled by default** and instrumented code guards every
emission on ``tracer.enabled``, so the cost in production paths is one
attribute check.  Enable globally with :func:`tracing` (a context
manager) or by installing an enabled tracer via :func:`set_tracer`.
"""

from __future__ import annotations

import time
from collections import deque
from contextlib import contextmanager
from typing import Callable, Deque, Dict, List, Optional

#: Event kinds, following the Chrome trace_event phases they export to.
KIND_BEGIN = "B"
KIND_END = "E"
KIND_INSTANT = "I"
KIND_COMPLETE = "X"

DOMAIN_CYCLE = "cycle"
DOMAIN_WALL = "wall"


class TraceEvent:
    """One trace record.

    ``ts`` is a cycle number in the cycle domain and microseconds of
    ``perf_counter`` in the wall domain; ``dur`` (complete events only)
    is in the same unit as ``ts``.
    """

    __slots__ = ("name", "component", "kind", "domain", "ts", "dur", "payload")

    def __init__(
        self,
        name: str,
        component: str,
        kind: str,
        domain: str,
        ts: float,
        dur: Optional[float] = None,
        payload: Optional[Dict[str, object]] = None,
    ):
        self.name = name
        self.component = component
        self.kind = kind
        self.domain = domain
        self.ts = ts
        self.dur = dur
        self.payload = payload

    @property
    def cycle(self) -> Optional[int]:
        return int(self.ts) if self.domain == DOMAIN_CYCLE else None

    def __repr__(self) -> str:
        where = f"@{self.ts:g}{'cy' if self.domain == DOMAIN_CYCLE else 'us'}"
        return f"TraceEvent({self.kind} {self.component}/{self.name} {where})"


class Tracer:
    """Ring-buffered event collector.

    Instrumentation sites hold a reference and check ``enabled`` before
    building payloads, so a disabled tracer adds no events and almost no
    time.  The buffer keeps the *newest* ``capacity`` events; everything
    older is dropped and counted in ``dropped``.  A tracer only buffers:
    readers take its events after the fact (:meth:`events`, the
    exporters), and live progress travels by explicit callbacks such as
    the autotuner's ``on_rung``, never through the process-wide tracer.
    """

    DEFAULT_CAPACITY = 65536

    __slots__ = ("enabled", "capacity", "dropped", "_events", "_clock")

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        enabled: bool = False,
        clock: Callable[[], float] = time.perf_counter,
    ):
        if capacity < 1:
            raise ValueError(f"tracer capacity must be positive, got {capacity}")
        self.enabled = enabled
        self.capacity = capacity
        self.dropped = 0
        self._events: Deque[TraceEvent] = deque(maxlen=capacity)
        self._clock = clock

    # -- control --------------------------------------------------------

    def enable(self) -> "Tracer":
        self.enabled = True
        return self

    def disable(self) -> "Tracer":
        self.enabled = False
        return self

    def clear(self) -> None:
        self._events.clear()
        self.dropped = 0

    # -- emission -------------------------------------------------------

    def _emit(self, event: TraceEvent) -> None:
        if len(self._events) == self.capacity:
            self.dropped += 1
        self._events.append(event)

    def instant(
        self,
        name: str,
        component: str = "",
        cycle: Optional[int] = None,
        **payload: object,
    ) -> None:
        """A point event, in the cycle domain when ``cycle`` is given."""
        if not self.enabled:
            return
        if cycle is None:
            self._emit(
                TraceEvent(
                    name, component, KIND_INSTANT, DOMAIN_WALL,
                    self._clock() * 1e6, None, payload or None,
                )
            )
        else:
            self._emit(
                TraceEvent(
                    name, component, KIND_INSTANT, DOMAIN_CYCLE,
                    float(cycle), None, payload or None,
                )
            )

    def begin(
        self,
        name: str,
        component: str = "",
        cycle: Optional[int] = None,
        **payload: object,
    ) -> None:
        if not self.enabled:
            return
        domain = DOMAIN_WALL if cycle is None else DOMAIN_CYCLE
        ts = self._clock() * 1e6 if cycle is None else float(cycle)
        self._emit(
            TraceEvent(name, component, KIND_BEGIN, domain, ts, None, payload or None)
        )

    def end(
        self,
        name: str,
        component: str = "",
        cycle: Optional[int] = None,
        **payload: object,
    ) -> None:
        if not self.enabled:
            return
        domain = DOMAIN_WALL if cycle is None else DOMAIN_CYCLE
        ts = self._clock() * 1e6 if cycle is None else float(cycle)
        self._emit(
            TraceEvent(name, component, KIND_END, domain, ts, None, payload or None)
        )

    def complete(
        self,
        name: str,
        component: str = "",
        start_cycle: int = 0,
        duration: int = 0,
        **payload: object,
    ) -> None:
        """A cycle-domain span known after the fact (e.g. one DMA transfer)."""
        if not self.enabled:
            return
        self._emit(
            TraceEvent(
                name, component, KIND_COMPLETE, DOMAIN_CYCLE,
                float(start_cycle), float(duration), payload or None,
            )
        )

    def merge(self, other: "Tracer") -> None:
        """Append another tracer's buffered events to this one.

        Used to fold worker-process trace buffers back into the parent:
        events keep their original timestamps (wall-domain timelines from
        different processes interleave naturally in the exporter), and
        this buffer's capacity/drop accounting applies as usual.
        """
        self.dropped += other.dropped
        for event in other._events:
            self._emit(event)

    # -- inspection -----------------------------------------------------

    def events(self) -> List[TraceEvent]:
        """All buffered events, oldest first."""
        return list(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def __repr__(self) -> str:
        state = "enabled" if self.enabled else "disabled"
        return (
            f"Tracer({state}, {len(self._events)}/{self.capacity} events,"
            f" dropped={self.dropped})"
        )


# ---------------------------------------------------------------------------
# The process-wide tracer instrumented components consult
# ---------------------------------------------------------------------------

_global_tracer = Tracer()


def get_tracer() -> Tracer:
    """The tracer instrumented components emit to (disabled by default)."""
    return _global_tracer


def set_tracer(tracer: Tracer) -> Tracer:
    """Install ``tracer`` globally; returns the previous one for restore."""
    global _global_tracer
    previous = _global_tracer
    _global_tracer = tracer
    return previous


@contextmanager
def tracing(capacity: int = Tracer.DEFAULT_CAPACITY):
    """Enable tracing within a scope; yields the fresh tracer.

    The previous global tracer is restored on exit, so traced and
    untraced runs can be interleaved safely.
    """
    tracer = Tracer(capacity=capacity, enabled=True)
    previous = set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)
