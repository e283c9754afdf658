"""Wall-clock spans: self-time profiles and wall-domain trace events.

:func:`span` is the one instrumentation primitive.  ``with
span("compile.elaborate"):`` times the block once and feeds both
observers that are switched on:

* the installed :class:`Profiler` books the call under its label --
  its *total* (inclusive) time and its *self* time, the total minus
  the time spent in spans nested inside it, so a profile table adds up
  to the profiled wall time instead of counting nested work twice;
* the installed :class:`~repro.obs.trace.Tracer` receives one
  wall-domain complete event, named by ``event`` (default: the label)
  under ``component``, with the remaining keyword arguments as its
  payload.

Each thread keeps its own stack of open spans (module state, so the
picklable :class:`Profiler` carries only its records).  The compiler
wraps every pass and the DSE engine every sweep point, so
``python -m repro explore --profile`` prints a per-pass table without
any manual bookkeeping.

Profiling and tracing are disabled by default; while both are off a
span costs one enabled-check and never reads the clock.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager, nullcontext
from typing import Callable, Dict, List, Optional

from .trace import DOMAIN_WALL, KIND_COMPLETE, TraceEvent, get_tracer


class ProfileRecord:
    """Accumulated timing for one label: calls, total (inclusive) and
    self time, and the per-call min/max of the total."""

    __slots__ = ("label", "calls", "total_s", "self_s", "min_s", "max_s")

    def __init__(self, label: str):
        self.label = label
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.min_s = float("inf")
        self.max_s = 0.0

    def add(self, total_s: float, self_s: float) -> None:
        self.calls += 1
        self.total_s += total_s
        self.self_s += self_s
        self.min_s = min(self.min_s, total_s)
        self.max_s = max(self.max_s, total_s)

    def merge(self, other: "ProfileRecord") -> None:
        """Fold another record for the same label into this one."""
        self.calls += other.calls
        self.total_s += other.total_s
        self.self_s += other.self_s
        self.min_s = min(self.min_s, other.min_s)
        self.max_s = max(self.max_s, other.max_s)

    @property
    def mean_s(self) -> float:
        return self.total_s / self.calls if self.calls else 0.0

    def __repr__(self) -> str:
        return (
            f"ProfileRecord({self.label!r}, calls={self.calls},"
            f" total={self.total_s * 1e3:.3f}ms, self={self.self_s * 1e3:.3f}ms)"
        )


class Profiler:
    """Label-keyed span timings (see :func:`span`)."""

    __slots__ = ("enabled", "_records", "_clock")

    def __init__(
        self,
        enabled: bool = False,
        clock: Callable[[], float] = time.perf_counter,
    ):
        self.enabled = enabled
        self._records: Dict[str, ProfileRecord] = {}
        self._clock = clock

    def enable(self) -> "Profiler":
        self.enabled = True
        return self

    def disable(self) -> "Profiler":
        self.enabled = False
        return self

    def record(self, label: str, seconds: float) -> None:
        """Book one call with nothing nested in it (self = total)."""
        self._book(label, seconds, seconds)

    def _book(self, label: str, total_s: float, self_s: float) -> None:
        existing = self._records.get(label)
        if existing is None:
            existing = self._records[label] = ProfileRecord(label)
        existing.add(total_s, self_s)

    def merge(self, other: "Profiler") -> None:
        """Fold another profiler's records into this one.

        The cross-process aggregation primitive: worker processes profile
        locally, ship their (picklable) profilers back, and the parent
        merges them so ``--profile`` reports one fleet-wide table.
        """
        for record in other._records.values():
            existing = self._records.get(record.label)
            if existing is None:
                existing = self._records[record.label] = ProfileRecord(record.label)
            existing.merge(record)

    # -- reporting ------------------------------------------------------

    def records(self) -> List[ProfileRecord]:
        """All records, most self time first."""
        return sorted(
            self._records.values(), key=lambda r: r.self_s, reverse=True
        )

    def table(self) -> str:
        """A per-label summary table (the ``--profile`` output).

        Rows are sorted by self time and ``share`` is each label's share
        of the summed self time, so the shares add up to 100% and the
        ``total`` row is the wall time the outermost spans covered.
        """
        records = self.records()
        if not records:
            return "(no profile samples recorded)"
        grand_self = sum(r.self_s for r in records)
        width = max(len("pass"), max(len(r.label) for r in records))
        lines = [
            f"{'pass':<{width}} {'calls':>6} {'total (ms)':>11} {'self (ms)':>10}"
            f" {'mean (us)':>10} {'max (us)':>10} {'share':>7}"
        ]
        for r in records:
            share = r.self_s / grand_self if grand_self else 0.0
            lines.append(
                f"{r.label:<{width}} {r.calls:>6d} {r.total_s * 1e3:>11.3f}"
                f" {r.self_s * 1e3:>10.3f} {r.mean_s * 1e6:>10.1f}"
                f" {r.max_s * 1e6:>10.1f} {share:>7.2%}"
            )
        lines.append(
            f"{'total':<{width}} {sum(r.calls for r in records):>6d}"
            f" {grand_self * 1e3:>11.3f} {grand_self * 1e3:>10.3f}"
        )
        return "\n".join(lines)

    def reset(self) -> None:
        self._records.clear()

    def __len__(self) -> int:
        return len(self._records)

    def __repr__(self) -> str:
        state = "enabled" if self.enabled else "disabled"
        return f"Profiler({state}, {len(self._records)} labels)"


# ---------------------------------------------------------------------------
# The process-wide profiler instrumented components consult
# ---------------------------------------------------------------------------

_global_profiler = Profiler()


def get_profiler() -> Profiler:
    """The profiler instrumented components time against (disabled by default)."""
    return _global_profiler


def set_profiler(profiler: Profiler) -> Profiler:
    """Install ``profiler`` globally; returns the previous one for restore."""
    global _global_profiler
    previous = _global_profiler
    _global_profiler = profiler
    return previous


@contextmanager
def profiling():
    """Enable profiling within a scope; yields the fresh profiler."""
    profiler = Profiler(enabled=True)
    previous = set_profiler(profiler)
    try:
        yield profiler
    finally:
        set_profiler(previous)


# ---------------------------------------------------------------------------
# The instrumentation primitive
# ---------------------------------------------------------------------------

#: Per-thread stacks of open spans.
_open = threading.local()

#: What :func:`span` returns while profiling and tracing are both off.
_DISABLED = nullcontext()


class _Span:
    """One open span; :func:`span` builds it, ``with`` runs it."""

    __slots__ = (
        "label", "profiler", "tracer", "event", "component", "payload",
        "clock", "stack", "start", "child",
    )

    def __init__(self, label, profiler, tracer, event, component, payload):
        self.label = label
        self.profiler = profiler
        self.tracer = tracer
        self.event = event
        self.component = component
        self.payload = payload
        self.clock = (profiler if profiler is not None else tracer)._clock

    def __enter__(self) -> "_Span":
        stack = getattr(_open, "stack", None)
        if stack is None:
            stack = _open.stack = []
        stack.append(self)
        self.stack = stack
        self.child = 0.0
        self.start = self.clock()
        return self

    def __exit__(self, *_exc) -> None:
        elapsed = self.clock() - self.start
        stack = self.stack
        stack.pop()
        if stack:
            stack[-1].child += elapsed
        if self.profiler is not None:
            self.profiler._book(self.label, elapsed, elapsed - self.child)
        if self.tracer is not None:
            self.tracer._emit(
                TraceEvent(
                    self.event or self.label, self.component, KIND_COMPLETE,
                    DOMAIN_WALL, self.start * 1e6, elapsed * 1e6,
                    self.payload or None,
                )
            )


def span(
    label: str,
    event: Optional[str] = None,
    component: str = "",
    **payload: object,
):
    """Time a block under the profile label ``label``.

    The installed profiler (when enabled) books the block's total and
    self time; the installed tracer (when enabled) gets one wall-domain
    complete event named ``event`` (default: ``label``) under
    ``component`` with ``payload`` as its arguments.  Both observers are
    the ones installed when the span opens.
    """
    profiler = _global_profiler
    tracer = get_tracer()
    if not (profiler.enabled or tracer.enabled):
        return _DISABLED
    return _Span(
        label,
        profiler if profiler.enabled else None,
        tracer if tracer.enabled else None,
        event,
        component,
        payload,
    )
