"""Trace exporters: Chrome ``trace_event`` JSON and VCD waveforms.

Two inspection paths for generated designs:

* :func:`chrome_trace` / :func:`write_chrome_trace` render a
  :class:`~repro.obs.trace.Tracer`'s event stream as Chrome's
  ``trace_event`` JSON (load in ``chrome://tracing`` or Perfetto).
  Cycle-domain and wall-domain events appear as two separate processes
  so simulated time and compile time never share an axis.

* :class:`VCDWriter` / :func:`dump_rtl_vcd` dump signal values from the
  RTL interpreter (:class:`~repro.rtl.sim.RTLSimulator`) as a Value
  Change Dump file, playing the role FireSim waveforms play for the
  paper's generated designs: any waveform viewer (GTKWave etc.) can then
  inspect the emitted Verilog's behaviour cycle by cycle.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from .trace import (
    DOMAIN_CYCLE,
    KIND_INSTANT,
    TraceEvent,
    Tracer,
)

# ---------------------------------------------------------------------------
# Chrome trace_event JSON
# ---------------------------------------------------------------------------

#: Synthetic process ids: one per time domain.
PID_CYCLES = 0
PID_WALL = 1


def chrome_trace(source: Union[Tracer, Iterable[TraceEvent]]) -> Dict[str, object]:
    """Render events as a Chrome ``trace_event`` document (JSON-ready dict).

    Cycle-domain timestamps are emitted as microseconds 1:1 (one cycle
    renders as one microsecond), under a process named ``simulated
    cycles``; wall-domain events keep their real microseconds under
    ``wall clock``.
    """
    events = source.events() if isinstance(source, Tracer) else list(source)
    trace_events: List[Dict[str, object]] = []
    tids: Dict[Tuple[int, str], int] = {}

    for pid, process in ((PID_CYCLES, "simulated cycles"), (PID_WALL, "wall clock")):
        trace_events.append(
            {
                "ph": "M",
                "name": "process_name",
                "pid": pid,
                "tid": 0,
                "args": {"name": process},
            }
        )

    for event in events:
        pid = PID_CYCLES if event.domain == DOMAIN_CYCLE else PID_WALL
        key = (pid, event.component)
        tid = tids.get(key)
        if tid is None:
            tid = tids[key] = len([k for k in tids if k[0] == pid])
            trace_events.append(
                {
                    "ph": "M",
                    "name": "thread_name",
                    "pid": pid,
                    "tid": tid,
                    "args": {"name": event.component or "(default)"},
                }
            )
        entry: Dict[str, object] = {
            "name": event.name,
            "cat": event.component or "repro",
            "ph": "i" if event.kind == KIND_INSTANT else event.kind,
            "ts": event.ts,
            "pid": pid,
            "tid": tid,
        }
        if event.kind == KIND_INSTANT:
            entry["s"] = "t"  # thread-scoped instant
        if event.dur is not None:
            entry["dur"] = event.dur
        if event.payload:
            entry["args"] = dict(event.payload)
        trace_events.append(entry)

    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def write_chrome_trace(
    source: Union[Tracer, Iterable[TraceEvent]], destination
) -> int:
    """Write the Chrome trace JSON; returns the number of trace events."""
    document = chrome_trace(source)
    if hasattr(destination, "write"):
        json.dump(document, destination)
    else:
        with open(destination, "w") as handle:
            json.dump(document, handle)
    return len(document["traceEvents"])


# ---------------------------------------------------------------------------
# VCD waveforms
# ---------------------------------------------------------------------------

_VCD_ID_FIRST = 33  # '!'
_VCD_ID_LAST = 126  # '~'
_VCD_ID_RANGE = _VCD_ID_LAST - _VCD_ID_FIRST + 1


def _vcd_identifier(index: int) -> str:
    """Compact printable-ASCII identifier codes: ``!``, ``"``, ... ``!!``."""
    chars = []
    while True:
        chars.append(chr(_VCD_ID_FIRST + index % _VCD_ID_RANGE))
        index //= _VCD_ID_RANGE
        if not index:
            return "".join(reversed(chars))
        index -= 1


class _Scope:
    """One ``$scope module``: child scopes plus directly contained vars."""

    def __init__(self, name: str):
        self.name = name
        self.children: Dict[str, _Scope] = {}
        self.vars: List[Tuple[str, int, str]] = []  # (name, width, id)

    def child(self, name: str) -> "_Scope":
        scope = self.children.get(name)
        if scope is None:
            scope = self.children[name] = _Scope(name)
        return scope


class VCDWriter:
    """Streams a Value Change Dump to a file handle.

    Declare every signal with :meth:`add_signal` (hierarchical dotted
    paths become ``$scope`` nesting), then call :meth:`sample` once per
    timestep with the full ``path -> value`` map; the writer emits the
    header plus ``$dumpvars`` on the first sample and only *changed*
    values afterwards.
    """

    def __init__(self, handle, timescale: str = "1ns", comment: str = "repro.obs"):
        self._handle = handle
        self._timescale = timescale
        self._comment = comment
        self._root = _Scope("")
        self._ids: Dict[str, str] = {}  # signal path -> identifier code
        self._widths: Dict[str, int] = {}
        self._last: Dict[str, int] = {}
        self._header_written = False

    def add_signal(self, path: str, width: int) -> str:
        """Declare one signal by dotted hierarchical path; returns its id."""
        if self._header_written:
            raise ValueError("cannot declare signals after the first sample")
        if path in self._ids:
            return self._ids[path]
        if width < 1:
            raise ValueError(f"signal {path!r} must be at least 1 bit wide")
        *scopes, leaf = path.split(".")
        code = _vcd_identifier(len(self._ids))
        self._ids[path] = code
        self._widths[path] = width
        node = self._root
        for segment in scopes:
            node = node.child(segment)
        node.vars.append((leaf, width, code))
        return code

    # -- header ---------------------------------------------------------

    def _write_scope(self, scope: _Scope, indent: int) -> None:
        pad = "  " * indent
        for name, width, code in scope.vars:
            self._handle.write(f"{pad}$var wire {width} {code} {name} $end\n")
        for name in sorted(scope.children):
            child = scope.children[name]
            self._handle.write(f"{pad}$scope module {name} $end\n")
            self._write_scope(child, indent + 1)
            self._handle.write(f"{pad}$upscope $end\n")

    def _write_header(self, initial: Mapping[str, int]) -> None:
        write = self._handle.write
        write(f"$comment {self._comment} $end\n")
        write(f"$timescale {self._timescale} $end\n")
        self._write_scope(self._root, 0)
        write("$enddefinitions $end\n")
        write("$dumpvars\n")
        for path in self._ids:
            self._write_value(path, int(initial.get(path, 0)))
        write("$end\n")
        self._header_written = True

    # -- value changes --------------------------------------------------

    def _write_value(self, path: str, value: int) -> None:
        code = self._ids[path]
        width = self._widths[path]
        masked = value & ((1 << width) - 1)
        if width == 1:
            self._handle.write(f"{masked}{code}\n")
        else:
            self._handle.write(f"b{masked:b} {code}\n")
        self._last[path] = masked

    def sample(self, time_: int, values: Mapping[str, int]) -> int:
        """Record one timestep; returns the number of value changes."""
        if not self._header_written:
            self._write_header(values)
            return len(self._ids)
        changes = [
            (path, int(value))
            for path, value in values.items()
            if path in self._ids
            and (int(value) & ((1 << self._widths[path]) - 1)) != self._last[path]
        ]
        if not changes:
            return 0
        self._handle.write(f"#{int(time_)}\n")
        for path, value in changes:
            self._write_value(path, value)
        return len(changes)

    @property
    def signal_count(self) -> int:
        return len(self._ids)


def dump_rtl_vcd(
    sim,
    destination,
    cycles: int = 16,
    reset_cycles: int = 1,
    signals: Optional[Sequence[str]] = None,
) -> int:
    """Run the RTL interpreter and dump every signal to a VCD file.

    ``sim`` is a :class:`~repro.rtl.sim.RTLSimulator`, stepped by its
    :meth:`~repro.rtl.sim.RTLSimulator.run`: ``cycles`` clock edges with
    ``rst`` held high for the first ``reset_cycles`` (when the design has
    one).  ``signals`` optionally restricts the dump to the named
    hierarchical paths.  Returns the number of cycles dumped.
    """
    if hasattr(destination, "write"):
        return _dump_rtl_vcd(sim, destination, cycles, reset_cycles, signals)
    with open(destination, "w") as handle:
        return _dump_rtl_vcd(sim, handle, cycles, reset_cycles, signals)


def capture_rtl_trace(
    sim,
    cycles: int = 16,
    reset_cycles: int = 1,
    inputs: Sequence[str] = (),
    schedule: Optional[Sequence[Sequence[int]]] = None,
) -> Dict[str, List[int]]:
    """Run the RTL interpreter and capture every signal's cycle series.

    The in-memory twin of :func:`dump_rtl_vcd`, stepped by the same
    :meth:`~repro.rtl.sim.RTLSimulator.run`, which drives
    ``schedule[cycle]`` into ``inputs`` before edge ``cycle``.  Returns
    ``{signal_path: [v0, v1, ...]}`` -- one value per cycle, index 0
    being the pre-step state -- with the paths in probe order.
    """
    paths = list(sim.signal_values())
    rows = list(sim.run(paths, cycles, reset_cycles, inputs, schedule))
    return dict(zip(paths, map(list, zip(*rows))))


def _dump_rtl_vcd(sim, handle, cycles, reset_cycles, signals) -> int:
    # Widths come from one whole-hierarchy read; each cycle then samples
    # only the dumped paths, in probe order: the writer emits a cycle's
    # value changes in the order it is given them.
    widths = {path: width for path, (_, width) in sim.signal_values().items()}
    if signals is not None:
        missing = sorted(set(signals) - set(widths))
        if missing:
            raise ValueError(f"no such signals in the design: {missing}")
        chosen = set(signals)
        widths = {path: w for path, w in widths.items() if path in chosen}
    writer = VCDWriter(handle, comment=f"repro.obs dump of {sim.netlist.top_name}")
    for path in sorted(widths):
        writer.add_signal(path, widths[path])
    paths = list(widths)
    for cycle, values in enumerate(sim.run(paths, cycles, reset_cycles)):
        writer.sample(cycle, dict(zip(paths, values)))
    return cycles
