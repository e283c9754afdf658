"""repro.obs: the observability subsystem.

Four cooperating pieces (see DESIGN.md's system inventory):

* :mod:`repro.obs.metrics` -- a metrics registry (counters, gauges,
  fixed-bucket histograms);
* :mod:`repro.obs.trace` -- a ring-buffered structured event tracer
  wired into the cycle-level simulator, the RTL interpreter, the
  compiler pass pipeline, and the DSE explorer; a no-op when disabled;
* :mod:`repro.obs.export` -- Chrome ``trace_event`` JSON timelines and
  VCD waveform dumps of the RTL interpreter;
* :mod:`repro.obs.profile` -- :func:`span`, the one instrumentation
  primitive: a wall-clock block that books total and self time into
  the installed :class:`Profiler` (per-pass summary tables, ``python -m
  repro explore --profile``) and emits one wall-domain event into the
  installed :class:`Tracer`.

The compile cache's tallies are not duplicated here:
:attr:`repro.exec.cache.CompileCache.registry` builds its
``exec.cache.*`` / ``exec.store.*`` counters from them when read.
"""

from .export import VCDWriter, chrome_trace, dump_rtl_vcd, write_chrome_trace
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .profile import Profiler, get_profiler, profiling, set_profiler, span
from .trace import TraceEvent, Tracer, get_tracer, set_tracer, tracing

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Profiler",
    "TraceEvent",
    "Tracer",
    "VCDWriter",
    "chrome_trace",
    "dump_rtl_vcd",
    "get_profiler",
    "get_tracer",
    "profiling",
    "set_profiler",
    "set_tracer",
    "span",
    "tracing",
    "write_chrome_trace",
]
