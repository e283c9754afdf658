"""Performance counters shared by all simulator components.

A :class:`PerfCounters` is a fixed set of named ints, one per
:data:`BUILTIN_COUNTERS` entry, plus the metrics derived from them.
The attribute API is the whole interface (``counters.macs += 1``).
"""

from __future__ import annotations

from typing import Dict, Union

#: The built-in counters every simulator component may touch.
BUILTIN_COUNTERS = (
    "cycles",
    "pe_busy_cycles",
    "pe_idle_cycles",
    "macs",
    "regfile_reads",
    "regfile_writes",
    "membuf_reads",
    "membuf_writes",
    "dram_requests",
    "dram_bytes",
    "dma_stall_cycles",
    "balancer_shifts",
)


class PerfCounters:
    """A bag of monotonically increasing counters plus derived metrics.

    Every simulator component increments counters here; experiment
    harnesses read utilization/throughput from one place.  Each counter
    holds an ``int``: assignments are coerced, so numpy scalars never
    leak into reports, and a name outside :data:`BUILTIN_COUNTERS` is an
    ``AttributeError``.
    """

    __slots__ = BUILTIN_COUNTERS

    def __init__(self):
        for name in BUILTIN_COUNTERS:
            object.__setattr__(self, name, 0)

    def __setattr__(self, name: str, value: int) -> None:
        object.__setattr__(self, name, int(value))

    @property
    def pe_utilization(self) -> float:
        total = self.pe_busy_cycles + self.pe_idle_cycles
        return self.pe_busy_cycles / total if total else 0.0

    def throughput_macs_per_cycle(self) -> float:
        return self.macs / self.cycles if self.cycles else 0.0

    def as_dict(self) -> Dict[str, Union[int, float]]:
        out: Dict[str, Union[int, float]] = {
            name: getattr(self, name) for name in BUILTIN_COUNTERS
        }
        out["pe_utilization"] = self.pe_utilization
        return out

    def __repr__(self) -> str:
        return (
            f"PerfCounters(cycles={self.cycles}, macs={self.macs},"
            f" util={self.pe_utilization:.3f})"
        )
