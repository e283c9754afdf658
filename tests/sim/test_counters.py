"""Unit tests for the shared performance counters."""

import pickle

import numpy as np
import pytest

from repro.sim.counters import BUILTIN_COUNTERS, PerfCounters


class TestPerfCounters:
    def test_utilization(self):
        counters = PerfCounters()
        counters.pe_busy_cycles = 30
        counters.pe_idle_cycles = 70
        assert counters.pe_utilization == pytest.approx(0.3)

    def test_utilization_empty(self):
        assert PerfCounters().pe_utilization == 0.0

    def test_throughput(self):
        counters = PerfCounters()
        counters.macs = 200
        counters.cycles = 50
        assert counters.throughput_macs_per_cycle() == pytest.approx(4.0)

    def test_throughput_no_cycles(self):
        assert PerfCounters().throughput_macs_per_cycle() == 0.0

    def test_as_dict_holds_the_builtins_and_utilization(self):
        counters = PerfCounters()
        counters.macs = 7
        snapshot = counters.as_dict()
        assert list(snapshot) == [*BUILTIN_COUNTERS, "pe_utilization"]
        assert snapshot["macs"] == 7

    def test_custom_counters(self):
        """There are none: a name outside the built-ins is refused."""
        counters = PerfCounters()
        with pytest.raises(AttributeError):
            counters.spills = 1

    def test_as_dict_values_are_ints_except_utilization(self):
        counters = PerfCounters()
        counters.pe_busy_cycles = 3
        counters.pe_idle_cycles = 1
        snapshot = counters.as_dict()
        for name, value in snapshot.items():
            if name == "pe_utilization":
                assert isinstance(value, float)
            else:
                assert isinstance(value, int)

    def test_assignments_are_coerced_to_int(self):
        counters = PerfCounters()
        counters.macs += np.int64(4)
        counters.cycles = 2.0
        assert type(counters.macs) is int and counters.macs == 4
        assert type(counters.cycles) is int and counters.cycles == 2

    def test_pickle_round_trip(self):
        counters = PerfCounters()
        counters.dram_bytes = 64
        assert pickle.loads(pickle.dumps(counters)).as_dict() == counters.as_dict()
