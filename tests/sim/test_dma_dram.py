"""Tests for the DRAM and DMA models (the Section VI-C machinery)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.dma import DMASim, TransferDescriptor, pointer_chase_transfers
from repro.sim.dram import DRAMModel


class TestDRAMModel:
    def test_single_request_latency(self):
        dram = DRAMModel(latency=100, bandwidth_bytes=16)
        done = dram.request(0, 16)
        assert done == 101  # latency + 1 transfer cycle

    def test_large_transfer_occupies_bus(self):
        dram = DRAMModel(latency=100, bandwidth_bytes=16)
        done = dram.request(0, 160)
        assert done == 110

    def test_bus_serializes_transfers(self):
        dram = DRAMModel(latency=100, bandwidth_bytes=16)
        first = dram.request(0, 160)
        second = dram.request(1, 160)
        assert second == first + 10  # waits for the bus

    def test_counters(self):
        dram = DRAMModel()
        dram.request(0, 64)
        dram.request(0, 64)
        assert dram.total_requests == 2
        assert dram.total_bytes == 128

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            DRAMModel(latency=0)
        with pytest.raises(ValueError):
            DRAMModel(bandwidth_bytes=0)

    def test_invalid_size_rejected(self):
        with pytest.raises(ValueError):
            DRAMModel().request(0, 0)

    def test_reset(self):
        dram = DRAMModel()
        dram.request(0, 64)
        dram.reset()
        assert dram.total_requests == 0


class TestDMASim:
    def test_independent_transfers_pipeline(self):
        dram = DRAMModel(latency=100, bandwidth_bytes=16)
        dma = DMASim(dram, max_inflight=16)
        transfers = [TransferDescriptor(16) for _ in range(10)]
        result = dma.run(transfers)
        # Latency paid once; transfers stream behind it.
        assert result.total_cycles < 100 + 10 * 4

    def test_inflight_one_serializes(self):
        dram = DRAMModel(latency=100, bandwidth_bytes=16)
        dma = DMASim(dram, max_inflight=1)
        transfers = [TransferDescriptor(16) for _ in range(10)]
        result = dma.run(transfers)
        assert result.total_cycles >= 10 * 100

    def test_dependency_enforced(self):
        dram = DRAMModel(latency=100, bandwidth_bytes=16)
        dma = DMASim(dram, max_inflight=16)
        transfers = [
            TransferDescriptor(8),
            TransferDescriptor(128, dependency=0),
        ]
        result = dma.run(transfers)
        # The dependent transfer cannot issue before cycle ~101.
        assert result.completions[1] > result.completions[0] + 100

    def test_invalid_dependency_rejected(self):
        dma = DMASim(DRAMModel(), max_inflight=4)
        with pytest.raises(ValueError):
            dma.run([TransferDescriptor(8, dependency=5)])

    def test_invalid_inflight_rejected(self):
        with pytest.raises(ValueError):
            DMASim(DRAMModel(), max_inflight=0)

    def test_empty_run(self):
        result = DMASim(DRAMModel(), max_inflight=4).run([])
        assert result.total_cycles == 0

    def test_effective_bandwidth(self):
        dram = DRAMModel(latency=10, bandwidth_bytes=16)
        dma = DMASim(dram, max_inflight=8)
        result = dma.run([TransferDescriptor(160) for _ in range(10)])
        assert 0 < result.effective_bandwidth() <= 16

    @settings(max_examples=20, deadline=None)
    @given(
        sizes=st.lists(st.integers(1, 256), min_size=1, max_size=40),
        lo=st.integers(1, 4),
        hi=st.integers(8, 32),
    )
    def test_property_more_inflight_never_slower(self, sizes, lo, hi):
        """Raising the in-flight limit can only help (the Section VI-C fix
        is monotone)."""
        transfers = [TransferDescriptor(s) for s in sizes]
        slow = DMASim(DRAMModel(latency=50), max_inflight=lo).run(list(transfers))
        fast = DMASim(DRAMModel(latency=50), max_inflight=hi).run(list(transfers))
        assert fast.total_cycles <= slow.total_cycles


class TestPointerChase:
    def test_transfer_structure(self):
        transfers = pointer_chase_transfers(vector_count=5, vector_bytes=128)
        assert len(transfers) == 10
        assert transfers[0].is_pointer
        assert transfers[1].dependency == 0
        assert transfers[3].dependency == 2

    def test_pointer_chasing_dominated_by_latency(self):
        """Section VI-C: pointers are <10% of traffic but dominate time at
        low in-flight limits."""
        transfers = pointer_chase_transfers(vector_count=50, vector_bytes=128)
        pointer_bytes = sum(t.size_bytes for t in transfers if t.is_pointer)
        total_bytes = sum(t.size_bytes for t in transfers)
        assert pointer_bytes / total_bytes < 0.10

        dram_slow = DRAMModel(latency=100, bandwidth_bytes=16)
        slow = DMASim(dram_slow, max_inflight=1).run(transfers)
        dram_fast = DRAMModel(latency=100, bandwidth_bytes=16)
        fast = DMASim(dram_fast, max_inflight=16).run(transfers)
        assert slow.total_cycles > 2 * fast.total_cycles

    def test_bandwidth_unchanged_between_configs(self):
        """The paper's fix adds in-flight requests *without changing total
        DRAM bandwidth* -- both configs share the same DRAM model."""
        d1 = DRAMModel(latency=100, bandwidth_bytes=16)
        d2 = DRAMModel(latency=100, bandwidth_bytes=16)
        assert d1.bandwidth_bytes == d2.bandwidth_bytes

    def test_64_vector_chase_deep_vs_shallow_cycles(self):
        """Modeled-hardware pin (Section VI-C): 64 x 64 B pointer chase
        on the default DRAM takes 13120 cycles 1-deep and 1084 cycles
        16-deep (12.1x), moving the same bytes."""
        transfers = pointer_chase_transfers(vector_count=64, vector_bytes=64)
        shallow = DMASim(DRAMModel(), max_inflight=1).run(transfers)
        deep = DMASim(DRAMModel(), max_inflight=16).run(transfers)
        assert shallow.total_cycles == 13120
        assert deep.total_cycles == 1084
        assert shallow.bytes_moved == deep.bytes_moved
