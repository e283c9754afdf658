"""Tests for the memory-buffer simulator (Figures 12-13)."""

import numpy as np
import pytest

from repro.core.memspec import (
    HardcodedParams,
    bitvector_matrix_buffer,
    block_crs_buffer,
    csr_buffer,
    dense_matrix_buffer,
    linked_list_buffer,
)
from repro.sim.membuf import MemBufSim


@pytest.fixture
def dense_buf():
    return MemBufSim(dense_matrix_buffer("A", 4, 4))


@pytest.fixture
def sparse_matrix(rng):
    return (rng.random((4, 4)) < 0.5) * rng.integers(1, 9, (4, 4))


class TestLoadAndRead:
    def test_dense_roundtrip(self, dense_buf, rng):
        data = rng.integers(0, 9, (4, 4))
        dense_buf.load(data)
        for r in range(4):
            for c in range(4):
                value, _ = dense_buf.read_element((r, c))
                assert value == data[r, c]

    def test_csr_roundtrip(self, sparse_matrix):
        buf = MemBufSim(csr_buffer("B", rows=4))
        buf.load(sparse_matrix)
        for r in range(4):
            for c in range(4):
                value, _ = buf.read_element((r, c))
                assert value == sparse_matrix[r, c]

    def test_bitvector_roundtrip(self, sparse_matrix):
        buf = MemBufSim(bitvector_matrix_buffer("V", rows=4))
        buf.load(sparse_matrix)
        assert np.allclose(buf.tensor.to_dense(), sparse_matrix)

    def test_linked_list_roundtrip(self, sparse_matrix):
        buf = MemBufSim(linked_list_buffer("L", rows=4))
        buf.load(sparse_matrix)
        assert np.allclose(buf.tensor.to_dense(), sparse_matrix)

    def test_empty_read_rejected(self, dense_buf):
        with pytest.raises(RuntimeError):
            dense_buf.read_element((0, 0))

    def test_capacity_enforced(self, rng):
        buf = MemBufSim(dense_matrix_buffer("A", 64, 64, capacity_bytes=64))
        with pytest.raises(ValueError):
            buf.load(rng.integers(1, 5, (64, 64)))


class TestTiming:
    def test_dense_access_latency(self, dense_buf, rng):
        dense_buf.load(rng.integers(0, 9, (4, 4)), start_cycle=0)
        start = dense_buf.busy_until
        _, done = dense_buf.read_element((0, 0), start_cycle=start)
        # Two dense stages + data SRAM read.
        assert done == start + 3

    def test_compressed_latency_higher(self, sparse_matrix):
        dense = MemBufSim(dense_matrix_buffer("A", 4, 4))
        sparse = MemBufSim(csr_buffer("B", rows=4))
        assert sparse.spec.access_latency() > dense.spec.access_latency()

    def test_stream_read_pipelines(self, dense_buf, rng):
        dense_buf.load(rng.integers(0, 9, (4, 4)))
        start = dense_buf.busy_until
        done = dense_buf.stream_read(16, start_cycle=start)
        # Pipelined: latency + n - 1.
        assert done == start + dense_buf.spec.access_latency() + 15

    def test_linked_list_stalls_per_element(self, sparse_matrix):
        ll = MemBufSim(linked_list_buffer("L", rows=4))
        ll.load(sparse_matrix)
        csr = MemBufSim(csr_buffer("B", rows=4))
        csr.load(sparse_matrix)
        ll_start, csr_start = ll.busy_until, csr.busy_until
        ll_done = ll.stream_read(16, start_cycle=ll_start)
        csr_done = csr.stream_read(16, start_cycle=csr_start)
        assert (ll_done - ll_start) > (csr_done - csr_start)

    def test_stream_of_zero(self, dense_buf, rng):
        dense_buf.load(rng.integers(0, 9, (4, 4)))
        assert dense_buf.stream_read(0, start_cycle=99) == 99

    def test_32x32_tile_stream_vs_scalar_cycles(self):
        """Modeled-hardware pin: one 32x32 dense tile read element by
        element costs 4098 cycles, pipelined as one stream 2052 (2.0x),
        and the scalar reads return the loaded values."""
        array = np.arange(32 * 32).reshape(32, 32) + 1
        scalar = MemBufSim(dense_matrix_buffer("tile", 32, 32))
        scalar.load(array)
        cycle, values = scalar.busy_until, []
        for r in range(32):
            for c in range(32):
                value, cycle = scalar.read_element((r, c), cycle)
                values.append(value)
        assert values == array.ravel().tolist()
        assert cycle == 4098

        stream = MemBufSim(dense_matrix_buffer("tile", 32, 32))
        stream.load(array)
        assert stream.stream_read(32 * 32, stream.busy_until) == 2052


class TestEmissionOrders:
    def test_wavefront_emission(self, rng):
        spec = dense_matrix_buffer(
            "A",
            4,
            4,
            hardcoded_read=HardcodedParams(spans={0: 4, 1: 4}, wavefront=True),
        )
        buf = MemBufSim(spec)
        data = rng.integers(0, 9, (4, 4))
        buf.load(data)
        elements = buf.emit_elements()
        assert elements[0] == ((0, 0), data[0, 0])
        assert [e[0] for e in elements[1:3]] == [(1, 0), (0, 1)]

    def test_no_order_without_hardcoding(self, dense_buf, rng):
        dense_buf.load(rng.integers(0, 9, (4, 4)))
        assert dense_buf.emission_order() is None
        assert dense_buf.emit_elements() is None

    def test_rank_too_low_rejected(self, rng):
        from repro.core.memspec import Dense, MemoryBufferSpec

        vector_buf = MemBufSim(MemoryBufferSpec("X", [Dense(4)]))
        with pytest.raises(ValueError):
            vector_buf.load(rng.integers(0, 2, (2, 2)))

    def test_block_format_accepts_lower_rank(self, rng):
        """Block formats declare four axes but load 2-D matrices; the
        two outer axes describe the block structure (Figure 12)."""
        buf = MemBufSim(block_crs_buffer("W", block_rows=2, capacity_bytes=4096))
        data = np.zeros((8, 8))
        data[0:4, 4:8] = rng.integers(1, 5, (4, 4))
        buf.load(data)
        assert np.allclose(buf.tensor.to_dense(), data)
