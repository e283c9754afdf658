"""Tests for the shared-memory operand transport."""

import numpy as np
import pytest

from repro.exec import engine
from repro.exec.shm import (
    SharedTensorPool,
    release_attached,
    shared_memory_available,
)

pytestmark = pytest.mark.skipif(
    not shared_memory_available(), reason="no shared_memory on this platform"
)


@pytest.fixture
def pool():
    pool = SharedTensorPool()
    yield pool
    pool.close()
    release_attached()


class TestRoundTrip:
    def test_publish_attach_preserves_contents(self, pool):
        tensors = {
            "A": np.arange(24, dtype=np.int64).reshape(4, 6),
            "B": np.linspace(0.0, 1.0, 10, dtype=np.float32),
        }
        attached = SharedTensorPool.attach(pool.publish(tensors))
        assert set(attached) == {"A", "B"}
        for name in tensors:
            np.testing.assert_array_equal(attached[name], tensors[name])
            assert attached[name].dtype == tensors[name].dtype

    def test_attached_views_are_read_only(self, pool):
        attached = SharedTensorPool.attach(pool.publish({"A": np.ones(3)}))
        with pytest.raises(ValueError):
            attached["A"][0] = 5.0

    def test_publish_copies_so_later_mutation_is_invisible(self, pool):
        source = np.zeros(4, dtype=np.int64)
        handles = pool.publish({"A": source})
        source[:] = 9
        np.testing.assert_array_equal(
            SharedTensorPool.attach(handles)["A"], np.zeros(4, dtype=np.int64)
        )

    def test_non_contiguous_arrays_publish(self, pool):
        base = np.arange(16, dtype=np.int32).reshape(4, 4)
        attached = SharedTensorPool.attach(pool.publish({"T": base.T}))
        np.testing.assert_array_equal(attached["T"], base.T)

    def test_zero_size_arrays_ship_as_empty_handles(self, pool):
        handles = pool.publish({"E": np.empty((0, 3), dtype=np.float64)})
        segment_name, dtype, shape = handles["E"]
        assert segment_name == "" and shape == (0, 3)
        attached = SharedTensorPool.attach(handles)
        assert attached["E"].shape == (0, 3)
        assert attached["E"].dtype == np.float64
        assert not attached["E"].flags.writeable

    def test_table_round_trip(self, pool):
        table = {
            "case0": {"A": np.arange(4)},
            "case1": {"A": np.arange(4) * 2, "B": np.eye(2)},
        }
        attached = SharedTensorPool.attach_table(pool.publish_table(table))
        assert set(attached) == {"case0", "case1"}
        np.testing.assert_array_equal(attached["case1"]["A"], table["case1"]["A"])
        np.testing.assert_array_equal(attached["case1"]["B"], table["case1"]["B"])


class TestLifecycle:
    def test_nbytes_accounts_published_segments(self, pool):
        assert pool.nbytes == 0
        pool.publish({"A": np.zeros(1024, dtype=np.uint8)})
        assert pool.nbytes >= 1024

    def test_close_is_idempotent(self, pool):
        pool.publish({"A": np.zeros(8)})
        pool.close()
        pool.close()
        assert pool.nbytes == 0

    def test_context_manager_closes(self):
        with SharedTensorPool() as pool:
            handles = pool.publish({"A": np.arange(6, dtype=np.int16)})
            attached = SharedTensorPool.attach(handles)
            np.testing.assert_array_equal(attached["A"], np.arange(6, dtype=np.int16))
        release_attached()
        # The segment was unlinked on close: a fresh attach must fail.
        from multiprocessing import shared_memory

        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=handles["A"][0])


class TestDetachAdopt:
    def test_adopt_copies_and_unlinks(self):
        from multiprocessing import shared_memory

        from repro.exec.shm import adopt

        pool = SharedTensorPool()
        tensors = {
            "C": np.arange(64, dtype=np.int64).reshape(8, 8),
            "empty": np.empty((0, 3), dtype=np.float32),
        }
        handles = pool.publish(tensors)
        pool.detach()  # ownership passes to the adopter
        adopted = adopt(handles)
        for name in tensors:
            np.testing.assert_array_equal(adopted[name], tensors[name])
            assert adopted[name].dtype == tensors[name].dtype
        # Adoption unlinked every segment: reattach must fail.
        for segment_name, _dtype, _shape in handles.values():
            if segment_name:
                with pytest.raises(FileNotFoundError):
                    shared_memory.SharedMemory(name=segment_name)

    def test_adopted_arrays_outlive_the_segment(self):
        from repro.exec.shm import adopt

        pool = SharedTensorPool()
        handles = pool.publish({"X": np.ones((16, 16))})
        pool.detach()
        adopted = adopt(handles)
        adopted["X"][0, 0] = 42.0  # a private copy, safely writable
        assert adopted["X"][0, 0] == 42.0

    def test_detach_then_close_is_safe(self, pool):
        pool.publish({"Y": np.arange(8)})
        pool.detach()
        pool.close()  # idempotent no-op after detach


class TestResultTransport:
    """Worker -> parent result payloads ride shared memory when bulky."""

    def run_sweep(self, jobs):
        from repro.core import Bounds, matmul_spec
        from repro.core.balancing import LoadBalancingScheme
        from repro.core.dataflow import output_stationary
        from repro.core.sparsity import SparsityStructure
        from repro.exec.engine import evaluate_sweep

        rng = np.random.default_rng(3)
        n = 4
        spec = matmul_spec()
        candidates = [
            {
                "name": f"p{i}",
                "transform_name": "output-stationary",
                "transform": output_stationary(),
                "sparsity_name": "dense",
                "sparsity": SparsityStructure(),
                "balancing_name": "none",
                "balancing": LoadBalancingScheme(),
                "bounds": Bounds({"i": n, "j": n, "k": n}),
                "want_outputs": True,
                "want_digest": True,
            }
            for i in range(3)
        ]
        outcomes, _report = evaluate_sweep(
            spec,
            Bounds({"i": n, "j": n, "k": n}),
            {"A": rng.integers(1, 5, (n, n)), "B": rng.integers(1, 5, (n, n))},
            candidates,
            jobs=jobs,
        )
        return outcomes

    def test_outputs_ride_shm_byte_identically(self, monkeypatch):
        serial = self.run_sweep(jobs=1)
        # Force even tiny outputs through the shm path.
        monkeypatch.setattr(engine, "RESULT_SHM_MIN_BYTES", 1)
        parallel = self.run_sweep(jobs=2)
        assert len(serial) == len(parallel) == 3
        for s, p in zip(serial, parallel):
            assert set(s["outputs"]) == set(p["outputs"])
            for name in s["outputs"]:
                np.testing.assert_array_equal(
                    s["outputs"][name], p["outputs"][name]
                )
            assert s["output_digest"] == p["output_digest"]

    def test_inline_path_below_threshold(self, monkeypatch):
        monkeypatch.setattr(engine, "RESULT_SHM_MIN_BYTES", 1 << 30)
        parallel = self.run_sweep(jobs=2)
        serial = self.run_sweep(jobs=1)
        for s, p in zip(serial, parallel):
            for name in s["outputs"]:
                np.testing.assert_array_equal(
                    s["outputs"][name], p["outputs"][name]
                )

    def test_no_leaked_segments(self, monkeypatch):
        import glob

        monkeypatch.setattr(engine, "RESULT_SHM_MIN_BYTES", 1)
        before = set(glob.glob("/dev/shm/stellar_*"))
        self.run_sweep(jobs=2)
        after = set(glob.glob("/dev/shm/stellar_*"))
        assert after <= before
