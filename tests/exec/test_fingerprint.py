"""Tests for canonical content fingerprinting."""

import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from repro.core import Bounds, matmul_spec
from repro.core.balancing import row_shift_scheme
from repro.core.dataflow import hexagonal, output_stationary
from repro.core.sparsity import csr_b_matrix
from repro.exec.fingerprint import FingerprintError, fingerprint


class TestPrimitives:
    def test_type_tags_distinguish_equal_values(self):
        assert fingerprint(1) != fingerprint(1.0)
        assert fingerprint(1) != fingerprint(True)
        assert fingerprint("1") != fingerprint(1)
        assert fingerprint(b"x") != fingerprint("x")

    def test_container_kind_matters(self):
        assert fingerprint((1, 2)) != fingerprint([1, 2])
        assert fingerprint({1, 2}) != fingerprint((1, 2))

    def test_multiple_args_hash_as_tuple(self):
        assert fingerprint(1, 2) == fingerprint((1, 2))

    def test_fraction(self):
        assert fingerprint(Fraction(1, 2)) == fingerprint(Fraction(2, 4))
        assert fingerprint(Fraction(1, 2)) != fingerprint(0.5)


class TestCanonicalOrder:
    def test_dict_insertion_order_is_irrelevant(self):
        assert fingerprint({"a": 1, "b": 2}) == fingerprint({"b": 2, "a": 1})

    def test_set_iteration_order_is_irrelevant(self):
        # Strings are the hash-randomized case: iteration order differs
        # between processes but the fingerprint must not.
        assert fingerprint({"x", "y", "zz"}) == fingerprint({"zz", "y", "x"})

    def test_stable_across_processes(self):
        import os

        code = (
            "from repro.exec.fingerprint import fingerprint;"
            "from repro.core import matmul_spec;"
            "print(fingerprint({'x', 'y', 'zz'}), fingerprint(matmul_spec()))"
        )
        runs = set()
        for seed in ("1", "2"):
            env = dict(os.environ)
            env["PYTHONPATH"] = "src"
            env["PYTHONHASHSEED"] = seed
            runs.add(
                subprocess.run(
                    [sys.executable, "-c", code],
                    capture_output=True, text=True, check=True, env=env,
                ).stdout
            )
        assert len(runs) == 1

    def test_numpy_arrays_hash_contents(self):
        a = np.arange(6).reshape(2, 3)
        assert fingerprint(a) == fingerprint(a.copy())
        assert fingerprint(a) != fingerprint(a.T.copy())  # shape matters
        assert fingerprint(a) != fingerprint(a.astype(np.float64))
        # Non-contiguous views hash like their contiguous copies.
        assert fingerprint(a.T) == fingerprint(np.ascontiguousarray(a.T))


class TestDesignAxes:
    def test_structurally_equal_specs_match(self):
        assert fingerprint(matmul_spec()) == fingerprint(matmul_spec())

    def test_each_axis_changes_the_key(self):
        spec = matmul_spec()
        base = (spec, Bounds({"i": 4, "j": 4, "k": 4}), output_stationary())
        assert fingerprint(base) == fingerprint(
            (matmul_spec(), Bounds({"i": 4, "j": 4, "k": 4}), output_stationary())
        )
        assert fingerprint(base) != fingerprint(
            (spec, Bounds({"i": 8, "j": 4, "k": 4}), output_stationary())
        )
        assert fingerprint(base) != fingerprint(
            (spec, Bounds({"i": 4, "j": 4, "k": 4}), hexagonal())
        )

    def test_sparsity_and_balancing(self):
        spec = matmul_spec()
        assert fingerprint(csr_b_matrix(spec)) == fingerprint(csr_b_matrix(spec))
        assert fingerprint(row_shift_scheme(2)) != fingerprint(row_shift_scheme(3))

    def test_cycles_encode_as_backreferences(self):
        a = {"name": "a"}
        a["self"] = a
        b = {"name": "a"}
        b["self"] = b
        assert fingerprint(a) == fingerprint(b)


class TestGoldenDigests:
    """Pinned digests guard cross-process / cross-version stability.

    The persistent :class:`~repro.exec.store.DiskStore` addresses entries
    by these digests, so any drift silently orphans every cache on every
    machine.  If an intentional canonicalization change breaks one of
    these pins, bump ``FINGERPRINT_VERSION`` (which retires old store
    entries cleanly) and re-pin.
    """

    GOLDEN = {
        "spec": "8217f79dc349c1bffc6cbd9f366f1dc16e57d4c5984ddd141e8eb24ca36c1339",
        "bounds": "c29b70bdc10b1cc2aa4695a7acd56dfa3639bfbe0840f9f50390053215f555e0",
        "transform": "ce4e157292d57d11599c0fad1fb5ef6c7b081fb966463083b551b5b5d2fcfc0f",
        "sparsity": "63ff8f42d05baab12273190f7820e9f6c7c7369c5219eab1146fef2c5cf3e9f4",
        "balancing": "fc3605f0e9c1e8ca987b444e953e113125fa588f9cefa02aea453635f59bc733",
        "tensors": "87742e27573e712dce4a77f7fa08e52885445d0d76905324e8db59e4b670f498",
        "key": "979129e40af1602fd83d7b1a78f50476b070adb23aacea73bf1734c7095baa25",
        "prims": "912fdc0dc1eba334378972d6075875e7f503250c0e76526a815472f638c60970",
    }

    def test_fingerprint_version_is_pinned(self):
        from repro.exec.fingerprint import FINGERPRINT_VERSION

        assert FINGERPRINT_VERSION == 1

    def test_design_axis_digests(self):
        spec = matmul_spec()
        assert fingerprint(spec) == self.GOLDEN["spec"]
        assert fingerprint(Bounds({"i": 4, "j": 4, "k": 4})) == self.GOLDEN["bounds"]
        assert fingerprint(output_stationary()) == self.GOLDEN["transform"]
        assert fingerprint(csr_b_matrix(spec)) == self.GOLDEN["sparsity"]
        assert fingerprint(row_shift_scheme(2)) == self.GOLDEN["balancing"]

    def test_tensor_and_composite_digests(self):
        tensors = {
            "A": np.arange(16, dtype=np.int64).reshape(4, 4),
            "B": np.eye(4, dtype=np.int64),
        }
        assert fingerprint(tensors) == self.GOLDEN["tensors"]
        key = fingerprint(
            (matmul_spec(), Bounds({"i": 4, "j": 4, "k": 4}), output_stationary())
        )
        assert key == self.GOLDEN["key"]

    def test_primitive_digests(self):
        assert fingerprint((None, True, 1, 1.5, "x", b"y")) == self.GOLDEN["prims"]


class TestBehaviorRejection:
    def test_functions_are_uncacheable(self):
        with pytest.raises(FingerprintError):
            fingerprint(lambda x: x)
        with pytest.raises(FingerprintError):
            fingerprint(len)

    def test_classes_and_modules_are_uncacheable(self):
        with pytest.raises(FingerprintError):
            fingerprint(np)
        with pytest.raises(FingerprintError):
            fingerprint(Bounds)

