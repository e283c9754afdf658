"""Cache-aware ``repro check``: memoized legality analysis shared with
the compiler's gate, including across processes via the disk store."""

import pytest

import repro.analysis.spec as spec_module
from repro.analysis import check_design
from repro.core import Accelerator, Bounds, compile_design, matmul_spec
from repro.core.dataflow import output_stationary
from repro.exec.cache import CompileCache
from repro.exec.store import DiskStore


@pytest.fixture
def accelerator():
    return Accelerator(
        spec=matmul_spec(),
        bounds=Bounds({"i": 4, "j": 4, "k": 4}),
        transform=output_stationary(),
    )


@pytest.fixture
def transform_check_calls(monkeypatch):
    """Count invocations of the expensive domain-enumeration half."""
    calls = []
    original = spec_module.check_spec_transform

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(spec_module, "check_spec_transform", counting)
    return calls


def test_repeat_checks_share_one_enumeration(accelerator, transform_check_calls):
    cache = CompileCache()
    assert check_design(accelerator, cache=cache).clean
    assert check_design(accelerator, cache=cache).clean
    assert len(transform_check_calls) == 1
    hits, misses = cache.stats.by_stage["analysis.spec"]
    assert (hits, misses) == (1, 1)


def test_check_reuses_compile_gate_entries(accelerator, transform_check_calls):
    """The compiler's legality gate and ``repro check`` share the
    ``analysis.spec`` stage key, so either warms the other."""
    cache = CompileCache()
    compile_design(
        accelerator.spec, accelerator.bounds, accelerator.transform, cache=cache
    )
    enumerations_after_compile = len(transform_check_calls)
    assert check_design(accelerator, cache=cache).clean
    assert len(transform_check_calls) == enumerations_after_compile


def test_persistent_cache_skips_enumeration_across_handles(
    accelerator, transform_check_calls, tmp_path
):
    root = str(tmp_path / "store")
    assert check_design(accelerator, cache=CompileCache(store=DiskStore(root))).clean
    cold_enumerations = len(transform_check_calls)
    assert cold_enumerations >= 1

    warm_cache = CompileCache(store=DiskStore(root))
    assert check_design(accelerator, cache=warm_cache).clean
    assert len(transform_check_calls) == cold_enumerations
    assert warm_cache.stats.disk_hits >= 1


def test_uncached_check_still_works(accelerator, transform_check_calls):
    assert check_design(accelerator).clean
    assert check_design(accelerator).clean
    assert len(transform_check_calls) == 2
