"""Tests for the content-addressed compile cache."""

import pytest

from repro.core import Bounds, matmul_spec
from repro.core.compiler import compile_design
from repro.core.dataflow import output_stationary
from repro.core.sparsity import csr_b_matrix
from repro.exec.cache import CompileCache, persistent_compile_cache
from repro.exec.store import DiskStore


@pytest.fixture
def design_axes():
    spec = matmul_spec()
    return spec, Bounds({"i": 4, "j": 4, "k": 4}), output_stationary()


class TestMemo:
    def test_build_runs_once_per_key(self):
        cache = CompileCache()
        calls = []
        for _ in range(3):
            value = cache.memo("stage", (1, "a"), lambda: calls.append(1) or 42)
        assert value == 42
        assert calls == [1]
        assert cache.stats.hits == 2 and cache.stats.misses == 1

    def test_falsy_values_are_cached(self):
        cache = CompileCache()
        calls = []
        for _ in range(2):
            value = cache.memo("stage", ("k",), lambda: calls.append(1) or [])
        assert value == []
        assert calls == [1]

    def test_distinct_stages_do_not_collide(self):
        cache = CompileCache()
        a = cache.memo("s1", (1,), lambda: "a")
        b = cache.memo("s2", (1,), lambda: "b")
        assert (a, b) == ("a", "b")

    def test_unfingerprintable_parts_bypass(self):
        cache = CompileCache()
        calls = []
        for _ in range(2):
            cache.memo("stage", (lambda: 0,), lambda: calls.append(1))
        assert len(calls) == 2
        assert cache.stats.uncacheable == 2
        assert len(cache) == 0

    def test_lru_eviction(self):
        cache = CompileCache(max_entries=2)
        cache.memo("s", (1,), lambda: 1)
        cache.memo("s", (2,), lambda: 2)
        cache.memo("s", (1,), lambda: 1)  # refresh 1
        cache.memo("s", (3,), lambda: 3)  # evicts 2
        calls = []
        cache.memo("s", (2,), lambda: calls.append(1) or 2)
        assert calls == [1]

    def test_hit_refreshes_recency(self):
        """Regression: a hit must move the entry to the LRU tail, or a
        hot entry inserted early gets evicted while cold entries live."""
        cache = CompileCache(max_entries=3)
        cache.memo("s", (1,), lambda: "hot")
        cache.memo("s", (2,), lambda: 2)
        cache.memo("s", (3,), lambda: 3)
        cache.memo("s", (1,), lambda: "hot")  # hit: bump recency
        cache.memo("s", (4,), lambda: 4)  # evicts 2, NOT the hot entry
        rebuilt = []
        cache.memo("s", (1,), lambda: rebuilt.append(1) or "rebuilt")
        assert rebuilt == []

    def test_fingerprint_memo_refreshes_recency(self):
        """Same regression for the identity->fingerprint memo: re-keying
        with a hot object must not let it age out."""
        cache = CompileCache(max_entries=2)
        hot = Bounds({"i": 4, "j": 4, "k": 4})
        cache.fingerprint_of(hot)
        cache.fingerprint_of(Bounds({"i": 8, "j": 8, "k": 8}))
        cache.fingerprint_of(hot)  # bump
        cache.fingerprint_of(Bounds({"i": 2, "j": 2, "k": 2}))  # evicts the 8s
        assert cache._fp_memo[id(hot)][0] is hot


class TestCompileFacade:
    def test_hit_returns_shared_design(self, design_axes):
        spec, bounds, transform = design_axes
        cache = CompileCache()
        first = cache.compile(spec, bounds, transform)
        second = cache.compile(spec, bounds, transform)
        assert first is second
        assert cache.stats.by_stage["compile"] == (1, 1)

    def test_structurally_equal_keys_hit(self, design_axes):
        spec, bounds, transform = design_axes
        cache = CompileCache()
        first = cache.compile(spec, bounds, transform)
        second = cache.compile(matmul_spec(), Bounds({"i": 4, "j": 4, "k": 4}),
                               output_stationary())
        assert first is second

    def test_axis_mutation_misses(self, design_axes):
        """Changing bounds or element_bits must invalidate the key."""
        spec, bounds, transform = design_axes
        cache = CompileCache()
        base = cache.compile(spec, bounds, transform)
        other_bounds = cache.compile(
            spec, Bounds({"i": 8, "j": 8, "k": 8}), transform
        )
        other_bits = cache.compile(spec, bounds, transform, element_bits=16)
        assert base is not other_bounds
        assert base is not other_bits
        assert other_bits.element_bits == 16
        hits, misses = cache.stats.by_stage["compile"]
        assert (hits, misses) == (0, 3)

    def test_sparsity_axis_changes_key(self, design_axes):
        spec, bounds, transform = design_axes
        cache = CompileCache()
        dense = cache.compile(spec, bounds, transform)
        sparse = cache.compile(spec, bounds, transform, sparsity=csr_b_matrix(spec))
        assert dense is not sparse
        # Elaboration depends only on (spec, bounds): shared across axes.
        assert cache.stats.by_stage["compile.elaborate"] == (1, 1)

    def test_matches_uncached_compile(self, design_axes):
        spec, bounds, transform = design_axes
        cached = CompileCache().compile(spec, bounds, transform)
        plain = compile_design(spec, bounds, transform)
        assert cached.pe_count == plain.pe_count
        assert cached.array.schedule_length == plain.array.schedule_length
        assert sorted(cached.regfile_plans) == sorted(plain.regfile_plans)

    def test_lower_facade_hits(self, design_axes):
        spec, bounds, transform = design_axes
        cache = CompileCache()
        design = cache.compile(spec, bounds, transform)
        first = cache.lower(design)
        second = cache.lower(design)
        assert first is second

    def test_lower_opt_levels_never_share_entries(self, design_axes):
        spec, bounds, transform = design_axes
        cache = CompileCache()
        design = cache.compile(spec, bounds, transform)
        plain = cache.lower(design)
        optimized = cache.lower(design, opt_level=2)
        assert plain is not optimized
        assert plain.opt_level == 0
        assert optimized.opt_level == 2
        # Each rung hits its own entry on repeat.
        assert cache.lower(design) is plain
        assert cache.lower(design, opt_level=2) is optimized

    def test_lower_key_tracks_pass_pipeline_version(self, design_axes):
        # The fingerprint axis exists only for optimized rungs: opt_level 0
        # netlists never ran the pipeline, so its version must not churn
        # their cache entries.
        import repro.rtl.passes as passes_mod

        spec, bounds, transform = design_axes
        cache = CompileCache()
        design = cache.compile(spec, bounds, transform)
        plain = cache.lower(design)
        optimized = cache.lower(design, opt_level=2)
        original = passes_mod.PASS_PIPELINE_VERSION
        passes_mod.PASS_PIPELINE_VERSION = original + 1
        try:
            assert cache.lower(design) is plain
            assert cache.lower(design, opt_level=2) is not optimized
        finally:
            passes_mod.PASS_PIPELINE_VERSION = original


class TestDiskTier:
    """The disk tier behind ``memo``, exercised on ``dse.point``, one of
    the ``PERSISTED_STAGES``."""

    def test_fresh_cache_same_root_hits_disk(self, tmp_path):
        root = str(tmp_path / "store")
        built = []
        first = CompileCache(store=DiskStore(root))
        first.memo("dse.point", (1, "a"), lambda: built.append(1) or {"v": 42})

        second = CompileCache(store=DiskStore(root))
        value = second.memo("dse.point", (1, "a"), lambda: built.append(1) or None)
        assert value == {"v": 42}
        assert built == [1]  # rebuilt zero times in the second process
        assert second.stats.disk_hits == 1
        assert second.stats.hits == 1
        assert second.registry.counter("exec.cache.disk_hits").value == 1

    def test_disk_hit_promotes_to_memory(self, tmp_path):
        root = str(tmp_path / "store")
        CompileCache(store=DiskStore(root)).memo("dse.point", (1,), lambda: "x")
        cache = CompileCache(store=DiskStore(root))
        cache.memo("dse.point", (1,), lambda: "x")
        cache.memo("dse.point", (1,), lambda: "x")
        assert cache.stats.disk_hits == 1  # second hit came from memory
        assert cache.store.stats.hits == 1

    def test_memory_hit_does_not_touch_disk(self, tmp_path):
        cache = CompileCache(store=DiskStore(str(tmp_path)))
        cache.memo("dse.point", (1,), lambda: "x")
        lookups_after_build = cache.store.stats.lookups
        cache.memo("dse.point", (1,), lambda: "x")
        assert cache.store.stats.lookups == lookups_after_build

    def test_unfingerprintable_bypasses_disk(self, tmp_path):
        cache = CompileCache(store=DiskStore(str(tmp_path)))
        cache.memo("dse.point", (lambda: 0,), lambda: "value")
        assert cache.stats.uncacheable == 1
        assert cache.store.stats.lookups == 0
        assert cache.store.stats.writes == 0

    def test_compile_products_persist(self, tmp_path, design_axes):
        spec, bounds, transform = design_axes
        root = str(tmp_path / "store")
        cold = CompileCache(store=DiskStore(root))
        first = cold.compile(spec, bounds, transform)

        warm = CompileCache(store=DiskStore(root))
        second = warm.compile(matmul_spec(), Bounds({"i": 4, "j": 4, "k": 4}),
                              output_stationary())
        assert warm.stats.disk_hits >= 1
        assert second.pe_count == first.pe_count
        assert second.array.schedule_length == first.array.schedule_length

    def test_persistent_compile_cache_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("STELLAR_CACHE_DIR", str(tmp_path / "env-root"))
        cache = persistent_compile_cache()
        assert cache.store is not None
        assert cache.store.root == str(tmp_path / "env-root")
        monkeypatch.setenv("STELLAR_CACHE_DIR", "off")
        assert persistent_compile_cache().store is None


def test_stats_dict_shape():
    cache = CompileCache()
    cache.memo("s", (1,), lambda: 1)
    cache.memo("s", (1,), lambda: 1)
    d = cache.stats.as_dict()
    assert d["hits"] == 1 and d["misses"] == 1
    assert d["by_stage"]["s"] == {"hits": 1, "misses": 1}
    assert cache.registry.counter("exec.cache.hits").value == 1
