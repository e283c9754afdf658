"""Tests for the disk-backed cache tier."""

import json
import os

import numpy as np
import pytest

from repro.exec.store import (
    MAGIC,
    DiskStore,
    DiskStoreStats,
    StoreConfigError,
    default_cache_dir,
)


@pytest.fixture
def store(tmp_path):
    return DiskStore(str(tmp_path / "cache"), max_bytes=1 << 20)


KEY = "ab" + "cd" * 31  # shaped like a sha256 hex digest


class TestRoundTrip:
    def test_miss_on_empty_store(self, store):
        hit, value = store.get("stage", KEY)
        assert (hit, value) == (False, None)
        assert store.stats.misses == 1

    def test_pickle_value(self, store):
        assert store.put("stage", KEY, {"cycles": 42, "name": "x"})
        hit, value = store.get("stage", KEY)
        assert hit and value == {"cycles": 42, "name": "x"}
        assert store.stats.hits == 1 and store.stats.writes == 1
        # Every entry is a pickle, so the header names no format.
        assert sorted(_header_of(store, "stage", KEY)) == [
            "fingerprint", "schema", "sha256", "size", "stage",
        ]

    def test_stages_do_not_collide(self, store):
        store.put("s1", KEY, "one")
        store.put("s2", KEY, "two")
        assert store.get("s1", KEY) == (True, "one")
        assert store.get("s2", KEY) == (True, "two")

    def test_second_handle_sees_entries(self, store):
        store.put("stage", KEY, [1, 2, 3])
        other = DiskStore(store.root)
        assert other.get("stage", KEY) == (True, [1, 2, 3])


class TestFailureModes:
    """Every bad entry is a miss; nothing ever raises out of the store."""

    def test_corrupted_payload_is_a_miss(self, store):
        store.put("stage", KEY, {"x": 1})
        path = store.entry_path("stage", KEY)
        raw = bytearray(open(path, "rb").read())
        raw[-1] ^= 0xFF
        open(path, "wb").write(bytes(raw))
        assert store.get("stage", KEY) == (False, None)
        assert store.stats.corrupt == 1
        assert not os.path.exists(path)  # bad entry deleted

    def test_truncated_entry_is_a_miss(self, store):
        store.put("stage", KEY, {"x": 1})
        path = store.entry_path("stage", KEY)
        raw = open(path, "rb").read()
        open(path, "wb").write(raw[: len(raw) // 2])
        assert store.get("stage", KEY) == (False, None)
        assert store.stats.corrupt == 1

    def test_bad_magic_is_a_miss(self, store):
        store.put("stage", KEY, 7)
        path = store.entry_path("stage", KEY)
        open(path, "wb").write(b"NOTSTELLAR" + b"\x00" * 64)
        assert store.get("stage", KEY) == (False, None)

    @pytest.mark.parametrize("field", ["schema", "fingerprint"])
    def test_version_mismatch_is_a_miss(self, store, field):
        store.put("stage", KEY, "value")
        path = store.entry_path("stage", KEY)
        _rewrite_header(path, {field: 999999})
        assert store.get("stage", KEY) == (False, None)
        assert store.stats.corrupt == 1

    def test_stage_mismatch_is_a_miss(self, store):
        # An entry renamed (or hard-linked) across stage directories must
        # not be served under the wrong stage.
        store.put("stage", KEY, "value")
        source = store.entry_path("stage", KEY)
        target = store.entry_path("other", KEY)
        os.makedirs(os.path.dirname(target), exist_ok=True)
        os.rename(source, target)
        assert store.get("other", KEY) == (False, None)

    def test_unpicklable_value_degrades_to_pass_through(self, store):
        assert store.put("stage", KEY, lambda: 0) is False
        assert store.stats.write_failures == 1
        assert store.get("stage", KEY) == (False, None)

    def test_unwritable_root_degrades_to_pass_through(self, store, monkeypatch):
        # Simulate a read-only filesystem (chmod is no barrier when the
        # suite runs as root).
        monkeypatch.setattr(
            os, "makedirs", _raise_oserror, raising=True
        )
        assert store.put("stage", KEY, 1) is False
        assert store.stats.write_failures == 1

    def test_torn_pickle_with_consistent_header_is_a_miss(self, store):
        """A truncated pickle payload whose header still checks out.

        The checksum guards the bytes on disk, not their decodability:
        a torn write that lands a *self-consistent* header over a
        truncated payload (header rewritten during GC-era compaction,
        payload cut mid-copy) passes every ``_validate`` check and only
        fails inside ``pickle.loads``.  That decode failure must be a
        plain corrupt-miss, never an exception out of ``get``.
        """
        import hashlib

        tensors = {"A": np.arange(64, dtype=np.int64).reshape(8, 8)}
        store.put("sim", KEY, tensors)
        path = store.entry_path("sim", KEY)
        raw = open(path, "rb").read()
        rest = raw[len(MAGIC):]
        newline = rest.find(b"\n")
        header = json.loads(rest[:newline].decode())
        torn = rest[newline + 1:][: header["size"] // 2]
        # Re-seal the header over the truncated payload so size and
        # sha256 both validate -- only the unpickling can now fail.
        header["size"] = len(torn)
        header["sha256"] = hashlib.sha256(torn).hexdigest()
        blob = MAGIC + json.dumps(header, sort_keys=True).encode() + b"\n" + torn
        open(path, "wb").write(blob)

        assert store.get("sim", KEY) == (False, None)
        assert store.stats.corrupt == 1
        assert store.stats.misses == 1
        assert store.stats.hits == 0
        assert not os.path.exists(path)  # bad entry deleted

        # The store stays fully usable: rewrite, read back, and GC.
        assert store.put("sim", KEY, tensors)
        hit, value = store.get("sim", KEY)
        assert hit
        np.testing.assert_array_equal(value["A"], tensors["A"])
        assert store.gc() == 0

    def test_torn_pickle_mid_gc_stays_collectable(self, store):
        """A torn entry left on disk never wedges the byte-budget GC."""
        import hashlib

        tensors = {"A": np.ones((16, 16))}
        store.put("sim", KEY, tensors)
        path = store.entry_path("sim", KEY)
        raw = open(path, "rb").read()
        rest = raw[len(MAGIC):]
        newline = rest.find(b"\n")
        header = json.loads(rest[:newline].decode())
        torn = rest[newline + 1:][:16]
        header["size"] = len(torn)
        header["sha256"] = hashlib.sha256(torn).hexdigest()
        open(path, "wb").write(
            MAGIC + json.dumps(header, sort_keys=True).encode() + b"\n" + torn
        )

        # GC sees the torn file as one more LRU entry and evicts it
        # under a budget squeeze instead of choking on its contents.
        store.max_bytes = 1
        assert store.gc() >= 1
        assert not os.path.exists(path)
        assert store.get("sim", KEY) == (False, None)


class TestVersioningAndGC:
    def test_entries_live_under_version_tag(self, store):
        store.put("stage", KEY, 1)
        assert store.entry_path("stage", KEY).startswith(store.version_dir)
        assert store.version_tag in store.entry_path("stage", KEY)

    def test_gc_removes_other_version_directories(self, store):
        store.put("stage", KEY, 1)
        stale = os.path.join(store.root, "v0-fp0", "stage")
        os.makedirs(stale)
        open(os.path.join(stale, "old.entry"), "wb").write(b"x")
        store.gc()
        assert not os.path.exists(os.path.join(store.root, "v0-fp0"))
        assert store.get("stage", KEY)[0]  # live version untouched

    def test_gc_enforces_byte_budget_lru(self, store, tmp_path):
        keys = [f"{i:02d}" + "ee" * 31 for i in range(4)]
        payload = b"z" * 4096
        for index, key in enumerate(keys):
            store.put("stage", key, payload)
            os.utime(store.entry_path("stage", key), (1000 + index, 1000 + index))
        # Re-read the oldest entry: its recency bump must save it.
        os.utime(store.entry_path("stage", keys[0]), (2000, 2000))
        store.max_bytes = 2 * (4096 + 256)
        store.gc()
        assert store.total_bytes() <= store.max_bytes
        assert store.get("stage", keys[0])[0]
        assert not store.get("stage", keys[1])[0]
        assert store.stats.evicted >= 1

    def test_clear_removes_everything(self, store):
        store.put("stage", KEY, 1)
        store.clear()
        assert store.total_bytes() == 0
        assert store.get("stage", KEY) == (False, None)


class TestEnvironment:
    def test_default_cache_dir_fallback(self, monkeypatch):
        monkeypatch.delenv("STELLAR_CACHE_DIR", raising=False)
        assert default_cache_dir().endswith(os.path.join(".cache", "stellar-repro"))

    def test_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv("STELLAR_CACHE_DIR", str(tmp_path))
        assert default_cache_dir() == str(tmp_path)

    @pytest.mark.parametrize("value", ["", "0", "off", "none", " OFF "])
    def test_env_disables_persistence(self, monkeypatch, value):
        monkeypatch.setenv("STELLAR_CACHE_DIR", value)
        assert default_cache_dir() is None
        assert DiskStore.default() is None

    def test_explicit_root_beats_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("STELLAR_CACHE_DIR", "off")
        store = DiskStore.default(str(tmp_path / "explicit"))
        assert store is not None and store.root == str(tmp_path / "explicit")

    def test_max_bytes_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("STELLAR_CACHE_MAX_BYTES", "12345")
        assert DiskStore(str(tmp_path)).max_bytes == 12345

    @pytest.mark.parametrize("value", ["0", "-5", "64MB", ""])
    def test_bad_max_bytes_env_is_a_config_error(self, monkeypatch, tmp_path, value):
        monkeypatch.setenv("STELLAR_CACHE_MAX_BYTES", value)
        with pytest.raises(StoreConfigError, match="STELLAR_CACHE_MAX_BYTES"):
            DiskStore(str(tmp_path))
        assert DiskStore(str(tmp_path), max_bytes=7).max_bytes == 7


class TestStatsPlumbing:
    def test_merge_adds_every_tally(self, store):
        store.put("stage", KEY, 1)
        store.get("stage", KEY)
        store.get("stage", "ef" * 32)
        home = DiskStoreStats()
        home.merge(store.stats)
        home.merge(store.stats)
        assert home.writes == 2 and home.hits == 2 and home.misses == 2
        for name in DiskStoreStats.__slots__:
            assert getattr(home, name) == 2 * getattr(store.stats, name)
        assert home.bytes_written > 0

    def test_spawn_config_reconstructs(self, store):
        twin = DiskStore(**store.spawn_config())
        assert (twin.root, twin.max_bytes) == (store.root, store.max_bytes)


def _raise_oserror(*_args, **_kwargs):
    raise OSError(30, "Read-only file system")


def _header_of(store, stage, key):
    raw = open(store.entry_path(stage, key), "rb").read()
    rest = raw[len(MAGIC):]
    return json.loads(rest[: rest.find(b"\n")].decode())


def _rewrite_header(path, overrides):
    raw = open(path, "rb").read()
    rest = raw[len(MAGIC):]
    newline = rest.find(b"\n")
    header = json.loads(rest[:newline].decode())
    header.update(overrides)
    blob = MAGIC + json.dumps(header, sort_keys=True).encode() + rest[newline:]
    open(path, "wb").write(blob)


class TestPerStageGC:
    """GC's eviction count, its lock, and reads that race it."""

    def fill(self, store, stage, count, size=4096, base=1000):
        keys = [f"{i:02d}" + "ab" * 31 for i in range(count)]
        for index, key in enumerate(keys):
            store.put(stage, key, b"z" * size)
            os.utime(
                store.entry_path(stage, key),
                (base + index, base + index),
            )
        return keys

    def test_gc_returns_total_of_report(self, store):
        self.fill(store, "dse.point", 6, size=8192)
        store.max_bytes = 2 * (8192 + 256)
        evicted = store.gc()
        assert evicted >= 4  # 6 entries, room for 2
        assert store.stats.evicted == evicted
        assert store.total_bytes() <= store.max_bytes

    def test_gc_skipped_while_lock_held_elsewhere(self, store):
        import fcntl

        self.fill(store, "dse.point", 4, size=8192)
        store.max_bytes = 1
        os.makedirs(store.root, exist_ok=True)
        with open(os.path.join(store.root, ".gc.lock"), "a+b") as handle:
            fcntl.flock(handle, fcntl.LOCK_EX)
            assert store.gc() == 0
            assert store.total_bytes() > 0
        # Lock released: the collection proceeds.
        assert store.gc() == 4
        assert store.total_bytes() == 0

    def test_gc_lock_file_is_not_treated_as_stale_version(self, store):
        store.put("compile", KEY, 1)
        store.gc()  # creates .gc.lock in the root
        assert os.path.exists(os.path.join(store.root, ".gc.lock"))
        assert store.gc() == 0  # nothing stale, nothing over budget
        assert os.path.exists(os.path.join(store.root, ".gc.lock"))
        assert store.get("compile", KEY)[0]

    def test_concurrent_reads_during_gc_degrade_to_misses(self, store):
        # A reader racing an eviction sees a miss, never an error.
        keys = self.fill(store, "dse.point", 4, size=8192)
        store.max_bytes = 1
        store.gc()
        for key in keys:
            hit, value = store.get("dse.point", key)
            assert (hit, value) == (False, None)
