"""Disk-backed persistence for :class:`~repro.exec.cache.CompileCache`.

A :class:`DiskStore` is the second tier behind the in-memory memo: a
content-addressed file store under ``~/.cache/stellar-repro`` (override
with ``STELLAR_CACHE_DIR``) that survives the process, so repeated CLI
invocations and CI runs warm-start instead of recompiling and
re-simulating designs whose content keys they have already paid for.

Design constraints, in order:

* **corruption is a miss, never a crash** -- every read validates a
  magic string, a schema stamp, and a SHA-256 payload checksum; any
  mismatch (truncated write, bit rot, a concurrent writer's leftovers,
  a hostile edit) deletes the entry and reports a miss;
* **writes are atomic** -- payloads land in a same-directory temp file
  and :func:`os.replace` into place, so concurrent readers and writers
  (the process pool's workers share one store) never observe a partial
  entry;
* **versioned** -- entries live under a directory stamped with
  :data:`SCHEMA_VERSION` plus the fingerprint algorithm's
  :data:`~repro.exec.fingerprint.FINGERPRINT_VERSION`; bumping either
  orphans every old entry (collected by GC) instead of deserializing
  stale IR into a newer pipeline;
* **one payload format** -- every entry is a pickle: the persisted
  stages hold composite products (compiled designs, netlists,
  diagnostics, a design point's figures), never bare arrays;
* **size-bounded** -- a byte budget (``STELLAR_CACHE_MAX_BYTES``,
  default 256 MiB; a malformed or non-positive value is a
  :class:`StoreConfigError`) is enforced by one least-recently-*used*
  GC over the live version: reads bump an entry's mtime, eviction
  drops any other-version directories first, then the stalest entries.

The store persists whatever it is handed; which memo stages reach it
is decided by :data:`repro.exec.cache.PERSISTED_STAGES`.

Failures on the write path (read-only filesystem, disk full,
unpicklable value) silently degrade the store to a pass-through: the
computation still happened, it just is not persisted.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import tempfile
from contextlib import contextmanager
from typing import Dict, Iterable, Optional, Tuple

try:  # pragma: no cover - present on every POSIX platform
    import fcntl
except ImportError:  # pragma: no cover - Windows
    fcntl = None

from ..obs.profile import span
from .fingerprint import FINGERPRINT_VERSION

#: Bump when the layout of cached products changes incompatibly --
#: e.g. a new field on CompiledDesign that old pickles lack, a changed
#: SimResult shape -- so stale entries become misses, not wrong answers.
SCHEMA_VERSION = 4

#: First bytes of every entry file.
MAGIC = b"STLRSTORE1\n"

#: Default size budget when ``STELLAR_CACHE_MAX_BYTES`` is unset.
DEFAULT_MAX_BYTES = 256 * 1024 * 1024

#: Lock file (under the store root) serializing GC across processes.
GC_LOCK_NAME = ".gc.lock"


class StoreConfigError(ValueError):
    """A store setting taken from the environment is malformed."""


def _max_bytes_from_env() -> int:
    """The byte budget ``STELLAR_CACHE_MAX_BYTES`` names, else the
    default; anything but a positive integer is a
    :class:`StoreConfigError` naming the variable."""
    raw = os.environ.get("STELLAR_CACHE_MAX_BYTES")
    if raw is None:
        return DEFAULT_MAX_BYTES
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value < 1:
        raise StoreConfigError(
            "STELLAR_CACHE_MAX_BYTES must be a positive integer byte count,"
            f" got {raw!r}"
        )
    return value


def default_cache_dir() -> Optional[str]:
    """The store root the CLI uses: ``STELLAR_CACHE_DIR`` wins, the
    empty string (or ``0``/``off``/``none``) disables persistence, and
    the fallback is ``~/.cache/stellar-repro``."""
    env = os.environ.get("STELLAR_CACHE_DIR")
    if env is not None:
        if env.strip().lower() in ("", "0", "off", "none"):
            return None
        return os.path.expanduser(env)
    return os.path.join(os.path.expanduser("~"), ".cache", "stellar-repro")


class DiskStoreStats:
    """Tallies of disk-tier traffic for one store handle."""

    __slots__ = (
        "hits", "misses", "corrupt", "writes", "write_failures",
        "bytes_read", "bytes_written", "evicted",
    )

    def __init__(self):
        self.hits = 0
        self.misses = 0
        self.corrupt = 0
        self.writes = 0
        self.write_failures = 0
        self.bytes_read = 0
        self.bytes_written = 0
        self.evicted = 0

    def merge(self, other: "DiskStoreStats") -> None:
        """Fold another handle's tallies (a worker task's) into these."""
        for name in self.__slots__:
            setattr(self, name, getattr(self, name) + getattr(other, name))

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> Dict[str, object]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "corrupt": self.corrupt,
            "writes": self.writes,
            "write_failures": self.write_failures,
            "bytes_read": self.bytes_read,
            "bytes_written": self.bytes_written,
            "evicted": self.evicted,
            "hit_rate": round(self.hit_rate, 4),
        }

    def __repr__(self) -> str:
        return (
            f"DiskStoreStats(hits={self.hits}, misses={self.misses},"
            f" corrupt={self.corrupt}, writes={self.writes})"
        )


class StoreCorruption(Exception):
    """Internal: an entry failed validation (becomes a miss)."""


# ---------------------------------------------------------------------------
# The store
# ---------------------------------------------------------------------------


class DiskStore:
    """One handle on the on-disk cache tier.

    Multiple handles -- across threads, processes, and machines sharing
    a filesystem -- may point at the same root concurrently; atomic
    entry writes keep them consistent without locks (last writer wins,
    and both writers wrote the same bytes for the same content key).
    """

    def __init__(
        self,
        root: str,
        max_bytes: Optional[int] = None,
    ):
        self.root = os.path.expanduser(root)
        if max_bytes is None:
            max_bytes = _max_bytes_from_env()
        if max_bytes < 1:
            raise ValueError(f"max_bytes must be positive, got {max_bytes}")
        self.max_bytes = max_bytes
        self.stats = DiskStoreStats()
        self._bytes_since_gc = 0

    @classmethod
    def default(cls, root: Optional[str] = None, **kwargs) -> Optional["DiskStore"]:
        """The CLI's store: rooted per :func:`default_cache_dir`, or
        ``None`` when persistence is disabled via the environment."""
        resolved = os.path.expanduser(root) if root else default_cache_dir()
        if resolved is None:
            return None
        return cls(resolved, **kwargs)

    # -- layout ---------------------------------------------------------

    @property
    def version_tag(self) -> str:
        return f"v{SCHEMA_VERSION}-fp{FINGERPRINT_VERSION}"

    @property
    def version_dir(self) -> str:
        return os.path.join(self.root, self.version_tag)

    def entry_path(self, stage: str, key: str) -> str:
        # Stage names are dotted identifiers ("compile.elaborate"); keys
        # are hex digests.  Shard on the key's first byte to keep
        # directory listings short at ResNet-suite entry counts.
        safe_stage = stage.replace(os.sep, "_")
        return os.path.join(
            self.version_dir, safe_stage, key[:2], key[2:] + ".entry"
        )

    # -- reads ----------------------------------------------------------

    def get(self, stage: str, key: str) -> Tuple[bool, object]:
        """``(hit, value)``; every failure mode is ``(False, None)``."""
        path = self.entry_path(stage, key)
        with span("store.get"):
            try:
                with open(path, "rb") as handle:
                    raw = handle.read()
            except OSError:
                self.stats.misses += 1
                return False, None
            try:
                value, payload_len = self._validate(raw, stage)
            except Exception:  # noqa: BLE001 -- any failure in validation
                # or deserialization is a miss; a bad entry must never
                # take the build down.
                self.stats.corrupt += 1
                self.stats.misses += 1
                self._remove(path)
                return False, None
            self.stats.bytes_read += payload_len
            self.stats.hits += 1
            try:
                os.utime(path)  # bump recency for the LRU GC
            except OSError:
                pass
            return True, value

    def _validate(self, raw: bytes, stage: str) -> Tuple[object, int]:
        if not raw.startswith(MAGIC):
            raise StoreCorruption("bad magic")
        rest = raw[len(MAGIC):]
        newline = rest.find(b"\n")
        if newline < 0:
            raise StoreCorruption("truncated header")
        header = json.loads(rest[:newline].decode("utf-8"))
        payload = rest[newline + 1:]
        if header.get("schema") != SCHEMA_VERSION:
            raise StoreCorruption("schema version mismatch")
        if header.get("fingerprint") != FINGERPRINT_VERSION:
            raise StoreCorruption("fingerprint version mismatch")
        if header.get("stage") != stage:
            raise StoreCorruption("stage mismatch")
        if header.get("size") != len(payload):
            raise StoreCorruption("payload length mismatch")
        if hashlib.sha256(payload).hexdigest() != header.get("sha256"):
            raise StoreCorruption("payload checksum mismatch")
        return pickle.loads(payload), len(payload)

    # -- writes ---------------------------------------------------------

    def put(self, stage: str, key: str, value: object) -> bool:
        """Persist ``value``; ``False`` (never an exception) on any
        serialization or filesystem failure."""
        with span("store.put"):
            try:
                payload = pickle.dumps(value, protocol=4)
            except Exception:  # noqa: BLE001 -- unpicklable: skip disk
                self.stats.write_failures += 1
                return False
            header = json.dumps(
                {
                    "schema": SCHEMA_VERSION,
                    "fingerprint": FINGERPRINT_VERSION,
                    "stage": stage,
                    "size": len(payload),
                    "sha256": hashlib.sha256(payload).hexdigest(),
                },
                sort_keys=True,
            ).encode("utf-8")
            blob = MAGIC + header + b"\n" + payload
            path = self.entry_path(stage, key)
            try:
                os.makedirs(os.path.dirname(path), exist_ok=True)
                fd, tmp = tempfile.mkstemp(
                    dir=os.path.dirname(path), prefix=".tmp-"
                )
                try:
                    with os.fdopen(fd, "wb") as handle:
                        handle.write(blob)
                    os.replace(tmp, path)
                except BaseException:
                    self._remove(tmp)
                    raise
            except OSError:
                self.stats.write_failures += 1
                return False
        self.stats.writes += 1
        self.stats.bytes_written += len(blob)
        self._bytes_since_gc += len(blob)
        # Amortized GC: only rescan the tree after writing a fair slice
        # of the budget, so steady-state sweeps pay ~zero for it.
        if self._bytes_since_gc >= max(self.max_bytes // 16, 1 << 20):
            self.gc()
        return True

    # -- maintenance ----------------------------------------------------

    def _entries(self) -> Iterable[Tuple[str, int, float]]:
        """(path, size, mtime) of every entry in the live version."""
        for dirpath, _dirnames, filenames in os.walk(self.version_dir):
            for filename in filenames:
                if not filename.endswith(".entry"):
                    continue
                path = os.path.join(dirpath, filename)
                try:
                    status = os.stat(path)
                except OSError:
                    continue
                yield path, status.st_size, status.st_mtime

    def total_bytes(self) -> int:
        return sum(size for _path, size, _mtime in self._entries())

    def stage_summary(self) -> Dict[str, Dict[str, int]]:
        """Per-stage ``{"entries": n, "bytes": b}`` for the live version.

        Stages are the memo names under the version directory
        (``compile``, ``dse.point``, ``analysis.spec``, ...); the map is
        sorted by stage name so renders are stable.
        """
        stages: Dict[str, Dict[str, int]] = {}
        prefix = self.version_dir + os.sep
        for path, size, _mtime in self._entries():
            relative = path[len(prefix):] if path.startswith(prefix) else path
            stage = relative.split(os.sep, 1)[0]
            bucket = stages.setdefault(stage, {"entries": 0, "bytes": 0})
            bucket["entries"] += 1
            bucket["bytes"] += size
        return dict(sorted(stages.items()))

    def summary(self) -> Dict[str, object]:
        """The ``repro cache stats`` payload: layout, budget, occupancy."""
        stages = self.stage_summary()
        return {
            "root": self.root,
            "version": self.version_tag,
            "max_bytes": self.max_bytes,
            "total_bytes": sum(s["bytes"] for s in stages.values()),
            "entries": sum(s["entries"] for s in stages.values()),
            "stages": stages,
        }

    @contextmanager
    def _gc_guard(self):
        """Write-side advisory lock: at most one GC per store root.

        Reads stay lock-free (corruption tolerance already makes a
        concurrent eviction look like a miss); GC is the only pass that
        deletes entries it did not write, so two processes collecting
        the same root at once would double-evict below the budget.
        Yields ``False`` -- skip the collection, someone else is on it
        -- when the lock is held elsewhere; platforms without ``fcntl``
        or roots that cannot hold a lock file degrade to unlocked GC.
        """
        if fcntl is None:  # pragma: no cover - Windows
            yield True
            return
        try:
            os.makedirs(self.root, exist_ok=True)
            handle = open(os.path.join(self.root, GC_LOCK_NAME), "a+b")
        except OSError:  # pragma: no cover - read-only root
            yield True
            return
        try:
            try:
                fcntl.flock(handle, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except OSError:
                yield False
                return
            try:
                yield True
            finally:
                try:
                    fcntl.flock(handle, fcntl.LOCK_UN)
                except OSError:  # pragma: no cover
                    pass
        finally:
            handle.close()

    def gc(self) -> int:
        """Run a collection; returns the entries evicted.

        Other-version directories (stale schema or fingerprint stamps)
        are removed wholesale first -- nothing can ever read them again.
        Within the live version, least-recently-used entries (reads bump
        the mtime) are evicted until it fits the byte budget.  The whole
        pass holds the store's advisory GC lock; if another process
        holds it the collection is skipped (returns 0).
        """
        with self._gc_guard() as acquired:
            if not acquired:
                return 0
            self._bytes_since_gc = 0
            try:
                siblings = os.listdir(self.root)
            except OSError:
                siblings = []
            evicted = sum(
                self._remove_tree(os.path.join(self.root, name))
                for name in siblings
                if name != self.version_tag and not name.startswith(".")
            )
            # Oldest first; path tie-break for same-mtime determinism.
            entries = sorted(self._entries(), key=lambda e: (e[2], e[0]))
            total = sum(size for _path, size, _mtime in entries)
            for path, size, _mtime in entries:
                if total <= self.max_bytes:
                    break
                self._remove(path)
                total -= size
                evicted += 1
        self.stats.evicted += evicted
        return evicted

    def clear(self) -> None:
        self._remove_tree(self.version_dir)

    def _remove(self, path: str) -> None:
        try:
            os.remove(path)
        except OSError:
            pass

    def _remove_tree(self, path: str) -> int:
        removed = 0
        for dirpath, dirnames, filenames in os.walk(path, topdown=False):
            for filename in filenames:
                self._remove(os.path.join(dirpath, filename))
                removed += 1
            for dirname in dirnames:
                try:
                    os.rmdir(os.path.join(dirpath, dirname))
                except OSError:
                    pass
        try:
            os.rmdir(path)
        except OSError:
            pass
        return removed

    def spawn_config(self) -> Dict[str, object]:
        """Constructor arguments for an equivalent handle in a worker."""
        return {"root": self.root, "max_bytes": self.max_bytes}

    def __repr__(self) -> str:
        return f"DiskStore({self.root!r}, {self.stats!r})"
