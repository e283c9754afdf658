"""Content-addressed memoization of compilation and evaluation products.

A :class:`CompileCache` is the single memo store the evaluation engine
threads through the stack, and :func:`memo` is the one way a stage
consults it: ``memo(cache, stage, parts, build)`` builds directly when
``cache`` is ``None``, so no stage branches on whether it is memoized.
Stages are memoized at two granularities:

* **whole products** -- :func:`~repro.core.compiler.compile_design` and
  :func:`~repro.rtl.lowering.lower_design` memoize finished
  :class:`~repro.core.compiler.CompiledDesign` objects (stage
  ``compile``) and RTL netlists (stage ``lower``) when given a cache,
  on the full design key ``(spec, bounds, transform, sparsity,
  balancing, membufs, element_bits)``; a hit skips the entire
  pipeline, including the static-analysis gates, which already passed
  when the product was first built;
* **intermediates** -- the inner stages are memoized on the exact
  subset of axes they depend on, so a sweep over the transform x
  sparsity x balancing cross product elaborates the iteration space
  once per ``(spec, bounds)``, legality-checks the transform once per
  ``(spec, bounds, transform)``, prunes once per ``(spec, bounds,
  sparsity, balancing)``, and computes a workload's reference outputs
  once per ``(spec, bounds, tensors)``.

Keys come from :func:`repro.exec.fingerprint.fingerprint` -- canonical
content hashes, stable across processes -- with a per-object identity
memo in front so the same spec object is only walked once per cache
lifetime.  Values that cannot be fingerprinted bypass the cache and are
counted as ``uncacheable`` rather than failing the build.

Cached values are returned *shared*: callers must treat compiled
designs, iteration spaces, and simulation results obtained through a
cache as immutable.  Everything in the compiler pipeline already does.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, Optional, Tuple, TypeVar

from ..obs.metrics import MetricsRegistry
from .fingerprint import FingerprintError, fingerprint
from .store import DiskStoreStats

T = TypeVar("T")

_MISSING = object()

#: The stages a later process reads back from the disk tier: ``check``
#: reads ``analysis.spec``, ``verify`` reads ``compile`` and ``lower``,
#: and warm sweeps and ``serve`` read ``dse.point``.  Every other stage
#: is an in-process intermediate that hits in the memory tier and never
#: touches the disk: ``compile.elaborate``, ``compile.prune``,
#: ``sim.dense`` (a dense design's schedule), ``sim.reference`` (a
#: workload's outputs) and ``area.model`` (a compiled design's area).
PERSISTED_STAGES = frozenset({"analysis.spec", "compile", "lower", "dse.point"})


class CacheStats:
    """Hit/miss/uncacheable tallies, total and per stage.

    ``disk_hits`` counts the subset of ``hits`` that were answered by
    the persistent tier (a memory miss rescued by the
    :class:`~repro.exec.store.DiskStore`) rather than the in-process
    memo.
    """

    __slots__ = ("hits", "misses", "uncacheable", "disk_hits", "by_stage")

    def __init__(self):
        self.hits = 0
        self.misses = 0
        self.uncacheable = 0
        self.disk_hits = 0
        self.by_stage: Dict[str, Tuple[int, int]] = {}

    def record(self, stage: str, hit: bool) -> None:
        hits, misses = self.by_stage.get(stage, (0, 0))
        if hit:
            self.hits += 1
            self.by_stage[stage] = (hits + 1, misses)
        else:
            self.misses += 1
            self.by_stage[stage] = (hits, misses + 1)

    def merge(self, other: "CacheStats") -> None:
        """Fold another cache's tallies (a worker task's) into these."""
        self.hits += other.hits
        self.misses += other.misses
        self.uncacheable += other.uncacheable
        self.disk_hits += other.disk_hits
        for stage, (hits, misses) in other.by_stage.items():
            h0, m0 = self.by_stage.get(stage, (0, 0))
            self.by_stage[stage] = (h0 + hits, m0 + misses)

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
            "uncacheable": self.uncacheable,
            "disk_hits": self.disk_hits,
            "hit_rate": round(self.hit_rate, 4),
            "by_stage": {
                stage: {"hits": h, "misses": m}
                for stage, (h, m) in sorted(self.by_stage.items())
            },
        }

    def __repr__(self) -> str:
        return (
            f"CacheStats(hits={self.hits}, misses={self.misses},"
            f" uncacheable={self.uncacheable})"
        )


class CompileCache:
    """Two-tier LRU memo store for compile/lower/evaluate products.

    ``max_entries`` bounds the number of memoized values (least recently
    used evicted first); the identity->fingerprint memo is bounded by
    the same limit.  ``stats`` (and the store's
    ``stats``) are the only tallies of cache traffic; :attr:`registry`
    presents them as metrics.

    ``store`` (a :class:`~repro.exec.store.DiskStore`) adds the
    persistent tier for the :data:`PERSISTED_STAGES`: a memory miss
    consults the disk before building, and every freshly built value is
    written back, so content keys survive the process.  The disk is
    strictly behind the memory tier -- a disk hit is promoted into
    memory and evicting it from memory does not touch the disk copy.
    """

    DEFAULT_MAX_ENTRIES = 1024

    def __init__(
        self,
        max_entries: int = DEFAULT_MAX_ENTRIES,
        store=None,
    ):
        if max_entries < 1:
            raise ValueError(f"max_entries must be positive, got {max_entries}")
        self.max_entries = max_entries
        self.stats = CacheStats()
        self._entries: "OrderedDict[Tuple[str, str], object]" = OrderedDict()
        self._fp_memo: "OrderedDict[int, Tuple[object, str]]" = OrderedDict()
        self.store = store

    @property
    def registry(self) -> MetricsRegistry:
        """The tallies as counters, built on each read:
        ``exec.cache.{hits,misses,uncacheable,disk_hits}`` and, with a
        store, one ``exec.store.<tally>`` per :class:`DiskStoreStats`
        field."""
        registry = MetricsRegistry()
        for name in ("hits", "misses", "uncacheable", "disk_hits"):
            registry.counter(f"exec.cache.{name}").inc(getattr(self.stats, name))
        if self.store is not None:
            for name in DiskStoreStats.__slots__:
                registry.counter(f"exec.store.{name}").inc(
                    getattr(self.store.stats, name)
                )
        return registry

    # -- keying ---------------------------------------------------------

    def fingerprint_of(self, value: object) -> str:
        """Content fingerprint with an identity fast path.

        The memo holds a strong reference to each walked object, so a
        recycled ``id`` can never alias a dead object's fingerprint.
        """
        cached = self._fp_memo.get(id(value))
        if cached is not None and cached[0] is value:
            self._fp_memo.move_to_end(id(value))
            return cached[1]
        digest = fingerprint(value)
        self._fp_memo[id(value)] = (value, digest)
        self._fp_memo.move_to_end(id(value))
        while len(self._fp_memo) > self.max_entries:
            self._fp_memo.popitem(last=False)
        return digest

    def key(self, parts: Tuple[object, ...]) -> str:
        """The memo key of ``parts``: the fingerprint of its members'
        fingerprints."""
        return fingerprint(tuple(self.fingerprint_of(part) for part in parts))

    # -- the generic memo -----------------------------------------------

    def memo(self, stage: str, parts: Tuple[object, ...], build: Callable[[], T]) -> T:
        """Return the memoized value for ``(stage, parts)``, building it
        on first use.  Unfingerprintable parts bypass the cache --
        including the disk tier, so values without a canonical content
        key are never persisted under a guessed one, and stages outside
        :data:`PERSISTED_STAGES` live in the memory tier only."""
        try:
            digest = self.key(parts)
        except FingerprintError:
            self.stats.uncacheable += 1
            return build()
        entry_key = (stage, digest)
        cached = self._entries.get(entry_key, _MISSING)
        if cached is not _MISSING:
            self._entries.move_to_end(entry_key)
            self.stats.record(stage, hit=True)
            return cached
        store = self.store if stage in PERSISTED_STAGES else None
        if store is not None:
            found, value = store.get(stage, digest)
            if found:
                self.stats.record(stage, hit=True)
                self.stats.disk_hits += 1
                self._insert(entry_key, value)
                return value
        value = build()
        self.stats.record(stage, hit=False)
        self._insert(entry_key, value)
        if store is not None:
            store.put(stage, digest, value)
        return value

    def _insert(self, entry_key: Tuple[str, str], value: object) -> None:
        self._entries[entry_key] = value
        self._entries.move_to_end(entry_key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)

    # -- maintenance ----------------------------------------------------

    def clear(self) -> None:
        self._entries.clear()
        self._fp_memo.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        return (
            f"CompileCache({len(self._entries)}/{self.max_entries} entries,"
            f" {self.stats!r})"
        )


def memo(
    cache: Optional[CompileCache],
    stage: str,
    parts: Tuple[object, ...],
    build: Callable[[], T],
) -> T:
    """``build()``, memoized under ``(stage, parts)`` in ``cache`` when
    there is one.  ``cache.memo`` is looked up on each call, so a
    wrapper installed on :meth:`CompileCache.memo` sees every lookup."""
    if cache is None:
        return build()
    return cache.memo(stage, parts, build)


def persistent_compile_cache(
    root: Optional[str] = None,
    max_entries: int = CompileCache.DEFAULT_MAX_ENTRIES,
) -> CompileCache:
    """A cache backed by the default disk store.

    ``root`` overrides the store directory (else ``STELLAR_CACHE_DIR``
    then ``~/.cache/stellar-repro``); when persistence is disabled via
    the environment this degrades to a plain in-memory cache.
    """
    from .store import DiskStore

    return CompileCache(max_entries=max_entries, store=DiskStore.default(root))
