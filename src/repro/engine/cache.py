"""Content-addressed artifact cache: in-process LRU + optional disk store.

The cache maps the keys of :mod:`repro.engine.artifacts` to compiled
artifacts.  Two tiers cooperate:

* an **in-process LRU** holding live Python objects (``IndexedCircuit``,
  ``MaskingStructure``, compiled schedules) — this is what makes a warm
  ``AsertaAnalyzer`` construction skip the structural pass inside one
  process (an analyzer, a campaign worker, a SERTOPT inner loop);
* an optional **on-disk store** for array-valued artifacts (``npz``
  files with a JSON metadata header under ``cache_dir``), which lets a
  *new* process — a resumed campaign, a fresh CLI invocation — start
  warm.

Invalidation is purely key-based: keys embed the netlist content digest,
the estimation protocol (vectors, seed, ...) and
:data:`~repro.engine.artifacts.ARTIFACT_SCHEMA`, so editing a netlist or
bumping the schema makes old entries unreachable rather than stale.
On-disk files additionally live under a ``v<schema>`` directory so a
layout change can never be mis-parsed.

Counters (:class:`CacheStats`) are part of the public contract: tests
and benchmarks assert "zero fault-simulation work on a warm analyze"
through them.
"""

from __future__ import annotations

import json
import logging
import os
import tempfile
import zipfile
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping

import numpy as np

from repro.engine.artifacts import ARTIFACT_SCHEMA
from repro.errors import ReproError
from repro.telemetry import NULL_METRICS

_LOG = logging.getLogger(__name__)


class EngineError(ReproError):
    """Artifact cache or engine configuration problem."""


@dataclass
class CacheStats:
    """Counters of one :class:`ArtifactCache` (cumulative)."""

    #: In-memory lookups that found a live entry.
    hits: int = 0
    #: Lookups that found nothing (memory and, when enabled, disk).
    misses: int = 0
    #: Entries stored (memory tier).
    puts: int = 0
    #: Lookups served by loading an on-disk artifact.
    disk_hits: int = 0
    #: Array artifacts written to the disk tier.
    disk_writes: int = 0
    #: Entries dropped by the LRU bound.
    evictions: int = 0
    #: On-disk artifacts deleted by the ``max_disk_bytes`` budget.
    disk_evictions: int = 0
    #: Artifacts promoted into memory by :meth:`ArtifactCache.preload_disk`.
    disk_preloads: int = 0
    #: Per-kind hit/miss counts, keyed by artifact kind.
    by_kind: dict[str, dict[str, int]] = field(default_factory=dict)

    def _bump(self, kind: str, what: str) -> None:
        bucket = self.by_kind.setdefault(kind, {"hits": 0, "misses": 0})
        bucket[what] += 1

    def snapshot(self) -> dict[str, Any]:
        """JSON-friendly view (used by benchmarks and reports)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "disk_hits": self.disk_hits,
            "disk_writes": self.disk_writes,
            "evictions": self.evictions,
            "disk_evictions": self.disk_evictions,
            "disk_preloads": self.disk_preloads,
            "by_kind": {k: dict(v) for k, v in self.by_kind.items()},
        }


def _kind_of(key: str) -> str:
    return key.rsplit("-", 1)[0]


class ArtifactCache:
    """LRU of compiled artifacts, optionally backed by a directory.

    ``max_entries`` bounds the in-memory tier (oldest-used evicted
    first).  ``cache_dir`` enables the disk tier; it is created on first
    write.  The disk tier only ever sees array-valued artifacts stored
    through :meth:`get_or_build_arrays` — live Python objects stay
    in-memory only.

    ``max_disk_bytes`` bounds the disk tier: after every write the
    least-recently-used artifacts (by file mtime; disk hits refresh it)
    are deleted until the tier fits the budget.  Deletion is tolerant of
    concurrent evictors — a file that vanishes mid-scan is simply
    someone else's eviction, not an error — so many processes can share
    one capped directory.  ``None`` (the default) keeps the historical
    unbounded behaviour.
    """

    def __init__(
        self,
        max_entries: int = 128,
        cache_dir: str | os.PathLike | None = None,
        max_disk_bytes: int | None = None,
    ) -> None:
        if max_entries < 1:
            raise EngineError(f"max_entries must be >= 1, got {max_entries}")
        if max_disk_bytes is not None and max_disk_bytes < 1:
            raise EngineError(
                f"max_disk_bytes must be >= 1, got {max_disk_bytes}"
            )
        if max_disk_bytes is not None and cache_dir is None:
            raise EngineError("max_disk_bytes needs a cache_dir to bound")
        self.max_entries = max_entries
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.max_disk_bytes = max_disk_bytes
        self.stats = CacheStats()
        #: Optional :class:`repro.telemetry.MetricsRegistry` mirror —
        #: every counter bump also lands there under ``engine.cache.*``
        #: (an :class:`~repro.engine.engine.AnalysisEngine` built with a
        #: telemetry handle wires this up).
        self.metrics = NULL_METRICS
        self._entries: OrderedDict[str, Any] = OrderedDict()

    # ------------------------------------------------------------------
    # In-memory tier
    # ------------------------------------------------------------------

    def get(self, key: str) -> Any | None:
        """The live entry for ``key``, or ``None`` (counts a hit/miss)."""
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            self.stats.hits += 1
            self.stats._bump(_kind_of(key), "hits")
            self.metrics.add("engine.cache.hits")
            return entry
        self.stats.misses += 1
        self.stats._bump(_kind_of(key), "misses")
        self.metrics.add("engine.cache.misses")
        _LOG.debug("artifact cache miss: %s", key)
        return None

    def put(self, key: str, value: Any) -> None:
        """Store a live entry, evicting the least-recently-used ones."""
        self._entries[key] = value
        self._entries.move_to_end(key)
        self.stats.puts += 1
        self.metrics.add("engine.cache.puts")
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.stats.evictions += 1
            self.metrics.add("engine.cache.evictions")

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        """Drop the in-memory tier (disk files are left in place)."""
        self._entries.clear()

    # ------------------------------------------------------------------
    # Disk tier (array artifacts)
    # ------------------------------------------------------------------

    def _path_for(self, key: str) -> Path | None:
        if self.cache_dir is None:
            return None
        return self.cache_dir / f"v{ARTIFACT_SCHEMA}" / f"{key}.npz"

    def load_arrays(self, key: str) -> dict[str, np.ndarray] | None:
        """Load an array artifact from disk (no counters; internal)."""
        path = self._path_for(key)
        if path is None or not path.is_file():
            return None
        try:
            with np.load(path, allow_pickle=False) as handle:
                payload = {name: handle[name] for name in handle.files}
        except (OSError, ValueError, zipfile.BadZipFile):
            # A truncated or foreign file is a miss, not a crash: the
            # artifact is simply rebuilt (and rewritten) from scratch.
            _LOG.debug("ignoring unreadable on-disk artifact %s", path)
            return None
        meta = payload.pop("__meta__", None)
        if meta is None:
            return None
        try:
            header = json.loads(bytes(meta.tobytes()).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            return None
        if header.get("schema") != ARTIFACT_SCHEMA or header.get("key") != key:
            return None
        return payload

    def store_arrays(self, key: str, arrays: Mapping[str, np.ndarray]) -> None:
        """Write an array artifact to disk (atomic rename; best-effort)."""
        path = self._path_for(key)
        if path is None:
            return
        if "__meta__" in arrays:
            raise EngineError("'__meta__' is a reserved artifact array name")
        path.parent.mkdir(parents=True, exist_ok=True)
        header = canonical_header(key)
        payload = dict(arrays)
        payload["__meta__"] = np.frombuffer(header, dtype=np.uint8)
        fd, tmp_name = tempfile.mkstemp(
            dir=path.parent, prefix=path.name, suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                np.savez(handle, **payload)
            os.replace(tmp_name, path)
        except OSError:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self.stats.disk_writes += 1
        self.metrics.add("engine.cache.disk_writes")
        self._enforce_disk_budget(keep=path)

    def _enforce_disk_budget(self, keep: Path | None = None) -> None:
        """Delete LRU artifacts until the disk tier fits the budget.

        ``keep`` (the artifact just written) is never evicted — a cache
        whose budget is smaller than one artifact degrades to "latest
        only" rather than thrashing itself empty.  Missing files during
        the scan or the unlink are tolerated: with several processes
        sharing a directory, a concurrent eviction (or an atomic
        replace) may remove a file first.
        """
        if self.max_disk_bytes is None or self.cache_dir is None:
            return
        entries: list[tuple[float, int, Path]] = []
        for path in self.cache_dir.glob("v*/*.npz"):
            try:
                stat = path.stat()
            except OSError:
                continue  # concurrently evicted
            entries.append((stat.st_mtime, stat.st_size, path))
        total = sum(size for __, size, __p in entries)
        entries.sort()  # oldest mtime first
        for __, size, path in entries:
            if total <= self.max_disk_bytes:
                break
            if keep is not None and path == keep:
                continue
            try:
                os.unlink(path)
            except FileNotFoundError:
                pass  # already gone: a concurrent evictor beat us to it
            except OSError:
                # Deletion genuinely failed (permissions, read-only FS):
                # the bytes are still there, so don't pretend otherwise.
                continue
            total -= size
            self.stats.disk_evictions += 1
            self.metrics.add("engine.cache.disk_evictions")
            _LOG.debug("disk budget eviction: %s (%d bytes)", path, size)

    def preload_disk(self, kinds: Iterable[str]) -> int:
        """Promote on-disk array artifacts of the given ``kinds`` into
        the in-memory tier.

        The warm-handoff primitive for pooled campaign workers: a worker
        forked into a process that has never analyzed anything calls
        this once, pays the ``npz`` deserialization *before* the first
        batch arrives (inside the pool's measured spin-up window, not a
        batch's critical path), and then serves every preloaded artifact
        as an ordinary memory hit.  Most-recently-written artifacts are
        preloaded first so a bounded LRU keeps the hottest ones.  Files
        of other kinds (say, written by an older version) are left on
        disk, and unreadable or foreign files are skipped, exactly as in
        :meth:`load_arrays`.  Returns the number of artifacts promoted.
        """
        if self.cache_dir is None:
            return 0
        version_dir = self.cache_dir / f"v{ARTIFACT_SCHEMA}"
        paths: list[tuple[float, Path]] = []
        for kind in set(kinds):
            for path in version_dir.glob(f"{kind}-*.npz"):
                try:
                    paths.append((path.stat().st_mtime, path))
                except OSError:
                    continue  # concurrently evicted
        paths.sort(reverse=True)  # newest first
        loaded = 0
        for __, path in paths:
            key = path.name[: -len(".npz")]
            if key in self._entries:
                continue
            arrays = self.load_arrays(key)
            if arrays is None:
                continue
            _freeze(arrays)
            self.put(key, arrays)
            self.stats.disk_preloads += 1
            self.metrics.add("engine.cache.disk_preloads")
            loaded += 1
        return loaded

    def get_or_build_arrays(
        self, key: str, build: Callable[[], dict[str, np.ndarray]]
    ) -> dict[str, np.ndarray]:
        """Serve an array artifact from memory, then disk, else build it.

        A disk hit is promoted into the in-memory LRU; a fresh build is
        stored in both tiers.  Served arrays are marked read-only: one
        ndarray is aliased by every consumer (that is the point of the
        cache), so an accidental in-place write by one analyzer must
        fail loudly instead of silently corrupting all later ones.
        """
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            self.stats.hits += 1
            self.stats._bump(_kind_of(key), "hits")
            self.metrics.add("engine.cache.hits")
            return entry
        loaded = self.load_arrays(key)
        if loaded is not None:
            self.stats.disk_hits += 1
            self.stats.hits += 1
            self.stats._bump(_kind_of(key), "hits")
            self.metrics.add("engine.cache.hits")
            self.metrics.add("engine.cache.disk_hits")
            _LOG.debug("disk tier hit: %s", key)
            if self.max_disk_bytes is not None:
                path = self._path_for(key)
                try:
                    os.utime(path)  # refresh LRU recency on a disk hit
                except OSError:
                    pass
            _freeze(loaded)
            self.put(key, loaded)
            return loaded
        self.stats.misses += 1
        self.stats._bump(_kind_of(key), "misses")
        self.metrics.add("engine.cache.misses")
        _LOG.debug("artifact cache miss: building %s", key)
        built = build()
        _freeze(built)
        self.put(key, built)
        self.store_arrays(key, built)
        return built


def _freeze(arrays: Mapping[str, np.ndarray]) -> None:
    """Mark every array of an artifact immutable (shared by aliasing)."""
    for value in arrays.values():
        value.setflags(write=False)


def canonical_header(key: str) -> bytes:
    """The JSON metadata header embedded in every on-disk artifact."""
    return json.dumps(
        {"schema": ARTIFACT_SCHEMA, "key": key}, sort_keys=True
    ).encode("utf-8")
