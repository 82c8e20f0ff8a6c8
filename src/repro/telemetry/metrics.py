"""Named counters, gauges and timers behind one snapshot/diff API.

The registry standardizes the counters that used to live as ad-hoc
attributes (``AnalysisEngine.structural_sim_runs``, ``CacheStats``,
campaign ``_WORKER_STATS``, matcher call and repair-round tallies,
optimizer probe accounting) under dotted names:

>>> metrics = MetricsRegistry()
>>> metrics.add("engine.cache.hits")
>>> metrics.add("engine.cache.hits", 2)
>>> metrics.gauge("campaign.workers", 4)
>>> metrics.add_time("aserta.analyze", 0.25)
>>> snap = metrics.snapshot()
>>> snap["counters"], snap["gauges"]
({'engine.cache.hits': 3}, {'campaign.workers': 4.0})
>>> snap["timers"]
{'aserta.analyze': {'total_s': 0.25, 'count': 1}}

Snapshots are plain dicts — picklable, JSON-ready — and compose:
``diff(before, after)`` is exact (integer counter arithmetic), and
``merge`` adds a shipped snapshot in, which is how campaign workers'
counters fold into the parent's registry.  Counters are preferred over
gauges for anything workers report, because merging counters is pure
addition regardless of how batches were scheduled.

>>> before = metrics.snapshot()
>>> metrics.add("engine.cache.hits", 4)
>>> MetricsRegistry.diff(before, metrics.snapshot())["counters"]
{'engine.cache.hits': 4}
"""

from __future__ import annotations

import threading
import time
from typing import Any, Mapping


def _empty_snapshot() -> dict[str, Any]:
    return {"counters": {}, "gauges": {}, "timers": {}}


class _TimerContext:
    __slots__ = ("_registry", "_name", "_started")

    def __init__(self, registry: "MetricsRegistry", name: str) -> None:
        self._registry = registry
        self._name = name
        self._started = 0.0

    def __enter__(self) -> "_TimerContext":
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> bool:
        self._registry.add_time(
            self._name, time.perf_counter() - self._started
        )
        return False


class MetricsRegistry:
    """Thread-safe registry of named counters, gauges and timers."""

    enabled = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        self._timers: dict[str, list] = {}  # name -> [total_s, count]

    def add(self, name: str, value: float = 1) -> None:
        """Increment counter ``name`` (monotone; workers' merge by sum)."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + value

    def gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to the latest observed value."""
        with self._lock:
            self._gauges[name] = float(value)

    def add_time(self, name: str, seconds: float, count: int = 1) -> None:
        """Accumulate ``seconds`` into timer ``name``."""
        with self._lock:
            bucket = self._timers.get(name)
            if bucket is None:
                self._timers[name] = [float(seconds), int(count)]
            else:
                bucket[0] += float(seconds)
                bucket[1] += int(count)

    def time(self, name: str) -> _TimerContext:
        """``with metrics.time("phase"):`` — a wall-clock timer."""
        return _TimerContext(self, name)

    def snapshot(self) -> dict[str, Any]:
        """Deep-copied, picklable view of every metric."""
        with self._lock:
            return {
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "timers": {
                    name: {"total_s": total, "count": count}
                    for name, (total, count) in self._timers.items()
                },
            }

    @staticmethod
    def diff(
        before: Mapping[str, Any], after: Mapping[str, Any]
    ) -> dict[str, Any]:
        """Exact delta between two snapshots (counters/timers subtract;
        gauges keep the ``after`` values)."""
        counters = {}
        for name, value in after.get("counters", {}).items():
            delta = value - before.get("counters", {}).get(name, 0)
            if delta != 0:
                counters[name] = delta
        timers = {}
        for name, bucket in after.get("timers", {}).items():
            prior = before.get("timers", {}).get(
                name, {"total_s": 0.0, "count": 0}
            )
            total = bucket["total_s"] - prior["total_s"]
            count = bucket["count"] - prior["count"]
            if count != 0 or total != 0.0:
                timers[name] = {"total_s": total, "count": count}
        return {
            "counters": counters,
            "gauges": dict(after.get("gauges", {})),
            "timers": timers,
        }

    def merge(self, snapshot: Mapping[str, Any]) -> None:
        """Fold a shipped snapshot (or diff) into this registry."""
        with self._lock:
            for name, value in snapshot.get("counters", {}).items():
                self._counters[name] = self._counters.get(name, 0) + value
            for name, value in snapshot.get("gauges", {}).items():
                self._gauges[name] = float(value)
            for name, bucket in snapshot.get("timers", {}).items():
                mine = self._timers.get(name)
                if mine is None:
                    self._timers[name] = [
                        float(bucket["total_s"]), int(bucket["count"])
                    ]
                else:
                    mine[0] += float(bucket["total_s"])
                    mine[1] += int(bucket["count"])


class _NullTimerContext:
    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info) -> bool:
        return False


_NULL_TIMER = _NullTimerContext()


class NullMetrics:
    """Same surface as :class:`MetricsRegistry`, no effect.

    >>> NULL_METRICS.add("anything")
    >>> NULL_METRICS.snapshot()
    {'counters': {}, 'gauges': {}, 'timers': {}}
    """

    enabled = False
    __slots__ = ()

    def add(self, name: str, value: float = 1) -> None:
        return None

    def gauge(self, name: str, value: float) -> None:
        return None

    def add_time(self, name: str, seconds: float, count: int = 1) -> None:
        return None

    def time(self, name: str) -> _NullTimerContext:
        return _NULL_TIMER

    def snapshot(self) -> dict[str, Any]:
        return _empty_snapshot()

    diff = staticmethod(MetricsRegistry.diff)

    def merge(self, snapshot: Mapping[str, Any]) -> None:
        return None


NULL_METRICS = NullMetrics()
