"""Process-local counters and histograms for experiment observability.

The simulator's hot paths (PHY encode/channel/decode, engine task
dispatch) record where time and retries go through a tiny metrics
registry.  Design constraints, in order:

* **Near-zero overhead.**  A counter increment is a dict lookup plus an
  integer add; a timed block is two ``perf_counter`` calls plus one
  histogram observation.  The PHY chain is numpy-bound, so this is
  noise.
* **Process-local.**  Engine workers are separate processes; each one
  accumulates into its own registry and ships a plain-dict
  :meth:`MetricsRegistry.snapshot` back with the task result, which the
  engine merges (:meth:`MetricsRegistry.merge_snapshot`).  Nothing here
  is thread- or process-shared, so there are no locks.
* **Scoped collection.**  Instrumented code records into whatever
  registry is *active*.  By default that is one module-global registry;
  :func:`collect` makes a fresh registry active for the duration of a
  block so callers (the engine's per-task wrapper, tests) get an
  isolated view without touching the instrumentation sites.  The
  active registry is a context variable, so each thread has its own:
  engines run on concurrent threads never record into each other's
  registries.
* **One aggregate per timed interval.**  A duration is one
  :class:`Histogram` observation (buckets, sum, count, min and max);
  timed blocks, :func:`observe` and span paths all aggregate that way.

Typical use::

    from repro import obs

    with obs.timed("phy.wifi.decode.seconds"):
        receiver.decode(...)
    obs.inc("phy.wifi.packets")

    with obs.collect() as reg:       # isolate one task's metrics
        run_task()
    snapshot = reg.snapshot()        # {"counters": ..., "histograms": ...}

Tracing (spans + events) is opt-in per registry: pass a
:class:`TraceConfig` to :func:`collect` (or the registry constructor)
and :func:`span` / :func:`packet_event` start recording; with no trace
config they are a dict lookup plus a ``None`` check — near-zero
overhead, and no RNG or numerical state is touched either way.  Span
durations aggregate by *path* ("parent/child") into histograms, so
snapshots merge across worker processes exactly like counters.
"""

from __future__ import annotations

import math
import time
from bisect import bisect_left
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.obs import forensics

__all__ = ["Gauge", "Histogram", "DEFAULT_LATENCY_BUCKETS",
           "TraceConfig", "MetricsRegistry", "registry",
           "global_registry", "collect", "collect_into",
           "timed", "inc", "observe", "set_gauge",
           "add_gauge", "span", "event", "packet_event"]


class Gauge:
    """A point-in-time value: ``set`` to the latest reading, ``add`` a
    delta.  Unlike counters, merging is last-write-wins — a gauge is a
    *local* observation (queue depth, oldest-job age), so whichever
    snapshot merged last is the freshest view, not a sum."""

    __slots__ = ("value",)

    value: float

    def __init__(self, value: float = 0.0) -> None:
        self.value = float(value)

    def set(self, value: float) -> None:
        self.value = float(value)

    def add(self, delta: float) -> None:
        self.value += float(delta)

    def merge(self, other: "Gauge") -> None:
        self.value = other.value


#: Default latency buckets: a 1/2.5/5 log grid from 100 µs to 60 s.
#: Every histogram shares these bounds unless constructed otherwise, so
#: snapshots from any worker split merge bucket-for-bucket.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0)


class Histogram:
    """Fixed-bucket latency histogram with exact ``sum`` / ``count`` /
    ``min`` / ``max``.

    ``buckets`` holds ascending upper bounds (``le`` semantics: an
    observation lands in the first bucket whose bound is >= the value);
    ``counts`` has one extra overflow slot for values past the last
    bound.  Because the bounds are fixed at construction, merging
    worker snapshots is invariant to how observations were partitioned:
    any grouping of the same observations produces identical buckets,
    ``count``, ``min`` and ``max`` (and the same ``sum`` up to float
    addition order).  ``quantile`` interpolates linearly inside the
    containing bucket, which is the standard Prometheus estimate.
    ``min`` / ``max`` are ``inf`` / ``-inf`` until the first observation
    and serialise as ``null`` then, since JSON has no infinities.
    """

    __slots__ = ("buckets", "counts", "sum", "count", "min", "max")

    buckets: Tuple[float, ...]
    counts: List[int]
    sum: float
    count: int
    min: float
    max: float

    def __init__(self, buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS
                 ) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if any(not math.isfinite(b) for b in bounds):
            raise ValueError(f"bucket bounds must be finite: {bounds}")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError(f"bucket bounds must ascend: {bounds}")
        self.buckets = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.sum = 0.0
        self.count = 0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.buckets, value)] += 1
        self.sum += value
        self.count += 1
        self.min = min(self.min, value)
        self.max = max(self.max, value)

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def merge(self, other: "Histogram") -> None:
        if other.buckets != self.buckets:
            raise ValueError(
                f"cannot merge histograms with different buckets: "
                f"{self.buckets} != {other.buckets}")
        for i, n in enumerate(other.counts):
            self.counts[i] += n
        self.sum += other.sum
        self.count += other.count
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)

    def quantile(self, q: float) -> Optional[float]:
        """Estimated value at quantile *q* (0..1); ``None`` when empty.

        Interpolates within the containing bucket; observations in the
        overflow bucket clamp to the last finite bound.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if not self.count:
            return None
        target = q * self.count
        cumulative = 0
        lower = 0.0
        for i, bound in enumerate(self.buckets):
            previous = cumulative
            cumulative += self.counts[i]
            if cumulative >= target and self.counts[i]:
                frac = (target - previous) / self.counts[i]
                return lower + (bound - lower) * min(max(frac, 0.0), 1.0)
            lower = bound
        return self.buckets[-1]

    def to_dict(self) -> Dict[str, Any]:
        return {"buckets": list(self.buckets), "counts": list(self.counts),
                "sum": self.sum, "count": self.count,
                "min": _finite_or_none(self.min),
                "max": _finite_or_none(self.max)}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Histogram":
        """Inverse of :meth:`to_dict`.  A dict without ``min`` / ``max``
        (written before histograms carried them) loads with both
        unknown, i.e. at their empty sentinels."""
        hist = cls(tuple(float(b) for b in data["buckets"]))
        counts = [int(n) for n in data["counts"]]
        if len(counts) != len(hist.buckets) + 1:
            raise ValueError(
                f"expected {len(hist.buckets) + 1} bucket counts, "
                f"got {len(counts)}")
        hist.counts = counts
        hist.sum = float(data.get("sum", 0.0))
        hist.count = int(data.get("count", 0))
        if data.get("min") is not None:
            hist.min = float(data["min"])
        if data.get("max") is not None:
            hist.max = float(data["max"])
        return hist


def _finite_or_none(value: float) -> Optional[float]:
    return value if math.isfinite(value) else None


@dataclass(frozen=True)
class TraceConfig:
    """Sampling knobs for trace events (spans and per-packet records).

    A registry with a ``TraceConfig`` records spans and events; a
    registry without one (the default) skips all trace work.  The
    config is immutable and picklable so the engine can ship it to
    worker processes alongside the task.

    ``every_n`` keeps every N-th packet event (1 = all);
    ``failures_only`` drops ``ok``-stage packet events entirely;
    ``max_events`` caps the in-memory event buffer — past it events are
    dropped and counted under ``trace.events.dropped``.  Stage
    *counters* are unaffected by any of these knobs: sampling only
    thins the per-packet JSONL stream.
    """

    every_n: int = 1
    failures_only: bool = False
    max_events: int = 100_000

    def __post_init__(self) -> None:
        if self.every_n < 1:
            raise ValueError(f"every_n must be >= 1, got {self.every_n}")
        if self.max_events < 0:
            raise ValueError(
                f"max_events must be >= 0, got {self.max_events}")


class _SpanBase:
    """Common no-op context-manager shape for spans."""

    __slots__ = ()

    def __enter__(self) -> "_SpanBase":
        return self

    def __exit__(self, *exc: object) -> None:
        return None


class _NoopSpan(_SpanBase):
    """Returned when tracing is disabled; a shared, stateless singleton."""

    __slots__ = ()


_NOOP_SPAN = _NoopSpan()


class _Span(_SpanBase):
    """A live span: times a block and links to its parent via the
    registry's span stack (path = "parent/child")."""

    __slots__ = ("_registry", "_name", "_attrs", "_start", "_path")

    _registry: "MetricsRegistry"
    _name: str
    _attrs: Dict[str, Any]
    _start: float
    _path: str

    def __init__(self, registry: "MetricsRegistry", name: str,
                 attrs: Dict[str, Any]) -> None:
        self._registry = registry
        self._name = name
        self._attrs = attrs
        self._start = 0.0
        self._path = ""

    def __enter__(self) -> "_Span":
        reg = self._registry
        reg._span_stack.append(self._name)
        self._path = "/".join(reg._span_stack)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        dur = time.perf_counter() - self._start
        reg = self._registry
        if reg._span_stack and reg._span_stack[-1] == self._name:
            reg._span_stack.pop()
        reg._observe(reg._spans, self._path, dur)
        payload: Dict[str, Any] = {"path": self._path, "dur_s": dur}
        if self._attrs:
            payload["attrs"] = dict(self._attrs)
        reg._record_event("span", payload)


class MetricsRegistry:
    """A named bag of counters, gauges, histograms, and (when tracing)
    spans/events."""

    def __init__(self, trace: Optional[TraceConfig] = None) -> None:
        self._counters: Dict[str, int] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._trace = trace
        self._spans: Dict[str, Histogram] = {}
        self._span_stack: List[str] = []
        self._events: List[Dict[str, Any]] = []
        self._packet_seq = 0

    @property
    def trace(self) -> Optional[TraceConfig]:
        """The trace config, or ``None`` when tracing is disabled."""
        return self._trace

    # -- recording --------------------------------------------------------

    def inc(self, name: str, n: int = 1) -> None:
        self._counters[name] = self._counters.get(name, 0) + n

    def observe(self, name: str, seconds: float) -> None:
        """Record one duration into the histogram *name*."""
        self._observe(self._histograms, name, seconds)

    @staticmethod
    def _observe(table: Dict[str, Histogram], name: str,
                 seconds: float) -> None:
        hist = table.get(name)
        if hist is None:
            hist = table[name] = Histogram()
        hist.observe(seconds)

    def set_gauge(self, name: str, value: float) -> None:
        gauge = self._gauges.get(name)
        if gauge is None:
            gauge = self._gauges[name] = Gauge()
        gauge.set(value)

    def add_gauge(self, name: str, delta: float) -> None:
        gauge = self._gauges.get(name)
        if gauge is None:
            gauge = self._gauges[name] = Gauge()
        gauge.add(delta)

    @contextmanager
    def timed(self, name: str) -> Iterator[None]:
        """Time a block into the histogram *name*."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.observe(name, time.perf_counter() - start)

    def span(self, name: str, **attrs: Any) -> _SpanBase:
        """Open a hierarchical span; a shared no-op when not tracing."""
        if self._trace is None:
            return _NOOP_SPAN
        return _Span(self, name, attrs)

    def event(self, kind: str, **fields: Any) -> None:
        """Append one structured trace event (no-op when not tracing)."""
        if self._trace is None:
            return
        self._record_event(kind, dict(fields))

    def packet_event(self, radio: str, stage: str, **fields: Any) -> None:
        """Append a per-packet forensic event, honouring the sampling
        knobs (``every_n`` / ``failures_only``).  No-op when not
        tracing; never touches counters, RNG, or decode state."""
        cfg = self._trace
        if cfg is None:
            return
        self._packet_seq += 1
        if cfg.failures_only and stage == forensics.OK:
            return
        if cfg.every_n > 1 and (self._packet_seq - 1) % cfg.every_n:
            return
        payload: Dict[str, Any] = {"radio": radio, "stage": stage,
                                   "seq": self._packet_seq}
        payload.update(fields)
        self._record_event("packet", payload)

    def _record_event(self, kind: str, fields: Dict[str, Any]) -> None:
        cfg = self._trace
        if cfg is not None and len(self._events) >= cfg.max_events:
            self.inc("trace.events.dropped")
            return
        record: Dict[str, Any] = {"kind": kind}
        record.update(fields)
        self._events.append(record)

    # -- reading ----------------------------------------------------------

    def counter(self, name: str) -> int:
        return self._counters.get(name, 0)

    def gauge(self, name: str) -> Optional[Gauge]:
        return self._gauges.get(name)

    def gauge_value(self, name: str, default: float = 0.0) -> float:
        gauge = self._gauges.get(name)
        return gauge.value if gauge is not None else default

    def histogram(self, name: str) -> Optional[Histogram]:
        return self._histograms.get(name)

    def span_stat(self, path: str) -> Optional[Histogram]:
        """Aggregated stats for one span path ("parent/child")."""
        return self._spans.get(path)

    def span_paths(self) -> List[str]:
        """All recorded span paths, sorted."""
        return sorted(self._spans)

    @property
    def events(self) -> List[Dict[str, Any]]:
        """A copy of the buffered trace events, in recording order."""
        return [dict(e) for e in self._events]

    def snapshot(self) -> Dict[str, Any]:
        """Plain-dict view (JSON-serializable, picklable).

        ``gauges`` / ``histograms`` / ``spans`` / ``events`` keys appear
        only when non-empty; ``counters`` is always there.  Histograms
        and span paths both serialise as :meth:`Histogram.to_dict`.
        """
        snap: Dict[str, Any] = {"counters": dict(self._counters)}
        if self._gauges:
            snap["gauges"] = {k: v.value for k, v in self._gauges.items()}
        if self._histograms:
            snap["histograms"] = {
                k: v.to_dict() for k, v in self._histograms.items()}
        if self._spans:
            snap["spans"] = {k: v.to_dict() for k, v in self._spans.items()}
        if self._events:
            snap["events"] = [dict(e) for e in self._events]
        return snap

    # -- combining --------------------------------------------------------

    def merge_snapshot(self, snapshot: Optional[Dict[str, Any]],
                       span_prefix: Optional[str] = None) -> None:
        """Fold another registry's :meth:`snapshot` into this one.

        *span_prefix*, when given, re-roots the incoming span tree under
        an existing local path (the engine merges each worker's
        ``engine.task`` spans under its own ``engine.run`` root, so the
        aggregated tree is identical for any worker count).
        """
        if not snapshot:
            return
        for name, value in snapshot.get("counters", {}).items():
            self.inc(name, int(value))
        # Gauges are last-write-wins: the incoming snapshot is the
        # fresher local observation.
        for name, value in snapshot.get("gauges", {}).items():
            self.set_gauge(name, float(value))
        for name, data in snapshot.get("histograms", {}).items():
            self._merge_hist(self._histograms, name, data)
        for name, data in snapshot.get("spans", {}).items():
            path = f"{span_prefix}/{name}" if span_prefix else name
            self._merge_hist(self._spans, path, data)
        for record in snapshot.get("events", []):
            merged = dict(record)
            if span_prefix and merged.get("kind") == "span":
                merged["path"] = f"{span_prefix}/{merged['path']}"
            self._events.append(merged)

    @staticmethod
    def _merge_hist(table: Dict[str, Histogram], name: str,
                    data: Dict[str, Any]) -> None:
        hist = table.get(name)
        if hist is None:
            table[name] = Histogram.from_dict(data)
        else:
            hist.merge(Histogram.from_dict(data))

    def reset(self) -> None:
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()
        self._spans.clear()
        self._span_stack.clear()
        self._events.clear()
        self._packet_seq = 0


# -- the active registry ---------------------------------------------------
# A context variable, so each thread (and each asyncio task) has its own;
# where nothing is active, recording goes to the one global registry.

_GLOBAL = MetricsRegistry()
_ACTIVE: ContextVar[MetricsRegistry] = ContextVar("repro_obs_registry",
                                                  default=_GLOBAL)


def registry() -> MetricsRegistry:
    """The registry instrumentation currently records into."""
    return _ACTIVE.get()


def global_registry() -> MetricsRegistry:
    """The process-wide default registry."""
    return _GLOBAL


@contextmanager
def collect(trace: Optional[TraceConfig] = None
            ) -> Iterator[MetricsRegistry]:
    """Route all recording inside the block into a fresh registry.

    Pass a :class:`TraceConfig` to also capture spans and per-packet
    trace events for the duration of the block.
    """
    with collect_into(MetricsRegistry(trace=trace)) as reg:
        yield reg


@contextmanager
def collect_into(reg: MetricsRegistry) -> Iterator[MetricsRegistry]:
    """Route all recording inside the block into an *existing* registry.

    Re-entrant counterpart of :func:`collect`: a caller that interleaves
    several logical collection scopes (the engine's cross-task batch
    path attributing per-task stage counters while sharing one decode
    pass) can make the same registry active repeatedly without losing
    what it already holds.  Only the calling thread's active registry
    changes.
    """
    token = _ACTIVE.set(reg)
    try:
        yield reg
    finally:
        _ACTIVE.reset(token)


def timed(name: str) -> "_ActiveTimer":
    """Context manager timing a block into the histogram *name* of the
    active registry.

    The registry is resolved when the block *exits*, so a ``timed``
    entered just before a :func:`collect` block still records into the
    registry active at completion time.
    """
    return _ActiveTimer(name)


class _ActiveTimer:
    __slots__ = ("_name", "_start")

    _name: str
    _start: float

    def __init__(self, name: str) -> None:
        self._name = name

    def __enter__(self) -> "_ActiveTimer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        _ACTIVE.get().observe(self._name, time.perf_counter() - self._start)


def inc(name: str, n: int = 1) -> None:
    """Increment a counter on the active registry."""
    registry().inc(name, n)


def observe(name: str, seconds: float) -> None:
    """Record one duration into a histogram of the active registry."""
    registry().observe(name, seconds)


def set_gauge(name: str, value: float) -> None:
    """Set a gauge on the active registry to *value*."""
    registry().set_gauge(name, value)


def add_gauge(name: str, delta: float) -> None:
    """Add *delta* to a gauge on the active registry."""
    registry().add_gauge(name, delta)


def span(name: str, **attrs: Any) -> _SpanBase:
    """Open a span on the active registry (shared no-op when untraced)."""
    return registry().span(name, **attrs)


def event(kind: str, **fields: Any) -> None:
    """Append one trace event to the active registry (no-op untraced)."""
    registry().event(kind, **fields)


def packet_event(radio: str, stage: str, **fields: Any) -> None:
    """Append a sampled per-packet forensic event (no-op untraced)."""
    registry().packet_event(radio, stage, **fields)
