"""The metrics registry: named counters, gauges and fixed-bucket histograms.

One process-local :class:`MetricsRegistry` is the aggregation point for
every tier's counters — the campaign fan-out, the query engines behind the
router shards, the ingest service.  Three properties drive the design:

* **Identity by (name, labels), not by holder.**  ``registry.counter(name,
  **labels)`` returns the *same* :class:`Counter` object every time, so a
  rebuilt query engine (quarantine re-route, loader swap) re-acquires the
  counters its predecessor was feeding and the series continues — the
  pre-obs ``QueryStats`` reset silently on every rebuild.
* **Cheap updates, real thread safety.**  The router's asyncio tasks, the
  engine's thread executor and the map-reduce driver all hammer one
  registry, and an unsynchronized ``+=`` is *not* atomic under the GIL.
  So an update only appends to the metric's pending list (one atomic C
  call), and reads fold the queued updates in under a per-metric
  ``threading.Lock``: the lock is paid per read, not per event.  Histogram
  buckets are a pre-allocated list; folding an observation is one
  ``bisect`` over the edge tuple plus scalar adds.

The null twins (:class:`NullCounter` & co., behind
``ObsConfig(enabled=False)``) share the same surface and do nothing, so
instrumented code never branches on whether telemetry is on.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Any, Iterator, Mapping, Sequence

import numpy as np

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullCounter",
    "NullGauge",
    "NullHistogram",
    "NullRegistry",
]

#: Default histogram bucket upper bounds (seconds); mirrors
#: :class:`repro.config.ObsConfig.latency_buckets_s` without importing it so
#: the module stays dependency-free for the timing shim.
DEFAULT_BUCKETS = (
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
)

#: One registry key: (metric name, sorted (label, value) pairs).
MetricKey = tuple[str, tuple[tuple[str, str], ...]]


def _label_key(labels: Mapping[str, Any]) -> tuple[tuple[str, str], ...]:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


#: Pending updates a metric holds before an update folds them in itself,
#: which bounds its memory however rarely it is read.
_FOLD_AT = 32


class _Metric:
    """Shared plumbing of the three metric kinds: buffered, lock-free updates.

    An update appends to a pending list — ``list.append`` is one atomic C
    call — instead of taking a ``threading.Lock``, whose round trip costs
    several times the update it guards.  Reads fold the pending updates
    into the running state under the metric's lock, oldest first, so every
    read sees exactly the value the same updates would have produced one
    at a time.  An update that finds :data:`_FOLD_AT` updates pending
    folds them itself.  (A list, not a ``deque``: an idle metric's empty
    list costs a few bytes, an empty deque a whole block.)
    """

    kind = ""

    def __init__(self, name: str, labels: tuple[tuple[str, str], ...] = ()) -> None:
        self.name = name
        self.labels = labels
        self._pending: list = []
        self._lock = threading.Lock()

    def __getstate__(self) -> dict[str, Any]:
        self._fold()
        state = self.__dict__.copy()
        del state["_lock"], state["_pending"]
        return state

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._pending = []
        self._lock = threading.Lock()

    def _fold(self) -> None:
        """Apply every update pending now (later appends wait their turn)."""
        if self._pending:
            with self._lock:
                self._apply(self._take())

    def _take(self) -> list:
        """Remove and return the pending updates; the caller holds the lock.

        Only lock holders remove, and appends only extend the tail, so the
        slice taken is exactly the slice deleted.
        """
        pending = self._pending
        n = len(pending)
        updates = pending[:n]
        del pending[:n]
        return updates

    def _apply(self, updates: list) -> None:
        """Fold ``updates`` in, oldest first; the caller holds the lock."""
        raise NotImplementedError


class Counter(_Metric):
    """A monotonically increasing count (events, bytes, seconds-of-work)."""

    kind = "counter"

    def __init__(self, name: str, labels: tuple[tuple[str, str], ...] = ()) -> None:
        super().__init__(name, labels)
        self._value = 0.0

    def inc(self, value: float = 1.0) -> None:
        if value < 0:
            raise ValueError("counters only go up; use a gauge for ups and downs")
        pending = self._pending
        pending.append(value)
        if len(pending) >= _FOLD_AT:
            self._fold()

    def _apply(self, updates: list) -> None:
        value = self._value
        for update in updates:
            value += update
        self._value = value

    @property
    def value(self) -> float:
        self._fold()
        return self._value

    def __repr__(self) -> str:
        return f"Counter({self.name}{dict(self.labels)}={self.value})"


class Gauge(_Metric):
    """A value that goes both ways (queue depth, fleet size, freshness).

    Pending updates are ``(is_set, value)`` pairs: a ``set`` replaces the
    running value and an ``add`` moves it, in the order they were made.
    """

    kind = "gauge"

    def __init__(self, name: str, labels: tuple[tuple[str, str], ...] = ()) -> None:
        super().__init__(name, labels)
        self._value = 0.0

    def set(self, value: float) -> None:
        pending = self._pending
        pending.append((True, value))
        if len(pending) >= _FOLD_AT:
            self._fold()

    def add(self, value: float) -> None:
        pending = self._pending
        pending.append((False, value))
        if len(pending) >= _FOLD_AT:
            self._fold()

    def _apply(self, updates: list) -> None:
        value = self._value
        for is_set, update in updates:
            value = float(update) if is_set else value + update
        self._value = value

    @property
    def value(self) -> float:
        self._fold()
        return self._value

    def __repr__(self) -> str:
        return f"Gauge({self.name}{dict(self.labels)}={self.value})"


class Histogram(_Metric):
    """Fixed-bucket distribution with Prometheus ``le`` semantics.

    ``edges`` are the finite bucket upper bounds; an implicit ``+Inf``
    bucket catches the overflow.  Bucket counts are a pre-allocated list of
    ints, and ``observe`` only queues the value.  Folding it in is one
    ``bisect_left`` over the ``edges`` tuple (a value equal to an edge lands
    *in* that edge's ``le`` bucket, as ``searchsorted(side="left")`` would)
    and scalar adds to the bucket, ``count`` and ``sum``.  A scalar
    ``bisect`` over a short tuple costs a fraction of a NumPy call.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        labels: tuple[tuple[str, str], ...] = (),
        edges: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        finite = tuple(float(e) for e in edges)
        if not finite:
            raise ValueError("a histogram needs at least one bucket edge")
        if any(b <= a for a, b in zip(finite, finite[1:])):
            raise ValueError("bucket edges must be strictly increasing")
        super().__init__(name, labels)
        self.edges = finite
        self._counts = [0] * (len(finite) + 1)
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        pending = self._pending
        pending.append(value)
        if len(pending) >= _FOLD_AT:
            self._fold()

    def _apply(self, updates: list) -> None:
        edges, counts = self.edges, self._counts
        overflow = len(edges)
        total = self._sum
        for value in updates:
            # NaN compares false against every edge; searchsorted sorts it
            # last, into the +Inf bucket, and so does this.
            counts[bisect_left(edges, value) if value == value else overflow] += 1
            total += value
        self._sum = total
        self._count += len(updates)

    @property
    def count(self) -> int:
        self._fold()
        return self._count

    @property
    def sum(self) -> float:
        self._fold()
        return self._sum

    @property
    def value(self) -> float:
        """The running mean — the scalar summary exports fall back to."""
        self._fold()
        return self._sum / self._count if self._count else 0.0

    def merge_counts(
        self, counts: Sequence[int], total_sum: float, total_count: int
    ) -> None:
        """Fold another histogram's per-bucket counts into this one.

        The driver-side half of worker metric propagation: a pool worker
        ships its histogram as ``(bucket counts, sum, count)`` and the
        driver adds them here.  Bucket layouts must match — the worker
        built its histogram from the same registration site.
        """
        incoming = [int(c) for c in counts]
        if len(incoming) != len(self._counts):
            raise ValueError(
                f"bucket count mismatch merging {self.name!r}: "
                f"({len(incoming)},) into ({len(self._counts)},)"
            )
        with self._lock:
            self._apply(self._take())
            for idx, count in enumerate(incoming):
                self._counts[idx] += count
            self._sum += float(total_sum)
            self._count += int(total_count)

    def bucket_counts(self) -> np.ndarray:
        """Per-bucket (non-cumulative) counts; last entry is the +Inf bucket."""
        with self._lock:
            self._apply(self._take())
            return np.array(self._counts, dtype=np.int64)

    def cumulative_counts(self) -> np.ndarray:
        """Cumulative ``le`` counts, the Prometheus exposition shape."""
        return np.cumsum(self.bucket_counts())

    def __repr__(self) -> str:
        self._fold()
        return (
            f"Histogram({self.name}{dict(self.labels)} "
            f"count={self._count} sum={self._sum})"
        )


class MetricsRegistry:
    """Get-or-create home of every metric, keyed by (name, labels).

    Re-requesting a metric returns the existing instance — the property
    that lets counters outlive the components that increment them.  A name
    registered as one kind cannot be re-registered as another.
    """

    enabled = True

    def __init__(self, default_buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        self.default_buckets = tuple(float(e) for e in default_buckets)
        self._metrics: dict[MetricKey, Counter | Gauge | Histogram] = {}
        self._lock = threading.Lock()

    def __getstate__(self) -> dict[str, Any]:
        state = self.__dict__.copy()
        del state["_lock"]
        return state

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    def _get_or_create(self, cls, name: str, labels: Mapping[str, Any], **kwargs):
        key: MetricKey = (name, _label_key(labels))
        with self._lock:
            metric = self._metrics.get(key)
            if metric is None:
                metric = cls(name, key[1], **kwargs)
                self._metrics[key] = metric
            elif not isinstance(metric, cls):
                raise TypeError(
                    f"metric {name!r} is already registered as a "
                    f"{metric.kind}, not a {cls.kind}"
                )
            return metric

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get_or_create(Counter, name, labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._get_or_create(Gauge, name, labels)

    def histogram(
        self, name: str, edges: Sequence[float] | None = None, **labels: Any
    ) -> Histogram:
        chosen = self.default_buckets if edges is None else edges
        return self._get_or_create(Histogram, name, labels, edges=chosen)

    # -- introspection / export ---------------------------------------------

    def __len__(self) -> int:
        return len(self._metrics)

    def collect(self) -> list[Counter | Gauge | Histogram]:
        """Every registered metric, sorted by (name, labels)."""
        with self._lock:
            return [self._metrics[key] for key in sorted(self._metrics)]

    def find(self, name: str) -> list[Counter | Gauge | Histogram]:
        """Every metric registered under one name (any label set)."""
        with self._lock:
            return [
                self._metrics[key] for key in sorted(self._metrics) if key[0] == name
            ]

    def value(self, name: str, **labels: Any) -> float:
        """Scalar value of one metric; 0 when it was never registered."""
        key: MetricKey = (name, _label_key(labels))
        with self._lock:
            metric = self._metrics.get(key)
        return metric.value if metric is not None else 0.0

    def total(self, name: str) -> float:
        """Sum of one name's scalar values across every label set."""
        return float(sum(metric.value for metric in self.find(name)))

    def as_dict(self) -> dict[str, float]:
        """Flat ``name{label="v",...}`` -> scalar value map (JSON-friendly)."""
        out: dict[str, float] = {}
        for metric in self.collect():
            if metric.labels:
                rendered = ",".join(f'{k}="{v}"' for k, v in metric.labels)
                out[f"{metric.name}{{{rendered}}}"] = metric.value
            else:
                out[metric.name] = metric.value
        return out

    def __iter__(self) -> Iterator[Counter | Gauge | Histogram]:
        return iter(self.collect())


# ---------------------------------------------------------------------------
# Null twins: same surface, no work, no state.
# ---------------------------------------------------------------------------


class NullCounter:
    kind = "counter"
    name = ""
    labels: tuple[tuple[str, str], ...] = ()
    value = 0.0

    def inc(self, value: float = 1.0) -> None:
        pass


class NullGauge:
    kind = "gauge"
    name = ""
    labels: tuple[tuple[str, str], ...] = ()
    value = 0.0

    def set(self, value: float) -> None:
        pass

    def add(self, value: float) -> None:
        pass


class NullHistogram:
    kind = "histogram"
    name = ""
    labels: tuple[tuple[str, str], ...] = ()
    edges: tuple[float, ...] = ()
    value = 0.0
    count = 0
    sum = 0.0

    def observe(self, value: float) -> None:
        pass

    def merge_counts(
        self, counts: Sequence[int], total_sum: float, total_count: int
    ) -> None:
        pass

    def bucket_counts(self) -> np.ndarray:
        return np.zeros(1, dtype=np.int64)

    def cumulative_counts(self) -> np.ndarray:
        return np.zeros(1, dtype=np.int64)


class NullRegistry:
    """The disabled registry: every lookup yields a shared no-op metric."""

    enabled = False
    default_buckets: tuple[float, ...] = DEFAULT_BUCKETS

    _COUNTER = NullCounter()
    _GAUGE = NullGauge()
    _HISTOGRAM = NullHistogram()

    def counter(self, name: str, **labels: Any) -> NullCounter:
        return self._COUNTER

    def gauge(self, name: str, **labels: Any) -> NullGauge:
        return self._GAUGE

    def histogram(
        self, name: str, edges: Sequence[float] | None = None, **labels: Any
    ) -> NullHistogram:
        return self._HISTOGRAM

    def __len__(self) -> int:
        return 0

    def collect(self) -> list:
        return []

    def find(self, name: str) -> list:
        return []

    def value(self, name: str, **labels: Any) -> float:
        return 0.0

    def total(self, name: str) -> float:
        return 0.0

    def as_dict(self) -> dict[str, float]:
        return {}

    def __iter__(self) -> Iterator:
        return iter(())
