"""Process-local metrics: counters, gauges, and log-bucket histograms.

Every serving-layer component already keeps private tallies (the
engine's ``stats`` dict, the pacer's ``history`` list, the promoter's
``events``), but none of them share a vocabulary, none can be merged
across processes, and the one latency record that matters — the
engine's submit→score log — was an unbounded ``list[float]``.  This
module is the common currency instead:

* :class:`Counter` — a monotone total.  ``inc`` is one locked add.
* :class:`Gauge` — a point-in-time level (queue depth, spend vs.
  curve).  Merging gauges *sums* them: across shards, queue depths and
  spends add, which is the semantics sharded serving needs.
* :class:`Histogram` — fixed log-scale buckets (a DDSketch-style
  gamma grid): ``record`` is O(1) (one ``log`` and one dict add), the
  memory is bounded by the number of *occupied* buckets regardless of
  how many values stream through, and :meth:`Histogram.quantile`
  returns a value within ``relative_error`` of the exact order
  statistic — the guarantee the latency-quantile claims are made on.

All three are thread-safe (one small lock per metric; an instrumented
:class:`~repro.runtime.ProcessBackend` counts completions from its
executor's result thread) and all three produce immutable
**snapshots** that support ``merge`` (counters and histograms add,
gauges sum, min/max combine — commutative and associative, so N
shards' snapshots fold in any order) and ``delta`` (new minus old: the
per-day accounting the traffic replay reports).

A :class:`MetricsRegistry` is just a named collection of metrics with
a one-call :meth:`MetricsRegistry.snapshot`; the
:class:`~repro.obs.NullRegistry` twin hands out shared no-op metrics
so un-instrumented paths cost one no-op method call and allocate
nothing.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from typing import Iterator, Mapping

__all__ = [
    "Counter",
    "CounterSnapshot",
    "Gauge",
    "GaugeSnapshot",
    "Histogram",
    "HistogramSnapshot",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "Snapshot",
]

_KINDS = ("counter", "gauge", "histogram")


def _check_name(name: str) -> str:
    if not name or not isinstance(name, str):
        raise ValueError(f"metric name must be a non-empty string, got {name!r}")
    return name


# ---------------------------------------------------------------------------
# snapshots: immutable, mergeable, diffable
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class CounterSnapshot:
    """Frozen counter state."""

    name: str
    value: float

    kind = "counter"

    def merge(self, other: "CounterSnapshot") -> "CounterSnapshot":
        """Combine two shards' totals (commutative: values add)."""
        return CounterSnapshot(self.name, self.value + other.value)

    def delta(self, older: "CounterSnapshot") -> "CounterSnapshot":
        """What happened between ``older`` and now (monotone: >= 0)."""
        if older.value > self.value:
            raise ValueError(
                f"counter {self.name!r} went backwards "
                f"({older.value} -> {self.value}); not a prior snapshot"
            )
        return CounterSnapshot(self.name, self.value - older.value)

    def to_dict(self) -> dict:
        return {"kind": "counter", "value": self.value}


@dataclass(frozen=True)
class GaugeSnapshot:
    """Frozen gauge level."""

    name: str
    value: float

    kind = "gauge"

    def merge(self, other: "GaugeSnapshot") -> "GaugeSnapshot":
        """Across shards levels add (queue depths, spend): sum."""
        return GaugeSnapshot(self.name, self.value + other.value)

    def delta(self, older: "GaugeSnapshot") -> "GaugeSnapshot":
        """Signed level change between the two snapshots."""
        return GaugeSnapshot(self.name, self.value - older.value)

    def to_dict(self) -> dict:
        return {"kind": "gauge", "value": self.value}


@dataclass(frozen=True)
class HistogramSnapshot:
    """Frozen histogram state: gamma grid + occupied bucket counts.

    ``buckets[i]`` counts values in ``(gamma**(i-1), gamma**i]``;
    ``zero_count`` holds values below the trackable floor.  ``count``,
    ``sum``, ``min`` and ``max`` are exact (not bucket-derived).
    """

    name: str
    gamma: float
    count: int
    sum: float
    min: float
    max: float
    zero_count: int
    buckets: Mapping[int, int] = field(default_factory=dict)

    kind = "histogram"

    def merge(self, other: "HistogramSnapshot") -> "HistogramSnapshot":
        """Fold two shards' distributions (bucket-wise add)."""
        if not math.isclose(self.gamma, other.gamma):
            raise ValueError(
                f"cannot merge histograms {self.name!r} with different "
                f"gamma grids ({self.gamma} vs {other.gamma})"
            )
        merged = dict(self.buckets)
        for idx, c in other.buckets.items():
            merged[idx] = merged.get(idx, 0) + c
        return HistogramSnapshot(
            name=self.name,
            gamma=self.gamma,
            count=self.count + other.count,
            sum=self.sum + other.sum,
            min=min(self.min, other.min),
            max=max(self.max, other.max),
            zero_count=self.zero_count + other.zero_count,
            buckets=merged,
        )

    def delta(self, older: "HistogramSnapshot") -> "HistogramSnapshot":
        """Distribution of the values recorded *since* ``older``.

        Bucket counts subtract exactly.  ``min``/``max`` are not
        recoverable for the window alone, so the delta carries the
        current extremes (exact whenever the window saw them).
        """
        if not math.isclose(self.gamma, older.gamma):
            raise ValueError(
                f"cannot diff histograms {self.name!r} with different "
                f"gamma grids ({self.gamma} vs {older.gamma})"
            )
        if older.count > self.count:
            raise ValueError(
                f"histogram {self.name!r} count went backwards "
                f"({older.count} -> {self.count}); not a prior snapshot"
            )
        buckets = {}
        for idx, c in self.buckets.items():
            d = c - older.buckets.get(idx, 0)
            if d < 0:
                raise ValueError(
                    f"histogram {self.name!r} bucket {idx} went backwards"
                )
            if d:
                buckets[idx] = d
        return HistogramSnapshot(
            name=self.name,
            gamma=self.gamma,
            count=self.count - older.count,
            sum=self.sum - older.sum,
            min=self.min,
            max=self.max,
            zero_count=self.zero_count - older.zero_count,
            buckets=buckets,
        )

    def quantile(self, q: float) -> float:
        """Value within the sketch's relative error of the exact
        q-quantile of everything recorded (see
        :meth:`Histogram.quantile`)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"q must be in [0, 1], got {q}")
        if self.count == 0:
            raise ValueError(f"histogram {self.name!r} is empty")
        # rank of the exact order statistic being approximated
        rank = int(math.ceil(q * self.count))
        rank = max(1, min(rank, self.count))
        if rank <= self.zero_count:
            return 0.0
        seen = self.zero_count
        for idx in sorted(self.buckets):
            seen += self.buckets[idx]
            if seen >= rank:
                # geometric bucket midpoint: relative error <= (gamma-1)/(gamma+1)
                return 2.0 * self.gamma ** idx / (self.gamma + 1.0)
        return self.max  # numerical safety: rank beyond the last bucket

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    @property
    def relative_error(self) -> float:
        """Worst-case relative error of :meth:`quantile`."""
        return (self.gamma - 1.0) / (self.gamma + 1.0)

    def to_dict(self) -> dict:
        return {
            "kind": "histogram",
            "gamma": self.gamma,
            "count": self.count,
            "sum": self.sum,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "zero_count": self.zero_count,
            # JSON objects key on strings; sorted for stable output
            "buckets": {str(i): self.buckets[i] for i in sorted(self.buckets)},
        }


MetricSnapshot = CounterSnapshot | GaugeSnapshot | HistogramSnapshot


def _snapshot_from_dict(name: str, d: Mapping) -> MetricSnapshot:
    kind = d.get("kind")
    if kind == "counter":
        return CounterSnapshot(name, float(d["value"]))
    if kind == "gauge":
        return GaugeSnapshot(name, float(d["value"]))
    if kind == "histogram":
        count = int(d["count"])
        return HistogramSnapshot(
            name=name,
            gamma=float(d["gamma"]),
            count=count,
            sum=float(d["sum"]),
            min=float(d["min"]) if count else math.inf,
            max=float(d["max"]) if count else -math.inf,
            zero_count=int(d["zero_count"]),
            buckets={int(i): int(c) for i, c in d["buckets"].items()},
        )
    raise ValueError(f"unknown metric kind {kind!r} for {name!r}")


class Snapshot(Mapping):
    """One frozen view of a registry: ``{name: metric snapshot}``.

    Behaves as a read-only mapping, and lifts the per-metric ``merge``
    / ``delta`` to whole registries: ``merge`` unions the name sets
    (shared names fold metric-wise — commutative, the sharded-serving
    contract), ``delta`` reports what changed since an older snapshot
    (names absent from the older side pass through whole).
    """

    def __init__(self, metrics: Mapping[str, MetricSnapshot] | None = None) -> None:
        self._metrics: dict[str, MetricSnapshot] = dict(metrics or {})

    def __getitem__(self, name: str) -> MetricSnapshot:
        return self._metrics[name]

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self._metrics))

    def __len__(self) -> int:
        return len(self._metrics)

    def __repr__(self) -> str:
        return f"Snapshot({len(self._metrics)} metrics)"

    def merge(self, other: "Snapshot") -> "Snapshot":
        """Union the two snapshots, folding shared names metric-wise."""
        merged = dict(self._metrics)
        for name, metric in other._metrics.items():
            mine = merged.get(name)
            if mine is None:
                merged[name] = metric
            else:
                if mine.kind != metric.kind:
                    raise ValueError(
                        f"metric {name!r} is a {mine.kind} on one side and "
                        f"a {metric.kind} on the other"
                    )
                merged[name] = mine.merge(metric)
        return Snapshot(merged)

    def delta(self, older: "Snapshot") -> "Snapshot":
        """What each metric did between ``older`` and this snapshot."""
        out: dict[str, MetricSnapshot] = {}
        for name, metric in self._metrics.items():
            old = older._metrics.get(name)
            out[name] = metric if old is None else metric.delta(old)
        return Snapshot(out)

    def to_dict(self) -> dict:
        """JSON-ready nested dict (see ``Snapshot.from_dict``)."""
        return {name: self._metrics[name].to_dict() for name in self}

    @classmethod
    def from_dict(cls, d: Mapping) -> "Snapshot":
        return cls({name: _snapshot_from_dict(name, md) for name, md in d.items()})


# ---------------------------------------------------------------------------
# live metrics
# ---------------------------------------------------------------------------
class Counter:
    """A monotone total.  ``inc`` only; never decremented."""

    __slots__ = ("name", "help", "_value", "_lock")

    kind = "counter"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = _check_name(name)
        self.help = help
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, n: float = 1.0) -> None:
        if n < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (inc {n})")
        with self._lock:
            self._value += n

    @property
    def value(self) -> float:
        return self._value

    def snapshot(self) -> CounterSnapshot:
        return CounterSnapshot(self.name, self._value)

    def __repr__(self) -> str:
        return f"Counter({self.name!r}, value={self._value})"


class Gauge:
    """A settable level (may move both ways)."""

    __slots__ = ("name", "help", "_value", "_lock")

    kind = "gauge"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = _check_name(name)
        self.help = help
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        self._value = float(value)

    def inc(self, n: float = 1.0) -> None:
        with self._lock:
            self._value += n

    def dec(self, n: float = 1.0) -> None:
        self.inc(-n)

    @property
    def value(self) -> float:
        return self._value

    def snapshot(self) -> GaugeSnapshot:
        return GaugeSnapshot(self.name, self._value)

    def __repr__(self) -> str:
        return f"Gauge({self.name!r}, value={self._value})"


class Histogram:
    """Streaming distribution sketch on a fixed log-scale bucket grid.

    Bucket ``i`` covers ``(gamma**(i-1), gamma**i]`` with ``gamma =
    (1 + relative_error) / (1 - relative_error)``; reporting the
    geometric bucket midpoint makes every quantile exact to within
    ``relative_error`` (default 1%), with O(1) record cost and memory
    proportional to the value *range* (occupied buckets), not the
    value *count* — which is why it is the engine's only latency
    record.

    Values at or below ``min_trackable`` (default 1ns for
    seconds-denominated metrics) land in a dedicated zero bucket and
    report as 0.0; negative values are rejected.
    """

    __slots__ = (
        "name", "help", "gamma", "_log_gamma", "min_trackable",
        "_count", "_sum", "_min", "_max", "_zero", "_buckets", "_lock",
    )

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        relative_error: float = 0.01,
        min_trackable: float = 1e-9,
    ) -> None:
        if not 0.0 < relative_error < 1.0:
            raise ValueError(f"relative_error must be in (0, 1), got {relative_error}")
        if not min_trackable > 0:
            raise ValueError(f"min_trackable must be > 0, got {min_trackable}")
        self.name = _check_name(name)
        self.help = help
        self.gamma = (1.0 + relative_error) / (1.0 - relative_error)
        self._log_gamma = math.log(self.gamma)
        self.min_trackable = float(min_trackable)
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._zero = 0
        self._buckets: dict[int, int] = {}
        self._lock = threading.Lock()

    def record(self, value: float) -> None:
        """O(1): one log, one dict add."""
        value = float(value)
        if value < 0.0 or math.isnan(value):
            raise ValueError(
                f"histogram {self.name!r} takes non-negative values, got {value}"
            )
        with self._lock:
            self._count += 1
            self._sum += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value
            if value <= self.min_trackable:
                self._zero += 1
            else:
                idx = math.ceil(math.log(value) / self._log_gamma)
                self._buckets[idx] = self._buckets.get(idx, 0) + 1

    def record_many(self, values) -> None:
        """:meth:`record` each of ``values`` in turn, under one lock.

        The same state as one ``record`` call per value: ``sum`` adds
        them in order, so its bits match too.  A NaN or negative value
        raises ValueError with the values before it recorded, as the
        ``record`` loop leaves it.
        """
        log, ceil = math.log, math.ceil
        log_gamma, floor, buckets = self._log_gamma, self.min_trackable, self._buckets
        with self._lock:
            count, total, lo, hi, zero = self._count, self._sum, self._min, self._max, self._zero
            try:
                for value in values:
                    value = float(value)
                    if not value >= 0.0:  # negative or NaN
                        raise ValueError(
                            f"histogram {self.name!r} takes non-negative values, got {value}"
                        )
                    count += 1
                    total += value
                    if value < lo:
                        lo = value
                    if value > hi:
                        hi = value
                    if value <= floor:
                        zero += 1
                    else:
                        idx = ceil(log(value) / log_gamma)
                        buckets[idx] = buckets.get(idx, 0) + 1
            finally:
                self._count, self._sum, self._min, self._max, self._zero = count, total, lo, hi, zero

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def min(self) -> float:
        """Smallest recorded value, exact (``inf`` while empty)."""
        return self._min

    @property
    def max(self) -> float:
        """Largest recorded value, exact (``-inf`` while empty)."""
        return self._max

    def quantile(self, q: float) -> float:
        """Approximate q-quantile, exact to within ``relative_error``."""
        return self.snapshot().quantile(q)

    def snapshot(self) -> HistogramSnapshot:
        with self._lock:
            return HistogramSnapshot(
                name=self.name,
                gamma=self.gamma,
                count=self._count,
                sum=self._sum,
                min=self._min,
                max=self._max,
                zero_count=self._zero,
                buckets=dict(self._buckets),
            )

    def __repr__(self) -> str:
        return f"Histogram({self.name!r}, count={self._count})"


Metric = Counter | Gauge | Histogram


# ---------------------------------------------------------------------------
# registries
# ---------------------------------------------------------------------------
class MetricsRegistry:
    """A named collection of live metrics with one-call snapshots.

    ``counter`` / ``gauge`` / ``histogram`` get-or-create by name (the
    lazy path for rare events like promoter verdicts); :meth:`adopt`
    registers a metric the component built itself (the hot path: the
    engine owns its counters and hands them over for export, so
    registration costs nothing at record time).  One registry per
    serving shard; merge their :meth:`snapshot`\\ s for the fleet view.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, Metric] = {}
        self._lock = threading.Lock()

    def _get_or_create(self, cls, name: str, *args, **kwargs):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = cls(name, *args, **kwargs)
                self._metrics[name] = metric
            elif not isinstance(metric, cls):
                raise ValueError(
                    f"metric {name!r} already registered as {metric.kind}"
                )
            return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help)

    def histogram(
        self,
        name: str,
        help: str = "",
        relative_error: float = 0.01,
        min_trackable: float = 1e-9,
    ) -> Histogram:
        return self._get_or_create(Histogram, name, help, relative_error, min_trackable)

    def adopt(self, metric: Metric) -> Metric:
        """Register a component-built metric under its own name.

        Replaces any previous holder of the name: a component
        re-constructed against the same registry re-registers its
        metrics, and the freshest instance is the live one.  Returns
        the metric, so ``self._c = metrics.adopt(Counter(...))`` reads
        naturally at construction sites.
        """
        with self._lock:
            self._metrics[metric.name] = metric
        return metric

    def get(self, name: str) -> Metric:
        return self._metrics[name]

    def names(self) -> list[str]:
        return sorted(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    def snapshot(self) -> Snapshot:
        """Freeze every registered metric (one consistent-ish view;
        each metric is internally consistent, cross-metric skew is one
        in-flight operation at most)."""
        with self._lock:
            metrics = list(self._metrics.values())
        return Snapshot({m.name: m.snapshot() for m in metrics})

    def span(self, name: str, clock=None):
        """Clock-aware tracing span; see :func:`repro.obs.tracing.span`."""
        from repro.obs.tracing import span as _span

        return _span(self, name, clock=clock)

    def __repr__(self) -> str:
        return f"MetricsRegistry({len(self._metrics)} metrics)"


class _NullCounter:
    __slots__ = ()
    kind = "counter"
    name = "null"
    value = 0.0

    def inc(self, n: float = 1.0) -> None:
        pass

    def snapshot(self) -> CounterSnapshot:
        return CounterSnapshot("null", 0.0)


class _NullGauge:
    __slots__ = ()
    kind = "gauge"
    name = "null"
    value = 0.0

    def set(self, value: float) -> None:
        pass

    def inc(self, n: float = 1.0) -> None:
        pass

    def dec(self, n: float = 1.0) -> None:
        pass

    def snapshot(self) -> GaugeSnapshot:
        return GaugeSnapshot("null", 0.0)


class _NullHistogram:
    __slots__ = ()
    kind = "histogram"
    name = "null"
    count = 0
    sum = 0.0

    def record(self, value: float) -> None:
        pass

    def quantile(self, q: float) -> float:
        raise ValueError("null histogram records nothing")

    def snapshot(self) -> HistogramSnapshot:
        return HistogramSnapshot("null", 1.0, 0, 0.0, math.inf, -math.inf, 0, {})


class _NullSpan:
    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        pass


_NULL_COUNTER = _NullCounter()
_NULL_GAUGE = _NullGauge()
_NULL_HISTOGRAM = _NullHistogram()
_NULL_SPAN = _NullSpan()


class NullRegistry:
    """The disabled twin of :class:`MetricsRegistry`.

    Hands out shared no-op metrics and no-op spans: an un-instrumented
    component pays one no-op method call per would-be record and
    allocates nothing, which is what keeps the serial hot paths
    bit-identical with observability off.  ``adopt`` returns the
    metric untouched (components that own real metrics — the engine's
    stats counters — keep them; they are simply not collected).
    """

    def counter(self, name: str, help: str = "") -> _NullCounter:
        return _NULL_COUNTER

    def gauge(self, name: str, help: str = "") -> _NullGauge:
        return _NULL_GAUGE

    def histogram(self, name: str, help: str = "", **kwargs) -> _NullHistogram:
        return _NULL_HISTOGRAM

    def adopt(self, metric: Metric) -> Metric:
        return metric

    def names(self) -> list[str]:
        return []

    def __contains__(self, name: str) -> bool:
        return False

    def __len__(self) -> int:
        return 0

    def snapshot(self) -> Snapshot:
        return Snapshot()

    def span(self, name: str, clock=None) -> _NullSpan:
        return _NULL_SPAN

    def __repr__(self) -> str:
        return "NullRegistry()"


#: the shared disabled registry — the default ``metrics=`` everywhere
NULL_REGISTRY = NullRegistry()
