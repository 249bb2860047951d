"""Metrics: counters, gauges, and streaming histograms.

A :class:`MetricsRegistry` owns named metrics, created lazily on first
use so call sites never need registration boilerplate:

* :class:`Counter` — a monotonically increasing total (queries run,
  cache hits, pages read);
* :class:`Gauge` — a last-written value (latest estimated cost,
  current contention level);
* :class:`Histogram` — streaming distribution summary: exact count /
  sum / min / max plus quantiles over a bounded reservoir sample, so
  memory stays constant no matter how many values are recorded.

Recording into an existing metric is one ``dict.get`` plus the
metric's own update.  The global registry is always live, so the
per-execution path records into it only the totals the obs dashboard
prints (:func:`repro.obs.expose.render_dashboard`); everything else an
execution produces stays on the object that owns it.  A registry
belongs to one process and is recorded into from that process's one
thread.
"""

from __future__ import annotations

import math
import random
import zlib
from typing import Iterable, Sequence

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "set_registry",
    "quantile",
]


def quantile(sorted_values: Sequence[float], q: float) -> float:
    """The *q*-quantile of pre-sorted values (linear interpolation,
    matching ``numpy.quantile``'s default method)."""
    if not sorted_values:
        raise ValueError("quantile of empty sequence")
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must be in [0, 1]")
    n = len(sorted_values)
    if n == 1:
        return float(sorted_values[0])
    position = q * (n - 1)
    lower = math.floor(position)
    fraction = position - lower
    if fraction == 0.0:
        return float(sorted_values[lower])
    return float(
        sorted_values[lower]
        + (sorted_values[lower + 1] - sorted_values[lower]) * fraction
    )


class Counter:
    """A monotonically increasing counter."""

    __slots__ = ("name", "_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0.0

    def add(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge instead")
        self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.name}={self._value})"


class Gauge:
    """A last-written value."""

    __slots__ = ("name", "_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value: float | None = None

    def set(self, value: float) -> None:
        self._value = float(value)

    def add(self, delta: float) -> None:
        self._value = (self._value or 0.0) + delta

    @property
    def value(self) -> float | None:
        return self._value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Gauge({self.name}={self._value})"


class Histogram:
    """Streaming distribution summary with bounded memory.

    Count, sum, min, and max are exact; quantiles come from a uniform
    reservoir sample of at most ``reservoir_size`` values (exact while
    fewer values than that have been recorded).  The reservoir RNG is a
    per-instance ``random.Random`` seeded from a stable digest of the
    metric name (``hash()`` is salted per process, which would make
    quantiles differ between pool workers and their parent), so
    identically named histograms fed identical values sample
    identically in every process.
    """

    __slots__ = ("name", "reservoir_size", "_count", "_sum", "_min", "_max",
                 "_reservoir", "_getrandbits")

    def __init__(self, name: str, reservoir_size: int = 4096) -> None:
        if reservoir_size <= 0:
            raise ValueError("reservoir_size must be positive")
        self.name = name
        self.reservoir_size = reservoir_size
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._reservoir: list[float] = []
        self._getrandbits = random.Random(zlib.crc32(name.encode("utf-8"))).getrandbits

    def record(self, value: float) -> None:
        value = float(value)
        count = self._count = self._count + 1
        self._sum += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        if count <= self.reservoir_size:
            self._reservoir.append(value)
        else:
            # ``Random.randrange(count)``, draw for draw, without its
            # two Python-level calls: rejection-sample k-bit ints.
            getrandbits = self._getrandbits
            bits = count.bit_length()
            slot = getrandbits(bits)
            while slot >= count:
                slot = getrandbits(bits)
            if slot < self.reservoir_size:
                self._reservoir[slot] = value

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def minimum(self) -> float | None:
        return None if self._count == 0 else self._min

    @property
    def maximum(self) -> float | None:
        return None if self._count == 0 else self._max

    @property
    def mean(self) -> float | None:
        return None if self._count == 0 else self._sum / self._count

    def quantile(self, q: float) -> float:
        return quantile(sorted(self._reservoir), q)

    def quantiles(self, qs: Iterable[float]) -> list[float]:
        values = sorted(self._reservoir)
        return [quantile(values, q) for q in qs]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Histogram({self.name}, n={self._count})"


class MetricsRegistry:
    """Named metrics, created lazily on first use.

    Asking for an existing name returns the same object; asking for it
    as a different metric kind raises.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}

    def _get_or_create(self, name: str, kind, *args):
        metric = self._metrics.get(name)
        if metric is None:
            metric = kind(name, *args)
            self._metrics[name] = metric
        elif not isinstance(metric, kind):
            raise TypeError(
                f"metric {name!r} is a {type(metric).__name__}, "
                f"not a {kind.__name__}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, Gauge)

    def histogram(self, name: str, reservoir_size: int = 4096) -> Histogram:
        return self._get_or_create(name, Histogram, reservoir_size)

    # -- recording shortcuts (the hot-path API) -----------------------------
    #
    # Each inlines _get_or_create's hit, so recording into an existing
    # metric costs one dict read and the metric's own method.

    def inc(self, name: str, amount: float = 1.0) -> None:
        metric = self._metrics.get(name)
        if type(metric) is not Counter:
            metric = self.counter(name)
        metric.add(amount)

    def set_gauge(self, name: str, value: float) -> None:
        metric = self._metrics.get(name)
        if type(metric) is not Gauge:
            metric = self.gauge(name)
        metric.set(value)

    def observe(self, name: str, value: float) -> None:
        metric = self._metrics.get(name)
        if type(metric) is not Histogram:
            metric = self.histogram(name)
        metric.record(value)

    # -- inspection -------------------------------------------------------

    def counter_value(self, name: str, default: float = 0.0) -> float:
        """A counter's total without creating it as a side effect."""
        metric = self._metrics.get(name)
        return metric.value if isinstance(metric, Counter) else default

    def gauge_value(self, name: str, default: float | None = None) -> float | None:
        """A gauge's last-written value without creating it as a side effect."""
        metric = self._metrics.get(name)
        if isinstance(metric, Gauge) and metric.value is not None:
            return metric.value
        return default

    def counters(self) -> dict[str, float]:
        """Every counter's current total, by name."""
        return {
            name: metric.value
            for name, metric in sorted(self._metrics.items())
            if isinstance(metric, Counter)
        }

    def names(self) -> list[str]:
        return sorted(self._metrics)

    def snapshot(self) -> dict[str, dict]:
        """A JSON-serializable dump of every metric's current state."""
        metrics = self._metrics
        out: dict[str, dict] = {}
        for name in sorted(metrics):
            metric = metrics[name]
            if isinstance(metric, Counter):
                out[name] = {"kind": "counter", "value": metric.value}
            elif isinstance(metric, Gauge):
                out[name] = {"kind": "gauge", "value": metric.value}
            else:
                entry: dict = {
                    "kind": "histogram",
                    "count": metric.count,
                    "sum": metric.sum,
                    "min": metric.minimum,
                    "max": metric.maximum,
                    "mean": metric.mean,
                }
                if metric.count:
                    entry["p50"], entry["p95"] = metric.quantiles((0.5, 0.95))
                out[name] = entry
        return out

    def reset(self) -> None:
        self._metrics.clear()


# ---------------------------------------------------------------------------
# The global registry
# ---------------------------------------------------------------------------

_active_registry = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    return _active_registry


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Install *registry* globally; returns the previous one."""
    global _active_registry
    previous = _active_registry
    _active_registry = registry
    return previous
