"""Unit tests for the metrics registry: counters, gauges, histograms."""

import random
import zlib

import numpy as np
import pytest

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    quantile,
)


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        c = Counter("c")
        assert c.value == 0
        c.add()
        c.add(4)
        assert c.value == 5

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter("c").add(-1)


class TestGauge:
    def test_unset_is_none(self):
        assert Gauge("g").value is None

    def test_set_overwrites(self):
        g = Gauge("g")
        g.set(3.0)
        g.set(1.5)
        assert g.value == 1.5

    def test_add_accumulates_from_zero(self):
        g = Gauge("g")
        g.add(2.0)
        g.add(-0.5)
        assert g.value == 1.5


class TestQuantileFunction:
    def test_matches_numpy_linear_interpolation(self, rng):
        values = sorted(rng.normal(size=501))
        for q in (0.0, 0.25, 0.5, 0.75, 0.9, 0.95, 1.0):
            assert quantile(values, q) == pytest.approx(
                float(np.quantile(values, q))
            )

    def test_single_value(self):
        assert quantile([7.0], 0.95) == 7.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            quantile([], 0.5)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            quantile([1.0], 1.5)


class TestHistogram:
    def test_exact_summary_statistics(self, rng):
        h = Histogram("h")
        values = rng.uniform(1.0, 9.0, size=300)
        for v in values:
            h.record(v)
        assert h.count == 300
        assert h.sum == pytest.approx(float(values.sum()))
        assert h.minimum == pytest.approx(float(values.min()))
        assert h.maximum == pytest.approx(float(values.max()))
        assert h.mean == pytest.approx(float(values.mean()))

    def test_quantiles_exact_below_reservoir_size(self, rng):
        h = Histogram("h", reservoir_size=1000)
        values = rng.exponential(size=500)
        for v in values:
            h.record(v)
        for q in (0.5, 0.95):
            assert h.quantile(q) == pytest.approx(float(np.quantile(values, q)))
        p50, p95 = h.quantiles((0.5, 0.95))
        assert p50 <= p95

    def test_reservoir_bounds_memory(self, rng):
        h = Histogram("h", reservoir_size=64)
        values = rng.uniform(0.0, 1.0, size=10_000)
        for v in values:
            h.record(v)
        assert h.count == 10_000
        assert len(h._reservoir) == 64
        # Quantiles still land inside the observed range.
        assert 0.0 <= h.quantile(0.5) <= 1.0
        # Algorithm R on the name-seeded RNG, slot for slot: the same
        # reservoir in every process and every version.
        draws = random.Random(zlib.crc32(b"h"))
        reference = []
        for count, v in enumerate(values, start=1):
            if len(reference) < 64:
                reference.append(float(v))
            elif (slot := draws.randrange(count)) < 64:
                reference[slot] = float(v)
        assert h._reservoir == reference

    def test_empty_histogram(self):
        h = Histogram("h")
        assert h.count == 0
        assert h.minimum is None and h.maximum is None and h.mean is None
        with pytest.raises(ValueError):
            h.quantile(0.5)

    def test_invalid_reservoir_size(self):
        with pytest.raises(ValueError):
            Histogram("h", reservoir_size=0)


class TestMetricsRegistry:
    def test_get_or_create_returns_same_object(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.histogram("h") is registry.histogram("h")

    def test_kind_mismatch_rejected(self):
        registry = MetricsRegistry()
        registry.counter("a")
        with pytest.raises(TypeError):
            registry.gauge("a")

    def test_shortcuts_record(self):
        registry = MetricsRegistry()
        registry.inc("c", 2)
        registry.set_gauge("g", 7.0)
        registry.observe("h", 1.0)
        registry.observe("h", 3.0)
        snap = registry.snapshot()
        assert snap["c"] == {"kind": "counter", "value": 2.0}
        assert snap["g"] == {"kind": "gauge", "value": 7.0}
        assert snap["h"]["count"] == 2
        assert snap["h"]["mean"] == pytest.approx(2.0)
        assert "p50" in snap["h"] and "p95" in snap["h"]

    def test_counter_value_without_side_effect(self):
        registry = MetricsRegistry()
        assert registry.counter_value("missing") == 0.0
        assert registry.names() == []
        registry.inc("c")
        assert registry.counter_value("c") == 1.0

    def test_counters_lists_only_counters(self):
        registry = MetricsRegistry()
        registry.inc("b", 2)
        registry.inc("a", 3)
        registry.set_gauge("g", 1.0)
        registry.observe("h", 1.0)
        assert registry.counters() == {"a": 3.0, "b": 2.0}

    def test_reset_clears_everything(self):
        registry = MetricsRegistry()
        registry.inc("c")
        registry.reset()
        assert registry.snapshot() == {}

    def test_snapshot_is_json_serializable(self):
        import json

        registry = MetricsRegistry()
        registry.inc("c")
        registry.set_gauge("g", 1.0)
        registry.observe("h", 2.0)
        json.dumps(registry.snapshot())

    def test_global_registry_swap(self, fresh_registry):
        from repro import obs

        obs.inc("x")
        assert fresh_registry.counter_value("x") == 1.0
        obs.observe("y", 5.0)
        obs.set_gauge("z", 2.0)
        assert set(fresh_registry.names()) == {"x", "y", "z"}
