"""Lazy-creation tests for the metrics registry.

Every recording shortcut (``inc``, ``observe``, ``set_gauge``) creates its
metric on first use. These tests pin that a second lookup of a name hands
back the same object, and that asking for a name under a different kind
still raises.
"""

import pytest

from repro.obs.metrics import MetricsRegistry


class TestLazyCreationRaces:
    def test_fast_path_returns_existing_metric(self):
        registry = MetricsRegistry()
        first = registry.counter("fast.path")
        assert registry.counter("fast.path") is first
        assert registry.histogram("fast.hist") is registry.histogram("fast.hist")
        assert registry.gauge("fast.gauge") is registry.gauge("fast.gauge")

    def test_kind_mismatch_still_raises(self):
        registry = MetricsRegistry()
        registry.inc("kind.mismatch")
        with pytest.raises(TypeError):
            registry.gauge("kind.mismatch")
        with pytest.raises(TypeError):
            registry.histogram("kind.mismatch")
