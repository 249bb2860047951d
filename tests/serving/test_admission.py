"""Admission: config validation and the one policy a front end has.

A front end serves on its caller's thread, so ``workers`` and
``admission_policy`` each accept one value, and every submitted request
is executed.
"""

import pytest

from repro.serving import ServingConfig, ServingFrontEnd

from .conftest import query_mix


class TestConfigValidation:
    def test_defaults_are_valid(self):
        config = ServingConfig()
        assert config.workers == 1
        assert config.admission_policy == "block"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"workers": 0},
            {"queue_depth": 0},
            {"workers": 2},
            {"admission_policy": "drop"},
            {"admission_policy": "reject"},
        ],
    )
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ServingConfig(**kwargs)


class TestBlockPolicy:
    def test_backpressure_never_drops(self, serving_mdbs):
        server, _ = serving_mdbs
        queries = query_mix() * 4
        config = ServingConfig(queue_depth=2, admission_policy="block")
        with ServingFrontEnd(server, config) as frontend:
            tickets = frontend.serve(queries)
            stats = frontend.stats()
        assert all(t.ok for t in tickets)
        assert stats.rejected == stats.timed_out == 0
        assert stats.completed == stats.submitted == len(queries)
