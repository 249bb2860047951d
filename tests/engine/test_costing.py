"""Unit tests for cost profiles and elapsed-time simulation."""

import pytest

from repro.engine.costing import base_components, simulate_elapsed
from repro.engine.metrics import AccessInfo, ExecutionMetrics
from repro.engine.profiles import DB2_LIKE, ORACLE_LIKE


class TestProfiles:
    def test_profiles_validate(self):
        ORACLE_LIKE.validate()
        DB2_LIKE.validate()

    def test_profiles_differ(self):
        assert ORACLE_LIKE.t_init != DB2_LIKE.t_init
        assert ORACLE_LIKE.t_seq_page != DB2_LIKE.t_seq_page


class TestMetrics:
    def test_addition(self):
        a = ExecutionMetrics(sequential_page_reads=1, tuples_read=10)
        b = ExecutionMetrics(sequential_page_reads=2, hash_operations=5)
        c = a + b
        assert c.sequential_page_reads == 3
        assert c.tuples_read == 10
        assert c.hash_operations == 5

    def test_inplace_addition(self):
        a = ExecutionMetrics(random_page_reads=1)
        a += ExecutionMetrics(random_page_reads=4)
        assert a.random_page_reads == 5

    def test_total_page_reads(self):
        m = ExecutionMetrics(sequential_page_reads=3, random_page_reads=4)
        assert m.total_page_reads == 7

    def test_validate_rejects_negative(self):
        with pytest.raises(ValueError):
            ExecutionMetrics(tuples_read=-1).validate()

    def test_access_info_fields(self):
        info = AccessInfo("seq_scan", 100, 100, 24)
        assert info.method == "seq_scan"
        assert info.operand_cardinality == 100


class TestElapsedSimulation:
    METRICS = ExecutionMetrics(
        sequential_page_reads=100,
        random_page_reads=10,
        tuples_read=5000,
        tuples_evaluated=5000,
        tuples_output=100,
    )

    def test_base_components_sum(self):
        init, io, cpu = base_components(self.METRICS, ORACLE_LIKE)
        assert init == ORACLE_LIKE.t_init
        assert io == pytest.approx(
            100 * ORACLE_LIKE.t_seq_page + 10 * ORACLE_LIKE.t_rand_page
        )
        assert cpu > 0

    def test_elapsed_is_base_times_slowdown_times_noise(self):
        breakdown = simulate_elapsed(self.METRICS, ORACLE_LIKE, slowdown=3.0, noise=1.1)
        assert breakdown.elapsed == pytest.approx(breakdown.base_time * 3.0 * 1.1)

    def test_slowdown_scales_everything(self):
        idle = simulate_elapsed(self.METRICS, ORACLE_LIKE, slowdown=1.0)
        loaded = simulate_elapsed(self.METRICS, ORACLE_LIKE, slowdown=10.0)
        assert loaded.elapsed == pytest.approx(10 * idle.elapsed)

    def test_zero_work_still_pays_initialization(self):
        breakdown = simulate_elapsed(ExecutionMetrics(), ORACLE_LIKE)
        assert breakdown.elapsed == pytest.approx(ORACLE_LIKE.t_init)

    def test_invalid_slowdown_rejected(self):
        with pytest.raises(ValueError):
            simulate_elapsed(self.METRICS, ORACLE_LIKE, slowdown=0.0)

    def test_invalid_noise_rejected(self):
        with pytest.raises(ValueError):
            simulate_elapsed(self.METRICS, ORACLE_LIKE, noise=-1.0)

    def test_profiles_produce_different_times(self):
        a = simulate_elapsed(self.METRICS, ORACLE_LIKE).elapsed
        b = simulate_elapsed(self.METRICS, DB2_LIKE).elapsed
        assert a != b
