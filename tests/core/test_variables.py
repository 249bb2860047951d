"""Unit tests for explanatory-variable sets and observation extraction."""

import pytest

from repro.core.probing import ProbingQuery
from repro.core.sampling import collect_observations
from repro.core.variables import (
    JOIN_VARIABLES,
    Sample,
    UNARY_VARIABLES,
    check_observations,
    extract_variables,
)
from repro.engine.predicate import Comparison
from repro.engine.query import JoinQuery, SelectQuery

from .reference import observation_from_result


class TestVariableSets:
    def test_unary_matches_paper_table3(self):
        assert UNARY_VARIABLES.basic == ("no", "ni", "nr")
        assert set(UNARY_VARIABLES.secondary) == {"lo", "lr", "tlo", "tlr"}

    def test_join_matches_paper_table3(self):
        assert set(JOIN_VARIABLES.basic) == {"n1", "n2", "ni1", "ni2", "nr", "nixni"}
        assert len(JOIN_VARIABLES.secondary) == 6

    def test_membership(self):
        assert "no" in UNARY_VARIABLES
        assert "nixni" in JOIN_VARIABLES
        assert "zz" not in UNARY_VARIABLES


class TestExtraction:
    def test_unary_extraction(self, small_database):
        result = small_database.execute(
            SelectQuery("t1", ("a", "b"), Comparison("a", "<", 200))
        )
        values = extract_variables(result)
        table = small_database.catalog.table("t1")
        assert values["no"] == table.cardinality
        assert values["nr"] == result.result.cardinality
        assert values["lo"] == table.tuple_length
        assert values["lr"] == table.schema.projected_tuple_length(("a", "b"))
        assert values["tlo"] == values["no"] * values["lo"]
        assert values["tlr"] == values["nr"] * values["lr"]
        # Index scan on a: the intermediate is the index-range subset.
        assert values["ni"] == result.infos[0].intermediate_cardinality

    def test_join_extraction(self, small_database):
        query = JoinQuery(
            "t1", "t2", "c", "c", ("t1.a", "t2.b"), Comparison("b", "<", 50)
        )
        result = small_database.execute(query)
        values = extract_variables(result)
        assert values["n1"] == small_database.catalog.table("t1").cardinality
        assert values["n2"] == small_database.catalog.table("t2").cardinality
        assert values["nixni"] == values["ni1"] * values["ni2"]
        assert values["nr"] == result.result.cardinality
        assert values["lr"] == result.result.tuple_length

    def test_observation_from_result(self, small_database):
        """A sample's row is what the reference builds from the same
        execution and probing cost."""
        probe = ProbingQuery(small_database, SelectQuery("t2", ("a",)))
        saved = small_database.save_state()
        (row,) = collect_observations(small_database, [SelectQuery("t1", ("a",))], probe)
        small_database.restore_state(saved)
        probing_cost = probe.observe()
        result = small_database.execute(SelectQuery("t1", ("a",)))
        obs = observation_from_result(result, probing_cost, plan=result.plan)
        assert row == obs
        assert obs.cost == result.elapsed
        assert obs.metadata["plan"] == result.plan
        assert obs.contention_level == result.contention_level


class TestObservationHelpers:
    def make_sample(self, cost=(1.0,), probing=(0.1,), **values):
        return Sample(cost=cost, probing_cost=probing, values=values)

    def test_probing_costs(self):
        sample = self.make_sample(cost=(0.0, 1.0, 2.0), probing=(0.1,) * 3, no=(0.0, 1.0, 2.0))
        assert sample.probing_cost.tolist() == [0.1, 0.1, 0.1]

    def test_check_observations_passes(self):
        check_observations(self.make_sample(no=(1.0,)), ("no",))

    def test_check_observations_missing_variable(self):
        with pytest.raises(ValueError, match="lacks variables"):
            check_observations(self.make_sample(no=(1.0,)), ("no", "nr"))

    def test_check_observations_negative_cost(self):
        with pytest.raises(ValueError, match="observation 1: negative or NaN cost"):
            check_observations(
                self.make_sample(cost=(1.0, -1.0), probing=(0.1, 0.1), no=(1.0, 2.0)), ("no",)
            )

    def test_check_observations_nan_probing(self):
        with pytest.raises(ValueError, match="NaN probing cost"):
            check_observations(self.make_sample(probing=(float("nan"),), no=(1.0,)), ("no",))
