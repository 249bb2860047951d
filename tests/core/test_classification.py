"""Unit tests for query classification."""

import pytest

from repro.core.classification import (
    ALL_CLASSES,
    G1,
    G2,
    G3,
    class_for_method,
    classify,
)
from repro.core.variables import JOIN_VARIABLES, UNARY_VARIABLES
from repro.engine.predicate import Comparison
from repro.engine.query import JoinQuery, SelectQuery


class TestRegistry:
    def test_labels_unique(self):
        labels = [c.label for c in ALL_CLASSES]
        assert len(set(labels)) == len(labels)

    def test_paper_classes_present(self):
        assert G1.access_method == "seq_scan"
        assert G2.access_method == "nonclustered_index_scan"
        assert G3.access_method == "hash_join"

    def test_class_for_method(self):
        assert class_for_method("unary", "seq_scan") is G1
        assert class_for_method("join", "hash_join") is G3

    def test_unknown_lookups_rejected(self):
        with pytest.raises(KeyError):
            class_for_method("unary", "warp_drive")

    def test_variables_by_family(self):
        assert G1.variables is UNARY_VARIABLES
        assert G3.variables is JOIN_VARIABLES


class TestClassify:
    def test_seq_scan_query_is_g1(self, small_database):
        query = SelectQuery("t1", ("a",), Comparison("b", "<", 50))
        assert classify(small_database, query) is G1

    def test_selective_indexed_query_is_g2(self, small_database):
        query = SelectQuery("t1", ("a",), Comparison("a", "<", 20))
        assert classify(small_database, query) is G2

    def test_clustered_query_is_gc(self, small_database):
        query = SelectQuery("t2", ("b",), Comparison("b", "<", 30))
        assert classify(small_database, query).label == "GC"

    def test_plain_join_is_g3(self, small_database):
        # Join on 'a': t1 has a non-clustered index on a, but the outer is
        # unreduced, so the rule picks hash join.
        query = JoinQuery("t2", "t1", "c", "c")
        assert classify(small_database, query) is G3

    def test_classify_accepts_sql(self, small_database):
        assert classify(small_database, "select a from t1 where b < 50") is G1

    def test_classification_matches_executed_plan(self, small_database):
        queries = [
            SelectQuery("t1", ("a",), Comparison("b", "<", 50)),
            SelectQuery("t1", ("a",), Comparison("a", "<", 20)),
            SelectQuery("t2", ("b",), Comparison("b", "<", 30)),
            JoinQuery("t2", "t1", "c", "c"),
        ]
        for query in queries:
            predicted = classify(small_database, query)
            executed = small_database.execute(query)
            assert executed.plan == predicted.access_method

    def test_unsupported_type_rejected(self, small_database):
        with pytest.raises(TypeError):
            classify(small_database, 42)
