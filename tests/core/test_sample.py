"""The columnar sample: what ``collect`` keeps, and what it costs to keep.

A :class:`~repro.core.variables.Sample` holds one float64 array per
column instead of one :class:`~repro.core.variables.Observation` per
query.  Its columns must be exactly what the per-query reference loop
(:mod:`tests.core.reference`) builds, in order and bit for bit; the
objects it keeps must not grow with its length; and the rows it yields
carry Python floats, as callers that sum ``cost`` and ``probing_cost``
expect.
"""

import gc

import numpy as np
import pytest

from repro.core import CostModelBuilder, G1, G3
from repro.core.probing import default_probing_query
from repro.core.sampling import collect_observations
from repro.core.variables import Observation, Sample
from repro.workload import make_site

from .reference import reference_collect

TABLES = ("R1", "R2", "R3")


def twin_sites(buffer_pages):
    """Two identical sites: one for ``collect``, one for the reference."""
    return [
        make_site(
            "sample_site", environment_kind="uniform", scale=0.01, seed=31,
            buffer_pages=buffer_pages,
        )
        for _ in range(2)
    ]


def bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


@pytest.mark.parametrize("buffer_pages", [None, 60], ids=["pool-less", "pooled"])
@pytest.mark.parametrize("query_class", [G1, G3], ids=["unary", "join"])
def test_columns_equal_the_per_query_reference(buffer_pages, query_class):
    site, twin = twin_sites(buffer_pages)
    queries = site.generator.queries_for(query_class, 40, tables=TABLES)
    sample = collect_observations(site.database, queries, default_probing_query(site.database))
    rows = reference_collect(twin.database, queries, default_probing_query(twin.database))

    assert len(sample) == len(rows) == 40
    assert list(sample.values) == list(query_class.variables.all_names)
    for name, column in sample.values.items():
        assert column.dtype == np.float64
        assert column.tobytes() == bits([row.values[name] for row in rows]), name
    assert sample.cost.tobytes() == bits([row.cost for row in rows])
    assert sample.probing_cost.tobytes() == bits([row.probing_cost for row in rows])
    assert sample.contention_level.tobytes() == bits([row.contention_level for row in rows])
    assert sample.plan.tolist() == [row.metadata["plan"] for row in rows]
    if buffer_pages is None:
        assert sample.buffer_hit_rate is None and sample.buffer_hit_state is None
        assert all("buffer_hit_rate" not in row.metadata for row in rows)
    else:
        assert sample.buffer_hit_rate.tobytes() == bits(
            [row.metadata["buffer_hit_rate"] for row in rows]
        )
        assert sample.buffer_hit_state.tolist() == [
            row.metadata["buffer_hit_state"] for row in rows
        ]
    # Row by row, too: the row view is the reference's observation.
    assert list(sample) == rows


def tracked_objects_kept(sample) -> int:
    """gc-tracked objects that go when *sample* does (the caller's
    reference must be the only other one)."""
    holder = [sample]
    del sample
    gc.collect()
    kept = len(gc.get_objects())
    holder.clear()
    gc.collect()
    return kept - len(gc.get_objects())


def test_a_sample_keeps_no_object_per_query():
    site = make_site("sample_site", environment_kind="uniform", scale=0.01, seed=31)
    builder = CostModelBuilder(site.database)
    small = tracked_objects_kept(builder.collect(site.generator.queries_for(G1, 23)))
    large = tracked_objects_kept(builder.collect(site.generator.queries_for(G1, 230)))
    # The sample itself (numpy arrays, and so a dict of them, are not
    # gc-tracked), give or take what a collection frees beside it; one
    # row object per query would keep 23 and 230.
    assert small <= 4 and large <= 4, (small, large)


def test_rows_carry_python_floats():
    site = make_site(
        "sample_site", environment_kind="uniform", scale=0.01, seed=31, buffer_pages=60
    )
    sample = CostModelBuilder(site.database).collect(site.generator.queries_for(G1, 5))
    for row in sample:
        assert isinstance(row, Observation)
        scalars = [row.cost, row.probing_cost, row.contention_level,
                   row.metadata["buffer_hit_rate"], *row.values.values()]
        assert {type(x) for x in scalars} == {float}
        assert type(row.metadata["plan"]) is str
        assert type(row.metadata["buffer_hit_state"]) is str
    assert sum(o.cost + o.probing_cost for o in sample) == sum(
        c + p for c, p in zip(sample.cost.tolist(), sample.probing_cost.tolist())
    )


def test_a_mixed_unary_and_join_collect_raises_at_the_first_other_family_query():
    """One sample holds one class family's variables: the first query
    decides the family, and a query of the other family raises once it
    has run (the queries before it have run too; nothing is returned)."""
    site = make_site("sample_site", environment_kind="uniform", scale=0.01, seed=31)
    unary = site.generator.queries_for(G1, 2, tables=TABLES)
    join = site.generator.queries_for(G3, 2, tables=TABLES)
    builder = CostModelBuilder(site.database)
    for queries, message in ((unary + join, "a join query in a unary sample"),
                             (join + unary, "a unary query in a join sample")):
        with pytest.raises(ValueError, match=message):
            builder.collect(queries)


class TestSampleAccess:
    @pytest.fixture
    def sample(self):
        return Sample(
            cost=[1.0, 2.0, 3.0, 4.0],
            probing_cost=[0.1, 0.2, 0.3, 0.4],
            values={"no": [10.0, 20.0, 30.0, 40.0]},
            plan=["seq_scan", "index_scan", "seq_scan", "seq_scan"],
        )

    def test_an_integer_index_is_a_row(self, sample):
        last = sample[-1]
        assert (last.cost, last.probing_cost, last.values) == (4.0, 0.4, {"no": 40.0})
        assert np.isnan(last.contention_level)  # not recorded by hand
        assert last.metadata == {"plan": "seq_scan"}
        assert sample[1].metadata == {"plan": "index_scan"}
        with pytest.raises(IndexError):
            sample[4]

    def test_slices_and_masks_are_samples_sharing_the_columns(self, sample):
        head = sample[:2]
        assert isinstance(head, Sample) and len(head) == 2
        assert np.shares_memory(head.cost, sample.cost)
        picked = sample[np.arange(4) % 2 == 1]
        assert picked.values["no"].tolist() == [20.0, 40.0]
        assert picked.plan.tolist() == ["index_scan", "seq_scan"]

    def test_columns_are_read_only(self, sample):
        with pytest.raises(ValueError):
            sample.cost[0] = 0.0
        with pytest.raises(ValueError):
            sample[:2].values["no"][0] = 0.0

    def test_with_probing_cost_swaps_only_that_column(self, sample):
        swapped = sample.with_probing_cost([0.4, 0.3, 0.2, 0.1])
        assert swapped.probing_cost.tolist() == [0.4, 0.3, 0.2, 0.1]
        assert np.shares_memory(swapped.cost, sample.cost)
        assert sample.probing_cost.tolist() == [0.1, 0.2, 0.3, 0.4]

    def test_columns_of_another_length_are_rejected(self):
        with pytest.raises(ValueError):
            Sample(cost=[1.0, 2.0], probing_cost=[0.1], values={})
        with pytest.raises(ValueError):
            Sample(cost=[1.0], probing_cost=[0.1], values={"no": [1.0, 2.0]})
