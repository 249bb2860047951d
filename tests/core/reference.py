"""Reference implementations the columnar sample is compared with.

One :class:`~repro.core.variables.Observation` per sample query, built
from its :class:`~repro.engine.database.QueryResult` and the probing
cost sampled beside it — the per-query loop a
:class:`~repro.core.variables.Sample` replaces.  Its rows must equal,
column by column and bit for bit, what ``collect_observations`` keeps.
"""

from repro.core.sampling import SamplingPlan
from repro.core.variables import Observation, extract_variables
from repro.engine.buffer import hit_state_label


def observation_from_result(result, probing_cost: float, **metadata) -> Observation:
    """One execution as an :class:`Observation`."""
    return Observation(
        cost=result.elapsed,
        probing_cost=probing_cost,
        values=extract_variables(result),
        contention_level=result.contention_level,
        metadata=dict(metadata),
    )


def reference_collect(database, queries, probe, plan=SamplingPlan()) -> list[Observation]:
    """``collect_observations`` one row object at a time."""
    observations = []
    for query in queries:
        probing_cost = probe.observe()
        result = database.execute(query)
        extra = {}
        if database.buffer_pool is not None:
            hit_rate = result.metrics.buffer_hit_rate
            extra = {"buffer_hit_rate": hit_rate, "buffer_hit_state": hit_state_label(hit_rate)}
        observations.append(
            observation_from_result(result, probing_cost, plan=result.plan, **extra)
        )
        database.environment.advance(plan.pause_seconds)
    return observations
