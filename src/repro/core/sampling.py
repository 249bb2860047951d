"""Query sampling: sample-size rules and sample collection.

Proposition 4.1: for the general qualitative regression cost model with
n quantitative explanatory variables and one qualitative variable with m
states, **at least 10·((n+1)·m + 1) observations** are needed — 10 per
parameter ((n+1) coefficient groups × m states, plus the error-term
variance), following the "sample at least 10 observations for every
parameter" rule of thumb [12].

Collection pairs every sample-query execution with a probing-query
execution in the same environment ("sampled probing query costs", §3.3),
and spaces executions out in simulated time so the dynamic environment
actually moves between samples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..engine.database import LocalDatabase
from ..engine.query import Query
from .probing import ProbingQuery
from .variables import Sample, SampleRecorder, VariableSet

#: Observations required per estimated parameter (textbook rule).
OBSERVATIONS_PER_PARAMETER = 10


def minimum_observations(n_variables: int, num_states: int) -> int:
    """Proposition 4.1's lower bound on the sample size."""
    if n_variables < 0:
        raise ValueError("n_variables must be non-negative")
    if num_states < 1:
        raise ValueError("num_states must be at least 1")
    return OBSERVATIONS_PER_PARAMETER * ((n_variables + 1) * num_states + 1)


def recommended_sample_size(
    variables: VariableSet,
    max_states: int,
    secondary_allowance: int = 2,
) -> int:
    """The paper's sizing rule (eq. (4)).

    The exact variable count is only known *after* selection, so size for
    the expected case: all basic variables plus a small allowance of
    secondary ones (|B| + 2), times the largest state count anticipated
    for the environment.
    """
    if max_states < 1:
        raise ValueError("max_states must be at least 1")
    if secondary_allowance < 0:
        raise ValueError("secondary_allowance must be non-negative")
    n_expected = len(variables.basic) + secondary_allowance
    return minimum_observations(n_expected, max_states)


@dataclass
class SamplingPlan:
    """How a sample run is to be executed."""

    #: Simulated seconds to let pass between consecutive sample queries,
    #: so the contention trace moves through its epochs.
    pause_seconds: float = 20.0


def collect_observations(
    database: LocalDatabase,
    queries: Sequence[Query | str],
    probe: ProbingQuery,
    plan: SamplingPlan | None = None,
) -> Sample:
    """Run sample *queries*, pairing each with a fresh probing cost.

    For each sample query the probing query runs first in the same
    environment; its cost is the row's *sampled probing cost*, used
    later to determine the contention state the sample executed in.
    The queries must all be unary or all joins (one sample holds one
    class family's variables); a query of the other family raises
    ``ValueError`` once it has run.
    """
    plan = plan or SamplingPlan()
    if plan.pause_seconds < 0:
        raise ValueError("pause_seconds must be non-negative")
    # Observed buffer-hit behaviour is a qualitative variable in its own
    # right: the probing query already ran through the same pool
    # (absorbing cache state into probing_cost, the paper's §3.3
    # mechanism), and the per-query hit rate is recorded so derived
    # models carry explicit provenance.
    recorder = SampleRecorder(pooled=database.buffer_pool is not None)
    for query in queries:
        probing_cost = probe.observe()
        recorder.record(database.execute(query), probing_cost)
        database.environment.advance(plan.pause_seconds)
    return recorder.sample()
