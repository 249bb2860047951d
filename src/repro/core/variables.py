"""Explanatory variables for cost models — the paper's Table 3.

For a **unary** query class:

===========  =========  ==========================================
name         set        meaning
===========  =========  ==========================================
``no``       basic      size (cardinality) of operand table
``ni``       basic      size of intermediate table (operand reduced
                        by the index-servable predicate)
``nr``       basic      size of result table
``lo``       secondary  tuple length of operand table
``lr``       secondary  tuple length of result table
``tlo``      secondary  operand table length  (no * lo)
``tlr``      secondary  result table length   (nr * lr)
===========  =========  ==========================================

For a **join** query class:

===========  =========  ==========================================
``n1, n2``   basic      sizes of the operand tables
``ni1, ni2`` basic      sizes of the intermediate tables
``nr``       basic      size of the result table
``nixni``    basic      size of the Cartesian product of the
                        intermediate tables (ni1 * ni2)
``l1, l2``   secondary  operand tuple lengths
``lr``       secondary  result tuple length
``tl1, tl2`` secondary  operand table lengths
``tlr``      secondary  result table length
===========  =========  ==========================================

All are *globally observable*: cardinalities and tuple lengths come from
the MDBS catalog or from selectivity estimates; none require looking
inside the local DBMS.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from ..engine.database import QueryResult
from ..engine.query import JoinQuery, SelectQuery


@dataclass(frozen=True)
class VariableSet:
    """Ordered basic and secondary explanatory variables for a class family."""

    family: str
    basic: tuple[str, ...]
    secondary: tuple[str, ...]

    @property
    def all_names(self) -> tuple[str, ...]:
        return self.basic + self.secondary

    def __contains__(self, name: str) -> bool:
        return name in self.basic or name in self.secondary


UNARY_VARIABLES = VariableSet(
    family="unary",
    basic=("no", "ni", "nr"),
    secondary=("lo", "lr", "tlo", "tlr"),
)

JOIN_VARIABLES = VariableSet(
    family="join",
    basic=("n1", "n2", "ni1", "ni2", "nr", "nixni"),
    secondary=("l1", "l2", "lr", "tl1", "tl2", "tlr"),
)


@dataclass
class Observation:
    """One sample-query execution, reduced to regression inputs.

    ``values`` holds every candidate explanatory variable;
    ``probing_cost`` is the sampled probing-query cost associated with
    this execution (§3.3), used to determine its contention state.
    """

    cost: float
    probing_cost: float
    values: dict[str, float]
    #: Contention level at execution (ground truth, for analysis only —
    #: the method itself never sees it).
    contention_level: float = float("nan")
    metadata: dict = field(default_factory=dict)


def extract_variables(result: QueryResult) -> dict[str, float]:
    """Compute the Table-3 variable values from one execution's results."""
    query = result.query
    if isinstance(query, SelectQuery):
        (info,) = result.infos
        no = float(info.operand_cardinality)
        ni = float(info.intermediate_cardinality)
        nr = float(result.result.cardinality)
        lo = float(info.operand_tuple_length)
        lr = float(result.result.tuple_length)
        return {
            "no": no,
            "ni": ni,
            "nr": nr,
            "lo": lo,
            "lr": lr,
            "tlo": no * lo,
            "tlr": nr * lr,
        }
    if isinstance(query, JoinQuery):
        left, right = result.infos
        n1 = float(left.operand_cardinality)
        n2 = float(right.operand_cardinality)
        ni1 = float(left.intermediate_cardinality)
        ni2 = float(right.intermediate_cardinality)
        nr = float(result.result.cardinality)
        l1 = float(left.operand_tuple_length)
        l2 = float(right.operand_tuple_length)
        lr = float(result.result.tuple_length)
        return {
            "n1": n1,
            "n2": n2,
            "ni1": ni1,
            "ni2": ni2,
            "nr": nr,
            "nixni": ni1 * ni2,
            "l1": l1,
            "l2": l2,
            "lr": lr,
            "tl1": n1 * l1,
            "tl2": n2 * l2,
            "tlr": nr * lr,
        }
    raise TypeError(f"unsupported query type: {type(query).__name__}")


def observation_from_result(
    result: QueryResult, probing_cost: float, **metadata
) -> Observation:
    """Build an :class:`Observation` from an executed query."""
    return Observation(
        cost=result.elapsed,
        probing_cost=probing_cost,
        values=extract_variables(result),
        contention_level=result.contention_level,
        metadata=dict(metadata),
    )


def probing_costs(observations: list[Observation]) -> list[float]:
    """The sampled probing-query costs."""
    return [obs.probing_cost for obs in observations]


def check_observations(
    observations: list[Observation], names: Mapping[int, str] | tuple[str, ...]
) -> None:
    """Validate observations carry every variable and a finite cost."""
    wanted = tuple(names.values()) if isinstance(names, Mapping) else tuple(names)
    for idx, obs in enumerate(observations):
        if not (obs.cost >= 0.0):
            raise ValueError(f"observation {idx}: negative or NaN cost")
        if not (obs.probing_cost >= 0.0):
            raise ValueError(f"observation {idx}: negative or NaN probing cost")
        missing = [n for n in wanted if n not in obs.values]
        if missing:
            raise ValueError(f"observation {idx}: missing variables {missing}")
