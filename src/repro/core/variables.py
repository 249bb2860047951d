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
from typing import Iterator, Mapping, Sequence

import numpy as np

from ..engine.buffer import hit_state_label
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
    """One row of a :class:`Sample`: a sample-query execution, reduced to
    regression inputs.

    ``values`` holds every candidate explanatory variable;
    ``probing_cost`` is the sampled probing-query cost associated with
    this execution (§3.3), used to determine its contention state.
    Nothing keeps these: a :class:`Sample` builds one, of Python floats,
    when it is indexed or iterated.
    """

    cost: float
    probing_cost: float
    values: dict[str, float]
    #: Contention level at execution (ground truth, for analysis only —
    #: the method itself never sees it).
    contention_level: float = float("nan")
    metadata: dict = field(default_factory=dict)


def _column(values, length: int | None = None, dtype=np.float64) -> np.ndarray:
    """A read-only view of *values* as a 1-D column (an array is shared,
    not copied, so slices of a sample share its memory)."""
    column = np.asarray(values, dtype=dtype).view()
    if column.ndim != 1 or (length is not None and column.shape[0] != length):
        raise ValueError(f"a sample column must be 1-D of length {length}")
    column.flags.writeable = False
    return column


class Sample:
    """A collected sample as its columns, one entry per sample query.

    ``cost``, ``probing_cost`` and ``contention_level`` are float64
    arrays, and ``values`` maps each Table-3 variable of the class
    family to one.  ``plan`` holds each execution's plan label, and at a
    site with a buffer pool ``buffer_hit_rate`` / ``buffer_hit_state``
    hold each execution's hit rate and its qualitative label (both
    ``None`` elsewhere).  Every array is read-only, so slices and
    :meth:`with_probing_cost` share them.

    Indexing with an integer builds that row's :class:`Observation`;
    iterating builds each row in turn.  Any other index — a slice, an
    index or boolean array — selects rows and returns a :class:`Sample`.
    """

    __slots__ = (
        "cost",
        "probing_cost",
        "values",
        "contention_level",
        "plan",
        "buffer_hit_rate",
        "buffer_hit_state",
    )

    def __init__(
        self,
        cost,
        probing_cost,
        values: Mapping[str, object],
        contention_level=None,
        plan=None,
        buffer_hit_rate=None,
        buffer_hit_state=None,
    ) -> None:
        self.cost = _column(cost)
        n = self.cost.shape[0]
        self.probing_cost = _column(probing_cost, n)
        self.values = {name: _column(column, n) for name, column in values.items()}
        self.contention_level = _column(
            np.full(n, np.nan) if contention_level is None else contention_level, n
        )
        self.plan = None if plan is None else _column(plan, n, object)
        if (buffer_hit_rate is None) != (buffer_hit_state is None):
            raise ValueError("buffer_hit_rate and buffer_hit_state come together")
        self.buffer_hit_rate = None if buffer_hit_rate is None else _column(buffer_hit_rate, n)
        self.buffer_hit_state = (
            None if buffer_hit_state is None else _column(buffer_hit_state, n, object)
        )

    def __len__(self) -> int:
        return self.cost.shape[0]

    def __getitem__(self, key):
        if isinstance(key, (int, np.integer)):
            return self._row(key)
        return Sample(
            self.cost[key],
            self.probing_cost[key],
            {name: column[key] for name, column in self.values.items()},
            self.contention_level[key],
            None if self.plan is None else self.plan[key],
            None if self.buffer_hit_rate is None else self.buffer_hit_rate[key],
            None if self.buffer_hit_state is None else self.buffer_hit_state[key],
        )

    def __iter__(self) -> Iterator[Observation]:
        return map(self._row, range(len(self)))

    def _row(self, i) -> Observation:
        metadata: dict = {}
        if self.plan is not None:
            metadata["plan"] = self.plan[i]
        if self.buffer_hit_rate is not None:
            metadata["buffer_hit_rate"] = float(self.buffer_hit_rate[i])
            metadata["buffer_hit_state"] = self.buffer_hit_state[i]
        return Observation(
            cost=float(self.cost[i]),
            probing_cost=float(self.probing_cost[i]),
            values={name: float(column[i]) for name, column in self.values.items()},
            contention_level=float(self.contention_level[i]),
            metadata=metadata,
        )

    def matrix(self, names: Sequence[str]) -> np.ndarray:
        """The (rows, len(names)) matrix of the variables *names*."""
        if not names:
            return np.empty((len(self), 0))
        return np.column_stack([self.values[name] for name in names])

    def with_probing_cost(self, probing_cost) -> "Sample":
        """This sample with *probing_cost* in place of its probing costs
        (e.g. estimated ones, paper eq. (2))."""
        return Sample(
            self.cost,
            probing_cost,
            self.values,
            self.contention_level,
            self.plan,
            self.buffer_hit_rate,
            self.buffer_hit_state,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Sample({len(self)} rows; {', '.join(self.values)})"


def variable_values(result: QueryResult) -> tuple[VariableSet, tuple[float, ...]]:
    """The Table-3 variable values of one execution, in the order of its
    class family's :attr:`VariableSet.all_names`."""
    query = result.query
    if isinstance(query, SelectQuery):
        (info,) = result.infos
        no = float(info.operand_cardinality)
        ni = float(info.intermediate_cardinality)
        nr = float(result.result.cardinality)
        lo = float(info.operand_tuple_length)
        lr = float(result.result.tuple_length)
        return UNARY_VARIABLES, (no, ni, nr, lo, lr, no * lo, nr * lr)
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
        return JOIN_VARIABLES, (
            n1, n2, ni1, ni2, nr, ni1 * ni2, l1, l2, lr, n1 * l1, n2 * l2, nr * lr,
        )
    raise TypeError(f"unsupported query type: {type(query).__name__}")


def extract_variables(result: QueryResult) -> dict[str, float]:
    """The Table-3 variable values of one execution, by name (what
    :meth:`~repro.core.model.MultiStateCostModel.predict` reads)."""
    variables, values = variable_values(result)
    return dict(zip(variables.all_names, values))


class SampleRecorder:
    """Accumulates executions as per-column lists; :meth:`sample` builds
    each column's array once.

    One sample holds one class family's variables: recording a unary
    execution after a join one (or the reverse) raises ``ValueError``.
    With *pooled*, each execution's buffer-hit rate and its qualitative
    label are recorded too.
    """

    def __init__(self, pooled: bool) -> None:
        self.pooled = pooled
        self._variables: VariableSet | None = None
        self._values: list[tuple[float, ...]] = []
        self._cost: list[float] = []
        self._probing_cost: list[float] = []
        self._level: list[float] = []
        self._plan: list[str] = []
        self._hit_rate: list[float] = []

    def record(self, result: QueryResult, probing_cost: float) -> None:
        """Add one execution and the probing cost sampled beside it."""
        variables, values = variable_values(result)
        if self._variables is None:
            self._variables = variables
        elif variables is not self._variables:
            raise ValueError(
                f"a {variables.family} query in a {self._variables.family} sample: "
                "one sample holds one class family's variables"
            )
        self._values.append(values)
        self._cost.append(result.elapsed)
        self._probing_cost.append(probing_cost)
        self._level.append(result.contention_level)
        self._plan.append(result.plan)
        if self.pooled:
            self._hit_rate.append(result.metrics.buffer_hit_rate)

    def sample(self) -> Sample:
        names = () if self._variables is None else self._variables.all_names
        # One (variables, rows) block: each variable's column is a
        # contiguous row of it.
        block = np.array(self._values, dtype=np.float64).T.copy()
        return Sample(
            self._cost,
            self._probing_cost,
            dict(zip(names, block)),
            self._level,
            self._plan,
            self._hit_rate if self.pooled else None,
            [hit_state_label(rate) for rate in self._hit_rate] if self.pooled else None,
        )


def check_observations(sample: Sample, names: Sequence[str]) -> None:
    """Validate that *sample* carries every variable in *names*, and a
    non-negative, non-NaN cost and probing cost in every row."""
    missing = [name for name in names if name not in sample.values]
    if missing:
        raise ValueError(f"sample lacks variables {missing}")
    for label, column in (("cost", sample.cost), ("probing cost", sample.probing_cost)):
        bad = np.flatnonzero(~(column >= 0.0))
        if bad.size:
            raise ValueError(f"observation {bad[0]}: negative or NaN {label}")
