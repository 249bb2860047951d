"""Predicate expressions: evaluation, analysis, and selectivity estimation.

Predicates are trees of comparisons joined by AND/OR/NOT.  A predicate
is evaluated over a table's column arrays at once, as one boolean mask
(:meth:`Predicate.evaluate_batch`): validation against the schema types
each constant with its column (:meth:`Predicate.validate`), and a
constant of the other numeric kind is replaced by its exact split in the
column's dtype (:func:`~repro.engine.types.key_split`), so numpy decides
every comparison as Python would.  Besides evaluation, the module
supports the two analyses the engine (and the paper's query
classification) needs:

* extracting *sargable* terms — ``column <op> constant`` comparisons that
  an index on that column could serve, together with the residual
  predicate that must still be evaluated per tuple; and
* selectivity estimation from catalog statistics (uniformity assumption,
  independence across conjuncts), which both the local access-path
  optimizer and the workload generator rely on.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Any, Iterator, Optional

import numpy as np

from .errors import QueryError
from .schema import TableSchema, TableStatistics
from .types import DataType, key_split

# Comparison operators, with their evaluation functions.  The same table
# drives batch evaluation (a numpy array on the left) and the
# single-value cases of selectivity estimation, since numpy overloads
# the operators.
_OPS = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}

#: The side of :func:`~repro.engine.types.key_split` each range operator
#: compares against: ``key < v`` is ``key < split``, ``key <= v`` is
#: ``key <= split``, and ``>=`` / ``>`` are their negations.
_SIDES = {"<": "left", ">=": "left", "<=": "right", ">": "right"}

#: Default selectivity guesses when statistics are unavailable
#: (System R's classic magic numbers).
_DEFAULT_SELECTIVITY = {
    "=": 0.1,
    "!=": 0.9,
    "<": 1.0 / 3.0,
    "<=": 1.0 / 3.0,
    ">": 1.0 / 3.0,
    ">=": 1.0 / 3.0,
}


class Predicate:
    """Abstract base for predicate nodes."""

    def evaluate_batch(self, table) -> np.ndarray:
        """A boolean mask over a validated :class:`Table`'s rows, in
        physical row order: which rows satisfy this predicate."""
        raise NotImplementedError

    def columns(self) -> set[str]:
        """Names of all columns referenced anywhere in the tree."""
        raise NotImplementedError

    def selectivity(self, stats: TableStatistics) -> float:
        """Estimated fraction of rows satisfying this predicate (in [0, 1])."""
        raise NotImplementedError

    def validate(self, schema: TableSchema) -> None:
        """Raise :class:`QueryError` if a referenced column is missing, or
        if a comparison's constant cannot compare with its column.

        A constant compares with an INT or FLOAT column if it is an
        ``int`` or ``float``, and with a STR column if it is a ``str``;
        a ``bool`` compares with none.
        """
        missing = {name for name in self.columns() if name not in schema}
        if missing:
            raise QueryError(
                f"predicate references unknown column(s): {sorted(missing)}"
            )
        for term in _comparisons(self):
            dtype = schema.column(term.column).dtype
            types = str if dtype is DataType.STR else (int, float)
            if isinstance(term.value, bool) or not isinstance(term.value, types):
                raise QueryError(
                    f"cannot compare {dtype.value} column {term.column} with {term.value!r}"
                )

    # Conjunction convenience: ``p & q`` builds And(p, q).
    def __and__(self, other: "Predicate") -> "Predicate":
        return And(self, other)

    def __or__(self, other: "Predicate") -> "Predicate":
        return Or(self, other)

    def __invert__(self) -> "Predicate":
        return Not(self)


@dataclass(frozen=True)
class Comparison(Predicate):
    """``column <op> constant``."""

    column: str
    op: str
    value: Any

    def __post_init__(self) -> None:
        if self.op not in _OPS:
            raise QueryError(f"unknown comparison operator: {self.op!r}")
        if isinstance(self.value, float) and self.value != self.value:
            # NaN satisfies no comparison; an index range would read it as +inf.
            raise QueryError(f"comparison with NaN: {self.column} {self.op} nan")

    def evaluate_batch(self, table) -> np.ndarray:
        keys = table.column_array(self.column)
        kind = keys.dtype.kind
        if kind == "O":
            # Strings: a bare str operand would be compared as fixed-width
            # unicode, which drops a trailing NUL; an object scalar is not.
            return _OPS[self.op](keys, np.array(self.value, dtype=object))
        if self.op in _SIDES:
            return _OPS[self.op](keys, key_split(kind, self.value, _SIDES[self.op]))
        # key == v is key >= left split and key <= right split: when the
        # two differ, no key of this dtype equals the constant.
        low, high = key_split(kind, self.value, "left"), key_split(kind, self.value, "right")
        equal = keys == low if low == high else np.zeros(len(keys), dtype=bool)
        return equal if self.op == "=" else ~equal

    def columns(self) -> set[str]:
        return {self.column}

    def selectivity(self, stats: TableStatistics) -> float:
        col = stats.column(self.column)
        if col.minimum is None or stats.cardinality == 0:
            return _DEFAULT_SELECTIVITY[self.op]
        if self.op == "=":
            if col.distinct_count <= 0:
                return _DEFAULT_SELECTIVITY["="]
            return min(1.0, 1.0 / col.distinct_count)
        if self.op == "!=":
            if col.distinct_count <= 0:
                return _DEFAULT_SELECTIVITY["!="]
            return max(0.0, 1.0 - 1.0 / col.distinct_count)
        # Range operators: interpolate within [min, max] when numeric.
        lo, hi = col.minimum, col.maximum
        if not isinstance(lo, numbers.Real) or isinstance(lo, bool):
            return _DEFAULT_SELECTIVITY[self.op]
        if hi == lo:
            # Degenerate single-value column: the comparison either always
            # or never holds.
            holds = _OPS[self.op](lo, self.value)
            return 1.0 if holds else 0.0
        span = float(hi - lo)
        if self.op in ("<", "<="):
            frac = (self.value - lo) / span
        else:
            frac = (hi - self.value) / span
        return min(1.0, max(0.0, frac))

    def __str__(self) -> str:
        return f"{self.column} {self.op} {self.value!r}"


@dataclass(frozen=True)
class And(Predicate):
    left: Predicate
    right: Predicate

    def evaluate_batch(self, table) -> np.ndarray:
        return self.left.evaluate_batch(table) & self.right.evaluate_batch(table)

    def columns(self) -> set[str]:
        return self.left.columns() | self.right.columns()

    def selectivity(self, stats: TableStatistics) -> float:
        return self.left.selectivity(stats) * self.right.selectivity(stats)

    def __str__(self) -> str:
        return f"({self.left} AND {self.right})"


@dataclass(frozen=True)
class Or(Predicate):
    left: Predicate
    right: Predicate

    def evaluate_batch(self, table) -> np.ndarray:
        return self.left.evaluate_batch(table) | self.right.evaluate_batch(table)

    def columns(self) -> set[str]:
        return self.left.columns() | self.right.columns()

    def selectivity(self, stats: TableStatistics) -> float:
        a = self.left.selectivity(stats)
        b = self.right.selectivity(stats)
        return min(1.0, a + b - a * b)

    def __str__(self) -> str:
        return f"({self.left} OR {self.right})"


@dataclass(frozen=True)
class Not(Predicate):
    operand: Predicate

    def evaluate_batch(self, table) -> np.ndarray:
        return ~self.operand.evaluate_batch(table)

    def columns(self) -> set[str]:
        return self.operand.columns()

    def selectivity(self, stats: TableStatistics) -> float:
        return max(0.0, 1.0 - self.operand.selectivity(stats))

    def __str__(self) -> str:
        return f"(NOT {self.operand})"


class TruePredicate(Predicate):
    """Always-true predicate: a query with no WHERE clause."""

    def evaluate_batch(self, table) -> np.ndarray:
        return np.ones(len(table), dtype=bool)

    def columns(self) -> set[str]:
        return set()

    def selectivity(self, stats: TableStatistics) -> float:
        return 1.0

    def __str__(self) -> str:
        return "TRUE"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, TruePredicate)

    def __hash__(self) -> int:
        return hash("TruePredicate")


TRUE = TruePredicate()


# ---------------------------------------------------------------------------
# Sargable analysis
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KeyRange:
    """A (possibly half-open) key interval an index can scan."""

    low: Any = None
    high: Any = None
    low_inclusive: bool = True
    high_inclusive: bool = True

    @property
    def is_point(self) -> bool:
        return (
            self.low is not None
            and self.low == self.high
            and self.low_inclusive
            and self.high_inclusive
        )

    @property
    def is_bounded(self) -> bool:
        return self.low is not None or self.high is not None


def conjuncts(pred: Predicate) -> list[Predicate]:
    """Flatten a conjunction into its top-level AND-ed terms."""
    if isinstance(pred, And):
        return conjuncts(pred.left) + conjuncts(pred.right)
    if isinstance(pred, TruePredicate):
        return []
    return [pred]


def _comparisons(pred: Predicate) -> Iterator[Comparison]:
    """Every comparison in the tree, left to right."""
    if isinstance(pred, Comparison):
        yield pred
    elif isinstance(pred, (And, Or)):
        yield from _comparisons(pred.left)
        yield from _comparisons(pred.right)
    elif isinstance(pred, Not):
        yield from _comparisons(pred.operand)


def map_columns(pred: Predicate, rename) -> Predicate:
    """A copy of *pred* with every column name passed through *rename*."""
    if isinstance(pred, Comparison):
        return Comparison(rename(pred.column), pred.op, pred.value)
    if isinstance(pred, (And, Or)):
        return type(pred)(
            map_columns(pred.left, rename), map_columns(pred.right, rename)
        )
    if isinstance(pred, Not):
        return Not(map_columns(pred.operand, rename))
    return pred


def conjoin(terms: list[Predicate]) -> Predicate:
    """Rebuild a predicate from conjunct terms (TRUE when empty)."""
    if not terms:
        return TRUE
    result = terms[0]
    for term in terms[1:]:
        result = And(result, term)
    return result


def extract_key_range(
    pred: Predicate, column: str
) -> tuple[Optional[KeyRange], Predicate]:
    """Split *pred* into an index-servable key range on *column* + residual.

    Only top-level AND-ed comparisons on *column* with operators
    ``= < <= > >=`` are sargable; everything else (OR trees, NOT, ``!=``)
    stays in the residual.  Returns ``(None, pred)`` when nothing on the
    column is sargable.
    """
    range_terms: list[Comparison] = []
    residual: list[Predicate] = []
    for term in conjuncts(pred):
        if (
            isinstance(term, Comparison)
            and term.column == column
            and term.op in ("=", "<", "<=", ">", ">=")
        ):
            range_terms.append(term)
        else:
            residual.append(term)
    if not range_terms:
        return None, pred

    low: Any = None
    high: Any = None
    low_inc = True
    high_inc = True
    for term in range_terms:
        if term.op == "=":
            # An equality is >=v AND <=v: tighten each side the way
            # those operators would.  It must never *loosen* an
            # exclusive bound at the same key — ``a<1 AND a=1`` is the
            # empty range [1, 1), not the point [1, 1].
            if low is None or term.value > low:
                low, low_inc = term.value, True
            if high is None or term.value < high:
                high, high_inc = term.value, True
        elif term.op in (">", ">="):
            inc = term.op == ">="
            if low is None or term.value > low or (term.value == low and low_inc and not inc):
                low, low_inc = term.value, inc
        else:  # < or <=
            inc = term.op == "<="
            if high is None or term.value < high or (term.value == high and high_inc and not inc):
                high, high_inc = term.value, inc
    return KeyRange(low, high, low_inc, high_inc), conjoin(residual)
