"""Table schemas: column definitions, widths, and derived statistics.

The paper's explanatory variables (Table 3) are all derived from schema
and catalog statistics visible at the global level: cardinalities, tuple
lengths, and their products (table lengths).  :class:`TableSchema` is the
single source of truth for tuple length.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import SchemaError
from .types import DataType, Row


@dataclass(frozen=True)
class Column:
    """A single column definition.

    Parameters
    ----------
    name:
        Column name, unique within its table.
    dtype:
        Scalar :class:`~repro.engine.types.DataType`.
    width:
        Storage width in bytes.  Defaults to the type's natural width;
        wider STR columns let workloads vary tuple length, which the
        paper uses as a secondary explanatory variable.
    """

    name: str
    dtype: DataType
    width: int = 0

    def __post_init__(self) -> None:
        if not self.name or not self.name.isidentifier():
            raise SchemaError(f"invalid column name: {self.name!r}")
        if self.width == 0:
            object.__setattr__(self, "width", self.dtype.default_width)
        if self.width <= 0:
            raise SchemaError(f"column {self.name}: width must be positive")

    def validate(self, value: Any) -> Any:
        """Validate and coerce *value* for this column."""
        return self.dtype.validate(value)


#: Array dtype of each column type: each holds its type's values exactly
#: (INT is bounded to int64 at ingest) and compares, sorts and searches
#: them as Python does — strings as Python objects, since fixed-width
#: unicode would drop a trailing NUL.
ARRAY_DTYPES = {
    DataType.INT: np.dtype(np.int64),
    DataType.FLOAT: np.dtype(np.float64),
    DataType.STR: np.dtype(object),
}


def _exactly_valid(dtype: DataType, values: Sequence[Any]) -> bool:
    """Whether ``dtype.validate`` returns every one of *values* unchanged,
    an INT value beyond int64 aside (its array refuses it).

    Each must have exactly the column's Python type, and a FLOAT value
    must not be NaN.  A NaN makes the sum NaN; so do ``inf`` and ``-inf``
    together, which the row-by-row check then accepts.
    """
    if dtype is not DataType.FLOAT:
        return set(map(type, values)) <= {dtype.python_type}
    return set(map(type, values)) <= {float} and not math.isnan(sum(values))


class TableSchema:
    """An ordered collection of :class:`Column` objects with name lookup.

    Immutable once built, so the facts every query reads — the column
    names, the tuple length, each column's width — are computed here
    once, not per access.
    """

    def __init__(self, name: str, columns: Sequence[Column]) -> None:
        if not name or not name.isidentifier():
            raise SchemaError(f"invalid table name: {name!r}")
        if not columns:
            raise SchemaError(f"table {name}: at least one column is required")
        names = [c.name for c in columns]
        if len(set(names)) != len(names):
            raise SchemaError(f"table {name}: duplicate column names")
        self.name = name
        self.columns: tuple[Column, ...] = tuple(columns)
        self.column_names: tuple[str, ...] = tuple(names)
        #: Tuple length in bytes — the paper's ``tuple length of operand table``.
        self.tuple_length: int = sum(c.width for c in columns)
        self._index: dict[str, int] = {c.name: i for i, c in enumerate(columns)}
        self._widths: dict[str, int] = {c.name: c.width for c in columns}

    # -- lookup ---------------------------------------------------------

    def __contains__(self, column_name: str) -> bool:
        return column_name in self._index

    def __len__(self) -> int:
        return len(self.columns)

    def column(self, name: str) -> Column:
        """Return the :class:`Column` called *name*."""
        try:
            return self.columns[self._index[name]]
        except KeyError:
            raise SchemaError(f"table {self.name}: no column {name!r}") from None

    def position(self, name: str) -> int:
        """Return the ordinal position of column *name* (0-based)."""
        try:
            return self._index[name]
        except KeyError:
            raise SchemaError(f"table {self.name}: no column {name!r}") from None

    # -- derived statistics ----------------------------------------------

    def projected_tuple_length(self, column_names: Iterable[str]) -> int:
        """Tuple length of a projection — the paper's result tuple length."""
        try:
            return sum(map(self._widths.__getitem__, column_names))
        except KeyError as exc:
            raise SchemaError(
                f"table {self.name}: no column {exc.args[0]!r}"
            ) from None

    # -- row handling -----------------------------------------------------

    def validate_row(self, row: Sequence[Any]) -> Row:
        """Validate a row against the schema, returning a canonical tuple."""
        if len(row) != len(self.columns):
            raise SchemaError(
                f"table {self.name}: row has {len(row)} values, "
                f"schema has {len(self.columns)} columns"
            )
        return tuple(c.validate(v) for c, v in zip(self.columns, row))

    def validate_rows(self, rows: Iterable[Sequence[Any]]) -> list[np.ndarray]:
        """Validate a whole batch, returning it as one array per column.

        The batch is transposed once and verified by column: when every
        row has the schema's arity and every value already has its
        column's exact Python type (and an INT value fits int64), each
        column becomes its array as it is.  Any other batch (ints into
        FLOAT, ``None``, ``bool``, subclasses, NaN, wrong arity, an
        integer beyond int64) goes through :meth:`validate_row` row by
        row, which coerces or raises exactly as a single insert would.
        Nothing is returned unless every row is valid.
        """
        batch = rows if isinstance(rows, list) else list(rows)
        if set(map(len, batch)) <= {len(self.columns)}:
            columns = list(zip(*batch)) or [()] * len(self.columns)
            if all(map(_exactly_valid, (c.dtype for c in self.columns), columns)):
                try:
                    return self._arrays(columns)
                except OverflowError:
                    pass  # an integer beyond int64: validate_row names it
        return self._arrays(list(zip(*map(self.validate_row, batch))) or [()] * len(self.columns))

    def _arrays(self, columns: Sequence[Sequence[Any]]) -> list[np.ndarray]:
        return [
            np.array(values, dtype=ARRAY_DTYPES[column.dtype])
            for column, values in zip(self.columns, columns)
        ]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        cols = ", ".join(f"{c.name} {c.dtype.value}({c.width})" for c in self.columns)
        return f"TableSchema({self.name}: {cols})"


@dataclass
class ColumnStatistics:
    """Per-column statistics kept in the local catalog.

    Used for selectivity estimation — the local optimizer needs these to
    pick access paths, exactly as a real DBMS would.  Estimation assumes
    values spread uniformly over [minimum, maximum].
    """

    minimum: Any = None
    maximum: Any = None
    distinct_count: int = 0

    @classmethod
    def from_values(cls, values: Iterable[Any]) -> "ColumnStatistics":
        """Compute statistics over *values*.

        Minimum, maximum and distinct count come from the ``min`` /
        ``max`` / ``set`` builtins, which keep the first of equal values
        (``1`` before ``1.0``) just as a one-pass scan would.
        """
        if not isinstance(values, (list, tuple)):
            values = list(values)
        if not values:
            return cls()
        return cls(
            minimum=min(values), maximum=max(values), distinct_count=len(set(values))
        )


class ColumnStatisticsMap(Mapping[str, ColumnStatistics]):
    """Statistics of a fixed list of columns, each computed on first read.

    Iteration, length and membership are the column list's, so every
    reader sees a complete mapping (and two maps, or a map and a dict,
    compare by content).  ``compute(name)`` runs once per column, the
    first time its value is read; a plan that reads one column of a
    nine-column table pays for one.
    """

    def __init__(
        self, names: Iterable[str], compute: Callable[[str], ColumnStatistics]
    ) -> None:
        self._names = tuple(names)
        self._compute: Callable[[str], ColumnStatistics] | None = compute
        self._computed: dict[str, ColumnStatistics] = {}

    def __getitem__(self, name: str) -> ColumnStatistics:
        stats = self._computed.get(name)
        if stats is None:
            if name not in self._names:
                raise KeyError(name)
            assert self._compute is not None
            stats = self._computed[name] = self._compute(name)
            if len(self._computed) == len(self._names):
                # Nothing is pending: let go of what computing needed.
                self._compute = None
        return stats

    def __iter__(self) -> Iterator[str]:
        return iter(self._names)

    def __len__(self) -> int:
        return len(self._names)

    def __contains__(self, name: object) -> bool:
        return name in self._names

    def __repr__(self) -> str:
        return f"ColumnStatisticsMap({dict(self)!r})"


@dataclass
class TableStatistics:
    """Per-table statistics: cardinality plus per-column stats.

    ``columns`` is a plain dict for statistics assembled by hand (the
    global optimizer's, from exported facts) and a
    :class:`ColumnStatisticsMap` for a table's own (see
    :meth:`repro.engine.table.Table.analyze`).
    """

    cardinality: int = 0
    columns: Mapping[str, ColumnStatistics] = field(default_factory=dict)

    def copy(self) -> "TableStatistics":
        """Independent statistics objects over the same (immutable) values.

        Each column's copy is made on its first read, so copying leaves
        unread columns unread on both sides.
        """
        source = self.columns
        return TableStatistics(
            self.cardinality,
            ColumnStatisticsMap(source, lambda name: replace(source[name])),
        )

    def column(self, name: str) -> ColumnStatistics:
        """Statistics for *name*, or empty statistics if never analyzed."""
        return self.columns.get(name, ColumnStatistics())
