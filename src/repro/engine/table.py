"""In-memory tables with page accounting and catalog statistics.

A table's content is one read-only numpy array per column — INT int64,
FLOAT float64, STR an object array of Python ``str`` — each holding its
column's validated values exactly, so that numpy compares, sorts and
searches them as Python would (:data:`~repro.engine.schema.ARRAY_DTYPES`).
Row ids are positions in those arrays.  A mutation builds new arrays
and never writes into old ones, so forks and query results share them.
A result references the arrays and builds its row tuples only on first
read (:class:`ResultTable`).
"""

from __future__ import annotations

import copy
from typing import Any, Iterable, Iterator, Sequence

import numpy as np

from .errors import SchemaError
from .pages import PageLayout
from .schema import (
    ARRAY_DTYPES,
    Column,
    ColumnStatistics,
    ColumnStatisticsMap,
    TableSchema,
    TableStatistics,
)
from .types import Row


class Table:
    """A heap (or clustered) table: schema + column arrays + statistics.

    The *physical order* of the rows is meaningful — a clustered index
    keeps them sorted on its key column (see :meth:`cluster_on`), which
    is what makes clustered-index range scans cheap in the cost
    accounting.  Row ids are positions in that order, in every column
    array alike.
    """

    def __init__(self, schema: TableSchema, layout: PageLayout | None = None) -> None:
        self.schema = schema
        self.layout = layout or PageLayout()
        self._cardinality = 0
        self._stats: TableStatistics | None = None
        #: One read-only array per column.  Results and forks hold
        #: references to them, so a mutation rebinds this dict and never
        #: writes into an array.
        self._column_arrays = {
            column.name: np.empty(0, dtype=ARRAY_DTYPES[column.dtype])
            for column in schema.columns
        }
        #: Bumped by every change that can alter what a query over this
        #: table reads or how it is planned: a content mutation, an
        #: :meth:`analyze`, and (through the catalog) an index added or
        #: dropped.  Equal object and equal version mean equal work.
        self.version = 0
        #: Name of the column the rows are physically sorted on, if any.
        self.clustered_on: str | None = None

    # -- basic accessors ---------------------------------------------------

    @property
    def name(self) -> str:
        return self.schema.name

    @property
    def cardinality(self) -> int:
        """Number of rows — the paper's ``size of operand table`` variable."""
        return self._cardinality

    @property
    def tuple_length(self) -> int:
        return self.schema.tuple_length

    @property
    def num_pages(self) -> int:
        """Pages occupied by the table under the configured page layout."""
        return self.layout.pages_for(self._cardinality, self.tuple_length)

    @property
    def table_length(self) -> int:
        """Total bytes — the paper's ``operand table length`` (cardinality x tuple length)."""
        return self._cardinality * self.tuple_length

    def __len__(self) -> int:
        return self._cardinality

    def rows(self) -> list[Row]:
        """The rows as tuples of Python values, built from the arrays per call."""
        arrays = self._column_arrays
        return list(zip(*[arrays[name].tolist() for name in self.schema.column_names]))

    def fork(self) -> "Table":
        """A table with the same contents that shares nothing mutable.

        The fork owns its statistics; it shares the schema, the layout
        and the column arrays, all immutable.  Every mutator rebinds the
        array dict, so neither side can observe the other's inserts,
        loads or re-clustering.
        """
        fork = Table(self.schema, self.layout)
        fork._cardinality = self._cardinality
        fork._stats = None if self._stats is None else self._stats.copy()
        fork._column_arrays = self._column_arrays
        fork.clustered_on = self.clustered_on
        return fork

    # -- mutation -------------------------------------------------------------

    def _store(self, arrays: list[np.ndarray]) -> None:
        """Make *arrays* (one per column, in schema order) the content.

        Statistics somebody may hold are settled first (see
        :meth:`_settle_statistics`), and the version is bumped.
        """
        self._settle_statistics()
        self.version += 1
        for array in arrays:
            array.setflags(write=False)
        self._column_arrays = dict(zip(self.schema.column_names, arrays))
        self._cardinality = len(arrays[0])

    def insert(self, row: Sequence[Any]) -> int:
        """Validate and append one row (a one-row :meth:`bulk_load`);
        returns its row id."""
        self.bulk_load([row])
        return self._cardinality - 1

    def bulk_load(self, rows: Iterable[Sequence[Any]] | ResultTable) -> int:
        """Validate and append many rows; returns number inserted.

        All or nothing: the whole batch is validated and made into one
        array per column (:meth:`TableSchema.validate_rows`) before any
        is stored, so a bad row leaves the table as it was.

        A :class:`ResultTable` is a batch that arrives by column.  A
        gathered INT or FLOAT array of exactly its column's dtype (and a
        FLOAT one holding no NaN) already is validated content and is
        taken as it is; any other result is validated through its rows.

        The table knows nothing of its indexes or of keeping its
        clustering: :meth:`repro.engine.database.LocalDatabase.bulk_load`
        and ``insert`` restore both.
        """
        columns = self.schema.columns
        if isinstance(rows, ResultTable):
            arrays = rows.column_arrays()
            if len(arrays) != len(columns) or not all(map(_typed, arrays, columns)):
                arrays = self.schema.validate_rows(rows.rows)
        else:
            arrays = self.schema.validate_rows(rows)
        loaded = len(arrays[0])
        if self._cardinality:
            arrays = [
                np.concatenate((self._column_arrays[column.name], array))
                for column, array in zip(columns, arrays)
            ]
        self._store(arrays)
        return loaded

    def cluster_on(self, column_name: str) -> None:
        """Physically sort rows on *column_name* (clustered-index order).

        The permutation is a stable argsort of the key column — ties
        keep their current order — applied to every column array.  A
        column holds no NaN and one type, so its array sorts as Python
        sorts its values.

        Row ids change; any existing index must be rebuilt afterwards —
        :meth:`repro.engine.database.LocalDatabase.create_index` handles
        that ordering for callers.
        """
        order = np.argsort(self.column_array(column_name), kind="stable")
        self._store([self._column_arrays[name][order] for name in self.schema.column_names])
        self.clustered_on = column_name

    # -- statistics ---------------------------------------------------------

    def analyze(self) -> TableStatistics:
        """Restart catalog statistics; each column's are computed on first read.

        The returned statistics cover every column, but a column's
        minimum, maximum and distinct count are computed only when
        something reads that column (see
        :class:`~repro.engine.schema.ColumnStatisticsMap`).  They
        describe the content at this call whenever they are read: a
        mutation, or the next ``analyze``, first computes the columns
        still unread.  They read a shallow copy of the table, which
        shares its content and caches but not its statistics, so they
        hold no reference back to the table.
        """
        self._settle_statistics()
        content = copy.copy(self)
        self._stats = TableStatistics(
            self.cardinality,
            ColumnStatisticsMap(self.schema.column_names, content._column_statistics),
        )
        self.version += 1
        return self._stats

    def _settle_statistics(self) -> None:
        """Compute the columns the current statistics have not read yet.

        Called before the table lets go of its statistics: whoever holds
        them keeps reading the content they were analyzed on, because
        nothing is left to compute from a content about to change.  A
        table whose statistics were dropped or never made pays nothing.
        """
        if self._stats is not None:
            dict(self._stats.columns)
            self._stats = None

    def _column_statistics(self, column_name: str) -> ColumnStatistics:
        """One column's catalog statistics over the current content."""
        return ColumnStatistics.from_values(self.column_values(column_name))

    @property
    def statistics(self) -> TableStatistics:
        """Cached statistics, restarted by :meth:`analyze` on first access."""
        if self._stats is None:
            self.analyze()
        assert self._stats is not None
        return self._stats

    def column_values(self, column_name: str) -> list[Any]:
        """All values of one column, in physical row order."""
        return self.column_array(column_name).tolist()

    def column_array(self, column_name: str) -> np.ndarray:
        """The read-only array of one column (see :data:`ARRAY_DTYPES`)."""
        try:
            return self._column_arrays[column_name]
        except KeyError:
            raise SchemaError(f"table {self.name}: no column {column_name!r}") from None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Table({self.name}, {self.cardinality} rows, {self.num_pages} pages)"


def _typed(array: np.ndarray, column: Column) -> bool:
    """Whether a gathered *array* already is valid content for *column*."""
    return (
        array.dtype.kind in "if"
        and array.dtype == ARRAY_DTYPES[column.dtype]
        and not (array.dtype.kind == "f" and np.isnan(array).any())
    )


class ResultTable:
    """A query result: column gathers, with row tuples built on first read.

    The engine's operators hand over, per output column, a table's
    column array and the ids of the qualifying rows (*gathers*).  That
    is enough for the cost-model variables — ``cardinality``,
    ``tuple_length``, ``table_length`` and ``len()`` never touch a
    value.  :attr:`rows` gathers the columns, converts them to Python
    values and zips them into tuples once, then keeps the list.
    """

    def __init__(
        self,
        column_names: Sequence[str],
        tuple_length: int,
        gathers: Sequence[tuple[np.ndarray, np.ndarray]],
    ):
        if len(set(column_names)) != len(column_names):
            raise SchemaError("duplicate column names in result")
        self.column_names = tuple(column_names)
        self.tuple_length = tuple_length
        self._rows: list[Row] | None = None
        self._gathers = gathers
        self.cardinality = len(gathers[0][1])

    @property
    def table_length(self) -> int:
        return self.cardinality * self.tuple_length

    def __len__(self) -> int:
        return self.cardinality

    def column_arrays(self) -> list[np.ndarray]:
        """The gathered output columns."""
        return [array[ids] for array, ids in self._gathers]

    def columns(self) -> list[list[Any]]:
        """Python values of each output column, in row order."""
        return [array.tolist() for array in self.column_arrays()]

    @property
    def rows(self) -> list[Row]:
        if self._rows is None:
            self._rows = list(zip(*self.columns()))
        return self._rows

    def __getitem__(self, index: int) -> Row:
        """One row; on an unread result this builds no other."""
        if self._rows is None:
            return tuple(array[ids[[index]]].tolist()[0] for array, ids in self._gathers)
        return self._rows[index]

    def __iter__(self) -> Iterator[Row]:
        return iter(self.rows)
