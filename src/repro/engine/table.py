"""In-memory tables with page accounting and catalog statistics.

A table's content has two views — a list of row tuples and one numpy
array per column — each derivable from the other and each built only
when something asks for it.  A table loaded by column (a generated base
table, a shipped temp table) holds only its arrays: clustering permutes
them, and row tuples appear only when a row reader (``insert``, a
row-at-a-time predicate) asks.  Query results reference the column
arrays and build their own tuples on first read (:class:`ResultTable`).
"""

from __future__ import annotations

import copy
from operator import itemgetter
from typing import Any, Iterable, Iterator, Sequence

import numpy as np

from .errors import SchemaError
from .pages import PageLayout
from .schema import ColumnStatistics, ColumnStatisticsMap, TableSchema, TableStatistics
from .types import DataType, Row

#: Array dtype of each column type.  Values these cannot hold exactly
#: (integers beyond int64, strings ending in NUL) go to object arrays.
_ARRAY_DTYPES = {
    DataType.INT: np.dtype(np.int64),
    DataType.FLOAT: np.dtype(np.float64),
    DataType.STR: np.dtype(np.str_),
}


class Table:
    """A heap (or clustered) table: schema + content + statistics.

    The *physical order* of the rows is meaningful — a clustered index
    keeps them sorted on its key column (see :meth:`cluster_on`), which
    is what makes clustered-index range scans cheap in the cost
    accounting.  Row ids are positions in that order, in the row list
    and in every column array alike.
    """

    def __init__(self, schema: TableSchema, layout: PageLayout | None = None) -> None:
        self.schema = schema
        self.layout = layout or PageLayout()
        #: Row view; ``None`` on a table loaded by column until something
        #: reads a row (every column then has its array, see bulk_load).
        self._rows: list[Row] | None = []
        self._cardinality = 0
        self._stats: TableStatistics | None = None
        #: Column view, filled per column on first use.  The arrays are
        #: read-only and results and forks hold references to them, so a
        #: mutation rebinds this dict and never writes into an array.
        self._column_arrays: dict[str, np.ndarray] = {}
        #: Name of the column the rows are physically sorted on, if any.
        self.clustered_on: str | None = None
        #: Bumped by every change that can alter what a query over this
        #: table reads or how it is planned: a content mutation, an
        #: :meth:`analyze`, and (through the catalog) an index added or
        #: dropped.  Equal object and equal version mean equal work.
        self.version = 0

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

    def __iter__(self) -> Iterator[Row]:
        return iter(self.rows())

    def row(self, row_id: int) -> Row:
        """Fetch a row by id (its current physical position)."""
        return self.rows()[row_id]

    def rows(self) -> Sequence[Row]:
        """The full row sequence (read-only by convention)."""
        if self._rows is None:
            arrays = self._column_arrays
            self._rows = list(
                zip(*[arrays[name].tolist() for name in self.schema.column_names])
            )
        return self._rows

    def fork(self) -> "Table":
        """A table with the same contents that shares nothing mutable.

        The fork owns its row *list* (if the table has a row view) and
        its statistics; it shares the schema, the layout, the row
        tuples and the column arrays, all immutable.  The array dict is
        shared as an object, so an array any fork builds serves all of
        them; every mutator rebinds it (and edits only the row list the
        fork owns), so neither side can observe the other's inserts,
        loads or re-clustering.  A table with no row view forks into one
        with none: each fork builds its own only if a row reader asks.
        """
        fork = Table(self.schema, self.layout)
        fork._rows = None if self._rows is None else list(self._rows)
        fork._cardinality = self._cardinality
        fork._stats = None if self._stats is None else self._stats.copy()
        fork._column_arrays = self._column_arrays
        fork.clustered_on = self.clustered_on
        return fork

    # -- mutation -------------------------------------------------------------

    def _invalidate_caches(self) -> None:
        """Drop every derived view; call it *before* the row list changes.

        Statistics somebody may hold are settled first (see
        :meth:`_settle_statistics`).
        """
        self._settle_statistics()
        self.version += 1
        self._column_arrays = {}

    def insert(self, row: Sequence[Any]) -> int:
        """Validate and append one row; returns its row id.

        The table knows nothing of its indexes or of keeping its
        clustering: :meth:`repro.engine.database.LocalDatabase.insert`
        restores both.
        """
        validated = self.schema.validate_row(row)
        content = self.rows()
        self._invalidate_caches()
        content.append(validated)
        self._cardinality += 1
        return self._cardinality - 1

    def bulk_load(self, rows: Iterable[Sequence[Any]] | ResultTable) -> int:
        """Validate and append many rows; returns number inserted.

        All or nothing: the whole batch is validated (by column, see
        :meth:`TableSchema.validate_rows`) before any row is stored, so
        a bad row leaves the table and its derived views as they were.

        A :class:`ResultTable` is a batch that arrives by column.  When
        the table is empty and every gathered array has exactly its
        column's numeric dtype and holds no NaN, the arrays already are
        the validated content: the table adopts them as its column view
        and derives row tuples only if something asks.  Any other result
        is loaded through its rows.

        Like :meth:`insert`, this appends to the heap and leaves indexes
        and clustering to :meth:`repro.engine.database.LocalDatabase.bulk_load`.
        """
        if isinstance(rows, ResultTable):
            arrays = rows.column_arrays()
            if self._cardinality == 0 and self._adoptable(arrays):
                self._invalidate_caches()
                for name, array in zip(self.schema.column_names, arrays):
                    array.setflags(write=False)
                    self._column_arrays[name] = array
                self._rows = None
                self._cardinality = len(rows)
                return len(rows)
            rows = rows.rows
        validated = self.schema.validate_rows(rows)
        content = self.rows()
        self._invalidate_caches()
        content.extend(validated)
        self._cardinality += len(validated)
        return len(validated)

    def _adoptable(self, arrays: list[np.ndarray] | None) -> bool:
        columns = self.schema.columns
        return (
            arrays is not None
            and len(arrays) == len(columns)
            and all(
                array.dtype.kind in "if"
                and array.dtype == _ARRAY_DTYPES[column.dtype]
                and not (array.dtype.kind == "f" and np.isnan(array).any())
                for array, column in zip(arrays, columns)
            )
        )

    def cluster_on(self, column_name: str) -> None:
        """Physically sort rows on *column_name* (clustered-index order).

        The permutation is a stable argsort of the key column — ties
        keep their current order — applied to whichever views exist, so
        a table held by column builds no rows.  A column holds no NaN
        and one type, so its array sorts as Python sorts its values;
        strings are sorted as Python objects, since fixed-width unicode
        drops a trailing NUL.

        Row ids change; any existing index must be rebuilt afterwards —
        :meth:`repro.engine.database.LocalDatabase.create_index` handles
        that ordering for callers.
        """
        keys = self.column_array(column_name)
        order = np.argsort(keys.astype(object) if keys.dtype.kind == "U" else keys, kind="stable")
        rows, arrays = self._rows, self._column_arrays
        self._invalidate_caches()
        if rows is not None:
            self._rows = list(map(rows.__getitem__, order.tolist()))
        if arrays:
            for name, array in arrays.items():
                permuted = array[order]
                permuted.setflags(write=False)
                self._column_arrays[name] = permuted
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
        pos = self.schema.position(column_name)
        if self._rows is None:
            return self._column_arrays[column_name].tolist()
        return list(map(itemgetter(pos), self._rows))

    def column_array(self, column_name: str) -> np.ndarray:
        """Read-only numpy view of one column, cached until mutation.

        INT columns are int64, FLOAT float64, STR fixed-width unicode —
        dtypes that compare as Python compares and whose ``tolist()``
        returns the stored values, type for type.  A column they cannot
        hold exactly (an integer beyond int64; a string ending in NUL,
        which fixed-width unicode drops) is an object array of the
        values themselves, and every batch path treats object dtype as
        "evaluate row at a time".
        """
        array = self._column_arrays.get(column_name)
        if array is None:
            values = self.column_values(column_name)
            dtype = _ARRAY_DTYPES[self.schema.column(column_name).dtype]
            try:
                array = np.array(values, dtype=dtype)
            except OverflowError:
                array = None
            if array is None or (dtype.kind == "U" and array.tolist() != values):
                array = np.array(values, dtype=object)
            array.setflags(write=False)
            self._column_arrays[column_name] = array
        return array

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Table({self.name}, {self.cardinality} rows, {self.num_pages} pages)"


class ResultTable:
    """A query result: column gathers, with row tuples built on first read.

    The engine's operators hand over, per output column, a table's
    column array and the ids of the qualifying rows (*gathers*).  That
    is enough for the cost-model variables — ``cardinality``,
    ``tuple_length``, ``table_length`` and ``len()`` never touch a
    value.  :attr:`rows` gathers the columns, converts them to Python
    values and zips them into tuples once, then keeps the list.  A
    result can also be made directly from a row list.
    """

    def __init__(
        self,
        column_names: Sequence[str],
        tuple_length: int,
        rows: list[Row] | None = None,
        gathers: Sequence[tuple[np.ndarray, np.ndarray]] = (),
    ):
        if len(set(column_names)) != len(column_names):
            raise SchemaError("duplicate column names in result")
        self.column_names = tuple(column_names)
        self.tuple_length = tuple_length
        self._rows = rows
        self._gathers = gathers
        self.cardinality = len(gathers[0][1]) if rows is None else len(rows)

    @property
    def table_length(self) -> int:
        return self.cardinality * self.tuple_length

    def __len__(self) -> int:
        return self.cardinality

    def column_arrays(self) -> list[np.ndarray] | None:
        """The gathered output columns, or None for a result made from rows."""
        if not self._gathers:
            return None
        return [array[ids] for array, ids in self._gathers]

    def columns(self) -> list[list[Any]]:
        """Python values of each output column, in row order."""
        arrays = self.column_arrays()
        if arrays is None:
            return [
                list(map(itemgetter(p), self._rows))
                for p in range(len(self.column_names))
            ]
        return [array.tolist() for array in arrays]

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
