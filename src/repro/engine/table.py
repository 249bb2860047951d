"""In-memory row tables with page accounting and catalog statistics."""

from __future__ import annotations

import numbers
from operator import itemgetter
from typing import Any, Iterable, Iterator, Sequence

import numpy as np

from .errors import SchemaError
from .histogram import EquiDepthHistogram
from .pages import PageLayout
from .schema import ColumnStatistics, TableSchema, TableStatistics
from .types import Row


class Table:
    """A heap (or clustered) table: schema + rows + statistics.

    Rows are stored in a Python list; the *physical order* of that list is
    meaningful — a clustered index keeps the rows sorted on its key column
    (see :meth:`cluster_on`), which is what makes clustered-index range
    scans cheap in the cost accounting.
    """

    def __init__(self, schema: TableSchema, layout: PageLayout | None = None) -> None:
        self.schema = schema
        self.layout = layout or PageLayout()
        self._rows: list[Row] = []
        self._stats: TableStatistics | None = None
        #: Columnar (numpy) views of the rows, built lazily for the
        #: vectorized hot paths and dropped on any mutation.
        self._column_arrays: dict[str, np.ndarray] | None = None
        #: Built equi-depth histograms keyed by (column, num_buckets),
        #: dropped on any mutation — building one re-sorts the column,
        #: so repeated ``analyze(build_histograms=True)`` calls must not
        #: pay it twice for unchanged data.
        self._histograms: dict[tuple[str, int], EquiDepthHistogram] = {}
        #: Name of the column the rows are physically sorted on, if any.
        self.clustered_on: str | None = None

    # -- basic accessors ---------------------------------------------------

    @property
    def name(self) -> str:
        return self.schema.name

    @property
    def cardinality(self) -> int:
        """Number of rows — the paper's ``size of operand table`` variable."""
        return len(self._rows)

    @property
    def tuple_length(self) -> int:
        return self.schema.tuple_length

    @property
    def num_pages(self) -> int:
        """Pages occupied by the table under the configured page layout."""
        return self.layout.pages_for(self.cardinality, self.tuple_length)

    @property
    def table_length(self) -> int:
        """Total bytes — the paper's ``operand table length`` (cardinality x tuple length)."""
        return self.cardinality * self.tuple_length

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self._rows)

    def row(self, row_id: int) -> Row:
        """Fetch a row by id (its current physical position)."""
        return self._rows[row_id]

    def rows(self) -> Sequence[Row]:
        """The full row sequence (read-only by convention)."""
        return self._rows

    def fork(self) -> "Table":
        """A table with the same contents that shares nothing mutable.

        The fork owns its row *list*, its statistics and its (empty,
        lazily rebuilt) column arrays and histograms; it shares the
        schema, the layout and the row tuples, all immutable.  Every
        mutator rebinds or edits only what the fork owns, so neither
        side can observe the other's inserts, loads or re-clustering.
        """
        fork = Table(self.schema, self.layout)
        fork._rows = list(self._rows)
        fork._stats = None if self._stats is None else self._stats.copy()
        fork.clustered_on = self.clustered_on
        return fork

    # -- mutation -------------------------------------------------------------

    def _invalidate_caches(self) -> None:
        """Drop every derived view after a mutation."""
        self._stats = None
        self._column_arrays = None
        self._histograms.clear()

    def insert(self, row: Sequence[Any]) -> int:
        """Validate and append one row; returns its row id."""
        validated = self.schema.validate_row(row)
        self._rows.append(validated)
        self._invalidate_caches()
        return len(self._rows) - 1

    def bulk_load(self, rows: Iterable[Sequence[Any]]) -> int:
        """Validate and append many rows; returns number inserted.

        All or nothing: the whole batch is validated (by column, see
        :meth:`TableSchema.validate_rows`) before any row is stored, so
        a bad row leaves the table and its derived views as they were.
        """
        validated = self.schema.validate_rows(rows)
        self._rows.extend(validated)
        self._invalidate_caches()
        return len(validated)

    def cluster_on(self, column_name: str) -> None:
        """Physically sort rows on *column_name* (clustered-index order).

        Row ids change; any existing index must be rebuilt afterwards —
        :meth:`repro.engine.database.LocalDatabase.create_index` handles
        that ordering for callers.
        """
        pos = self.schema.position(column_name)
        self._rows.sort(key=lambda r: r[pos])
        self.clustered_on = column_name
        self._invalidate_caches()

    # -- statistics ---------------------------------------------------------

    def analyze(
        self, build_histograms: bool = False, histogram_buckets: int = 16
    ) -> TableStatistics:
        """(Re)compute and cache catalog statistics for all columns.

        With ``build_histograms=True``, numeric columns additionally get
        equi-depth histograms for sharper selectivity estimation.
        Histograms come from the per-table cache, so re-analyzing an
        unchanged table never re-sorts its columns.
        """
        stats = TableStatistics(cardinality=self.cardinality)
        for col in self.schema.columns:
            col_stats = ColumnStatistics.from_values(self.column_values(col.name))
            if (
                build_histograms
                and isinstance(col_stats.minimum, numbers.Real)
                and not isinstance(col_stats.minimum, bool)
            ):
                col_stats.histogram = self.histogram_for(col.name, histogram_buckets)
            stats.columns[col.name] = col_stats
        self._stats = stats
        return stats

    def histogram_for(self, column_name: str, num_buckets: int = 16) -> EquiDepthHistogram:
        """The column's equi-depth histogram, built once per (column, buckets).

        Cached until the table mutates; building sorts the full column,
        so every call site shares the same built artifact.
        """
        key = (column_name, num_buckets)
        hist = self._histograms.get(key)
        if hist is None:
            hist = EquiDepthHistogram.build(
                self.column_values(column_name), num_buckets=num_buckets
            )
            self._histograms[key] = hist
        return hist

    @property
    def statistics(self) -> TableStatistics:
        """Cached statistics, computing them on first access."""
        if self._stats is None:
            self.analyze()
        assert self._stats is not None
        return self._stats

    def column_values(self, column_name: str) -> list[Any]:
        """All values of one column, in physical row order."""
        return list(map(itemgetter(self.schema.position(column_name)), self._rows))

    def column_array(self, column_name: str) -> np.ndarray:
        """Columnar (numpy) view of one column, cached until mutation.

        INT columns become int64, FLOAT float64, STR fixed-width
        unicode — all dtypes whose comparison semantics match Python's
        row-at-a-time comparisons, which is what keeps the vectorized
        predicate path byte-identical to the scalar reference.
        """
        if self._column_arrays is None:
            self._column_arrays = {}
        array = self._column_arrays.get(column_name)
        if array is None:
            values = self.column_values(column_name)
            try:
                array = np.array(values)
            except (OverflowError, ValueError):
                # e.g. integers beyond int64: keep an object array, whose
                # dtype kind makes the batch paths fall back to scalar.
                array = np.array(values, dtype=object)
            self._column_arrays[column_name] = array
        return array

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Table({self.name}, {self.cardinality} rows, {self.num_pages} pages)"


class ResultTable:
    """A lightweight materialized query result.

    Carries just enough structure for the cost-model variables: result
    cardinality and result tuple length.
    """

    def __init__(self, column_names: Sequence[str], tuple_length: int, rows: list[Row]):
        if len(set(column_names)) != len(column_names):
            raise SchemaError("duplicate column names in result")
        self.column_names = tuple(column_names)
        self.tuple_length = tuple_length
        self.rows = rows

    @property
    def cardinality(self) -> int:
        return len(self.rows)

    @property
    def table_length(self) -> int:
        return self.cardinality * self.tuple_length

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self.rows)
