"""The local catalog: tables and indexes of one local database system."""

from __future__ import annotations

from bisect import insort
from operator import attrgetter
from typing import Iterable, Iterator, Mapping

from .errors import CatalogError
from .index import Index
from .schema import TableSchema
from .table import Table


class _SchemaView(Mapping[str, TableSchema]):
    """Live read-only table name → schema view over a catalog's tables."""

    def __init__(self, tables: dict[str, Table]) -> None:
        self._tables = tables

    def __getitem__(self, name: str) -> TableSchema:
        return self._tables[name].schema

    def __contains__(self, name: object) -> bool:
        return name in self._tables

    def __iter__(self) -> Iterator[str]:
        return iter(self._tables)

    def __len__(self) -> int:
        return len(self._tables)


class LocalCatalog:
    """Name-keyed registry of tables and their indexes.

    The planner asks for a table's indexes on every query, so each
    table's list is kept ready, ordered by index name, and edited by
    :meth:`add_index`, :meth:`drop_index` and :meth:`drop_table` — the
    only ways the index set changes, and so the only places that bump
    the table's :attr:`~repro.engine.table.Table.version` for it.
    """

    def __init__(self) -> None:
        self._tables: dict[str, Table] = {}
        self._indexes: dict[str, Index] = {}
        self._table_indexes: dict[str, list[Index]] = {}
        #: What the SQL parser resolves column names against.
        self.schemas: Mapping[str, TableSchema] = _SchemaView(self._tables)

    def fork_into(self, target: "LocalCatalog") -> None:
        """Add a fork of every table and index of this catalog to *target*.

        *target* gets its own :class:`Table` and :class:`Index` objects
        (see :meth:`Table.fork`, :meth:`Index.fork`), so whatever it does
        to them afterwards is invisible here and to every other fork.
        """
        for table in self._tables.values():
            target.add_table(table.fork())
        for index in self._indexes.values():
            target.add_index(index.fork(target.table(index.table.name)))

    # -- tables ---------------------------------------------------------

    def add_table(self, table: Table) -> None:
        if table.name in self._tables:
            raise CatalogError(f"table {table.name} already exists")
        self._tables[table.name] = table

    def drop_table(self, name: str) -> None:
        if name not in self._tables:
            raise CatalogError(f"no such table: {name}")
        self._tables.pop(name).version += 1
        for index in self._table_indexes.pop(name, ()):
            del self._indexes[index.name]

    def table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise CatalogError(f"no such table: {name}") from None

    def has_table(self, name: str) -> bool:
        return name in self._tables

    def tables(self) -> Iterable[Table]:
        return self._tables.values()

    @property
    def table_names(self) -> list[str]:
        return sorted(self._tables)

    # -- indexes -----------------------------------------------------------

    def add_index(self, index: Index) -> None:
        if index.name in self._indexes:
            raise CatalogError(f"index {index.name} already exists")
        if index.table.name not in self._tables:
            raise CatalogError(f"index {index.name} references unknown table")
        self._indexes[index.name] = index
        insort(
            self._table_indexes.setdefault(index.table.name, []),
            index,
            key=attrgetter("name"),
        )
        self._tables[index.table.name].version += 1

    def drop_index(self, name: str) -> None:
        if name not in self._indexes:
            raise CatalogError(f"no such index: {name}")
        index = self._indexes.pop(name)
        self._table_indexes[index.table.name].remove(index)
        self._tables[index.table.name].version += 1

    def index(self, name: str) -> Index:
        try:
            return self._indexes[name]
        except KeyError:
            raise CatalogError(f"no such index: {name}") from None

    def indexes_for(self, table_name: str) -> list[Index]:
        """All indexes on *table_name* (order: by index name, stable)."""
        return list(self._table_indexes.get(table_name, ()))

    def index_on(self, table_name: str, column_name: str) -> Index | None:
        """An index on *table_name.column_name*, if one exists."""
        for index in self.indexes_for(table_name):
            if index.column_name == column_name:
                return index
        return None
