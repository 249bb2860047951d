"""Synthetic local databases mirroring the paper's experimental setup.

§5: "each local database has 12 randomly-generated tables (R1 .. R12)
with cardinalities ranging from 3,000 to 250,000.  Each table has a
number of indexed columns and various selectivities for different
columns."  Figure 1's example table is ``R7(a1, ..., a9)`` with 50,000
tuples of random numbers.

We reproduce that shape: tables R1..R12 with nine integer columns
``a1..a9`` of uniformly random values, per-column value ranges chosen to
give a spread of distinct counts (hence selectivities), a non-clustered
index on ``a1``, and a clustered index on ``a2`` for every third table.
A ``scale`` knob shrinks cardinalities proportionally so tests and
benchmarks stay fast; experiments record the scale they used.

The paper's testbed held its local databases fixed and varied only the
load.  Likewise here: a populated catalog is a pure function of its
:class:`WorkloadSpec` and page layout, so a process builds it once (a
*template*) and :func:`populate_database` hands every database its own
*fork* — see DESIGN.md, "Site templates and forks".
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from ..engine.catalog import LocalCatalog
from ..engine.database import LocalDatabase
from ..engine.pages import PageLayout
from ..engine.schema import Column
from ..engine.table import ResultTable
from ..engine.types import DataType

#: Paper-scale cardinalities for R1..R12 (3,000 – 250,000).
PAPER_CARDINALITIES = (
    3_000,
    5_000,
    8_000,
    12_000,
    20_000,
    30_000,
    50_000,
    75_000,
    100_000,
    150_000,
    200_000,
    250_000,
)

#: Value range of each column a1..a9 ("various selectivities for
#: different columns"); a1 scales with the cardinality so its index stays
#: selective, a4 is the narrow join column, a9 is nearly categorical.
COLUMN_RANGES = {
    "a1": None,  # cardinality-dependent
    "a2": 10_000,
    "a3": 1_000,
    "a4": 2_000,
    "a5": 100_000,
    "a6": 500,
    "a7": 50_000,
    "a8": 2_000,
    "a9": 10,
}

COLUMN_NAMES = tuple(COLUMN_RANGES)


@dataclass(frozen=True)
class TableSpec:
    """One randomly generated table."""

    name: str
    cardinality: int
    #: Column name -> exclusive upper bound on its uniform values.  Pass
    #: any mapping; it is kept as a sorted tuple of items, so the spec is
    #: immutable all the way down and hashes by value.
    ranges: Mapping[str, int] | tuple[tuple[str, int], ...] = ()
    nonclustered_index_on: str | None = "a1"
    clustered_index_on: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "ranges", tuple(sorted(dict(self.ranges).items())))

    def resolved_ranges(self) -> dict[str, int]:
        overrides = dict(self.ranges)
        out = {}
        for col, rng in COLUMN_RANGES.items():
            if col in overrides:
                out[col] = overrides[col]
            elif rng is None:
                out[col] = max(1_000, self.cardinality)
            else:
                out[col] = rng
        return out


@dataclass(frozen=True)
class WorkloadSpec:
    """A full local database: its tables plus generation parameters."""

    tables: tuple[TableSpec, ...]
    seed: int = 0


def paper_workload(scale: float = 1.0, seed: int = 0) -> WorkloadSpec:
    """The R1..R12 schema at the given cardinality *scale*.

    ``scale=1.0`` reproduces the paper's 3,000–250,000 range; smaller
    scales shrink every table proportionally (minimum 200 rows).
    """
    if scale <= 0:
        raise ValueError("scale must be positive")
    tables = []
    for i, cardinality in enumerate(PAPER_CARDINALITIES, start=1):
        rows = max(200, int(round(cardinality * scale)))
        tables.append(
            TableSpec(
                name=f"R{i}",
                cardinality=rows,
                # Every third table is clustered on a2, giving the
                # clustered-scan and sort-merge classes real members.
                clustered_index_on="a2" if i % 3 == 0 else None,
            )
        )
    return WorkloadSpec(tables=tuple(tables), seed=seed)


def generate_columns(spec: TableSpec, rng: np.random.Generator) -> list[np.ndarray]:
    """Random int64 columns for *spec*, in :data:`COLUMN_NAMES` order
    (uniform integers per column range)."""
    ranges = spec.resolved_ranges()
    return [rng.integers(0, ranges[col], size=spec.cardinality) for col in COLUMN_NAMES]


#: Most templates a process keeps; the least recently used goes first.
#: A template costs one catalog's column arrays, statistics and index
#: arrays; a fork shares the arrays and owns its table and index
#: objects and its statistics (see DESIGN.md, "Site templates and
#: forks").
TEMPLATE_STORE_SIZE = 8

_templates: OrderedDict[tuple[WorkloadSpec, PageLayout], LocalCatalog] = OrderedDict()


def _build_template(workload: WorkloadSpec, layout: PageLayout) -> LocalCatalog:
    """Generate, load, cluster, index and analyze every table of *workload*.

    The populated catalog is a pure function of the spec and the page
    layout (which decides the measured clustering ratios): one seeded
    generator, a fixed table order, deterministic tree builds.
    """
    scratch = LocalDatabase("template", layout=layout)
    rng = np.random.default_rng(workload.seed)
    columns = [Column(name, DataType.INT) for name in COLUMN_NAMES]
    tuple_length = sum(column.width for column in columns)
    for spec in workload.tables:
        # A batch that arrives by column: the table takes the int64
        # arrays as they are and never builds row tuples (Table.bulk_load).
        ids = np.arange(spec.cardinality)
        batch = ResultTable(
            COLUMN_NAMES,
            tuple_length,
            gathers=[(array, ids) for array in generate_columns(spec, rng)],
        )
        scratch.create_table(spec.name, columns, batch)
        if spec.clustered_index_on:
            scratch.create_index(
                f"{spec.name}_c_{spec.clustered_index_on}",
                spec.name,
                spec.clustered_index_on,
                clustered=True,
            )
        if spec.nonclustered_index_on:
            scratch.create_index(
                f"{spec.name}_nc_{spec.nonclustered_index_on}",
                spec.name,
                spec.nonclustered_index_on,
                clustered=False,
            )
    scratch.analyze()
    return scratch.catalog


def _template_for(workload: WorkloadSpec, layout: PageLayout) -> LocalCatalog:
    """The process's one populated catalog for (*workload*, *layout*).

    Never handed out: callers fork it.
    """
    key = (workload, layout)
    template = _templates.get(key)
    if template is None:
        template = _templates[key] = _build_template(workload, layout)
        while len(_templates) > TEMPLATE_STORE_SIZE:
            _templates.popitem(last=False)
    else:
        _templates.move_to_end(key)
    return template


def populate_database(
    database: LocalDatabase, workload: WorkloadSpec
) -> LocalDatabase:
    """Add every table (plus indexes, analyzed) of *workload* to *database*.

    The tables are a fork of the process-wide template for the spec —
    the first request builds it — so identically specified databases
    share their column and index arrays yet stay fully
    independent under every mutation (see :meth:`LocalCatalog.fork_into`).
    """
    _template_for(workload, database.layout).fork_into(database.catalog)
    return database
