"""DBMS cost profiles: per-operation time constants for a local engine.

The paper runs the same workloads on Oracle 8.0 and DB2 5.0 and derives
*different* cost models for each, because the systems spend different
amounts of time per page read, per tuple, per comparison.  We reproduce
that diversity with two profiles whose constants differ in level and in
ratio (e.g. the DB2-like profile has cheaper sequential I/O but more
per-query initialization).  Values are in (simulated) seconds and are
loosely calibrated so that the paper's table sizes produce costs in the
seconds-to-minutes range, matching Figures 4–9.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class DBMSProfile:
    """Per-operation time constants for one local DBMS."""

    name: str
    #: Fixed per-query startup (optimizer, disk-head positioning, ...).
    t_init: float
    #: Per sequential page read.
    t_seq_page: float
    #: Per random page read.
    t_rand_page: float
    #: Per tuple fetched from a page into the executor.
    t_tuple_read: float
    #: Per predicate evaluation on a tuple.
    t_tuple_eval: float
    #: Per result tuple projected/copied out.
    t_tuple_out: float
    #: Per sort comparison.
    t_sort_cmp: float
    #: Per hash build/probe operation.
    t_hash_op: float

    def validate(self) -> None:
        for field_name in (
            "t_init",
            "t_seq_page",
            "t_rand_page",
            "t_tuple_read",
            "t_tuple_eval",
            "t_tuple_out",
            "t_sort_cmp",
            "t_hash_op",
        ):
            if getattr(self, field_name) < 0:
                raise ValueError(f"{self.name}: {field_name} must be non-negative")


#: An Oracle-8.0-like profile: fast scans, relatively costly per-tuple CPU.
ORACLE_LIKE = DBMSProfile(
    name="oracle_like",
    t_init=0.05,
    t_seq_page=0.0009,
    t_rand_page=0.009,
    t_tuple_read=1.1e-5,
    t_tuple_eval=6.0e-6,
    t_tuple_out=2.2e-5,
    t_sort_cmp=1.4e-6,
    t_hash_op=2.5e-6,
)

#: A DB2-5.0-like profile: higher startup, cheaper sequential I/O,
#: pricier random I/O (smaller buffer pool assumed).
DB2_LIKE = DBMSProfile(
    name="db2_like",
    t_init=0.12,
    t_seq_page=0.0007,
    t_rand_page=0.012,
    t_tuple_read=0.9e-5,
    t_tuple_eval=8.0e-6,
    t_tuple_out=1.6e-5,
    t_sort_cmp=1.8e-6,
    t_hash_op=2.0e-6,
)
