"""Probing queries: gauging the system contention level.

"For a given query, its cost increases as the system contention level
increases.  Based on this observation, we can use the cost of a probing
query to gauge the system contention level." (§3.3)

Two ways to obtain a probing cost are implemented, mirroring the paper:

* **observed** — actually execute the probing query and time it
  (:meth:`ProbingQuery.observe`; the probe's work is re-run only when
  the catalog changed, its cost is charged at the current contention
  on every call — :class:`~repro.engine.database.KeptRuns`);
* **estimated** — regress the probing cost once on a few major system
  statistics (CPU load, I/O utilization, used memory — paper eq. (2)),
  then *estimate* it from a cheap statistics snapshot instead of
  executing the probe (:class:`ProbingCostEstimator`).  Cheaper per
  determination, but estimation error adds inaccuracy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..engine.database import KeptRuns, LocalDatabase
from ..engine.query import Query, SelectQuery
from ..env.monitor import EnvironmentMonitor
from ..env.stats import MAJOR_CONTENTION_PARAMETERS, SystemStatistics
from ..mlr.linalg import add_intercept
from ..mlr.ols import OLSResult, fit_ols


class ProbingQuery:
    """A fixed small query whose elapsed time gauges contention.

    "Most queries, except the ones with extremely small cost, can well
    serve as a probing query" (paper footnote 2); small-cost probes are
    preferred to minimize overhead.
    """

    def __init__(self, database: LocalDatabase, query: Query | str) -> None:
        self.database = database
        self.query = database.parse(query) if isinstance(query, str) else query
        self._runs = KeptRuns(database)
        self._runs.expect(self.query)

    def observe(self) -> float:
        """Execute the probing query; return its elapsed time.

        The cost is charged afresh each time — contention, noise, clock —
        while the work is re-run only when
        :meth:`LocalDatabase.is_current` says the last run no longer is
        (a catalog change, or any site with a buffer pool).
        """
        return self._runs.execute(self.query).elapsed

    def describe(self) -> str:
        return f"{self.database.name}: {self.query}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ProbingQuery({self.describe()})"


def default_probing_query(database: LocalDatabase) -> ProbingQuery:
    """A reasonable probe: a selective scan of the smallest table.

    Picks the table with the fewest pages and builds a narrow range
    selection on its first column — cheap, but not so cheap that momentary
    noise swamps the signal.
    """
    tables = sorted(database.catalog.tables(), key=lambda t: (t.num_pages, t.name))
    if not tables:
        raise ValueError(f"database {database.name} has no tables to probe")
    table = tables[0]
    column = table.schema.columns[0]
    stats = table.statistics.column(column.name)
    if stats.minimum is None or not isinstance(stats.minimum, (int, float)):
        query = SelectQuery(table.name, (column.name,))
    else:
        # Cover roughly the lower half of the column's range.
        midpoint = (stats.minimum + stats.maximum) / 2
        if isinstance(stats.minimum, int) and isinstance(stats.maximum, int):
            midpoint = int(midpoint)
        from ..engine.predicate import Comparison

        query = SelectQuery(
            table.name, (column.name,), Comparison(column.name, "<=", midpoint)
        )
    return ProbingQuery(database, query)


@dataclass
class ProbingCostEstimator:
    """Estimates probing costs from system statistics — paper eq. (2).

    ``C_p ≈ beta_0 + sum_l beta_l * U_l`` where the U_l are major system
    contention parameters.  "A standard statistical procedure can be used
    to determine the significant parameters" (footnote 7): after a full
    fit, parameters whose t-test p-value exceeds ``alpha`` are dropped
    (backward, one at a time) and the model refitted.
    """

    parameters: tuple[str, ...] = MAJOR_CONTENTION_PARAMETERS
    alpha: float = 0.05
    _fit: OLSResult | None = field(default=None, repr=False)
    _selected: tuple[str, ...] = field(default=(), repr=False)

    @property
    def is_calibrated(self) -> bool:
        return self._fit is not None

    @property
    def selected_parameters(self) -> tuple[str, ...]:
        """Parameters retained by the significance screen."""
        if not self.is_calibrated:
            raise RuntimeError("estimator has not been calibrated")
        return self._selected

    @property
    def fit(self) -> OLSResult:
        if self._fit is None:
            raise RuntimeError("estimator has not been calibrated")
        return self._fit

    # -- calibration ---------------------------------------------------------

    def calibrate(
        self,
        probe: ProbingQuery,
        monitor: EnvironmentMonitor,
        samples: int = 60,
        interval_seconds: float = 20.0,
    ) -> OLSResult:
        """Collect (snapshot, observed probe cost) pairs and fit eq. (2).

        Each round takes a statistics snapshot, runs the probe, then lets
        simulated time pass so the environment moves to new contention.
        """
        if samples < len(self.parameters) + 2:
            raise ValueError("too few calibration samples for the parameter count")
        snapshots: list[SystemStatistics] = []
        costs: list[float] = []
        env = monitor.environment
        for _ in range(samples):
            snapshots.append(monitor.statistics())
            costs.append(probe.observe())
            env.advance(interval_seconds)
        return self.fit_pairs(snapshots, costs)

    def fit_pairs(
        self, snapshots: Sequence[SystemStatistics], costs: Sequence[float]
    ) -> OLSResult:
        """Fit eq. (2) to pre-collected calibration pairs."""
        if len(snapshots) != len(costs):
            raise ValueError("snapshots and costs must have the same length")
        selected = list(self.parameters)
        y = np.asarray(costs, dtype=float)
        while True:
            X = np.array([s.as_vector(tuple(selected)) for s in snapshots])
            result = fit_ols(
                add_intercept(X),
                y,
                term_names=("b0", *selected),
                has_intercept=True,
            )
            if len(selected) <= 1:
                break
            # Drop the least significant parameter if it fails the t-test.
            pvals = result.t_pvalues[1:]
            worst = int(np.argmax(pvals))
            if pvals[worst] <= self.alpha:
                break
            del selected[worst]
        self._fit = result
        self._selected = tuple(selected)
        return result

    # -- estimation -----------------------------------------------------------

    def estimate(self, snapshot: SystemStatistics) -> float:
        """Estimated probing cost from one statistics snapshot."""
        if self._fit is None:
            raise RuntimeError("estimator has not been calibrated")
        row = np.concatenate([[1.0], snapshot.as_vector(self._selected)])
        return float(row @ self._fit.coefficients)
