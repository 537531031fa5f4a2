"""Correlation of partitioning metrics with runtime (paper Figs. 3–6).

The paper scatter-plots execution time against one metric across all
(dataset, partitioner) runs and quotes Pearson correlation
coefficients per algorithm and granularity — e.g. PR: time-vs-CommCost
95 %/96 %; TR: time-vs-Cut 95 %/97 % but time-vs-CommCost only
43 %/34 %. This module computes the same coefficients from a tidy
run table.
"""
from __future__ import annotations

import pandas as pd

#: Metric columns, in the order of the paper's Tables 2/3.
METRIC_COLS = ("balance", "non_cut", "cut", "comm_cost", "part_stdev")


def metric_time_correlations(runs: pd.DataFrame) -> pd.Series:
    """Pearson r between ``time`` and each metric across all runs.

    ``runs`` is tidy: one row per (dataset, strategy[, n_parts]) with
    metric columns and a ``time`` column — exactly what the best-partitioner
    harness emits. Matches the paper's procedure: raw values pooled
    across datasets and partitioners (big graphs dominate, which is why
    PR's time-vs-CommCost lands in the 90s). Metrics missing from
    ``runs`` are skipped; a constant column or a single run gives 0.0.
    """
    cols = [m for m in METRIC_COLS if m in runs.columns]
    r = runs[[*cols, "time"]].corr()["time"][cols]
    return r.fillna(0.0).rename("pearson_r")
