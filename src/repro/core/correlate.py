"""Correlation of partitioning metrics with runtime (paper Figs. 3–6).

The paper scatter-plots execution time against one metric across all
(dataset, partitioner) runs and quotes Pearson correlation
coefficients per algorithm and granularity — e.g. PR: time-vs-CommCost
95 %/96 %; TR: time-vs-Cut 95 %/97 % but time-vs-CommCost only
43 %/34 %. This module computes the same coefficients from a tidy
run table.
"""
from __future__ import annotations

import math

import pandas as pd

#: Metric columns, in the order of the paper's Tables 2/3.
METRIC_COLS = ("balance", "non_cut", "cut", "comm_cost", "part_stdev")


def pearson(xs, ys) -> float:
    """Plain Pearson r, NaN-free (returns 0.0 on degenerate input)."""
    xs = list(map(float, xs))
    ys = list(map(float, ys))
    n = len(xs)
    if n < 2 or len(ys) != n:
        return 0.0
    mx = sum(xs) / n
    my = sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    syy = sum((y - my) ** 2 for y in ys)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    if sxx <= 0 or syy <= 0:
        return 0.0
    return sxy / math.sqrt(sxx * syy)


def metric_time_correlations(runs: pd.DataFrame) -> pd.Series:
    """Pearson r between ``time`` and each metric across all runs.

    ``runs`` is tidy: one row per (dataset, strategy[, n_parts]) with
    metric columns and a ``time`` column — exactly what the best-partitioner
    harness emits. Matches the paper's procedure: raw values pooled
    across datasets and partitioners (big graphs dominate, which is why
    PR's time-vs-CommCost lands in the 90s).
    """
    out = {}
    for m in METRIC_COLS:
        if m in runs.columns:
            out[m] = pearson(runs[m], runs["time"])
    return pd.Series(out, name="pearson_r")
