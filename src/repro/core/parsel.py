"""PARSEL — partitioning-strategy selector (the paper's contribution).

The paper's conclusion: the right partitioner depends on (i) the
number of partitions, (ii) the computation, and (iii) the graph; and
the right *comparison metric* depends on the computation:

- algorithms whose complexity tracks the **edge count** (PageRank,
  Connected Components, SSSP — communication bound) should choose the
  partitioner minimizing **CommCost**;
- algorithms with heavy per-vertex state/computation (Triangle Count)
  should choose by **Cut vertices**, the better proxy for the
  per-superstep reduction overhead.

``select_partitioner`` implements the paper's cheap metric heuristic;
``select_granularity`` implements the paper's coarse-vs-fine guidance
by simulating every (strategy, granularity) candidate. ``parsel`` is
the end-to-end selector over a raw edge DataFrame.
"""
from __future__ import annotations

from dataclasses import dataclass

from pyspark.sql import DataFrame

from repro.graph.partitioners import PAPER_STRATEGIES, partition_edges
from repro.metrics.partition_metrics import profile_cells
from repro.simcluster.cost_model import PartitionProfile, simulate

#: The paper's metric-per-algorithm rule (§4, final paragraph).
METRIC_FOR_ALGO = {"pr": "comm_cost", "cc": "comm_cost", "sssp": "comm_cost", "tr": "cut"}


@dataclass(frozen=True)
class Selection:
    """PARSEL's answer plus the full score table for inspection."""

    strategy: str
    n_parts: int
    scores: dict  # {(strategy, n_parts): score}
    mode: str


def _metric_score(m, algo: str) -> float:
    primary = getattr(m, METRIC_FOR_ALGO[algo.lower()])
    # Balance breaks ties: between near-equal cuts prefer the flatter
    # partitioning (the paper's 1D-vs-SC observations).
    return float(primary) * (1.0 + 0.01 * (m.balance - 1.0))


def select_partitioner(metrics: dict, algo: str) -> tuple[str, dict[str, float]]:
    """Pick the best strategy by the paper's per-algorithm metric rule
    (no simulation).

    ``metrics`` maps each strategy to a record with ``comm_cost``,
    ``cut`` and ``balance`` attributes: a ``PartitionMetrics`` or a
    run-table row (``itertuples``). Ties go to the first strategy.
    """
    scores = {s: _metric_score(m, algo) for s, m in metrics.items()}
    return min(scores, key=scores.get), scores


def select_granularity(
    profiles_by_parts: dict[int, dict[str, PartitionProfile]], algo: str
) -> Selection:
    """Choose (strategy, n_parts) jointly by simulating every candidate
    on the default cluster (``simulate``'s defaults).

    For SSSP that scores every graph on ``simulate``'s default wave of
    12 rounds. The run tables PARSEL is evaluated against
    (``experiments.tables.runtime_table``) size the wave from the
    paper's diameter instead: 9–20 rounds on the six SSSP datasets,
    never 12. So ``parsel(·, "sssp")`` ranks its candidates on a
    different schedule than those tables; ROADMAP item 6 replaces the
    wave with measured traces.
    """
    scores: dict = {}
    for n_parts, profs in profiles_by_parts.items():
        for s, p in profs.items():
            scores[(s, n_parts)] = simulate(algo, p)
    (best_s, best_n) = min(scores, key=scores.get)
    return Selection(strategy=best_s, n_parts=best_n, scores=scores, mode="simulate")


def parsel(
    edges: DataFrame,
    algo: str,
    *,
    parts_candidates: tuple[int, ...] = (128, 256),
    strategies: tuple[str, ...] = PAPER_STRATEGIES,
    mode: str = "simulate",
) -> Selection:
    """End-to-end selector: partition, profile, and score every candidate.

    With ``mode='metric'`` only the first granularity candidate is
    profiled and the paper's metric rule picks the strategy — the cheap
    path. With ``mode='simulate'`` every (strategy, n_parts) pair is
    simulated and the joint argmin returned. Either way all candidates
    are profiled together in one Spark job (``profile_cells``). Every
    candidate reads ``edges``, so pass them materialized (e.g.
    ``localCheckpoint``-ed). Any other ``mode`` raises ``ValueError``
    before any Spark work.
    """
    if mode not in ("metric", "simulate"):
        raise ValueError(f"unknown mode {mode!r}")
    use_parts = parts_candidates if mode == "simulate" else parts_candidates[:1]
    profiles = profile_cells(
        {(s, n): (partition_edges(edges, s, n), n) for n in use_parts for s in strategies}
    )
    profiles_by_parts = {n: {s: profiles[(s, n)] for s in strategies} for n in use_parts}
    if mode == "metric":
        n_parts = use_parts[0]
        best, scores = select_partitioner(
            {s: p.metrics for s, p in profiles_by_parts[n_parts].items()}, algo
        )
        return Selection(
            strategy=best,
            n_parts=n_parts,
            scores={(s, n_parts): v for s, v in scores.items()},
            mode="metric",
        )
    return select_granularity(profiles_by_parts, algo)
