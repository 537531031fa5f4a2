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
from repro.simcluster.cost_model import ClusterSpec, PartitionProfile, simulate

#: The paper's metric-per-algorithm rule (§4, final paragraph).
METRIC_FOR_ALGO = {"pr": "comm_cost", "cc": "comm_cost", "sssp": "comm_cost", "tr": "cut"}


@dataclass(frozen=True)
class Selection:
    """PARSEL's answer plus the full score table for inspection."""

    strategy: str
    n_parts: int
    scores: dict  # {(strategy, n_parts): score}
    mode: str


def _metric_score(prof: PartitionProfile, algo: str) -> float:
    m = prof.metrics
    primary = getattr(m, METRIC_FOR_ALGO[algo.lower()])
    # Balance breaks ties: between near-equal cuts prefer the flatter
    # partitioning (the paper's 1D-vs-SC observations).
    return float(primary) * (1.0 + 0.01 * (m.balance - 1.0))


def select_partitioner(profiles: dict[str, PartitionProfile], algo: str) -> tuple[str, dict[str, float]]:
    """Pick the best strategy among pre-computed partition profiles by
    the paper's per-algorithm metric rule (no simulation)."""
    scores = {s: _metric_score(p, algo) for s, p in profiles.items()}
    return min(scores, key=scores.get), scores


def select_granularity(
    profiles_by_parts: dict[int, dict[str, PartitionProfile]],
    algo: str,
    *,
    spec: ClusterSpec = ClusterSpec(),
    n_iter: int = 10,
    diameter: int = 12,
) -> Selection:
    """Choose (strategy, n_parts) jointly by simulating every candidate."""
    scores: dict = {}
    for n_parts, profs in profiles_by_parts.items():
        for s, p in profs.items():
            scores[(s, n_parts)] = simulate(
                algo, p, spec, n_iter=n_iter, diameter=diameter
            )
    (best_s, best_n) = min(scores, key=scores.get)
    return Selection(strategy=best_s, n_parts=best_n, scores=scores, mode="simulate")


def parsel(
    edges: DataFrame,
    algo: str,
    *,
    parts_candidates: tuple[int, ...] = (128, 256),
    strategies: tuple[str, ...] = PAPER_STRATEGIES,
    mode: str = "simulate",
    spec: ClusterSpec = ClusterSpec(),
    n_iter: int = 10,
    diameter: int = 12,
) -> Selection:
    """End-to-end selector: partition, profile, and score every candidate.

    With ``mode='metric'`` only the first granularity candidate is
    profiled and the paper's metric rule picks the strategy — the cheap
    path. With ``mode='simulate'`` every (strategy, n_parts) pair is
    simulated and the joint argmin returned. Either way all candidates
    are profiled together in one Spark job (``profile_cells``). Any
    other ``mode`` raises ``ValueError`` before any Spark work.
    """
    if mode not in ("metric", "simulate"):
        raise ValueError(f"unknown mode {mode!r}")
    cached = edges.select("src", "dst").localCheckpoint(eager=True)
    use_parts = parts_candidates if mode == "simulate" else parts_candidates[:1]
    profiles = profile_cells(
        {(s, n): (partition_edges(cached, s, n), n) for n in use_parts for s in strategies}
    )
    profiles_by_parts = {n: {s: profiles[(s, n)] for s in strategies} for n in use_parts}
    if mode == "metric":
        n_parts = use_parts[0]
        best, scores = select_partitioner(profiles_by_parts[n_parts], algo)
        return Selection(
            strategy=best,
            n_parts=n_parts,
            scores={(s, n_parts): v for s, v in scores.items()},
            mode="metric",
        )
    return select_granularity(
        profiles_by_parts, algo, spec=spec, n_iter=n_iter, diameter=diameter
    )
