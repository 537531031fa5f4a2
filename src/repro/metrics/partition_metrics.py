"""The paper's five partitioning-characterization metrics (§3.1).

All metrics are computed from a partitioned edge frame
``(src, dst, pid)`` with pure DataFrame aggregations, mirroring how
GraphX reconstructs per-partition vertex lists from its edge
partitions:

- **Balance** — edges in the biggest partition / average edges per
  partition (≥ 1; 1.0 is perfectly balanced).
- **NonCut** — vertices that reside in exactly one partition.
- **Cut** — vertices present in more than one partition.
- **CommCost** — total number of copies of cut vertices (the messages
  exchanged per BSP superstep to sync their state).
- **PartStDev** — population standard deviation of edges per partition.

Empty partitions count as size 0 in Balance/PartStDev (the paper's
denominator is the average over the *requested* number of partitions).

One replica pass derives everything. Each edge is exploded into its two
endpoints; ``groupBy(pid, id)`` yields the vertex replicas with their
local degree ``ldeg``; a window over ``id`` adds the vertex's replica
count ``n_rep`` and its first ``pid``; and ``groupBy(pid)`` folds that
into one row per non-empty partition:

- ``m_edges = Σ ldeg / 2`` (every edge has two endpoint occurrences);
- ``n_local`` = replicas materialized in the partition;
- ``sum_deg_sq = Σ ldeg²`` (the triangle cost model's wedge work);
- NonCut rows (``n_rep = 1``) and Cut rows (``n_rep > 1`` on the
  vertex's first pid, so each cut vertex counts once).

The five metrics follow from these rows alone: ``V = NonCut + Cut``
and ``CommCost = Σ n_local − NonCut``, since every replica that is not
a non-cut vertex is a copy of a cut vertex.

``profile_cells`` runs the pass for many partitionings ("cells") in a
single Spark job: each cell's folded rows are tagged with a ``cell`` id,
and the union of all of them is collected, at most Σ n_parts rows. The
union comes after each cell's aggregation, not before it: a union of the
raw rows puts every cell into the same shuffle, whose tasks then grow
with the number of cells (adaptive execution coalesces to about one task
per core) until they spill.

``save_profile``/``load_profile`` are the on-disk (npz) form of a
profile. They live here so that the profile cache key, which digests
this module's source, covers the file format too.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import reduce
from pathlib import Path
from typing import Hashable, Mapping

import numpy as np
from pyspark.sql import DataFrame, Window
from pyspark.sql import functions as F


@dataclass(frozen=True)
class PartitionMetrics:
    """One row of the paper's Tables 2/3 for a (dataset, partitioner) pair."""

    n_parts: int
    n_edges: int
    n_vertices: int
    balance: float
    non_cut: int
    cut: int
    comm_cost: int
    part_stdev: float


@dataclass(frozen=True)
class PartitionProfile:
    """Everything the cluster simulator needs about one partitioning."""

    n_parts: int
    m_edges: np.ndarray  # edges per partition, len n_parts
    sum_deg_sq: np.ndarray  # Σ local deg² per partition, len n_parts
    n_local: np.ndarray  # vertex replicas materialized per partition
    metrics: PartitionMetrics


def save_profile(path: Path, prof: PartitionProfile) -> None:
    """Write a profile as npz: its three arrays plus one entry per metric field."""
    path.parent.mkdir(parents=True, exist_ok=True)
    m = prof.metrics
    np.savez_compressed(
        path,
        m_edges=prof.m_edges,
        sum_deg_sq=prof.sum_deg_sq,
        n_local=prof.n_local,
        **{f.name: getattr(m, f.name) for f in fields(m)},
    )


def load_profile(path: Path) -> PartitionProfile:
    """Read a profile written by :func:`save_profile`."""
    with np.load(path) as z:
        metrics = PartitionMetrics(**{f.name: z[f.name].item() for f in fields(PartitionMetrics)})
        return PartitionProfile(
            n_parts=metrics.n_parts,
            m_edges=z["m_edges"],
            sum_deg_sq=z["sum_deg_sq"],
            n_local=z["n_local"],
            metrics=metrics,
        )


def _replica_pass(ep: DataFrame) -> DataFrame:
    """One partitioning's replica pass: a row per non-empty ``pid``."""
    # Repartitioning the endpoints by vertex serves both the replica
    # groupBy and the per-vertex window with a single shuffle.
    ends = ep.select("pid", F.explode(F.array("src", "dst")).alias("id")).repartition("id")
    vertex = Window.partitionBy("id")
    reps = (
        ends.groupBy("pid", "id")
        .agg(F.count(F.lit(1)).alias("ldeg"))
        .withColumn("n_rep", F.count(F.lit(1)).over(vertex))
        .withColumn("first", F.col("pid") == F.min("pid").over(vertex))
    )
    return reps.groupBy("pid").agg(
        F.sum("ldeg").alias("ends"),
        F.count(F.lit(1)).alias("n_local"),
        F.sum(F.col("ldeg") * F.col("ldeg")).alias("sum_deg_sq"),
        F.count(F.when(F.col("n_rep") == 1, 1)).alias("non_cut"),
        F.count(F.when((F.col("n_rep") > 1) & F.col("first"), 1)).alias("cut"),
    )


def _profile(n_parts: int, rows: list) -> PartitionProfile:
    m = np.zeros(n_parts)
    dsq = np.zeros(n_parts)
    nloc = np.zeros(n_parts)
    non_cut = cut = replicas = 0
    for r in rows:
        m[r["pid"]] = r["ends"] // 2
        dsq[r["pid"]] = r["sum_deg_sq"]
        nloc[r["pid"]] = r["n_local"]
        non_cut += r["non_cut"]
        cut += r["cut"]
        replicas += r["n_local"]
    sizes = [int(s) for s in m]
    n_edges = sum(sizes)
    mean = n_edges / n_parts
    var = sum((s - mean) ** 2 for s in sizes) / n_parts
    metrics = PartitionMetrics(
        n_parts=n_parts,
        n_edges=n_edges,
        n_vertices=non_cut + cut,
        balance=float(max(sizes) / mean) if mean > 0 else 1.0,
        non_cut=non_cut,
        cut=cut,
        comm_cost=replicas - non_cut,
        part_stdev=math.sqrt(var),
    )
    return PartitionProfile(n_parts=n_parts, m_edges=m, sum_deg_sq=dsq, n_local=nloc, metrics=metrics)


def profile_cells(
    cells: Mapping[Hashable, tuple[DataFrame, int]],
) -> dict[Hashable, PartitionProfile]:
    """Profile many partitionings in one Spark job.

    ``cells`` maps any key to ``(edges_p, n_parts)``, where ``edges_p``
    is a partitioned ``(src, dst, pid)`` frame with ``pid`` in
    ``[0, n_parts)``. Returns ``{key: PartitionProfile}``.
    """
    if not cells:
        return {}
    keys = list(cells)
    passes = (_replica_pass(cells[k][0]).withColumn("cell", F.lit(i)) for i, k in enumerate(keys))
    by_cell: dict[int, list] = {i: [] for i in range(len(keys))}
    for r in reduce(DataFrame.unionByName, passes).collect():
        by_cell[r["cell"]].append(r)
    return {k: _profile(cells[k][1], by_cell[i]) for i, k in enumerate(keys)}


def compute_metrics(edges_p: DataFrame, n_parts: int) -> PartitionMetrics:
    """Compute all five paper metrics for a partitioned edge frame."""
    return profile_cells({0: (edges_p, n_parts)})[0].metrics
