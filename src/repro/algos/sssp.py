"""Single-source shortest paths to landmarks (paper §3.2, "SSSP").

GraphX's ``ShortestPaths`` computes, per vertex, hop distances to a set
of landmark vertices with a Pregel frontier expansion (unit edge
weights). The paper averages over 5 randomly chosen sources per
dataset; our harness does the same with a seeded RNG.

Output is the long form ``(id, landmark, dist)`` — one row per
(vertex, reachable landmark) — instead of GraphX's per-vertex map,
because map columns are not orderable for the oracle/reference diff.
Distances follow edge direction (dist from the landmark along arcs),
matching a BFS from the source on the directed graph.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.graph.pregel import PregelResult, run_pregel


def sssp(edges: DataFrame, landmarks: list[int], *, max_iter: int = 50) -> PregelResult:
    """Frontier BFS from each landmark simultaneously.

    State is the long frame ``(id, landmark, dist)`` holding only
    *reached* pairs, keyed by ``(id, landmark)``; a pair whose distance
    improved relaxes its out-arcs in the next superstep. Iterates until
    no distance improves or ``max_iter``. A repeated landmark is run
    once; no landmarks give an empty result.
    """
    ids = sorted({int(l) for l in landmarks})
    # A pandas frame goes through Arrow without starting Python workers;
    # the schema is given because Arrow cannot infer one from no rows.
    init = edges.sparkSession.createDataFrame(
        pd.DataFrame({"id": ids, "landmark": ids, "dist": 0}).astype(
            {"id": "int64", "landmark": "int64", "dist": "int32"}
        ),
        "id long, landmark long, dist int",
    )

    def send(e: DataFrame) -> DataFrame:
        return e.select(
            F.col("dst").alias("id"),
            F.col("src_landmark").alias("landmark"),
            (F.col("src_dist") + 1).alias("msg"),
        )

    def update(joined: DataFrame) -> DataFrame:
        improved = F.coalesce(F.col("msg") < F.col("dist"), F.col("dist").isNull())
        return joined.select(
            "id", "landmark", F.least("dist", "msg").alias("dist"), improved.alias("changed")
        )

    return run_pregel(
        init, edges.select("src", "dst"), send, F.min("msg"), update, max_iter=max_iter
    )


def sssp_reference(edge_list: list[tuple[int, int]], source: int) -> dict[int, int]:
    """BFS reference (directed, unit weights): vertex -> hop distance."""
    from collections import defaultdict, deque

    adj = defaultdict(list)
    for s, d in edge_list:
        adj[s].append(d)
    dist = {source: 0}
    q = deque([source])
    while q:
        u = q.popleft()
        for v in adj[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                q.append(v)
    return dist
