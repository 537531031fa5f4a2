"""Static PageRank with GraphX semantics (paper §3.2, "PR").

GraphX's ``staticPageRank``: every vertex starts at 1.0, each of the
``num_iter`` supersteps sets

    rank(v) = resetProb + (1 - resetProb) * Σ_{u -> v} rank(u) / outDeg(u)

Ranks are *not* normalized to sum to 1 and dangling mass is not
redistributed — we mirror that so reference checks against GraphX
semantics (not networkx semantics) hold. The paper runs 10 iterations.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.graph.builders import degrees
from repro.graph.pregel import PregelResult, run_pregel

RESET_PROB = 0.15


def pagerank(edges: DataFrame, *, num_iter: int = 10) -> PregelResult:
    """Run static PageRank for ``num_iter`` supersteps.

    Returns vertex frame ``(id, rank, out_deg)``. Every vertex is active
    every round (PR never converges early within a static iteration
    budget — the paper calls it communication-bound for exactly this
    reason), so ``active_per_iter`` is the vertex count per superstep.
    """
    init = degrees(edges).select("id", F.lit(1.0).alias("rank"), "out_deg")

    def send(e: DataFrame) -> DataFrame:
        return e.select(
            F.col("dst").alias("id"),
            (F.col("src_rank") / F.col("src_out_deg")).alias("msg"),
        )

    def update(joined: DataFrame) -> DataFrame:
        new_rank = F.lit(RESET_PROB) + F.lit(1.0 - RESET_PROB) * F.coalesce(
            F.col("msg"), F.lit(0.0)
        )
        return joined.select(
            "id",
            new_rank.alias("rank"),
            "out_deg",
            F.lit(True).alias("changed"),
        )

    return run_pregel(
        init,
        edges.select("src", "dst"),
        send,
        F.sum("msg"),
        update,
        max_iter=num_iter,
    )


def pagerank_reference(edge_list: list[tuple[int, int]], *, num_iter: int = 10) -> dict[int, float]:
    """Pure-Python reference with identical semantics, for tests."""
    from collections import defaultdict

    out_deg: dict[int, int] = defaultdict(int)
    verts: set[int] = set()
    for s, d in edge_list:
        out_deg[s] += 1
        verts.add(s)
        verts.add(d)
    rank = {v: 1.0 for v in verts}
    for _ in range(num_iter):
        contrib: dict[int, float] = defaultdict(float)
        for s, d in edge_list:
            contrib[d] += rank[s] / out_deg[s]
        rank = {v: RESET_PROB + (1 - RESET_PROB) * contrib.get(v, 0.0) for v in verts}
    return rank
