"""Connected Components by min-label propagation (paper §3.2, "CC").

GraphX's ``connectedComponents``: each vertex is labelled with the
lowest vertex id reachable from it over the *undirected* view of the
graph, iterating to fixpoint (the paper caps iterative algorithms at
10 supersteps for timing runs; correctness tests run to fixpoint).
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.graph.builders import symmetrize, vertices
from repro.graph.pregel import PregelResult, run_pregel


def connected_components(edges: DataFrame, *, max_iter: int = 100) -> PregelResult:
    """Label propagation to fixpoint (or ``max_iter``).

    Only labels that changed in the previous superstep are sent, which
    reaches the same fixpoint in the same rounds as sending every label.
    Returns vertex frame ``(id, label)``; ``active_per_iter`` records
    how many labels changed per superstep. That count need not decay
    fast: the minimum label moves one hop per superstep, so on a long-
    diameter graph most labels keep changing for many supersteps (test-
    tier roadnet-ca: over 85 % of them for the first 15 supersteps,
    fixpoint at superstep 64). The simulator's ``0.6^t`` CC schedule
    does not model this; replaying measured traces is ROADMAP item 5.
    """
    und = symmetrize(edges.select("src", "dst"))
    init = vertices(und).select("id", F.col("id").alias("label"))

    def send(e: DataFrame) -> DataFrame:
        return e.select(F.col("dst").alias("id"), F.col("src_label").alias("msg"))

    def update(joined: DataFrame) -> DataFrame:
        new_label = F.least(F.col("label"), F.coalesce(F.col("msg"), F.col("label")))
        return joined.select(
            "id",
            new_label.alias("label"),
            (new_label < F.col("label")).alias("changed"),
        )

    return run_pregel(
        init,
        und,
        send,
        F.min("msg"),
        update,
        max_iter=max_iter,
        check_convergence=True,
    )


def num_components(edges: DataFrame, *, max_iter: int = 100) -> int:
    """Number of connected components (Table 1 "Conn.Comp." column)."""
    res = connected_components(edges, max_iter=max_iter)
    return res.vertices.select("label").distinct().count()


def cc_reference(edge_list: list[tuple[int, int]]) -> dict[int, int]:
    """Union-find reference: vertex -> min id of its component."""
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    for s, d in edge_list:
        for v in (s, d):
            parent.setdefault(v, v)
        rs, rd = find(s), find(d)
        if rs != rd:
            parent[max(rs, rd)] = min(rs, rd)
    return {v: find(v) for v in parent}
