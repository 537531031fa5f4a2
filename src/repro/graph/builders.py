"""Graph construction helpers over edge DataFrames.

The whole reproduction represents a graph as an edge ``DataFrame`` with
two ``long`` columns, ``src`` and ``dst`` (directed arcs). A partitioned
graph adds an ``int`` column ``pid``. Vertices are always *derived* from
the edge list — exactly as GraphX reconstructs the vertex set per edge
partition — so every helper here is a pure DataFrame transformation.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

EDGE_COLS = ("src", "dst")


def edges_from_pandas(spark: SparkSession, pdf: pd.DataFrame) -> DataFrame:
    """Create a canonical ``(src, dst)`` edge DataFrame from pandas.

    Casts to long and drops any extra columns, so generators can hand
    over whatever frame they built internally.
    """
    out = spark.createDataFrame(pdf[list(EDGE_COLS)])
    return out.select(
        F.col("src").cast("long").alias("src"),
        F.col("dst").cast("long").alias("dst"),
    )


def edges_from_pairs(spark: SparkSession, pairs) -> DataFrame:
    """Create an edge DataFrame from an iterable of ``(src, dst)`` pairs.

    Convenience for tests with tiny, hand-written graphs.
    """
    pdf = pd.DataFrame(list(pairs), columns=["src", "dst"], dtype="int64")
    return edges_from_pandas(spark, pdf)


def vertices(edges: DataFrame) -> DataFrame:
    """Distinct vertex ids touched by any edge, as a 1-column ``id`` frame."""
    return (
        edges.select(F.col("src").alias("id"))
        .unionByName(edges.select(F.col("dst").alias("id")))
        .distinct()
    )


def dedup(edges: DataFrame) -> DataFrame:
    """Drop exact duplicate arcs (same ``src`` and ``dst``)."""
    return edges.dropDuplicates(["src", "dst"])


def drop_self_loops(edges: DataFrame) -> DataFrame:
    """Remove arcs whose endpoints coincide."""
    return edges.filter(F.col("src") != F.col("dst"))


def symmetrize(edges: DataFrame) -> DataFrame:
    """Union each arc with its reverse and dedup — an undirected view."""
    rev = edges.select(F.col("dst").alias("src"), F.col("src").alias("dst"))
    return dedup(edges.select("src", "dst").unionByName(rev))


def canonical_undirected(edges: DataFrame) -> DataFrame:
    """Canonical undirected edge set: ``src < dst``, no loops, no dups.

    This is the edge set GraphX's TriangleCount operates on after
    ``removeSelfEdges`` + canonicalization.
    """
    e = drop_self_loops(edges)
    return dedup(
        e.select(
            F.least("src", "dst").alias("src"),
            F.greatest("src", "dst").alias("dst"),
        )
    )


def degrees(edges: DataFrame) -> DataFrame:
    """Per-vertex in/out/total degree: ``(id, in_deg, out_deg, deg)``.

    Vertices that only appear on one side get 0 for the other side —
    these are exactly the paper's "ZeroIn"/"ZeroOut" leaf vertices.
    Degrees count the multiset of arcs: a duplicate arc counts twice and
    a self-loop once on each side. Each arc is exploded into its two
    endpoints, tagged with the side, so one aggregation (one shuffle)
    yields all three degrees.
    """
    ends = edges.select(
        F.inline(
            F.array(
                F.struct(F.col("src").alias("id"), F.lit(True).alias("out")),
                F.struct(F.col("dst").alias("id"), F.lit(False).alias("out")),
            )
        )
    )
    return ends.groupBy("id").agg(
        F.count_if(~F.col("out")).alias("in_deg"),
        F.count_if(F.col("out")).alias("out_deg"),
        F.count(F.lit(1)).alias("deg"),
    )


def symmetry_pct(edges: DataFrame) -> float:
    """Percentage of arcs whose reverse arc also exists (Table 1 "Symm").

    100.0 for an undirected (fully symmetrized) graph.
    """
    e = dedup(drop_self_loops(edges)).select("src", "dst")
    total = e.count()
    if total == 0:
        return 100.0
    rev = e.select(F.col("dst").alias("src"), F.col("src").alias("dst"))
    recip = e.join(rev, ["src", "dst"], "left_semi").count()
    return 100.0 * recip / total
