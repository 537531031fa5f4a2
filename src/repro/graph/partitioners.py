"""Vertex-cut edge partitioners (the paper's §3).

Every strategy maps each edge ``(src, dst)`` to an integer partition id
``pid`` in ``[0, n_parts)``. Six strategies come from the paper (the
four GraphX built-ins RVC / 1D / 2D / CRVC plus the authors' SC / DC);
two more are standard degree-aware vertex cuts from the literature
(DBH, HYB) included to match the published version's eight strategies
(see DESIGN.md §3).

All strategies are expressed as Catalyst column expressions —
``F.hash`` is Spark's Murmur3, playing the role of GraphX's
mixing-prime hash — so partitioning is a single narrow projection.
DBH/HYB additionally join a degree table. No strategy runs a Spark job
before its result is read.

``partition_edges(edges, strategy, n_parts)`` is the single entry
point; ``STRATEGIES`` lists the names in paper order.
"""
from __future__ import annotations

import math

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.graph.builders import degrees

#: Strategy names, paper's six first, extras last.
STRATEGIES = ("RVC", "1D", "2D", "CRVC", "SC", "DC", "DBH", "HYB")

#: The six strategies evaluated in the supplied paper text.
PAPER_STRATEGIES = ("RVC", "1D", "2D", "CRVC", "SC", "DC")


def _pmod(col, n: int):
    return F.pmod(col, F.lit(n)).cast("int")


def _rvc(n: int):
    """Random Vertex Cut: hash src+dst — collocates same-direction multi-edges."""
    return _pmod(F.hash("src", "dst"), n)


def _1d(n: int):
    """Edge Partition 1D: hash src — collocates all out-edges of a vertex."""
    return _pmod(F.hash("src"), n)


def _2d(n: int):
    """Edge Partition 2D: grid of ceil(sqrt(N)) columns × rows.

    Guarantees a ``2·ceil(sqrt(N))`` bound on vertex replication when N
    is a perfect square (each source is confined to one grid column,
    each destination to one grid row).
    """
    s = math.isqrt(n)
    if s * s < n:  # next largest square, as GraphX does
        s += 1
    col = F.pmod(F.hash("src"), F.lit(s))
    row = F.pmod(F.hash("dst"), F.lit(s))
    return _pmod(col * s + row, n)


def _crvc(n: int):
    """Canonical RVC: hash the unordered pair — collocates both directions."""
    return _pmod(F.hash(F.least("src", "dst"), F.greatest("src", "dst")), n)


def _sc(n: int):
    """Source Cut: raw modulo of src id — exploits id locality (paper §3)."""
    return _pmod(F.col("src"), n)


def _dc(n: int):
    """Destination Cut: raw modulo of dst id (paper §3)."""
    return _pmod(F.col("dst"), n)


_EXPR_STRATEGIES = {
    "RVC": _rvc,
    "1D": _1d,
    "2D": _2d,
    "CRVC": _crvc,
    "SC": _sc,
    "DC": _dc,
}


def _with_degrees(edges: DataFrame) -> DataFrame:
    """Attach ``src_deg``/``dst_deg`` columns (total degree of each endpoint)."""
    d = degrees(edges).select("id", "deg")
    return (
        edges.join(
            d.select(F.col("id").alias("src"), F.col("deg").alias("src_deg")),
            "src",
        )
        .join(
            d.select(F.col("id").alias("dst"), F.col("deg").alias("dst_deg")),
            "dst",
        )
    )


def _dbh(edges: DataFrame, n: int) -> DataFrame:
    """Degree-Based Hashing (Xie et al. 2014): hash the lower-degree endpoint.

    Cutting high-degree vertices (which power-law graphs make
    inevitable) while keeping low-degree vertices whole minimizes the
    replication factor in expectation.
    """
    e = _with_degrees(edges)
    pid = F.when(
        (F.col("src_deg") < F.col("dst_deg"))
        | ((F.col("src_deg") == F.col("dst_deg")) & (F.col("src") <= F.col("dst"))),
        _pmod(F.hash("src"), n),
    ).otherwise(_pmod(F.hash("dst"), n))
    return e.select("src", "dst", pid.alias("pid"))


def _hyb(edges: DataFrame, n: int) -> DataFrame:
    """Hybrid-Cut (PowerLyra, Chen et al. 2015).

    Edges pointing at a low in-degree destination are grouped by
    destination (1D-style on dst); edges into high in-degree
    "superstar" destinations are spread by source hash. The threshold
    is 100 × average degree, per the PowerLyra evaluation.
    """
    d = degrees(edges).select("id", "in_deg")
    # A scalar subquery, so the threshold is computed when the plan runs.
    avg = F.coalesce(F.sum("in_deg"), F.lit(0)) / F.greatest(F.count(F.lit(1)), F.lit(1))
    threshold = d.agg(100.0 * avg).scalar()
    e = edges.join(
        d.select(F.col("id").alias("dst"), F.col("in_deg").alias("dst_in_deg")),
        "dst",
    )
    pid = F.when(
        F.col("dst_in_deg") <= threshold, _pmod(F.hash("dst"), n)
    ).otherwise(_pmod(F.hash("src"), n))
    return e.select("src", "dst", pid.alias("pid"))


def partition_edges(edges: DataFrame, strategy: str, n_parts: int) -> DataFrame:
    """Assign every edge a ``pid`` in ``[0, n_parts)`` under ``strategy``.

    Returns ``(src, dst, pid)``.
    """
    if n_parts < 1:
        raise ValueError(f"n_parts must be >= 1, got {n_parts}")
    strategy = strategy.upper()
    if strategy in _EXPR_STRATEGIES:
        pid = _EXPR_STRATEGIES[strategy](n_parts)
        return edges.select("src", "dst", pid.alias("pid"))
    if strategy == "DBH":
        return _dbh(edges, n_parts)
    if strategy == "HYB":
        return _hyb(edges, n_parts)
    raise ValueError(f"unknown strategy {strategy!r}; choose one of {STRATEGIES}")

