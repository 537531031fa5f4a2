"""Partitioned edges for real (wall-clock) Spark runs.

The cluster simulator reproduces the paper's distributed timings; the
wall-clock runs in ``perfbench/`` execute the real algorithms on local
Spark over edges that carry their ``pid`` but are not physically placed
by it: no engine reads the layout yet, so placing it would cost a
shuffle that every superstep discards (ROADMAP item 2, DESIGN.md
substitution #3).
"""
from __future__ import annotations

from pyspark.sql import DataFrame

from repro.graph.partitioners import partition_edges


def prepare(edges: DataFrame, strategy: str, n_parts: int) -> DataFrame:
    """``partition_edges`` materialized: ``(src, dst, pid)``."""
    return partition_edges(edges, strategy, n_parts).localCheckpoint(eager=True)
