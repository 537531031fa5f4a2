"""Physical placement of a partitioning for real (wall-clock) Spark runs.

The cluster simulator reproduces the paper's distributed timings; the
wall-clock runs in ``perfbench/`` execute the real algorithms on local
Spark with the edges physically repartitioned by ``pid``
(DESIGN.md substitution #3).
"""
from __future__ import annotations

from pyspark.sql import DataFrame

from repro.graph.partitioners import partition_edges, place


def prepare(edges: DataFrame, strategy: str, n_parts: int) -> DataFrame:
    """Partition + physically place edges, materialized."""
    ep = place(partition_edges(edges, strategy, n_parts), n_parts)
    return ep.localCheckpoint(eager=True)
