"""Graph diameter for Table 1's "Diameter" column.

The paper reports ∞ for graphs with more than one (weakly) connected
component and the longest shortest path otherwise. Exact diameter is
quadratic; like the paper (which quotes published numbers) we report a
**double-sweep BFS lower bound** on the undirected view — exact on
trees and in practice tight on small-diameter social graphs — and
``inf`` whenever the graph is disconnected.
"""
from __future__ import annotations

import math

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.algos.sssp import sssp
from repro.graph.builders import symmetrize, vertices


def _farthest(reached: DataFrame) -> tuple[int, int]:
    """The farthest reached vertex and its distance; ties go to the lowest id."""
    row = reached.orderBy(F.desc("dist"), "id").first()
    return int(row["id"]), int(row["dist"])


#: Superstep cap of each BFS sweep, far above Table 1's diameters.
MAX_ITER = 500


def diameter(edges: DataFrame) -> float:
    """Double-sweep BFS diameter estimate; ``math.inf`` if disconnected.

    The first sweep starts at the minimum id. The undirected view is
    connected exactly when that sweep reaches every vertex, so no
    separate connected-components run is needed. Each sweep is capped
    at ``MAX_ITER`` supersteps.
    """
    und = symmetrize(edges.select("src", "dst")).localCheckpoint(eager=True)
    row = vertices(und).agg(F.min("id").alias("start"), F.count(F.lit(1)).alias("n")).first()
    first = sssp(und, [row["start"]], max_iter=MAX_ITER).vertices
    if first.count() < row["n"]:
        return math.inf
    far, _ = _farthest(first)
    _, d = _farthest(sssp(und, [far], max_iter=MAX_ITER).vertices)
    return float(d)
