"""The one Pregel/BSP engine, over DataFrames.

GraphX maps BSP supersteps onto RDD joins and aggregations; we do the
same with DataFrames. Each superstep joins the *active* state rows onto
the arcs leaving them, emits messages, reduces them per key, and merges
the reduced message into the state. Lineage is truncated every superstep
with ``localCheckpoint`` so 10–50 supersteps stay tractable; the rows
that changed are counted with ``DataFrame.observe`` on that same
checkpoint job, so a superstep costs one Spark action.

The state frame has an ``id`` column (the vertex) plus state columns; a
vertex may own several rows, e.g. one per SSSP landmark. Callers provide
three pieces, all expressed at the DataFrame level (keeping everything
inside Catalyst — no Python row UDFs):

- ``send(arcs_with_state) -> DataFrame(<key>..., 'msg')`` — given the arc
  frame joined with the active rows of its source (state columns
  prefixed ``src_``, the vertex ``id`` as ``src``), produce addressed
  messages. The message key is every output column except ``msg``:
  ``id`` for PageRank and CC, ``(id, landmark)`` for SSSP. It must name
  state columns, since messages and state are merged on it.
- ``agg_expr`` — an aggregate ``Column`` over ``msg`` (e.g. ``F.sum``,
  ``F.min``) used to combine messages per key.
- ``update(joined) -> DataFrame`` — ``joined`` is the state full-outer-
  joined with the combined ``msg`` on the key, so a key first reached by
  a message arrives with null state, and a row no message reached has a
  null ``msg``. Return the new state plus a non-null boolean ``changed``.

Active-set rule (GraphX's ``activeDirection = Out``): every state row
sends in the first superstep; after that only the rows whose ``update``
returned ``changed = true`` send.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from pyspark.sql import Column, DataFrame, Observation
from pyspark.sql import functions as F


@dataclass
class PregelResult:
    """Final state plus the per-superstep activity trace.

    ``active_per_iter[i]`` is the number of state rows that changed in
    superstep ``i + 1`` (the rows that send in the next superstep),
    observed on that superstep's checkpoint job, or -1 when the run did
    not count them (``check_convergence=False``).
    perfbench sums SSSP's trace as ``sssp.frontier_rows``.
    """

    vertices: DataFrame
    iterations: int
    active_per_iter: list[int]


def _attach_src(edges: DataFrame, active: DataFrame) -> DataFrame:
    """Join the active rows onto the arcs leaving them, as ``src``/``src_*``."""
    prefixed = active.select(
        F.col("id").alias("src"),
        *[F.col(c).alias(f"src_{c}") for c in active.columns if c != "id"],
    )
    return edges.join(prefixed, "src")


def run_pregel(
    vertices: DataFrame,
    edges: DataFrame,
    send: Callable[[DataFrame], DataFrame],
    agg_expr: Column,
    update: Callable[[DataFrame], DataFrame],
    *,
    max_iter: int,
    check_convergence: bool = True,
) -> PregelResult:
    """Run BSP supersteps until no row changes or ``max_iter``.

    Each superstep is one Spark action, the ``localCheckpoint`` of the
    new state; with ``check_convergence`` an ``observe`` on that job
    counts the changed rows. ``check_convergence=False`` skips the
    count, so the run always takes ``max_iter`` supersteps.
    """
    state = vertices.localCheckpoint(eager=True)
    active = state
    trace: list[int] = []
    it = 0
    for it in range(1, max_iter + 1):
        out = send(_attach_src(edges, active))
        key = [c for c in out.columns if c != "msg"]
        msgs = out.groupBy(*key).agg(agg_expr.alias("msg"))
        new_state = update(state.join(msgs, key, "full_outer"))
        if check_convergence:
            changed = Observation()
            new_state = new_state.observe(changed, F.count_if("changed").alias("n"))
        new_state = new_state.localCheckpoint(eager=True)
        state = new_state.drop("changed")
        active = new_state.filter(F.col("changed")).drop("changed")
        trace.append(changed.get["n"] if check_convergence else -1)
        if trace[-1] == 0:
            break
    return PregelResult(vertices=state, iterations=it, active_per_iter=trace)
