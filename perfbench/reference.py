"""Independent references for every output the benchmark times.

Each reference is computed once per run, outside any timed region,
from the generated arc list with numpy, DuckDB or the repo's
pure-Python references, never through the Spark code under test. The
check functions compare an already materialised Spark result against
it and return ``True`` on a match.
"""
from __future__ import annotations

import math

import duckdb
import numpy as np
import pandas as pd

from repro.algos.pagerank import RESET_PROB
from repro.algos.sssp import sssp_reference
from repro.algos.triangles import TRIANGLES_TOTAL_SQL
from repro.core.parsel import Selection, select_granularity
from repro.metrics.partition_metrics import PartitionMetrics
from repro.simcluster.cost_model import PartitionProfile

PR_RTOL = 1e-9
SCORE_RTOL = 1e-9


def pagerank(src: np.ndarray, dst: np.ndarray, num_iter: int) -> tuple[np.ndarray, np.ndarray]:
    """GraphX static PageRank by power iteration: ``(ids, rank)``."""
    ids = np.unique(np.concatenate([src, dst]))
    si, di = np.searchsorted(ids, src), np.searchsorted(ids, dst)
    out_deg = np.bincount(si, minlength=len(ids)).astype(np.float64)
    rank = np.ones(len(ids))
    for _ in range(num_iter):
        contrib = np.bincount(di, weights=rank[si] / out_deg[si], minlength=len(ids))
        rank = RESET_PROB + (1.0 - RESET_PROB) * contrib
    return ids, rank


def distances(edge_list: list[tuple[int, int]], landmarks, max_depth: int) -> pd.DataFrame:
    """Directed hop distances from each landmark, capped at ``max_depth``.

    Long form ``(id, landmark, dist)``, one row per reached pair — the
    shape :func:`repro.algos.sssp.sssp` returns — from the BFS of
    :func:`repro.algos.sssp.sssp_reference`.
    """
    rows = [
        (v, lm, d)
        for lm in landmarks
        for v, d in sssp_reference(edge_list, lm).items()
        if d <= max_depth
    ]
    return _sorted(pd.DataFrame(rows, columns=["id", "landmark", "dist"]))


def triangles_total(edges: pd.DataFrame) -> int:
    """Distinct triangles in the undirected view, by the DuckDB oracle SQL."""
    con = duckdb.connect()
    try:
        con.register("e", edges[["src", "dst"]])
        return int(con.execute(TRIANGLES_TOTAL_SQL).fetchone()[0])
    finally:
        con.close()


_CELL_SQL = """
WITH ends AS (SELECT src AS id, pid FROM ep UNION ALL SELECT dst AS id, pid FROM ep),
local_deg AS (SELECT pid, id, count(*) AS d FROM ends GROUP BY pid, id),
per_pid AS (SELECT pid, count(*) AS n_local, sum(d * d) AS sum_deg_sq
            FROM local_deg GROUP BY pid),
sizes AS (SELECT pid, count(*) AS m FROM ep GROUP BY pid)
SELECT s.pid, s.m, p.n_local, p.sum_deg_sq FROM sizes s JOIN per_pid p USING (pid)
"""

_REPLICA_SQL = """
WITH ends AS (SELECT src AS id, pid FROM ep UNION ALL SELECT dst AS id, pid FROM ep),
reps AS (SELECT id, count(DISTINCT pid) AS r FROM ends GROUP BY id)
SELECT count(*) FILTER (WHERE r = 1) AS non_cut,
       count(*) FILTER (WHERE r > 1) AS cut,
       coalesce(sum(r) FILTER (WHERE r > 1), 0) AS comm_cost,
       count(*) AS n_vertices
FROM reps
"""


def profile(ep: pd.DataFrame, n_parts: int) -> PartitionProfile:
    """A cell's simulator profile from its collected ``(src, dst, pid)``."""
    con = duckdb.connect()
    try:
        con.register("ep", ep[["src", "dst", "pid"]])
        cells = con.execute(_CELL_SQL).fetchdf()
        non_cut, cut, comm_cost, n_vertices = con.execute(_REPLICA_SQL).fetchone()
    finally:
        con.close()
    m = np.zeros(n_parts)
    dsq = np.zeros(n_parts)
    nloc = np.zeros(n_parts)
    pid = cells["pid"].to_numpy()
    m[pid] = cells["m"].to_numpy()
    dsq[pid] = cells["sum_deg_sq"].to_numpy()
    nloc[pid] = cells["n_local"].to_numpy()
    mean = m.sum() / n_parts
    metrics = PartitionMetrics(
        n_parts=n_parts,
        n_edges=int(m.sum()),
        n_vertices=int(n_vertices),
        balance=float(m.max() / mean) if mean > 0 else 1.0,
        non_cut=int(non_cut),
        cut=int(cut),
        comm_cost=int(comm_cost),
        part_stdev=math.sqrt(float(((m - mean) ** 2).sum()) / n_parts),
    )
    return PartitionProfile(n_parts=n_parts, m_edges=m, sum_deg_sq=dsq, n_local=nloc, metrics=metrics)


def selection(cells: dict[tuple[str, int], pd.DataFrame], algo: str) -> Selection:
    """PARSEL's answer rebuilt from DuckDB profiles of every cell."""
    by_parts: dict[int, dict] = {}
    for (strategy, n_parts), ep in cells.items():
        by_parts.setdefault(n_parts, {})[strategy] = profile(ep, n_parts)
    return select_granularity(by_parts, algo)


def _sorted(df: pd.DataFrame) -> pd.DataFrame:
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def same_selection(got: Selection, want: Selection) -> bool:
    return (
        (got.strategy, got.n_parts, got.mode) == (want.strategy, want.n_parts, want.mode)
        and got.scores.keys() == want.scores.keys()
        and all(math.isclose(got.scores[k], want.scores[k], rel_tol=SCORE_RTOL) for k in want.scores)
    )


def same_ranks(got: pd.DataFrame, want: tuple[np.ndarray, np.ndarray]) -> bool:
    ids, rank = want
    got = got.sort_values("id")
    return np.array_equal(got["id"].to_numpy(), ids) and bool(
        np.all(np.abs(got["rank"].to_numpy() - rank) <= PR_RTOL * np.abs(rank))
    )


def same_distances(got: pd.DataFrame, want: pd.DataFrame) -> bool:
    got = _sorted(got[["id", "landmark", "dist"]].astype("int64"))
    return got.equals(want.astype("int64"))


def same_triangles(per_vertex: pd.DataFrame, want_total: int) -> bool:
    return int(per_vertex["n_triangles"].sum()) == 3 * want_total
