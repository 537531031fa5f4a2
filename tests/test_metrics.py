"""Tests for the five partitioning metrics, checked against DuckDB.

The oracle replays the replica derivation in SQL over the identical
(src, dst, pid) table, so a wrong groupBy/union in the Spark side is
caught as a row diff, not just "it ran" (see repro.oracle).
"""
import math

import duckdb
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.graph.builders import edges_from_pairs
from repro.graph.partitioners import PAPER_STRATEGIES, STRATEGIES, partition_edges
from repro.metrics.partition_metrics import compute_metrics, profile_cells
from repro.oracle import assert_equivalent

N_PARTS = 16

#: A small graph with a duplicate arc, two self-loops (one on a vertex
#: that has no other edge) and, at these granularities, empty partitions.
ODD_PAIRS = [(1, 2), (1, 2), (3, 3), (2, 3), (3, 1), (4, 1), (1, 5), (5, 4), (6, 1), (7, 7)]
ODD_PARTS = (3, 8)

#: Every cell the oracle checks: the social graph under the paper's six
#: strategies, and the odd graph under all eight at two granularities.
ORACLE_CELLS = [("social", s, N_PARTS) for s in PAPER_STRATEGIES] + [
    ("odd", s, n) for n in ODD_PARTS for s in STRATEGIES
]

ORACLE_METRICS_SQL = """
WITH r AS (
  SELECT DISTINCT id, pid FROM (
    SELECT src AS id, pid FROM e
    UNION ALL
    SELECT dst AS id, pid FROM e
  )
), c AS (
  SELECT id, count(*) AS n FROM r GROUP BY id
)
SELECT
  CAST(sum(CASE WHEN n = 1 THEN 1 ELSE 0 END) AS BIGINT) AS non_cut,
  CAST(sum(CASE WHEN n > 1 THEN 1 ELSE 0 END) AS BIGINT) AS cut,
  CAST(sum(CASE WHEN n > 1 THEN n ELSE 0 END) AS BIGINT) AS comm_cost,
  CAST(count(*) AS BIGINT) AS n_vertices
FROM c
"""


ORACLE_PER_PARTITION_SQL = """
WITH ends AS (
  SELECT src AS id, pid FROM e
  UNION ALL
  SELECT dst AS id, pid FROM e
), local_deg AS (
  SELECT pid, id, count(*) AS d FROM ends GROUP BY pid, id
), per_pid AS (
  SELECT pid, count(*) AS n_local, sum(d * d) AS sum_deg_sq FROM local_deg GROUP BY pid
), sizes AS (
  SELECT pid, count(*) AS m_edges FROM e GROUP BY pid
)
SELECT CAST(pid AS BIGINT) AS pid, CAST(m_edges AS BIGINT) AS m_edges,
       CAST(n_local AS BIGINT) AS n_local, CAST(sum_deg_sq AS BIGINT) AS sum_deg_sq
FROM sizes JOIN per_pid USING (pid)
"""


@pytest.fixture(scope="module", params=["RVC", "1D", "2D", "CRVC", "SC", "DC"])
def social_partition(request, spark, social_small_edges):
    strategy = request.param
    ep = partition_edges(social_small_edges, strategy, N_PARTS).localCheckpoint(eager=True)
    return strategy, ep, compute_metrics(ep, N_PARTS)


@pytest.fixture(scope="module")
def oracle_grid(spark, social_small_edges):
    """``{cell: (edges_p as pandas, profile)}``, all cells profiled in one pass."""
    graphs = {
        "social": social_small_edges,
        "odd": spark.createDataFrame(ODD_PAIRS, "src long, dst long").localCheckpoint(eager=True),
    }
    cells = {
        (g, s, n): (partition_edges(graphs[g], s, n).localCheckpoint(eager=True), n)
        for g, s, n in ORACLE_CELLS
    }
    profiles = profile_cells(cells)
    grid = {k: (ep.toPandas(), profiles[k]) for k, (ep, _) in cells.items()}
    # The odd graph must exercise the edge cases it was built for.
    odd = [grid[k] for k in grid if k[0] == "odd"]
    assert all((pdf.src == pdf.dst).any() and pdf.duplicated().any() for pdf, _ in odd)
    assert any((p.m_edges == 0).any() for _, p in odd)
    return grid


def _cell_id(cell):
    graph, strategy, n_parts = cell
    return strategy if graph == "social" else f"{graph}-{strategy}-{n_parts}"


class TestOracleAgreement:
    @pytest.mark.parametrize("cell", ORACLE_CELLS, ids=_cell_id)
    def test_counts_vs_duckdb(self, spark, oracle_grid, cell):
        pdf, prof = oracle_grid[cell]
        m = prof.metrics
        got = spark.createDataFrame(
            [(m.non_cut, m.cut, m.comm_cost, m.n_vertices)],
            "non_cut long, cut long, comm_cost long, n_vertices long",
        )
        assert_equivalent(got, ORACLE_METRICS_SQL, e=pdf)

    @pytest.mark.parametrize("cell", ORACLE_CELLS, ids=_cell_id)
    def test_per_partition_vs_duckdb(self, spark, oracle_grid, cell):
        pdf, prof = oracle_grid[cell]
        rows = pd.DataFrame(
            {
                "pid": np.arange(prof.n_parts),
                "m_edges": prof.m_edges,
                "n_local": prof.n_local,
                "sum_deg_sq": prof.sum_deg_sq,
            }
        ).astype("int64")
        # Empty partitions are all-zero in the profile and absent in SQL.
        got = spark.createDataFrame(rows[rows.m_edges > 0])
        assert (rows[rows.m_edges == 0].drop(columns="pid") == 0).all().all()
        assert_equivalent(got, ORACLE_PER_PARTITION_SQL, e=pdf)

    def test_balance_vs_duckdb(self, social_partition):
        _, ep, m = social_partition
        pdf = ep.toPandas()
        con = duckdb.connect()
        con.register("e", pdf)
        mx = con.execute("SELECT max(cnt) FROM (SELECT count(*) cnt FROM e GROUP BY pid)").fetchone()[0]
        con.close()
        avg = len(pdf) / N_PARTS
        assert m.balance == pytest.approx(mx / avg)

    def test_part_stdev_vs_numpy(self, social_partition):
        _, ep, m = social_partition
        sizes = ep.toPandas().pid.value_counts().reindex(range(N_PARTS), fill_value=0)
        assert m.part_stdev == pytest.approx(float(np.std(sizes.to_numpy())))


class TestIdentities:
    def test_noncut_plus_cut_is_vertex_count(self, social_partition):
        _, _, m = social_partition
        assert m.non_cut + m.cut == m.n_vertices

    def test_commcost_at_least_twice_cut(self, social_partition):
        # every cut vertex has >= 2 replicas by definition
        _, _, m = social_partition
        assert m.comm_cost >= 2 * m.cut

    def test_balance_at_least_one(self, social_partition):
        _, _, m = social_partition
        assert m.balance >= 1.0

    def test_edges_preserved(self, social_partition, social_small_edges):
        _, _, m = social_partition
        assert m.n_edges == social_small_edges.count()

    def test_commcost_bounded_by_parts(self, social_partition):
        _, _, m = social_partition
        assert m.comm_cost <= m.cut * N_PARTS


class TestSmallClosedForm:
    def test_all_one_partition(self, spark):
        e = edges_from_pairs(spark, [(1, 2), (2, 3), (3, 1)])
        ep = e.withColumn("pid", F.lit(0))
        m = compute_metrics(ep, 4)
        assert m.non_cut == 3 and m.cut == 0 and m.comm_cost == 0
        assert m.balance == pytest.approx(4.0)  # 3 edges all in 1 of 4 parts

    def test_fully_cut_vertex(self, spark):
        # star hub replicated in every partition
        e = edges_from_pairs(spark, [(0, i) for i in range(1, 5)])
        ep = e.withColumn("pid", (F.col("dst") - 1).cast("int"))
        m = compute_metrics(ep, 4)
        assert m.cut == 1  # only the hub
        assert m.non_cut == 4  # each leaf in exactly one partition
        assert m.comm_cost == 4  # hub present in all 4 partitions
        assert m.balance == pytest.approx(1.0)
        assert m.part_stdev == pytest.approx(0.0)

    def test_two_partitions_path(self, spark):
        # path 1-2-3-4, split between edges (2,3): vertices 2.. wait —
        # edges (1,2)->p0, (2,3)->p0, (3,4)->p1: only 3 is cut
        e = edges_from_pairs(spark, [(1, 2), (2, 3), (3, 4)])
        ep = e.withColumn("pid", F.when(F.col("src") >= 3, 1).otherwise(0).cast("int"))
        m = compute_metrics(ep, 2)
        assert m.cut == 1 and m.comm_cost == 2
        assert m.non_cut == 3

    def test_empty_partition_counts_as_zero(self, spark):
        e = edges_from_pairs(spark, [(1, 2), (2, 3)])
        ep = e.withColumn("pid", F.lit(0))
        prof = profile_cells({0: (ep, 3)})[0]
        assert prof.m_edges.tolist() == [2, 0, 0]
        assert prof.metrics.balance == pytest.approx(2 / (2 / 3))


class TestReplicas:
    def test_replica_pairs_distinct(self, spark):
        e = edges_from_pairs(spark, [(1, 2), (1, 2), (1, 3)])
        ep = e.withColumn("pid", F.lit(0))
        prof = profile_cells({0: (ep, 1)})[0]
        assert prof.n_local.tolist() == [3]  # (1,0),(2,0),(3,0)
        assert prof.metrics.n_vertices == 3

    def test_replica_counts(self, spark):
        # vertex 1 is in both partitions, 2 and 3 in one each
        e = edges_from_pairs(spark, [(1, 2), (1, 3)])
        ep = e.withColumn("pid", (F.col("dst") % 2).cast("int"))
        prof = profile_cells({0: (ep, 2)})[0]
        assert prof.n_local.tolist() == [2, 2]
        m = prof.metrics
        assert (m.non_cut, m.cut, m.comm_cost) == (2, 1, 2)

    def test_per_partition_stats_sum(self, social_partition, social_small_edges):
        _, ep, _ = social_partition
        prof = profile_cells({0: (ep, N_PARTS)})[0]
        assert prof.m_edges.sum() == social_small_edges.count()

    def test_sum_deg_sq_star(self, spark):
        # hub + 3 leaves in one partition: local degs = [3,1,1,1]
        e = edges_from_pairs(spark, [(0, 1), (0, 2), (0, 3)])
        ep = e.withColumn("pid", F.lit(0))
        prof = profile_cells({0: (ep, 1)})[0]
        assert prof.sum_deg_sq[0] == 9 + 1 + 1 + 1
        assert prof.n_local[0] == 4


class TestAcrossStrategies:
    def test_rvc_lowest_noncut_on_social(self, spark, social_small_edges):
        """The paper's Appendix observation: RVC leaves almost no vertex
        uncut, while modulo/1D partitioners keep far more vertices whole."""
        ms = {}
        for s in ("RVC", "1D", "DC"):
            ep = partition_edges(social_small_edges, s, 64)
            ms[s] = compute_metrics(ep, 64)
        assert ms["RVC"].non_cut <= ms["1D"].non_cut
        assert ms["RVC"].non_cut <= ms["DC"].non_cut

    def test_crvc_cheaper_than_rvc_on_symmetric(self, spark, grid6_edges):
        """On a symmetric graph CRVC collocates both arc directions, so
        its CommCost must undercut RVC's (paper Tables 2/3, road rows)."""
        rvc = compute_metrics(partition_edges(grid6_edges, "RVC", 8), 8)
        crvc = compute_metrics(partition_edges(grid6_edges, "CRVC", 8), 8)
        assert crvc.comm_cost < rvc.comm_cost

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_metrics_finite(self, spark, grid6_edges, strategy):
        m = compute_metrics(partition_edges(grid6_edges, strategy, 8), 8)
        assert math.isfinite(m.balance) and math.isfinite(m.part_stdev)
        assert m.n_vertices == 36
