"""Tests for the DataFrame Pregel/BSP engine."""
import pytest
from pyspark.sql import functions as F

from repro.graph.builders import edges_from_pairs, vertices
from repro.graph.pregel import run_pregel


def _min_propagation(edges_df, max_iter=20):
    """Min-label propagation along arcs — tiny CC building block."""
    init = vertices(edges_df).select("id", F.col("id").alias("label"))

    def send(e):
        return e.select(F.col("dst").alias("id"), F.col("src_label").alias("msg"))

    def update(joined):
        new = F.least(F.col("label"), F.coalesce(F.col("msg"), F.col("label")))
        return joined.select(
            "id", new.alias("label"), (new < F.col("label")).alias("changed")
        )

    return run_pregel(init, edges_df, send, F.min("msg"), update, max_iter=max_iter)


class TestConvergence:
    def test_path_converges(self, spark):
        e = edges_from_pairs(spark, [(1, 2), (2, 3), (3, 4)])
        res = _min_propagation(e)
        labels = {r["id"]: r["label"] for r in res.vertices.collect()}
        assert labels == {1: 1, 2: 1, 3: 1, 4: 1}
        # 3 propagation steps + 1 quiescent detection step
        assert res.iterations <= 4

    def test_stops_when_no_change(self, spark):
        e = edges_from_pairs(spark, [(1, 2)])
        res = _min_propagation(e, max_iter=50)
        assert res.iterations < 50
        assert res.active_per_iter[-1] == 0

    def test_max_iter_respected(self, spark):
        e = edges_from_pairs(spark, [(i, i + 1) for i in range(20)])
        res = _min_propagation(e, max_iter=3)
        assert res.iterations == 3
        assert len(res.active_per_iter) == 3

    def test_activity_trace_monotone_path(self, spark):
        # on a directed path the frontier is 1 wide: every step changes
        # a shrinking suffix of vertices
        e = edges_from_pairs(spark, [(i, i + 1) for i in range(6)])
        res = _min_propagation(e)
        assert res.active_per_iter[0] >= res.active_per_iter[-2]


class TestStateHandling:
    def test_isolated_from_messages_keeps_state(self, spark):
        # vertex 3 never receives a message (no in-edges)
        e = edges_from_pairs(spark, [(3, 1), (1, 2)])
        res = _min_propagation(e)
        labels = {r["id"]: r["label"] for r in res.vertices.collect()}
        assert labels[3] == 3  # nothing propagates *into* 3 (min flows down)
        assert labels[1] == 1 and labels[2] == 1

    def test_only_changed_rows_send(self, spark):
        # every row sends in superstep 1; after that only vertex 0, the
        # one row whose update reports a change, sends. Vertex 1 adds its
        # 3 in-arcs once and then vertex 0's arc once per superstep (it
        # would read 9 if unchanged rows sent again); vertex 2 adds its
        # 2 in-arcs once
        pairs = [(5, 1), (4, 1), (0, 1), (1, 2), (5, 2)]
        e = edges_from_pairs(spark, pairs)
        init = vertices(e).select("id", F.lit(0).alias("val"))

        def send(edge_df):
            return edge_df.select(F.col("dst").alias("id"), F.lit(1).alias("msg"))

        def update(joined):
            return joined.select(
                "id",
                (F.col("val") + F.coalesce(F.col("msg"), F.lit(0))).alias("val"),
                (F.col("id") == 0).alias("changed"),
            )

        res = run_pregel(init, e, send, F.sum("msg"), update, max_iter=3)
        vals = {r["id"]: r["val"] for r in res.vertices.collect()}
        assert vals == {0: 0, 1: 5, 2: 2, 4: 0, 5: 0}
        assert res.iterations == 3
        assert res.active_per_iter == [1, 1, 1]


class TestJobs:
    def test_one_job_per_superstep(self, spark):
        """A run submits the initial checkpoint plus one checkpoint job
        per superstep; the changed rows are counted on that job, not by
        a job of their own. Adaptive execution submits every shuffle
        stage as a job of its own, so it is off here: then every job is
        one action."""
        e = edges_from_pairs(spark, [(i, i + 1) for i in range(5)])
        sc = spark.sparkContext
        adaptive = spark.conf.get("spark.sql.adaptive.enabled")
        spark.conf.set("spark.sql.adaptive.enabled", "false")
        sc.setJobGroup("pregel-jobs", "count the jobs of one run_pregel call")
        try:
            res = _min_propagation(e)
        finally:
            sc.setLocalProperty("spark.jobGroup.id", None)
            spark.conf.set("spark.sql.adaptive.enabled", adaptive)
        assert res.active_per_iter == [5, 4, 3, 2, 1, 0]
        jobs = sc.statusTracker().getJobIdsForGroup("pregel-jobs")
        assert len(jobs) == res.iterations + 1
