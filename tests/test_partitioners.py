"""Tests for the eight vertex-cut partitioners (paper §3)."""
import math

import pytest

from repro.experiments.wallclock import prepare
from repro.graph.builders import edges_from_pairs
from repro.graph.partitioners import (
    PAPER_STRATEGIES,
    STRATEGIES,
    partition_edges,
)

N_PARTS = 16


class TestInvariantsAllStrategies:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_pid_in_range(self, partitioned_social, strategy):
        pids = partitioned_social[strategy]["pid"]
        assert pids.between(0, N_PARTS - 1).all()

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_every_edge_assigned(self, partitioned_social, social_small_edges, strategy):
        assert len(partitioned_social[strategy]) == social_small_edges.count()
        assert partitioned_social[strategy]["pid"].notna().all()

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_deterministic(self, social_small_edges, partitioned_social, strategy):
        again = (
            partition_edges(social_small_edges, strategy, N_PARTS)
            .toPandas()
            .sort_values(["src", "dst"])
            .reset_index(drop=True)
        )
        assert again.equals(partitioned_social[strategy])

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_edge_set_preserved(self, partitioned_social, social_small_pdf, strategy):
        got = set(zip(partitioned_social[strategy].src, partitioned_social[strategy].dst))
        want = set(zip(social_small_pdf.src, social_small_pdf.dst))
        assert got == want

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_uses_multiple_partitions(self, partitioned_social, strategy):
        assert partitioned_social[strategy]["pid"].nunique() > 1


class TestColocationSemantics:
    """Each strategy's co-location guarantee from the paper's §3 prose."""

    def test_rvc_collocates_same_direction_multiedge(self, partitioned_social):
        # RVC hashes (src, dst): identical arcs always agree; a pid is a
        # pure function of the ordered pair.
        df = partitioned_social["RVC"]
        assert df.groupby(["src", "dst"])["pid"].nunique().max() == 1

    def test_crvc_collocates_both_directions(self, partitioned_social):
        df = partitioned_social["CRVC"]
        df = df.assign(
            lo=df[["src", "dst"]].min(axis=1), hi=df[["src", "dst"]].max(axis=1)
        )
        assert df.groupby(["lo", "hi"])["pid"].nunique().max() == 1

    def test_rvc_differs_from_crvc_on_reciprocal(self, spark):
        # On some reciprocal pair, RVC splits directions while CRVC never does.
        pairs = [(i, j) for i in range(40) for j in range(40) if i != j]
        e = edges_from_pairs(spark, pairs)
        rvc = partition_edges(e, "RVC", N_PARTS).toPandas()
        rvc = rvc.assign(lo=rvc[["src", "dst"]].min(axis=1), hi=rvc[["src", "dst"]].max(axis=1))
        assert rvc.groupby(["lo", "hi"])["pid"].nunique().max() > 1

    def test_1d_collocates_by_source(self, partitioned_social):
        assert partitioned_social["1D"].groupby("src")["pid"].nunique().max() == 1

    def test_sc_is_source_modulo(self, partitioned_social):
        df = partitioned_social["SC"]
        assert (df["pid"] == df["src"] % N_PARTS).all()

    def test_dc_is_dest_modulo(self, partitioned_social):
        df = partitioned_social["DC"]
        assert (df["pid"] == df["dst"] % N_PARTS).all()

    def test_2d_bounds_source_replication(self, partitioned_social):
        # A source's edges live in one grid column: ≤ ceil(sqrt(N)) pids.
        df = partitioned_social["2D"]
        bound = math.isqrt(N_PARTS)
        if bound * bound < N_PARTS:
            bound += 1
        assert df.groupby("src")["pid"].nunique().max() <= bound
        assert df.groupby("dst")["pid"].nunique().max() <= bound

    def test_2d_vertex_replication_bound(self, partitioned_social):
        # Total 2·ceil(sqrt(N)) bound on each vertex's replication.
        import pandas as pd

        df = partitioned_social["2D"]
        reps = pd.concat(
            [
                df[["src", "pid"]].rename(columns={"src": "id"}),
                df[["dst", "pid"]].rename(columns={"dst": "id"}),
            ]
        ).drop_duplicates()
        bound = math.isqrt(N_PARTS)
        if bound * bound < N_PARTS:
            bound += 1
        assert reps.groupby("id")["pid"].nunique().max() <= 2 * bound

    def test_dbh_cuts_high_degree_endpoint(self, spark):
        # Star: hub 0 -> leaves. DBH hashes the leaf (lower degree), so
        # edges spread across partitions and each leaf stays whole.
        e = edges_from_pairs(spark, [(0, i) for i in range(1, 101)])
        df = partition_edges(e, "DBH", 8).toPandas()
        assert df["pid"].nunique() > 1  # hub is cut
        assert df.groupby("dst")["pid"].nunique().max() == 1  # leaves whole

    def test_1d_keeps_star_hub_whole(self, spark):
        # Contrast with DBH: 1D puts the whole star on one partition.
        e = edges_from_pairs(spark, [(0, i) for i in range(1, 101)])
        df = partition_edges(e, "1D", 8).toPandas()
        assert df["pid"].nunique() == 1

    def test_hyb_low_in_degree_grouped_by_dst(self, spark):
        # Threshold 100 × (50 arcs / 50 vertices) = 100; every in-degree
        # is 1, so HYB is identical to hashing dst.
        e = edges_from_pairs(spark, [(i, (i + 1) % 50) for i in range(50)])
        df = partition_edges(e, "HYB", 8).toPandas()
        assert df.groupby("dst")["pid"].nunique().max() == 1

    def test_hyb_superstar_spread_by_src(self, spark):
        # One superstar destination above threshold: its in-edges spread.
        # Threshold 100 × (300 arcs / 201 vertices) ≈ 149 < the hub's 200.
        pairs = [(i, 999) for i in range(200)] + [(i, i + 1) for i in range(100)]
        e = edges_from_pairs(spark, pairs)
        df = partition_edges(e, "HYB", 8).toPandas()
        star = df[df.dst == 999]
        assert star["pid"].nunique() > 1


class TestEdgeCases:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_single_partition(self, spark, strategy):
        e = edges_from_pairs(spark, [(1, 2), (2, 3), (3, 1)])
        df = partition_edges(e, strategy, 1).toPandas()
        assert (df["pid"] == 0).all()

    def test_unknown_strategy_raises(self, er_edges):
        with pytest.raises(ValueError, match="unknown strategy"):
            partition_edges(er_edges, "XXX", 4)

    def test_zero_parts_raises(self, er_edges):
        with pytest.raises(ValueError, match="n_parts"):
            partition_edges(er_edges, "RVC", 0)

    def test_lowercase_strategy_accepted(self, er_edges):
        df = partition_edges(er_edges, "rvc", 4).toPandas()
        assert df["pid"].between(0, 3).all()

    def test_non_perfect_square_2d(self, er_edges):
        df = partition_edges(er_edges, "2D", 12).toPandas()
        assert df["pid"].between(0, 11).all()

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_prepare_rows_equal_partition_edges(self, er_edges, strategy):
        got = prepare(er_edges, strategy, 4).toPandas()
        want = partition_edges(er_edges, strategy, 4).toPandas()
        key = ["src", "dst", "pid"]
        assert list(got.columns) == key
        assert got.sort_values(key).reset_index(drop=True).equals(
            want.sort_values(key).reset_index(drop=True)
        )

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_partition_edges_runs_no_job(self, spark, er_edges, strategy):
        """Partitioning only builds a plan: the first job runs when a
        result is read. Adaptive execution is off, as in
        ``test_one_job_per_superstep``, so a job is an action."""
        sc = spark.sparkContext
        group = f"partition-edges-{strategy}"
        adaptive = spark.conf.get("spark.sql.adaptive.enabled")
        spark.conf.set("spark.sql.adaptive.enabled", "false")
        sc.setJobGroup(group, "count the jobs of one partition_edges call")
        try:
            partition_edges(er_edges, strategy, N_PARTS)
        finally:
            sc.setLocalProperty("spark.jobGroup.id", None)
            spark.conf.set("spark.sql.adaptive.enabled", adaptive)
        assert len(sc.statusTracker().getJobIdsForGroup(group)) == 0

    @pytest.mark.parametrize("strategy", PAPER_STRATEGIES)
    def test_more_parts_than_edges(self, spark, strategy):
        e = edges_from_pairs(spark, [(1, 2), (3, 4)])
        df = partition_edges(e, strategy, 64).toPandas()
        assert df["pid"].between(0, 63).all()
        assert len(df) == 2
