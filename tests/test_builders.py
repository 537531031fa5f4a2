"""Tests for repro.graph.builders — the edge-frame substrate."""
import re

import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.graph.builders import (
    canonical_undirected,
    dedup,
    degrees,
    drop_self_loops,
    edges_from_pairs,
    symmetrize,
    symmetry_pct,
    vertices,
)


@pytest.fixture(scope="module")
def tiny(spark):
    # 1->2, 2->1 (reciprocal), 1->3, 3->3 (loop), duplicate 1->3
    return edges_from_pairs(spark, [(1, 2), (2, 1), (1, 3), (3, 3), (1, 3)])


class TestVertices:
    def test_vertex_set(self, tiny):
        ids = {r["id"] for r in vertices(tiny).collect()}
        assert ids == {1, 2, 3}

    def test_vertices_er(self, er_edges, er_pairs):
        expected = {v for p in er_pairs for v in p}
        assert vertices(er_edges).count() == len(expected)

    def test_schema_long(self, tiny):
        assert dict(tiny.dtypes) == {"src": "bigint", "dst": "bigint"}


class TestDedupAndLoops:
    def test_dedup_removes_duplicate_arc(self, tiny):
        assert dedup(tiny).count() == 4

    def test_drop_self_loops(self, tiny):
        out = drop_self_loops(tiny).collect()
        assert all(r["src"] != r["dst"] for r in out)

    def test_dedup_keeps_direction(self, tiny):
        pairs = {(r["src"], r["dst"]) for r in dedup(tiny).collect()}
        assert (1, 2) in pairs and (2, 1) in pairs


class TestSymmetrize:
    def test_symmetrize_adds_reverse(self, tiny):
        pairs = {(r["src"], r["dst"]) for r in symmetrize(tiny).collect()}
        assert (3, 1) in pairs and (1, 3) in pairs

    def test_symmetrize_idempotent_count(self, grid6_edges):
        # grid is already symmetric: symmetrize must not change the set
        assert symmetrize(grid6_edges).count() == dedup(grid6_edges).count()

    def test_canonical_undirected(self, tiny):
        pairs = {(r["src"], r["dst"]) for r in canonical_undirected(tiny).collect()}
        assert pairs == {(1, 2), (1, 3)}

    def test_canonical_src_lt_dst(self, er_edges):
        out = canonical_undirected(er_edges)
        assert out.filter(F.col("src") >= F.col("dst")).count() == 0


class TestDegrees:
    def test_degrees_tiny(self, tiny):
        d = {r["id"]: (r["in_deg"], r["out_deg"], r["deg"]) for r in degrees(tiny).collect()}
        # duplicates count (degree over the multiset of arcs)
        assert d[1] == (1, 3, 4)
        assert d[2] == (1, 1, 2)
        assert d[3] == (3, 1, 4)  # loop counts on both sides

    def test_degrees_match_pairs(self, er_edges, er_pairs):
        from collections import Counter

        ins = Counter(d for _, d in er_pairs)
        outs = Counter(s for s, _ in er_pairs)
        got = {r["id"]: (r["in_deg"], r["out_deg"]) for r in degrees(er_edges).collect()}
        for v, (i, o) in got.items():
            assert ins.get(v, 0) == i
            assert outs.get(v, 0) == o

    def test_zero_in_vertices(self, spark):
        e = edges_from_pairs(spark, [(1, 2), (1, 3)])
        d = {r["id"]: r["in_deg"] for r in degrees(e).collect()}
        assert d[1] == 0

    def test_degrees_vs_pandas(self, spark):
        # self-loop 3->3, duplicate 1->3, 4 only as dst, 5 only as src
        pairs = [(1, 2), (2, 1), (1, 3), (3, 3), (1, 3), (2, 4), (5, 1)]
        arcs = pd.DataFrame(pairs, columns=["src", "dst"])
        want = (
            pd.DataFrame(
                {"in_deg": arcs["dst"].value_counts(), "out_deg": arcs["src"].value_counts()}
            )
            .fillna(0)
            .astype("int64")
            .rename_axis("id")
            .reset_index()
            .sort_values("id", ignore_index=True)
        )
        want["deg"] = want["in_deg"] + want["out_deg"]
        got = degrees(edges_from_pairs(spark, pairs)).toPandas()
        pd.testing.assert_frame_equal(got.sort_values("id", ignore_index=True), want)

    def test_one_exchange(self, spark, er_edges):
        # one aggregation over both endpoints: a single shuffle. Adaptive
        # execution wraps the plan until it runs, so it is off here.
        adaptive = spark.conf.get("spark.sql.adaptive.enabled")
        spark.conf.set("spark.sql.adaptive.enabled", "false")
        try:
            plan = degrees(er_edges)._jdf.queryExecution().executedPlan().toString()
        finally:
            spark.conf.set("spark.sql.adaptive.enabled", adaptive)
        assert len(re.findall(r"(?<!\w)Exchange ", plan)) == 1, plan

    def test_degree_sum_equals_arcs(self, er_edges):
        row = degrees(er_edges).agg(F.sum("in_deg").alias("i"), F.sum("out_deg").alias("o")).first()
        m = er_edges.count()
        assert row["i"] == m and row["o"] == m


class TestSymmetryPct:
    def test_fully_symmetric(self, grid6_edges):
        assert symmetry_pct(grid6_edges) == pytest.approx(100.0)

    def test_no_reciprocal(self, spark):
        e = edges_from_pairs(spark, [(1, 2), (2, 3), (3, 4)])
        assert symmetry_pct(e) == pytest.approx(0.0)

    def test_half_reciprocal(self, spark):
        # pair (1,2)/(2,1) reciprocated, arcs (3,4) and (5,6) not:
        # 2 of 4 arcs have a reverse
        e = edges_from_pairs(spark, [(1, 2), (2, 1), (3, 4), (5, 6)])
        assert symmetry_pct(e) == pytest.approx(50.0)

    def test_loops_and_dups_ignored(self, spark):
        e = edges_from_pairs(spark, [(1, 2), (2, 1), (1, 1), (1, 2)])
        assert symmetry_pct(e) == pytest.approx(100.0)
