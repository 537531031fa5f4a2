"""PageRank vs the pure-Python GraphX-semantics reference."""
import pytest

from repro.algos.pagerank import pagerank, pagerank_reference
from repro.graph.builders import edges_from_pairs


def _run_both(spark, pairs, num_iter=10):
    e = edges_from_pairs(spark, pairs)
    got = {
        r["id"]: r["rank"]
        for r in pagerank(e, num_iter=num_iter).vertices.collect()
    }
    want = pagerank_reference(pairs, num_iter=num_iter)
    return got, want


class TestAgainstReference:
    def test_cycle(self, spark):
        got, want = _run_both(spark, [(0, 1), (1, 2), (2, 0)])
        for v in want:
            assert got[v] == pytest.approx(want[v], rel=1e-9)

    def test_star_out(self, spark):
        got, want = _run_both(spark, [(0, i) for i in range(1, 6)])
        for v in want:
            assert got[v] == pytest.approx(want[v], rel=1e-9)

    def test_star_in(self, spark):
        got, want = _run_both(spark, [(i, 0) for i in range(1, 6)])
        for v in want:
            assert got[v] == pytest.approx(want[v], rel=1e-9)

    def test_er_digraph(self, spark, er_pairs):
        got, want = _run_both(spark, er_pairs, num_iter=5)
        assert len(got) == len(want)
        for v in want:
            assert got[v] == pytest.approx(want[v], rel=1e-8)

    def test_grid(self, spark, grid6_pairs):
        got, want = _run_both(spark, grid6_pairs, num_iter=4)
        for v in want:
            assert got[v] == pytest.approx(want[v], rel=1e-8)


class TestSemantics:
    def test_cycle_ranks_all_one(self, spark):
        # in a cycle every vertex keeps rank exactly 1 (GraphX fixpoint)
        got, _ = _run_both(spark, [(0, 1), (1, 2), (2, 0)])
        assert all(r == pytest.approx(1.0) for r in got.values())

    def test_dangling_mass_not_redistributed(self, spark):
        # GraphX static PR: sink keeps absorbing, total sum < n
        pairs = [(0, 1), (1, 2)]  # 2 is a sink
        got, _ = _run_both(spark, pairs)
        assert sum(got.values()) < 3.0

    def test_source_floor_rank(self, spark):
        # a vertex with no in-edges settles at exactly resetProb
        got, _ = _run_both(spark, [(0, 1), (1, 2)])
        assert got[0] == pytest.approx(0.15)

    def test_hub_outranks_leaves(self, spark):
        # hub 0 collects mass from 7 leaves and forwards it all to 1:
        # so 1 > 0 > every leaf with out-degree support
        got, _ = _run_both(spark, [(i, 0) for i in range(1, 8)] + [(0, 1)])
        leaves = [got[v] for v in range(2, 8)]
        assert got[1] > got[0] > max(leaves)

    def test_iterations_counted(self, spark):
        e = edges_from_pairs(spark, [(0, 1), (1, 0)])
        res = pagerank(e, num_iter=3)
        assert res.iterations == 3
        assert res.active_per_iter == [2] * 3  # every vertex, every superstep
