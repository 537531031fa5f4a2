"""SSSP (shortest paths to landmarks) vs a BFS reference."""
from collections import Counter

import pytest

from repro.algos.sssp import sssp, sssp_reference
from repro.graph.builders import edges_from_pairs


def _dists(spark, pairs, landmarks, max_iter=50):
    e = edges_from_pairs(spark, pairs)
    res = sssp(e, landmarks, max_iter=max_iter)
    out = {}
    for r in res.vertices.collect():
        out.setdefault(r["landmark"], {})[r["id"]] = r["dist"]
    return out, res


class TestAgainstReference:
    def test_path(self, spark):
        pairs = [(0, 1), (1, 2), (2, 3)]
        got, _ = _dists(spark, pairs, [0])
        assert got[0] == sssp_reference(pairs, 0)

    def test_er_digraph(self, spark, er_pairs):
        got, _ = _dists(spark, er_pairs, [0])
        assert got[0] == sssp_reference(er_pairs, 0)

    def test_grid_from_corner(self, spark, grid6_pairs):
        got, _ = _dists(spark, grid6_pairs, [0])
        assert got[0] == sssp_reference(grid6_pairs, 0)

    def test_multiple_landmarks(self, spark, er_pairs):
        landmarks = [0, 7, 13]
        got, _ = _dists(spark, er_pairs, landmarks)
        for l in landmarks:
            assert got[l] == sssp_reference(er_pairs, l)


class TestSemantics:
    def test_directed_unreachable(self, spark):
        # arc 0->1 only: from 1 nothing is reachable except itself
        got, _ = _dists(spark, [(0, 1)], [1])
        assert got[1] == {1: 0}

    def test_direction_matters(self, spark):
        pairs = [(0, 1), (1, 2)]
        got, _ = _dists(spark, pairs, [2])
        assert got[2] == {2: 0}  # no arcs leave 2

    def test_source_distance_zero(self, spark, er_pairs):
        got, _ = _dists(spark, er_pairs, [3])
        assert got[3][3] == 0

    def test_unreached_vertices_absent(self, spark):
        got, _ = _dists(spark, [(0, 1), (5, 6)], [0])
        assert 5 not in got[0] and 6 not in got[0]

    def test_terminates_within_diameter_plus_one(self, spark):
        pairs = [(i, i + 1) for i in range(10)]
        _, res = _dists(spark, pairs, [0])
        assert res.iterations <= 11

    def test_frontier_trace_wave(self, spark, grid6_pairs):
        _, res = _dists(spark, grid6_pairs, [0])
        # BFS wave on a grid: activity rises then falls to 0
        trace = res.active_per_iter
        assert trace[-1] == 0
        assert max(trace) >= trace[0]

    def test_repeated_landmark_runs_once(self, spark):
        e = edges_from_pairs(spark, [(1, 2), (2, 3), (3, 1)])
        twice, once = sssp(e, [1, 1]), sssp(e, [1])
        assert sorted(twice.vertices.collect()) == sorted(once.vertices.collect())
        assert twice.vertices.count() == 3
        assert twice.active_per_iter == once.active_per_iter

    def test_no_landmarks(self, spark):
        res = sssp(edges_from_pairs(spark, [(1, 2), (2, 3)]), [])
        assert res.vertices.collect() == []
        assert res.vertices.dtypes == [("id", "bigint"), ("landmark", "bigint"), ("dist", "int")]
        assert res.active_per_iter == [0]

    @pytest.mark.parametrize("graph,landmarks", [("grid6", [0]), ("er", [0, 7, 13])])
    def test_trace_is_bfs_level_sizes(self, spark, request, graph, landmarks):
        # superstep t reaches exactly the pairs at BFS depth t, then one
        # quiet superstep detects the fixpoint
        pairs = request.getfixturevalue(f"{graph}_pairs")
        _, res = _dists(spark, pairs, landmarks)
        levels = Counter(
            d for l in landmarks for d in sssp_reference(pairs, l).values() if d > 0
        )
        assert res.active_per_iter == [levels[d] for d in range(1, max(levels) + 1)] + [0]
