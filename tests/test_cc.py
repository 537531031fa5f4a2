"""Connected Components vs a union-find reference."""
from collections import defaultdict

import pytest

from repro.algos.connected_components import (
    cc_reference,
    connected_components,
    num_components,
)
from repro.graph.builders import edges_from_pairs


def _sync_label_rounds(pairs):
    """Per-round label changes of synchronous min-label propagation on
    the undirected view, where every vertex sends every round; ends
    with the first round that changes nothing."""
    nbrs = defaultdict(set)
    for s, d in pairs:
        nbrs[s].add(d)
        nbrs[d].add(s)
    label = {v: v for v in nbrs}
    counts = []
    while not counts or counts[-1]:
        new = {v: min(label[v], *(label[u] for u in nbrs[v])) for v in label}
        counts.append(sum(new[v] != label[v] for v in label))
        label = new
    return counts


def _labels(spark, pairs, max_iter=100):
    e = edges_from_pairs(spark, pairs)
    res = connected_components(e, max_iter=max_iter)
    return {r["id"]: r["label"] for r in res.vertices.collect()}


class TestAgainstReference:
    def test_islands(self, spark, islands_pairs):
        got = _labels(spark, islands_pairs)
        want = cc_reference(islands_pairs)
        assert got == want

    def test_er_digraph(self, spark, er_pairs):
        got = _labels(spark, er_pairs)
        want = cc_reference(er_pairs)
        assert got == want

    def test_grid(self, spark, grid6_pairs):
        got = _labels(spark, grid6_pairs)
        want = cc_reference(grid6_pairs)
        assert got == want

    def test_direction_ignored(self, spark):
        # weak connectivity: direction must not matter
        got = _labels(spark, [(5, 4), (3, 4), (2, 3)])
        assert set(got.values()) == {2}


class TestComponentCounts:
    def test_islands_count(self, spark, islands_pairs):
        e = edges_from_pairs(spark, islands_pairs)
        assert num_components(e) == 3

    def test_single_component(self, spark, grid6_pairs):
        e = edges_from_pairs(spark, grid6_pairs)
        assert num_components(e) == 1

    def test_many_singleton_pairs(self, spark):
        pairs = [(2 * i, 2 * i + 1) for i in range(10)]
        e = edges_from_pairs(spark, pairs)
        assert num_components(e) == 10

    def test_label_is_min_id(self, spark, islands_pairs):
        got = _labels(spark, islands_pairs)
        assert got[3] == 0 and got[12] == 10 and got[21] == 20


class TestIterationBehaviour:
    def test_activity_decays(self, spark, grid6_pairs):
        e = edges_from_pairs(spark, grid6_pairs)
        res = connected_components(e, max_iter=100)
        # label propagation converges: strictly fewer changes at the end
        assert res.active_per_iter[-1] == 0
        assert res.active_per_iter[0] > res.active_per_iter[-2] or res.iterations <= 2

    @pytest.mark.parametrize("graph", ["grid6", "islands"])
    def test_trace_matches_synchronous_propagation(self, spark, request, graph):
        # sending only changed labels must not change any round's count
        pairs = request.getfixturevalue(f"{graph}_pairs")
        res = connected_components(edges_from_pairs(spark, pairs))
        assert res.active_per_iter == _sync_label_rounds(pairs)

    def test_max_iter_caps(self, spark):
        pairs = [(i, i + 1) for i in range(30)]
        e = edges_from_pairs(spark, pairs)
        res = connected_components(e, max_iter=3)
        assert res.iterations == 3

    def test_ten_iterations_like_paper(self, spark, er_pairs):
        # the paper times CC at 10 supersteps; fixpoint may or may not
        # be hit, but labels never exceed the vertex's own id
        e = edges_from_pairs(spark, er_pairs)
        res = connected_components(e, max_iter=10)
        for r in res.vertices.collect():
            assert r["label"] <= r["id"]
