"""Diameter estimation (Table 1 column)."""
import math

from repro.algos.diameter import diameter
from repro.graph.builders import edges_from_pairs


class TestDiameter:
    def test_path_graph_exact(self, spark):
        pairs = []
        for i in range(7):
            pairs += [(i, i + 1), (i + 1, i)]
        e = edges_from_pairs(spark, pairs)
        assert diameter(e) == 7.0

    def test_disconnected_is_inf(self, spark, islands_edges):
        assert diameter(islands_edges) == math.inf

    def test_disconnected_start_in_larger_component_is_inf(self, spark):
        # The BFS from vertex 0 reaches the whole path 0–7 but not the
        # arc pair (20, 21): the reach check alone must give inf.
        pairs = [(20, 21), (21, 20)]
        for i in range(7):
            pairs += [(i, i + 1), (i + 1, i)]
        e = edges_from_pairs(spark, pairs)
        assert diameter(e) == math.inf

    def test_grid_double_sweep(self, spark, grid6_edges):
        # exact diameter of a 6x6 grid is 10; double sweep finds it
        assert diameter(grid6_edges) == 10.0

    def test_clique_is_one(self, spark):
        pairs = [(i, j) for i in range(4) for j in range(4) if i != j]
        e = edges_from_pairs(spark, pairs)
        assert diameter(e) == 1.0

    def test_directed_graph_uses_undirected_view(self, spark):
        # one-way path: still measured on the symmetrized graph
        e = edges_from_pairs(spark, [(0, 1), (1, 2)])
        assert diameter(e) == 2.0
