"""Shared test fixtures: small deterministic graphs, session-scoped.

Everything here is tiny (≤ ~15 K arcs) so the several hundred tests
stay fast; the bench tier is exercised only by ``test_claims.py``. Spark
DataFrames are localCheckpoint-ed so fixture reuse does not recompute
lineage.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
import pytest

from repro.graph.builders import edges_from_pairs, edges_from_pandas


def er_digraph_pairs(n: int = 60, p: float = 0.08, seed: int = 42) -> list[tuple[int, int]]:
    """Deterministic Erdős–Rényi digraph as a pair list (no self-loops)."""
    g = np.random.default_rng(seed)
    mat = g.random((n, n)) < p
    np.fill_diagonal(mat, False)
    src, dst = np.nonzero(mat)
    return list(zip(src.tolist(), dst.tolist()))


def grid_pairs(rows: int, cols: int) -> list[tuple[int, int]]:
    """Full 4-neighbour grid, both arc directions, row-major ids."""
    pairs = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                pairs += [(v, v + 1), (v + 1, v)]
            if r + 1 < rows:
                pairs += [(v, v + cols), (v + cols, v)]
    return pairs


@pytest.fixture(scope="session")
def er_pairs():
    return er_digraph_pairs()


@pytest.fixture(scope="session")
def er_edges(spark, er_pairs):
    return edges_from_pairs(spark, er_pairs).localCheckpoint(eager=True)


@pytest.fixture(scope="session")
def grid6_pairs():
    return grid_pairs(6, 6)


@pytest.fixture(scope="session")
def grid6_edges(spark, grid6_pairs):
    return edges_from_pairs(spark, grid6_pairs).localCheckpoint(eager=True)


@pytest.fixture(scope="session")
def islands_pairs():
    """Three components: a 4-cycle, a K3 triangle, and one lone arc pair."""
    cyc = [(0, 1), (1, 2), (2, 3), (3, 0)]
    tri = [(10, 11), (11, 12), (12, 10), (11, 10), (12, 11), (10, 12)]
    lone = [(20, 21), (21, 20)]
    return cyc + tri + lone


@pytest.fixture(scope="session")
def islands_edges(spark, islands_pairs):
    return edges_from_pairs(spark, islands_pairs).localCheckpoint(eager=True)


@pytest.fixture(scope="session")
def social_small_pdf():
    """Pocek stand-in at test tier — the densest fast dataset."""
    from repro.graphgen.datasets import generate_pandas

    return generate_pandas("pocek", "test")


@pytest.fixture(scope="session")
def social_small_edges(spark, social_small_pdf):
    return edges_from_pandas(spark, social_small_pdf).localCheckpoint(eager=True)


@pytest.fixture(scope="session")
def partitioned_social(spark, social_small_edges):
    """pid assignments per strategy, collected once: {strategy: pandas}."""
    from repro.graph.partitioners import STRATEGIES, partition_edges

    out = {}
    for s in STRATEGIES:
        out[s] = (
            partition_edges(social_small_edges, s, 16)
            .toPandas()
            .sort_values(["src", "dst"])
            .reset_index(drop=True)
        )
    return out
