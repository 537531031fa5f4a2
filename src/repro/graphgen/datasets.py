"""Registry of the paper's nine datasets as scaled synthetic stand-ins.

Each entry records the paper's Table 1 characterization (for
EXPERIMENTS.md diffs) and a generator recipe. Two tiers:

- ``test``  — paper size / 2000 (unit/integration tests, <15 K edges)
- ``bench`` — paper size / 200 (table jobs and the claims test, up to ~1 M arcs)

``follow-jul`` is derived from ``follow-dec`` by a deterministic ~2/3
arc subsample, mirroring the paper's crawl-prefix containment (jul ⊂
dec); dropping 1/3 of arcs sheds mostly degree-1 leaves, which is also
why the paper's jul has a lower ZeroIn%% than dec.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.graph.builders import edges_from_pandas
from repro.graphgen.generators import grid_graph, social_graph

TIER_DIVISOR = {"test": 2000, "bench": 200}

#: Dataset order used throughout tables — the paper's Table 1 order.
DATASET_ORDER = (
    "roadnet-pa",
    "youtube",
    "roadnet-tx",
    "pocek",
    "roadnet-ca",
    "orkut",
    "soclivejournal",
    "follow-jul",
    "follow-dec",
)

#: Datasets the paper excludes from the SSSP experiment (Spark OOM).
SSSP_EXCLUDED = ("roadnet-pa", "roadnet-tx", "roadnet-ca")

#: The paper's large datasets ("big" in the §4 best-partitioner prose).
BIG_DATASETS = ("orkut", "soclivejournal", "follow-jul", "follow-dec")


@dataclass(frozen=True)
class PaperStats:
    """The paper's Table 1 row (triangles/diameter as published)."""

    vertices: int
    edges: int
    symm_pct: float
    zero_in_pct: float
    zero_out_pct: float
    triangles: float
    components: int
    diameter: float
    size_bytes: float


@dataclass(frozen=True)
class DatasetSpec:
    name: str
    kind: str  # "road" | "social"
    paper: PaperStats
    gen: dict = field(default_factory=dict)


_INF = math.inf

SPECS: dict[str, DatasetSpec] = {
    "roadnet-pa": DatasetSpec(
        "roadnet-pa",
        "road",
        PaperStats(1_088_092, 3_083_796, 100.0, 0.0, 0.0, 67.1e3, 1052, _INF, 83.7e6),
        gen=dict(drop_frac=0.28, n_islands=5, seed=11),
    ),
    "youtube": DatasetSpec(
        "youtube",
        "social",
        PaperStats(1_134_890, 2_987_624, 100.0, 0.0, 0.0, 3.0e6, 1, 20, 74.0e6),
        gen=dict(symmetry=1.0, out_skew=0.62, in_skew=0.62, n_components=1, seed=12),
    ),
    "roadnet-tx": DatasetSpec(
        "roadnet-tx",
        "road",
        PaperStats(1_379_917, 3_843_320, 100.0, 0.0, 0.0, 82.8e3, 1766, _INF, 56.5e6),
        gen=dict(drop_frac=0.28, n_islands=8, seed=13),
    ),
    "pocek": DatasetSpec(
        "pocek",
        "social",
        PaperStats(1_632_803, 30_622_564, 54.34, 6.94, 12.25, 32.5e6, 1, 11, 404e6),
        gen=dict(
            symmetry=0.5434,
            zero_in_frac=0.0694,
            zero_out_frac=0.1225,
            out_skew=0.72,
            in_skew=0.72,
            n_components=1,
            seed=14,
        ),
    ),
    "roadnet-ca": DatasetSpec(
        "roadnet-ca",
        "road",
        PaperStats(1_965_206, 5_533_214, 100.0, 0.0, 0.0, 120.6e3, 1052, _INF, 83.7e6),
        gen=dict(drop_frac=0.28, n_islands=5, seed=15),
    ),
    "orkut": DatasetSpec(
        "orkut",
        "social",
        PaperStats(3_072_441, 117_185_083, 100.0, 0.0, 0.0, 627.5e6, 1, 9, 3.3e9),
        gen=dict(symmetry=1.0, out_skew=0.68, in_skew=0.68, n_components=1, seed=16),
    ),
    "soclivejournal": DatasetSpec(
        "soclivejournal",
        "social",
        PaperStats(4_847_571, 68_993_773, 75.03, 7.39, 11.12, 285.7e6, 1876, _INF, 1.0e9),
        gen=dict(
            symmetry=0.7503,
            zero_in_frac=0.0739,
            zero_out_frac=0.1112,
            out_skew=0.70,
            in_skew=0.70,
            n_components=1876,
            seed=17,
        ),
    ),
    "follow-jul": DatasetSpec(
        "follow-jul",
        "social",
        PaperStats(17_100_000, 136_700_000, 37.57, 46.94, 25.65, 4.8e9, 52, _INF, 2.7e9),
        gen=dict(derived_from="follow-dec", keep_frac=0.667, seed=18),
    ),
    "follow-dec": DatasetSpec(
        "follow-dec",
        "social",
        PaperStats(26_300_000, 204_900_000, 37.57, 55.05, 18.34, 7.6e9, 47, _INF, 4.1e9),
        gen=dict(
            symmetry=0.3757,
            zero_in_frac=0.5505,
            zero_out_frac=0.1834,
            # Fig. 2: the follow graphs have the largest share of
            # "superstar" users by out/in ratio — heavy *out*-degree
            # hubs, which is also why the paper's Tables 2/3 show 1D/SC
            # (source-keyed) with the worst Balance and DC in between.
            out_skew=0.95,
            in_skew=0.80,
            n_components=47,
            seed=19,
        ),
    ),
}


def _scaled_counts(spec: DatasetSpec, tier: str) -> tuple[int, int]:
    div = TIER_DIVISOR[tier]
    return max(64, spec.paper.vertices // div), max(128, spec.paper.edges // div)


def _grid_dims(n: int) -> tuple[int, int]:
    r = math.isqrt(n)
    c = (n + r - 1) // r
    return r, c


def generate_pandas(name: str, tier: str = "test") -> pd.DataFrame:
    """Generate a dataset's arc list as pandas ``(src, dst)``."""
    spec = SPECS[name]
    n, e = _scaled_counts(spec, tier)
    if spec.kind == "road":
        rows, cols = _grid_dims(n)
        return grid_graph(rows, cols, **spec.gen)
    g = dict(spec.gen)
    if "derived_from" in g:
        # Keep/drop whole *unordered pairs* (deterministic multiplicative
        # hash of the canonical pair) so reciprocal arcs survive or die
        # together — an arc-wise subsample would halve the symmetry %.
        parent = generate_pandas(g["derived_from"], tier)
        lo = np.minimum(parent["src"].to_numpy(), parent["dst"].to_numpy())
        hi = np.maximum(parent["src"].to_numpy(), parent["dst"].to_numpy())
        key = (lo.astype(np.uint64) << np.uint64(32)) | hi.astype(np.uint64)
        h = (key * np.uint64(0x9E3779B97F4A7C15) + np.uint64(g["seed"])) >> np.uint64(40)
        keep = (h % np.uint64(1 << 20)) < np.uint64(int(g["keep_frac"] * (1 << 20)))
        return parent[keep].reset_index(drop=True)
    # Target E counts arcs for directed graphs and undirected edges for
    # symmetric ones (the paper follows SNAP's convention); pre-shrink
    # the base sample so the post-reciprocation arc count lands near E
    # (directed) or 2E (symmetric).
    s = g["symmetry"]
    if s >= 1.0:
        base = e
    else:
        f = s / (2.0 - s)
        base = int(e / (1.0 + f))
    return social_graph(n, base, **g)


def load(spark: SparkSession, name: str, tier: str = "test") -> DataFrame:
    """Generate a dataset and return its Spark edge DataFrame."""
    return edges_from_pandas(spark, generate_pandas(name, tier))
