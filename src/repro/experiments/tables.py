"""Table builders for every experiment in the paper's evaluation (§4).

One function per published table (or numeric claim made in prose);
``jobs/`` wraps these for spark-submit and EXPERIMENTS.md records the
outputs next to the paper's numbers.

The expensive shared artifact is the **profile grid** — partition
metrics + per-partition loads for every (dataset, strategy, n_parts)
cell. ``profile_grid`` computes it with Spark and caches it on disk
(npz); it and ``table1`` are the only builders that take a
``SparkSession``. Tables 2/3 and every §4 table are pandas over the
grid a job loads once.

``runtime_table`` is the one builder of run tables, the simulated
times per grid cell. The best-partitioner, correlation, granularity
and PARSEL tables are pandas over run tables, and the infra table is
one run table per cluster configuration. ``claims_table`` turns the
run tables into the paper's claims, one row each with a pass/fail
verdict; ``jobs/calibrate_sim.py`` (the §4 job, which loads the grid
once and prints every table) and ``tests/test_claims.py`` fail when a
row does.
"""
from __future__ import annotations

import ast
import hashlib
import math
import os
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pandas as pd
import pyspark
from pyspark.sql import SparkSession
from pyspark.sql import functions as F

from repro.algos.connected_components import num_components
from repro.algos.diameter import diameter as graph_diameter
from repro.algos.triangles import triangle_count_total
from repro.core.correlate import METRIC_COLS, metric_time_correlations
from repro.core.parsel import METRIC_FOR_ALGO, select_partitioner
from repro.graph import builders, partitioners
from repro.graph.builders import degrees, symmetry_pct
from repro.graph.partitioners import PAPER_STRATEGIES, partition_edges
from repro.graphgen import datasets as datasets_module
from repro.graphgen import generators
from repro.graphgen.datasets import (
    BIG_DATASETS,
    DATASET_ORDER,
    SPECS,
    SSSP_EXCLUDED,
    load,
)
from repro.metrics import partition_metrics
from repro.metrics.partition_metrics import load_profile, profile_cells, save_profile
from repro.simcluster.cost_model import (
    CONFIG_PARTS,
    ClusterSpec,
    PartitionProfile,
    simulate,
)

#: The modules a cached profile is computed from. Their code (the syntax
#: tree without docstrings, so comments and docstrings do not count) and
#: the numpy and pyspark versions key every cache file, so a change to a
#: generator, a partitioner or the profile derivation (or its npz format)
#: never reuses a stale profile.
KEYED_MODULES = tuple(
    Path(m.__file__)
    for m in (generators, datasets_module, builders, partitioners, partition_metrics)
)

CACHE_DIR = Path(
    os.environ.get("REPRO_CACHE")
    or Path(__file__).resolve().parents[3] / ".cache" / "profiles"
)

#: The profile grid: one profile per (dataset, strategy, n_parts) cell.
Grid = dict[tuple[str, str, int], PartitionProfile]


#: Effective BFS diameter handed to the SSSP activity schedule: the
#: paper's published diameter when finite, else a wave bounded by 20.
def _sssp_diameter(name: str) -> int:
    d = SPECS[name].paper.diameter
    return int(d) if math.isfinite(d) else 20


# ---------------------------------------------------------------- Table 1


def table1(spark: SparkSession, *, tier: str = "test", datasets=DATASET_ORDER) -> pd.DataFrame:
    """Dataset characterization (paper Table 1) on the synthetic stand-ins.

    Edge counts follow the paper's SNAP convention: undirected edge
    count for 100 %-symmetric graphs, arc count otherwise. Size is the
    on-disk footprint of the edge list written as Parquet. The diameter
    sweeps run only on graphs with one component; the others are ∞.
    """
    rows = []
    for name in datasets:
        e = load(spark, name, tier).localCheckpoint(eager=True)
        n_arcs, nv, zero_in, zero_out = degrees(e).agg(
            F.sum("out_deg"),
            F.count(F.lit(1)),
            F.count_if(F.col("in_deg") == 0),
            F.count_if(F.col("out_deg") == 0),
        ).first()
        symm = symmetry_pct(e)
        tri = triangle_count_total(e)
        ncomp = num_components(e)
        diam = graph_diameter(e) if ncomp == 1 else math.inf
        with tempfile.TemporaryDirectory() as td:
            out = os.path.join(td, "edges.parquet")
            e.write.mode("overwrite").parquet(out)
            size = sum(
                f.stat().st_size for f in Path(out).rglob("*") if f.is_file()
            )
        rows.append(
            dict(
                dataset=name,
                vertices=nv,
                edges=n_arcs // 2 if symm >= 99.999 else n_arcs,
                symm_pct=round(symm, 2),
                zero_in_pct=round(100.0 * zero_in / nv, 2),
                zero_out_pct=round(100.0 * zero_out / nv, 2),
                triangles=tri,
                components=ncomp,
                diameter=diam,
                size_bytes=size,
            )
        )
    return pd.DataFrame(rows)


# ------------------------------------------------- profile grid (shared)


def _code_digest() -> str:
    """Digest of the keyed modules' code and the numpy/pyspark versions.

    A module's code is ``ast.dump`` of its syntax tree without the
    module, class and function docstrings.
    """
    h = hashlib.sha256(f"numpy {np.__version__} pyspark {pyspark.__version__}".encode())
    for path in KEYED_MODULES:
        tree = ast.parse(path.read_bytes())
        for node in ast.walk(tree):
            if isinstance(
                node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
            ) and ast.get_docstring(node, clean=False) is not None:
                node.body = node.body[1:]
        h.update(ast.dump(tree).encode())
    return h.hexdigest()[:16]


def _cache_path(digest: str, dataset: str, tier: str, strategy: str, n_parts: int) -> Path:
    # The name says which cell this is; the digest says which code made it.
    return CACHE_DIR / f"{dataset}_{tier}_{strategy}_{n_parts}_{digest}.npz"


def profile_grid(
    spark: SparkSession,
    *,
    tier: str = "bench",
    datasets=DATASET_ORDER,
    strategies=PAPER_STRATEGIES,
    parts=(128, 256),
) -> Grid:
    """All profiles for the evaluation grid (cached across processes).

    Cells are ordered by dataset, then granularity, then strategy. The
    uncached cells of each dataset are profiled together in one Spark
    job (``profile_cells``).
    """
    digest = _code_digest()
    grid: Grid = {}
    for name in datasets:
        keys = [(name, s, n) for n in parts for s in strategies]
        paths = {k: _cache_path(digest, name, tier, k[1], k[2]) for k in keys}
        found = {k: load_profile(paths[k]) for k in keys if paths[k].exists()}
        missing = [k for k in keys if k not in found]
        if missing:
            edges = load(spark, name, tier).localCheckpoint(eager=True)
            found.update(
                profile_cells({k: (partition_edges(edges, k[1], k[2]), k[2]) for k in missing})
            )
            for k in missing:
                save_profile(paths[k], found[k])
        grid.update((k, found[k]) for k in keys)
    return grid


# ------------------------------------------------------------ Tables 2/3


def metrics_table(grid: Grid, n_parts: int) -> pd.DataFrame:
    """Paper Table 2 (128 partitions) / Table 3 (256): the metrics of the
    ``grid`` cells at ``n_parts``, in the grid's order."""
    rows = []
    for (name, s, n), prof in grid.items():
        if n != n_parts:
            continue
        m = prof.metrics
        rows.append(
            dict(
                dataset=name,
                partitioner=s,
                balance=round(m.balance, 2),
                non_cut=m.non_cut,
                cut=m.cut,
                comm_cost=m.comm_cost,
                part_stdev=round(m.part_stdev, 2),
            )
        )
    return pd.DataFrame(rows)


# ------------------------------------- §4 runtime-derived tables (Figs 3–6)


def runtime_table(grid: Grid, algo: str, *, spec: ClusterSpec = ClusterSpec()) -> pd.DataFrame:
    """Tidy table: simulated time + metrics per ``grid`` cell.

    One row per (dataset, strategy, n_parts) cell, in the grid's order;
    for SSSP the road networks are skipped, as the paper does (Spark OOM
    on the authors' cluster). This is the data behind Figures 3–6 and
    all §4 prose claims; every table of the §4 evaluation reads it.
    (PARSEL's own ``select_granularity`` also simulates its candidates.)
    ``spec`` is the simulated cluster.
    """
    algo = algo.lower()
    rows = []
    for (name, s, n_parts), prof in grid.items():
        if algo == "sssp" and name in SSSP_EXCLUDED:
            continue
        m = prof.metrics
        rows.append(
            dict(
                dataset=name,
                strategy=s,
                n_parts=n_parts,
                time=simulate(algo, prof, spec, diameter=_sssp_diameter(name)),
                balance=m.balance,
                non_cut=m.non_cut,
                cut=m.cut,
                comm_cost=m.comm_cost,
                part_stdev=m.part_stdev,
            )
        )
    return pd.DataFrame(rows)


def best_partitioner_table(runs: pd.DataFrame) -> pd.DataFrame:
    """Per (dataset, n_parts): the simulated-fastest strategy (§4 prose)."""
    idx = runs.groupby(["dataset", "n_parts"])["time"].idxmin()
    best = runs.loc[idx, ["dataset", "n_parts", "strategy", "time"]]
    return best.sort_values(["dataset", "n_parts"]).reset_index(drop=True)


def correlation_table(runs: pd.DataFrame) -> pd.DataFrame:
    """Pearson r of time vs each metric, per granularity (§4 coefficients)."""
    rows = []
    for n_parts, sub in runs.groupby("n_parts"):
        r = metric_time_correlations(sub)
        rows.append(dict(n_parts=n_parts, **{m: round(r[m], 3) for m in r.index}))
    return pd.DataFrame(rows)


def granularity_table(runs: pd.DataFrame) -> pd.DataFrame:
    """Fine-vs-coarse speedup per dataset, using each config's best strategy.

    Positive pct = configuration (ii) (fine) is faster, as the paper
    reports for CC (up to 22 %) and TR (up to 40 %); negative = coarse
    wins, as for PR. ``runs`` must hold exactly two granularities, else
    ``ValueError``.
    """
    best = runs.groupby(["dataset", "n_parts"])["time"].min().unstack("n_parts")
    if len(best.columns) != 2:
        raise ValueError(f"granularity_table needs two granularities, got {sorted(best.columns)}")
    coarse, fine = sorted(best.columns)
    out = pd.DataFrame(
        {
            "time_coarse": best[coarse],
            "time_fine": best[fine],
            "fine_speedup_pct": (100.0 * (best[coarse] - best[fine]) / best[coarse]).round(1),
        }
    )
    return out.reset_index()


# ----------------------------------------------------- infra experiment


def infra_table(grid: Grid) -> pd.DataFrame:
    """PR on follow-dec (2D) under the paper's infra configs (ii)/(iii)/(iv).

    (ii) 1 Gbps + HDD, (iii) 40 Gbps + HDD, (iv) 40 Gbps + local SSD;
    all at 256 partitions. The paper reports −15 % and −20 % vs (ii).
    Each config's time is a one-cell ``runtime_table`` of the ``grid``
    cell ``("follow-dec", "2D", 256)``.
    """
    key = ("follow-dec", "2D", CONFIG_PARTS["ii"])
    cell = {key: grid[key]}
    configs = {
        "ii (1Gbps, HDD)": ClusterSpec(),
        "iii (40Gbps, HDD)": replace(ClusterSpec(), net_gbps=40.0),
        "iv (40Gbps, SSD)": replace(ClusterSpec(), net_gbps=40.0, ssd=True),
    }
    times = {
        cname: runtime_table(cell, "pr", spec=cspec)["time"].item()
        for cname, cspec in configs.items()
    }
    t_ref = times["ii (1Gbps, HDD)"]
    return pd.DataFrame(
        [
            dict(config=cname, time=t, delta_vs_ii_pct=round(100.0 * (t - t_ref) / t_ref, 1))
            for cname, t in times.items()
        ]
    )


# ----------------------------------------------------------- PARSEL eval


def parsel_table(runs: dict[str, pd.DataFrame]) -> pd.DataFrame:
    """PARSEL's pick vs the simulated-best, per (algorithm, dataset, n_parts).

    ``runs`` maps each algorithm to its ``runtime_table``. The pick is
    the paper's metric rule (``select_partitioner``) over the cell's
    metric columns; the best is the cell's minimum ``time``.
    ``regret_pct`` is how much slower the pick is than the best — 0.0
    means it picked the winner.
    """
    rows = []
    for algo, table in runs.items():
        for (name, n_parts), cell in table.groupby(["dataset", "n_parts"], sort=False):
            pick, _ = select_partitioner(dict(zip(cell.strategy, cell.itertuples())), algo)
            times = dict(zip(cell.strategy, cell.time.tolist()))
            best = min(times, key=times.get)
            regret = 100.0 * (times[pick] - times[best]) / times[best]
            rows.append(
                dict(
                    algo=algo,
                    dataset=name,
                    n_parts=n_parts,
                    parsel_pick=pick,
                    sim_best=best,
                    regret_pct=round(regret, 2),
                    metric_used=METRIC_FOR_ALGO[algo],
                )
            )
    return pd.DataFrame(rows)


# ---------------------------------------------------------- paper claims


def claims_table(runs: dict[str, pd.DataFrame], infra: pd.DataFrame) -> pd.DataFrame:
    """The paper's findings as checked claims, one row each.

    ``runs`` maps ``pr``/``cc``/``tr``/``sssp`` to that algorithm's
    ``runtime_table`` and ``infra`` is ``infra_table``; the PARSEL rows
    are scored on ``parsel_table(runs)``. Returns
    ``(claim, ours, target, ok)``: the measured value, the claim with its
    threshold, and whether it holds.

    - C1–C8, the §4 claims the cost model is calibrated against:
      correlations (C1–C4), granularity (C5–C7) and the infra deltas (C8).
      Two are relaxed against the paper (EXPERIMENTS.md): C4 checks
      CommCost's r band without ranking it, and C6/C7 check direction and
      crossover instead of the full magnitude, which the constants that
      reproduce C3 cannot reach.
    - P1–P2, PARSEL's metric rule against the simulated optimum.
    - T1–T3, the structure of Tables 2/3 (paper Appendix A).
    """
    corr = {a: correlation_table(r).set_index("n_parts") for a, r in runs.items()}
    speedup = {
        a: granularity_table(r).set_index("dataset")["fine_speedup_pct"] for a, r in runs.items()
    }
    rows = []

    def claim(cid: str, target: str, ours: str, ok) -> None:
        rows.append(dict(claim=cid, ours=ours, target=target, ok=bool(ok)))

    def r(algo: str, metric: str) -> str:
        return "/".join(str(v) for v in corr[algo][metric].round(2))

    def pct(sp: pd.Series) -> str:
        return ", ".join(f"{d} {v:+.1f}" for d, v in sp.items())

    for cid, algo, paper in (("C1", "pr", "95/96"), ("C2", "cc", "92/94")):
        top = corr[algo][list(METRIC_COLS)].abs().idxmax(axis=1)
        claim(
            cid,
            f"{algo}: CommCost is the top |r| at each granularity (paper {paper} %)",
            f"CommCost r {r(algo, 'comm_cost')}, top {'/'.join(top)}",
            (top == "comm_cost").all(),
        )
    tr = corr["tr"]
    claim(
        "C3",
        "tr: |r| of Cut above CommCost at each granularity (paper 95/97 vs 43/34 %)",
        f"Cut r {r('tr', 'cut')} vs CommCost r {r('tr', 'comm_cost')}",
        (tr["cut"].abs() > tr["comm_cost"].abs()).all(),
    )
    claim(
        "C4",
        "sssp: CommCost r in [0.70, 0.95] at each granularity (paper 80/86 %)",
        f"CommCost r {r('sssp', 'comm_cost')}",
        corr["sssp"]["comm_cost"].between(0.70, 0.95).all(),
    )
    sp = speedup["pr"]
    claim("C5", "pr: fine (256) slower than coarse (128) on every dataset", pct(sp), (sp < 0).all())
    sp = speedup["cc"]
    claim(
        "C6",
        "cc: fine wins on follow-dec/jul, > -8 % on the big datasets, "
        "more on follow-dec than pocek (paper up to +22 %)",
        pct(sp),
        sp["follow-dec"] > 0
        and sp["follow-jul"] > 0
        and sp[list(BIG_DATASETS)].min() > -8.0
        and sp["follow-dec"] > sp["pocek"],
    )
    sp = speedup["tr"]
    claim(
        "C7",
        "tr: fine > -5 % on the big datasets and wins somewhere (paper up to +40 %)",
        pct(sp),
        (sp[list(BIG_DATASETS)] > -5.0).all() and sp.max() > 0,
    )
    t_ii, t_iii, t_iv = infra["time"]
    d3 = 100 * (t_iii - t_ii) / t_ii
    d4 = 100 * (t_iv - t_ii) / t_ii
    claim(
        "C8",
        "infra: -25 % <= (iv) < (iii) <= -8 % vs (ii) (paper -15/-20 %)",
        f"iii {d3:.1f} %, iv {d4:.1f} %",
        -25 <= d4 < d3 <= -8,
    )

    regret = parsel_table(runs)["regret_pct"]
    claim(
        "P1",
        "parsel: regret >= 0 in every cell",
        f"min {regret.min():.2f} % over {len(regret)} cells",
        (regret >= 0).all(),
    )
    exact = (regret == 0).mean()
    claim(
        "P2",
        "parsel: exact pick in > 50 % of cells",
        f"{100 * exact:.1f} % of {len(regret)} cells, mean regret {regret.mean():.2f} %",
        exact > 0.5,
    )

    # Tables 2/3: the metrics are the same in every algorithm's runs.
    m = runs["pr"]
    orkut = m[m.dataset == "orkut"]
    lowest = orkut.loc[orkut.groupby("n_parts")["comm_cost"].idxmin(), "strategy"]
    claim(
        "T1",
        "orkut: 2D has the lowest CommCost of the six at each granularity",
        f"lowest {'/'.join(lowest)}",
        (lowest == "2D").all(),
    )
    c = m.pivot_table(index=["dataset", "strategy"], columns="n_parts", values="comm_cost")
    coarse, fine = sorted(c.columns)
    ratio = c[fine] / c[coarse]
    claim(
        "T2",
        f"CommCost {coarse} -> {fine}: never falls, stays below 2x (paper e.g. orkut 2D x1.17)",
        f"x{ratio.min():.3f} to x{ratio.max():.3f} over {len(ratio)} cells",
        ((ratio >= 1) & (ratio < 2)).all(),
    )
    road = m[m.dataset.map(lambda d: SPECS[d].kind == "road")]
    c = road.pivot_table(index=["dataset", "n_parts"], columns="strategy", values="comm_cost")
    ratio = c["CRVC"] / c["RVC"]
    claim(
        "T3",
        "roads: CRVC CommCost 0.45-0.55x RVC's (paper roadnet-pa 0.507)",
        f"x{ratio.min():.3f} to x{ratio.max():.3f}",
        ratio.between(0.45, 0.55).all(),
    )
    return pd.DataFrame(rows)
