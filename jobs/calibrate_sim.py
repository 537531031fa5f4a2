"""The paper's §4 job: every simulated table, PARSEL's evaluation and the claims.

Loads the profile grid once (Spark profiles only the cells missing from
the cache), stops Spark, builds the four algorithms' run tables and the
infra table from the grid with pandas, and prints, per
algorithm, the runtimes, best partitioners, metric correlations and
granularity speedups (Figures 3–6); then the infra experiment, PARSEL's
picks against the simulated best, and ``claims_table``, which documents
the claims' thresholds. Exits 1 if a claim fails. ``--out DIR`` writes
one CSV per table (``pr_best.csv``, ``pr_gran.csv``, …, ``infra.csv``,
``parsel.csv``, ``claims.csv``).

Usage: python jobs/calibrate_sim.py [--tier bench] [--out DIR]
"""
import argparse
import sys
from pathlib import Path

from _common import emit, get_spark

from repro.experiments.tables import (
    best_partitioner_table,
    claims_table,
    correlation_table,
    granularity_table,
    infra_table,
    parsel_table,
    profile_grid,
    runtime_table,
)


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--tier", default="bench", choices=("test", "bench"))
    ap.add_argument("--out", default=None, metavar="DIR", help="write one CSV per table here")
    args = ap.parse_args()
    out = args.out and Path(args.out)
    if out:
        out.mkdir(parents=True, exist_ok=True)

    def csv(name: str):
        return out and out / f"{name}.csv"

    spark = get_spark("calibrate_sim")
    grid = profile_grid(spark, tier=args.tier)
    spark.stop()
    runs = {algo: runtime_table(grid, algo) for algo in ("pr", "cc", "tr", "sssp")}
    infra = infra_table(grid)

    for algo, t in runs.items():
        name = algo.upper()
        emit(t, csv(f"{algo}_runs"), title=f"{name}: simulated runtimes")
        emit(
            best_partitioner_table(t),
            csv(f"{algo}_best"),
            title=f"{name}: best partitioner per (dataset, granularity)",
        )
        emit(correlation_table(t), csv(f"{algo}_corr"), title=f"{name}: Pearson r (time vs metric)")
        emit(
            granularity_table(t),
            csv(f"{algo}_gran"),
            title=f"{name}: fine (256) vs coarse (128) speedup",
        )
    emit(infra, csv("infra"), title="Infra sensitivity: PR on follow-dec (2D)")
    parsel = parsel_table(runs)
    emit(parsel, csv("parsel"), title="PARSEL pick vs simulated best")
    print(
        f"\nmean regret: {parsel.regret_pct.mean():.2f}%  "
        f"exact picks: {(parsel.regret_pct == 0).mean() * 100:.0f}%"
    )
    claims = claims_table(runs, infra)
    emit(claims, csv("claims"), title=f"Paper claims (tier={args.tier})")
    print(f"\n{claims.ok.sum()}/{len(claims)} claims hold")
    sys.exit(0 if claims.ok.all() else 1)


if __name__ == "__main__":
    main()
