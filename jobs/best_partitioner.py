"""Reproduce the §4 prose tables for one algorithm (Figures 3–6 data):

- simulated runtime per (dataset, strategy, granularity),
- best partitioner per (dataset, granularity),
- Pearson correlation of time vs every metric per granularity,
- fine-vs-coarse granularity speedups (only when given two granularities).

Usage: python jobs/best_partitioner.py --algo pr [--tier bench]
       [--parts 128,256] [--out prefix]
"""
import argparse

from _common import emit, get_spark

from repro.experiments.tables import (
    best_partitioner_table,
    correlation_table,
    granularity_table,
    runtime_table,
)


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--algo", required=True, choices=("pr", "cc", "tr", "sssp"))
    ap.add_argument("--tier", default="bench", choices=("test", "bench"))
    ap.add_argument("--parts", default="128,256")
    ap.add_argument("--out", default=None, help="CSV prefix")
    args = ap.parse_args()
    parts = tuple(int(p) for p in args.parts.split(","))
    spark = get_spark(f"best_partitioner_{args.algo}")
    runs = runtime_table(spark, args.algo, tier=args.tier, parts=parts)
    pre = args.out
    emit(runs, pre and f"{pre}_runs.csv", title=f"{args.algo.upper()}: simulated runtimes")
    emit(
        best_partitioner_table(runs),
        pre and f"{pre}_best.csv",
        title=f"{args.algo.upper()}: best partitioner per (dataset, granularity)",
    )
    emit(
        correlation_table(runs),
        pre and f"{pre}_corr.csv",
        title=f"{args.algo.upper()}: Pearson r (time vs metric)",
    )
    if len(set(parts)) == 2:
        emit(
            granularity_table(runs),
            pre and f"{pre}_gran.csv",
            title=f"{args.algo.upper()}: fine (256) vs coarse (128) speedup",
        )
    spark.stop()


if __name__ == "__main__":
    main()
