"""Reproduce paper Tables 2/3: partitioning metrics grid.

Usage: python jobs/table2_metrics.py [--parts 128] [--tier bench] [--out csv]

Profiles all 9 datasets under all 8 strategies at ``--parts``;
``--parts 128`` reproduces Table 2, ``--parts 256`` Table 3.
"""
import argparse

from _common import emit, get_spark

from repro.experiments.tables import metrics_table, profile_grid
from repro.graph.partitioners import STRATEGIES


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--parts", type=int, default=128)
    ap.add_argument("--tier", default="bench", choices=("test", "bench"))
    ap.add_argument("--out", default=None)
    args = ap.parse_args()
    spark = get_spark(f"table_metrics_{args.parts}")
    grid = profile_grid(spark, tier=args.tier, strategies=STRATEGIES, parts=(args.parts,))
    spark.stop()
    t = metrics_table(grid, args.parts)
    which = {128: "Table 2", 256: "Table 3"}.get(args.parts, f"{args.parts} partitions")
    emit(t, args.out, title=f"{which}: metrics @ {args.parts} partitions (tier={args.tier})")


if __name__ == "__main__":
    main()
