"""Reproduce paper Table 1: dataset characterization.

Usage: python jobs/table1_datasets.py [--tier test|bench] [--out csv]

The heavy columns (triangles, components, diameter) are superlinear, so
the default tier is ``test``; metrics-only tables use ``bench``.
"""
import argparse

from _common import emit, get_spark

from repro.experiments.tables import table1


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--tier", default="test", choices=("test", "bench"))
    ap.add_argument("--out", default=None)
    args = ap.parse_args()
    spark = get_spark("table1")
    t = table1(spark, tier=args.tier)
    emit(t, args.out, title=f"Table 1 (tier={args.tier})")
    spark.stop()


if __name__ == "__main__":
    main()
