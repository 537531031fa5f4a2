"""Evaluate PARSEL: metric-heuristic pick vs simulated optimum for every
(algorithm, dataset, granularity) cell; regret 0 % = picked the winner.

Builds the four algorithms' run tables (``runtime_table``) and reads
the picks and the simulated best off them (``parsel_table``).

Usage: python jobs/parsel_eval.py [--tier bench] [--out csv]
"""
import argparse

from _common import emit, get_spark

from repro.experiments.tables import parsel_table, runtime_table


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--tier", default="bench", choices=("test", "bench"))
    ap.add_argument("--out", default=None)
    args = ap.parse_args()
    spark = get_spark("parsel_eval")
    runs = {algo: runtime_table(spark, algo, tier=args.tier) for algo in ("pr", "cc", "tr", "sssp")}
    t = parsel_table(runs)
    emit(t, args.out, title="PARSEL pick vs simulated best")
    print(
        f"\nmean regret: {t.regret_pct.mean():.2f}%  "
        f"exact picks: {(t.regret_pct == 0).mean() * 100:.0f}%"
    )
    spark.stop()


if __name__ == "__main__":
    main()
