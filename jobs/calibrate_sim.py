"""Check the paper's claims (§4 C1–C8, PARSEL, Tables 2/3) on the run tables.

Builds the four algorithms' run tables and the infra table from the
shared profile grid (Spark profiles only the cells missing from the
cache), prints ``claims_table`` (which scores PARSEL on the run tables)
and exits 1 if any claim fails. The claims and their thresholds are documented in
``repro.experiments.tables.claims_table``.

Usage: python jobs/calibrate_sim.py [--tier bench]
"""
import argparse
import sys

from _common import emit, get_spark

from repro.experiments.tables import claims_table, infra_table, runtime_table


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--tier", default="bench")
    args = ap.parse_args()
    spark = get_spark("calibrate_sim")
    runs = {algo: runtime_table(spark, algo, tier=args.tier) for algo in ("pr", "cc", "tr", "sssp")}
    claims = claims_table(runs, infra_table(spark, tier=args.tier))
    spark.stop()
    emit(claims, title=f"Paper claims (tier={args.tier})")
    print(f"\n{claims.ok.sum()}/{len(claims)} claims hold")
    sys.exit(0 if claims.ok.all() else 1)


if __name__ == "__main__":
    main()
