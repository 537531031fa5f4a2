"""Shared SparkSession + output helpers for spark-submit jobs.

Each ``jobs/*.py`` builds pandas frames via ``repro.experiments.tables``
and prints them as markdown (and optionally writes CSV) so EXPERIMENTS.md
rows can be pasted directly.
"""
from __future__ import annotations

import os
import sys


def get_spark(app: str):
    # Mirrors conftest.py: the jobs run standalone under spark-submit or
    # bare python, so configure the session here.
    os.environ.setdefault(
        "PYSPARK_SUBMIT_ARGS",
        f"--master {os.environ.get('SPARK_MASTER', 'local[*]')} "
        f"--driver-memory {os.environ.get('SPARK_DRIVER_MEM', '8g')} "
        "--conf spark.driver.host=127.0.0.1 "
        "--conf spark.ui.enabled=false pyspark-shell",
    )
    from pyspark.sql import SparkSession

    s = (
        SparkSession.builder.appName(app)
        .config("spark.sql.shuffle.partitions", os.environ.get("SPARK_SHUFFLE_PARTITIONS", "64"))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    s.sparkContext.setLogLevel("ERROR")
    return s


def emit(df, out: str | None = None, title: str | None = None) -> None:
    if title:
        print(f"\n## {title}\n", flush=True)
    try:
        print(df.to_markdown(index=False))
    except ImportError:  # tabulate may be absent
        print(df.to_string(index=False))
    if out:
        df.to_csv(out, index=False)
        print(f"[written {out}]", file=sys.stderr)
