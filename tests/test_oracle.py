"""Direct tests of the DuckDB oracle's row diff (``repro.oracle``)."""
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.oracle import assert_equivalent

ARCS = pd.DataFrame({"src": [1, 1, 2, 3, 3, 3], "dst": [2, 3, 3, 1, 2, 4]})
OUT_DEG_SQL = "SELECT src, CAST(count(*) AS BIGINT) AS n FROM e GROUP BY src"


def _out_degrees(arcs):
    return arcs.groupBy("src").agg(F.count(F.lit(1)).alias("n"))


class TestAssertEquivalent:
    def test_equal_result_passes(self, spark):
        # Spark returns the rows in its own order; the diff must not care.
        e = spark.createDataFrame(ARCS)
        assert_equivalent(_out_degrees(e).select("n", "src"), OUT_DEG_SQL, e=e)

    def test_row_diff_fails(self, spark):
        wrong = _out_degrees(spark.createDataFrame(ARCS.iloc[:-1]))
        with pytest.raises(AssertionError):
            assert_equivalent(wrong, OUT_DEG_SQL, e=ARCS)
