"""Tests for the correlation analysis engine."""
import pandas as pd
import pytest

from repro.core.correlate import metric_time_correlations


def _r(xs, ys) -> float:
    """Pearson r of one metric column against ``time``."""
    runs = pd.DataFrame({"comm_cost": xs, "time": ys})
    return metric_time_correlations(runs)["comm_cost"]


class TestPearson:
    def test_perfect_positive(self):
        assert _r([1, 2, 3], [10, 20, 30]) == pytest.approx(1.0)

    def test_perfect_negative(self):
        assert _r([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_uncorrelated_constant(self):
        assert _r([1, 1, 1], [1, 2, 3]) == 0.0

    def test_degenerate_short(self):
        assert _r([1], [2]) == 0.0

    def test_known_value(self):
        # hand-computed: r of (1,2,3,4) vs (2,1,4,3) = 0.6
        assert _r([1, 2, 3, 4], [2, 1, 4, 3]) == pytest.approx(0.6)


class TestTableCorrelations:
    def _runs(self):
        return pd.DataFrame(
            {
                "comm_cost": [10, 20, 30, 40],
                "cut": [5, 5, 6, 5],
                "balance": [1.0, 1.1, 1.0, 1.2],
                "non_cut": [9, 6, 8, 7],
                "part_stdev": [0.1, 0.4, 0.2, 0.3],
                "time": [100.0, 200.0, 300.0, 400.0],
            }
        )

    def test_commcost_perfectly_tracks_time(self):
        r = metric_time_correlations(self._runs())
        assert r["comm_cost"] == pytest.approx(1.0)

    def test_missing_metric_columns_skipped(self):
        runs = pd.DataFrame({"comm_cost": [1, 2, 3], "time": [1, 2, 3]})
        r = metric_time_correlations(runs)
        assert set(r.index) == {"comm_cost"}
