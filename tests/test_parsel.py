"""Tests for the PARSEL partitioner selector (core contribution)."""
import numpy as np
import pytest

from repro.core.parsel import (
    METRIC_FOR_ALGO,
    parsel,
    select_granularity,
    select_partitioner,
)
from repro.metrics.partition_metrics import PartitionMetrics
from repro.simcluster.cost_model import PartitionProfile, simulate


def _profile(comm_cost, cut, n_parts=128, balance=1.0, m=1000.0):
    m_edges = np.full(n_parts, m)
    metrics = PartitionMetrics(
        n_parts=n_parts,
        n_edges=int(m_edges.sum()),
        n_vertices=50_000,
        balance=balance,
        non_cut=1000,
        cut=cut,
        comm_cost=comm_cost,
        part_stdev=0.0,
    )
    return PartitionProfile(
        n_parts=n_parts, m_edges=m_edges, sum_deg_sq=m_edges * 4,
        n_local=m_edges * 0.5, metrics=metrics,
    )


PROFILES = {
    "A": _profile(comm_cost=10_000, cut=9_000),  # low comm, high cut
    "B": _profile(comm_cost=50_000, cut=1_000),  # high comm, low cut
    "C": _profile(comm_cost=30_000, cut=5_000),
}


class TestMetricRule:
    @pytest.mark.parametrize("algo", ["pr", "cc", "sssp"])
    def test_edge_bound_algos_pick_min_commcost(self, algo):
        best, _ = select_partitioner(PROFILES, algo)
        assert best == "A"

    def test_tr_picks_min_cut(self):
        best, _ = select_partitioner(PROFILES, "tr")
        assert best == "B"

    def test_metric_rule_mapping(self):
        assert METRIC_FOR_ALGO == {
            "pr": "comm_cost",
            "cc": "comm_cost",
            "sssp": "comm_cost",
            "tr": "cut",
        }

    def test_balance_breaks_ties(self):
        profs = {
            "flat": _profile(10_000, 1000, balance=1.0),
            "skewed": _profile(10_000, 1000, balance=8.0),
        }
        best, _ = select_partitioner(profs, "pr")
        assert best == "flat"


class TestSimulateMode:
    @pytest.mark.parametrize("algo", ["pr", "cc", "tr", "sssp"])
    def test_matches_brute_force(self, algo):
        sel = select_granularity({128: PROFILES}, algo)
        brute = {s: simulate(algo, p) for s, p in PROFILES.items()}
        assert (sel.strategy, sel.n_parts) == (min(brute, key=brute.get), 128)
        for s in PROFILES:
            assert sel.scores[(s, 128)] == pytest.approx(brute[s])

    def test_granularity_joint_argmin(self):
        by_parts = {
            128: {"A": _profile(10_000, 9_000, n_parts=128, m=2000.0)},
            256: {"A": _profile(12_000, 9_000, n_parts=256, m=1000.0)},
        }
        sel = select_granularity(by_parts, "pr")
        brute = {
            (s, n): simulate("pr", p)
            for n, profs in by_parts.items()
            for s, p in profs.items()
        }
        assert (sel.strategy, sel.n_parts) == min(brute, key=brute.get)


class TestEndToEnd:
    def test_parsel_metric_mode(self, spark, social_small_edges):
        sel = parsel(
            social_small_edges, "pr",
            parts_candidates=(16,), strategies=("RVC", "2D", "DC"), mode="metric",
        )
        assert sel.strategy in {"RVC", "2D", "DC"}
        assert sel.n_parts == 16
        assert sel.mode == "metric"
        # 2D or DC must beat RVC on CommCost for a social graph (paper)
        assert sel.strategy != "RVC"

    def test_unknown_mode_raises(self):
        # raised before the edges are touched, so no Spark work is done
        with pytest.raises(ValueError, match="vibes"):
            parsel(None, "pr", mode="vibes")

    def test_parsel_simulate_mode(self, spark, social_small_edges):
        sel = parsel(
            social_small_edges, "tr",
            parts_candidates=(8, 16), strategies=("RVC", "DC"), mode="simulate",
        )
        assert len(sel.scores) == 4
        assert sel.scores[(sel.strategy, sel.n_parts)] == min(sel.scores.values())

    def test_parsel_profiles_in_one_job(self, spark, social_small_edges):
        """Simulate mode runs two Spark jobs: the edge checkpoint and the
        one collect that profiles every candidate. Adaptive execution
        submits each shuffle stage as a job of its own, so it is off
        here: then every job is one action."""
        sc = spark.sparkContext
        adaptive = spark.conf.get("spark.sql.adaptive.enabled")
        spark.conf.set("spark.sql.adaptive.enabled", "false")
        sc.setJobGroup("parsel-jobs", "count the jobs of one parsel call")
        try:
            sel = parsel(
                social_small_edges, "pr",
                parts_candidates=(8, 16), strategies=("RVC", "2D", "DC"), mode="simulate",
            )
        finally:
            sc.setLocalProperty("spark.jobGroup.id", None)
            spark.conf.set("spark.sql.adaptive.enabled", adaptive)
        assert len(sel.scores) == 6
        assert len(sc.statusTracker().getJobIdsForGroup("parsel-jobs")) <= 2
