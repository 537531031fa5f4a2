"""Tests for the BSP cluster cost simulator."""
from dataclasses import replace

import numpy as np
import pytest

from repro.metrics.partition_metrics import PartitionMetrics
from repro.simcluster.cost_model import (
    CONFIG_PARTS,
    N_ITER,
    ClusterSpec,
    PartitionProfile,
    activity_schedule,
    simulate,
)


def _profile(m_edges, comm_cost=1000, cut=400, sum_deg_sq=None, n_parts=None, n_local=None):
    m_edges = np.asarray(m_edges, dtype=float)
    n_parts = n_parts or len(m_edges)
    if sum_deg_sq is None:
        sum_deg_sq = m_edges * 4.0
    if n_local is None:
        n_local = m_edges * 0.5
    metrics = PartitionMetrics(
        n_parts=n_parts,
        n_edges=int(m_edges.sum()),
        n_vertices=int(m_edges.sum() // 2),
        balance=float(m_edges.max() / max(m_edges.mean(), 1e-9)),
        non_cut=100,
        cut=cut,
        comm_cost=comm_cost,
        part_stdev=float(np.std(m_edges)),
    )
    return PartitionProfile(
        n_parts=n_parts, m_edges=m_edges, sum_deg_sq=np.asarray(sum_deg_sq, dtype=float),
        n_local=np.asarray(n_local, dtype=float), metrics=metrics,
    )


BAL = _profile([1000.0] * 128)
IMBAL = _profile([1000.0] * 127 + [40000.0])


class TestSchedules:
    def test_pr_all_active(self):
        assert N_ITER == 10  # the paper's supersteps
        assert activity_schedule("pr") == [1.0] * N_ITER

    def test_cc_decays(self):
        s = activity_schedule("cc")
        assert len(s) == N_ITER
        assert s[0] == 1.0 and all(a > b for a, b in zip(s, s[1:]))

    def test_sssp_wave(self):
        s = activity_schedule("sssp", diameter=12)
        peak = s.index(max(s))
        assert 0 < peak < len(s) - 1
        assert max(s) <= 0.5

    def test_tr_single_round(self):
        assert len(activity_schedule("tr")) == 1

    def test_unknown_raises(self):
        with pytest.raises(ValueError):
            activity_schedule("nope")


class TestMonotonicity:
    def test_more_comm_cost_slower_pr(self):
        lo = _profile([1000.0] * 128, comm_cost=10_000)
        hi = _profile([1000.0] * 128, comm_cost=100_000)
        assert simulate("pr", hi) > simulate("pr", lo)

    def test_imbalance_slower(self):
        assert simulate("pr", IMBAL) > simulate("pr", BAL)

    def test_more_cut_slower_tr(self):
        lo = _profile([1000.0] * 128, cut=100)
        hi = _profile([1000.0] * 128, cut=10_000)
        assert simulate("tr", hi) > simulate("tr", lo)

    def test_wedge_work_drives_tr(self):
        lo = _profile([1000.0] * 128, sum_deg_sq=[4000.0] * 128)
        hi = _profile([1000.0] * 128, sum_deg_sq=[400_000.0] * 128)
        assert simulate("tr", hi) > simulate("tr", lo)

    def test_deterministic(self):
        assert simulate("cc", IMBAL) == simulate("cc", IMBAL)


class TestGranularityMechanisms:
    def test_task_overhead_penalizes_fine_grain_pr(self):
        # same aggregate load and comm, 128 vs 256 partitions: PR pays
        # per-task overhead 10x, so coarse wins (paper's PR finding)
        coarse = _profile([2000.0] * 128, comm_cost=50_000)
        fine = _profile([1000.0] * 256, comm_cost=50_000)
        assert simulate("pr", coarse) < simulate("pr", fine)

    def test_straggler_relief_helps_fine_grain_tr(self):
        # one monster partition split in two: TR's single heavy round
        # is straggler-bound, so fine wins despite extra task overhead
        coarse = _profile(
            [1000.0] * 128, sum_deg_sq=[1e4] * 127 + [6e8], cut=1000
        )
        fine = _profile(
            [500.0] * 256, sum_deg_sq=[5e3] * 254 + [3e8, 3e8], cut=1000
        )
        assert simulate("tr", fine) < simulate("tr", coarse)


class TestInfraConfigs:
    def test_faster_network_reduces_pr_time(self):
        base = ClusterSpec()
        fast = replace(base, net_gbps=40.0)
        assert simulate("pr", BAL, fast) < simulate("pr", BAL, base)

    def test_ssd_reduces_load_time(self):
        fast = replace(ClusterSpec(), net_gbps=40.0)
        ssd = replace(ClusterSpec(), net_gbps=40.0, ssd=True)
        assert simulate("pr", BAL, ssd) < simulate("pr", BAL, fast)

    def test_config_parts_mapping(self):
        assert CONFIG_PARTS == {"i": 128, "ii": 256}

    def test_t_net_scales_with_bandwidth(self):
        s = ClusterSpec(net_gbps=1.0)
        f = ClusterSpec(net_gbps=40.0)
        assert f.t_net == pytest.approx(s.t_net / 40.0)


class TestExecutorPacking:
    def test_single_partition_bound_by_task(self):
        p = _profile([10_000.0], n_parts=1, n_local=[0.0])
        spec = ClusterSpec(t_task=0.0, t_io=0.0, t_msg_cpu=0.0, t_msg_net=0.0, t_shuf=0.0)
        t = simulate("pr", p, spec)
        assert t == pytest.approx(10 * 10_000.0)

    def test_parallel_partitions_divide_work(self):
        spec = ClusterSpec(t_task=0.0, t_io=0.0, t_msg_cpu=0.0, t_msg_net=0.0, t_shuf=0.0)
        one = _profile([128_000.0], n_parts=1)
        many = _profile([1000.0] * 128)
        assert simulate("pr", many, spec) < simulate("pr", one, spec)
