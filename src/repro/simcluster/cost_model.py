"""BSP cluster cost simulator (DESIGN.md §1.7, substitution #3).

The paper times GraphX jobs on a 5-node cluster (1 driver + 4
executors × 32 cores, 1 Gbps, HDD-backed HDFS). A single local[*] JVM
cannot reproduce distributed timing, so tables derived from execution
time are reproduced on this cost model instead. It charges exactly the
three mechanisms the paper uses to explain its results:

1. **Compute** — per superstep, each partition is a task whose cost is
   its active edge work; tasks are packed on each executor's cores, so
   executor time is ``max(Σ load / cores, max task load)`` — the
   straggler term that finer granularity shrinks.
2. **Synchronization** — per superstep, every replica of an *active*
   cut vertex must be synced: ``CommCost × activity`` messages, each
   paying a serialization + wire cost. Triangle count additionally
   pays a per-cut-vertex reduction (GraphX merges per-vertex adjacency
   fragments across partitions — the paper's explanation of why TR
   tracks Cut, not CommCost).
3. **Overheads** — per-task scheduling cost (what makes 256 partitions
   *slower* than 128 for communication-bound PageRank) and a one-off
   input scan charged at storage bandwidth (the HDD/SSD infra
   experiment; HDD is the unit, an SSD scans ``ssd_bw`` times faster).

Activity schedules: PR and CC run ``N_ITER`` = 10 supersteps, as
the paper times them. PR is all-active in each; CC decays
geometrically (the paper: most labels converge after a few rounds; the
engine's trace on the synthetic road grids does not, see
``activity_schedule``); SSSP is a frontier wave. When only a fraction
*f* of vertices is active the active work is *clustered*, so same-size
partitions become load-imbalanced at runtime — the paper's stated
reason fine-grain CC wins on big graphs. We model that with a
deterministic per-(pid, iter) load jitter whose coefficient of
variation grows as activity falls.

All constants are in arbitrary units; only ratios matter, and the
defaults are calibrated so the paper's *relative* claims can be tested
(communication-bound PR, −15 %/−20 % infra deltas, etc.).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from repro.metrics.partition_metrics import PartitionMetrics, PartitionProfile, profile_cells


@dataclass(frozen=True)
class ClusterSpec:
    """Hardware model: the paper's cluster in §4.

    Cost split (mirrors GraphX's actual execution): message *processing*
    (serialize, route, merge per-replica state) is per-partition task
    work — it parallelizes and straggles like compute — while the wire
    itself is a shared serial resource charged per message at the NIC
    (``t_net``), which is what the 40 Gbps upgrade in configs (iii)/(iv)
    shrinks. Constants are in arbitrary units (1.0 = one edge visit);
    defaults are calibrated against the paper's relative §4 claims (see
    EXPERIMENTS.md § calibration).
    """

    n_executors: int = 4
    cores: int = 32
    net_gbps: float = 1.0
    ssd: bool = False
    # Cost constants (arbitrary units: 1.0 = one edge visit), calibrated
    # against the paper's §4 relative claims (jobs/calibrate_sim.py).
    t_edge: float = 1.0  # per active edge per superstep (task work)
    t_wedge: float = 4.0  # per wedge (d^2 term) for triangle count
    t_msg_cpu: float = 22.0  # per local vertex-replica sync, task work
    t_msg_net: float = 0.10  # per message wire cost at 1 Gbps (÷ gbps)
    t_reduce: float = 600.0  # per cut vertex per TR reduction round
    t_task: float = 900.0  # per task scheduling overhead per superstep
    t_shuf: float = 0.3  # per shuffle fetch segment (O(parts²)) per superstep
    ssd_bw: float = 3.0  # input-scan bandwidth of SSD, relative to HDD
    t_io: float = 1.2  # per input edge at HDD bandwidth

    @property
    def t_net(self) -> float:
        """Serial wire cost per sync message at the configured bandwidth."""
        return self.t_msg_net / self.net_gbps


#: Configuration (i)/(ii) of the paper: granularity in partitions.
CONFIG_PARTS = {"i": 128, "ii": 256}


def profile_from_spark(edges_p, n_parts: int, metrics: PartitionMetrics | None = None) -> PartitionProfile:
    """Profile one partitioning (``profile_cells`` for a single cell).

    ``metrics``, if given, replaces the derived metrics in the profile.
    """
    prof = profile_cells({0: (edges_p, n_parts)})[0]
    return prof if metrics is None else replace(prof, metrics=metrics)


#: Supersteps of PR and CC, as the paper times its iterative algorithms.
N_ITER = 10


def activity_schedule(algo: str, *, diameter: int = 12) -> list[float]:
    """Fraction of vertices active per superstep, per algorithm.

    - ``pr``: static PageRank — every vertex recomputes in each of
      ``N_ITER`` rounds.
    - ``cc``: label propagation — geometric decay ``0.6^t`` over
      ``N_ITER`` rounds, after the paper's "the values of most vertices
      converge very fast". The engine's measured trace does not always
      decay so: on test-tier roadnet-ca over 85 % of labels change for
      the first 15 supersteps and the fixpoint comes at superstep 64.
      The claims C1–C8 are calibrated on this schedule; replacing it
      with measured traces is ROADMAP item 6.
    - ``sssp``: BFS frontier wave over ``diameter`` rounds — ramps up,
      peaks, drains.
    - ``tr``: a single heavy round (handled specially in compute).
    """
    algo = algo.lower()
    if algo == "pr":
        return [1.0] * N_ITER
    if algo == "cc":
        return [max(0.6**t, 1e-4) for t in range(N_ITER)]
    if algo == "sssp":
        mid = diameter / 2.0
        width = max(diameter / 4.0, 1.0)
        raw = [math.exp(-(((t - mid) / width) ** 2)) for t in range(diameter)]
        peak = 0.5  # at most half the graph on the frontier at once
        return [peak * r for r in raw]
    if algo == "tr":
        return [1.0]
    raise ValueError(f"unknown algorithm {algo!r}")


N_REGIONS = 32
JITTER_SEED = 7


def _jitter(n_parts: int, it: int, cv: float) -> np.ndarray:
    """Deterministic per-(pid, iter) load multipliers, mean ~1, std ~cv.

    Models runtime load imbalance from *clustered* vertex activity:
    once only some vertices are active, activity concentrates in a few
    graph regions, so equal-size partitions do unequal work (the
    paper's CC granularity explanation). Hotness is drawn per *region*
    (``N_REGIONS`` per iteration, far coarser than a partition) and
    partitions inherit their region's multiplier — so a hot region's
    work is divisible: splitting its partitions in two halves each
    task, which is exactly why finer granularity relieves the
    straggler for partially-active algorithms but not for PageRank
    (cv = 0 when everything is active).
    """
    if cv <= 0:
        return np.ones(n_parts)
    g = np.random.default_rng(JITTER_SEED * 1_000_003 + it)
    sigma = math.sqrt(math.log(1 + cv**2))
    h = np.maximum(
        0.05, g.lognormal(mean=-0.5 * sigma**2, sigma=sigma, size=N_REGIONS)
    )
    idx = (np.arange(n_parts) * N_REGIONS) // n_parts
    return h[idx]


def _executor_time(load: np.ndarray, spec: ClusterSpec) -> float:
    """Pack partition-tasks onto executors; return the slowest executor.

    pid → executor round-robin (Spark's hash placement of co-partitioned
    data); within an executor, cores run tasks in waves:
    ``max(Σ/cores, max task)`` is the classic makespan lower bound that
    LPT scheduling approaches.
    """
    total = 0.0
    for ex in range(spec.n_executors):
        l = load[ex :: spec.n_executors]
        if l.size == 0:
            continue
        t = max(float(l.sum()) / spec.cores, float(l.max()))
        total = max(total, t)
    return total


def simulate(
    algo: str,
    prof: PartitionProfile,
    spec: ClusterSpec = ClusterSpec(),
    *,
    diameter: int = 12,
) -> float:
    """Simulated job time for ``algo`` on one partitioning (arbitrary units).

    The supersteps follow ``activity_schedule``: ``N_ITER`` for PR and
    CC, ``diameter`` for SSSP's wave, one for TR.
    """
    algo = algo.lower()
    sched = activity_schedule(algo, diameter=diameter)
    mets = prof.metrics
    io_bw = spec.ssd_bw if spec.ssd else 1.0
    time = (mets.n_edges / spec.n_executors) * spec.t_io / io_bw

    if algo == "tr":
        # One heavy round: wedge enumeration + per-replica adjacency
        # shipping as task work; a per-cut-vertex reduction (GraphX
        # merges each cut vertex's fragments — the paper's explanation
        # of TR tracking Cut) plus a small wire term.
        load = (
            prof.sum_deg_sq * spec.t_wedge
            + prof.m_edges * spec.t_edge
            + prof.n_local * spec.t_msg_cpu
        )
        time += _executor_time(load, spec)
        time += mets.cut * spec.t_reduce + mets.comm_cost * spec.t_net
        time += prof.n_parts * spec.t_task + prof.n_parts**2 * spec.t_shuf
        return time

    for it, f in enumerate(sched):
        # Per-partition task work: active edge visits + sync processing
        # for the partition's (active) vertex replicas. When activity is
        # partial the active set is clustered, so equal-size partitions
        # do unequal work — the jitter models that (paper's CC
        # granularity mechanism).
        cv = 6.0 * (1.0 - f)
        load = (
            (prof.m_edges * spec.t_edge + prof.n_local * spec.t_msg_cpu)
            * f
            * _jitter(prof.n_parts, it, cv)
        )
        time += _executor_time(load, spec)
        time += mets.comm_cost * f * spec.t_net
        # Per-superstep fixed costs: task scheduling (O(P)) and the
        # all-to-all shuffle's fetch segments (O(P²)) — the term that
        # makes finer granularity a net loss for communication-bound
        # PageRank (paper §4) even though it relieves stragglers. Tasks
        # whose partition has (mostly) converged complete almost
        # immediately, so the overhead shrinks with activity down to a
        # scheduling floor — that asymmetry is why fine-grain pays off
        # for CC but not for PR (paper §4, CC paragraph).
        overhead = 0.15 + 0.85 * f
        time += (prof.n_parts * spec.t_task + prof.n_parts**2 * spec.t_shuf) * overhead
    return time
