"""Inputs, set-up and the timed operations of each benchmark workload.

Every workload runs the same operations on one graph, so each
end-to-end metric means the same thing on every workload:

=============  ==========================================================
``select_s``   ``parsel(edges, "pr", mode="simulate")`` over the
               benchmark's strategy × granularity grid
``pr_2d_s``    PageRank on the edges placed by ``prepare(·, "2D", 16)``
``sssp_s``     ``sssp`` from seeded landmarks on the 2D placement
=============  ==========================================================

Traced runs also run ``triangle_counts_per_vertex`` on the RVC
placement and report it per layer (``triangles.*``) only.

The graph decides how the superstep work is shaped: on the power-law
social graph SSSP reaches most vertices within a few supersteps, while
on the road grid every superstep moves a thin frontier, so the fixed
cost of a superstep dominates.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame

import reference
from repro.algos.connected_components import cc_reference
from repro.algos.pagerank import pagerank
from repro.algos.sssp import sssp
from repro.algos.triangles import triangle_counts_per_vertex
from repro.core.parsel import Selection, parsel, select_granularity
from repro.experiments.wallclock import prepare
from repro.graph.builders import edges_from_pandas
from repro.graph.partitioners import partition_edges
from repro.graphgen.datasets import SPECS, TIER_DIVISOR, generate_pandas
from repro.graphgen.generators import grid_graph, social_graph
from repro.metrics.partition_metrics import compute_metrics
from repro.simcluster.cost_model import profile_from_spark

#: Workload name -> dataset. See BENCHMARK.json for why each was chosen.
DATASETS = {"social": "pocek", "road": "roadnet-ca"}

TIER = "test"
PLACE_PARTS = 16
PLACEMENTS = ("RVC", "2D")
SELECT_ALGO = "pr"
SELECT_PARTS = (128,)
SELECT_STRATEGIES = ("RVC", "2D")
PR_ITER = 2
SSSP_ITER = 2
N_LANDMARKS = 5


def generate(name: str, seed: int) -> pd.DataFrame:
    """``generate_pandas(name, TIER)`` with the generator seed offset by ``seed``.

    Seed 0 gives exactly the graphs the tests generate at this tier.
    """
    spec = SPECS[name]
    div = TIER_DIVISOR[TIER]
    n, e = max(64, spec.paper.vertices // div), max(128, spec.paper.edges // div)
    gen = dict(spec.gen, seed=spec.gen["seed"] + seed)
    if spec.kind == "road":
        rows = math.isqrt(n)
        return grid_graph(rows, (n + rows - 1) // rows, **gen)
    s = gen["symmetry"]
    base = e if s >= 1.0 else int(e / (1.0 + s / (2.0 - s)))
    return social_graph(n, base, **gen)


def is_repo_graph(name: str, pdf: pd.DataFrame) -> bool:
    """Whether a seed-0 graph equals ``generate_pandas(name, TIER)``."""
    return pdf[["src", "dst"]].equals(generate_pandas(name, TIER)[["src", "dst"]])


def draw_landmarks(edge_list: list[tuple[int, int]], seed: int) -> list[int]:
    """Seeded SSSP sources with out-arcs, inside the largest component.

    A source in a small island would stop SSSP after a superstep or
    two, so the timed work would depend on the draw rather than the
    program.
    """
    label = cc_reference(edge_list)
    sizes = Counter(label.values())
    giant = max(sizes, key=lambda c: (sizes[c], -c))
    pool = sorted({s for s, _ in edge_list if label[s] == giant})
    rng = np.random.default_rng(seed)
    return sorted(int(v) for v in rng.choice(pool, N_LANDMARKS, replace=False))


@dataclass
class Graph:
    """One set-up: the loaded edges and their placements."""

    arcs: pd.DataFrame
    edges: DataFrame
    placed: dict[str, DataFrame]


def setup(spark, name: str, seed: int, tracer) -> Graph:
    """Generate, load and place the workload's graph (``setup_s``)."""
    with tracer.span("setup"):
        with tracer.span("graphgen.generate") as rec:
            arcs = generate(name, seed)
            rec["arcs"] = len(arcs)
        with tracer.span("builders.load"):
            edges = edges_from_pandas(spark, arcs).localCheckpoint(eager=True)
        placed = {}
        for strategy in PLACEMENTS:
            with tracer.span("partitioners.place"):
                placed[strategy] = prepare(edges, strategy, PLACE_PARTS)
    return Graph(arcs, edges, placed)


@dataclass
class Expected:
    """References for every timed output, built outside timed regions."""

    selection: Selection
    ranks: tuple
    distances: pd.DataFrame
    triangles: int
    landmarks: list[int]
    comm_cost_2d: int


def expected(g: Graph, seed: int) -> Expected:
    src = g.arcs["src"].to_numpy(np.int64)
    dst = g.arcs["dst"].to_numpy(np.int64)
    edge_list = list(zip(src.tolist(), dst.tolist()))
    landmarks = draw_landmarks(edge_list, seed)
    cells = {
        (s, n): partition_edges(g.edges, s, n).toPandas()
        for n in SELECT_PARTS
        for s in SELECT_STRATEGIES
    }
    return Expected(
        selection=reference.selection(cells, SELECT_ALGO),
        ranks=reference.pagerank(src, dst, PR_ITER),
        distances=reference.distances(edge_list, landmarks, SSSP_ITER),
        triangles=reference.triangles_total(g.arcs),
        landmarks=landmarks,
        comm_cost_2d=reference.profile(g.placed["2D"].toPandas(), PLACE_PARTS).metrics.comm_cost,
    )


# ---------------------------------------------------------------- operations
#
# Each ``run_*`` is one timed region: it returns once its result is
# materialised. The matching check reads that result and never
# recomputes it.


def replay_parsel(edges, tracer) -> Selection:
    """``parsel`` re-run through the layers' public functions, with spans."""
    cached = edges.select("src", "dst").localCheckpoint(eager=True)
    by_parts: dict[int, dict] = {}
    for n_parts in SELECT_PARTS:
        for strategy in SELECT_STRATEGIES:
            ep = partition_edges(cached, strategy, n_parts)
            with tracer.span("metrics.compute_metrics", cells=1):
                m = compute_metrics(ep, n_parts)
            with tracer.span("simcluster.profile_from_spark"):
                by_parts.setdefault(n_parts, {})[strategy] = profile_from_spark(ep, n_parts, metrics=m)
    with tracer.span("parsel.select_granularity"):
        return select_granularity(by_parts, SELECT_ALGO)


def run_select(g: Graph, ex: Expected, tracer):
    if tracer.enabled:
        return replay_parsel(g.edges, tracer)
    return parsel(
        g.edges,
        SELECT_ALGO,
        parts_candidates=SELECT_PARTS,
        strategies=SELECT_STRATEGIES,
        mode="simulate",
    )


def check_select(ex: Expected, sel) -> bool:
    return reference.same_selection(sel, ex.selection)


def run_pr(g: Graph, ex: Expected, tracer):
    with tracer.span("pregel.pr_2d", comm_cost=ex.comm_cost_2d) as rec:
        res = pagerank(g.placed["2D"], num_iter=PR_ITER)
        out = res.vertices.localCheckpoint(eager=True)
    rec["supersteps"] = res.iterations
    return out


def check_pr(ex: Expected, out) -> bool:
    return reference.same_ranks(out.select("id", "rank").toPandas(), ex.ranks)


def run_tr(g: Graph, ex: Expected, tracer):
    with tracer.span("triangles"):
        return triangle_counts_per_vertex(g.placed["RVC"]).localCheckpoint(eager=True)


def check_tr(ex: Expected, out) -> bool:
    return reference.same_triangles(out.toPandas(), ex.triangles)


def run_sssp(g: Graph, ex: Expected, tracer):
    with tracer.span("sssp") as rec:
        res = sssp(g.placed["2D"], ex.landmarks, max_iter=SSSP_ITER)
        out = res.vertices.localCheckpoint(eager=True)
    rec["supersteps"] = res.iterations
    rec["frontier_rows"] = sum(res.active_per_iter)
    return out


def check_sssp(ex: Expected, out) -> bool:
    return reference.same_distances(out.toPandas(), ex.distances)


#: (end-to-end metric, timed run, check), in the order one pass runs them.
OPERATIONS = (
    ("pr_2d_s", run_pr, check_pr),
    ("sssp_s", run_sssp, check_sssp),
    ("select_s", run_select, check_select),
)
#: Operations only traced runs make, after ``OPERATIONS``. Their layers
#: are reported per layer only: a pass without them is about a fifth
#: shorter, which leaves room in each untraced run for the warm-up and
#: the timed passes the end-to-end metrics need.
TRACE_OPERATIONS = (("tr_s", run_tr, check_tr),)
