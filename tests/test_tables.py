"""Integration tests for the experiment table builders (paper §4).

These run the actual pipeline (generate → partition → metrics →
simulate) at the cheap ``test`` tier on a subset of datasets, with the
disk cache redirected to a temp dir, and assert the paper's headline
*shape* claims hold end-to-end. The full claims on the bench-tier grid
are checked in ``test_claims.py``.
"""
import ast
import io
import math
import tokenize
from dataclasses import fields, replace

import numpy as np
import pandas as pd
import pytest

import repro.experiments.tables as T
from repro.core.correlate import METRIC_COLS
from repro.core.parsel import METRIC_FOR_ALGO, select_partitioner
from repro.metrics.partition_metrics import load_profile
from repro.simcluster.cost_model import CONFIG_PARTS, ClusterSpec, simulate


@pytest.fixture(scope="module", autouse=True)
def _tmp_cache(tmp_path_factory):
    old = T.CACHE_DIR
    T.CACHE_DIR = tmp_path_factory.mktemp("profiles")
    yield
    T.CACHE_DIR = old


SMALL = ("pocek", "youtube")
STRATS = ("RVC", "1D", "2D", "CRVC", "SC", "DC")
PARTS = (16, 32)


@pytest.fixture(scope="module")
def grid(spark):
    return T.profile_grid(spark, tier="test", datasets=SMALL, strategies=STRATS, parts=PARTS)


@pytest.fixture(scope="module")
def runs(grid):
    return {algo: T.runtime_table(grid, algo) for algo in ("pr", "cc", "tr", "sssp")}


@pytest.fixture(scope="module")
def runs_pr(runs):
    return runs["pr"]


def _bump_first_number(src: str) -> str:
    """``src`` with its first numeric literal token raised by one."""
    tok = next(
        t for t in tokenize.generate_tokens(io.StringIO(src).readline) if t.type == tokenize.NUMBER
    )
    lines = src.splitlines(keepends=True)
    (row, start), (_, end) = tok.start, tok.end
    line = lines[row - 1]
    lines[row - 1] = line[:start] + repr(ast.literal_eval(tok.string) + 1) + line[end:]
    return "".join(lines)


class TestMetricsTable:
    def test_schema_and_rows(self, grid):
        t = T.metrics_table(grid, 16)
        assert list(t.columns) == [
            "dataset", "partitioner", "balance", "non_cut", "cut", "comm_cost", "part_stdev",
        ]
        assert len(t) == len(SMALL) * len(STRATS)

    def test_finer_partitioning_raises_commcost(self, grid):
        """Paper, Appendix A: 256-partition CommCost exceeds 128's but is
        'significantly lower than double'."""
        c16, c32 = (T.metrics_table(grid, n).query("dataset == 'pocek'") for n in PARTS)
        m = c16.merge(c32, on=["dataset", "partitioner"], suffixes=("_16", "_32"))
        assert (m.comm_cost_32 >= m.comm_cost_16).all()
        assert (m.comm_cost_32 <= 2 * m.comm_cost_16).all()

    def test_cache_roundtrip(self, spark, tmp_path, monkeypatch):
        # Two reads of the grid; the second comes from the cache files.
        reads = [
            T.profile_grid(spark, tier="test", datasets=("youtube",), parts=(16,)) for _ in range(2)
        ]
        pd.testing.assert_frame_equal(*(T.metrics_table(g, 16) for g in reads))
        # A profile read back from its cache file equals a fresh one, types too.
        loaded = load_profile(T._cache_path(T._code_digest(), "youtube", "test", "2D", 16))
        monkeypatch.setattr(T, "CACHE_DIR", tmp_path)
        fresh = T.profile_grid(
            spark, tier="test", datasets=("youtube",), strategies=("2D",), parts=(16,)
        )[("youtube", "2D", 16)]
        assert loaded.metrics == fresh.metrics
        for f in fields(fresh.metrics):
            assert type(getattr(loaded.metrics, f.name)) is type(getattr(fresh.metrics, f.name))
        for name in ("m_edges", "sum_deg_sq", "n_local"):
            got, want = getattr(loaded, name), getattr(fresh, name)
            np.testing.assert_array_equal(got, want)
            assert got.dtype == want.dtype

    @pytest.mark.parametrize("module", [p.name for p in T.KEYED_MODULES])
    def test_cache_key_covers_source(self, tmp_path, monkeypatch, module):
        """A one-token code edit to a keyed module moves every cache file;
        comment and docstring edits keep them."""
        key = ("pocek", "bench", "2D", 128)
        before = T._cache_path(T._code_digest(), *key)
        for path in T.KEYED_MODULES:
            (tmp_path / path.name).write_bytes(path.read_bytes())
        monkeypatch.setattr(T, "KEYED_MODULES", tuple(tmp_path / p.name for p in T.KEYED_MODULES))
        assert T._cache_path(T._code_digest(), *key) == before  # content, not paths
        edited = tmp_path / module
        src = edited.read_text()
        edited.write_text("# a comment\n" + src + "\n# another comment\n")
        assert T._cache_path(T._code_digest(), *key) == before
        assert ast.get_docstring(ast.parse(src)) is not None
        edited.write_text(src.replace('"""', '"""Reworded. ', 1))
        assert T._cache_path(T._code_digest(), *key) == before
        edited.write_text(_bump_first_number(src))
        assert T._cache_path(T._code_digest(), *key) != before


class TestRuntimeTables:
    def test_runtime_schema(self, runs_pr):
        assert {"dataset", "strategy", "n_parts", "time", *METRIC_COLS} <= set(runs_pr.columns)
        assert len(runs_pr) == len(SMALL) * len(STRATS) * 2
        assert (runs_pr.time > 0).all()

    def test_sssp_excludes_roadnets(self, grid):
        # One fixture profile under each road network's key and pocek's.
        prof = grid[("pocek", "RVC", 16)]
        cells = {(d, "RVC", 16): prof for d in ("roadnet-pa", "roadnet-tx", "roadnet-ca", "pocek")}
        runs = T.runtime_table(cells, "sssp")
        assert not (set(runs.dataset) & {"roadnet-pa", "roadnet-tx", "roadnet-ca"})
        assert runs.dataset.tolist() == ["pocek"]

    def test_best_partitioner_table(self, runs_pr):
        best = T.best_partitioner_table(runs_pr)
        assert len(best) == len(SMALL) * 2
        # the winner's time is the min over its group
        for _, row in best.iterrows():
            grp = runs_pr[(runs_pr.dataset == row.dataset) & (runs_pr.n_parts == row.n_parts)]
            assert row.time == grp.time.min()

    def test_correlation_table(self, runs_pr):
        corr = T.correlation_table(runs_pr)
        assert set(corr.n_parts) == {16, 32}
        assert set(METRIC_COLS) <= set(corr.columns)

    def test_pr_commcost_strongly_correlated(self, runs_pr):
        """Figure 3's claim, scaled down: CommCost is a top-2 predictor
        of PR time with r > 0.8. (The strict top-metric claim holds at
        bench tier — claim C1 in test_claims.py — but at 1/2000 scale
        with two datasets Cut can edge it out.)"""
        corr = T.correlation_table(runs_pr).set_index("n_parts")
        for n in (16, 32):
            r = corr.loc[n, list(METRIC_COLS)].astype(float)
            assert r["comm_cost"] > 0.8
            assert r["comm_cost"] >= r.sort_values(ascending=False).iloc[1]

    def test_granularity_table(self, runs_pr):
        g = T.granularity_table(runs_pr)
        assert set(g.dataset) == set(SMALL)
        assert {"time_coarse", "time_fine", "fine_speedup_pct"} <= set(g.columns)

    @pytest.mark.parametrize("parts", [(16,), (16, 32, 64)])
    def test_granularity_table_needs_two(self, parts):
        runs = pd.DataFrame(
            {"dataset": "pocek", "strategy": "2D", "n_parts": list(parts), "time": 1.0}
        )
        with pytest.raises(ValueError, match=", ".join(map(str, parts))):
            T.granularity_table(runs)


class TestInfraTable:
    @pytest.fixture(scope="class")
    def prof(self, spark):
        n = CONFIG_PARTS["ii"]
        grid = T.profile_grid(
            spark, tier="test", datasets=("pocek",), strategies=("2D",), parts=(n,)
        )
        return grid[("pocek", "2D", n)]

    @pytest.fixture(scope="class")
    def infra(self, prof):
        # pocek's profile stands in for the follow-dec cell the table reads.
        return T.infra_table({("follow-dec", "2D", CONFIG_PARTS["ii"]): prof})

    def test_deltas_negative_and_ordered(self, infra):
        t = infra.set_index("config")
        assert t.loc["ii (1Gbps, HDD)", "delta_vs_ii_pct"] == 0.0
        # paper ordering: (iv) < (iii) < (ii); compare raw times since
        # the rounded %-deltas can coincide at the tiny test tier
        t_ii = t.loc["ii (1Gbps, HDD)", "time"]
        t_iii = t.loc["iii (40Gbps, HDD)", "time"]
        t_iv = t.loc["iv (40Gbps, SSD)", "time"]
        assert t_iv < t_iii < t_ii

    def test_times_are_simulated_configs(self, prof, infra):
        """Each config's time is ``simulate`` on the cell's profile."""
        specs = [
            ClusterSpec(),
            replace(ClusterSpec(), net_gbps=40.0),
            replace(ClusterSpec(), net_gbps=40.0, ssd=True),
        ]
        assert infra.time.tolist() == [simulate("pr", prof, spec) for spec in specs]


class TestParselTable:
    def test_parsel_eval(self, runs):
        # the cells of one dataset, one granularity and three strategies
        small = {
            a: r[(r.dataset == "pocek") & (r.n_parts == 16) & r.strategy.isin(["RVC", "2D", "DC"])]
            for a, r in runs.items()
        }
        t = T.parsel_table(small)
        assert set(t.algo) == {"pr", "cc", "tr", "sssp"}
        assert (t.regret_pct >= 0).all()
        # the metric heuristic should be near-optimal for comm-bound algos
        assert t[t.algo == "pr"].regret_pct.max() < 25.0

    def test_matches_brute_force(self, grid, runs):
        """Picks, bests and regrets equal a per-cell selection over the
        profiles plus one ``simulate`` per strategy."""
        rows = []
        for algo in runs:
            for name in SMALL:
                for n_parts in PARTS:
                    profs = {s: grid[(name, s, n_parts)] for s in STRATS}
                    pick, _ = select_partitioner({s: p.metrics for s, p in profs.items()}, algo)
                    times = {
                        s: simulate(algo, p, diameter=T._sssp_diameter(name))
                        for s, p in profs.items()
                    }
                    best = min(times, key=times.get)
                    rows.append(
                        dict(
                            algo=algo,
                            dataset=name,
                            n_parts=n_parts,
                            parsel_pick=pick,
                            sim_best=best,
                            regret_pct=round(100.0 * (times[pick] - times[best]) / times[best], 2),
                            metric_used=METRIC_FOR_ALGO[algo],
                        )
                    )
        pd.testing.assert_frame_equal(T.parsel_table(runs), pd.DataFrame(rows))


class TestTable1:
    def test_table1_tiny(self, spark):
        t = T.table1(spark, tier="test", datasets=("youtube",))
        row = t.iloc[0]
        assert row.dataset == "youtube"
        assert row.symm_pct == pytest.approx(100.0)
        assert row.zero_in_pct == 0.0 and row.zero_out_pct == 0.0
        assert row.components == 1
        assert np.isfinite(row.diameter)
        assert row.size_bytes > 0
        assert row.triangles > 0  # social graph has closed wedges

    def test_disconnected_skips_diameter(self, spark, islands_edges, monkeypatch):
        # three components: the diameter is ∞ without a BFS sweep
        def no_sweep(edges):
            raise AssertionError("diameter swept a disconnected graph")

        monkeypatch.setattr(T, "load", lambda spark, name, tier: islands_edges)
        monkeypatch.setattr(T, "graph_diameter", no_sweep)
        row = T.table1(spark, tier="test", datasets=("youtube",)).iloc[0]
        assert row.components == 3
        assert row.diameter == math.inf
