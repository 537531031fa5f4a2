"""Shape tests for the synthetic dataset generators (DESIGN.md §4).

Each paper dataset's stand-in must reproduce the structural features
that drive the paper's analysis: symmetry %, leaf (zero-in/out)
fractions, component structure, id locality for road networks, and
determinism. All tests run at the cheap ``test`` tier, pandas-side.
"""
import numpy as np
import pandas as pd
import pytest

from repro.graphgen.datasets import (
    DATASET_ORDER,
    SPECS,
    TIER_DIVISOR,
    generate_pandas,
)
from repro.graphgen.generators import grid_graph, social_graph

ROAD = [n for n in DATASET_ORDER if SPECS[n].kind == "road"]
SOCIAL = [n for n in DATASET_ORDER if SPECS[n].kind == "social"]


def _stats(pdf: pd.DataFrame):
    arcs = pdf.drop_duplicates()
    verts = pd.unique(pd.concat([arcs["src"], arcs["dst"]]))
    fwd = set(zip(arcs.src, arcs.dst))
    recip = sum(1 for (s, d) in fwd if (d, s) in fwd)
    symm = 100.0 * recip / len(fwd)
    zi = 100.0 * (len(verts) - arcs["dst"].nunique()) / len(verts)
    zo = 100.0 * (len(verts) - arcs["src"].nunique()) / len(verts)
    return len(verts), len(arcs), symm, zi, zo


@pytest.fixture(scope="module")
def gen_cache():
    return {name: generate_pandas(name, "test") for name in DATASET_ORDER}


class TestScale:
    @pytest.mark.parametrize("name", DATASET_ORDER)
    def test_vertex_count_near_target(self, gen_cache, name):
        nv, _, _, _, _ = _stats(gen_cache[name])
        target = SPECS[name].paper.vertices // TIER_DIVISOR["test"]
        # follow-jul is a subsample of follow-dec; its vertex count
        # floats higher (leaves survive the arc subsample)
        tol = 0.6 if name == "follow-jul" else 0.15
        assert abs(nv - target) / target <= tol

    @pytest.mark.parametrize("name", DATASET_ORDER)
    def test_no_self_loops(self, gen_cache, name):
        pdf = gen_cache[name]
        assert (pdf.src != pdf.dst).all()

    @pytest.mark.parametrize("name", DATASET_ORDER)
    def test_no_duplicate_arcs(self, gen_cache, name):
        pdf = gen_cache[name]
        assert not pdf.duplicated(["src", "dst"]).any()

    @pytest.mark.parametrize("name", DATASET_ORDER)
    def test_int64_ids(self, gen_cache, name):
        pdf = gen_cache[name]
        assert pdf.src.dtype == np.int64 and pdf.dst.dtype == np.int64


class TestSymmetry:
    @pytest.mark.parametrize("name", ROAD + ["youtube", "orkut"])
    def test_fully_symmetric(self, gen_cache, name):
        _, _, symm, _, _ = _stats(gen_cache[name])
        assert symm == pytest.approx(100.0)

    @pytest.mark.parametrize("name", ["pocek", "soclivejournal", "follow-jul", "follow-dec"])
    def test_partial_symmetry_near_paper(self, gen_cache, name):
        _, _, symm, _, _ = _stats(gen_cache[name])
        assert symm == pytest.approx(SPECS[name].paper.symm_pct, abs=3.0)


class TestLeafFractions:
    @pytest.mark.parametrize("name", ROAD + ["youtube", "orkut"])
    def test_no_leaves_on_symmetric(self, gen_cache, name):
        _, _, _, zi, zo = _stats(gen_cache[name])
        assert zi == 0.0 and zo == 0.0

    @pytest.mark.parametrize("name", ["pocek", "soclivejournal", "follow-dec"])
    def test_zero_in_near_paper(self, gen_cache, name):
        _, _, _, zi, _ = _stats(gen_cache[name])
        assert zi == pytest.approx(SPECS[name].paper.zero_in_pct, abs=2.0)

    @pytest.mark.parametrize("name", ["pocek", "soclivejournal", "follow-dec"])
    def test_zero_out_near_paper(self, gen_cache, name):
        _, _, _, _, zo = _stats(gen_cache[name])
        assert zo == pytest.approx(SPECS[name].paper.zero_out_pct, abs=2.0)


class TestDeterminismAndContainment:
    @pytest.mark.parametrize("name", ["pocek", "roadnet-pa", "follow-dec"])
    def test_regeneration_identical(self, gen_cache, name):
        again = generate_pandas(name, "test")
        pd.testing.assert_frame_equal(gen_cache[name], again)

    def test_follow_jul_subset_of_dec(self, gen_cache):
        jul = set(zip(gen_cache["follow-jul"].src, gen_cache["follow-jul"].dst))
        dec = set(zip(gen_cache["follow-dec"].src, gen_cache["follow-dec"].dst))
        assert jul <= dec

    def test_follow_jul_keeps_reciprocal_pairs_whole(self, gen_cache):
        jul = set(zip(gen_cache["follow-jul"].src, gen_cache["follow-jul"].dst))
        dec = set(zip(gen_cache["follow-dec"].src, gen_cache["follow-dec"].dst))
        for (s, d) in list(jul)[:5000]:
            if (d, s) in dec:
                assert (d, s) in jul

    def test_tiers_differ_in_scale(self):
        small = generate_pandas("pocek", "test")
        big = generate_pandas("pocek", "bench")
        assert len(big) > 5 * len(small)


class TestRoadNetworks:
    @pytest.mark.parametrize("name", ROAD)
    def test_id_locality(self, gen_cache, name):
        # grid ids are row-major: endpoints differ by 1 or by the grid
        # width — the "vertex IDs capture locality" property SC/DC use
        pdf = gen_cache[name]
        diff = (pdf.src - pdf.dst).abs()
        width = diff[diff > 1].min()
        assert ((diff == 1) | (diff == width)).all()

    @pytest.mark.parametrize("name", ROAD)
    def test_degree_bounded_by_grid(self, gen_cache, name):
        deg = pd.concat([gen_cache[name].src, gen_cache[name].dst]).value_counts()
        assert deg.max() <= 8  # 4 neighbours × 2 directions

    def test_islands_create_components(self):
        from repro.algos.connected_components import cc_reference

        pdf = grid_graph(20, 20, drop_frac=0.0, n_islands=3, seed=1)
        labels = cc_reference(list(zip(pdf.src, pdf.dst)))
        assert len(set(labels.values())) >= 4

    def test_drop_frac_reduces_edges(self):
        full = grid_graph(20, 20, drop_frac=0.0, n_islands=0, seed=1)
        dropped = grid_graph(20, 20, drop_frac=0.3, n_islands=0, seed=1)
        assert len(dropped) < len(full) * 0.8


class TestSocialStructure:
    def test_power_law_tail(self, gen_cache):
        # follow-dec must have "superstar" in-degree vertices: the max
        # in-degree dwarfs the median
        indeg = gen_cache["follow-dec"].dst.value_counts()
        assert indeg.max() > 30 * indeg.median()

    def test_components_knob(self):
        from repro.algos.connected_components import cc_reference

        pdf = social_graph(500, 2000, symmetry=1.0, n_components=4, seed=3)
        labels = cc_reference(list(zip(pdf.src, pdf.dst)))
        assert len(set(labels.values())) == 4

    def test_soclj_multiple_components(self, gen_cache):
        from repro.algos.connected_components import cc_reference

        labels = cc_reference(list(zip(gen_cache["soclivejournal"].src, gen_cache["soclivejournal"].dst)))
        assert len(set(labels.values())) > 1

    def test_giant_component_ids_not_contiguous(self, gen_cache):
        """Social ids carry no locality: unshuffled, the giant component
        is exactly the ids 0 .. size - 1."""
        from repro.algos.connected_components import cc_reference

        pdf = gen_cache["soclivejournal"]
        labels = pd.Series(cc_reference(list(zip(pdf.src, pdf.dst))))
        giant = labels.index[labels == labels.value_counts().idxmax()]
        assert giant.max() - giant.min() + 1 > len(giant)

    def test_invalid_symmetry_raises(self):
        with pytest.raises(ValueError):
            social_graph(100, 200, symmetry=0.0)

    def test_orkut_denser_than_youtube(self, gen_cache):
        def density(pdf):
            nv = len(set(pdf.src) | set(pdf.dst))
            return len(pdf) / nv

        assert density(gen_cache["orkut"]) > 5 * density(gen_cache["youtube"])
