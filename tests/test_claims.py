"""The paper's claims, enforced on the bench-tier grid.

Loads the bench-tier profile grid once, as ``jobs/calibrate_sim.py``,
the §4 job, does, through ``profile_grid``'s on-disk cache (the first
run on a checkout profiles the grid, about two minutes on 4 cores;
later runs read it back). It builds the same run and infra tables from
that grid with pandas and asserts every row of ``claims_table``. The
mutation cases show the check can fail: they break the loaded tables
the way a wrong cost model would.
"""
import pytest

import repro.experiments.tables as T

CLAIMS = ("C1", "C2", "C3", "C4", "C5", "C6", "C7", "C8", "P1", "P2", "T1", "T2", "T3")


@pytest.fixture(scope="module")
def tables(spark):
    grid = T.profile_grid(spark, tier="bench")
    runs = {algo: T.runtime_table(grid, algo) for algo in ("pr", "cc", "tr", "sssp")}
    return runs, T.infra_table(grid)


@pytest.fixture(scope="module")
def claims(tables):
    return T.claims_table(*tables).set_index("claim")


def test_every_claim_is_checked(claims):
    assert tuple(claims.index) == CLAIMS


@pytest.mark.parametrize("claim", CLAIMS)
def test_claim_holds(claims, claim):
    row = claims.loc[claim]
    assert row.ok, f"{claim} {row.target}: ours {row.ours}"


def test_tr_tracking_commcost_fails_c3(tables):
    runs, infra = tables
    tr = runs["tr"]
    broken = {**runs, "tr": tr.assign(time=tr.comm_cost.astype(float))}
    assert not T.claims_table(broken, infra).set_index("claim").loc["C3", "ok"]


def test_flat_infra_fails_c8(tables):
    runs, infra = tables
    flat = infra.assign(time=infra.time.iloc[0])
    assert not T.claims_table(runs, flat).set_index("claim").loc["C8", "ok"]
