"""Deterministic synthetic graph generators (DESIGN.md §4).

The paper evaluates on nine real graphs (SNAP + two private Twitter
crawls). We substitute generators that control exactly the structural
features the paper's analysis depends on:

- **grid_graph** — road networks: symmetric, ~constant degree, huge
  diameter, multiple components, and *vertex-id locality* (row-major
  ids), which is what makes the SC/DC modulo partitioners interesting.
- **social_graph** — Chung–Lu-style power-law sampler with knobs for
  edge symmetry, zero-in/zero-out "leaf" fractions (forest-fire
  crawling artifacts), component count and superstar skew; ids are
  shuffled by a fixed permutation (social ids carry no locality).

Everything is numpy + pandas on the driver (graphs are generated at
1/2000 or 1/200 of paper scale) and handed to Spark via
``edges_from_pandas``; determinism in ``seed`` is part of the contract
so the DuckDB oracle and the reference implementations see identical
inputs.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

#: Cap on one vertex's sampling probability in ``social_graph``. It bounds
#: the max degree so wedge-based triangle counting stays feasible at bench
#: scale.
MAX_WEIGHT_FRAC = 0.004


def _dedupe(src: np.ndarray, dst: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Drop duplicate arcs, preserving first-occurrence order."""
    key = src.astype(np.int64) * np.int64(1 << 32) + dst.astype(np.int64)
    _, idx = np.unique(key, return_index=True)
    idx.sort()
    return src[idx], dst[idx]


def grid_graph(
    rows: int,
    cols: int,
    *,
    drop_frac: float = 0.2,
    n_islands: int = 4,
    seed: int = 0,
) -> pd.DataFrame:
    """Road-network stand-in: 4-neighbour grid with dropped edges.

    Ids are row-major (``r * cols + c``) so numerically close ids are
    geographically close — the locality SC/DC exploit. ``drop_frac`` of
    undirected edges are removed at random; additionally ``n_islands``
    small 2×2 blocks are fully disconnected from their surroundings,
    guaranteeing at least ``n_islands + 1`` components like the paper's
    road networks. Both arc directions are emitted (symmetry 100%).
    """
    g = np.random.default_rng(seed)
    r, c = np.meshgrid(np.arange(rows), np.arange(cols), indexing="ij")
    vid = (r * cols + c).astype(np.int64)

    right_src = vid[:, :-1].ravel()
    right_dst = vid[:, 1:].ravel()
    down_src = vid[:-1, :].ravel()
    down_dst = vid[1:, :].ravel()
    src = np.concatenate([right_src, down_src])
    dst = np.concatenate([right_dst, down_dst])

    keep = g.random(src.shape[0]) >= drop_frac
    src, dst = src[keep], dst[keep]

    # Carve out n_islands 2x2 blocks: drop every edge crossing a block
    # boundary. Block corners placed deterministically on a diagonal.
    islands = []
    for i in range(n_islands):
        rr = 1 + (i * max(1, (rows - 4) // max(1, n_islands)))
        cc = 1 + (i * max(1, (cols - 4) // max(1, n_islands)))
        if rr + 1 < rows - 1 and cc + 1 < cols - 1:
            islands.append((rr, cc))
    if islands:
        block = np.zeros(rows * cols, dtype=bool)
        for rr, cc in islands:
            for dr in (0, 1):
                for dc in (0, 1):
                    block[(rr + dr) * cols + (cc + dc)] = True
        crossing = block[src] != block[dst]
        src, dst = src[~crossing], dst[~crossing]

    und = pd.DataFrame({"src": src, "dst": dst})
    both = pd.concat(
        [und, und.rename(columns={"src": "dst", "dst": "src"})], ignore_index=True
    )
    return both[["src", "dst"]].astype("int64")


def social_graph(
    n: int,
    m: int,
    *,
    symmetry: float = 1.0,
    zero_in_frac: float = 0.0,
    zero_out_frac: float = 0.0,
    n_components: int = 1,
    out_skew: float = 0.7,
    in_skew: float = 0.7,
    seed: int = 0,
) -> pd.DataFrame:
    """Power-law social-graph stand-in (fast Chung–Lu arc sampler).

    Samples ``~m`` arcs with endpoint probabilities ∝ rank^-skew
    (independent rank orders for in and out, so "superstars" exist on
    both sides). Then:

    - reciprocates a fraction of arcs so the final reciprocated-edge
      percentage is ``symmetry`` (1.0 ⇒ undirected view, both arcs);
    - ``zero_in_frac`` of vertices never receive an arc and
      ``zero_out_frac`` never emit one (the paper's leaf vertices);
    - splits vertices into ``n_components`` blocks sampled
      independently (one giant + small ones);
    - shuffles ids with a fixed permutation (social ids carry no
      locality, unlike road networks).

    A single vertex's sampling probability is capped at
    ``MAX_WEIGHT_FRAC``.
    """
    if not 0.0 < symmetry <= 1.0:
        raise ValueError("symmetry must be in (0, 1]")
    g = np.random.default_rng(seed)

    # Component sizes: one giant + (k-1) small blocks of ~5 vertices.
    # Cap the block count so small components stay a sliver of the
    # vertex set (as in the real graphs) even at 1/2000 scale.
    k = max(1, min(n_components, n // 100))
    small = 5
    sizes = [n - (k - 1) * small] + [small] * (k - 1)
    # Arcs per component, proportional to size^1.3 (small comps sparse).
    wts = np.array([s**1.3 for s in sizes])
    arcs_per = np.maximum(
        np.array([max(s - 1, 1) for s in sizes]),
        (m * wts / wts.sum()).astype(np.int64),
    )

    srcs, dsts = [], []
    is_zero_in = np.zeros(n, dtype=bool)
    is_zero_out = np.zeros(n, dtype=bool)
    base = 0
    for ci, (sz, mc) in enumerate(zip(sizes, arcs_per)):
        ids = np.arange(base, base + sz, dtype=np.int64)
        n_zi = int(zero_in_frac * sz)
        n_zo = int(zero_out_frac * sz)
        # zero-in vertices come from the tail of the id range, zero-out
        # from just before them, so the two sets never overlap (an
        # isolated vertex would silently vanish from the edge list).
        zi_set = ids[sz - n_zi :]
        zo_set = ids[sz - n_zi - n_zo : sz - n_zi]
        is_zero_in[zi_set] = True
        is_zero_out[zo_set] = True
        dst_pool = ids[: sz - n_zi] if n_zi else ids
        src_pool = np.concatenate([ids[: sz - n_zi - n_zo], zi_set]) if (n_zi or n_zo) else ids

        def _weights(pool: np.ndarray, skew: float, salt: int, n_heavy: int) -> np.ndarray:
            # Deterministic per-component rank order, distinct for the
            # in- and out- sides via the salt. Only the first
            # ``n_heavy`` pool members compete for power-law ranks; the
            # tail (zero-in leaves in the src pool) gets the minimum
            # weight — crawl-fringe users emit a handful of arcs, which
            # also keeps most arcs eligible for reciprocation.
            rng_w = np.random.default_rng(seed * 7919 + ci * 31 + salt)
            order = rng_w.permutation(n_heavy)
            w_heavy = (order + 1.0) ** (-skew)
            tail = pool.shape[0] - n_heavy
            w = np.concatenate([w_heavy, np.full(tail, w_heavy.min() * 0.5)])
            w /= w.sum()
            w = np.minimum(w, MAX_WEIGHT_FRAC)
            w /= w.sum()
            return w

        n_src_heavy = sz - n_zi - n_zo if (n_zi or n_zo) else sz
        w_out = _weights(src_pool, out_skew, 1, n_src_heavy)
        w_in = _weights(dst_pool, in_skew, 2, dst_pool.shape[0])
        # Oversample to survive self-loop/dup removal.
        n_draw = int(mc * 1.3) + 8
        s = g.choice(src_pool, size=n_draw, p=w_out)
        d = g.choice(dst_pool, size=n_draw, p=w_in)
        ok = s != d
        s, d = s[ok], d[ok]
        s, d = _dedupe(s, d)
        s, d = s[:mc], d[:mc]
        # Guarantee every zero-out vertex still *receives* an edge and
        # every zero-in vertex *emits* one, so no vertex is isolated.
        extra_s, extra_d = [], []
        if n_zo:
            anchors = g.choice(src_pool[: max(1, sz - n_zi - n_zo)], size=n_zo)
            extra_s.append(anchors)
            extra_d.append(zo_set)
        if n_zi:
            anchors = g.choice(dst_pool[: max(1, sz - n_zi)], size=n_zi)
            extra_s.append(zi_set)
            extra_d.append(anchors)
        if extra_s:
            s = np.concatenate([s] + extra_s)
            d = np.concatenate([d] + extra_d)
            s, d = _dedupe(s, d)
        srcs.append(s)
        dsts.append(d)
        base += sz

    src = np.concatenate(srcs)
    dst = np.concatenate(dsts)

    # Reciprocate fraction f so that symmetry = 2f/(1+f)  =>  f = s/(2-s).
    # Leaf constraints win over symmetry: never emit an arc out of a
    # zero-out vertex or into a zero-in vertex.
    if symmetry >= 1.0:
        src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
        src, dst = _dedupe(src, dst)
    else:
        f = symmetry / (2.0 - symmetry)
        # Reversing (s, d) emits (d, s): forbidden if d is a zero-out
        # vertex (it would emit) or s is a zero-in vertex (it would
        # receive) — leaf constraints win over the symmetry target, so
        # the pick rate is boosted over the eligible arcs to compensate.
        elig = ~is_zero_out[dst] & ~is_zero_in[src]
        n_elig = int(elig.sum())
        f_eff = min(1.0, f * src.shape[0] / max(1, n_elig))
        pick = (g.random(src.shape[0]) < f_eff) & elig
        rs, rd = dst[pick], src[pick]
        src = np.concatenate([src, rs])
        dst = np.concatenate([dst, rd])
        src, dst = _dedupe(src, dst)

    perm = np.random.default_rng(seed + 104729).permutation(n).astype(np.int64)
    src, dst = perm[src], perm[dst]

    return pd.DataFrame({"src": src, "dst": dst}).astype("int64")
