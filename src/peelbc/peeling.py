"""Betweenness centrality through degree-1 peeling.

Two families live here.  The one-round algorithms remove the degree-1
nodes once, run dependency accumulation only on the peeled graph, and
reconstruct the full-graph scores exactly from closed-form pendant terms
plus an auxiliary pendant-weighted dependency (zeta).  The 2-core
recurrence is the oracle-grade multi-round variant: it peels to the
2-core, solves it with the brute-force matrices, and rolls scores back
round by round.

All closed-form terms use the size of a node's connected component where
a connected graph's formulas would use n, so disconnected inputs (where
unreachable pairs contribute nothing) are handled exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from .exact import (
    BcResult,
    SsspTree,
    _normalizer,
    oracle_sigma,
    pair_counts_through,
    run_chunked,
    sssp_bfs,
)
from .graph import Graph, PeelDecomposition, peel


class TableSizeError(ValueError):
    """The full-information tables would exceed the configured memory cap."""


@dataclass
class DeltaZetaTable:
    """Dense dependency tables from the full-information one-round run.

    Columns cover only the surviving nodes (node_ids, ascending original
    ids); columns for removed degree-1 nodes would be identically zero
    and are never stored.  delta[s, j] is the dependency of source s
    (any node, by original id) on survivor node_ids[j] in the input
    graph; zeta[i, j] is the pendant-weighted dependency between
    survivors i and j of the peeled graph.
    """

    node_ids: list[int]
    delta: np.ndarray
    zeta: np.ndarray


def accumulate_delta_zeta(
    tree: SsspTree, deg1: list[int]
) -> tuple[list[float], list[float]]:
    """Bottom-up accumulation of dependency and pendant-weighted dependency.

    Runs on a BFS tree of the peeled graph; deg1 gives, per node of that
    graph, its count of removed degree-1 neighbors in the original
    graph.  The zeta recursion mirrors the dependency one with deg1(w)
    taking the role of the +1 target term, so one pass over the tree's
    edges produces both rows.
    """
    n = len(tree.dist)
    s = tree.source
    sigma = tree.sigma
    delta = [0.0] * n
    zeta = [0.0] * n
    for w in tree.order:
        coeff_d = (1.0 + delta[w]) / sigma[w]
        coeff_z = (deg1[w] + zeta[w]) / sigma[w]
        for v in tree.preds[w]:
            if v != s:
                sv = sigma[v]
                delta[v] += sv * coeff_d
                zeta[v] += sv * coeff_z
    return delta, zeta


@dataclass
class _OneRound:
    """Shared setup for the one-round algorithms."""

    v1: list[int]
    v2: list[int]
    deg1: list[int]
    sub: Graph
    comp_id: list[int]
    comp_size_of: list[int]


def _one_round(g: Graph) -> _OneRound:
    decomp = peel(g, max_rounds=1)
    v2 = decomp.core_nodes  # after one round: every node of degree != 1
    sub, _ = g.subgraph(v2)
    comp_id, comp_sizes = g.component_ids()
    comp_size_of = [comp_sizes[c] for c in comp_id]
    return _OneRound(v1=decomp.rounds[0] if decomp.rounds else [], v2=v2,
                     deg1=decomp.deg1, sub=sub, comp_id=comp_id,
                     comp_size_of=comp_size_of)


def _pick_sources(nt: int, k: int | None, seed: int | None):
    """Source list for the peeled graph: everything, or k pivots.

    k >= nt (or None) selects the exact branch: all survivors in
    ascending order, no rescaling.  Otherwise k distinct pivots are
    drawn uniformly without replacement, deterministically per seed.
    """
    if k is not None and k <= 0:
        raise ValueError(f"pivot count must be positive, got {k}")
    if k is None or k >= nt:
        return list(range(nt)), False
    rng = random.Random(0 if seed is None else seed)
    return rng.sample(range(nt), k), True


def _mem_chunk(sub: Graph, deg1_sub: list[int], sources: list[int],
               lo: int, hi: int) -> list[float]:
    """Weighted dependency totals contributed by sources[lo:hi]."""
    acc = [0.0] * sub.n
    for s in sources[lo:hi]:
        tree = sssp_bfs(sub, s)
        sigma = tree.sigma
        preds = tree.preds
        weight = 1 + deg1_sub[s]
        dtmp = [0.0] * sub.n
        ztmp = [0.0] * sub.n
        for w in tree.order:
            coeff_d = (1.0 + dtmp[w]) / sigma[w]
            coeff_z = (deg1_sub[w] + ztmp[w]) / sigma[w]
            for v in preds[w]:
                if v != s:
                    sv = sigma[v]
                    dtmp[v] += sv * coeff_d
                    ztmp[v] += sv * coeff_z
            if w != s:
                acc[w] += weight * (dtmp[w] + ztmp[w])
    return acc


def bc_one_round_mem(
    g: Graph,
    k: int | None = None,
    seed: int | None = None,
    threads: int = 1,
) -> BcResult:
    """Betweenness after one peeling round, using per-source buffers only.

    Exact when k is None or k >= the survivor count; otherwise an
    estimate from k pivots rescaled by survivors/k.  Each survivor's
    score combines the weighted accumulation over the peeled graph with
    a closed-form pendant term that carries no sampling error; removed
    degree-1 nodes score 0.  On a graph with no degree-1 nodes this
    reduces bit-for-bit to the plain exact algorithm.
    """
    start = perf_counter()
    n = g.n
    one = _one_round(g)
    nt = len(one.v2)
    sources, sampled = _pick_sources(nt, k, seed)
    bc = [0.0] * n
    if n > 2:
        deg1_sub = [one.deg1[orig] for orig in one.v2]
        acc = [0.0] * nt
        for partial in run_chunked(
            _mem_chunk, (one.sub, deg1_sub, sources), len(sources), threads
        ):
            for i in range(nt):
                acc[i] += partial[i]
        if sampled:
            scale = nt / k
            acc = [x * scale for x in acc]
        norm = _normalizer(n)
        for idx, u in enumerate(one.v2):
            d1 = one.deg1[u]
            cu = one.comp_size_of[u]
            bc[u] = (acc[idx] + d1 * (2 * cu - 3 - d1)) / norm
    return BcResult(
        bc=bc,
        algorithm="peel1-mem",
        k=k if sampled else None,
        seed=seed if sampled else None,
        elapsed=perf_counter() - start,
    )


def bc_one_round_full(
    g: Graph,
    k: int | None = None,
    seed: int | None = None,
    max_table_bytes: int = 1 << 30,
) -> tuple[BcResult, DeltaZetaTable]:
    """One-round peeling keeping the full dependency tables.

    Produces the same scores as bc_one_round_mem plus the dense
    delta/zeta tables over all sources and surviving columns.  The
    update per survivor column u: a pendant neighbor of u as source
    depends on u for every other node it can reach (component size - 2);
    any other removed pendant inherits its unique neighbor's row
    (delta + zeta); surviving sources gain their zeta entry; finally
    every source that reaches u, other than u itself and its pendant
    neighbors, gains deg1(u) for the paths ending at those pendants.

    The tables take (n + survivors) * survivors floats; if the estimate
    exceeds max_table_bytes a TableSizeError directs callers to
    bc_one_round_mem.
    """
    start = perf_counter()
    n = g.n
    one = _one_round(g)
    nt = len(one.v2)
    estimated = 8 * (n * nt + nt * nt)
    if estimated > max_table_bytes:
        raise TableSizeError(
            f"full-information tables need about {estimated} bytes for "
            f"n={n}, survivors={nt} (cap {max_table_bytes}); use "
            "bc_one_round_mem instead"
        )
    sources, sampled = _pick_sources(nt, k, seed)

    delta = np.zeros((n, nt))
    zeta = np.zeros((nt, nt))
    deg1_sub = [one.deg1[orig] for orig in one.v2]
    for s in sources:
        tree = sssp_bfs(one.sub, s)
        drow, zrow = accumulate_delta_zeta(tree, deg1_sub)
        delta[one.v2[s], :] = drow
        zeta[s, :] = zrow
    if sampled:
        scale = nt / k
        delta *= scale
        zeta *= scale

    pos = {orig: i for i, orig in enumerate(one.v2)}
    degrees = [len(g.adj[v]) for v in range(n)]
    for v in one.v1:
        a = g.adj[v][0]
        if degrees[a] == 1:
            continue  # two-node component: no paths leave it
        ai = pos[a]
        delta[v, :] = delta[a, :] + zeta[ai, :]
        delta[v, ai] = one.comp_size_of[v] - 2
    if nt:
        delta[np.array(one.v2), :] += zeta
    comp_arr = np.array(one.comp_id) if n else np.zeros(0, dtype=int)
    for idx, u in enumerate(one.v2):
        d1 = one.deg1[u]
        if not d1:
            continue
        col = delta[:, idx]
        col[comp_arr == one.comp_id[u]] += d1
        col[u] -= d1
        for w in g.adj[u]:
            if degrees[w] == 1:
                col[w] -= d1

    bc = [0.0] * n
    if n > 2:
        sums = delta.sum(axis=0)
        norm = _normalizer(n)
        for idx, u in enumerate(one.v2):
            bc[u] = float(sums[idx]) / norm
    result = BcResult(
        bc=bc,
        algorithm="peel1-full",
        k=k if sampled else None,
        seed=seed if sampled else None,
        elapsed=perf_counter() - start,
    )
    return result, DeltaZetaTable(node_ids=list(one.v2), delta=delta, zeta=zeta)


def _extend_sigma(
    dist: np.ndarray,
    sigma: np.ndarray,
    removed: list[int],
    anchor_idx: list[int],
    k2_partner: dict[int, int],
) -> tuple[np.ndarray, np.ndarray]:
    """Grow all-pairs distance/count matrices by one un-peeling round.

    The existing matrices describe the smaller graph; removed nodes are
    appended in order.  A removed node with surviving anchor a sits one
    hop past a with a's path counts; two removed nodes combine their
    anchors' entries plus two hops; mutual degree-1 pairs (two-node
    components) are distance 1 from each other and unreachable from
    everything else.  All arithmetic stays in integers.
    """
    p = dist.shape[0]
    q = len(removed)
    full = p + q
    d2 = np.full((full, full), -1, dtype=np.int64)
    s2 = np.zeros((full, full), dtype=np.int64)
    d2[:p, :p] = dist
    s2[:p, :p] = sigma

    a_idx = np.array(anchor_idx, dtype=np.int64)
    valid = np.nonzero(a_idx >= 0)[0]
    if valid.size and p:
        va = a_idx[valid]
        cols = valid + p
        dc = dist[:, va]
        reach = dc >= 0
        d2[:p, cols] = np.where(reach, dc + 1, -1)
        s2[:p, cols] = np.where(reach, sigma[:, va], 0)
        d2[cols, :p] = d2[:p, cols].T
        s2[cols, :p] = s2[:p, cols].T
        dblock = dist[np.ix_(va, va)]
        rblock = dblock >= 0
        d2[np.ix_(cols, cols)] = np.where(rblock, dblock + 2, -1)
        s2[np.ix_(cols, cols)] = np.where(rblock, sigma[np.ix_(va, va)], 0)
    for j, v in enumerate(removed):
        partner = k2_partner.get(v)
        if partner is not None:
            jj = removed.index(partner)
            d2[p + j, p + jj] = d2[p + jj, p + j] = 1
            s2[p + j, p + jj] = s2[p + jj, p + j] = 1
    for x in range(p, full):
        d2[x, x] = 0
        s2[x, x] = 1
    return d2, s2


def _round_structures(g: Graph, decomp: PeelDecomposition):
    """Per-round anchor indexing shared by the recurrence and its tests.

    Yields, from the innermost round outward, the node order before the
    round is undone, the removed nodes, their anchor positions in that
    order (-1 for two-node components), and the mutual-pair map.
    """
    order = list(decomp.core_nodes)
    states = []
    for removed in reversed(decomp.rounds):
        pos = {orig: i for i, orig in enumerate(order)}
        anchor_idx = []
        k2_partner = {}
        for v in removed:
            a = decomp.pendant_anchor[v]
            idx = pos.get(a, -1)
            anchor_idx.append(idx)
            if idx < 0:
                k2_partner[v] = a
        states.append((list(order), list(removed), anchor_idx, k2_partner))
        order = order + list(removed)
    return states, order


def two_core_sigma_rounds(g: Graph):
    """All-pairs distance/count matrices for every graph in the peel chain.

    Returns a list of (node_order, dist, sigma) from the fully peeled
    graph back out to the input graph; the matrices are produced by the
    same un-peeling extension the recurrence uses, so tests can compare
    them entrywise against direct recomputation.
    """
    decomp = peel(g)
    core_sub, core_nodes = g.subgraph(decomp.core_nodes)
    dist, sigma = oracle_sigma(core_sub)
    out = [(list(core_nodes), dist, sigma)]
    states, _ = _round_structures(g, decomp)
    for order, removed, anchor_idx, k2_partner in states:
        dist, sigma = _extend_sigma(dist, sigma, removed, anchor_idx, k2_partner)
        out.append((order + removed, dist, sigma))
    return out


def bc_via_2core_recurrence(g: Graph) -> BcResult:
    """Exact betweenness by solving the 2-core and un-peeling round by round.

    Oracle-grade: keeps all-pairs distance/count matrices per round, so
    memory is quadratic in the node count.  Each un-peeling round adds,
    per surviving node u, the closed-form pendant-pair and
    pendant-to-anywhere terms (component-aware) plus two double sums
    over anchor pairs weighted by the fraction of their shortest paths
    through u, evaluated on the smaller graph's matrices via the
    counting identity.  Removed degree-1 nodes score 0.
    """
    start = perf_counter()
    n = g.n
    decomp = peel(g)
    core_sub, _ = g.subgraph(decomp.core_nodes)
    dist, sigma = oracle_sigma(core_sub)

    p = core_sub.n
    totals = np.zeros(p)
    if p > 2:
        sigma_f = sigma.astype(np.float64)
        safe = np.where(sigma > 0, sigma_f, 1.0)
        for u in range(p):
            dep = pair_counts_through(dist, sigma, u).astype(np.float64) / safe
            dep[u, :] = 0.0
            dep[:, u] = 0.0
            np.fill_diagonal(dep, 0.0)
            totals[u] = dep.sum()

    states, final_order = _round_structures(g, decomp)
    for order, removed, anchor_idx, k2_partner in states:
        p = len(order)
        deg1_round = np.zeros(p)
        for idx in anchor_idx:
            if idx >= 0:
                deg1_round[idx] += 1
        d2, s2 = _extend_sigma(dist, sigma, removed, anchor_idx, k2_partner)
        comp_size = (d2 >= 0).sum(axis=1)
        new_totals = np.zeros(p + len(removed))
        if p:
            sigma_f = sigma.astype(np.float64)
            safe = np.where(sigma > 0, sigma_f, 1.0)
            any_pendants = deg1_round.any()
            for u in range(p):
                extra = 0.0
                d1 = deg1_round[u]
                if d1:
                    cu = comp_size[u]
                    extra += d1 * (d1 - 1) + 2.0 * d1 * (cu - d1 - 1)
                if any_pendants:
                    ratios = (
                        pair_counts_through(dist, sigma, u).astype(np.float64)
                        / safe
                    )
                    ratios[u, :] = 0.0
                    ratios[:, u] = 0.0
                    np.fill_diagonal(ratios, 0.0)
                    extra += 2.0 * float(ratios.sum(axis=0) @ deg1_round)
                    extra += float(deg1_round @ ratios @ deg1_round)
                new_totals[u] = totals[u] + extra
        totals = new_totals
        dist, sigma = d2, s2

    bc = [0.0] * n
    if n > 2:
        norm = _normalizer(n)
        for idx, orig in enumerate(final_order):
            bc[orig] = float(totals[idx]) / norm
    return BcResult(bc=bc, algorithm="2core-recurrence",
                    elapsed=perf_counter() - start)
