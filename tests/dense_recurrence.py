"""The dense 2-core recurrence, kept as reference code for the tests.

This is the package's multi-round path as it stood before it moved onto
the accumulation kernel: it solves the 2-core with the brute-force
all-pairs matrices and un-peels round by round, growing the distance and
path-count matrices in integers.  It needs O(n^2) memory and O(n^3)
time, so it runs on desk-scale graphs only.  The tests use it twice:
the per-round matrices must equal a direct recomputation, and the
kernel path must agree with its scores.
"""

from __future__ import annotations

import numpy as np

from peelbc import Graph, PeelDecomposition, oracle_sigma, peel
from peelbc.exact import _dependency_totals, _normalizer, pair_counts_through


def _extend_sigma(dist, sigma, removed, anchor_idx, k2_partner):
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


def _round_structures(decomp: PeelDecomposition):
    """Per-round anchor indexing, from the innermost round outward: the
    node order before the round is undone, the removed nodes, their
    anchor positions in that order (-1 for two-node components), and the
    mutual-pair map."""
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
    graph back out to the input graph, produced by the same un-peeling
    extension the recurrence uses.
    """
    decomp = peel(g)
    core_sub, core_nodes = g.subgraph(decomp.core_nodes)
    dist, sigma = oracle_sigma(core_sub)
    out = [(list(core_nodes), dist, sigma)]
    states, _ = _round_structures(decomp)
    for order, removed, anchor_idx, k2_partner in states:
        dist, sigma = _extend_sigma(dist, sigma, removed, anchor_idx, k2_partner)
        out.append((order + removed, dist, sigma))
    return out


def dense_2core_recurrence(g: Graph) -> list[float]:
    """Exact betweenness by solving the 2-core and un-peeling round by round.

    Each un-peeling round adds, per surviving node u, the closed-form
    pendant-pair and pendant-to-anywhere terms (component-aware) plus two
    double sums over anchor pairs weighted by the fraction of their
    shortest paths through u, evaluated on the smaller graph's matrices
    via the counting identity.  Removed degree-1 nodes score 0.
    """
    n = g.n
    decomp = peel(g)
    core_sub, _ = g.subgraph(decomp.core_nodes)
    dist, sigma = oracle_sigma(core_sub)
    totals = _dependency_totals(dist, sigma)

    states, final_order = _round_structures(decomp)
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
    return bc
