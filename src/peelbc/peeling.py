"""Betweenness centrality through degree-1 peeling.

Two families live here.  The one-round algorithm removes the degree-1
nodes once, runs dependency accumulation only on the peeled graph, and
reconstructs the full-graph scores exactly from closed-form pendant
terms plus an auxiliary pendant-weighted dependency (zeta).  The 2-core
recurrence is the oracle-grade multi-round variant: it peels to the
2-core, solves it with the brute-force matrices, and rolls scores back
round by round.  Only the recurrence uses numpy, and it imports it when
called, so the one-round algorithm never loads it.

All closed-form terms use the size of a node's connected component where
a connected graph's formulas would use n, so disconnected inputs (where
unreachable pairs contribute nothing) are handled exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from time import perf_counter
from typing import TYPE_CHECKING

from .exact import (
    BcResult,
    _dependency_totals,
    _normalizer,
    accumulate,
    accumulate_chunked,
    oracle_sigma,
    pair_counts_through,
)
from .graph import Graph, PeelDecomposition, peel

if TYPE_CHECKING:
    import numpy as np


def accumulate_delta_zeta(
    g: Graph, s: int, deg1: list[int]
) -> tuple[list[float], list[float]]:
    """Dependency and pendant-weighted dependency rows of source s.

    The one-round algorithms accumulate only the sum psi = delta + zeta,
    in one pass; this keeps the two rows apart, so that tests can check
    zeta against its brute-force definition.  Runs on the peeled graph
    g; deg1 gives, per node of g, its count of removed degree-1
    neighbors in the original graph.  The zeta recursion is the
    dependency one with deg1(w) in the role of the +1 target term, so
    each row is one kernel pass.
    """
    return accumulate(g, [s]), accumulate(g, [s], target=deg1)


@dataclass
class _OneRound:
    """Shared setup for the one-round algorithms.  comp_size[i] is the
    size, in g, of the component holding survivor v2[i]; decomp is the
    full peel, handed on in BcResult.peeled so the record need not peel."""

    v2: list[int]
    deg1: list[int]
    sub: Graph
    comp_size: list[int]
    decomp: PeelDecomposition


def _survivors(g: Graph) -> list[int]:
    """The nodes one peeling round keeps: every node of degree != 1."""
    return [v for v, nbrs in enumerate(g.adj) if len(nbrs) != 1]


def _one_round(g: Graph) -> _OneRound:
    """Peel g, build the survivor subgraph and size each survivor's
    component.  One round removes only leaves, so the survivors of a
    component of g stay connected in the subgraph, and the component
    holds them plus their degree-1 neighbours: its size is the sum of
    1 + deg1 over its survivors.  (A two-node component has no
    survivor and needs no size.)"""
    decomp = peel(g)
    deg1 = decomp.deg1
    v2 = _survivors(g)
    sub, _ = g.subgraph(v2)
    comp_id, sizes = sub.component_ids(weight=[1 + deg1[v] for v in v2])
    return _OneRound(v2=v2, deg1=deg1, sub=sub,
                     comp_size=[sizes[c] for c in comp_id], decomp=decomp)


def _add_pendant_terms(bc: list[float], one: _OneRound, acc: list[float]) -> None:
    """Write each survivor's score into bc: its accumulated sum acc[i]
    plus the closed-form pendant term, normalized."""
    norm = _normalizer(len(bc))
    for idx, u in enumerate(one.v2):
        d1 = one.deg1[u]
        cu = one.comp_size[idx]
        bc[u] = (acc[idx] + d1 * (2 * cu - 3 - d1)) / norm


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


def bc_one_round_mem(
    g: Graph,
    k: int | None = None,
    seed: int | None = None,
    threads: int = 1,
) -> BcResult:
    """Betweenness after one peeling round, using per-source buffers only.

    Exact when k is None or k >= the survivor count; otherwise an
    estimate from k pivots rescaled by survivors/k.  Each survivor's
    score combines the weighted accumulation over the peeled graph (one
    kernel pass per source for psi = delta + zeta: target 1 + deg1,
    source weight 1 + deg1) with a closed-form pendant term that carries
    no sampling error; removed degree-1 nodes score 0.  On a graph with
    no degree-1 nodes this reduces bit-for-bit to the plain exact
    algorithm.
    """
    start = perf_counter()
    n = g.n
    one = _one_round(g)
    nt = len(one.v2)
    sources, sampled = _pick_sources(nt, k, seed)
    bc = [0.0] * n
    if n > 2:
        deg1_sub = [one.deg1[orig] for orig in one.v2]
        acc = accumulate_chunked(
            one.sub, sources, target=[1.0 + d for d in deg1_sub],
            weight=[1 + d for d in deg1_sub], threads=threads,
        )
        if sampled:
            scale = nt / k
            acc = [x * scale for x in acc]
        _add_pendant_terms(bc, one, acc)
    return BcResult(
        bc=bc,
        algorithm="peel1-mem",
        k=k if sampled else None,
        seed=seed if sampled else None,
        elapsed=perf_counter() - start,
        peeled=one.decomp,
    )


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
    import numpy as np
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
    import numpy as np
    start = perf_counter()
    n = g.n
    decomp = peel(g)
    core_sub, _ = g.subgraph(decomp.core_nodes)
    dist, sigma = oracle_sigma(core_sub)
    totals = _dependency_totals(dist, sigma)

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
                    elapsed=perf_counter() - start, peeled=decomp)
