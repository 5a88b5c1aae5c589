"""Betweenness centrality through degree-1 peeling.

Peeling removes degree-1 nodes round by round; every removed node hangs
in a tree below a node that stays.  One body scores both peeled paths:
it runs the dependency-accumulation kernel on the kept nodes only, each
weighted by 1 + the number of nodes hanging below it, and adds the
pairs those trees route through each node in closed form.  The
one-round algorithm (`bc_one_round_mem`) keeps every node of degree
!= 1; the 2-core recurrence (`bc_via_2core_recurrence`) peels until no
degree-1 node is left, so the kernel runs on the 2-core alone.  The
peeled sampler (`sampling.sample_bc_peeled`) runs the one-round body
from pivots drawn among the kept nodes.

All closed-form terms use the size of a node's connected component where
a connected graph's formulas would use n, so disconnected inputs (where
unreachable pairs contribute nothing) are handled exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

from .exact import (BcResult, _normalizer, accumulate, accumulate_chunked,
                    pendant_anchors)
from .graph import Graph, PeelDecomposition, peel


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
class _Peeled:
    """Shared set-up of the peeled paths.

    kept lists, ascending, the nodes the kernel runs on: sub is the
    subgraph they induce, and weight[i] = 1.0 + T[kept[i]] is the
    kernel's target and source weight (a float, which the kernel's inner
    loop adds faster than an int).  Every other node hangs in a tree
    below a kept node.  T[v] counts the nodes below v, Q[v] sums the
    squares of v's child-subtree sizes, and comp_size[v] is the size, in
    g, of v's component (set where the closed form needs it).  inner
    lists the removed nodes with T > 0.  decomp is the full peel, handed
    on in BcResult.peeled so the record need not peel.

    After one round, sub can keep degree-1 nodes: a kept node whose
    other neighbours were all removed.  The exact runs hand them to the
    kernel as anchored sources (exact.pendant_anchors), so each rides
    its neighbour's BFS; the 2-core has none.
    """

    kept: list[int]
    T: list[int]
    Q: list[int]
    sub: Graph
    weight: list[float]
    comp_size: list[int]
    inner: list[int]
    decomp: PeelDecomposition


def _set_up(g: Graph, decomp: PeelDecomposition, keep, T: list[int],
            Q: list[int], inner: list[int]) -> _Peeled:
    """Build the kept subgraph and size each component as the sum of
    1 + T over its kept nodes (the kept nodes of a component of g stay
    connected, and the rest hang below them); a removed node's component
    is its parent's, so sizes pass down inner from the innermost round
    outward."""
    sub, kept = g.subgraph(keep)
    comp_id, sizes = sub.component_ids(weight=[1 + T[v] for v in kept])
    comp_size = [0] * g.n
    for v, c in zip(kept, comp_id):
        comp_size[v] = sizes[c]
    parent = decomp.pendant_anchor
    for v in reversed(inner):
        comp_size[v] = comp_size[parent[v]]
    weight = [1.0 + T[v] for v in kept]
    return _Peeled(kept=kept, T=T, Q=Q, sub=sub, weight=weight,
                   comp_size=comp_size, inner=inner, decomp=decomp)


def _one_round(g: Graph) -> _Peeled:
    """One peeling round: keep every node of degree != 1.  A kept node
    holds only its degree-1 neighbours, so T = Q = deg1.  A two-node
    component has no kept node; both of its nodes score 0."""
    decomp = peel(g)
    keep = [v for v, nbrs in enumerate(g.adj) if len(nbrs) != 1]
    return _set_up(g, decomp, keep, decomp.deg1, decomp.deg1, [])


def _full_peel(g: Graph) -> _Peeled:
    """Every peeling round: keep the core nodes.  A removed node's parent
    is its pendant anchor, except that a final two-node pair roots at its
    smaller id, which is kept.  The rounds run outward in, so a node's
    subtree is complete before it joins its parent's."""
    decomp = peel(g)
    n = g.n
    parent = decomp.pendant_anchor
    T = [0] * n
    Q = [0] * n
    roots = []
    inner = []
    for removed in decomp.rounds:
        for v in removed:
            p = parent[v]
            if v < p and parent.get(p) == v:
                roots.append(v)
                continue
            if T[v]:
                inner.append(v)
            size = 1 + T[v]
            T[p] += size
            Q[p] += size * size
    return _set_up(g, decomp, decomp.core_nodes + roots, T, Q, inner)


def _add_pendant_terms(bc: list[float], one: _Peeled, acc: list[float]) -> None:
    """Write each scored node's betweenness into bc: for a kept node its
    accumulated sum acc[i], plus for every node with T > 0 the ordered
    pairs between different pieces around it (its child subtrees and the
    rest of its component), T(2C - 2 - T) - Q, normalized."""
    norm = _normalizer(len(bc))
    T, Q, comp_size = one.T, one.Q, one.comp_size
    for idx, u in enumerate(one.kept):
        t = T[u]
        bc[u] = (acc[idx] + (t * (2 * comp_size[u] - 2 - t) - Q[u])) / norm
    for v in one.inner:
        t = T[v]
        bc[v] = (t * (2 * comp_size[v] - 2 - t) - Q[v]) / norm


def _peeled_scores(g: Graph, one: _Peeled, pivots=None, scale: float = 1.0,
                   threads: int = 1) -> list[float]:
    """Scores from the set-up: the kernel on the kept subgraph with
    target = weight = 1 + T (psi = delta + zeta in one pass per source),
    the sum times `scale`, then the closed-form terms.  Removed nodes
    with nothing below them score 0.

    `pivots` None runs every kept node, component by component, with
    sub's pendant anchors: the exact scores.  A pivot list (indices into
    kept) runs without anchors, since a pendant pivot would only trade
    its own BFS for its anchor's.  When no node has anything below it,
    every 1 + T is 1.0 and the kernel takes its unit branch, which gives
    the same floats."""
    bc = [0.0] * g.n
    if g.n > 2:
        weight = one.weight if any(one.T) else None
        acc = accumulate_chunked(one.sub, pivots, weight, threads=threads,
                                 anchor=None if pivots is not None
                                 else pendant_anchors(one.sub))
        if scale != 1.0:
            acc = [x * scale for x in acc]
        _add_pendant_terms(bc, one, acc)
    return bc


def bc_one_round_mem(g: Graph, threads: int = 1) -> BcResult:
    """Exact betweenness after one peeling round.

    Each kept node's score combines the weighted accumulation over the
    peeled graph (one kernel pass per source for psi = delta + zeta:
    target and source weight 1 + deg1) with a closed-form pendant term;
    removed degree-1 nodes score 0.  On a graph with no degree-1 nodes
    this reduces bit-for-bit to the plain exact algorithm.  The pivot
    estimator on the same set-up is sampling.sample_bc_peeled.

    The peeled graph can still have degree-1 nodes (kept nodes that
    lost all but one neighbour to the round).  Each rides its
    neighbour's BFS (see exact.accumulate's anchor), which saves that
    many BFS runs; the scores are those of the kernel without anchors
    run over the sources in group order, each pendant next to its
    neighbour.  Memory is the kernel's per-source lists.  The BFS roots
    are cut into blocks as in `brandes_exact`, each pendant in its
    neighbour's block (exact.component_chunks), so no block repeats
    another's BFS, and `threads` shares the blocks out without moving a
    bit.
    """
    start = perf_counter()
    one = _one_round(g)
    bc = _peeled_scores(g, one, threads=threads)
    return BcResult(bc=bc, algorithm="peel1-mem", elapsed=perf_counter() - start,
                    peeled=one.decomp)


def bc_via_2core_recurrence(g: Graph, threads: int = 1) -> BcResult:
    """Exact betweenness by peeling to the 2-core.

    Peels degree-1 nodes until none is left, runs the kernel on the
    2-core only (each core node weighted by 1 + the size of the trees
    hanging off it), and scores every tree node in closed form from its
    subtree sizes.  Memory and time are those of the kernel on the
    2-core; `threads` shares its blocks out as in `brandes_exact`.
    """
    start = perf_counter()
    one = _full_peel(g)
    bc = _peeled_scores(g, one, threads=threads)
    return BcResult(bc=bc, algorithm="2core-recurrence",
                    elapsed=perf_counter() - start, peeled=one.decomp)
