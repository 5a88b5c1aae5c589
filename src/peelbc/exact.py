"""Exact betweenness centrality: the accumulation kernel, Brandes'
algorithm on it, and brute-force oracles.

`accumulate` is the one dependency-accumulation kernel; every exact and
sampled path in the package runs it.  The oracle pair (oracle_sigma /
oracle_bc) recomputes everything from per-source BFS distance and
path-count matrices and serves as ground truth for the rest of the
package; it is deliberately independent of the kernel it checks.  The
oracles are the only code here that uses numpy, and they import it when
called, so scoring through the kernel never loads it.  multiprocessing
likewise loads only when run_chunked forks, and array only when the
kernel is given pendant anchors.
"""

from __future__ import annotations

import math
import operator
import warnings
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import repeat
from time import perf_counter
from typing import TYPE_CHECKING

from .graph import Graph, PeelDecomposition

if TYPE_CHECKING:
    import numpy as np

UNREACHABLE = -1

# Above this node count the quadratic/cubic oracles get slow: oracle_bc
# warns, and the CLI refuses oracle without --force.
ORACLE_SIZE_WARNING = 500

# Path counts are summed as floats, which hold every integer below 2**53
# exactly; from the BFS level where a count reaches it, they are ints.
FLOAT_EXACT = 2.0 ** 53


@dataclass
class SsspTree:
    """One BFS shortest-path DAG, level by level, over the graph the
    search ran on (ids and adj are that graph's).

    dist uses -1 for unreachable nodes.  levels[d] lists the nodes at
    distance d in visit order, so levels[0] is [source], and the last
    level is the farthest one reached.  sigma counts
    shortest paths from the source: floats below 2**53, where float sums
    of integers are exact, and Python ints from the first level where a
    count reaches 2**53 on (earlier levels keep their exact floats);
    unreached nodes count 0.  first_pred[w] is the neighbor w was
    discovered from (-1 for the source and unreached nodes); it is w's
    only DAG parent exactly when sigma[w] == sigma[first_pred[w]], since
    a second parent adds at least 1.  order (the reached nodes
    farthest-first, so iterating it pops nodes in nonincreasing
    distance) is derived on first access, since the accumulation kernel
    walks levels instead.
    """

    source: int
    dist: list[int]
    sigma: list[float | int]
    levels: list[list[int]]
    first_pred: list[int] = field(repr=False)
    adj: list[list[int]] = field(repr=False)

    @cached_property
    def order(self) -> list[int]:
        return [v for level in reversed(self.levels) for v in reversed(level)]


@dataclass
class BcResult:
    """Per-node betweenness scores plus run metadata.

    k is None for exact runs; elapsed is wall time of the compute call.
    peeled is the full peel of the input graph when the algorithm ran
    one, so the run record of a JSON score file reuses it; it is never
    serialized.
    """

    bc: list[float]
    algorithm: str
    k: int | None = None
    seed: int | None = None
    elapsed: float = 0.0
    peeled: PeelDecomposition | None = field(default=None, repr=False, compare=False)


def sssp_bfs(g: Graph, s: int) -> SsspTree:
    """Breadth-first shortest paths from s: distances, counts, levels.

    The search stops once it has reached every node of g: it records
    that last level but does not scan its adjacency, which can discover
    nothing.
    """
    n = g.n
    if not 0 <= s < n:
        raise ValueError(f"source {s} out of range for n={n}")
    adj = g.adj
    dist = [UNREACHABLE] * n
    sigma = [0.0] * n
    first_pred = [UNREACHABLE] * n
    dist[s] = 0
    sigma[s] = 1.0
    frontier = [s]
    levels = [frontier]
    reached = 1
    nd = 0
    exact_below = FLOAT_EXACT
    rounded = False
    while reached < n:
        nd += 1
        nxt = []
        for v in frontier:
            sv = sigma[v]
            for w in adj[v]:
                dw = dist[w]
                if dw < 0:
                    dist[w] = nd
                    sigma[w] = sv
                    first_pred[w] = v
                    nxt.append(w)
                elif dw == nd:
                    sw = sigma[w] + sv
                    sigma[w] = sw
                    if sw >= exact_below:
                        rounded = True
        if rounded:
            # A sum reached 2**53 and may have rounded: recount this level
            # in ints from the exact floats before it.  Farther levels then
            # add ints, which are exact, so no later sum needs checking.
            for w in nxt:
                sigma[w] = 0
            for v in frontier:
                sv = int(sigma[v])
                for w in adj[v]:
                    if dist[w] == nd:
                        sigma[w] += sv
            rounded = False
            exact_below = math.inf
        if not nxt:
            break
        levels.append(nxt)
        reached += len(nxt)
        frontier = nxt
    return SsspTree(source=s, dist=dist, sigma=sigma, levels=levels,
                    first_pred=first_pred, adj=adj)


def pendant_anchors(g: Graph) -> list[int] | None:
    """The kernel's anchor list for g, or None when it has no entry.

    anchor[s] is the one neighbour of s when s has degree 1 and that
    neighbour has more; -1 otherwise (so both nodes of a two-node
    component keep their own BFS).
    """
    adj = g.adj
    anchor = [nbrs[0] if len(nbrs) == 1 and len(adj[nbrs[0]]) > 1 else -1
              for nbrs in adj]
    return anchor if max(anchor, default=-1) >= 0 else None


def accumulate(g: Graph, sources, target=None, weight=None,
               anchor=None) -> list[float]:
    """Weighted dependency totals: the sum over s in sources of
    weight[s] * psi_s, with psi_s[s] left out.

    psi_s is Brandes' dependency with a per-target term: over the
    shortest-path DAG from s, psi_s[v] sums sigma[v] / sigma[w] *
    (target[w] + psi_s[w]) over the nodes w one hop farther than v.
    target None means 1.0 everywhere, which makes psi_s the plain
    dependency delta_s; weight None means 1 per source.  Because the
    recurrence is linear in its target term, target 1 + deg1 gives the
    one-round sum delta + zeta in one pass.

    The backward pass walks sssp_bfs's levels farthest-first, each in
    reverse visit order.  A node with one DAG parent (its path count
    equals its first_pred's) passes psi straight to it; any other finds
    its parents by distance, so no predecessor lists are built.  Each
    psi[v] receives the same terms in the same order either way.  On the
    farthest level psi is 0.0, so that level adds nothing to the totals
    and passes target / sigma up.  Elsewhere, with target and weight both
    None, it adds 1.0 + psi and psi directly.  Both give the same floats
    as the general form, since x + 0.0 == x and x * 1 == x.

    anchor (see pendant_anchors) lets a pendant source reuse its
    neighbour's row.  When anchor[s] = p >= 0, s's only neighbour is p
    and p has others, so a BFS from s is p's BFS one level deeper: the
    same path counts, and p's levels from 1 on without s, in the same
    order.  s's turn therefore runs the body from p with s's weight,
    which adds ws * psi_p[w] to every other node w, the term a BFS from
    s adds (psi_p[s] is 0.0, and x + 0.0 == x), and then adds ws * x to
    p, where x sums target[c] + psi_p[c] over p's level 1 without s in
    reverse visit order, as a BFS from s sums it into psi_s[p].  When p's
    row serves a later source of the same call too (p itself or another
    of its pendants), it is kept, with entry p zeroed, as an array('d')
    beside p's reversed level 1, and that source adds ws * row to the
    totals elementwise instead of running a BFS; the row goes once its
    last such source has run.  So every total gets the same terms in the
    same order as without anchors, bit for bit, and the call holds one
    row per anchor with a pending use on top of the per-source lists.
    """
    n = g.n
    adj = g.adj
    unit = target is None and weight is None
    if target is None:
        target = [1.0] * n
    acc = [0.0] * n
    if anchor is None:
        runs = sources
    else:
        from array import array  # loaded only when rows can be kept
        sources = list(sources)
        runs = [s if anchor[s] < 0 else anchor[s] for s in sources]
        pending = Counter(runs)
    rows = {}  # anchor: (its row, entry p zeroed; its level 1 reversed)
    for s, p in zip(sources, runs):
        ws = 1.0 if weight is None else weight[s]
        cached = rows.get(p)
        if cached is None:
            tree = sssp_bfs(g, p)
            dist = tree.dist
            sigma = tree.sigma
            levels = tree.levels
            first_pred = tree.first_pred
            top = len(levels) - 1
            if not top:  # the source reaches nothing
                continue
            psi = [0.0] * n
            up = top - 1
            for w in reversed(levels[top]):
                sw = sigma[w]
                coeff = target[w] / sw
                v = first_pred[w]
                sv = sigma[v]
                if sv == sw:  # one DAG parent
                    psi[v] += sv * coeff
                else:
                    for v in adj[w]:
                        if dist[v] == up:
                            psi[v] += sigma[v] * coeff
            # levels[0] holds the source, which depends on nothing
            for up in range(top - 2, -1, -1):
                if unit:
                    for w in reversed(levels[up + 1]):
                        pw = psi[w]
                        sw = sigma[w]
                        coeff = (1.0 + pw) / sw
                        v = first_pred[w]
                        sv = sigma[v]
                        if sv == sw:  # one DAG parent
                            psi[v] += sv * coeff
                        else:
                            for v in adj[w]:
                                if dist[v] == up:
                                    psi[v] += sigma[v] * coeff
                        acc[w] += pw
                else:
                    for w in reversed(levels[up + 1]):
                        pw = psi[w]
                        sw = sigma[w]
                        coeff = (target[w] + pw) / sw
                        v = first_pred[w]
                        sv = sigma[v]
                        if sv == sw:  # one DAG parent
                            psi[v] += sv * coeff
                        else:
                            for v in adj[w]:
                                if dist[v] == up:
                                    psi[v] += sigma[v] * coeff
                        acc[w] += ws * pw
            if anchor is None:
                continue
            near = levels[1][::-1]
            if pending[p] > 1:
                row = array("d", psi)
                row[p] = 0.0
                rows[p] = row, near
        else:
            psi, near = cached
            acc = list(map(operator.add, acc, map(operator.mul, repeat(ws), psi)))
        if s != p:  # what a BFS from s adds into psi_s[p]
            x = 0.0
            for c in near:
                if c != s:
                    x += target[c] + psi[c]
            acc[p] += ws * x
        pending[p] -= 1
        if not pending[p]:
            rows.pop(p, None)
    return acc


def source_dependency(g: Graph, s: int) -> list[float]:
    """Accumulated dependency of source s on every node (bottom-up pass)."""
    return accumulate(g, [s])


def _normalizer(n: int) -> float:
    return float((n - 1) * (n - 2))


def source_chunks(n_sources: int, threads: int) -> list[tuple[int, int]]:
    """Contiguous source ranges, one per worker; stable for a given split."""
    threads = max(1, min(threads, n_sources)) if n_sources else 1
    bounds = [round(i * n_sources / threads) for i in range(threads + 1)]
    return [(bounds[i], bounds[i + 1]) for i in range(threads) if bounds[i] < bounds[i + 1]]


def _chunk_child(conn, worker, common_args: tuple, chunk: tuple) -> None:
    """Body of a forked chunk process: send back (True, result) or
    (False, exception)."""
    try:
        reply = (True, worker(*common_args, *chunk))
    except Exception as exc:
        reply = (False, exc)
    conn.send(reply)
    conn.close()


def run_chunked(worker, common_args: tuple, chunks: list[tuple]) -> list:
    """Run `worker(*common_args, *chunk)` for each chunk, in order.

    With more than one chunk, chunk 0 runs in the calling process and
    every other chunk in a forked process of its own, which sends its
    result back over a one-way pipe; multiprocessing is imported only
    then.  Partial results come back in chunk order so the caller's
    reduction order is fixed regardless of scheduling.  An exception
    raised in a chunk is re-raised here; a chunk process that dies
    without a result raises RuntimeError.  No chunk process outlives the
    call.
    """
    if len(chunks) <= 1:
        return [worker(*common_args, *chunk) for chunk in chunks]
    import multiprocessing
    ctx = multiprocessing.get_context("fork")
    children = []
    finished = False
    try:
        for chunk in chunks[1:]:
            recv, send = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_chunk_child,
                               args=(send, worker, common_args, chunk))
            proc.start()
            send.close()  # else a dead child's pipe never reports EOF
            children.append((proc, recv))
        results = [worker(*common_args, *chunks[0])]
        for proc, recv in children:
            try:
                ok, value = recv.recv()
            except EOFError:
                proc.join()
                raise RuntimeError(
                    f"chunk process exited with code {proc.exitcode} "
                    "before sending its result"
                ) from None
            if not ok:
                raise value
            results.append(value)
        finished = True
        return results
    finally:
        for proc, recv in children:
            if not finished and proc.is_alive():
                proc.terminate()
            proc.join()
            recv.close()


# Below this many root-edge units (each BFS root times the edges of the
# component it runs on; see component_chunks) a forked worker costs
# more than it saves, so the work runs as one chunk in the caller.
# Serial against forced two-chunk runs, in-process, best of 9 on a
# 2-vCPU Xeon VM: soc-dolphins brandes (9.9k units) 2.4 vs 4.9 ms and
# peel1 (8.0k) 2.9 vs 4.7 ms; cp-3000 peel1 (31k) 3.2 vs 5.6 ms, where
# a two-chunk round trip costs more than half the kernel; ca-CSphd peel1
# (63k) 32.5 vs 21.1 ms; rt_obama peel1 (298k) 86 vs 51 ms.  A unit's
# cost varies with the graph (a BFS through a dense core stops early),
# so the break-even lies between 31k and 63k units on these inputs.
FORK_MIN_WORK = 40_000


def _accumulate_chunk(g: Graph, sources, weight, anchor,
                      lo: int, hi: int) -> list[float]:
    return accumulate(g, sources[lo:hi], weight, weight, anchor)


def _group_ranges(groups: list[tuple[list[int], int]], lo: int, hi: int):
    """(i, a, b) for each group i whose roots[a:b] start their work
    units in lo..hi-1.

    groups holds (roots, edges) per component: its BFS roots ascending,
    each worth `edges` units, laid end to end in group order, so that
    chunks of equal units carry about equal work.
    """
    first = 0
    for i, (roots, edges) in enumerate(groups):
        a = max(-((first - lo) // edges), 0)
        b = min(-((first - hi) // edges), len(roots))
        first += len(roots) * edges
        if a < b:
            yield i, a, b


def component_chunks(g: Graph, threads: int = 1, anchor=None) -> list:
    """How accumulate_chunked(g, None, ...) splits its sources: one list
    per chunk of (nodes, sources) for each component of at least two
    nodes that the chunk runs, with the component's nodes ascending and
    the chunk's sources as ascending positions in that list.

    Components go in order of their lowest node.  One chunk runs every
    node of each.  Several chunks split the BFS roots instead: the
    sources whose anchor is < 0, so every source when anchor is None.
    A root weighs the edge count of its component and a pendant nothing.
    Each chunk takes a contiguous run of roots of about equal work, plus
    every pendant anchored to one of them, so an anchor's row is never
    built in two chunks.  A chunk in which no root starts is dropped, so
    no more chunks run than there are roots.  At threads 1 the roots
    are not counted, and below FORK_MIN_WORK units they are not split.
    """
    comp = g.component_ids()[0]
    members = [[] for _ in range(max(comp, default=-1) + 1)]
    for v, c in enumerate(comp):
        members[c].append(v)
    members = [nodes for nodes in members if len(nodes) > 1]
    if threads > 1:
        adj = g.adj
        root = range(g.n) if anchor is None else [v if p < 0 else p
                                                  for v, p in enumerate(anchor)]
        groups = [([v for v in nodes if root[v] == v],
                   sum(map(len, map(adj.__getitem__, nodes))) // 2)
                  for nodes in members]
        work = sum(len(roots) * edges for roots, edges in groups)
        if work >= FORK_MIN_WORK:
            chunks = []
            for lo, hi in source_chunks(work, threads):
                part = []
                for i, a, b in _group_ranges(groups, lo, hi):
                    roots, nodes = groups[i][0], members[i]
                    first, last = roots[a], roots[b - 1]
                    part.append((nodes, [j for j, v in enumerate(nodes)
                                         if first <= root[v] <= last]))
                if part:
                    chunks.append(part)
            return chunks
    return [[(nodes, range(len(nodes))) for nodes in members]]


def _components_chunk(g: Graph, weight, anchor, part) -> list[float]:
    """The kernel over one chunk of component_chunks.

    Each component runs on a compact subgraph of its own, built when
    reached; renumbering a whole component in ascending order keeps
    every adjacency list sorted and every BFS visit order.  A connected
    g is its own compact subgraph.  An anchor is a neighbour, so it
    lies in its pendant's component and is renumbered with it.
    """
    adj = g.adj
    pos = [0] * g.n
    acc = [0.0] * g.n
    for nodes, sources in part:
        if len(nodes) == g.n:
            return accumulate(g, sources, weight, weight, anchor)
        for i, v in enumerate(nodes):
            pos[v] = i
        sub = Graph([[pos[w] for w in adj[v]] for v in nodes], nodes)
        sub_weight = None if weight is None else [weight[v] for v in nodes]
        totals = accumulate(sub, sources, sub_weight, sub_weight,
                            None if anchor is None else
                            [-1 if anchor[v] < 0 else pos[anchor[v]] for v in nodes])
        for v, x in zip(nodes, totals):
            acc[v] = x
    return acc


def accumulate_chunked(g: Graph, sources=None, weight=None,
                       threads: int = 1, anchor=None) -> list[float]:
    """accumulate() over run_chunked source chunks, summed in chunk order.

    The one `weight` list is both accumulate's target term and its
    source weight (1 + T on the peeled paths); None means 1.0 for both.

    `sources` None means every node of g, split by component_chunks.
    The kernel then runs once per connected component of at least two
    nodes, on a compact subgraph of its own, so a source's per-node
    lists span only its component.  In one chunk, the components go in
    order of their lowest node and each one's sources ascending, so
    every node receives the terms that accumulate(g, range(g.n)) adds
    to it, in the same order.  Several chunks split the BFS roots by
    work, and each pendant runs in its anchor's chunk, so every anchor's
    BFS runs once per call whatever `threads` says.  Other source lists
    run on g as they are, split by count, and each chunk reuses only
    rows built within it.

    `anchor` goes to every chunk's accumulate (remapped into each
    compact component); a chunk's totals with anchors are the bits of
    the same chunk's sources without them.

    One chunk's partial is the result as it is; several are added
    elementwise in chunk order.  The partials are non-negative, so this
    gives the bits of adding them all into zeros.

    Small inputs (fewer than FORK_MIN_WORK units: root-edge units for
    `sources` None, sources times g's edges for a list) run as one chunk
    whatever `threads` says, so they give the same bytes as a
    single-threaded run.  `threads` below 1 raises ValueError.
    """
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    if sources is None:
        worker, args = _components_chunk, (g, weight, anchor)
        chunks = [(part,) for part in component_chunks(g, threads, anchor)]
    else:
        if len(sources) * g.m < FORK_MIN_WORK:
            threads = 1
        worker, args = _accumulate_chunk, (g, sources, weight, anchor)
        chunks = source_chunks(len(sources), threads)
    partials = run_chunked(worker, args, chunks)
    if not partials:
        return [0.0] * g.n
    acc = partials[0]
    for partial in partials[1:]:
        acc = list(map(operator.add, acc, partial))
    return acc


def brandes_exact(g: Graph, threads: int = 1) -> BcResult:
    """Exact betweenness via per-source BFS and dependency accumulation.

    Scores are normalized by (n-1)(n-2) over ordered pairs; graphs with
    n <= 2 score 0 everywhere.  Per-source contributions are reduced in
    ascending source order, so repeated runs are bit-identical.  It runs
    one BFS per source and passes no anchors: it is the baseline that
    the peeled algorithms' speed-up is measured against.
    """
    start = perf_counter()
    n = g.n
    bc = [0.0] * n
    if n > 2:
        norm = _normalizer(n)
        bc = [x / norm for x in accumulate_chunked(g, threads=threads)]
    return BcResult(bc=bc, algorithm="brandes", elapsed=perf_counter() - start)


def oracle_sigma(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """All-pairs hop distances and shortest-path counts via repeated BFS.

    Returns (dist, sigma) as int64 matrices; dist is -1 for unreachable
    pairs and sigma is 0 there.  Intended for desk-scale graphs; path
    counts beyond the int64 range raise OverflowError.  The BFS counts
    in Python ints and is its own rather than sssp_bfs, so the oracle
    stays independent of the kernel it checks.
    """
    import numpy as np
    n = g.n
    adj = g.adj
    dist = np.full((n, n), UNREACHABLE, dtype=np.int64)
    sigma = np.zeros((n, n), dtype=np.int64)
    for s in range(n):
        row_dist = [UNREACHABLE] * n
        row_sigma = [0] * n
        row_dist[s] = 0
        row_sigma[s] = 1
        queue = [s]
        for v in queue:  # appended to while walked
            nd = row_dist[v] + 1
            for w in adj[v]:
                if row_dist[w] < 0:
                    row_dist[w] = nd
                    queue.append(w)
                if row_dist[w] == nd:
                    row_sigma[w] += row_sigma[v]
        dist[s] = row_dist
        try:
            sigma[s] = row_sigma
        except OverflowError:
            raise OverflowError(
                f"shortest-path counts from node {s} exceed the int64 range "
                "of the all-pairs matrices"
            ) from None
    return dist, sigma


def pair_counts_through(
    dist: np.ndarray, sigma: np.ndarray, u: int
) -> np.ndarray:
    """Matrix of shortest-path counts from s to t passing through u.

    Uses the counting identity count(s,t via u) = count(s,u)*count(u,t)
    when dist(s,u) + dist(u,t) == dist(s,t), else 0.  Rows/columns where
    s == u or t == u are left as produced by the identity (count(u,t)
    itself); callers exclude endpoints as needed.
    """
    import numpy as np
    du = dist[:, u]
    reachable = (du[:, None] >= 0) & (dist[u, :][None, :] >= 0) & (dist >= 0)
    on_path = reachable & (du[:, None] + dist[u, :][None, :] == dist)
    counts = sigma[:, u][:, None] * sigma[u, :][None, :]
    return np.where(on_path, counts, 0)


def _dependency_totals(dist: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Unnormalized betweenness: sum over ordered pairs of pair dependencies."""
    import numpy as np
    n = dist.shape[0]
    totals = np.zeros(n)
    if n <= 2:
        return totals
    sigma_f = sigma.astype(np.float64)
    safe = np.where(sigma > 0, sigma_f, 1.0)
    for u in range(n):
        through = pair_counts_through(dist, sigma, u).astype(np.float64)
        dep = through / safe
        dep[u, :] = 0.0
        dep[:, u] = 0.0
        np.fill_diagonal(dep, 0.0)
        totals[u] = dep.sum()
    return totals


def oracle_bc(g: Graph) -> BcResult:
    """Brute-force betweenness from all-pairs distance/count matrices.

    Ground truth for the whole package: O(n) BFS passes plus O(n^3)
    pair loops, so keep inputs at desk scale (a warning fires above
    ORACLE_SIZE_WARNING nodes).  Unreachable pairs contribute 0.
    """
    start = perf_counter()
    if g.n > ORACLE_SIZE_WARNING:
        warnings.warn(
            f"oracle_bc on n={g.n} nodes will be slow; intended for n <= "
            f"{ORACLE_SIZE_WARNING}",
            stacklevel=2,
        )
    dist, sigma = oracle_sigma(g)
    totals = _dependency_totals(dist, sigma)
    if g.n > 2:
        norm = _normalizer(g.n)
        bc = [float(x) / norm for x in totals]
    else:
        bc = [0.0] * g.n
    return BcResult(bc=bc, algorithm="oracle", elapsed=perf_counter() - start)
