"""Exact betweenness centrality: the accumulation kernel, Brandes'
algorithm on it, and brute-force oracles.

`accumulate` is the one dependency-accumulation kernel; every exact and
sampled path in the package runs it.  The oracle pair (oracle_sigma /
oracle_bc) recomputes everything from per-source BFS distance and
path-count matrices and serves as ground truth for the rest of the
package; it is deliberately independent of the kernel it checks.  The
oracles are the only code here that uses numpy, and they import it when
called, so scoring through the kernel never loads it.  pickle and
signal likewise load only when run_chunked forks; multiprocessing never
does.
"""

from __future__ import annotations

import math
import operator
import os
import warnings
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

    anchor (see pendant_anchors) lets a pendant source ride its
    neighbour's BFS.  When anchor[s] = p >= 0, s's only neighbour is p
    and p has others, so a BFS from s is p's BFS one level deeper: the
    same path counts, and p's levels from 1 on without s, in the same
    order.  The sources therefore run in groups, one per BFS root p: p
    if it is a source, and every source anchored to p, in source order,
    the group taking the place of its first member.  One BFS from p
    serves the group: its backward pass adds ws * psi_p[w] to every
    other node w for each member s in turn, the term a BFS from s adds
    (psi_p[s] is 0.0, and x + 0.0 == x), and then each pendant member
    adds ws * x to p, where x sums target[c] + psi_p[c] over p's level
    1 without s in reverse visit order, as a BFS from s sums it into
    psi_s[p].  So the totals are the bits of the kernel without anchors
    run over the sources in group order, and the call holds no more
    than one source's lists at a time.  Two shortcuts keep those bits.
    A node with psi_p[w] == 0.0 (a leaf of the BFS tree, such as a
    pendant below the farthest level) adds nothing, where each member
    would add ws * 0.0: that is +0.0 for finite ws, and the totals are
    sums of non-negative terms, never -0.0, so x + 0.0 == x.  Weights
    must therefore be finite (the package passes only 1 and 1 + T).
    A group of exactly two members adds acc[w] + w0 * pw + w1 * pw,
    which Python evaluates left to right, with the two roundings of the
    member loop in its order; larger groups keep the loop.
    """
    n = g.n
    adj = g.adj
    unit = target is None and weight is None
    if target is None:
        target = [1.0] * n
    acc = [0.0] * n
    if anchor is None:
        groups = zip(sources, repeat(None))
    else:
        groups = {}
        for s in sources:
            p = anchor[s]
            groups.setdefault(s if p < 0 else p, []).append(s)
        groups = groups.items()
    for p, members in groups:
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
        if members is None:  # no anchors: p is the one source
            ws = 1.0 if weight is None else weight[p]
            riders = False
        else:
            weights = [1.0 if weight is None else weight[s] for s in members]
            ws = weights[0]
            riders = len(weights) > 1
            pair = len(weights) == 2
            if pair:
                w0, w1 = weights
        # levels[0] holds the source, which depends on nothing
        for up in range(top - 2, -1, -1):
            if riders:
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
                    if not pw:  # every member would add +0.0
                        continue
                    if pair:
                        acc[w] = acc[w] + w0 * pw + w1 * pw
                    else:
                        for wt in weights:
                            acc[w] += wt * pw
            elif unit:
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
        if members is None:
            continue
        for s, ws in zip(members, weights):
            if s != p:  # what a BFS from s adds into psi_s[p]
                x = 0.0
                for c in reversed(levels[1]):
                    if c != s:
                        x += target[c] + psi[c]
                acc[p] += ws * x
    return acc


def source_dependency(g: Graph, s: int) -> list[float]:
    """Accumulated dependency of source s on every node (bottom-up pass)."""
    return accumulate(g, [s])


def _normalizer(n: int) -> float:
    return float((n - 1) * (n - 2))


def source_chunks(n_sources: int, threads: int) -> list[tuple[int, int]]:
    """Up to `threads` contiguous ranges that cover range(n_sources) in
    parts of about equal length, none empty; stable for a given split.
    They cut sources per worker, work units into blocks, and blocks
    into chunks."""
    threads = max(1, min(threads, n_sources)) if n_sources else 1
    bounds = [round(i * n_sources / threads) for i in range(threads + 1)]
    return [(bounds[i], bounds[i + 1]) for i in range(threads) if bounds[i] < bounds[i + 1]]


def _chunk_child(send: int, worker, common_args: tuple, chunk: tuple):
    """Body of a forked chunk process: write (True, result) or (False,
    exception), pickled, to the pipe end `send`, then exit at once, so
    the child never returns into its caller's stack.  The exit code is
    0 only once the whole reply is written."""
    code = 1
    try:
        import pickle
        try:
            reply = (True, worker(*common_args, *chunk))
        except Exception as exc:
            reply = (False, exc)
        with open(send, "wb") as pipe:
            pipe.write(pickle.dumps(reply, pickle.HIGHEST_PROTOCOL))
        code = 0
    finally:
        os._exit(code)


def run_chunked(worker, common_args: tuple, chunks: list[tuple]) -> list:
    """Run `worker(*common_args, *chunk)` for each chunk, in order.

    With more than one chunk, chunk 0 runs in the calling process and
    every other chunk in a process of its own, made by os.fork, which
    writes its pickled result to a pipe; the caller reads the results
    in chunk order, so the caller's reduction order is fixed regardless
    of scheduling, and reaps each child with os.waitpid.  An exception
    raised in a chunk is re-raised here; a chunk process that dies
    without a result raises RuntimeError.  No chunk process outlives the
    call: when the call fails, those not yet reaped are killed and
    reaped.
    """
    if len(chunks) <= 1:
        return [worker(*common_args, *chunk) for chunk in chunks]
    import pickle
    import signal
    procs = []  # (pid, read end) of each chunk process not yet reaped
    try:
        for chunk in chunks[1:]:
            recv, send = os.pipe()
            try:
                pid = os.fork()
                if not pid:
                    _chunk_child(send, worker, common_args, chunk)
            except BaseException:
                os.close(recv)
                raise
            finally:
                os.close(send)  # else a dead child's pipe never reports EOF
            procs.append((pid, recv))
        results = [worker(*common_args, *chunks[0])]
        while procs:
            pid, recv = procs[0]
            with open(recv, "rb", closefd=False) as pipe:
                reply = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del procs[0]
            os.close(recv)
            if code:
                raise RuntimeError(f"chunk process exited with code {code} "
                                   "before sending its result")
            ok, value = pickle.loads(reply)
            if not ok:
                raise value
            results.append(value)
        return results
    finally:
        for pid, recv in procs:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(recv)


# Below this many root-edge units (each BFS root times the edges of the
# component it runs on; see component_chunks) a forked worker costs
# more than it saves, so the work runs as one block in the caller.
# Serial against forced two-chunk (two-block) runs with os.fork
# workers, in-process, best of 36 alternating calls (two runs) on a
# 2-vCPU Xeon VM: soc-dolphins brandes (9.9k units) 2.9 vs 4.4 ms and
# peel1 (8.0k) 3.4 vs 4.2 ms; cp-3000 peel1 (31k) 3.7 vs 5.9 ms, where
# a two-chunk round trip costs more than half the kernel; ca-CSphd
# 2-core (22.5k) 12.4 vs 10.9 ms; ca-CSphd peel1 (63k) 23.7 vs 15.9 ms;
# rt_obama peel1 (298k) 79.9 vs 45.6 ms.  A unit's cost varies with the
# graph (a BFS through a dense core stops early, a long cycle does
# not), so the break-even lies between 22.5k and 63k units on these
# inputs, and above 31k on the trees of cp-3000.
FORK_MIN_WORK = 40_000

# component_chunks cuts the work into ceil(units / FORK_MIN_WORK)
# blocks of about equal units, but never more than this many: enough to
# share out between a few workers, few enough that folding one partial
# per block stays cheap next to the kernel.
MAX_BLOCKS = 24


def _accumulate_chunk(g: Graph, sources, weight, anchor,
                      lo: int, hi: int) -> list[list[float]]:
    return [accumulate(g, sources[lo:hi], weight, weight, anchor)]


def _group_ranges(groups: list[tuple[list[int], int]], lo: int, hi: int):
    """(i, a, b) for each group i whose roots[a:b] start their work
    units in lo..hi-1.

    groups holds (roots, edges) per component: its BFS roots ascending,
    each worth `edges` units, laid end to end in group order, so that
    blocks of equal units carry about equal work.
    """
    first = 0
    for i, (roots, edges) in enumerate(groups):
        a = max(-((first - lo) // edges), 0)
        b = min(-((first - hi) // edges), len(roots))
        first += len(roots) * edges
        if a < b:
            yield i, a, b


def component_chunks(g: Graph, threads: int = 1, anchor=None) -> list:
    """How accumulate_chunked(g, None, ...) splits its sources: a list
    of chunks, each a list of blocks, each block a list of (nodes,
    sources) for each component of at least two nodes that the block
    runs, with the component's nodes ascending and the block's sources
    as ascending positions in that list.

    The blocks cut the BFS roots: the sources whose anchor is < 0, so
    every source when anchor is None.  A root weighs the edge count of
    its component and a pendant nothing; components go in order of their
    lowest node, each one's roots ascending.  The work is cut into
    ceil(work / FORK_MIN_WORK) blocks of about equal units, at most
    MAX_BLOCKS, and each block takes the roots whose units start in it
    plus every pendant anchored to one of them, so an anchor's BFS runs
    in one block.  A block in which no root starts is dropped.  These
    bounds depend on g and anchor alone; `threads` only decides how many
    chunks share them out, each chunk taking a contiguous run of whole
    blocks.  Below FORK_MIN_WORK units there is one block, in which
    every component runs all of its nodes.
    """
    comp = g.component_ids()[0]
    members = [[] for _ in range(max(comp, default=-1) + 1)]
    for v, c in enumerate(comp):
        members[c].append(v)
    members = [nodes for nodes in members if len(nodes) > 1]
    adj = g.adj
    root = None if anchor is None else [v if p < 0 else p
                                        for v, p in enumerate(anchor)]
    groups = [(nodes if root is None else [v for v in nodes if root[v] == v],
               sum(map(len, map(adj.__getitem__, nodes))) // 2)
              for nodes in members]
    work = sum(len(roots) * edges for roots, edges in groups)
    blocks = []
    for lo, hi in source_chunks(work, min(-(-work // max(FORK_MIN_WORK, 1)),
                                          MAX_BLOCKS)):
        block = []
        for i, a, b in _group_ranges(groups, lo, hi):
            roots, nodes = groups[i][0], members[i]
            if len(roots) == len(nodes):  # no pendant: every node a root
                positions = range(a, b)
            elif b - a == len(roots):
                positions = range(len(nodes))
            else:
                first, last = roots[a], roots[b - 1]
                positions = [j for j, v in enumerate(nodes)
                             if first <= root[v] <= last]
            block.append((nodes, positions))
        if block:
            blocks.append(block)
    return [blocks[lo:hi] for lo, hi in source_chunks(len(blocks), threads)]


def _components_chunk(g: Graph, weight, anchor, blocks,
                      fold: bool) -> list[list[float]]:
    """The kernel over one chunk of component_chunks: one partial per
    block, or with `fold` the chunk's partials added elementwise in
    block order, as one.

    Each component runs on a compact subgraph of its own, built once
    per chunk when first reached; renumbering a whole component in
    ascending order keeps every adjacency list sorted and every BFS
    visit order.  A connected g is its own compact subgraph.  An anchor
    is a neighbour, so it lies in its pendant's component and is
    renumbered with it.
    """
    adj = g.adj
    pos = [0] * g.n
    built = None
    partials = []
    for block in blocks:
        acc = [0.0] * g.n
        for nodes, sources in block:
            if len(nodes) == g.n:
                acc = accumulate(g, sources, weight, weight, anchor)
                continue
            if nodes is not built:
                for i, v in enumerate(nodes):
                    pos[v] = i
                sub = Graph([[pos[w] for w in adj[v]] for v in nodes], nodes)
                sub_weight = None if weight is None else [weight[v] for v in nodes]
                sub_anchor = None if anchor is None else [
                    -1 if anchor[v] < 0 else pos[anchor[v]] for v in nodes]
                built = nodes
            totals = accumulate(sub, sources, sub_weight, sub_weight, sub_anchor)
            for v, x in zip(nodes, totals):
                acc[v] = x
        if fold and partials:
            partials[0] = list(map(operator.add, partials[0], acc))
        else:
            partials.append(acc)
    return partials


def accumulate_chunked(g: Graph, sources=None, weight=None,
                       threads: int = 1, anchor=None) -> list[float]:
    """accumulate() over run_chunked source chunks, one partial per
    block, the partials added elementwise in block order.

    The one `weight` list is both accumulate's target term and its
    source weight (1 + T on the peeled paths); None means 1.0 for both.

    `sources` None means every node of g, cut into blocks and chunks by
    component_chunks.  The kernel then runs once per connected component
    of at least two nodes and block, on a compact subgraph of its own,
    so a source's per-node lists span only its component.  In one block,
    the components go in order of their lowest node and each one's
    sources ascending, in accumulate's group order when `anchor` is
    given (each pendant rides its anchor's BFS), so every node receives
    the terms that accumulate(g, range(g.n), anchor=anchor) adds to it,
    in the same order.  Above FORK_MIN_WORK root-edge units there are
    several blocks, whose bounds do not depend on `threads`; chunk 0
    folds its own blocks as it goes, and the other chunks' partials are
    folded after it in block order, so the result has the same bits at
    every `threads`.  Every anchor's BFS runs once per call.

    A source list runs on g as it is, split by count into `threads`
    chunks summed in chunk order, or as one chunk below FORK_MIN_WORK
    units (sources times g's edges).  Only the exact runs above pass no
    list, and the samplers, which pass one, never pass `threads`.

    The partials are non-negative, so folding them gives the bits of
    adding them all into zeros.  `threads` below 1 raises ValueError.
    """
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    if sources is None:
        worker, args = _components_chunk, (g, weight, anchor)
        chunks = [(blocks, i == 0) for i, blocks in
                  enumerate(component_chunks(g, threads, anchor))]
    else:
        if len(sources) * g.m < FORK_MIN_WORK:
            threads = 1
        worker, args = _accumulate_chunk, (g, sources, weight, anchor)
        chunks = source_chunks(len(sources), threads)
    partials = [p for part in run_chunked(worker, args, chunks) for p in part]
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
    ascending source order within each block of accumulate_chunked and
    the blocks in block order, so repeated runs, and runs at any
    `threads`, are bit-identical.  It runs one BFS per source and passes
    no anchors: it is the baseline that the peeled algorithms' speed-up
    is measured against.
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
