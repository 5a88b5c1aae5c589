"""Exact betweenness centrality: Brandes' algorithm and brute-force oracles.

The oracle pair (oracle_sigma / oracle_bc) recomputes everything from
per-source BFS distance and path-count matrices and serves as ground
truth for the rest of the package; it is deliberately independent of the
dependency-accumulation code path it checks.
"""

from __future__ import annotations

import multiprocessing
import warnings
from collections import deque
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from .graph import Graph

UNREACHABLE = -1

# Above this node count the quadratic/cubic oracles get slow: oracle_bc
# warns, and the CLI refuses oracle and 2core-recurrence without --force.
ORACLE_SIZE_WARNING = 500


@dataclass
class SsspTree:
    """One BFS shortest-path DAG.

    dist uses -1 for unreachable nodes; sigma counts shortest paths from
    the source; preds[w] lists the neighbors of w one hop closer to the
    source; order holds the reached nodes farthest-first, so iterating it
    pops nodes in nonincreasing distance.
    """

    source: int
    dist: list[int]
    sigma: list[int]
    preds: list[list[int]]
    order: list[int]


@dataclass
class BcResult:
    """Per-node betweenness scores plus run metadata.

    k is None for exact runs; elapsed is wall time of the compute call.
    """

    bc: list[float]
    algorithm: str
    k: int | None = None
    seed: int | None = None
    elapsed: float = 0.0


def sssp_bfs(g: Graph, s: int) -> SsspTree:
    """Breadth-first shortest paths from s: distances, counts, predecessors."""
    if not 0 <= s < g.n:
        raise ValueError(f"source {s} out of range for n={g.n}")
    n = g.n
    adj = g.adj
    dist = [UNREACHABLE] * n
    sigma = [0] * n
    preds: list[list[int]] = [[] for _ in range(n)]
    dist[s] = 0
    sigma[s] = 1
    order = []
    queue = deque([s])
    while queue:
        v = queue.popleft()
        order.append(v)
        nd = dist[v] + 1
        sv = sigma[v]
        for w in adj[v]:
            if dist[w] < 0:
                dist[w] = nd
                queue.append(w)
            if dist[w] == nd:
                sigma[w] += sv
                preds[w].append(v)
    order.reverse()
    return SsspTree(source=s, dist=dist, sigma=sigma, preds=preds, order=order)


def source_dependency(g: Graph, s: int, tree: SsspTree | None = None) -> list[float]:
    """Accumulated dependency of source s on every node (bottom-up pass)."""
    if tree is None:
        tree = sssp_bfs(g, s)
    delta = [0.0] * g.n
    sigma = tree.sigma
    for w in tree.order:
        coeff = (1.0 + delta[w]) / sigma[w]
        for v in tree.preds[w]:
            if v != s:
                delta[v] += sigma[v] * coeff
    return delta


def _normalizer(n: int) -> float:
    return float((n - 1) * (n - 2))


def _brandes_chunk(g: Graph, lo: int, hi: int) -> list[float]:
    """Unnormalized per-node scores contributed by sources lo..hi-1."""
    bc = [0.0] * g.n
    for s in range(lo, hi):
        tree = sssp_bfs(g, s)
        sigma = tree.sigma
        preds = tree.preds
        delta = [0.0] * g.n
        for w in tree.order:
            coeff = (1.0 + delta[w]) / sigma[w]
            for v in preds[w]:
                if v != s:
                    delta[v] += sigma[v] * coeff
            if w != s:
                bc[w] += delta[w]
    return bc


def source_chunks(n_sources: int, threads: int) -> list[tuple[int, int]]:
    """Contiguous source ranges, one per worker; stable for a given split."""
    threads = max(1, min(threads, n_sources)) if n_sources else 1
    bounds = [round(i * n_sources / threads) for i in range(threads + 1)]
    return [(bounds[i], bounds[i + 1]) for i in range(threads) if bounds[i] < bounds[i + 1]]


def _chunk_child(conn, worker, common_args: tuple, lo: int, hi: int) -> None:
    """Body of a forked chunk process: send back (True, result) or
    (False, exception)."""
    try:
        reply = (True, worker(*common_args, lo, hi))
    except Exception as exc:
        reply = (False, exc)
    conn.send(reply)
    conn.close()


def run_chunked(worker, common_args: tuple, n_items: int, threads: int) -> list:
    """Run `worker(*common_args, lo, hi)` over item chunks, in order.

    With more than one chunk, chunk 0 runs in the calling process and
    every other chunk in a forked process of its own, which sends its
    result back over a one-way pipe.  Partial results come back in
    ascending chunk order so the caller's reduction order is fixed
    regardless of scheduling.  An exception raised in a chunk is
    re-raised here; a chunk process that dies without a result raises
    RuntimeError.  No chunk process outlives the call.
    """
    chunks = source_chunks(n_items, threads)
    if len(chunks) <= 1:
        return [worker(*common_args, lo, hi) for lo, hi in chunks]
    ctx = multiprocessing.get_context("fork")
    children = []
    finished = False
    try:
        for lo, hi in chunks[1:]:
            recv, send = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_chunk_child,
                               args=(send, worker, common_args, lo, hi))
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


def brandes_exact(g: Graph, threads: int = 1) -> BcResult:
    """Exact betweenness via per-source BFS and dependency accumulation.

    Scores are normalized by (n-1)(n-2) over ordered pairs; graphs with
    n <= 2 score 0 everywhere.  Per-source contributions are reduced in
    ascending source order, so repeated runs are bit-identical.
    """
    start = perf_counter()
    n = g.n
    bc = [0.0] * n
    if n > 2:
        for partial in run_chunked(_brandes_chunk, (g,), n, threads):
            for v in range(n):
                bc[v] += partial[v]
        norm = _normalizer(n)
        bc = [x / norm for x in bc]
    return BcResult(bc=bc, algorithm="brandes", elapsed=perf_counter() - start)


def oracle_sigma(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """All-pairs hop distances and shortest-path counts via repeated BFS.

    Returns (dist, sigma) as int64 matrices; dist is -1 for unreachable
    pairs and sigma is 0 there.  Intended for desk-scale graphs; path
    counts beyond the int64 range raise OverflowError.
    """
    n = g.n
    dist = np.full((n, n), UNREACHABLE, dtype=np.int64)
    sigma = np.zeros((n, n), dtype=np.int64)
    for s in range(n):
        tree = sssp_bfs(g, s)
        dist[s] = tree.dist
        try:
            sigma[s] = tree.sigma
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
    du = dist[:, u]
    reachable = (du[:, None] >= 0) & (dist[u, :][None, :] >= 0) & (dist >= 0)
    on_path = reachable & (du[:, None] + dist[u, :][None, :] == dist)
    counts = sigma[:, u][:, None] * sigma[u, :][None, :]
    return np.where(on_path, counts, 0)


def _dependency_totals(dist: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Unnormalized betweenness: sum over ordered pairs of pair dependencies."""
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
