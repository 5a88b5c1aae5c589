"""Shared corpus builders for the test suite."""

from __future__ import annotations

import os
import random
from collections import Counter

import pytest

from peelbc import Graph, random_graph_with_pendants


TWO_NODE_AND_ISOLATED = Graph.from_edges(
    8, [(0, 1), (2, 3), (3, 4), (4, 2), (4, 5)]  # 0-1 alone; 6 and 7 isolated
)


def corpus_graph(seed: int) -> Graph:
    """Seeded random graph: ER base n in [5,60], p in [0.05,0.3], 0-3 pendants per node."""
    rng = random.Random(1000 + seed)
    n = rng.randint(5, 60)
    p = rng.uniform(0.05, 0.3)
    return random_graph_with_pendants(n, p, max_pendants=3, seed=seed)


def er_with_exact_pendants(n_base: int, n_total: int, p: float, seed: int) -> Graph:
    """ER base plus pendants attached until exactly n_total nodes exist."""
    rng = random.Random(seed)
    edges = [
        (i, j)
        for i in range(n_base)
        for j in range(i + 1, n_base)
        if rng.random() < p
    ]
    nxt = n_base
    while nxt < n_total:
        edges.append((rng.randrange(n_base), nxt))
        nxt += 1
    return Graph.from_edges(n_total, edges)


def root_edge_units(g: Graph, anchor=None) -> int:
    """accumulate_chunked's work figure when every node of g is a
    source: each BFS root (a node whose anchor is < 0, every node when
    anchor is None) times the edges of its component."""
    comp = g.component_ids()[0]
    degrees = Counter()
    roots = Counter()
    for v, nbrs in enumerate(g.adj):
        degrees[comp[v]] += len(nbrs)
        roots[comp[v]] += anchor is None or anchor[v] < 0
    return sum(roots[c] * degrees[c] // 2 for c in degrees)


def corpus(count: int) -> list[Graph]:
    return [corpus_graph(seed) for seed in range(count)]


def preds(tree) -> list[list[int]]:
    """Every node's shortest-path predecessors in an SsspTree: its
    neighbours one hop closer to the source."""
    dist = tree.dist
    return [[v for v in nbrs if dist[v] == d - 1] for nbrs, d in zip(tree.adj, dist)]


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def diamond_chain(k: int) -> Graph:
    """k diamonds in a row: hubs 3i and 3i + 3 joined through 3i + 1 and
    3i + 2, so 2**k shortest paths run between the end hubs."""
    edges = []
    for i in range(k):
        hub = 3 * i
        edges += [(hub, hub + 1), (hub, hub + 2), (hub + 1, hub + 3), (hub + 2, hub + 3)]
    return Graph.from_edges(3 * k + 1, edges)


def pair_rooted_trees() -> list[Graph]:
    """Trees whose last peeling round is a two-node pair with subtrees
    below both nodes: node a holds 7 of the nodes and node b 3.  a gets
    the smaller id in one copy and the larger in the other, so the pair
    roots once on each side."""
    edges = [("a", "b"), ("a", "x"), ("x", 1), ("x", 2), ("x", 3),
             ("a", "y"), ("y", 4), ("b", "z"), ("z", 5)]
    graphs = []
    for order in (["a", "b"], ["b", "a"]):
        ids = {lab: i for i, lab in enumerate(order + ["x", "y", "z", 1, 2, 3, 4, 5])}
        graphs.append(Graph.from_edges(len(ids), [(ids[u], ids[v]) for u, v in edges]))
    return graphs


def trees_off_cycles(count: int) -> list[Graph]:
    """Seeded cycles with deep trees hanging off them: each added node
    hangs below one of the three nodes added before it, and node ids are
    shuffled so that parents are not always the smaller id."""
    graphs = []
    for seed in range(count):
        rng = random.Random(seed)
        c = rng.randint(3, 8)
        n = c + rng.randint(10, 40)
        edges = [(i, (i + 1) % c) for i in range(c)]
        edges += [(rng.randrange(max(0, v - 3), v), v) for v in range(c, n)]
        perm = list(range(n))
        rng.shuffle(perm)
        graphs.append(Graph.from_edges(n, [(perm[u], perm[v]) for u, v in edges]))
    return graphs


def peeling_cases() -> list[Graph]:
    """Graphs that exercise every peeling round: paths, pair-rooted
    trees and deep trees off cycles."""
    return ([path_graph(n) for n in range(1, 10)] + pair_rooted_trees()
            + trees_off_cycles(8))


@pytest.fixture(scope="session")
def small_corpus() -> list[Graph]:
    """A 30-graph slice for unit tests; acceptance runs the full 200."""
    return corpus(30)


@pytest.fixture
def fork_calls(monkeypatch) -> list[int]:
    """Records the pid of every child that os.fork makes: run_chunked
    forks one per chunk past the first."""
    pids = []
    real = os.fork

    def spy():
        pid = real()
        if pid:  # in the child, the list is a copy nobody reads
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", spy)
    return pids


def all_reaped(pids: list[int]) -> bool:
    """Whether every pid in pids is no longer a child of this process:
    waitpid on a reaped child raises ChildProcessError, while a running
    child returns (0, 0) and an unreaped zombie is reaped by the call."""
    for pid in pids:
        try:
            os.waitpid(pid, os.WNOHANG)
        except ChildProcessError:
            continue
        return False
    return True

