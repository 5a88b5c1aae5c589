"""Shared corpus builders for the test suite."""

from __future__ import annotations

import multiprocessing
import random

import pytest

from peelbc import Graph, random_graph_with_pendants


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


def corpus(count: int) -> list[Graph]:
    return [corpus_graph(seed) for seed in range(count)]


@pytest.fixture(scope="session")
def small_corpus() -> list[Graph]:
    """A 30-graph slice for unit tests; acceptance runs the full 200."""
    return corpus(30)


@pytest.fixture
def fork_calls(monkeypatch) -> list:
    """Records every multiprocessing.get_context call: run_chunked makes
    one each time it forks chunk processes."""
    calls = []
    real = multiprocessing.get_context

    def spy(method=None):
        calls.append(method)
        return real(method)

    monkeypatch.setattr(multiprocessing, "get_context", spy)
    return calls
