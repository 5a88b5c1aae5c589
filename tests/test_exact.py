import math
import multiprocessing
import os
import signal
import time
from contextlib import contextmanager

import numpy as np
import pytest

from peelbc import (
    Graph,
    brandes_exact,
    oracle_bc,
    oracle_sigma,
    source_dependency,
    sssp_bfs,
)
from peelbc.exact import ORACLE_SIZE_WARNING, _dependency_totals, run_chunked

from conftest import corpus_graph


def enumeration_bc(g: Graph) -> list[float]:
    """Second, fully independent oracle: explicit shortest-path enumeration.

    Exponential; only for tiny graphs.  Walks every shortest path from
    each ordered pair and tallies interior visits per Definition-style
    pair dependencies.
    """
    n = g.n
    dist = [sssp_bfs(g, s).dist for s in range(n)]

    def paths_to(s, t):
        if dist[s][t] < 0:
            return []
        if t == s:
            return [[s]]
        out = []
        for u in g.adj[t]:
            if dist[s][u] == dist[s][t] - 1:
                out.extend(p + [t] for p in paths_to(s, u))
        return out

    totals = [0.0] * n
    for s in range(n):
        for t in range(n):
            if s == t:
                continue
            paths = paths_to(s, t)
            if not paths:
                continue
            for v in range(n):
                if v in (s, t):
                    continue
                through = sum(1 for p in paths if v in p[1:-1])
                totals[v] += through / len(paths)
    if n <= 2:
        return [0.0] * n
    norm = (n - 1) * (n - 2)
    return [x / norm for x in totals]


def star(q: int) -> Graph:
    return Graph.from_edges(q + 1, [(0, i) for i in range(1, q + 1)])


PATH4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
CYCLE4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
PENDANT_PATH = Graph.from_labeled_edges(
    [("a", "b"), ("b", "c"), ("c", "e"), ("e", "f")]
)


class TestSsspBfs:
    def test_cycle_two_equal_paths(self):
        tree = sssp_bfs(CYCLE4, 0)
        assert tree.sigma[2] == 2
        assert sorted(tree.preds[2]) == [1, 3]
        assert tree.dist == [0, 1, 2, 1]

    def test_star_center_source(self):
        tree = sssp_bfs(star(4), 0)
        assert tree.dist == [0, 1, 1, 1, 1]
        assert tree.sigma == [1, 1, 1, 1, 1]

    def test_disconnected_node(self):
        g = Graph.from_edges(3, [(0, 1)])
        tree = sssp_bfs(g, 0)
        assert tree.dist[2] == -1
        assert tree.sigma[2] == 0
        assert 2 not in tree.order

    def test_invalid_source(self):
        with pytest.raises(ValueError):
            sssp_bfs(CYCLE4, 9)

    @pytest.mark.parametrize("seed", range(8))
    def test_tree_invariants(self, seed):
        g = corpus_graph(seed)
        for s in (0, g.n // 2, g.n - 1):
            tree = sssp_bfs(g, s)
            assert tree.sigma[s] == 1 and tree.dist[s] == 0
            position = {v: i for i, v in enumerate(tree.order)}
            for w in range(g.n):
                if w == s or tree.dist[w] < 0:
                    continue
                assert tree.sigma[w] == sum(tree.sigma[v] for v in tree.preds[w])
                for v in tree.preds[w]:
                    assert tree.dist[v] == tree.dist[w] - 1
                    assert v in g.adj[w]
                # farthest-first order: strictly farther nodes come earlier
                for v in tree.preds[w]:
                    assert position[v] > position[w]


class TestBrandesExact:
    def test_star_center_is_one(self):
        result = brandes_exact(star(4))
        assert result.bc[0] == pytest.approx(1.0, abs=1e-12)
        assert result.bc[1:] == [0.0] * 4

    def test_path_inner_two_thirds(self):
        expected = enumeration_bc(PATH4)
        assert expected[1] == pytest.approx(2 / 3, abs=1e-12)
        result = brandes_exact(PATH4)
        assert result.bc == pytest.approx(expected, abs=1e-12)
        assert result.bc[0] == result.bc[3] == 0.0

    def test_cycle_one_sixth(self):
        expected = enumeration_bc(CYCLE4)
        assert expected == pytest.approx([1 / 6] * 4, abs=1e-12)
        assert brandes_exact(CYCLE4).bc == pytest.approx(expected, abs=1e-12)

    def test_pendant_path_scores(self):
        expected = enumeration_bc(PENDANT_PATH)
        assert expected == pytest.approx([0, 1 / 2, 2 / 3, 1 / 2, 0], abs=1e-12)
        assert brandes_exact(PENDANT_PATH).bc == pytest.approx(expected, abs=1e-12)

    def test_trivial_sizes_score_zero(self):
        assert brandes_exact(Graph.from_edges(2, [(0, 1)])).bc == [0.0, 0.0]
        assert brandes_exact(Graph.from_edges(0, [])).bc == []

    def test_matches_oracle_on_corpus(self, small_corpus):
        for g in small_corpus:
            exact = brandes_exact(g).bc
            truth = oracle_bc(g).bc
            assert max(abs(a - b) for a, b in zip(exact, truth)) < 1e-9

    def test_degree_one_nodes_score_zero(self, small_corpus):
        for g in small_corpus[:10]:
            result = brandes_exact(g)
            for v in range(g.n):
                if g.degree(v) == 1:
                    assert result.bc[v] == 0.0

    def test_deterministic_bit_identical(self):
        g = corpus_graph(5)
        assert brandes_exact(g).bc == brandes_exact(g).bc

    def test_threads_agree_with_serial(self):
        g = corpus_graph(7)
        serial = brandes_exact(g, threads=1).bc
        parallel = brandes_exact(g, threads=2).bc
        assert parallel == pytest.approx(serial, abs=1e-12)
        assert brandes_exact(g, threads=2).bc == parallel  # same-settings determinism


class TestOracle:
    def test_sigma_examples(self):
        dist, sigma = oracle_sigma(CYCLE4)
        assert sigma[0, 2] == 2
        k2 = Graph.from_edges(2, [(0, 1)])
        assert oracle_sigma(k2)[1][0, 1] == 1
        p3 = Graph.from_edges(3, [(0, 1), (1, 2)])
        assert oracle_sigma(p3)[1][0, 2] == 1

    def test_sigma_invariants(self, small_corpus):
        for g in small_corpus[:10]:
            dist, sigma = oracle_sigma(g)
            assert np.array_equal(sigma, sigma.T)
            assert np.array_equal(dist, dist.T)
            assert (np.diagonal(sigma) == 1).all()
            off_diag = ~np.eye(g.n, dtype=bool)
            assert ((sigma[off_diag] == 0) == (dist[off_diag] < 0)).all()

    def test_oracle_matches_enumeration_on_tiny_graphs(self):
        import random

        from peelbc import random_graph_with_pendants

        for seed in range(15):
            rng = random.Random(seed)
            g = random_graph_with_pendants(
                rng.randint(3, 7), rng.uniform(0.2, 0.7), 1, seed=seed
            )
            truth = enumeration_bc(g)
            assert oracle_bc(g).bc == pytest.approx(truth, abs=1e-12)

    def test_matches_brandes_small(self):
        for seed in range(5):
            g = corpus_graph(seed)
            assert oracle_bc(g).bc == pytest.approx(brandes_exact(g).bc, abs=1e-9)

    def test_warns_above_size_threshold(self):
        g = star(ORACLE_SIZE_WARNING + 1)
        with pytest.warns(UserWarning, match="slow"):
            oracle_bc(g)


class TestDependencyConsistency:
    def test_delta_recursion_matches_oracle(self, small_corpus):
        for g in small_corpus[:8]:
            dist, sigma = oracle_sigma(g)
            sigma_f = sigma.astype(float)
            safe = np.where(sigma > 0, sigma_f, 1.0)
            for s in range(g.n):
                delta = source_dependency(g, s)
                for v in range(g.n):
                    if v == s:
                        continue
                    du = dist[s, v]
                    if du < 0:
                        assert delta[v] == 0.0
                        continue
                    on_path = (
                        (dist[s] >= 0)
                        & (dist[v] >= 0)
                        & (dist[s, v] + dist[v] == dist[s])
                    )
                    dep = np.where(on_path, sigma_f[s, v] * sigma_f[v] / safe[s], 0.0)
                    dep[s] = 0.0
                    dep[v] = 0.0
                    assert abs(delta[v] - dep.sum()) < 1e-9

    def test_total_dependency_equals_interior_length_sum(self, small_corpus):
        for g in small_corpus[:10]:
            dist, sigma = oracle_sigma(g)
            totals = _dependency_totals(dist, sigma)
            expected = 0.0
            for s in range(g.n):
                for t in range(g.n):
                    if s != t and dist[s, t] > 0:
                        expected += dist[s, t] - 1
            assert math.isclose(totals.sum(), expected, rel_tol=0, abs_tol=1e-7)


@contextmanager
def time_limit(seconds: int):
    """Fail instead of hanging when the body takes longer than `seconds`."""
    def expire(signum, frame):
        raise TimeoutError(f"took longer than {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _chunk_bounds(lo, hi):
    return (lo, hi, os.getpid())


def _chunk_one_raises(lo, hi):
    if lo > 0:
        raise ValueError(f"chunk [{lo}, {hi}) failed")
    return lo


def _chunk_one_dies(lo, hi):
    if lo > 0:
        os._exit(3)
    return lo


def _chunk_zero_raises(lo, hi):
    if lo == 0:
        raise KeyError("chunk 0 failed")
    time.sleep(30)
    return lo


class TestRunChunked:
    def test_chunks_come_back_in_order(self):
        with time_limit(30):
            parts = run_chunked(_chunk_bounds, (), 10, 3)
        assert [p[:2] for p in parts] == [(0, 3), (3, 7), (7, 10)]
        assert parts[0][2] == os.getpid()  # chunk 0 runs in the caller
        assert len({p[2] for p in parts}) == 3
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("worker, error, match", [
        (_chunk_one_raises, ValueError, r"chunk \[1, 2\) failed"),
        (_chunk_one_dies, RuntimeError, "exited with code 3"),
        (_chunk_zero_raises, KeyError, "chunk 0 failed"),
    ])
    def test_failed_chunk_raises_and_leaves_no_process(self, worker, error, match):
        with time_limit(20), pytest.raises(error, match=match):
            run_chunked(worker, (), 2, 2)
        assert multiprocessing.active_children() == []
