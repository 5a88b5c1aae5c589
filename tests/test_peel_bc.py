import numpy as np
import pytest

from peelbc import (
    Graph,
    accumulate_delta_zeta,
    bc_one_round_mem,
    bc_via_2core_recurrence,
    brandes_exact,
    oracle_bc,
    oracle_sigma,
    peel,
    sssp_bfs,
)
from peelbc.exact import FORK_MIN_WORK, pair_counts_through, pendant_anchors
from peelbc.peeling import _full_peel, _one_round

from conftest import (
    TWO_NODE_AND_ISOLATED,
    all_reaped,
    corpus_graph,
    er_with_exact_pendants,
    pair_rooted_trees,
    path_graph,
    peeling_cases,
    preds,
    root_edge_units,
)
from dense_recurrence import two_core_sigma_rounds

PENDANT_PATH = Graph.from_labeled_edges(
    [("a", "b"), ("b", "c"), ("c", "e"), ("e", "f")]
)
# pendants a, f, g; 2-core recurrence collapses b-c-e after one round
ASYMMETRIC = Graph.from_labeled_edges(
    [("a", "b"), ("b", "c"), ("c", "e"), ("e", "f"), ("e", "g")]
)


def star(q: int) -> Graph:
    return Graph.from_edges(q + 1, [(0, i) for i in range(1, q + 1)])


def max_dev(a, b) -> float:
    return max((abs(x - y) for x, y in zip(a, b)), default=0.0)


def brute_zeta(sub: Graph, deg1_sub: list[int]) -> np.ndarray:
    """Independent zeta ground truth from all-pairs matrices on the peeled graph."""
    nt = sub.n
    dist, sigma = oracle_sigma(sub)
    sigma_f = sigma.astype(float)
    safe = np.where(sigma > 0, sigma_f, 1.0)
    weights = np.array(deg1_sub, dtype=float)
    out = np.zeros((nt, nt))
    for u in range(nt):
        ratios = pair_counts_through(dist, sigma, u).astype(float) / safe
        ratios[u, :] = 0.0
        ratios[:, u] = 0.0
        np.fill_diagonal(ratios, 0.0)
        out[:, u] = ratios @ weights
    return out


def one_round_parts(g: Graph):
    one = _one_round(g)
    deg1_sub = [one.T[v] for v in one.kept]
    return one, deg1_sub


def test_one_round_matches_degree_definitions():
    from conftest import corpus

    for g in corpus(200) + [TWO_NODE_AND_ISOLATED, star(4), Graph.from_edges(0, [])]:
        one = _one_round(g)
        decomp = peel(g)
        deg = [len(g.adj[v]) for v in range(g.n)]
        round0 = decomp.rounds[0] if decomp.rounds else []
        assert round0 == [v for v in range(g.n) if deg[v] == 1]
        assert one.kept == [v for v in range(g.n) if deg[v] != 1]
        assert one.T == one.Q == [sum(1 for w in g.adj[v] if deg[w] == 1)
                                  for v in range(g.n)]
        assert one.T == decomp.deg1


class TestAccumulateDeltaZeta:
    def test_pendant_path_source_b(self):
        one, deg1_sub = one_round_parts(PENDANT_PATH)
        assert one.kept == [1, 2, 3]  # b, c, e
        assert deg1_sub == [1, 0, 1]
        delta, zeta = accumulate_delta_zeta(one.sub, 0, deg1_sub)  # source b
        assert delta == [0.0, 1.0, 0.0]
        assert zeta == [0.0, 1.0, 0.0]
        assert brute_zeta(one.sub, deg1_sub)[0].tolist() == zeta

    def test_zero_deg1_collapses_zeta(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        one, deg1_sub = one_round_parts(g)
        for s in range(one.sub.n):
            _, zeta = accumulate_delta_zeta(one.sub, s, deg1_sub)
            assert zeta == [0.0] * one.sub.n

    def test_single_node_peeled_graph(self):
        one, deg1_sub = one_round_parts(star(4))
        assert one.sub.n == 1
        delta, zeta = accumulate_delta_zeta(one.sub, 0, deg1_sub)
        assert delta == [0.0] and zeta == [0.0]

    def test_zeta_matches_brute_force_on_corpus(self, small_corpus):
        for g in small_corpus[:8]:
            one, deg1_sub = one_round_parts(g)
            expected = brute_zeta(one.sub, deg1_sub)
            for s in range(one.sub.n):
                _, zeta = accumulate_delta_zeta(one.sub, s, deg1_sub)
                assert max_dev(zeta, expected[s]) < 1e-9


class TestOneRoundMem:
    def test_pendant_path(self):
        result = bc_one_round_mem(PENDANT_PATH)
        assert result.bc[2] == pytest.approx(2 / 3, abs=1e-12)
        assert max_dev(result.bc, brandes_exact(PENDANT_PATH).bc) < 1e-12

    def test_idempotent_noop_is_bit_identical(self):
        # no degree-1 nodes: same accumulation stream as plain exact
        g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)])
        assert all(g.degree(v) != 1 for v in range(g.n))
        assert bc_one_round_mem(g).bc == brandes_exact(g).bc

    @pytest.mark.parametrize(
        "algorithm, set_up",
        [(bc_one_round_mem, _one_round), (bc_via_2core_recurrence, _full_peel)],
        ids=["peel1", "2core-recurrence"],
    )
    def test_threads_agree_with_serial(self, algorithm, set_up, fork_calls):
        g = er_with_exact_pendants(200, 260, 0.05, seed=13)
        sub = set_up(g).sub
        assert root_edge_units(sub, pendant_anchors(sub)) >= FORK_MIN_WORK
        serial = algorithm(g, threads=1).bc
        assert fork_calls == []
        parallel = algorithm(g, threads=2).bc
        assert len(fork_calls) == 1 and all_reaped(fork_calls)
        assert parallel == serial
        assert algorithm(g, threads=2).bc == parallel  # same-settings determinism

    def test_k2_and_isolated_components(self):
        # K2 + isolated node + pendant triangle mixed in one graph
        g = Graph.from_edges(
            7, [(0, 1), (2, 3), (3, 4), (4, 2), (4, 5)]
        )  # K2 {0,1}, triangle {2,3,4} with pendant 5, isolated 6
        truth = oracle_bc(g).bc
        assert max_dev(bc_one_round_mem(g).bc, truth) < 1e-12
        assert max_dev(bc_via_2core_recurrence(g).bc, truth) < 1e-12

    def test_graph_of_only_k2_components(self):
        g = Graph.from_edges(6, [(0, 1), (2, 3), (4, 5)])
        for result in (
            bc_one_round_mem(g),
            bc_via_2core_recurrence(g),
        ):
            assert result.bc == [0.0] * 6


class TestTwoCoreRecurrence:
    def test_asymmetric_pendant_fixture(self):
        result = bc_via_2core_recurrence(ASYMMETRIC)
        labels = {lab: i for i, lab in enumerate(ASYMMETRIC.labels)}
        assert result.bc[labels["c"]] == pytest.approx(0.6, abs=1e-12)
        assert max_dev(result.bc, brandes_exact(ASYMMETRIC).bc) < 1e-12

    def test_trees_match_exact(self):
        for seed in (2, 5, 8):
            g = corpus_graph(seed)
            # make a forest: BFS tree edges only
            tree_edges = []
            seen = set()
            for root in range(g.n):
                if root in seen:
                    continue
                seen.add(root)
                tree = sssp_bfs(g, root)
                parents = preds(tree)
                for v in tree.order:
                    if v != root and parents[v]:
                        tree_edges.append((parents[v][0], v))
                        seen.add(v)
            forest = Graph.from_edges(g.n, tree_edges)
            assert max_dev(
                bc_via_2core_recurrence(forest).bc, brandes_exact(forest).bc
            ) < 1e-9
        for tree in [path_graph(n) for n in range(1, 10)] + pair_rooted_trees():
            assert max_dev(
                bc_via_2core_recurrence(tree).bc, oracle_bc(tree).bc
            ) < 1e-12

    def test_identity_on_own_two_core(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert max_dev(bc_via_2core_recurrence(g).bc, brandes_exact(g).bc) < 1e-12

    def test_sigma_rounds_match_direct_recomputation(self, small_corpus):
        for g in small_corpus[:8]:
            for order, dist, sigma in two_core_sigma_rounds(g):
                sub, kept = g.subgraph(order)
                perm = [order.index(v) for v in kept]
                d_direct, s_direct = oracle_sigma(sub)
                assert np.array_equal(dist[np.ix_(perm, perm)], d_direct)
                assert np.array_equal(sigma[np.ix_(perm, perm)], s_direct)


class TestExactnessOnCorpus:
    """Unit-scale slice of the acceptance corpus; the full 200 run in acceptance."""

    def test_all_three_match_oracle(self, small_corpus):
        for g in small_corpus:
            truth = oracle_bc(g).bc
            assert max_dev(brandes_exact(g).bc, truth) < 1e-9
            assert max_dev(bc_one_round_mem(g).bc, truth) < 1e-9
            assert max_dev(bc_via_2core_recurrence(g).bc, truth) < 1e-9
        for g in peeling_cases():
            assert max_dev(bc_via_2core_recurrence(g).bc, oracle_bc(g).bc) < 1e-12


@pytest.mark.slow
def test_mem_matches_brandes_on_every_fixture():
    from peelbc import fixture_names, load_fixture

    for name in fixture_names():
        g = load_fixture(name)
        assert max_dev(bc_one_round_mem(g).bc, brandes_exact(g).bc) < 1e-9, name
