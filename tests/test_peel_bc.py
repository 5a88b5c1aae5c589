import numpy as np
import pytest

from peelbc import (
    Graph,
    TableSizeError,
    accumulate_delta_zeta,
    bc_one_round_full,
    bc_one_round_mem,
    bc_via_2core_recurrence,
    brandes_exact,
    oracle_bc,
    oracle_sigma,
    sssp_bfs,
    two_core_sigma_rounds,
)
from peelbc.exact import pair_counts_through

from conftest import corpus_graph

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
    from peelbc.peeling import _one_round

    one = _one_round(g)
    deg1_sub = [one.deg1[v] for v in one.v2]
    return one, deg1_sub


TWO_NODE_AND_ISOLATED = Graph.from_edges(
    8, [(0, 1), (2, 3), (3, 4), (4, 2), (4, 5)]  # 0-1 alone; 6 and 7 isolated
)


def test_one_round_matches_degree_definitions():
    from conftest import corpus
    from peelbc.peeling import _one_round

    for g in corpus(200) + [TWO_NODE_AND_ISOLATED, star(4), Graph.from_edges(0, [])]:
        one = _one_round(g)
        deg = [len(g.adj[v]) for v in range(g.n)]
        assert one.v1 == [v for v in range(g.n) if deg[v] == 1]
        assert one.v2 == [v for v in range(g.n) if deg[v] != 1]
        assert one.deg1 == [sum(1 for w in g.adj[v] if deg[w] == 1) for v in range(g.n)]


class TestAccumulateDeltaZeta:
    def test_pendant_path_source_b(self):
        one, deg1_sub = one_round_parts(PENDANT_PATH)
        assert one.v2 == [1, 2, 3]  # b, c, e
        assert deg1_sub == [1, 0, 1]
        tree = sssp_bfs(one.sub, 0)  # source b
        delta, zeta = accumulate_delta_zeta(tree, deg1_sub)
        assert delta == [0.0, 1.0, 0.0]
        assert zeta == [0.0, 1.0, 0.0]
        assert brute_zeta(one.sub, deg1_sub)[0].tolist() == zeta

    def test_zero_deg1_collapses_zeta(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        one, deg1_sub = one_round_parts(g)
        for s in range(one.sub.n):
            _, zeta = accumulate_delta_zeta(sssp_bfs(one.sub, s), deg1_sub)
            assert zeta == [0.0] * one.sub.n

    def test_single_node_peeled_graph(self):
        one, deg1_sub = one_round_parts(star(4))
        assert one.sub.n == 1
        delta, zeta = accumulate_delta_zeta(sssp_bfs(one.sub, 0), deg1_sub)
        assert delta == [0.0] and zeta == [0.0]

    def test_zeta_matches_brute_force_on_corpus(self, small_corpus):
        for g in small_corpus[:8]:
            one, deg1_sub = one_round_parts(g)
            expected = brute_zeta(one.sub, deg1_sub)
            for s in range(one.sub.n):
                _, zeta = accumulate_delta_zeta(sssp_bfs(one.sub, s), deg1_sub)
                assert max_dev(zeta, expected[s]) < 1e-9


class TestOneRoundFull:
    def test_pendant_path(self):
        result, _ = bc_one_round_full(PENDANT_PATH)
        assert result.bc == pytest.approx([0, 0.5, 2 / 3, 0.5, 0], abs=1e-12)
        assert max_dev(result.bc, brandes_exact(PENDANT_PATH).bc) < 1e-12

    def test_star_closed_form(self):
        result, table = bc_one_round_full(star(4))
        assert result.bc[0] == pytest.approx((10 - 3 - 4) * 4 / 12, abs=1e-15)
        assert result.bc[0] == 1.0
        assert table.node_ids == [0]

    def test_no_pendants_is_noop(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        result, _ = bc_one_round_full(g)
        assert max_dev(result.bc, brandes_exact(g).bc) < 1e-12

    def test_removed_columns_not_stored(self, small_corpus):
        for g in small_corpus[:6]:
            result, table = bc_one_round_full(g)
            v1 = {v for v in range(g.n) if g.degree(v) == 1}
            assert not (v1 & set(table.node_ids))
            for v in v1:
                assert result.bc[v] == 0.0
            assert (table.delta >= -1e-12).all()
            assert (table.zeta >= -1e-12).all()
            assert table.zeta.max(initial=0.0) <= len(v1) + 1e-9
            # a source depends on a node at most once per possible target
            assert table.delta.max(initial=0.0) <= g.n - 2 + 1e-9

    def test_memory_cap(self):
        with pytest.raises(TableSizeError, match="bc_one_round_mem"):
            bc_one_round_full(corpus_graph(0), max_table_bytes=16)

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            bc_one_round_full(PENDANT_PATH, k=0)

    def test_sampled_matches_mem_variant(self):
        g = corpus_graph(11)
        nt = sum(1 for v in range(g.n) if g.degree(v) != 1)
        k = max(2, nt // 2)
        full, _ = bc_one_round_full(g, k=k, seed=3)
        mem = bc_one_round_mem(g, k=k, seed=3)
        assert max_dev(full.bc, mem.bc) < 1e-9


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

    def test_k_equal_survivors_equals_exact(self):
        g = corpus_graph(4)
        nt = sum(1 for v in range(g.n) if g.degree(v) != 1)
        assert bc_one_round_mem(g, k=nt).bc == bc_one_round_mem(g).bc

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            bc_one_round_mem(PENDANT_PATH, k=-2)

    def test_sampling_deterministic(self):
        g = corpus_graph(9)
        a = bc_one_round_mem(g, k=3, seed=21)
        b = bc_one_round_mem(g, k=3, seed=21)
        assert a.bc == b.bc
        assert a.k == 3 and a.seed == 21

    def test_threads_agree_with_serial(self):
        g = corpus_graph(13)
        serial = bc_one_round_mem(g, threads=1).bc
        parallel = bc_one_round_mem(g, threads=2).bc
        assert parallel == pytest.approx(serial, abs=1e-12)

    def test_k2_and_isolated_components(self):
        # K2 + isolated node + pendant triangle mixed in one graph
        g = Graph.from_edges(
            7, [(0, 1), (2, 3), (3, 4), (4, 2), (4, 5)]
        )  # K2 {0,1}, triangle {2,3,4} with pendant 5, isolated 6
        truth = oracle_bc(g).bc
        assert max_dev(bc_one_round_mem(g).bc, truth) < 1e-12
        assert max_dev(bc_one_round_full(g)[0].bc, truth) < 1e-12
        assert max_dev(bc_via_2core_recurrence(g).bc, truth) < 1e-12

    def test_graph_of_only_k2_components(self):
        g = Graph.from_edges(6, [(0, 1), (2, 3), (4, 5)])
        for result in (
            bc_one_round_mem(g),
            bc_one_round_full(g)[0],
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
                for v in tree.order:
                    if v != root and tree.preds[v]:
                        tree_edges.append((tree.preds[v][0], v))
                        seen.add(v)
            forest = Graph.from_edges(g.n, tree_edges)
            assert max_dev(
                bc_via_2core_recurrence(forest).bc, brandes_exact(forest).bc
            ) < 1e-9

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
            assert max_dev(bc_one_round_mem(g).bc, truth) < 1e-9
            assert max_dev(bc_one_round_full(g)[0].bc, truth) < 1e-9
            assert max_dev(bc_via_2core_recurrence(g).bc, truth) < 1e-9


@pytest.mark.slow
def test_mem_matches_brandes_on_every_fixture():
    from peelbc import fixture_names, load_fixture

    for name in fixture_names():
        g = load_fixture(name)
        assert max_dev(bc_one_round_mem(g).bc, brandes_exact(g).bc) < 1e-9, name
