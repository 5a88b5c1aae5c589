"""The one accumulation kernel against the loops it replaced.

The reference code below is the package's accumulation as it stood
before `exact.accumulate`: a BFS that stores predecessor lists, and
one-round loops that carry the dependency (delta) and the
pendant-weighted dependency (zeta) as two accumulators.  Paths whose
arithmetic is unchanged must match it exactly.  Paths that now
accumulate psi = delta + zeta in one pass round differently, and must
stay within MAX_ULPS of it per score.
"""

from __future__ import annotations

import random
import struct
from collections import deque

import pytest

from peelbc import (
    Graph,
    SampleConfig,
    accumulate,
    accumulate_delta_zeta,
    bc_one_round_mem,
    brandes_exact,
    load_fixture,
    sample_bc_baseline,
    sample_bc_peeled,
    source_dependency,
    sssp_bfs,
)
from peelbc.exact import _normalizer
from peelbc.peeling import _one_round, _pick_sources

from conftest import corpus, diamond_chain

# One-pass psi = delta + zeta against the two-accumulator sum: the worst
# case is 4 ulps on the inputs below and 7 on the larger bundled fixtures.
MAX_ULPS = 8


@pytest.fixture(scope="module")
def graphs() -> list[Graph]:
    return corpus(200) + [load_fixture("soc-dolphins")]


def ref_sssp(g: Graph, s: int):
    """Breadth-first search that stores every node's predecessor list."""
    n = g.n
    dist = [-1] * n
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
        for w in g.adj[v]:
            if dist[w] < 0:
                dist[w] = nd
                queue.append(w)
            if dist[w] == nd:
                sigma[w] += sv
                preds[w].append(v)
    order.reverse()
    return dist, sigma, preds, order


def ref_delta_zeta(g: Graph, s: int, deg1: list[int]):
    """Dependency and pendant-weighted dependency rows, two accumulators."""
    _, sigma, preds, order = ref_sssp(g, s)
    delta = [0.0] * g.n
    zeta = [0.0] * g.n
    for w in order:
        coeff_d = (1.0 + delta[w]) / sigma[w]
        coeff_z = (deg1[w] + zeta[w]) / sigma[w]
        for v in preds[w]:
            if v != s:
                sv = sigma[v]
                delta[v] += sv * coeff_d
                zeta[v] += sv * coeff_z
    return delta, zeta


def ref_accumulate(g: Graph, sources, target, weight) -> list[float]:
    """The kernel's weighted totals from predecessor lists and int counts."""
    acc = [0.0] * g.n
    for s in sources:
        _, sigma, preds, order = ref_sssp(g, s)
        psi = [0.0] * g.n
        for w in order[:-1]:  # the source comes last
            coeff = (target[w] + psi[w]) / sigma[w]
            for v in preds[w]:
                psi[v] += sigma[v] * coeff
            acc[w] += weight[s] * psi[w]
    return acc


def ref_brandes(g: Graph) -> list[float]:
    n = g.n
    if n <= 2:
        return [0.0] * n
    bc = [0.0] * n
    for s in range(n):
        _, sigma, preds, order = ref_sssp(g, s)
        delta = [0.0] * n
        for w in order:
            coeff = (1.0 + delta[w]) / sigma[w]
            for v in preds[w]:
                if v != s:
                    delta[v] += sigma[v] * coeff
            if w != s:
                bc[w] += delta[w]
    norm = _normalizer(n)
    return [x / norm for x in bc]


def ref_baseline(g: Graph, cfg: SampleConfig) -> list[float]:
    n = g.n
    acc = [0.0] * n
    for s in random.Random(cfg.seed).sample(range(n), cfg.k):
        delta, _ = ref_delta_zeta(g, s, [0] * n)
        for v in range(n):
            acc[v] += delta[v]
    if n <= 2:
        return [0.0] * n
    scale = n / cfg.k / _normalizer(n)
    return [x * scale for x in acc]


def _pendant_terms(g: Graph, one, acc: list[float]) -> list[float]:
    bc = [0.0] * g.n
    norm = _normalizer(g.n)
    comp, sizes = g.component_ids()
    for idx, u in enumerate(one.kept):
        d1 = one.decomp.deg1[u]
        bc[u] = (acc[idx] + d1 * (2 * sizes[comp[u]] - 3 - d1)) / norm
    return bc


def ref_one_round(g: Graph, k: int | None = None, seed: int | None = None):
    one = _one_round(g)
    nt = len(one.kept)
    sources, sampled = _pick_sources(nt, k, seed)
    if g.n <= 2:
        return [0.0] * g.n
    deg1_sub = [one.decomp.deg1[orig] for orig in one.kept]
    acc = [0.0] * nt
    for s in sources:
        delta, zeta = ref_delta_zeta(one.sub, s, deg1_sub)
        weight = 1 + deg1_sub[s]
        for w in range(nt):
            if w != s:
                acc[w] += weight * (delta[w] + zeta[w])
    if sampled:
        acc = [x * (nt / k) for x in acc]
    return _pendant_terms(g, one, acc)


def ref_ysplit(g: Graph, cfg: SampleConfig) -> list[float]:
    one = _one_round(g)
    nt = len(one.kept)
    deg1_sub = [one.decomp.deg1[orig] for orig in one.kept]
    exact_acc = [0.0] * nt
    for s in range(nt):
        if deg1_sub[s]:
            delta, zeta = ref_delta_zeta(one.sub, s, deg1_sub)
            for v in range(nt):
                exact_acc[v] += deg1_sub[s] * (delta[v] + zeta[v])
    sampled_acc = [0.0] * nt
    for s in random.Random(cfg.seed).sample(range(nt), cfg.k):
        delta, zeta = ref_delta_zeta(one.sub, s, deg1_sub)
        for v in range(nt):
            sampled_acc[v] += delta[v] + zeta[v]
    scale = (nt - 1) / cfg.k
    acc = [e + scale * x for e, x in zip(exact_acc, sampled_acc)]
    return _pendant_terms(g, one, acc)


def ulps(a: float, b: float) -> int:
    """Distance between two non-negative floats in units in the last place."""
    ia, ib = (struct.unpack("<q", struct.pack("<d", x))[0] for x in (a, b))
    return abs(ia - ib)


def assert_within_ulps(got: list[float], want: list[float]) -> None:
    assert len(got) == len(want)
    assert max(map(ulps, got, want), default=0) <= MAX_ULPS


def test_sssp_matches_predecessor_bfs(graphs):
    for g in graphs[:40]:
        for s in range(g.n):
            tree = sssp_bfs(g, s)
            dist, sigma, preds, order = ref_sssp(g, s)
            assert (tree.dist, tree.sigma, tree.order) == (dist, sigma, order)
            assert [sorted(p) for p in tree.preds] == [sorted(p) for p in preds]


def test_brandes_matches_reference(graphs):
    for g in graphs:
        assert brandes_exact(g, threads=1).bc == ref_brandes(g)


def test_source_dependency_and_delta_zeta_match_reference(graphs):
    for g in graphs[:60]:
        for s in range(g.n):
            assert source_dependency(g, s) == ref_delta_zeta(g, s, [0] * g.n)[0]
        one = _one_round(g)
        deg1_sub = [one.decomp.deg1[orig] for orig in one.kept]
        for s in range(one.sub.n):
            got = accumulate_delta_zeta(one.sub, s, deg1_sub)
            assert got == ref_delta_zeta(one.sub, s, deg1_sub)


def test_sample_baseline_matches_reference(graphs):
    for seed, g in enumerate(graphs):
        cfg = SampleConfig(k=1 + seed % g.n, seed=seed)
        assert sample_bc_baseline(g, cfg).bc == ref_baseline(g, cfg)


def test_one_round_mem_within_ulps(graphs):
    for seed, g in enumerate(graphs):
        assert_within_ulps(bc_one_round_mem(g, threads=1).bc, ref_one_round(g))
        k = 1 + seed % 5
        assert_within_ulps(bc_one_round_mem(g, k=k, seed=seed).bc,
                           ref_one_round(g, k=k, seed=seed))


def test_sample_peeled_within_ulps(graphs):
    for seed, g in enumerate(graphs):
        nt = len(_one_round(g).kept)
        cfg = SampleConfig(k=1 + seed % max(1, nt - 1), seed=seed)
        assert_within_ulps(sample_bc_peeled(g, cfg).bc,
                           ref_one_round(g, k=cfg.k, seed=cfg.seed))
        if cfg.k < nt and g.n > 2:
            assert_within_ulps(sample_bc_peeled(g, cfg, exact_y_sources=True).bc,
                               ref_ysplit(g, cfg))


def grid(side: int) -> Graph:
    edges = [(r * side + c, r * side + c + 1) for r in range(side) for c in range(side - 1)]
    edges += [(r * side + c, (r + 1) * side + c) for r in range(side - 1) for c in range(side)]
    return Graph.from_edges(side * side, edges)


def cycle(n: int) -> Graph:
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


@pytest.mark.parametrize("g", [grid(2), grid(7), grid(12), cycle(3), cycle(8), cycle(31)],
                         ids=["grid2", "grid7", "grid12", "cycle3", "cycle8", "cycle31"])
def test_peel1_is_brandes_without_pendants(g):
    assert bc_one_round_mem(g, threads=1).bc == brandes_exact(g, threads=1).bc


def test_accumulate_weights_and_targets():
    g = cycle(5)
    ones = accumulate(g, range(5))
    assert accumulate(g, range(5), target=[1.0] * 5, weight=[1] * 5) == ones
    assert accumulate(g, range(5), weight=[2] * 5) == [2 * x for x in ones]
    assert accumulate(g, [0], target=[0.0] * 5) == [0.0] * 5


@pytest.mark.parametrize("g, sources", [
    (diamond_chain(60), range(181)),
    (grid(35), [0, 34, 5 * 35 + 2, 17 * 35 + 17, 1224]),
], ids=["diamond-chain-60", "grid35"])
def test_counts_past_2_53_match_reference(g, sources):
    """Sources whose path counts reach 2**53 take the int-count branch;
    their scores keep the bits of the int reference loop."""
    sources = list(sources)
    trees = [sssp_bfs(g, s) for s in sources]
    assert any(isinstance(x, int) for tree in trees for x in tree.sigma)
    for tree in trees:
        assert tree.sigma == ref_sssp(g, tree.source)[1]
    n = g.n
    assert accumulate(g, sources) == ref_accumulate(g, sources, [1.0] * n, [1] * n)
    target = [1.0 + v % 3 for v in range(n)]
    assert (accumulate(g, sources, target=target, weight=target)
            == ref_accumulate(g, sources, target, target))
