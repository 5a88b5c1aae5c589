"""The one accumulation kernel against the loops it replaced.

The reference code below is the package's accumulation as it stood
before `exact.accumulate`: a BFS that stores predecessor lists, and
one-round loops that carry the dependency (delta) and the
pendant-weighted dependency (zeta) as two accumulators.  Paths whose
arithmetic is unchanged must match it exactly.  Paths that now
accumulate psi = delta + zeta in one pass round differently, and must
stay within MAX_ULPS of it per score.

`single_pass` is the exact algorithms as they stood before they ran the
kernel once per connected component: kernel passes over the whole graph
with every node a source, one per block of `exact.component_chunks`,
added in block order.  Splitting by component moves no bit.  Neither
does letting pendant sources ride their anchor's BFS: the kernel with
anchors must give the bits of the kernel without them run over the
sources in group order (`group_order`).
"""

from __future__ import annotations

import random
import struct
from collections import deque

import pytest

import peelbc.exact
from peelbc import (
    Graph,
    SampleConfig,
    accumulate,
    accumulate_delta_zeta,
    bc_one_round_mem,
    bc_via_2core_recurrence,
    brandes_exact,
    load_fixture,
    sample_bc_baseline,
    sample_bc_peeled,
    source_dependency,
    sssp_bfs,
)
from peelbc.exact import (_normalizer, accumulate_chunked, component_chunks,
                          pendant_anchors, source_chunks)
from peelbc.peeling import _add_pendant_terms, _full_peel, _one_round

from conftest import corpus, diamond_chain, preds

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
    """Exact when k is None or reaches the survivor count; otherwise k
    pivots drawn as sample_bc_peeled draws them, rescaled by nt/k."""
    one = _one_round(g)
    nt = len(one.kept)
    sampled = k is not None and k < nt
    sources = random.Random(seed).sample(range(nt), k) if sampled else range(nt)
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
            dist, sigma, ref_preds, order = ref_sssp(g, s)
            assert (tree.dist, tree.sigma, tree.order) == (dist, sigma, order)
            assert [sorted(p) for p in preds(tree)] == [sorted(p) for p in ref_preds]


@pytest.fixture
def one_block(monkeypatch):
    """Runs every exact call as one block, in ascending source order,
    as the reference loops add; the block fold is checked against
    single_pass below."""
    monkeypatch.setattr(peelbc.exact, "FORK_MIN_WORK", 10**18)


def test_brandes_matches_reference(graphs, one_block):
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
    for g in graphs:
        assert_within_ulps(bc_one_round_mem(g, threads=1).bc, ref_one_round(g))


def test_sample_peeled_within_ulps(graphs):
    for seed, g in enumerate(graphs):
        nt = len(_one_round(g).kept)
        # k = 1 + seed % 5 reaches the survivor count, the exact run, on
        # four of these graphs
        for k in (1 + seed % max(1, nt - 1), 1 + seed % 5):
            assert_within_ulps(sample_bc_peeled(g, SampleConfig(k=k, seed=seed)).bc,
                               ref_one_round(g, k=k, seed=seed))


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


def rider_groups(sources, anchor) -> list[list[int]]:
    """The groups in which accumulate runs sources with `anchor`: the
    sources of each BFS root (the root, when a source, and the pendants
    anchored to it), in source order, the groups in order of their
    first member."""
    groups = {}
    for s in sources:
        p = -1 if anchor is None else anchor[s]
        groups.setdefault(s if p < 0 else p, []).append(s)
    return list(groups.values())


def group_order(sources, anchor) -> list[int]:
    """The order in which accumulate runs sources with `anchor`: each
    group of rider_groups at the place of its first member."""
    return [s for members in rider_groups(sources, anchor) for s in members]


def folded_passes(g: Graph, weight=None, anchor=None) -> list[float]:
    """accumulate_chunked(g, None, weight, anchor=anchor) rebuilt from
    the kernel without anchors: each block of component_chunks runs its
    sources on g itself, in group order, and the blocks' totals are
    added in block order."""
    acc = [0.0] * g.n
    blocks = [block for chunk in component_chunks(g, 1, anchor) for block in chunk]
    for i, block in enumerate(blocks):
        sources = [nodes[j] for nodes, positions in block for j in positions]
        totals = accumulate(g, group_order(sources, anchor), weight, weight)
        acc = totals if i == 0 else [x + y for x, y in zip(acc, totals)]
    return acc


def single_pass(g: Graph, set_up=None) -> list[float]:
    """Exact scores from whole-graph kernel passes, one per block: on g
    for Brandes (set_up None), else on the set-up's kept subgraph with
    target = weight = 1 + T and its pendant anchors' group order, plus
    the closed-form terms."""
    n = g.n
    if n <= 2:
        return [0.0] * n
    if set_up is None:
        norm = _normalizer(n)
        return [x / norm for x in folded_passes(g)]
    one = set_up(g)
    acc = folded_passes(one.sub, one.weight, pendant_anchors(one.sub))
    bc = [0.0] * n
    _add_pendant_terms(bc, one, acc)
    return bc


def random_forest(sizes: list[int], seed: int) -> Graph:
    """Random trees of the given sizes (1 is an isolated node), their
    ids shuffled so that components interleave."""
    rng = random.Random(seed)
    perm = list(range(sum(sizes)))
    rng.shuffle(perm)
    edges = []
    first = 0
    for size in sizes:
        edges += [(perm[first + i], perm[first + rng.randrange(i)]) for i in range(1, size)]
        first += size
    return Graph.from_edges(len(perm), edges)


# (label, graph): isolated nodes and two-node components mixed in with
# larger ones, many tree components, odd cycles (whose farthest level has
# an edge inside it), a diamond chain whose end hub's path count reaches
# 2**53 on its farthest level, and the two disconnected fixtures.
SPLIT_CASES = [
    ("isolated", Graph.from_edges(9, [(1, 4), (4, 7), (7, 1), (7, 3), (8, 5)])),
    ("two-node", random_forest([2] * 6 + [1, 1, 3], seed=1)),
    ("forest", random_forest([1, 2, 3, 5, 8, 13, 2, 1, 21, 4, 7] * 3, seed=2)),
    ("odd-cycles", Graph.from_edges(12, [(i, (i + 1) % 7) for i in range(7)]
                                    + [(7, 8), (8, 9), (9, 7), (9, 10), (10, 11)])),
    ("diamond-chain-53", diamond_chain(53)),
    ("ca-CSphd", load_fixture("ca-CSphd")),
    ("rt_obama", load_fixture("rt_obama")),
]


@pytest.fixture(scope="module")
def rt_obama_brandes() -> list[float]:
    return brandes_exact(load_fixture("rt_obama"), threads=1).bc


@pytest.mark.parametrize("label, g", SPLIT_CASES, ids=[c[0] for c in SPLIT_CASES])
def test_per_component_runs_match_single_pass(label, g, request):
    if label == "diamond-chain-53":
        tree = sssp_bfs(g, 0)
        assert tree.levels[-1] == [g.n - 1] and tree.sigma[-1] == 2**53
        assert isinstance(tree.sigma[-1], int)
    brandes = (request.getfixturevalue("rt_obama_brandes") if label == "rt_obama"
               else brandes_exact(g, threads=1).bc)
    assert brandes == single_pass(g)
    assert bc_one_round_mem(g, threads=1).bc == single_pass(g, _one_round)
    assert bc_via_2core_recurrence(g, threads=1).bc == single_pass(g, _full_peel)


def test_brandes_threads_agree_on_rt_obama(rt_obama_brandes):
    parallel = brandes_exact(load_fixture("rt_obama"), threads=2).bc
    assert parallel == rt_obama_brandes


def _anchor_orders(anchor: list[int], seed: int) -> dict[str, list[int]]:
    """Source orders for the anchored kernel: ascending; shuffled with
    every pendant before its anchor, and after it; and without any
    anchor among the sources."""
    rng = random.Random(seed)
    anchors = {p for p in anchor if p >= 0}
    pendants = [s for s, p in enumerate(anchor) if p >= 0]
    others = [s for s, p in enumerate(anchor) if p < 0]
    rng.shuffle(pendants)
    rng.shuffle(others)
    return {
        "ascending": list(range(len(anchor))),
        "pendants-first": pendants + others,
        "pendants-last": others + pendants,
        "no-anchors": [s for s in others + pendants if s not in anchors],
    }


def test_pendant_anchors():
    # a path 0-1-2-3 plus a two-node component 4-5 and an isolated node 6
    g = Graph.from_edges(7, [(0, 1), (1, 2), (2, 3), (4, 5)])
    assert pendant_anchors(g) == [1, -1, -1, 2, -1, -1, -1]
    assert pendant_anchors(cycle(5)) is None
    assert pendant_anchors(Graph.from_edges(2, [(0, 1)])) is None


def comb(stubs: list[int]) -> Graph:
    """A cycle whose i-th node carries stubs[i] two-node stubs, each a
    node with a leaf of its own.  One round removes the leaves, so in
    the kept graph every stub node is a pendant of its cycle node: rider
    groups of 1 + stubs[i] members.  A pendant is a leaf of every BFS
    but its own, so its dependency there is 0.0, on whatever level it
    lies."""
    n = len(stubs)
    edges = [(i, (i + 1) % n) for i in range(n)]
    for i, count in enumerate(stubs):
        for _ in range(count):
            edges += [(i, n), (n, n + 1)]
            n += 2
    return Graph.from_edges(n, edges)


def test_comb_kept_graph():
    """The comb's kept graph has rider groups of one to four members,
    and a BFS that reaches pendants before its farthest level."""
    sub = _one_round(comb([0, 1, 2, 3])).sub
    anchor = pendant_anchors(sub)
    assert sorted(map(len, rider_groups(range(sub.n), anchor))) == [1, 2, 3, 4]
    levels = sssp_bfs(sub, 0).levels
    assert any(anchor[w] >= 0 for level in levels[1:-1] for w in level)


def test_anchored_kernel_keeps_every_bit(graphs):
    """accumulate with anchors gives the bits of accumulate without them
    over the sources in group order, on every one-round kept subgraph
    with a pendant, unit and weighted, whatever the order of pendants
    and anchors among the sources.  The corpus runs rider groups of two
    members (added without a loop) and of three or more (added in one),
    and riders whose dependency is 0.0 (which add nothing)."""
    anchored = 0
    sizes = set()
    combs = [comb([0, 1, 2, 3]), comb([3, 0, 2, 1, 1, 0, 2, 3, 0])]
    for seed, g in enumerate(graphs + [g for _, g in SPLIT_CASES] + combs):
        one = _one_round(g)
        sub = one.sub
        anchor = pendant_anchors(sub)
        if anchor is None:
            continue
        anchored += 1
        for order, sources in _anchor_orders(anchor, seed).items():
            riding = group_order(sources, anchor)
            sizes.update(map(len, rider_groups(sources, anchor)))
            for weight in (None, one.weight):
                got = accumulate(sub, sources, weight, weight, anchor)
                assert got == accumulate(sub, riding, weight, weight), (seed, order)
    assert anchored >= 100
    assert {2, 3, 4} <= sizes


@pytest.mark.parametrize("threads", [2, 3])
def test_anchored_chunks_keep_every_bit(threads, monkeypatch):
    """Forked chunks give the bits of the kernel without anchors run
    over each block's sources in group order, the blocks added in block
    order.  Over components, component_chunks cuts the same blocks at
    every thread count, each with its roots and the pendants anchored to
    them, and hands each chunk whole blocks; a source list splits by
    count into chunks summed in chunk order."""
    monkeypatch.setattr(peelbc.exact, "FORK_MIN_WORK", 0)
    for seed, (label, g) in enumerate(SPLIT_CASES):
        one = _one_round(g)
        sub = one.sub
        anchor = pendant_anchors(sub)
        if anchor is None:
            continue
        chunks = component_chunks(sub, threads, anchor)
        assert len(chunks) > 1, label
        blocks = [block for chunk in chunks for block in chunk]
        assert blocks == component_chunks(sub, 1, anchor)[0], label
        runs = [[nodes[j] for nodes, positions in block for j in positions]
                for block in blocks]
        assert sorted(sum(runs, [])) == [v for v in range(sub.n) if sub.adj[v]]
        for run in runs:
            assert {anchor[s] for s in run if anchor[s] >= 0} <= set(run), label
        for weight in (None, one.weight):
            got = accumulate_chunked(sub, None, weight, threads=threads, anchor=anchor)
            assert got == folded_passes(sub, weight, anchor), label
        sources = _anchor_orders(anchor, seed)["pendants-last"]
        for weight in (None, one.weight):
            got = accumulate_chunked(sub, sources, weight, threads=threads, anchor=anchor)
            want = [0.0] * sub.n
            for lo, hi in source_chunks(len(sources), threads):
                part = accumulate(sub, group_order(sources[lo:hi], anchor), weight, weight)
                want = [x + y for x, y in zip(want, part)]
            assert got == want, label


@pytest.fixture
def bfs_calls(monkeypatch) -> list[int]:
    """Records the source of every sssp_bfs call the kernel makes (in
    the ids of the graph it ran on)."""
    calls = []

    def spy(g, s):
        calls.append(s)
        return sssp_bfs(g, s)

    monkeypatch.setattr(peelbc.exact, "sssp_bfs", spy)
    return calls


@pytest.mark.parametrize("name, sources, pendants", [("rt_obama", 490, 140),
                                                     ("ca-CSphd", 423, 273)])
def test_peel1_pendants_skip_their_bfs(name, sources, pendants, bfs_calls):
    """Of the kept nodes the kernel runs (those with a kept neighbour),
    each pendant reuses its anchor's BFS."""
    g = load_fixture(name)
    sub = _one_round(g).sub
    assert sum(1 for nbrs in sub.adj if nbrs) == sources
    assert sum(p >= 0 for p in pendant_anchors(sub)) == pendants
    bc_one_round_mem(g, threads=1)
    assert len(bfs_calls) == sources - pendants


@pytest.mark.parametrize("threads", [2, 3])
@pytest.mark.parametrize("name, runs", [("rt_obama", 350), ("ca-CSphd", 150)])
def test_peel1_chunks_repeat_no_bfs(name, runs, threads, bfs_calls, monkeypatch):
    """Split across chunks, peel1 runs as many BFS as in one chunk: each
    pendant runs in its anchor's chunk.  The chunks run in-process here,
    so that the spy sees every one."""
    ran = []

    def in_process(worker, common_args, chunks):
        ran.append(len(chunks))
        return [worker(*common_args, *chunk) for chunk in chunks]

    monkeypatch.setattr(peelbc.exact, "FORK_MIN_WORK", 0)
    monkeypatch.setattr(peelbc.exact, "run_chunked", in_process)
    bc_one_round_mem(load_fixture(name), threads=threads)
    assert ran == [threads]
    assert len(bfs_calls) == runs


def test_brandes_runs_one_bfs_per_source(bfs_calls):
    """The baseline takes no shortcut, so peeling's measured speed-up
    keeps measuring peeling."""
    g = load_fixture("rt_obama")
    brandes_exact(g, threads=1)
    assert len(bfs_calls) == g.n == 3212
