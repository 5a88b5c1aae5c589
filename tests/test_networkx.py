"""Agreement with networkx, a second, independently written implementation."""

from __future__ import annotations

import pytest

from peelbc import bc_one_round_mem, bc_via_2core_recurrence, brandes_exact, load_fixture

from conftest import corpus

nx = pytest.importorskip("networkx")


def networkx_scores(g) -> list[float]:
    """networkx's unnormalized scores count unordered pairs; peelbc sums
    ordered pairs over (n-1)(n-2)."""
    if g.n <= 2:
        return [0.0] * g.n
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from((u, v) for u in range(g.n) for v in g.adj[u] if u < v)
    raw = nx.betweenness_centrality(h, normalized=False)
    scale = 2 / ((g.n - 1) * (g.n - 2))
    return [raw[v] * scale for v in range(g.n)]


@pytest.fixture(scope="module")
def references():
    graphs = [load_fixture("soc-dolphins"), load_fixture("ca-CSphd")] + corpus(20)
    return [(g, networkx_scores(g)) for g in graphs]


@pytest.mark.parametrize("algorithm",
                         [brandes_exact, bc_one_round_mem, bc_via_2core_recurrence],
                         ids=["brandes", "peel1", "2core-recurrence"])
def test_matches_networkx(algorithm, references):
    for g, want in references:
        got = algorithm(g, threads=1).bc
        assert max(abs(a - b) for a, b in zip(got, want)) < 1e-9
