import pytest

from peelbc import (
    Attachment,
    CorePeripherySpec,
    bc_one_round_mem,
    brandes_exact,
    generate_core_periphery,
    peel,
    random_graph_with_pendants,
)


def pendant_counts(g, core_size):
    """Degree-1 neighbors per core node."""
    return [
        sum(1 for w in g.adj[u] if g.degree(w) == 1) for u in range(core_size)
    ]


class TestSpecValidation:
    def test_core_too_small(self):
        with pytest.raises(ValueError):
            CorePeripherySpec(core_size=2, v1_count=0)

    def test_negative_periphery(self):
        with pytest.raises(ValueError):
            CorePeripherySpec(core_size=10, v1_count=-1)


class TestLinearSkew:
    def test_large_instance_shape(self):
        spec = CorePeripherySpec(core_size=50, v1_count=3000)
        g = generate_core_periphery(spec)
        assert g.n == 3050
        counts = pendant_counts(g, 50)
        assert counts[0] == 0  # central node holds no pendants
        assert sum(counts) == 3000
        # strictly decreasing base shares (up to the round-robin remainder)
        assert counts[1] == max(counts)
        result = bc_one_round_mem(g)
        assert result.bc[0] == max(result.bc)
        assert result.bc.count(result.bc[0]) == 1

    def test_periphery_free_instance(self):
        g = generate_core_periphery(CorePeripherySpec(core_size=50, v1_count=0))
        assert g.n == 50
        result = brandes_exact(g)
        assert result.bc[0] == max(result.bc)
        assert result.bc.count(result.bc[0]) == 1
        # center bridges the two cliques: no other node lies between halves
        assert all(result.bc[v] == 0.0 for v in range(1, 50))


class TestGeometricHalving:
    def test_hundred_pendants_schedule(self):
        spec = CorePeripherySpec(
            core_size=50, v1_count=100, attachment=Attachment.GEOMETRIC_HALVING
        )
        g = generate_core_periphery(spec)
        counts = pendant_counts(g, 50)
        # floor(100/2^(j+1)) for j=1.. gives 25,12,6,3,1; the leftover 53
        # lands on the next node in sequence
        assert counts[:7] == [0, 25, 12, 6, 3, 1, 53]
        assert sum(counts) == 100

    def test_small_core_leftover_clamped(self):
        spec = CorePeripherySpec(
            core_size=3, v1_count=40, attachment=Attachment.GEOMETRIC_HALVING
        )
        g = generate_core_periphery(spec)
        counts = pendant_counts(g, 3)
        assert counts[0] == 0
        assert sum(counts) == 40


class TestInvariants:
    @pytest.mark.parametrize("attachment", list(Attachment))
    @pytest.mark.parametrize("v1", [0, 7, 120])
    def test_counts_degrees_and_peel(self, attachment, v1):
        spec = CorePeripherySpec(core_size=12, v1_count=v1, attachment=attachment)
        g = generate_core_periphery(spec)
        assert g.n == 12 + v1
        periphery = list(range(12, g.n))
        assert all(g.degree(v) == 1 for v in periphery)
        assert all(g.degree(v) >= 2 for v in range(12))
        decomp = peel(g)
        if v1:
            assert decomp.rounds[0] == periphery
        assert decomp.core_nodes == list(range(12))

    def test_deterministic_edge_set(self):
        spec = CorePeripherySpec(core_size=20, v1_count=33)
        a = generate_core_periphery(spec)
        b = generate_core_periphery(spec)
        assert a.adj == b.adj


class TestRandomGraphWithPendants:
    def test_deterministic(self):
        a = random_graph_with_pendants(20, 0.2, 3, seed=4)
        b = random_graph_with_pendants(20, 0.2, 3, seed=4)
        assert a.adj == b.adj

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            random_graph_with_pendants(-1, 0.5)
        with pytest.raises(ValueError):
            random_graph_with_pendants(5, 1.5)
