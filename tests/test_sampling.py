import itertools
import math
import statistics
from types import SimpleNamespace

import pytest

import peelbc.sampling
from peelbc import (
    Graph,
    SampleConfig,
    bc_one_round_mem,
    bernstein_pivot_bound,
    brandes_exact,
    recommended_pivots,
    relative_l1_error,
    sample_bc_baseline,
    sample_bc_peeled,
)
from peelbc.exact import BcResult
from peelbc.sampling import _estimate_from_pivots

from conftest import er_with_exact_pendants

PENDANT_PATH = Graph.from_labeled_edges(
    [("a", "b"), ("b", "c"), ("c", "e"), ("e", "f")]
)


def star(q: int) -> Graph:
    return Graph.from_edges(q + 1, [(0, i) for i in range(1, q + 1)])


class TestSampleConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SampleConfig(k=0)
        with pytest.raises(ValueError):
            SampleConfig(k=1, seed=-1)
        cfg = SampleConfig(k=3, seed=2**63)
        assert cfg.k == 3


class TestBaseline:
    def test_k_equals_n_matches_exact(self):
        g = er_with_exact_pendants(20, 30, 0.2, seed=3)
        est = sample_bc_baseline(g, SampleConfig(k=g.n, seed=0)).bc
        truth = brandes_exact(g).bc
        assert max(abs(a - b) for a, b in zip(est, truth)) < 1e-9

    def test_star_center_pivot_contributes_nothing(self):
        # the center as the only pivot sees no dependency mass at all
        est = _estimate_from_pivots(star(4), [0], 1)
        assert est == [0.0] * 5

    def test_k_too_large_rejected(self):
        with pytest.raises(ValueError):
            sample_bc_baseline(PENDANT_PATH, SampleConfig(k=6))

    def test_deterministic_per_seed(self):
        g = er_with_exact_pendants(15, 25, 0.25, seed=1)
        cfg = SampleConfig(k=5, seed=11)
        assert sample_bc_baseline(g, cfg).bc == sample_bc_baseline(g, cfg).bc


class TestPeeled:
    def test_k_at_least_survivors_is_exact_bitwise(self):
        g = er_with_exact_pendants(20, 35, 0.2, seed=5)
        exact = bc_one_round_mem(g).bc
        nt = sum(1 for v in range(g.n) if g.degree(v) != 1)
        assert sample_bc_peeled(g, SampleConfig(k=nt)).bc == exact
        assert sample_bc_peeled(g, SampleConfig(k=nt + 3)).bc == exact

    def test_star_exact_for_any_k(self):
        for k in (1, 2, 7):
            result = sample_bc_peeled(star(4), SampleConfig(k=k, seed=4))
            assert result.bc[0] == 1.0
            assert result.bc[1:] == [0.0] * 4

    def test_deterministic_per_seed(self):
        g = er_with_exact_pendants(25, 45, 0.15, seed=8)
        cfg = SampleConfig(k=6, seed=9)
        result = sample_bc_peeled(g, cfg)
        first = result.bc
        assert (result.k, result.seed) == (6, 9)
        assert sample_bc_peeled(g, cfg).bc == first
        assert sample_bc_peeled(g, SampleConfig(k=6, seed=10)).bc != first

    def test_pendant_path_regression(self):
        # pinned seeded run; guards the pivot draw and rescale path
        truth = brandes_exact(PENDANT_PATH)
        est = sample_bc_peeled(PENDANT_PATH, SampleConfig(k=2, seed=1))
        assert est.bc == [0.0, 0.5, 1.0, 0.5, 0.0]
        report = relative_l1_error(est, truth)
        assert report.rel_l1 == pytest.approx(0.2, abs=1e-12)
        assert report.max_abs == pytest.approx(1 / 3, abs=1e-12)

class TestUnbiasedness:
    def test_mean_over_every_pivot_set_is_exact(self, monkeypatch):
        """The estimate averaged over every k-subset of the survivors is
        the exact one-round score, for each k below the survivor count."""
        # survivors 0-4 (4 keeps pendant 5) and the triangle 9-11; two
        # nodes of degree 1 sit on 0, one on 3 and one on 9
        g = Graph.from_edges(13, [
            (0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 4), (4, 5), (0, 6),
            (0, 7), (3, 8), (9, 10), (10, 11), (11, 9), (9, 12),
        ])
        exact = bc_one_round_mem(g).bc
        nt = sum(1 for v in range(g.n) if g.degree(v) != 1)
        for k in (1, 3, nt - 1):
            subsets = list(itertools.combinations(range(nt), k))
            draws = iter(subsets)

            class EachSubset:
                def __init__(self, seed):
                    pass

                def sample(self, population, count):
                    assert (list(population), count) == (list(range(nt)), k)
                    return list(next(draws))

            monkeypatch.setattr(peelbc.sampling, "random", SimpleNamespace(Random=EachSubset))
            runs = [sample_bc_peeled(g, SampleConfig(k=k)).bc for _ in subsets]
            assert next(draws, None) is None
            means = [statistics.fmean(values) for values in zip(*runs)]
            assert means == pytest.approx(exact, rel=1e-12, abs=0)

    def test_estimator_means_near_truth(self):
        g = er_with_exact_pendants(40, 90, 0.12, seed=17)
        truth = brandes_exact(g).bc
        seeds = range(250)
        for estimator in (
            lambda s: sample_bc_peeled(g, SampleConfig(k=8, seed=s)).bc,
            lambda s: sample_bc_baseline(g, SampleConfig(k=8, seed=s)).bc,
        ):
            runs = [estimator(s) for s in seeds]
            for v in range(g.n):
                values = [run[v] for run in runs]
                mean = statistics.fmean(values)
                se = statistics.pstdev(values) / math.sqrt(len(values))
                if se == 0.0:
                    assert mean == pytest.approx(truth[v], abs=1e-12)
                else:
                    assert abs(mean - truth[v]) <= 4 * se


class TestMonotoneErrorTrend:
    @pytest.mark.parametrize(
        "graph",
        [
            er_with_exact_pendants(60, 150, 0.08, seed=23),
            er_with_exact_pendants(90, 160, 0.05, seed=29),
        ],
        ids=["er-150", "er-160"],
    )
    def test_median_error_nonincreasing_in_k(self, graph):
        truth = brandes_exact(graph)
        ks = [5, 10, 20, 40, 80]
        for method in (sample_bc_baseline, sample_bc_peeled):
            medians = []
            for k in ks:
                errs = [
                    relative_l1_error(
                        method(graph, SampleConfig(k=k, seed=s)), truth
                    ).rel_l1
                    for s in range(20)
                ]
                medians.append(statistics.median(errs))
            inversions = sum(
                1 for a, b in zip(medians, medians[1:]) if b > a + 1e-12
            )
            assert inversions <= 1, (method.__name__, medians)


class TestRecommendedPivots:
    def test_formula_example(self):
        assert recommended_pivots(math.exp(4), 0.5) == 16

    def test_integer_survivor_count(self):
        assert recommended_pivots(2, 0.5) == math.ceil(math.log(2) / 0.25)

    def test_boundary_epsilon_rejected(self):
        with pytest.raises(ValueError):
            recommended_pivots(100, 1.0)
        with pytest.raises(ValueError):
            recommended_pivots(100, 0.0)

    def test_small_survivor_count_rejected(self):
        with pytest.raises(ValueError):
            recommended_pivots(1, 0.5)


class TestBernsteinPivotBound:
    def test_balanced_regime_collapses_to_log_scale(self):
        # survivors ~ delta1 ~ sqrt(n): bound within a constant of log/eps^2
        n = 10_000
        root = int(math.sqrt(n))
        eps = 0.3
        bound = bernstein_pivot_bound(n, root, root, eps)
        reference = math.log(root) / eps**2
        assert bound <= 3 * reference

    def test_no_pendants_regime(self):
        n = 5_000
        eps = 0.25
        bound = bernstein_pivot_bound(n, n, 0, eps)
        reference = math.log(n) / eps**2
        assert bound <= 3 * reference

    def test_uniform_deg1_matches_recommender_scale(self):
        # evenly spread pendants: the plain recommender stays the guidance
        n, nt = 2_000, 1_000
        eps = 0.3
        uniform = recommended_pivots(nt, eps)
        coarse = bernstein_pivot_bound(n, nt, n // nt, eps)
        assert coarse >= uniform  # coarse bound is an upper bound

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            bernstein_pivot_bound(10, 1, 0, 0.5)
        with pytest.raises(ValueError):
            bernstein_pivot_bound(10, 20, 0, 0.5)
        with pytest.raises(ValueError):
            bernstein_pivot_bound(10, 5, 11, 0.5)
        with pytest.raises(ValueError):
            bernstein_pivot_bound(10, 5, 0, 1.5)


class TestRelativeL1Error:
    def test_identical_is_zero(self):
        truth = brandes_exact(PENDANT_PATH)
        report = relative_l1_error(truth, truth)
        assert report.rel_l1 == 0.0
        assert report.max_abs == 0.0

    def test_doubled_estimate_is_one(self):
        truth = brandes_exact(PENDANT_PATH)
        est = BcResult(bc=[2 * x for x in truth.bc], algorithm="t")
        assert relative_l1_error(est, truth).rel_l1 == pytest.approx(1.0, abs=1e-12)

    def test_zero_truth_cases(self):
        zero = BcResult(bc=[0.0, 0.0], algorithm="z")
        assert relative_l1_error(zero, zero).rel_l1 == 0.0
        off = BcResult(bc=[0.1, 0.0], algorithm="z")
        assert math.isinf(relative_l1_error(off, zero).rel_l1)

    def test_mismatched_node_sets_rejected(self):
        with pytest.raises(ValueError):
            relative_l1_error(
                BcResult(bc=[0.0], algorithm="a"),
                BcResult(bc=[0.0, 0.0], algorithm="b"),
            )

    def test_per_node_deltas_on_request(self):
        truth = brandes_exact(PENDANT_PATH)
        report = relative_l1_error(truth, truth, include_per_node=True)
        assert report.per_node == [0.0] * PENDANT_PATH.n
