"""Pivot-sampling betweenness estimators and sample-size recommenders.

Two estimators: the classic uniform-pivot scheme on the input graph, and
the peeled scheme that samples pivots only among the survivors of one
degree-1 peeling round (the pendant contributions are added back in
closed form, so they carry no sampling error).  Both sample without
replacement and are deterministic for a fixed seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from time import perf_counter

from .exact import BcResult, _normalizer, accumulate_chunked
from .exact import sssp_bfs  # noqa: F401  (bound here for the benchmark's tracer)
from .graph import Graph
from .peeling import _one_round, _peeled_scores


@dataclass(frozen=True)
class SampleConfig:
    """Pivot-sampling parameters: pivot count k and seed."""

    k: int
    seed: int = 0

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"pivot count must be >= 1, got {self.k}")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 unsigned bits")


@dataclass
class ErrorReport:
    """Estimate-vs-truth error summary.

    rel_l1 is sum |est - truth| / sum truth; inf flags a nonzero error
    against an all-zero truth vector.
    """

    rel_l1: float
    max_abs: float
    per_node: list[float] | None = None


def _estimate_from_pivots(g: Graph, pivots, k: int) -> list[float]:
    """Uniform-pivot estimate given an explicit pivot list."""
    n = g.n
    if n <= 2:
        return [0.0] * n
    scale = n / k / _normalizer(n)
    return [x * scale for x in accumulate_chunked(g, pivots)]


def sample_bc_baseline(g: Graph, cfg: SampleConfig) -> BcResult:
    """Estimate betweenness from k uniform pivot sources on the input graph.

    Draws k distinct pivots, accumulates their dependencies, and rescales
    by n/k; with k = n this reproduces the exact scores up to float
    summation order.
    """
    start = perf_counter()
    if cfg.k > g.n:
        raise ValueError(f"k={cfg.k} exceeds node count {g.n}")
    rng = random.Random(cfg.seed)
    pivots = rng.sample(range(g.n), cfg.k)
    bc = _estimate_from_pivots(g, pivots, cfg.k)
    return BcResult(bc=bc, algorithm="sample-baseline", k=cfg.k, seed=cfg.seed,
                    elapsed=perf_counter() - start)


def sample_bc_peeled(g: Graph, cfg: SampleConfig) -> BcResult:
    """Estimate betweenness with pivots drawn after one peeling round.

    Draws k distinct pivots among the survivors, runs the one-round
    set-up's kernel from them and rescales by survivors/k; the pendant
    terms are added in closed form.  When k reaches the survivor count
    the run is bc_one_round_mem's exact one, bit-for-bit, and the result
    carries k = seed = None.
    """
    start = perf_counter()
    one = _one_round(g)
    nt = len(one.kept)
    k, seed = cfg.k, cfg.seed
    if k >= nt:
        bc = _peeled_scores(g, one)
        k = seed = None
    else:
        pivots = random.Random(seed).sample(range(nt), k)
        bc = _peeled_scores(g, one, pivots, nt / k)
    return BcResult(bc=bc, algorithm="sample-peeled", k=k, seed=seed,
                    elapsed=perf_counter() - start, peeled=one.decomp)


def recommended_pivots(n_tilde, epsilon: float) -> int:
    """Pivot count ceil(ln(survivors) / epsilon^2) for sample_bc_peeled.

    The uniform-pivot rule ln(N) / epsilon^2 (Eppstein & Wang, as used
    by Brandes & Pich 2007), with N the survivor count, the population
    sample_bc_peeled draws from.  It sizes the sample but bounds no
    error: each pivot's term carries its weight 1 + T, which the
    unweighted rule does not account for (bernstein_pivot_bound does,
    coarsely).
    """
    if n_tilde < 2:
        raise ValueError(f"survivor count must be >= 2, got {n_tilde}")
    if not 0 < epsilon < 1:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    return math.ceil(math.log(n_tilde) / (epsilon * epsilon))


def bernstein_pivot_bound(n: int, n_tilde: int, delta1: int, epsilon: float) -> int:
    """Coarse worst-case pivot count from a variance-based tail bound.

    Uses the a-priori bound sum(val_i^2) <= survivors * (1 + delta1)^2 *
    n^2 for the per-source weighted dependencies, so the result is an
    upper bound that is typically loose; the true second moment is not
    known before running.  With delta1 = 0 (or the balanced
    survivors/delta1 ~ sqrt(n) regime) it collapses back to the
    log(survivors)/epsilon^2 scale.
    """
    if n < 1 or n_tilde < 2 or n_tilde > n:
        raise ValueError(
            f"need 2 <= survivors <= n, got survivors={n_tilde}, n={n}"
        )
    if delta1 < 0 or delta1 > n:
        raise ValueError(f"delta1 must lie in [0, n], got {delta1}")
    if not 0 < epsilon < 1:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    sum_val_sq = n_tilde * (1 + delta1) ** 2 * n**2
    numer = sum_val_sq + (1 + delta1) * epsilon * n**3 / 3.0
    k = (math.log(n_tilde) / (epsilon * epsilon)) * n_tilde * numer / n**4
    return math.ceil(k)


def relative_l1_error(est: BcResult, truth: BcResult,
                      include_per_node: bool = False) -> ErrorReport:
    """Relative l1 error sum|est - truth| / sum(truth), plus max |error|.

    A zero truth vector yields 0 when the estimates match exactly and
    inf otherwise.  Node sets must coincide (same length, same order).
    """
    if len(est.bc) != len(truth.bc):
        raise ValueError(
            f"node sets differ: {len(est.bc)} vs {len(truth.bc)} scores"
        )
    diffs = [e - t for e, t in zip(est.bc, truth.bc)]
    abs_sum = sum(abs(d) for d in diffs)
    truth_sum = sum(truth.bc)
    if truth_sum > 0:
        rel = abs_sum / truth_sum
    else:
        rel = 0.0 if abs_sum == 0 else math.inf
    return ErrorReport(
        rel_l1=rel,
        max_abs=max((abs(d) for d in diffs), default=0.0),
        per_node=diffs if include_per_node else None,
    )
