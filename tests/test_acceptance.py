"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  The corpus is 200 seeded random graphs (ER base
n in [5,60], edge probability in [0.05,0.3], 0-3 pendants per node).
"""

from __future__ import annotations

import csv
import math
import statistics
from time import perf_counter

import numpy as np
import pytest

from peelbc import (
    Attachment,
    CorePeripherySpec,
    Graph,
    SampleConfig,
    accumulate_delta_zeta,
    bc_one_round_mem,
    bc_via_2core_recurrence,
    brandes_exact,
    generate_core_periphery,
    load_fixture,
    oracle_bc,
    oracle_sigma,
    peel_diagnostics,
    sample_bc_baseline,
    sample_bc_peeled,
)
from peelbc.cli import main
from peelbc.datasets import fixture_names, fixture_path
from peelbc.exact import pair_counts_through
from peelbc.peeling import _one_round

from conftest import corpus, er_with_exact_pendants, peeling_cases
from dense_recurrence import dense_2core_recurrence, two_core_sigma_rounds

CORPUS_SIZE = 200

TABLE_STATS = {
    # dataset: (n, m, one-round survivor fraction, 2-core fraction)
    "soc-dolphins": (62, 159, 0.85, 0.85),
    "ca-CSphd": (1882, 1740, 0.30, 0.08),
    "rt_obama": (3212, 3423, 0.20, 0.11),
    "soc-wiki-Vote": (889, 2914, 0.78, 0.76),
    "email-univ": (1133, 5451, 0.86, 0.86),
}

ASYMMETRIC = Graph.from_labeled_edges(
    [("a", "b"), ("b", "c"), ("c", "e"), ("e", "f"), ("e", "g")]
)


def report(num: int, name: str, detail: str) -> None:
    print(f"ACCEPTANCE {num} ({name}): PASS - {detail}")


def max_dev(a, b) -> float:
    return max((abs(x - y) for x, y in zip(a, b)), default=0.0)


@pytest.fixture(scope="module")
def full_corpus():
    return corpus(CORPUS_SIZE)


def test_criterion_1_oracle_equivalence(full_corpus):
    start = perf_counter()
    worst = 0.0
    for g in full_corpus:
        truth = oracle_bc(g).bc
        for bc in (
            bc_one_round_mem(g).bc,
            bc_via_2core_recurrence(g).bc,
        ):
            dev = max_dev(bc, truth)
            worst = max(worst, dev)
            assert dev < 1e-9
    cases = peeling_cases()
    for g in cases:
        assert max_dev(bc_via_2core_recurrence(g).bc, oracle_bc(g).bc) < 1e-12
    elapsed = perf_counter() - start
    assert elapsed < 120.0, f"criterion 1 took {elapsed:.1f}s (budget 120s)"
    report(1, "oracle equivalence",
           f"{CORPUS_SIZE} graphs, worst dev {worst:.2e}; {len(cases)} "
           f"paths and trees within 1e-12; {elapsed:.1f}s")


def test_criterion_2_recurrence_fidelity(full_corpus):
    worst = 0.0
    for g in full_corpus:
        for order, dist, sigma in two_core_sigma_rounds(g):
            sub, kept = g.subgraph(order)
            pos = {v: i for i, v in enumerate(order)}
            perm = [pos[v] for v in kept]
            d_direct, s_direct = oracle_sigma(sub)
            assert np.array_equal(dist[np.ix_(perm, perm)], d_direct)
            assert np.array_equal(sigma[np.ix_(perm, perm)], s_direct)
        dev = max_dev(bc_via_2core_recurrence(g).bc, dense_2core_recurrence(g))
        worst = max(worst, dev)
        assert dev < 1e-12
    result = bc_via_2core_recurrence(ASYMMETRIC)
    c = ASYMMETRIC.labels.index("c")
    assert result.bc[c] == pytest.approx(0.6, abs=1e-12)
    report(2, "recurrence fidelity",
           f"sigma rounds integer-exact on {CORPUS_SIZE} graphs; kernel path "
           f"within {worst:.2e} of the dense recurrence; "
           f"pendant fixture bc(c)={result.bc[c]:.6f}")


def test_criterion_3_closed_form_families():
    algorithms = (
        ("brandes", lambda g: brandes_exact(g).bc),
        ("peel1-mem", lambda g: bc_one_round_mem(g).bc),
        ("2core-recurrence", lambda g: bc_via_2core_recurrence(g).bc),
    )
    for q in range(2, 51):
        g = Graph.from_edges(q + 1, [(0, i) for i in range(1, q + 1)])
        for name, fn in algorithms:
            bc = fn(g)
            assert abs(bc[0] - 1.0) < 1e-12, (name, q)
            assert all(abs(x) < 1e-12 for x in bc[1:]), (name, q)
    p4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    c4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    for name, fn in algorithms:
        assert fn(p4) == pytest.approx([0, 2 / 3, 2 / 3, 0], abs=1e-12), name
        assert fn(c4) == pytest.approx([1 / 6] * 4, abs=1e-12), name
    report(3, "closed-form families",
           "stars q=2..50, P4 inner 2/3, C4 1/6 across all three exact paths")


def test_criterion_4_zeta_correctness(full_corpus):
    worst = 0.0
    for g in full_corpus:
        one = _one_round(g)
        nt = one.sub.n
        if nt == 0:
            continue
        deg1_sub = [one.decomp.deg1[v] for v in one.kept]
        dist, sigma = oracle_sigma(one.sub)
        sigma_f = sigma.astype(float)
        safe = np.where(sigma > 0, sigma_f, 1.0)
        weights = np.array(deg1_sub, dtype=float)
        expected = np.zeros((nt, nt))
        for u in range(nt):
            ratios = pair_counts_through(dist, sigma, u).astype(float) / safe
            ratios[u, :] = 0.0
            ratios[:, u] = 0.0
            np.fill_diagonal(ratios, 0.0)
            expected[:, u] = ratios @ weights
        for s in range(nt):
            _, zeta = accumulate_delta_zeta(one.sub, s, deg1_sub)
            dev = max_dev(zeta, expected[s])
            worst = max(worst, dev)
            assert dev < 1e-9
    report(4, "zeta correctness",
           f"accumulated rows match the brute-force definition; worst dev {worst:.2e}")


def test_criterion_5_table_stats(tmp_path):
    checked = []
    for name in fixture_names():
        expected_n, expected_m, survivor, two_core = TABLE_STATS[name]
        out = tmp_path / f"{name}.csv"
        assert main(["stats", str(fixture_path(name)), "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            row = next(csv.DictReader(fh))
        assert int(row["n"]) == expected_n, name
        assert int(row["m"]) == expected_m, name
        assert round(float(row["survivor_fraction"]), 2) == survivor, name
        assert round(float(row["two_core_fraction"]), 2) == two_core, name
        checked.append(name)
    assert {"soc-dolphins", "ca-CSphd", "rt_obama"} <= set(checked)
    report(5, "table stats", f"{len(checked)} fixtures match published "
           "n/m/survivor/2-core values to two decimals")


def test_criterion_6_sampling_contract():
    g = er_with_exact_pendants(120, 200, 0.06, seed=6)
    exact = bc_one_round_mem(g).bc
    nt = sum(1 for v in range(g.n) if g.degree(v) != 1)
    assert sample_bc_peeled(g, SampleConfig(k=nt, seed=0)).bc == exact
    assert sample_bc_peeled(g, SampleConfig(k=nt + 50, seed=1)).bc == exact

    truth = brandes_exact(g).bc
    seeds = range(1000)
    worst_sigmas = 0.0
    for estimator in (
        lambda s: sample_bc_peeled(g, SampleConfig(k=10, seed=s)).bc,
        lambda s: sample_bc_baseline(g, SampleConfig(k=10, seed=s)).bc,
    ):
        runs = [estimator(s) for s in seeds]
        for v in range(g.n):
            values = [run[v] for run in runs]
            mean = statistics.fmean(values)
            se = statistics.pstdev(values) / math.sqrt(len(values))
            if se == 0.0:
                assert mean == pytest.approx(truth[v], abs=1e-12)
            else:
                sigmas = abs(mean - truth[v]) / se
                worst_sigmas = max(worst_sigmas, sigmas)
                assert sigmas <= 3.0, f"node {v}: {sigmas:.2f} SE"
    report(6, "sampling contract",
           f"k>=survivors bit-identical; 1000-seed means within 3 SE "
           f"(worst {worst_sigmas:.2f} SE)")


def test_criterion_7_synth_growth_trend(tmp_path):
    start = perf_counter()
    out_dir = tmp_path / "growth"
    assert main([
        "bench", "--suite", "synth-growth", "--k", "10", "--seeds", "5",
        "--v1-grid", "100", "500", "1000", "3000", "--threads", "1",
        "--out", str(out_dir),
    ]) == 0
    means: dict[tuple[int, str], float] = {}
    with open(out_dir / "synth_growth_summary.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            means[(int(row["v1"]), row["method"])] = float(row["mean_rel_l1"])
    assert means[(3000, "peeled")] < means[(3000, "baseline")]
    assert means[(3000, "peeled")] <= means[(100, "peeled")]
    elapsed = perf_counter() - start
    assert elapsed < 300.0, f"criterion 7 took {elapsed:.1f}s (budget 300s)"
    report(7, "estimator error trend",
           f"peeled {means[(3000, 'peeled')]:.4f} < baseline "
           f"{means[(3000, 'baseline')]:.4f} at v1=3000; "
           f"peeled(3000) <= peeled(100); {elapsed:.1f}s")


def test_criterion_8_speedup_property():
    cases = [("core-periphery-3000",
              generate_core_periphery(CorePeripherySpec(50, 3000)))]
    for name in fixture_names():
        g = load_fixture(name)
        if peel_diagnostics(g).survivor_fraction <= 0.5:
            cases.append((name, g))
    assert {name for name, _ in cases} >= {"ca-CSphd", "rt_obama"}
    ratios = []
    for name, g in cases:
        slow = brandes_exact(g)
        fast = bc_one_round_mem(g)
        assert max_dev(slow.bc, fast.bc) < 1e-9
        ratio = slow.elapsed / fast.elapsed
        assert ratio > 1.0, f"{name}: ratio {ratio:.2f}"
        ratios.append(f"{name} {ratio:.1f}x")
    report(8, "one-round speedup", "; ".join(ratios))


def test_criterion_9_determinism(tmp_path):
    dolphins = str(fixture_path("soc-dolphins"))
    obama = str(fixture_path("rt_obama"))
    commands = {
        "exact-csv": ["exact", dolphins, "--algorithm", "peel1",
                      "--threads", "1"],
        "exact-json": ["exact", dolphins, "--algorithm", "peel1",
                       "--threads", "1", "--format", "json"],
        "sample-baseline": ["sample", dolphins, "--k", "10", "--seed", "7",
                            "--method", "baseline"],
        "sample-peeled": ["sample", dolphins, "--k", "10", "--seed", "7",
                          "--method", "peeled"],
        "stats": ["stats", obama],
        "synth": ["synth", "--core", "50", "--v1", "100",
                  "--attachment", "geometric-halving"],
    }
    for name, argv in commands.items():
        outs = []
        for run in (1, 2):
            out = tmp_path / f"{name}-{run}"
            assert main(argv + ["--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1], name

    bench_cases = {
        "pivot_sweep.csv": ["bench", "--suite", "pivot-sweep", dolphins,
                            "--k-grid", "5", "10", "--seeds", "2",
                            "--threads", "1"],
        "synth_growth.csv": ["bench", "--suite", "synth-growth",
                             "--v1-grid", "50", "100", "--seeds", "2",
                             "--k", "5", "--threads", "1"],
    }
    for table, argv in bench_cases.items():
        contents = []
        for run in (1, 2):
            out = tmp_path / f"bench-{table}-{run}"
            assert main(argv + ["--out", str(out)]) == 0
            contents.append((out / table).read_bytes())
        assert contents[0] == contents[1], table
    report(9, "determinism",
           f"{len(commands) + len(bench_cases)} command reruns byte-identical")
