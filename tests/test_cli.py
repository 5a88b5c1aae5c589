import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import peelbc.cli
import peelbc.peeling
from peelbc import BcResult, Graph, fixture_path, load_matrix_market, peel_diagnostics
from peelbc.cli import (
    DEFAULT_K_GRID,
    DEFAULT_V1_GRID,
    EXACT_ALGORITHMS,
    _label_key,
    _run_record,
    label_order,
    main,
    scores_json,
)

from conftest import corpus, diamond_chain

DOLPHINS = str(fixture_path("soc-dolphins"))
WIKI_VOTE = str(fixture_path("soc-wiki-Vote"))


@pytest.fixture
def star_file(tmp_path):
    path = tmp_path / "star.edges"
    path.write_text("c l1\nc l2\nc l3\nc l4\n")
    return str(path)


@pytest.fixture
def p5_file(tmp_path):
    path = tmp_path / "p5.edges"
    path.write_text("0 1\n1 2\n2 3\n3 4\n")
    return str(path)


@pytest.fixture
def escapes_file(tmp_path):
    """Labels json must escape, a two-node component and a self-loop node."""
    path = tmp_path / "escapes.edges"
    path.write_text('a"b c\\d\nc\\d \u00e9\n\u00e9 \u65e5\u672c\n\u65e5\u672c a"b\n'
                    "\u65e5\u672c p\nq1 q2\nz z\n", encoding="utf-8")
    return str(path)


def grid_file(tmp_path, side: int) -> str:
    path = tmp_path / f"grid-{side}.edges"
    path.write_text(
        "".join(f"{r}_{c} {r}_{c + 1}\n" for r in range(side) for c in range(side - 1))
        + "".join(f"{r}_{c} {r + 1}_{c}\n" for r in range(side - 1) for c in range(side))
    )
    return str(path)


def assert_json_dump_bytes(path) -> dict:
    """The file must be byte for byte json.dump(payload, sort_keys=True,
    indent=2) plus a newline, for the payload it holds."""
    data = path.read_bytes()
    payload = json.loads(data)
    assert data == (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode()
    return payload


def read_scores(path) -> dict[str, float]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        assert next(reader) == ["node", "bc"]
        return {row[0]: float(row[1]) for row in reader}


class TestExact:
    def test_star_peel1_scores(self, star_file, tmp_path):
        out = tmp_path / "scores.csv"
        assert main(["exact", star_file, "--algorithm", "peel1",
                     "--out", str(out)]) == 0
        scores = read_scores(out)
        assert scores["c"] == 1.0
        assert all(scores[f"l{i}"] == 0.0 for i in range(1, 5))

    def test_comparison_mode_agrees(self, capsys, tmp_path):
        out = tmp_path / "scores.csv"
        code = main(["exact", DOLPHINS, "--algorithm", "brandes",
                     "--compare-with", "peel1", "--threads", "1",
                     "--out", str(out)])
        assert code == 0
        err = capsys.readouterr().err
        line = next(l for l in err.splitlines() if "max_abs_diff" in l)
        diff = float(line.split("max_abs_diff=")[1].split()[0])
        assert diff < 1e-9

    def test_unreadable_path_fails(self, capsys, tmp_path):
        assert main(["exact", str(tmp_path / "missing.edges")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_parse_error_fails(self, capsys, tmp_path):
        bad = tmp_path / "bad.edges"
        bad.write_text("a b c\n")
        assert main(["exact", str(bad)]) == 1
        assert "line 1" in capsys.readouterr().err

    def test_oversized_mtx_declaration_fails_with_one_line(self, capsys, tmp_path):
        huge = tmp_path / "huge.mtx"
        huge.write_text("%%MatrixMarket matrix coordinate pattern symmetric\n"
                        "1000000000000 1000000000000 0\n")
        assert main(["exact", str(huge)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: line 2:") and err.count("\n") == 1

    def test_oracle_size_cap_refusal(self, capsys, tmp_path):
        big = tmp_path / "big.edges"
        big.write_text("".join(f"c n{i}\n" for i in range(600)))
        assert main(["exact", str(big), "--algorithm", "oracle"]) == 1
        assert "--force" in capsys.readouterr().err

    def test_2core_recurrence_has_no_size_cap(self, tmp_path):
        big = tmp_path / "big.edges"
        big.write_text("".join(f"c n{i}\n" for i in range(600)))
        scores = {}
        for algorithm in ("2core-recurrence", "brandes"):
            out = tmp_path / f"{algorithm}.json"
            assert main(["exact", str(big), "--algorithm", algorithm, "--threads", "1",
                         "--format", "json", "--out", str(out)]) == 0
            payload = json.loads(out.read_text())
            scores[algorithm] = [row["bc"] for row in payload["scores"]]
        assert scores["2core-recurrence"] == pytest.approx(scores["brandes"], abs=1e-12)

    @pytest.mark.filterwarnings("ignore:oracle_bc on n=")
    @pytest.mark.parametrize("algorithm", ["oracle"])
    def test_grid_35_fails_with_one_line(self, algorithm, capsys, tmp_path):
        grid = grid_file(tmp_path, 35)  # corner-to-corner path count C(68, 34) > 2**63
        assert main(["exact", grid, "--algorithm", algorithm]) == 1
        assert "--force" in capsys.readouterr().err
        assert main(["exact", grid, "--algorithm", algorithm, "--force"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "int64" in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("argv", [
        ["exact", "--algorithm", "brandes", "--threads", "1"],
        ["exact", "--algorithm", "peel1", "--threads", "1"],
        ["sample", "--method", "baseline", "--k", "3"],
    ], ids=["brandes", "peel1", "sample-baseline"])
    def test_path_counts_past_float_range_fail_with_one_line(self, argv, capsys, tmp_path):
        chain = tmp_path / "chain.edges"  # 2**2100 end-to-end paths
        chain.write_text("".join(f"{u} {v}\n" for u, v in diamond_chain(2100).edges()))
        out = tmp_path / "scores.csv"
        assert main([argv[0], str(chain), *argv[1:], "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["exact", DOLPHINS, "--threads", "0"],
        ["exact", DOLPHINS, "--algorithm", "brandes", "--threads", "-4"],
        ["bench", "--suite", "pivot-sweep", DOLPHINS, "--threads", "0"],
    ], ids=["exact-0", "exact-neg", "bench-0"])
    def test_threads_below_one_fail_with_one_line(self, argv, capsys, tmp_path):
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --threads") and len(err.splitlines()) == 1
        assert not out.exists()

    def test_json_output_with_metadata(self, star_file, tmp_path):
        out = tmp_path / "scores.json"
        assert main(["exact", star_file, "--algorithm", "peel1",
                     "--format", "json", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["run"]["algorithm"] == "peel1-mem"
        assert payload["run"]["n"] == 5
        assert "elapsed" not in payload["run"]
        scores = {row["node"]: row["bc"] for row in payload["scores"]}
        assert scores["c"] == 1.0

    def test_timing_flag_serializes_elapsed(self, star_file, tmp_path):
        out = tmp_path / "scores.json"
        assert main(["exact", star_file, "--format", "json", "--timing",
                     "--out", str(out)]) == 0
        assert "elapsed" in json.loads(out.read_text())["run"]

    def test_mtx_input(self, tmp_path):
        out = tmp_path / "scores.csv"
        assert main(["exact", WIKI_VOTE, "--algorithm", "peel1",
                     "--out", str(out)]) == 0
        assert len(read_scores(out)) == 889

    @pytest.mark.parametrize("algorithm", ["brandes", "peel1"])
    def test_threads_2_on_small_input_is_serial(self, algorithm, monkeypatch, tmp_path):
        # soc-dolphins is below FORK_MIN_WORK: one chunk, no child process.
        outs = {t: tmp_path / f"t{t}.json" for t in (1, 2)}
        assert main(["exact", DOLPHINS, "--algorithm", algorithm, "--threads", "1",
                     "--format", "json", "--out", str(outs[1])]) == 0

        def no_fork():
            raise AssertionError("forked a chunk process for a small input")

        monkeypatch.setattr(os, "fork", no_fork)
        assert main(["exact", DOLPHINS, "--algorithm", algorithm, "--threads", "2",
                     "--format", "json", "--out", str(outs[2])]) == 0
        assert outs[2].read_bytes() == outs[1].read_bytes()

    @pytest.mark.parametrize("algorithm", ["brandes", "peel1", "2core-recurrence"])
    @pytest.mark.parametrize("fixture", ["rt_obama", "email-univ", "soc-wiki-Vote"])
    def test_score_files_do_not_depend_on_threads(self, fixture, algorithm, tmp_path):
        # Each input is above FORK_MIN_WORK, so --threads 2 and 3 fork.
        path = str(fixture_path(fixture))
        for fmt in ("json", "csv"):
            outs = [tmp_path / f"t{threads}.{fmt}" for threads in (1, 2, 3)]
            for threads, out in zip((1, 2, 3), outs):
                assert main(["exact", path, "--algorithm", algorithm,
                             "--threads", str(threads), "--format", fmt,
                             "--out", str(out)]) == 0
            assert outs[1].read_bytes() == outs[0].read_bytes(), fmt
            assert outs[2].read_bytes() == outs[0].read_bytes(), fmt


class TestScoreWriter:
    @pytest.mark.parametrize("algorithm", EXACT_ALGORITHMS)
    def test_exact_json_is_json_dump(self, algorithm, escapes_file, tmp_path):
        out = tmp_path / "scores.json"
        assert main(["exact", escapes_file, "--algorithm", algorithm,
                     "--threads", "1", "--format", "json", "--out", str(out)]) == 0
        payload = assert_json_dump_bytes(out)
        assert {row["node"] for row in payload["scores"]} == {
            'a"b', "c\\d", "\u00e9", "\u65e5\u672c", "p", "q1", "q2", "z"}

    def test_timing(self, escapes_file, tmp_path):
        out = tmp_path / "scores.json"
        assert main(["exact", escapes_file, "--format", "json", "--timing",
                     "--threads", "2", "--out", str(out)]) == 0
        assert "elapsed" in assert_json_dump_bytes(out)["run"]

    @pytest.mark.parametrize("method", ["peeled", "baseline"])
    def test_sample_with_truth(self, method, tmp_path):
        truth = tmp_path / "truth.csv"
        assert main(["exact", DOLPHINS, "--out", str(truth)]) == 0
        out = tmp_path / "est.json"
        assert main(["sample", DOLPHINS, "--k", "5", "--seed", "11",
                     "--method", method, "--truth", str(truth),
                     "--format", "json", "--out", str(out)]) == 0
        assert assert_json_dump_bytes(out)["run"]["rel_l1"] > 0

    @pytest.mark.parametrize("text", ["", "a a\n", "a b\n"])
    def test_tiny_graphs(self, text, tmp_path):
        path = tmp_path / "tiny.edges"
        path.write_text(text)
        out = tmp_path / "scores.json"
        assert main(["exact", str(path), "--format", "json", "--out", str(out)]) == 0
        assert len(assert_json_dump_bytes(out)["scores"]) == len(set(text.split()))

    def test_non_finite_and_non_float_values(self):
        run = {"rel_l1": math.inf, "round_fractions": [], "dataset": "x\ny"}
        rows = [("n", math.nan), ("i", math.inf), ("-i", -math.inf), ("zero", 0),
                ("big", 1e300), ("tiny", 5e-324), ("neg", -0.0), ("\x00\u2028", 0.1)]
        payload = {"run": run, "scores": [{"node": a, "bc": b} for a, b in rows]}
        expected = json.dumps(payload, sort_keys=True, indent=2) + "\n"
        assert scores_json(run, *zip(*rows)) == expected
        empty = {"run": run, "scores": []}
        assert scores_json(run, [], []) == json.dumps(empty, sort_keys=True, indent=2) + "\n"

    def test_one_nan_among_finite_values(self):
        run = {"n": 3}
        rows = [("a", 0.25), ("b", math.nan), ("c", 1e-300)]
        payload = {"run": run, "scores": [{"node": a, "bc": b} for a, b in rows]}
        assert scores_json(run, *zip(*rows)) == json.dumps(
            payload, sort_keys=True, indent=2) + "\n"


def reference_label_order(g: Graph) -> list[int]:
    return sorted(range(g.n), key=lambda v: _label_key(g.labels[v]))


@pytest.mark.parametrize("labels", [
    ["5", "05", "+5", "-3", " 7", "1_000", "\u0663", "a", ""],
    ["5", "05", "+5", "-3", " 7", "1_000", "\u0663", "3", "-3"],
    ["b", "a", "10", "9", "a"],
    [],
])
def test_label_order_matches_per_label_keys(labels):
    g = Graph([[] for _ in labels], labels)
    assert label_order(g) == reference_label_order(g)


def test_label_order_of_mtx_int_labels():
    g = load_matrix_market(
        b"%%MatrixMarket matrix coordinate pattern general\n12 12 2\n12 1\n3 10\n")
    assert g.labels == list(range(1, 13))
    assert label_order(g) == reference_label_order(g) == list(range(12))


class TestSample:
    def test_rerun_byte_identical(self, star_file, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert main(["sample", star_file, "--k", "2", "--seed", "7",
                         "--method", "baseline", "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_zero_pivots_rejected(self, star_file, capsys):
        assert main(["sample", star_file, "--k", "0"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_truth_file_reports_error_metric(self, star_file, tmp_path):
        truth = tmp_path / "truth.csv"
        assert main(["exact", star_file, "--algorithm", "brandes",
                     "--out", str(truth)]) == 0
        out = tmp_path / "est.json"
        assert main(["sample", star_file, "--k", "1", "--seed", "3",
                     "--method", "peeled", "--truth", str(truth),
                     "--format", "json", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["run"]["rel_l1"] == 0.0  # star estimate is exact

    def test_mismatched_truth_rejected(self, star_file, p5_file, tmp_path, capsys):
        truth = tmp_path / "truth.csv"
        assert main(["exact", p5_file, "--out", str(truth)]) == 0
        assert main(["sample", star_file, "--k", "1", "--truth", str(truth)]) == 1
        assert "node set" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["peeled", "baseline"])
    def test_retired_exact_y_sources_flag_is_a_usage_error(self, method, tmp_path):
        out = tmp_path / "scores.csv"
        with pytest.raises(SystemExit) as exc:
            main(["sample", DOLPHINS, "--method", method, "--k", "5",
                  "--exact-y-sources", "--out", str(out)])
        assert exc.value.code == 2
        assert not out.exists()


class TestStats:
    def test_path_p5(self, p5_file, tmp_path):
        out = tmp_path / "stats.csv"
        assert main(["stats", p5_file, "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            reader = csv.DictReader(fh)
            row = next(reader)
        assert row["n"] == "5"
        assert row["istar"] == "2"
        assert row["round_fractions"] == "0.4;0.4"

    def test_json_format(self, star_file, tmp_path):
        out = tmp_path / "stats.json"
        assert main(["stats", star_file, "--format", "json",
                     "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["delta1"] == 4
        assert payload["deg1_histogram"] == {"4": 1}

    def test_rerun_byte_identical(self, p5_file, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert main(["stats", p5_file, "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestSynth:
    def test_writes_edge_list(self, tmp_path):
        out = tmp_path / "g.edges"
        assert main(["synth", "--core", "50", "--v1", "100",
                     "--out", str(out)]) == 0
        labels = set()
        for line in out.read_text().splitlines():
            labels.update(line.split())
        assert len(labels) == 150

    def test_periphery_free(self, tmp_path):
        out = tmp_path / "g.edges"
        assert main(["synth", "--core", "50", "--v1", "0",
                     "--out", str(out)]) == 0
        labels = set()
        for line in out.read_text().splitlines():
            labels.update(line.split())
        assert len(labels) == 50

    def test_core_too_small_rejected(self, capsys):
        assert main(["synth", "--core", "2", "--v1", "5"]) == 1
        assert "core_size" in capsys.readouterr().err

    def test_rerun_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.edges", tmp_path / "b.edges"
        for out in (a, b):
            assert main(["synth", "--core", "10", "--v1", "11",
                         "--attachment", "geometric-halving",
                         "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestRunRecord:
    def test_json_object_is_lossless(self):
        # a triangle 1-2-3 with pendants 0 and 4
        g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 1), (3, 4)])
        result = BcResult(bc=[0.0] * 5, algorithm="peel1-mem", k=3, seed=9, elapsed=1.5)
        assert _run_record("g.edges", g, result, 0.125, timing=True) == {
            "dataset": "g.edges", "algorithm": "peel1-mem", "n": 5, "m": 5,
            "n_tilde": 3, "m_tilde": 3, "k": 3, "seed": 9, "rel_l1": 0.125,
            "round_fractions": [0.4], "elapsed": 1.5,
        }
        assert "elapsed" not in _run_record("g.edges", g, result, 0.125, timing=False)

    def test_lean_record_matches_peel_diagnostics(self):
        graphs = corpus(200) + [
            Graph.from_edges(2, [(0, 1)]),
            Graph.from_edges(7, [(0, 1), (2, 3), (3, 4), (4, 2), (4, 5)]),
            Graph.from_edges(5, [(1, 2), (2, 3)]),  # isolated nodes 0 and 4
            Graph.from_edges(1, []),
            Graph.from_edges(0, []),
        ]
        for g in graphs:
            run = _run_record("g", g, BcResult(bc=[], algorithm="x"), None, timing=False)
            report = peel_diagnostics(g)
            assert (run["n_tilde"], run["m_tilde"]) == (report.n_tilde, report.m_tilde)
            assert run["round_fractions"] == report.round_fractions

    @pytest.mark.parametrize("argv, fmt, peels", [
        (["exact", "--algorithm", "peel1", "--threads", "1"], "json", 1),
        (["exact", "--algorithm", "brandes", "--threads", "1"], "json", 1),
        (["sample", "--method", "peeled", "--k", "5"], "json", 1),
        (["sample", "--method", "peeled", "--k", "62"], "json", 1),
        (["exact", "--algorithm", "peel1", "--threads", "1"], "csv", 1),
        (["exact", "--algorithm", "brandes", "--threads", "1"], "csv", 0),
        (["sample", "--method", "peeled", "--k", "5"], "csv", 1),
        (["sample", "--method", "baseline", "--k", "5"], "csv", 0),
    ], ids=["peel1", "brandes", "peeled", "peeled-exact",
            "peel1-csv", "brandes-csv", "peeled-csv", "baseline-csv"])
    def test_one_peel_per_call(self, argv, fmt, peels, monkeypatch, tmp_path):
        """A JSON run record reuses the algorithm's peel, and a call that
        ran none (brandes) peels once for it; a CSV file has no record,
        so its call peels only as often as its algorithm does."""
        calls = []
        real = peelbc.graph.peel

        def spy(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(peelbc.cli, "peel", spy)
        monkeypatch.setattr(peelbc.peeling, "peel", spy)
        out = tmp_path / "scores"
        assert main([argv[0], DOLPHINS, *argv[1:], "--format", fmt,
                     "--out", str(out)]) == 0
        assert len(calls) == peels
        if fmt == "json":
            run = json.loads(out.read_text())["run"]
            report = peel_diagnostics(peelbc.cli.read_graph(DOLPHINS))
            assert (run["n_tilde"], run["m_tilde"]) == (report.n_tilde, report.m_tilde)
            assert run["round_fractions"] == report.round_fractions


class TestBench:
    def test_pivot_sweep_rows_and_determinism(self, tmp_path):
        args = ["bench", "--suite", "pivot-sweep", DOLPHINS,
                "--k-grid", "5", "10", "--seeds", "2", "--threads", "1"]
        out1, out2 = tmp_path / "run1", tmp_path / "run2"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        table = (out1 / "pivot_sweep.csv").read_bytes()
        assert table == (out2 / "pivot_sweep.csv").read_bytes()
        rows = list(csv.DictReader((out1 / "pivot_sweep.csv").open()))
        # 2 methods x 2 k values x 2 seeds
        assert len(rows) == 8
        assert {r["method"] for r in rows} == {"baseline", "peeled"}

    def test_pivot_sweep_needs_datasets(self, tmp_path, capsys):
        assert main(["bench", "--suite", "pivot-sweep",
                     "--out", str(tmp_path)]) == 1
        assert "dataset" in capsys.readouterr().err

    def test_synth_growth_small_grid(self, tmp_path):
        args = ["bench", "--suite", "synth-growth", "--v1-grid", "50", "100",
                "--seeds", "2", "--k", "5", "--threads", "1",
                "--out", str(tmp_path / "out")]
        assert main(args) == 0
        summary = list(csv.DictReader((tmp_path / "out" / "synth_growth_summary.csv").open()))
        assert {(r["v1"], r["method"]) for r in summary} == {
            ("50", "baseline"), ("50", "peeled"),
            ("100", "baseline"), ("100", "peeled"),
        }


class TestCachedParser:
    """main reuses one parser for every call in a process; no call may
    see what an earlier one parsed."""

    def test_flag_does_not_carry_over(self, star_file, tmp_path):
        json_out, csv_out = tmp_path / "a.json", tmp_path / "b.csv"
        assert main(["exact", star_file, "--format", "json", "--out", str(json_out)]) == 0
        assert main(["exact", star_file, "--out", str(csv_out)]) == 0
        assert json.loads(json_out.read_text())["scores"]
        assert csv_out.read_text().startswith("node,bc\n")

    def test_truth_does_not_carry_over(self, star_file, tmp_path):
        truth = tmp_path / "truth.csv"
        assert main(["exact", star_file, "--out", str(truth)]) == 0
        outs = [tmp_path / "with_truth.json", tmp_path / "without.json"]
        assert main(["sample", star_file, "--k", "2", "--truth", str(truth),
                     "--format", "json", "--out", str(outs[0])]) == 0
        assert main(["sample", star_file, "--k", "2",
                     "--format", "json", "--out", str(outs[1])]) == 0
        assert json.loads(outs[0].read_text())["run"]["rel_l1"] is not None
        assert json.loads(outs[1].read_text())["run"]["rel_l1"] is None

    def test_error_exits_leave_later_calls_as_in_a_fresh_process(
            self, star_file, tmp_path, capsys):
        argv = ["exact", star_file, "--algorithm", "brandes", "--format", "json"]
        fresh = tmp_path / "fresh.json"
        src = str(Path(peelbc.cli.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        proc = subprocess.run([sys.executable, "-m", "peelbc.cli", *argv, "--out", str(fresh)],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr

        assert main([*argv, "--threads", "0"]) == 1
        assert "--threads must be at least 1" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--no-such-flag"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit):
            main(["sample", star_file])  # --k is required
        out = tmp_path / "after.json"
        assert main([*argv, "--out", str(out)]) == 0
        assert out.read_bytes() == fresh.read_bytes()

    def test_list_defaults_come_back_unchanged(self, monkeypatch, tmp_path):
        seen = []

        def suite(args):
            seen.append((list(args.v1_grid), list(args.k_grid)))
            # Extends a list default in place; rebinds a tuple on args only.
            args.v1_grid += (1,)
            args.k_grid += (1,)
            return 0

        monkeypatch.setattr(peelbc.cli, "bench_synth_growth", suite)
        monkeypatch.setattr(peelbc.cli, "bench_pivot_sweep", suite)
        out = str(tmp_path)
        defaults = (list(DEFAULT_V1_GRID), list(DEFAULT_K_GRID))
        assert main(["bench", "--suite", "synth-growth", "--out", out]) == 0
        assert main(["bench", "--suite", "pivot-sweep", DOLPHINS, "--out", out,
                     "--v1-grid", "7", "--k-grid", "3"]) == 0
        assert main(["bench", "--suite", "pivot-sweep", DOLPHINS, "--out", out]) == 0
        assert seen == [defaults, ([7], [3]), defaults]
