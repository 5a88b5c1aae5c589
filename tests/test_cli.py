import csv
import json
import math

import pytest

from peelbc import BcResult, Graph, fixture_path, peel_diagnostics
from peelbc.cli import EXACT_ALGORITHMS, RunRecord, _make_record, main, scores_json

from conftest import corpus

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

    def test_oracle_size_cap_refusal(self, capsys, tmp_path):
        big = tmp_path / "big.edges"
        big.write_text("".join(f"c n{i}\n" for i in range(600)))
        assert main(["exact", str(big), "--algorithm", "oracle"]) == 1
        assert "--force" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore:oracle_bc on n=")
    @pytest.mark.parametrize("algorithm", ["2core-recurrence", "oracle"])
    def test_grid_35_fails_with_one_line(self, algorithm, capsys, tmp_path):
        grid = grid_file(tmp_path, 35)  # corner-to-corner path count C(68, 34) > 2**63
        assert main(["exact", grid, "--algorithm", algorithm]) == 1
        assert "--force" in capsys.readouterr().err
        assert main(["exact", grid, "--algorithm", algorithm, "--force"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "int64" in err
        assert len(err.splitlines()) == 1

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
        assert scores_json(run, rows) == expected
        empty = {"run": run, "scores": []}
        assert scores_json(run, []) == json.dumps(empty, sort_keys=True, indent=2) + "\n"


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
            assert main(["synth", "--core", "10", "--v1", "11", "--seed", "3",
                         "--attachment", "geometric-halving",
                         "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestRunRecord:
    RECORD = RunRecord(
        dataset="g.edges", algorithm="peel1-mem", n=10, m=12, n_tilde=6,
        m_tilde=7, k=3, seed=9, rel_l1=0.125,
        round_fractions=(0.4, 0.1), elapsed=1.5,
    )

    def test_json_object_is_lossless(self):
        obj = self.RECORD.to_json_obj(include_timing=True)
        assert obj == {
            "dataset": "g.edges", "algorithm": "peel1-mem", "n": 10, "m": 12,
            "n_tilde": 6, "m_tilde": 7, "k": 3, "seed": 9, "rel_l1": 0.125,
            "round_fractions": [0.4, 0.1], "elapsed": 1.5,
        }
        assert "elapsed" not in self.RECORD.to_json_obj()

    def test_lean_record_matches_peel_diagnostics(self):
        graphs = corpus(200) + [
            Graph.from_edges(2, [(0, 1)]),
            Graph.from_edges(7, [(0, 1), (2, 3), (3, 4), (4, 2), (4, 5)]),
            Graph.from_edges(5, [(1, 2), (2, 3)]),  # isolated nodes 0 and 4
            Graph.from_edges(1, []),
            Graph.from_edges(0, []),
        ]
        for g in graphs:
            record = _make_record("g", g, BcResult(bc=[], algorithm="x"))
            report = peel_diagnostics(g)
            assert (record.n_tilde, record.m_tilde) == (report.n_tilde, report.m_tilde)
            assert list(record.round_fractions) == report.round_fractions

    def test_csv_row_covers_every_field(self):
        row = self.RECORD.to_csv_row(include_timing=True)
        assert len(row) == len(RunRecord.CSV_FIELDS)
        assert row[:2] == ["g.edges", "peel1-mem"]
        assert row[RunRecord.CSV_FIELDS.index("round_fractions")] == "0.4;0.1"
        assert row[RunRecord.CSV_FIELDS.index("elapsed")] == "1.5"
        # timing withheld by default for reproducible outputs
        assert self.RECORD.to_csv_row()[RunRecord.CSV_FIELDS.index("elapsed")] == ""


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

    def test_speedup_emits_ratio(self, star_file, tmp_path):
        assert main(["bench", "--suite", "speedup", star_file,
                     "--threads", "1", "--out", str(tmp_path)]) == 0
        rows = list(csv.DictReader((tmp_path / "speedup.csv").open()))
        assert len(rows) == 1
        assert float(rows[0]["speedup"]) > 0
