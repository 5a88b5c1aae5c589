"""Tests of the benchmark itself, on a small workload over soc-dolphins."""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from perfbench import inputs, reference, run, speed, tracing  # noqa: E402

SEED = 3


def peelbc_bindings() -> dict[tuple[str, str], object]:
    """Every module-level value of every loaded peelbc module, plus the
    attributes of the Graph class, whose methods the tracer patches."""
    out = {}
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "peelbc" or mod_name.startswith("peelbc."):
            out.update({(mod_name, attr): value for attr, value in vars(mod).items()})
    graph_cls = sys.modules["peelbc.graph"].Graph
    out.update({("Graph", attr): value for attr, value in vars(graph_cls).items()})
    return out


@pytest.fixture()
def runner(tmp_path):
    pytest.importorskip("networkx")
    import peelbc.cli

    workload = inputs.Workload("tiny", ("soc-dolphins",), ("soc-dolphins",), (5,), 2)
    instances = inputs.build_inputs(workload, SEED, ROOT, tmp_path / "inputs")
    refs = reference.load([inst.base for inst in instances.values()], tmp_path / "ref")
    (tmp_path / "out").mkdir()
    with speed.PairedProbe() as paired_probe:
        yield run.Runner(peelbc.cli, workload.jobs(SEED), instances, refs,
                         tmp_path / "out", paired_probe)


def _digests(runner):
    return {j.id: hashlib.sha256(runner.out[j.id].read_bytes()).hexdigest()
            for j in runner.jobs}


def test_traced_pass_writes_same_bytes_and_restores_bindings(runner):
    import peelbc.exact
    import peelbc.sampling

    runner.run_pass()
    untraced = _digests(runner)
    before = peelbc_bindings()
    tracer = tracing.Tracer()
    with tracer.installed():
        # Modules that import sssp_bfs by name see the same wrapper.
        assert peelbc.sampling.sssp_bfs is peelbc.exact.sssp_bfs
        assert peelbc.exact.sssp_bfs is not before[("peelbc.exact", "sssp_bfs")]
        runner.run_pass(tracer)
    after = peelbc_bindings()
    assert [key for key, value in before.items() if after[key] is not value] == []
    assert _digests(runner) == untraced
    assert runner.failures == []

    jobs = {j.id: j for j in runner.jobs}
    parallel = [j.id for j in runner.jobs if j.threads > 1]
    assert {s[0] for s in tracer.spans if s[4] in parallel} == {"exact.run_chunked"}
    metrics = tracing.layer_metrics(tracer, jobs)
    assert metrics["peeling.survivors"] == 53  # soc-dolphins keeps 53 of 62 nodes
    assert metrics["exact.sources"] > 0 and metrics["exact.edge_visits"] > 0
    assert metrics["exact.run_chunked_s"] > 0
    assert 0 < metrics["sampling.setup_share"] < 1
    assert metrics["cli.self_s"] < metrics["cli.main_s"]


def test_rescaling_uses_nearby_probes(runner):
    runner.run_pass()
    start = min(s for starts in runner.starts.values() for s in starts)
    # A machine at half speed throughout: every probe takes twice nominal.
    runner.probes = {n: [(start, 2 * speed.NOMINAL_S[n])] for n in (1, 2)}
    rescaled = runner.rescaled_times()
    for job in runner.jobs:
        assert rescaled[job.id] == pytest.approx([w / 2 for w in runner.times[job.id]])


def test_paired_probe_stops_its_helper():
    with speed.PairedProbe() as paired_probe:
        assert paired_probe() > 0
        helper = paired_probe._helper
    assert not helper.is_alive()


def test_closed_loop_repeats_short_exact_jobs(runner, monkeypatch):
    monkeypatch.setattr(run, "EXACT_SLOT_S", 0.15)
    runner.closed_loop(1.5)
    assert runner.failures == []
    for job in runner.jobs:  # each exact job takes at most ~30 ms
        assert len(runner.times[job.id]) >= (3 if job.exact else 2)


def test_rerun_with_other_bytes_counts_as_failure(runner):
    job = runner.jobs[0]
    runner.run(job)
    runner.digest[job.id] = "0" * 64
    runner.run(job)
    assert runner.attempted == 2
    assert len(runner.failures) == 1


def test_benchmark_json_names_match_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(inputs.WORKLOADS)


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "treelike", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
