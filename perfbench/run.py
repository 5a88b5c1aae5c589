#!/usr/bin/env python3
"""Closed-loop benchmark of the peelbc command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client calls ``peelbc.cli.main(argv)`` in-process; the next call
starts only when the previous one has returned, so each timed job runs
from argv to its score file being closed.  Every output is checked: exact
scores against networkx reference scores at 1e-9, sample outputs for
sanity, and every rerun of a job must reproduce its first output byte for
byte.  Wall times are rescaled to a nominal machine speed by a probe
timed after every job (speed.py).  ``--workload all`` runs each workload
in turn in a child process.

With ``--trace 0`` the last line of stdout is a JSON object holding the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of
a traced pass (see tracing.py), measured next to an untraced pass.
Details, per-job samples, run metadata and the spans go to
``perfbench/.work/results/``.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "perfbench" / ".work"
sys.path.insert(0, str(ROOT))

from perfbench import inputs, reference, speed, tracing  # noqa: E402

EXACT_TOLERANCE = 1e-9
SETUP_PROBES = 4  # set-ups in fresh processes before and again after the jobs
PROBE_TIMEOUT_S = 170
PROBE_NEIGHBOURS = 2  # fewest probes on each side of a run that rescale its time
EXACT_SLOT_S = 0.4  # an exact job repeats in its slot until this much time is spent

E2E_UNITS = {
    "brandes_s": "s",
    "peel1_s": "s",
    "peel1_t2_s": "s",
    "sample_peeled_s": "s",
    "sample_baseline_s": "s",
    "sample_peeled_rel_l1": "ratio",
    "sample_baseline_rel_l1": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def timed_setup(workload, seed: int, input_dir: Path):
    """Import the program, generate the inputs and load each one once."""
    start = perf_counter()
    importlib.import_module("peelbc.cli")
    instances = inputs.build_inputs(workload, seed, ROOT, input_dir)
    read_graph = sys.modules["peelbc.graph"].read_graph
    for inst in instances.values():
        read_graph(inst.path)
    return perf_counter() - start, instances


def at_nominal_speed(seconds: float, probe_before: float, probe_after: float) -> float:
    """A time rescaled to the nominal machine speed by the speed probes
    taken just before and just after it."""
    return seconds * speed.NOMINAL_S[1] / statistics.fmean((probe_before, probe_after))


def probe_setup(workload: str, seed: int) -> float:
    """One set-up in a fresh interpreter, so the import is cold again;
    returns its time at the nominal machine speed."""
    before = speed.probe()
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, check=True, timeout=PROBE_TIMEOUT_S,
    )
    return at_nominal_speed(json.loads(proc.stdout.splitlines()[-1])["setup_s"],
                            before, speed.probe())


def rel_l1(est: dict, ref: dict) -> float:
    return sum(abs(est[v] - ref[v]) for v in ref) / sum(ref.values())


class Runner:
    """Runs jobs through the CLI, times them and checks every output."""

    def __init__(self, cli, jobs, instances, references, out_dir: Path,
                 paired_probe: speed.PairedProbe):
        self.cli = cli
        self.paired_probe = paired_probe
        self.jobs = jobs
        self.paths = {g: inst.path for g, inst in instances.items()}
        self.expected = {
            g: dict(zip(inst.labels, references[g])) for g, inst in instances.items()
        }
        self.out = {job.id: out_dir / f"{i:04d}.json" for i, job in enumerate(jobs)}
        self.times = {job.id: [] for job in jobs}  # untraced wall times
        self.starts = {job.id: [] for job in jobs}  # and when each run started
        self.digest: dict[str, str] = {}  # first output of each job
        self.records: dict[str, dict] = {}  # run record of each job's output
        self.rel_l1: dict[str, float] = {}
        self.out_bytes: dict[str, int] = {}
        self.attempted = 0
        self.failures: list[str] = []
        # (when, speed probe seconds) after the jobs on 1 and on 2 cores
        self.probes: dict[int, list[tuple[float, float]]] = {1: [], 2: []}

    def run(self, job, tracer=None) -> float:
        """Run one job; returns its wall time (recorded only when untraced)."""
        argv = job.argv(self.paths[job.graph], self.out[job.id])
        gc.collect()  # each CLI process starts without the last job's garbage
        if tracer is not None:
            tracer.start_job(job.id, job.threads)
        with contextlib.redirect_stderr(io.StringIO()):
            start = perf_counter()
            try:
                status = self.cli.main(argv)
            except (Exception, SystemExit):  # a failed job is counted, not fatal
                status = traceback.format_exc(limit=3)
            wall = perf_counter() - start
        self.attempted += 1
        if status != 0:
            problem = f"exit status {status!r}"
        else:
            try:
                problem = self.check(job)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                problem = f"unreadable output: {exc!r}"
        if problem:
            self.failures.append(f"{job.id}: {problem}")
        if tracer is None:
            self.times[job.id].append(wall)
            self.starts[job.id].append(start)
            gc.collect()  # the job's garbage must not slow the probe
            took = speed.probe() if job.threads == 1 else self.paired_probe()
            self.probes[job.threads].append((perf_counter(), took))
        return wall

    def check(self, job) -> str | None:
        data = self.out[job.id].read_bytes()
        self.out_bytes[job.id] = len(data)
        digest = hashlib.sha256(data).hexdigest()
        first = self.digest.setdefault(job.id, digest)
        if digest != first:
            return "output differs from the job's first run"
        if job.id in self.records:
            return None  # same bytes as an output already checked
        payload = json.loads(data)
        scores = {row["node"]: row["bc"] for row in payload["scores"]}
        ref = self.expected[job.graph]
        if len(scores) != len(payload["scores"]) or scores.keys() != ref.keys():
            return "node set differs from the input's"
        if job.exact:
            worst = max(abs(scores[v] - ref[v]) for v in ref)
            if not worst <= EXACT_TOLERANCE:
                return f"max |bc - reference| = {worst:.3e} > {EXACT_TOLERANCE}"
        else:
            if not all(math.isfinite(x) and x >= 0.0 for x in scores.values()):
                return "estimate not finite or negative"
            # A node on no shortest path has zero dependency from every pivot.
            if any(scores[v] != 0.0 for v, x in ref.items() if x == 0.0):
                return "nonzero estimate on a node of zero betweenness"
            self.rel_l1[job.id] = rel_l1(scores, ref)
        self.records[job.id] = payload["run"]
        return None

    def run_pass(self, tracer=None) -> float:
        """Every job once, in list order; returns the summed wall time."""
        return sum(self.run(job, tracer) for job in self.jobs)

    def run_slot(self, job, deadline: float) -> None:
        """An exact job's turn in a round: runs of it back to back until
        EXACT_SLOT_S have passed, so that a job of a few milliseconds is
        sampled as often as its noise needs.  A run starts only if it would
        end before the deadline, as judged by the job's last run."""
        slot_end = perf_counter() + EXACT_SLOT_S
        runs = self.times[job.id]
        while not runs or perf_counter() + runs[-1] < deadline:
            self.run(job)
            if perf_counter() >= slot_end:
                return

    def closed_loop(self, seconds: float) -> None:
        """Rounds until the deadline: each exact job's slot (run_slot),
        then every sample call once.  Every job runs at least once and
        every sample call at least twice (the rerun check).  After the
        first round the exact jobs go longest first and all before the
        sample calls, so that jobs of several seconds get a second run."""
        exact = [job for job in self.jobs if job.exact]
        sample = [job for job in self.jobs if not job.exact]
        deadline = perf_counter() + seconds
        while True:
            for job in exact:
                self.run_slot(job, deadline)
            for job in sample:
                if len(self.times[job.id]) < 2 or perf_counter() < deadline:
                    self.run(job)
            if perf_counter() >= deadline:
                break
            exact.sort(key=lambda job: self.times[job.id][-1], reverse=True)

    def per_graph(self, kind: str, times=None) -> dict[str, float]:
        """Median time of each graph's job of an exact kind."""
        times = self.times if times is None else times
        return {j.graph: statistics.median(times[j.id])
                for j in self.jobs if j.kind == kind and times[j.id]}

    def rescaled_times(self) -> dict[str, list[float]]:
        """Wall times rescaled to the nominal machine speed: each run times
        nominal / (median of the probes taken within one run's length
        before and after it, and of at least PROBE_NEIGHBOURS on each side).
        The machine's speed changes within a second, so only the probes
        near a run tell its speed.  A --threads 2 job is rescaled by the
        paired probes that follow such jobs."""
        out = {}
        for job in self.jobs:
            when = [t for t, _ in self.probes[job.threads]]
            took = [p for _, p in self.probes[job.threads]]
            out[job.id] = []
            for start, wall in zip(self.starts[job.id], self.times[job.id]):
                after = bisect.bisect_left(when, start)  # the probe that follows the run
                lo = min(bisect.bisect_left(when, start - wall), after - PROBE_NEIGHBOURS)
                hi = max(bisect.bisect_right(when, start + 2 * wall), after + PROBE_NEIGHBOURS)
                local = statistics.median(took[max(0, lo):hi])
                out[job.id].append(wall * speed.NOMINAL_S[job.threads] / local)
        return out

    def e2e_metrics(self) -> dict[str, float]:
        """Exact kinds: per-graph medians summed over the graphs.  Sample
        kinds: per-call medians and relative l1 errors, averaged over calls.
        Times are rescaled to the nominal machine speed (rescaled_times)."""
        times = self.rescaled_times()
        out = {f"{kind}_s": sum(self.per_graph(kind, times).values())
               for kind in inputs.EXACT_KINDS}
        for kind in inputs.SAMPLE_KINDS:
            jobs = [j for j in self.jobs if j.kind == kind]
            out[f"{kind}_s"] = statistics.fmean(
                statistics.median(times[j.id]) for j in jobs)
            errors = [self.rel_l1[j.id] for j in jobs if j.id in self.rel_l1]
            out[f"{kind}_rel_l1"] = statistics.fmean(errors) if errors else None
        return out


def tail(samples: list[float]) -> str:
    """Median, the highest percentile with at least ten samples beyond it, count."""
    xs = sorted(samples)
    text = f"n={len(xs)} median={statistics.median(xs):.4f}"
    for p in (99.9, 99, 95, 90, 75):
        rank = math.ceil(p / 100 * len(xs))
        if len(xs) - rank >= 10:
            return text + f" p{p:g}={xs[rank - 1]:.4f}"
    return text


def baseline_table(runner) -> list[str]:
    """Brandes vs peel1 per graph, measured speedup next to predicted work ratio."""
    brandes, peel1 = runner.per_graph("brandes"), runner.per_graph("peel1")
    rows = ["graph            n      m  n_tilde  m_tilde  brandes_s  peel1_s  "
            "measured_speedup  predicted_work_ratio"]
    for graph in brandes:
        rec = runner.records.get(f"peel1:{graph}")
        if rec is None or graph not in peel1:
            continue
        predicted = rec["n"] * rec["m"] / max(1, rec["n_tilde"] * rec["m_tilde"])
        rows.append(f"{graph:<14} {rec['n']:>5} {rec['m']:>6} {rec['n_tilde']:>8} "
                    f"{rec['m_tilde']:>8} {brandes[graph]:>10.4f} {peel1[graph]:>8.4f} "
                    f"{brandes[graph] / peel1[graph]:>17.2f} {predicted:>21.2f}")
    return rows


def metadata(workload: str, seed: int, instances) -> dict:
    cpu = None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = None
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10, check=True)
        lines = top.stdout.split()
        if Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    return {
        "workload": workload,
        "seed": seed,
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": importlib.import_module("numpy").__version__,
        "commit": commit,
        "inputs": {
            g: {"file": str(inst.path.relative_to(ROOT)), "sha256": inst.sha256,
                "base_sha256": inst.base.key, "n": inst.base.n, "m": len(inst.base.edges)}
            for g, inst in instances.items()
        },
    }


def measure_layers(runner, by_id: dict, seconds: float, synth_s: float):
    """Untraced and traced passes in pairs while another pair fits before
    the deadline (at least one pair); per-layer metrics are medians over
    the traced passes.  Returns them with the first pass's tracer."""
    deadline = perf_counter() + seconds
    passes = []
    pair_s = 0.0
    while not passes or perf_counter() + pair_s < deadline:
        pair_start = perf_counter()
        plain = runner.run_pass()
        tracer = tracing.Tracer()
        with tracer.installed():
            traced = runner.run_pass(tracer)
        pair_s = perf_counter() - pair_start
        walls = {i: runner.times[i][-1] for i in by_id}
        kind_sum = {kind: sum(w for i, w in walls.items() if by_id[i].kind == kind)
                    for kind in inputs.EXACT_KINDS}
        metrics = tracing.layer_metrics(tracer, by_id)
        metrics.update({
            "exact.parallel_speedup": kind_sum["peel1"] / kind_sum["peel1_t2"],
            "peeling.measured_speedup": kind_sum["brandes"] / kind_sum["peel1"],
            "cli.output_bytes": sum(runner.out_bytes.values()),
            "synth.generate_core_periphery_s": synth_s,
            "trace.overhead_s": traced - plain,
            "trace.overhead_share": (traced - plain) / plain,
        })
        passes.append((metrics, tracer))
    medians = {name: statistics.median(m[name] for m, _ in passes)
               for name in tracing.LAYER_UNITS}
    return medians, passes[0][1]


def run_workload(args) -> int:
    workload = inputs.WORKLOADS[args.workload]
    wdir = WORK / workload.name
    shutil.rmtree(wdir, ignore_errors=True)
    (wdir / "out").mkdir(parents=True)
    before = speed.probe()
    setup_s, instances = timed_setup(workload, args.seed, wdir / "inputs")
    setups = [at_nominal_speed(setup_s, before, speed.probe())]
    peelbc = sys.modules["peelbc"]
    if not Path(peelbc.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: peelbc imported from {peelbc.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if not args.trace:
        setups += [probe_setup(workload.name, args.seed) for _ in range(SETUP_PROBES)]
    if args.trace:  # once more under the tracer, for the synth layer
        setup_tracer = tracing.Tracer()
        with setup_tracer.installed():
            inputs.build_inputs(workload, args.seed, ROOT, wdir / "traced-setup")
        synth_s = sum(end - start for name, start, end, *_ in setup_tracer.spans
                      if name == "synth.generate_core_periphery")
    references = reference.load([inst.base for inst in instances.values()], WORK / "ref")
    jobs = workload.jobs(args.seed)
    by_id = {j.id: j for j in jobs}
    meta = metadata(workload.name, args.seed, instances)

    gc.collect()
    gc.freeze()  # keep the benchmark's own objects out of the jobs' collections
    with speed.PairedProbe() as paired_probe:
        runner = Runner(sys.modules["peelbc.cli"], jobs, instances, references,
                        wdir / "out", paired_probe)
        if args.trace:
            values, tracer = measure_layers(runner, by_id, args.seconds, synth_s)
            units = tracing.LAYER_UNITS
        else:
            runner.closed_loop(args.seconds)
            setups += [probe_setup(workload.name, args.seed) for _ in range(SETUP_PROBES)]
            values = runner.e2e_metrics()
            values["setup_s"] = statistics.median(setups)
            values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            units = E2E_UNITS
    gc.unfreeze()

    failed = len(runner.failures)
    lines = [f"perfbench workload={workload.name} seed={args.seed} "
             f"seconds={args.seconds} trace={args.trace}",
             "machine: " + " ".join(f"{k}={meta[k]}" for k in
                                    ("cpu_count", "cpu_model", "python", "numpy", "commit"))]
    lines += [f"input {g}: n={d['n']} m={d['m']} sha256={d['sha256']}"
              for g, d in meta["inputs"].items()]
    lines += [f"{name} = {values[name]!r} {unit}" for name, unit in units.items()]
    lines.append(f"failed_ratio = {failed / runner.attempted!r} "
                 f"({failed} of {runner.attempted} jobs)")
    if not args.trace:
        wall = {f"{kind}_s": sum(runner.per_graph(kind).values()) for kind in inputs.EXACT_KINDS}
        lines.append("wall times before rescaling: "
                     + " ".join(f"{k}={v:.4f}" for k, v in wall.items()))
        for cores, probes in runner.probes.items():
            took = [p for _, p in probes]
            lines.append(f"speed probe on {cores} core(s): median "
                         f"{statistics.median(took):.5f} s over {len(took)} probes "
                         f"(nominal {speed.NOMINAL_S[cores]} s)")
        lines.append("setup_s samples: " + " ".join(f"{x:.4f}" for x in setups))
        for job in jobs:
            if job.exact:
                lines.append(f"  {job.id}: {tail(runner.times[job.id])}")
        for kind in inputs.SAMPLE_KINDS:
            pooled = [t for j in jobs if j.kind == kind for t in runner.times[j.id]]
            lines.append(f"  {kind} (all calls): {tail(pooled)}")
    lines += baseline_table(runner)
    if args.trace:
        lines += [f"{graph}: {ns:.1f} ns per BFS edge visit in brandes"
                  for graph, ns in tracing.bfs_cost_by_graph(tracer, by_id).items()]
    lines += [f"FAILED {f}" for f in runner.failures[:20]]
    print("\n".join(lines))

    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps({
        "metadata": meta, "metrics": values, "setup_samples": setups,
        "times": runner.times, "rel_l1": runner.rel_l1, "failures": runner.failures,
        "probes": runner.probes, "starts": runner.starts,
    }, indent=1))
    if args.trace:
        (results / f"{stem}-spans.json").write_text(json.dumps(
            {"spans": tracer.spans, "counts": tracer.counts, "facts": tracer.facts}))

    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, exactly as when run one at a time."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in inputs.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, check=True,
        )
        print(proc.stdout, end="")
        result = json.loads(proc.stdout.splitlines()[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        summary["metrics"].update(
            {f"{name}.{metric}": v for metric, v in result["metrics"].items()})
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*inputs.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "peelbc" / "__init__.py").is_file():
        print(f"error: no peelbc sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        probe_dir = WORK / args.workload / "probe"
        shutil.rmtree(probe_dir, ignore_errors=True)
        setup_s, _ = timed_setup(inputs.WORKLOADS[args.workload], args.seed, probe_dir)
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
