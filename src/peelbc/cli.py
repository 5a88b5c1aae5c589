"""Command-line surface: exact/sampled scoring, stats, generation, benchmarks.

Output files are deterministic for fixed flags and seed: timing is
reported on stderr (or opted into serialized records with --timing), so
reruns produce byte-identical score and table files.  The speedup bench
suite is the one exception, since wall-clock measurements are its
payload.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import statistics
import sys
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from pathlib import Path
from time import perf_counter

from .exact import ORACLE_SIZE_WARNING, BcResult, brandes_exact, oracle_bc
from .graph import (
    Graph,
    peel,
    peel_diagnostics,
    read_graph,
    write_edge_list,
)
from .peeling import bc_one_round_mem, bc_via_2core_recurrence
from .sampling import SampleConfig, relative_l1_error, sample_bc_baseline, sample_bc_peeled
from .synth import Attachment, CorePeripherySpec, generate_core_periphery

EXACT_ALGORITHMS = ("brandes", "peel1", "2core-recurrence", "oracle")
DEFAULT_V1_GRID = (100, 500, 1000, 3000)
DEFAULT_K_GRID = (5, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100)


@dataclass
class RunRecord:
    """One run's metadata; serializes to a CSV row or JSON object.

    elapsed is populated in memory but only serialized when the caller
    asks for timing, keeping default outputs byte-reproducible.
    """

    dataset: str
    algorithm: str
    n: int
    m: int
    n_tilde: int
    m_tilde: int
    k: int | None = None
    seed: int | None = None
    rel_l1: float | None = None
    round_fractions: tuple[float, ...] = ()
    elapsed: float | None = None

    CSV_FIELDS = (
        "dataset", "algorithm", "n", "m", "n_tilde", "m_tilde", "k", "seed",
        "rel_l1", "round_fractions", "elapsed",
    )

    def to_json_obj(self, include_timing: bool = False) -> dict:
        obj = {
            "dataset": self.dataset,
            "algorithm": self.algorithm,
            "n": self.n,
            "m": self.m,
            "n_tilde": self.n_tilde,
            "m_tilde": self.m_tilde,
            "k": self.k,
            "seed": self.seed,
            "rel_l1": self.rel_l1,
            "round_fractions": list(self.round_fractions),
        }
        if include_timing:
            obj["elapsed"] = self.elapsed
        return obj

    def to_csv_row(self, include_timing: bool = False) -> list[str]:
        obj = self.to_json_obj(include_timing=include_timing)
        return [_csv_cell(obj.get(name)) for name in self.CSV_FIELDS]


def _fmt(x: float) -> str:
    return format(x, ".12g")


def _csv_cell(value) -> str:
    """One CSV cell: floats at 12 significant digits, sequences joined
    by ';', None empty."""
    if value is None:
        return ""
    if isinstance(value, float):
        return _fmt(value)
    if isinstance(value, (list, tuple)):
        return ";".join(_fmt(x) for x in value)
    return str(value)


def _label_key(label):
    text = str(label)
    try:
        return (0, int(text), "")
    except ValueError:
        return (1, 0, text)


def label_order(g: Graph) -> list[int]:
    """Node ids sorted by original label (numeric-aware)."""
    return sorted(range(g.n), key=lambda v: _label_key(g.labels[v]))


def _make_record(dataset: str, g: Graph, result: BcResult,
                 rel_l1: float | None = None) -> RunRecord:
    """The run record; n_tilde, m_tilde and round_fractions equal
    peel_diagnostics(g)'s, taken from one peel.

    Every round-0 node has exactly one edge, and only the edge of a
    two-node component joins two of them (each then has deg1 == 1).
    """
    decomp = peel(g)
    round0 = decomp.rounds[0] if decomp.rounds else []
    two_node_components = sum(decomp.deg1[v] for v in round0) // 2
    return RunRecord(
        dataset=dataset,
        algorithm=result.algorithm,
        n=g.n,
        m=g.m,
        n_tilde=g.n - len(round0),
        m_tilde=g.m - len(round0) + two_node_components,
        k=result.k,
        seed=result.seed,
        rel_l1=rel_l1,
        round_fractions=tuple(len(r) / g.n for r in decomp.rounds),
        elapsed=result.elapsed,
    )


def _open_out(path: str | None):
    if path is None or path == "-":
        return sys.stdout, False
    return open(path, "w", encoding="utf-8", newline=""), True


def _json_number(x) -> str:
    """`x` as json.dump writes it: repr for a finite float."""
    if isinstance(x, float) and math.isfinite(x):
        return float.__repr__(x)
    return json.dumps(x)


def scores_json(run: dict, scores) -> str:
    """JSON score file text for (label, bc) rows, plus a final newline.

    Byte for byte what json.dump({"run": run, "scores": [{"node": label,
    "bc": bc}, ...]}, sort_keys=True, indent=2) writes, from the
    primitives json itself uses, in one string: json.dump with indent
    runs the pure-Python encoder and writes chunk by chunk, which costs
    more than the scoring of a small graph.
    """
    rows = ",\n".join(
        f'    {{\n      "bc": {_json_number(bc)},\n'
        f'      "node": {encode_basestring_ascii(label)}\n    }}'
        for label, bc in scores
    )
    run_text = json.dumps(run, sort_keys=True, indent=2).replace("\n", "\n  ")
    scores_text = f"[\n{rows}\n  ]" if rows else "[]"
    return f'{{\n  "run": {run_text},\n  "scores": {scores_text}\n}}\n'


def _write_scores(args, g: Graph, result: BcResult, record: RunRecord) -> None:
    stream, close = _open_out(args.out)
    try:
        order = label_order(g)
        if args.format == "csv":
            writer = csv.writer(stream, lineterminator="\n")
            writer.writerow(["node", "bc"])
            for v in order:
                writer.writerow([str(g.labels[v]), _fmt(result.bc[v])])
        else:
            stream.write(scores_json(
                record.to_json_obj(include_timing=args.timing),
                [(str(g.labels[v]), result.bc[v]) for v in order],
            ))
    finally:
        if close:
            stream.close()


def _read_scores_csv(path) -> dict[str, float]:
    scores = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["node", "bc"]:
            raise ValueError(f"{path}: expected 'node,bc' score file header")
        for row in reader:
            if len(row) != 2:
                raise ValueError(f"{path}: malformed score row {row!r}")
            scores[row[0]] = float(row[1])
    return scores


def _truth_from_file(g: Graph, path) -> BcResult:
    scores = _read_scores_csv(path)
    labels = [str(lab) for lab in g.labels]
    if set(labels) != set(scores):
        raise ValueError(
            f"truth file {path} does not cover the same node set as the input"
        )
    return BcResult(bc=[scores[lab] for lab in labels], algorithm="file")


def _run_exact_algorithm(name: str, g: Graph, threads: int, force: bool) -> BcResult:
    if name == "brandes":
        return brandes_exact(g, threads=threads)
    if name == "peel1":
        return bc_one_round_mem(g, threads=threads)
    capped = name in ("2core-recurrence", "oracle")
    if capped and g.n > ORACLE_SIZE_WARNING and not force:
        raise ValueError(
            f"{name} refused on n={g.n} > {ORACLE_SIZE_WARNING} nodes; "
            "pass --force to run anyway"
        )
    if name == "2core-recurrence":
        return bc_via_2core_recurrence(g)
    if name == "oracle":
        return oracle_bc(g)
    raise ValueError(f"unknown algorithm {name!r}")


def _note(message: str) -> None:
    print(message, file=sys.stderr)


def cmd_exact(args) -> int:
    g = read_graph(args.input, fmt=args.input_format)
    result = _run_exact_algorithm(args.algorithm, g, args.threads, args.force)
    _note(f"{args.algorithm}: {result.elapsed:.3f}s on n={g.n} m={g.m}")
    record = _make_record(Path(args.input).name, g, result)
    if args.compare_with:
        other = _run_exact_algorithm(args.compare_with, g, args.threads, args.force)
        diff = max(
            (abs(a - b) for a, b in zip(result.bc, other.bc)), default=0.0
        )
        _note(
            f"compare {args.algorithm} vs {args.compare_with}: "
            f"max_abs_diff={diff:.6e} ({other.elapsed:.3f}s)"
        )
    _write_scores(args, g, result, record)
    return 0


def cmd_sample(args) -> int:
    g = read_graph(args.input, fmt=args.input_format)
    cfg = SampleConfig(k=args.k, seed=args.seed)
    if args.method == "baseline":
        result = sample_bc_baseline(g, cfg)
    else:
        result = sample_bc_peeled(g, cfg, exact_y_sources=args.exact_y_sources)
    _note(f"{result.algorithm}: {result.elapsed:.3f}s k={args.k} seed={args.seed}")
    rel = None
    if args.truth:
        truth = _truth_from_file(g, args.truth)
        rel = relative_l1_error(result, truth).rel_l1
        _note(f"rel_l1 vs truth: {_fmt(rel)}")
    record = _make_record(Path(args.input).name, g, result, rel_l1=rel)
    _write_scores(args, g, result, record)
    return 0


_STATS_FIELDS = (
    "dataset", "n", "m", "n_tilde", "m_tilde", "v1_round0",
    "survivor_fraction", "two_core_size", "two_core_fraction", "istar",
    "y_size", "delta1", "round_fractions",
)


def cmd_stats(args) -> int:
    g = read_graph(args.input, fmt=args.input_format)
    report = peel_diagnostics(g)
    values = {
        "dataset": Path(args.input).name,
        "n": report.n,
        "m": report.m,
        "n_tilde": report.n_tilde,
        "m_tilde": report.m_tilde,
        "v1_round0": report.v1_round0,
        "survivor_fraction": report.survivor_fraction,
        "two_core_size": report.two_core_size,
        "two_core_fraction": report.two_core_fraction,
        "istar": report.istar,
        "y_size": report.y_size,
        "delta1": report.delta1,
        "round_fractions": report.round_fractions,
    }
    stream, close = _open_out(args.out)
    try:
        if args.format == "csv":
            writer = csv.writer(stream, lineterminator="\n")
            writer.writerow(_STATS_FIELDS)
            writer.writerow([_csv_cell(values[name]) for name in _STATS_FIELDS])
        else:
            values["deg1_histogram"] = {
                str(k): v for k, v in report.deg1_histogram.items()
            }
            json.dump(values, stream, sort_keys=True, indent=2)
            stream.write("\n")
    finally:
        if close:
            stream.close()
    return 0


def cmd_synth(args) -> int:
    spec = CorePeripherySpec(
        core_size=args.core,
        v1_count=args.v1,
        attachment=Attachment(args.attachment),
        seed=args.seed,
    )
    g = generate_core_periphery(spec)
    if args.out is None or args.out == "-":
        write_edge_list(g, sys.stdout)
    else:
        write_edge_list(g, args.out)
    _note(f"generated core={args.core} periphery={args.v1}: n={g.n} m={g.m}")
    return 0


def _bench_writer(out_dir: Path, name: str):
    out_dir.mkdir(parents=True, exist_ok=True)
    handle = open(out_dir / name, "w", encoding="utf-8", newline="")
    return handle, csv.writer(handle, lineterminator="\n")


def _estimate(method: str, g: Graph, k: int, seed: int) -> BcResult:
    cfg = SampleConfig(k=k, seed=seed)
    if method == "baseline":
        return sample_bc_baseline(g, cfg)
    return sample_bc_peeled(g, cfg)


def bench_synth_growth(args) -> int:
    """Estimator error vs periphery size at fixed pivot count."""
    out_dir = Path(args.out)
    handle, writer = _bench_writer(out_dir, "synth_growth.csv")
    summary: dict[tuple[int, str], list[float]] = {}
    with handle:
        writer.writerow(["v1", "method", "k", "seed", "rel_l1"])
        for v1 in args.v1_grid:
            spec = CorePeripherySpec(
                core_size=args.core,
                v1_count=v1,
                attachment=Attachment(args.attachment),
            )
            g = generate_core_periphery(spec)
            truth = bc_one_round_mem(g, threads=args.threads)
            for seed in range(args.seeds):
                for method in ("baseline", "peeled"):
                    est = _estimate(method, g, args.k, seed)
                    rel = relative_l1_error(est, truth).rel_l1
                    writer.writerow(
                        [v1, method, args.k, seed, _fmt(rel)]
                    )
                    summary.setdefault((v1, method), []).append(rel)
    handle2, writer2 = _bench_writer(out_dir, "synth_growth_summary.csv")
    with handle2:
        writer2.writerow(["v1", "method", "k", "mean_rel_l1"])
        for (v1, method), vals in sorted(summary.items()):
            writer2.writerow([v1, method, args.k, _fmt(sum(vals) / len(vals))])
    _note(f"synth-growth tables written to {out_dir}")
    return 0


def bench_pivot_sweep(args) -> int:
    """Estimator error vs pivot count on the given datasets."""
    if not args.datasets:
        raise ValueError("pivot-sweep needs at least one dataset path")
    out_dir = Path(args.out)
    handle, writer = _bench_writer(out_dir, "pivot_sweep.csv")
    with handle:
        writer.writerow(["dataset", "method", "k", "seed", "rel_l1"])
        for path in args.datasets:
            g = read_graph(path)
            truth = brandes_exact(g, threads=args.threads)
            name = Path(path).name
            for k in args.k_grid:
                if k > g.n:
                    continue
                for seed in range(args.seeds):
                    for method in ("baseline", "peeled"):
                        est = _estimate(method, g, k, seed)
                        rel = relative_l1_error(est, truth).rel_l1
                        writer.writerow([name, method, k, seed, _fmt(rel)])
    _note(f"pivot-sweep table written to {out_dir}")
    return 0


def _median_time(fn, repeats: int = 3) -> float:
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def bench_speedup(args) -> int:
    """Wall-time ratio of plain exact vs one-round-peeled exact.

    Timing is the payload here, so this table is measurement-dependent
    and not byte-reproducible across runs.
    """
    out_dir = Path(args.out)
    graphs: list[tuple[str, Graph]] = []
    for path in args.datasets:
        graphs.append((Path(path).name, read_graph(path)))
    if not graphs:
        spec = CorePeripherySpec(core_size=args.core, v1_count=3000)
        graphs.append(("core-periphery-3000", generate_core_periphery(spec)))
    handle, writer = _bench_writer(out_dir, "speedup.csv")
    with handle:
        writer.writerow(
            ["dataset", "n", "m", "survivor_fraction",
             "brandes_s", "peel1_s", "speedup"]
        )
        for name, g in graphs:
            report = peel_diagnostics(g)
            t_brandes = _median_time(lambda: brandes_exact(g, threads=args.threads))
            t_peel = _median_time(lambda: bc_one_round_mem(g, threads=args.threads))
            ratio = t_brandes / t_peel if t_peel > 0 else float("inf")
            writer.writerow(
                [name, g.n, g.m, _fmt(report.survivor_fraction),
                 _fmt(t_brandes), _fmt(t_peel), _fmt(ratio)]
            )
            _note(f"{name}: brandes {t_brandes:.3f}s, peel1 {t_peel:.3f}s, "
                  f"ratio {ratio:.2f}x")
    return 0


def cmd_bench(args) -> int:
    if args.suite == "synth-growth":
        return bench_synth_growth(args)
    if args.suite == "pivot-sweep":
        return bench_pivot_sweep(args)
    return bench_speedup(args)


def _seed_value(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError("seed must fit in 64 unsigned bits")
    return value


def _add_io_flags(p, scores: bool = True) -> None:
    p.add_argument("input", help="path to an edge-list or .mtx graph file")
    p.add_argument("--input-format", choices=("edges", "mtx"), default=None,
                   help="override extension sniffing")
    p.add_argument("--out", default=None, help="output file (default stdout)")
    if scores:
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--timing", action="store_true",
                       help="include wall times in serialized records "
                            "(breaks byte-for-byte reproducibility)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="peelbc",
        description="Betweenness centrality with degree-1 peeling",
    )
    default_threads = os.cpu_count() or 1
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("exact", help="exact per-node scores")
    _add_io_flags(p)
    p.add_argument("--algorithm", choices=EXACT_ALGORITHMS, default="peel1")
    p.add_argument("--compare-with", choices=EXACT_ALGORITHMS, default=None,
                   help="also run a second algorithm and report the max "
                        "per-node absolute difference")
    p.add_argument("--threads", type=int, default=default_threads)
    p.add_argument("--force", action="store_true",
                   help="run oracle or 2core-recurrence past their size cap")
    p.set_defaults(func=cmd_exact)

    p = sub.add_parser("sample", help="pivot-sampled estimates")
    _add_io_flags(p)
    p.add_argument("--k", type=int, required=True, help="pivot count")
    p.add_argument("--seed", type=_seed_value, default=0)
    p.add_argument("--method", choices=("baseline", "peeled"), default="peeled")
    p.add_argument("--exact-y-sources", action="store_true",
                   help="peeled method only: solve pendant-anchor sources "
                        "exactly and sample the rest")
    p.add_argument("--truth", default=None,
                   help="score CSV to compute the relative l1 error against")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("stats", help="peeling statistics for a graph file")
    _add_io_flags(p, scores=False)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("synth", help="generate a core-periphery graph")
    p.add_argument("--core", type=int, default=50)
    p.add_argument("--v1", type=int, default=3000)
    p.add_argument("--attachment",
                   choices=tuple(a.value for a in Attachment),
                   default=Attachment.LINEAR_SKEW.value)
    p.add_argument("--seed", type=_seed_value, default=0)
    p.add_argument("--out", default=None, help="edge-list output (default stdout)")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("bench", help="benchmark suites emitting CSV tables")
    p.add_argument("--suite", choices=("synth-growth", "pivot-sweep", "speedup"),
                   required=True)
    p.add_argument("datasets", nargs="*",
                   help="graph files (pivot-sweep and speedup suites)")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seeds", type=int, default=5)
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--core", type=int, default=50)
    p.add_argument("--v1-grid", type=int, nargs="+", default=list(DEFAULT_V1_GRID))
    p.add_argument("--k-grid", type=int, nargs="+", default=list(DEFAULT_K_GRID))
    p.add_argument("--attachment",
                   choices=tuple(a.value for a in Attachment),
                   default=Attachment.GEOMETRIC_HALVING.value,
                   help="synth-growth periphery schedule")
    p.add_argument("--threads", type=int, default=default_threads)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, OverflowError) as exc:  # parse errors are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
