"""Command-line surface: exact/sampled scoring, stats, generation, benchmarks.

Output files are deterministic for fixed flags and seed: timing is
reported on stderr (or opted into serialized records with --timing), so
reruns produce byte-identical score and table files.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path

from .exact import ORACLE_SIZE_WARNING, BcResult, brandes_exact, oracle_bc
from .graph import (
    Graph,
    peel,
    peel_diagnostics,
    peel_sizes,
    read_graph,
    write_edge_list,
)
from .peeling import bc_one_round_mem, bc_via_2core_recurrence
from .sampling import SampleConfig, relative_l1_error, sample_bc_baseline, sample_bc_peeled
from .synth import Attachment, CorePeripherySpec, generate_core_periphery

EXACT_ALGORITHMS = ("brandes", "peel1", "2core-recurrence", "oracle")
DEFAULT_V1_GRID = (100, 500, 1000, 3000)
DEFAULT_K_GRID = (5, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100)


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
    """Node ids sorted by original label (numeric-aware).

    Labels that parse as ints sort by value, ties keeping id order,
    before the rest in text order (see _label_key).  When every label
    parses, the int values alone are the sort keys.
    """
    texts = list(map(str, g.labels))
    try:
        keys = list(map(int, texts))
    except ValueError:
        keys = list(map(_label_key, texts))
    return sorted(range(g.n), key=keys.__getitem__)


def _run_record(dataset: str, g: Graph, result: BcResult,
                rel_l1: float | None, timing: bool) -> dict:
    """The "run" object of a JSON score file.

    Its peel statistics come from the peel the algorithm ran, or from a
    peel here when it ran none.  elapsed is included only with timing,
    keeping default outputs byte-reproducible.
    """
    n_tilde, m_tilde, fractions = peel_sizes(g, result.peeled or peel(g))
    run = {
        "dataset": dataset,
        "algorithm": result.algorithm,
        "n": g.n,
        "m": g.m,
        "n_tilde": n_tilde,
        "m_tilde": m_tilde,
        "k": result.k,
        "seed": result.seed,
        "rel_l1": rel_l1,
        "round_fractions": fractions,
    }
    if timing:
        run["elapsed"] = result.elapsed
    return run


def _csv_text(rows) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def _write_out(path: str | Path | None, text: str) -> None:
    """Write text to the file at path, or to stdout when path is None or "-"."""
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _json_number(x) -> str:
    """`x` as json.dump writes it: repr for a finite float."""
    if isinstance(x, float) and math.isfinite(x):
        return float.__repr__(x)
    return json.dumps(x)


def scores_json(run: dict, labels, values) -> str:
    """JSON score file text for parallel label and bc lists, plus a final
    newline.

    Byte for byte what json.dump({"run": run, "scores": [{"node": label,
    "bc": bc}, ...]}, sort_keys=True, indent=2) writes, from the
    primitives json itself uses, in one string: json.dump with indent
    runs the pure-Python encoder and writes chunk by chunk, which costs
    more than the scoring of a small graph.  When every bc is a finite
    float (the sum of finite floats is finite or overflows to inf, so a
    finite sum proves it), each row is float.__repr__ of bc beside the
    escaped label; otherwise each value goes through _json_number.
    """
    if set(map(type, values)) <= {float} and math.isfinite(sum(values)):
        numbers = map(float.__repr__, values)
    else:
        numbers = map(_json_number, values)
    rows = ",\n".join([
        f'    {{\n      "bc": {bc},\n      "node": {label}\n    }}'
        for bc, label in zip(numbers, map(encode_basestring_ascii, labels))
    ])
    run_text = json.dumps(run, sort_keys=True, indent=2).replace("\n", "\n  ")
    scores_text = f"[\n{rows}\n  ]" if rows else "[]"
    return f'{{\n  "run": {run_text},\n  "scores": {scores_text}\n}}\n'


def _write_scores(args, g: Graph, result: BcResult,
                  rel_l1: float | None = None) -> None:
    order = label_order(g)
    labels = list(map(str, map(g.labels.__getitem__, order)))
    values = list(map(result.bc.__getitem__, order))
    if args.format == "csv":
        text = _csv_text([("node", "bc"), *zip(labels, map(_fmt, values))])
    else:
        run = _run_record(Path(args.input).name, g, result, rel_l1, args.timing)
        text = scores_json(run, labels, values)
    _write_out(args.out, text)


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
    if name == "2core-recurrence":
        return bc_via_2core_recurrence(g, threads=threads)
    if name == "oracle":
        if g.n > ORACLE_SIZE_WARNING and not force:
            raise ValueError(
                f"{name} refused on n={g.n} > {ORACLE_SIZE_WARNING} nodes; "
                "pass --force to run anyway"
            )
        return oracle_bc(g)
    raise ValueError(f"unknown algorithm {name!r}")


def _note(message: str) -> None:
    print(message, file=sys.stderr)


def cmd_exact(args) -> int:
    g = read_graph(args.input, fmt=args.input_format)
    result = _run_exact_algorithm(args.algorithm, g, args.threads, args.force)
    _note(f"{args.algorithm}: {result.elapsed:.3f}s on n={g.n} m={g.m}")
    if args.compare_with:
        other = _run_exact_algorithm(args.compare_with, g, args.threads, args.force)
        diff = max(
            (abs(a - b) for a, b in zip(result.bc, other.bc)), default=0.0
        )
        _note(
            f"compare {args.algorithm} vs {args.compare_with}: "
            f"max_abs_diff={diff:.6e} ({other.elapsed:.3f}s)"
        )
    _write_scores(args, g, result)
    return 0


def _estimate(method: str, g: Graph, k: int, seed: int) -> BcResult:
    cfg = SampleConfig(k=k, seed=seed)
    if method == "baseline":
        return sample_bc_baseline(g, cfg)
    return sample_bc_peeled(g, cfg)


def cmd_sample(args) -> int:
    g = read_graph(args.input, fmt=args.input_format)
    result = _estimate(args.method, g, args.k, args.seed)
    _note(f"{result.algorithm}: {result.elapsed:.3f}s k={args.k} seed={args.seed}")
    rel = None
    if args.truth:
        truth = _truth_from_file(g, args.truth)
        rel = relative_l1_error(result, truth).rel_l1
        _note(f"rel_l1 vs truth: {_fmt(rel)}")
    _write_scores(args, g, result, rel)
    return 0


_STATS_FIELDS = (
    "dataset", "n", "m", "n_tilde", "m_tilde", "v1_round0",
    "survivor_fraction", "two_core_size", "two_core_fraction", "istar",
    "y_size", "delta1", "round_fractions",
)


def cmd_stats(args) -> int:
    g = read_graph(args.input, fmt=args.input_format)
    report = peel_diagnostics(g)
    values = {"dataset": Path(args.input).name,
              **{name: getattr(report, name) for name in _STATS_FIELDS[1:]}}
    if args.format == "csv":
        row = [_csv_cell(values[name]) for name in _STATS_FIELDS]
        text = _csv_text([_STATS_FIELDS, row])
    else:
        values["deg1_histogram"] = {
            str(k): v for k, v in report.deg1_histogram.items()
        }
        text = json.dumps(values, sort_keys=True, indent=2) + "\n"
    _write_out(args.out, text)
    return 0


def cmd_synth(args) -> int:
    spec = CorePeripherySpec(
        core_size=args.core,
        v1_count=args.v1,
        attachment=Attachment(args.attachment),
    )
    g = generate_core_periphery(spec)
    buf = io.StringIO()
    write_edge_list(g, buf)
    _write_out(args.out, buf.getvalue())
    _note(f"generated core={args.core} periphery={args.v1}: n={g.n} m={g.m}")
    return 0


def bench_synth_growth(args) -> int:
    """Estimator error vs periphery size at fixed pivot count."""
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = [("v1", "method", "k", "seed", "rel_l1")]
    summary: dict[tuple[int, str], list[float]] = {}
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
                rows.append((v1, method, args.k, seed, _fmt(rel)))
                summary.setdefault((v1, method), []).append(rel)
    _write_out(out_dir / "synth_growth.csv", _csv_text(rows))
    means = [("v1", "method", "k", "mean_rel_l1")]
    for (v1, method), vals in sorted(summary.items()):
        means.append((v1, method, args.k, _fmt(sum(vals) / len(vals))))
    _write_out(out_dir / "synth_growth_summary.csv", _csv_text(means))
    _note(f"synth-growth tables written to {out_dir}")
    return 0


def bench_pivot_sweep(args) -> int:
    """Estimator error vs pivot count on the given datasets."""
    if not args.datasets:
        raise ValueError("pivot-sweep needs at least one dataset path")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = [("dataset", "method", "k", "seed", "rel_l1")]
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
                    rows.append((name, method, k, seed, _fmt(rel)))
    _write_out(out_dir / "pivot_sweep.csv", _csv_text(rows))
    _note(f"pivot-sweep table written to {out_dir}")
    return 0


def cmd_bench(args) -> int:
    if args.suite == "synth-growth":
        return bench_synth_growth(args)
    return bench_pivot_sweep(args)


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
    """A new parser for the peelbc command line."""
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
                   help="run oracle past its size cap")
    p.set_defaults(func=cmd_exact)

    p = sub.add_parser("sample", help="pivot-sampled estimates")
    _add_io_flags(p)
    p.add_argument("--k", type=int, required=True, help="pivot count")
    p.add_argument("--seed", type=_seed_value, default=0)
    p.add_argument("--method", choices=("baseline", "peeled"), default="peeled")
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
    p.add_argument("--out", default=None, help="edge-list output (default stdout)")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("bench", help="benchmark suites emitting CSV tables")
    p.add_argument("--suite", choices=("synth-growth", "pivot-sweep"),
                   required=True)
    p.add_argument("datasets", nargs="*", help="graph files (pivot-sweep suite)")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seeds", type=int, default=5)
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--core", type=int, default=50)
    # Tuples: argparse hands each default object itself to every namespace.
    p.add_argument("--v1-grid", type=int, nargs="+", default=DEFAULT_V1_GRID)
    p.add_argument("--k-grid", type=int, nargs="+", default=DEFAULT_K_GRID)
    p.add_argument("--attachment",
                   choices=tuple(a.value for a in Attachment),
                   default=Attachment.GEOMETRIC_HALVING.value,
                   help="synth-growth periphery schedule")
    p.add_argument("--threads", type=int, default=default_threads)
    p.set_defaults(func=cmd_bench)

    return parser


_parser: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    """Run one command; returns its exit code.

    The parser is built on the first call and reused by later calls in
    the process, so an in-process call pays argument parsing only.
    """
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        if getattr(args, "threads", 1) < 1:
            raise ValueError(f"--threads must be at least 1, got {args.threads}")
        return args.func(args)
    except (ValueError, OSError, OverflowError) as exc:  # parse errors are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
