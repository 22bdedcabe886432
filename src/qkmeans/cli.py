"""Command-line front end: synthesize data, benchmark, analyze, model cost.

Subcommands
-----------
synth       generate an IQ shot table from readout-model + coupling configs
benchmark   cross-validated clustering fidelity/FM tables from a shot table
crosstalk   correlation heatmaps, named coefficients, and pair flagging
complexity  classical-vs-quantum cost curve files

Every command writes its artifacts into ``--out`` (or the directory named
by the ``QKMEANS_OUTPUT_DIR`` environment variable, or the current
directory) plus a ``<command>_manifest.json`` recording seed, configs,
arguments, outputs, version, and timestamp.  With fixed seeds all
artifacts except the manifest timestamp are byte-identical across runs.

Exit codes: 0 success, 1 usage, configuration, I/O or out-of-memory
error, 2 data validation error.  The library checks every run parameter;
this module checks only the shape of the command line and maps
exceptions to exit codes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

from . import __version__, clustering, complexity, crosstalk, iqdata, metrics
from .distance import BatchConfig
from .errors import ConfigError, DataError, parse_index, parse_pair, read_lines
from .simulator import derive_seed

_PRESETS = ("default", "crosstalk")


def _output_dir(args) -> Path:
    out = args.out or os.environ.get("QKMEANS_OUTPUT_DIR") or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_lines(path: Path, lines) -> None:
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_manifest(out_dir: Path, command: str, seed, config_paths: dict,
                    arguments: dict, outputs: list[str]) -> None:
    manifest = {
        "command": command,
        "seed": seed,
        "config_paths": config_paths,
        "arguments": arguments,
        "outputs": sorted(outputs),
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    (out_dir / f"{command}_manifest.json").write_text(text, encoding="utf-8")


def _load_json(path: str | None, builtin_name: str) -> tuple[dict, str]:
    """(payload, recorded source) from an explicit path or a packaged file."""
    if path is None:
        return iqdata.packaged_config(builtin_name), f"builtin:{builtin_name}"
    try:
        return json.loads(Path(path).read_text(encoding="utf-8")), path
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {exc.filename}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in config: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path} is not UTF-8 text ({exc})") from exc


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------


def cmd_synth(args) -> int:
    model_payload, model_src = _load_json(args.model, f"{args.preset}_model.json")
    coupling_payload, coupling_src = _load_json(args.coupling, "coupling_map.json")
    model = iqdata.model_from_dict(model_payload)
    coupling = iqdata.coupling_from_dict(coupling_payload)
    table = iqdata.synthesize(model, coupling, shots_per_schedule=args.shots, seed=args.seed)
    out_dir = _output_dir(args)
    data_name = "iq_shots.csv"
    iqdata.save_table(table, out_dir / data_name)
    _write_manifest(
        out_dir, "synth", args.seed,
        {"model": model_src, "coupling": coupling_src},
        {"shots": args.shots, "preset": args.preset if args.model is None else None},
        [data_name],
    )
    return 0


# ---------------------------------------------------------------------------
# benchmark
# ---------------------------------------------------------------------------

_SCORES_CSV = "scores.csv"
_SCORES_TXT = "scores.txt"
_SCORES_HEADER = (
    "pair,qubit,kind,algo,mode,metric,splits,half_width_kind,mean,half_width,per_fold"
)


def _fit_config_for(args, batch: BatchConfig) -> clustering.FitConfig:
    if args.algo == "kmeans":
        mode = "classical_euclidean"
    else:
        mode = "quantum_exact" if args.mode == "exact" else "quantum_sampled"
    return clustering.FitConfig(n_clusters=2, distance_mode=mode, batch=batch)


def cmd_benchmark(args) -> int:
    table = iqdata.load_table(args.data)
    pairs = table.pairs()
    if not pairs:
        raise DataError(f"no shot rows found in {args.data}")
    batch = BatchConfig(max_circuits_per_job=args.max_circuits, shots_per_circuit=args.shots)
    base_config = _fit_config_for(args, batch)
    csv_lines = [_SCORES_HEADER]
    txt_lines: list[str] = []
    for a, b in pairs:
        txt_lines.append(f"# pair {a}-{b}")
        for qubit in (a, b):
            single, both = iqdata.assemble_datasets(table, qubit, (a, b))
            for kind, dataset in (("single", single), ("both", both)):
                kind_idx = 0 if kind == "single" else 1
                report = metrics.cross_validate(
                    dataset,
                    base_config,
                    n_splits=args.splits,
                    metric=args.metric,
                    seed=derive_seed(args.seed, a, b, qubit, kind_idx),
                    half_width=args.half_width,
                )
                txt_lines.append(metrics.table_row(f"q{qubit}", kind, report))
                per_fold = ";".join(repr(v) for v in report.per_fold)
                csv_lines.append(
                    f"{a}-{b},{qubit},{kind},{args.algo},{args.mode},{report.metric},"
                    f"{args.splits},{report.half_width_kind},"
                    f"{repr(report.mean)},{repr(report.half_width)},{per_fold}"
                )
    out_dir = _output_dir(args)
    _write_lines(out_dir / _SCORES_CSV, csv_lines)
    _write_lines(out_dir / _SCORES_TXT, txt_lines)
    _write_manifest(
        out_dir, "benchmark", args.seed,
        {"data": args.data},
        {
            "algo": args.algo, "mode": args.mode, "metric": args.metric,
            "splits": args.splits, "shots": args.shots,
            "max_circuits": args.max_circuits, "half_width": args.half_width,
        },
        [_SCORES_CSV, _SCORES_TXT],
    )
    return 0


def read_score_table(path) -> dict[tuple[tuple[int, int], int, str], float]:
    """Fidelity means keyed by (pair, qubit, kind) from a scores.csv file;
    each key has one AssignmentFidelity row, with a mean in [0, 1]."""
    lines = read_lines(path)
    if not lines or lines[0] != _SCORES_HEADER:
        raise DataError(f"{path} is not a benchmark score table")
    out: dict[tuple[tuple[int, int], int, str], float] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != len(_SCORES_HEADER.split(",")):
            raise DataError(f"{path} line {lineno}: wrong field count")
        if parts[5] != metrics.METRIC_NAMES["fidelity"]:
            continue
        try:
            key = (parse_pair(parts[0]), parse_index(parts[1]), parts[2])
            mean = float(parts[8])
        except ValueError as exc:
            raise DataError(f"{path} line {lineno}: malformed row ({exc})") from exc
        if not 0.0 <= mean <= 1.0:
            raise DataError(f"{path} line {lineno}: fidelity mean {mean!r} is not in [0, 1]")
        if key in out:
            raise DataError(f"{path} line {lineno}: second AssignmentFidelity row for {key}")
        out[key] = mean
    return out


# ---------------------------------------------------------------------------
# crosstalk
# ---------------------------------------------------------------------------


def cmd_crosstalk(args) -> int:
    if (args.data is None) == (args.named_values is None):
        raise ConfigError("provide exactly one of --data or --named-values")
    heatmaps: dict[str, list[str]] = {}
    if args.data is not None:
        table = iqdata.load_table(args.data)
        pairs = table.pairs()
        if not pairs:
            raise DataError(f"no shot rows found in {args.data}")
        reports = [crosstalk.analyze_pair(table, pair) for pair in pairs]
        heatmaps = {
            f"heatmap_{a}-{b}.csv": crosstalk.heatmap_lines(table, (a, b)) for a, b in pairs
        }
    else:
        reports = crosstalk.parse_named_block(read_lines(args.named_values))
    fidelities = read_score_table(args.scores) if args.scores else None
    if fidelities == {}:
        raise DataError(f"{args.scores} has no AssignmentFidelity rows for the fidelity-gap rule")
    flags = crosstalk.flag_crosstalk(
        reports, fidelities, threshold=args.threshold, fidelity_gap=args.fidelity_gap
    )
    out_dir = _output_dir(args)
    outputs = ["named_coefficients.csv", "flags.txt", *heatmaps]
    _write_lines(out_dir / "named_coefficients.csv", crosstalk.named_block_lines(reports))
    flag_lines = [
        f"pair {fl.pair[0]}-{fl.pair[1]}: " + "; ".join(fl.evidence) for fl in flags
    ] or ["no pairs flagged"]
    _write_lines(out_dir / "flags.txt", flag_lines)
    for name, lines in heatmaps.items():
        _write_lines(out_dir / name, lines)
    _write_manifest(
        out_dir, "crosstalk", None,
        {"data": args.data, "named_values": args.named_values, "scores": args.scores},
        {"threshold": args.threshold, "fidelity_gap": args.fidelity_gap},
        outputs,
    )
    return 0


# ---------------------------------------------------------------------------
# complexity
# ---------------------------------------------------------------------------


def _parse_range(text: str) -> tuple[int, int, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"range must look like start:stop:count, got {text!r}")
    try:
        start, stop, count = (int(p) for p in parts)
    except ValueError as exc:
        raise ConfigError(f"range must contain integers, got {text!r}") from exc
    return start, stop, count


def cmd_complexity(args) -> int:
    n_values = complexity.sweep_values(*_parse_range(args.n_range))
    f_values = complexity.sweep_values(*_parse_range(args.f_range))
    base = complexity.ComplexityParams(N=args.n, K=args.k, F=args.f, I=args.iterations, C=args.c)
    sample_rows = complexity.cost_curve(base, "samples", n_values)  # each sweep replaces N or F
    feature_rows = complexity.cost_curve(base, "features", f_values)
    out_dir = _output_dir(args)
    outputs = []
    for axis, rows in (("samples", sample_rows), ("features", feature_rows)):
        x = "n" if axis == "samples" else "f"
        trio = (
            (f"classical_vs_{axis}.csv", f"{x},classical_cost",
             [f"{r[0]},{repr(r[1])}" for r in rows]),
            (f"quantum_vs_{axis}.csv", f"{x},quantum_cost",
             [f"{r[0]},{repr(r[2])}" for r in rows]),
            (f"both_vs_{axis}.csv", f"{x},classical_cost,quantum_cost",
             [f"{r[0]},{repr(r[1])},{repr(r[2])}" for r in rows]),
        )
        for name, header, body in trio:
            _write_lines(out_dir / name, [header, *body])
            outputs.append(name)
    _write_manifest(
        out_dir, "complexity", None,
        {},
        {
            "n_range": args.n_range, "f_range": args.f_range, "k": args.k,
            "i": args.iterations, "c": args.c, "fixed_n": args.n, "fixed_f": args.f,
        },
        outputs,
    )
    return 0


# ---------------------------------------------------------------------------
# parser / entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qkmeans",
        description="Quantum k-means readout discrimination toolkit",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a synthetic IQ shot table")
    p_synth.add_argument("--model", help="readout model JSON (default: packaged preset)")
    p_synth.add_argument("--preset", choices=_PRESETS, default="default",
                         help="packaged model preset when --model is omitted")
    p_synth.add_argument("--coupling", help="coupling map JSON (default: packaged)")
    p_synth.add_argument("--shots", type=int, default=1024,
                         help="shots per schedule (default 1024)")
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--out", help="output directory")
    p_synth.set_defaults(func=cmd_synth)

    p_bench = sub.add_parser("benchmark", help="cross-validated clustering scores")
    p_bench.add_argument("--data", required=True, help="IQ shot table CSV")
    p_bench.add_argument("--algo", choices=("kmeans", "qkmeans"), default="qkmeans")
    p_bench.add_argument("--mode", choices=("exact", "sampled"), default="exact",
                         help="quantum distance evaluation mode (qkmeans only)")
    p_bench.add_argument("--metric", choices=("fidelity", "fm"), default="fidelity")
    p_bench.add_argument("--splits", type=int, default=10)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--shots", type=int, default=BatchConfig.shots_per_circuit,
                         help="shots per circuit in sampled mode, 1 to 2**53")
    p_bench.add_argument("--max-circuits", type=int, default=BatchConfig.max_circuits_per_job,
                         help="circuits per batched job")
    p_bench.add_argument("--half-width", choices=metrics.HALF_WIDTH_KINDS, default="std")
    p_bench.add_argument("--out", help="output directory")
    p_bench.set_defaults(func=cmd_benchmark)

    p_cross = sub.add_parser("crosstalk", help="correlation analysis and pair flagging")
    p_cross.add_argument("--data", help="IQ shot table CSV")
    p_cross.add_argument("--named-values",
                         help="precomputed named-coefficient block (alternative to --data)")
    p_cross.add_argument("--scores", help="benchmark scores.csv for the fidelity-gap rule")
    p_cross.add_argument("--threshold", type=float, default=0.1)
    p_cross.add_argument("--fidelity-gap", type=float, default=0.02)
    p_cross.add_argument("--out", help="output directory")
    p_cross.set_defaults(func=cmd_crosstalk)

    p_cx = sub.add_parser("complexity", help="cost-model curve files")
    p_cx.add_argument("--n-range", default="10:10000:25", help="samples sweep start:stop:count")
    p_cx.add_argument("--f-range", default="2:256:8", help="features sweep start:stop:count")
    p_cx.add_argument("--k", type=int, default=2, help="clusters")
    p_cx.add_argument("--i", dest="iterations", type=int, default=10, help="iterations")
    p_cx.add_argument("--c", type=int, default=BatchConfig.max_circuits_per_job,
                      help="circuits per job")
    p_cx.add_argument("--n", type=int, default=1000, help="fixed N for the features sweep")
    p_cx.add_argument("--f", type=int, default=2, help="fixed F for the samples sweep")
    p_cx.add_argument("--out", help="output directory")
    p_cx.set_defaults(func=cmd_complexity)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage problems and 0 on --help/--version;
        # fold usage problems into the config-error exit code.
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
