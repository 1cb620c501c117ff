"""Command-line interface.

Subcommands: segment, simulate, evaluate, bench. Exit codes: 0 success,
1 usage error, 2 data error, 3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import logging
import os
import statistics
import sys
import tempfile
import time
import traceback
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import asdict, fields
from pathlib import Path

from .errors import SegscanError
from .evaluation import positions_mask, score
from .pipeline import segment_profile
from .profiles import read_profile, read_segments, write_segments
from .scanning import ScanConfig
from .simulation import (benchmark_suite, read_truth_manifest,
                         write_profile_plain, write_truth_manifest)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; the contract here is 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


#: (flag, ScanConfig field, type, help); every default is the field's
_SCAN_FLAGS = (
    ("--wmin", "w_min", int, "minimum window length"),
    ("--wmax", "w_max", int, "maximum window length"),
    ("--rho", "rho", float, "window length growth factor"),
    ("--ps", "p_s", float, "candidate retention p-value threshold"),
    ("--alpha", "alpha", float, "false discovery rate for BH"),
    ("--pb", "p_b", float, "biological cutoff on |mean - background|, off when None"),
    ("--k-refine", "k_refine", int, "refinement step divisor K"),
    ("--background", "background", float, "baseline level tested against"),
)


def _add_scan_flags(parser):
    group = parser.add_argument_group("scan parameters")
    for flag, dest, kind, text in _SCAN_FLAGS:
        group.add_argument(flag, dest=dest, type=kind, metavar=flag[2:].upper().replace("-", "_"),
                           help=text + " (default %(default)s)")
    group.add_argument("--sigma", type=float, default=None,
                       help="known noise scale; overrides MAD estimation")
    group.add_argument("--sides", choices=("two", "one"),
                       help="two-sided or one-sided (above background) test "
                            "(default %(default)s)")
    parser.set_defaults(**asdict(ScanConfig()))


def _config_from(args) -> ScanConfig:
    return ScanConfig(**{f.name: getattr(args, f.name) for f in fields(ScanConfig)})


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="segscan",
                     description="Segment numeric profiles into significant "
                                 "non-background regions.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    seg = sub.add_parser("segment", help="segment one or more profiles")
    seg.add_argument("inputs", nargs="+", metavar="INPUT", help="profile file(s)")
    seg.add_argument("--format", choices=("plain", "tsv", "bedgraph"), default="plain",
                     help="input format (default plain)")
    seg.add_argument("--out-format", choices=("tsv", "bed"), default="tsv",
                     help="output table format (default tsv)")
    seg.add_argument("--output", default=None,
                     help="output file (single input) or directory (multiple inputs); "
                          "default stdout for a single input")
    seg.add_argument("--jobs", type=_positive_int, default=1,
                     help="process this many input profiles concurrently")
    _add_scan_flags(seg)

    sim = sub.add_parser("simulate", help="generate a benchmark suite with ground truth")
    sim.add_argument("--kind", choices=("short", "long"), default="short",
                     help="short: 10 x 5000; long: 10 x 100000 (default short)")
    sim.add_argument("--snr", type=float, default=1.0,
                     help="signal-to-noise ratio (typical: 0.5, 1.0, 2.0)")
    sim.add_argument("--seed", type=int, default=0, help="master random seed (default 0)")
    sim.add_argument("--outdir", required=True, help="directory for profiles and truth.tsv")

    ev = sub.add_parser("evaluate", help="score predicted segment tables against ground truth")
    ev.add_argument("--truth", required=True, help="ground-truth manifest (truth.tsv)")
    ev.add_argument("--pred-dir", required=True,
                    help="directory holding <profile_id>.segments.tsv tables")
    ev.add_argument("--length", type=_positive_int, default=None,
                    help="profile length; defaults to the manifest's length header")
    ev.add_argument("--output", default=None, help="report file (default stdout)")

    be = sub.add_parser("bench", help="time the segmentation pipeline over a suite")
    be.add_argument("--suite", required=True, help="directory written by simulate")
    be.add_argument("--repetitions", type=_positive_int, default=3,
                    help="timing repetitions; the median is reported (default 3)")
    be.add_argument("--output", default=None, help="timing table file (default stdout)")

    return parser


def _emit(data: bytes, output) -> None:
    """Write ``data`` to stdout, or atomically to the file ``output``.

    A failed file write raises SegscanError naming ``output`` and leaves no
    temporary file behind. The file gets the mode a plain open would give
    it, 0o666 less the umask, not mkstemp's 0o600.
    """
    if output is None:
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()
        return
    path = Path(output)
    with _naming(output):
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
        try:
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(fd, 0o666 & ~umask)
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise


@contextmanager
def _naming(path) -> Iterator[None]:
    """Prefix data and OS errors raised in the block with ``path``."""
    try:
        yield
    except OSError as exc:
        raise SegscanError(f"{path}: {exc.strerror or exc}") from exc
    except SegscanError as exc:
        raise SegscanError(f"{path}: {exc}") from exc


def _segment_one(path_str: str, fmt: str, cfg: ScanConfig, sigma: float | None,
                 out_format: str) -> bytes | SegscanError:
    """The table of one input, or the data error that stopped it."""
    try:
        with _naming(path_str):
            profile = read_profile(path_str, format=fmt)
            result = segment_profile(profile, cfg, sigma=sigma)
        return write_segments(result, profile, format=out_format)
    except SegscanError as exc:
        return exc


def _cmd_segment(args) -> int:
    cfg = _config_from(args)
    inputs = [Path(p) for p in args.inputs]
    if len(inputs) == 1:
        targets = [args.output]
    elif args.output is None:
        print("segscan segment: error: --output DIRECTORY is required with "
              "multiple inputs", file=sys.stderr)
        return EXIT_USAGE
    else:
        suffix = ".segments.tsv" if args.out_format == "tsv" else ".segments.bed"
        targets = [Path(args.output) / (path.stem + suffix) for path in inputs]
        written_from: dict[Path, Path] = {}
        for path, target in zip(inputs, targets):
            if target in written_from:
                print(f"segscan segment: error: {written_from[target]} and {path} would "
                      f"both be written to {target.name}", file=sys.stderr)
                return EXIT_USAGE
            written_from[target] = path
        Path(args.output).mkdir(parents=True, exist_ok=True)
    work = [(str(p), args.format, cfg, args.sigma, args.out_format) for p in inputs]
    workers = min(args.jobs, len(inputs))
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_segment_one, *item) for item in work]
            outcomes = [future.result() for future in futures]
    else:
        outcomes = [_segment_one(*item) for item in work]
    # one bad profile, or one failed write, must not hide the other tables
    failed = 0
    for outcome, target in zip(outcomes, targets):
        if not isinstance(outcome, SegscanError):
            try:
                _emit(outcome, target)
                continue
            except SegscanError as exc:
                outcome = exc
        print(f"segscan: error: {outcome}", file=sys.stderr)
        failed += 1
    return EXIT_DATA if failed else EXIT_OK


def _cmd_simulate(args) -> int:
    out_dir = Path(args.outdir)
    out_dir.mkdir(parents=True, exist_ok=True)
    suite = benchmark_suite(args.kind, snr=args.snr, seed=args.seed)
    truth = {}
    length = None
    for profile, planted in suite:
        write_profile_plain(profile, out_dir / f"{profile.label}.txt")
        truth[profile.label] = planted
        length = len(profile)
    (out_dir / "truth.tsv").write_bytes(write_truth_manifest(truth, length=length))
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    with _naming(args.truth):
        truth, manifest_length = read_truth_manifest(Path(args.truth).read_bytes())
    length = args.length if args.length is not None else manifest_length
    if length is None:
        raise SegscanError("profile length unknown; pass --length or use a manifest "
                           "with a '# length=' header")
    pred_dir = Path(args.pred_dir)
    lines = ["#profile_id\ttp\tfp\tfn\tprecision\trecall\tf1"]
    reports = []
    for profile_id in sorted(truth):
        pred_path = pred_dir / f"{profile_id}.segments.tsv"
        if not pred_path.exists():
            raise SegscanError(f"missing prediction table {pred_path}")
        with _naming(pred_path):
            records = read_segments(pred_path.read_bytes())
            predicted = positions_mask([r for r in records if r.significant], length)
        with _naming(args.truth):
            planted = positions_mask(truth[profile_id], length)
        report = score(predicted, planted)
        reports.append(report)
        lines.append(f"{profile_id}\t{report.tp}\t{report.fp}\t{report.fn}\t"
                     f"{report.precision:.6f}\t{report.recall:.6f}\t{report.f1:.6f}")
    lines.append("MEAN\t%d\t%d\t%d\t%.6f\t%.6f\t%.6f" % (
        sum(r.tp for r in reports), sum(r.fp for r in reports), sum(r.fn for r in reports),
        statistics.fmean(r.precision for r in reports) if reports else 0.0,
        statistics.fmean(r.recall for r in reports) if reports else 0.0,
        statistics.fmean(r.f1 for r in reports) if reports else 0.0))
    _emit(("\n".join(lines) + "\n").encode("utf-8"), args.output)
    return EXIT_OK


def _cmd_bench(args) -> int:
    suite_dir = Path(args.suite)
    truth_path = suite_dir / "truth.tsv"
    with _naming(truth_path):
        truth, _ = read_truth_manifest(truth_path.read_bytes())
    rows = ["#profile_id\tn\tparse_seconds\tsegment_seconds"]
    total = 0.0
    for profile_id in sorted(truth):
        path = suite_dir / f"{profile_id}.txt"
        with _naming(path):
            t0 = time.perf_counter()
            profile = read_profile(path, format="plain")
            parse_seconds = time.perf_counter() - t0
            times = []
            for _ in range(args.repetitions):
                t0 = time.perf_counter()
                segment_profile(profile)
                times.append(time.perf_counter() - t0)
        seconds = statistics.median(times)
        total += seconds
        rows.append(f"{profile_id}\t{len(profile)}\t{parse_seconds:.6f}\t{seconds:.6f}")
    rows.append(f"TOTAL\t-\t-\t{total:.6f}")
    _emit(("\n".join(rows) + "\n").encode("utf-8"), args.output)
    return EXIT_OK


_COMMANDS = {
    "segment": _cmd_segment,
    "simulate": _cmd_simulate,
    "evaluate": _cmd_evaluate,
    "bench": _cmd_bench,
}


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING, stream=sys.stderr,
                        format="segscan: %(levelname)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (SegscanError, OSError) as exc:
        print(f"segscan: error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
