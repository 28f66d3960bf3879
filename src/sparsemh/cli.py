"""Command-line interface: dataset analysis and the Monte Carlo study suite.

Exit codes: 0 success, 2 parse error, 3 undefined indicator / no informative
strata, 4 invalid simulation design, flag or environment value, or a design
too sparse to summarize or too large for memory, 5 I/O error.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__
from .estimators import UndefinedIndicatorError
from .report import build_report, csv_chunks, json_chunks, text_chunks, write_chunks, write_in_place
# not called here; kept importable because perfbench/spans.py wraps it here
from .report import render_json  # noqa: F401
from .tables import NoInformativeStrataError, ParseError, parse_csv, parse_json

if TYPE_CHECKING:
    from .simulation import StudySummary

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_UNDEFINED = 3
EXIT_DESIGN = 4
EXIT_IO = 5

THREADS_ENV_VAR = "SPARSEMH_THREADS"


def _default_threads() -> int:
    from .simulation import InvalidDesignError

    raw = os.environ.get(THREADS_ENV_VAR) or "1"
    try:
        if int(raw) >= 1:
            return int(raw)
    except ValueError:
        pass
    raise InvalidDesignError(f"{THREADS_ENV_VAR} must be a positive integer, got {raw!r}")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves no state in it.

    Every default is a constant; what the environment sets is read per call
    (``SPARSEMH_THREADS`` in :func:`_default_threads`, ``SOURCE_DATE_EPOCH``
    when a JSON report is rendered).
    """
    parser = argparse.ArgumentParser(
        prog="sparsemh",
        description="Mantel-Haenszel association indicators for stratified 2x2 count data",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="estimate all indicators for a CSV/JSON dataset")
    analyze.add_argument("input", help="path to a 'stratum,a,b,c,d' CSV or the equivalent JSON array")
    analyze.add_argument(
        "--input-format",
        choices=("auto", "csv", "json"),
        default="auto",
        help="input schema; 'auto' decides by file extension (default)",
    )
    analyze.add_argument(
        "--format", choices=("text", "json", "csv"), default="text", help="output format"
    )
    analyze.add_argument("--level", type=float, default=0.95, help="confidence level (default 0.95)")
    analyze.add_argument(
        "--methods",
        default="skm",
        help="comma-separated MHq variance methods: skm (default) or skm,bh",
    )
    analyze.add_argument("--out", help="write the report here instead of stdout")

    simulate = sub.add_parser("simulate", help="run one of the Monte Carlo studies")
    simulate.add_argument("study", choices=("bias", "coverage", "width", "convergence"))
    simulate.add_argument("--k", type=int, default=30, help="number of strata")
    simulate.add_argument("--n-mentioned", type=int, default=100, help="mentioned articles per stratum")
    simulate.add_argument(
        "--n-not-mentioned", type=int, default=1000, help="not-mentioned articles per stratum"
    )
    simulate.add_argument("--psi", type=float, default=1.0, help="true column risk ratio")
    simulate.add_argument("--p1-low", type=float, default=0.01, help="lower bound of the p1 draw")
    simulate.add_argument("--p1-high", type=float, default=0.2, help="upper bound of the p1 draw")
    simulate.add_argument(
        "--datasets", type=int, default=10_000, help="datasets per repetition; not used by convergence"
    )
    simulate.add_argument(
        "--reps", type=int, default=20, help="repetitions (fresh p1 draw each); not used by convergence"
    )
    simulate.add_argument("--seed", type=int, default=42, help="master seed")
    simulate.add_argument(
        "--threads",
        type=int,
        default=None,
        help=f"worker threads (default: ${THREADS_ENV_VAR} or 1; at most the repetitions, or the "
        "convergence scales, and the CPUs this process may use); never changes the numbers",
    )
    simulate.add_argument(
        "--scales",
        default="1,10,100",
        help="convergence only: comma-separated sample-size multipliers",
    )
    simulate.add_argument(
        "--replicates", type=int, default=1000, help="convergence only: datasets per scale"
    )
    simulate.add_argument("--out", help="output prefix for <prefix>.csv and <prefix>.json")

    sub.add_parser("version", help="print the package version")
    return parser


def _read_dataset(path_text: str, input_format: str):
    path = Path(path_text)
    data = path.read_bytes()
    if input_format == "auto":
        input_format = "json" if path.suffix.lower() == ".json" else "csv"
    return parse_json(data) if input_format == "json" else parse_csv(data)


def _cmd_analyze(args: argparse.Namespace) -> int:
    """Write the report chunk by chunk as it is rendered; whatever can fail runs before the first byte."""
    ds = _read_dataset(args.input, args.input_format)
    methods = tuple(m.strip().lower() for m in args.methods.split(",") if m.strip())
    report = build_report(ds, source=args.input, level=args.level, methods=methods)
    chunks = {"text": text_chunks, "json": json_chunks, "csv": csv_chunks}[args.format](report)
    if args.format == "text":
        # The source path and the labels are the only text that the
        # destination's encoding may refuse (JSON and CSV output is ASCII):
        # refuse it here, before the first byte, not part-way through.
        if args.out:
            encoding, errors = "utf-8", "strict"
        else:
            encoding, errors = getattr(sys.stdout, "encoding", None), getattr(sys.stdout, "errors", None)
        if encoding:  # a text buffer such as io.StringIO takes any str
            "\n".join((report.source, *ds.labels)).encode(encoding, errors or "strict")
    if args.out:
        write_in_place(args.out, chunks)
    else:
        write_chunks(sys.stdout, chunks)
    return EXIT_OK


def _digest(summary: StudySummary) -> str:
    records = summary.records
    if summary.study == "bias":
        skm = sum(r.skm_bias for r in records) / len(records)
        bh = sum(r.bh_bias for r in records) / len(records)
        return (
            f"bias: psi={summary.design.psi} reps={len(records)} "
            f"mean_skm_bias={skm:+.5f} mean_bh_bias={bh:+.5f}"
        )
    if summary.study in ("coverage", "width"):
        skm_cov = sum(r.skm_coverage for r in records) / len(records)
        bh_cov = sum(r.bh_coverage for r in records) / len(records)
        skm_w = sum(r.skm_mean_width for r in records) / len(records)
        bh_w = sum(r.bh_mean_width for r in records) / len(records)
        ratio = bh_w / skm_w if skm_w else float("nan")
        if summary.study == "width":
            return (
                f"width: psi={summary.design.psi} reps={len(records)} "
                f"skm_mean_width={skm_w:.4f} bh_mean_width={bh_w:.4f} bh/skm={ratio:.4f}"
            )
        return (
            f"coverage: psi={summary.design.psi} reps={len(records)} "
            f"skm={skm_cov:.4f} bh={bh_cov:.4f} dropped={summary.dropped_total}"
        )
    last = records[-1]
    return (
        f"convergence: psi={summary.design.psi} scale={last.scale} "
        f"mean_abs_dev={last.mean_abs_dev:.5f} (mc_se {last.mc_se:.5f})"
    )


def _cmd_simulate(args: argparse.Namespace) -> int:
    # imported here, so that analyze never loads the simulation or its thread pool
    from .simulation import (
        ExcessiveDropError,
        InvalidDesignError,
        SimulationDesign,
        bias_study,
        convergence_study,
        coverage_study,
    )

    design = SimulationDesign(
        k=args.k,
        n_mentioned=args.n_mentioned,
        n_not_mentioned=args.n_not_mentioned,
        psi=args.psi,
        p1_low=args.p1_low,
        p1_high=args.p1_high,
        datasets_per_rep=args.datasets,
        reps=args.reps,
        seed=args.seed,
    )
    threads = args.threads if args.threads is not None else _default_threads()
    if threads < 1:
        raise InvalidDesignError(f"--threads must be at least 1, got {threads}")

    if args.study == "convergence":
        try:
            scales = [int(s) for s in args.scales.split(",") if s.strip()]
        except ValueError:
            raise InvalidDesignError(f"--scales must be comma-separated integers, got {args.scales!r}") from None
    try:
        if args.study == "bias":
            summary = bias_study(design, threads=threads)
        elif args.study in ("coverage", "width"):
            summary = coverage_study(design, threads=threads, study=args.study)
        else:
            summary = convergence_study(design, scales, replicates=args.replicates, threads=threads)
    except (ExcessiveDropError, MemoryError) as exc:
        # numpy's MemoryError names the allocation the design asked for
        print(f"error: {str(exc) or 'the design does not fit in memory'}", file=sys.stderr)
        return EXIT_DESIGN

    prefix = Path(args.out) if args.out else Path(f"sparsemh_{args.study}")
    csv_path, json_path = summary.write(prefix)
    print(f"{_digest(summary)} -> {csv_path} {json_path}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "analyze":
            return _cmd_analyze(args)
        if args.command == "simulate":
            return _cmd_simulate(args)
        print(f"sparsemh {__version__}")
        return EXIT_OK
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (UndefinedIndicatorError, NoInformativeStrataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNDEFINED
    except ValueError as exc:
        # invalid flag values (--level, --methods, ...) outside their domain,
        # and InvalidDesignError, the simulation's ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DESIGN
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    raise SystemExit(main())
