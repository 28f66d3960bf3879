"""Command-line interface: dataset analysis and the Monte Carlo study suite.

Exit codes: 0 success, 2 parse error, 3 undefined indicator / no informative
strata, 4 invalid simulation design, flag or environment value, a design too
sparse to summarize or too large for memory, or an input too large for memory,
5 I/O error, except that a reader that closes stdout, or a named pipe given to
``--out``, before the end is no error: the command exits 0 and prints nothing
on stderr. :func:`main` alone turns an exception into one of these.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import os
import sys
from dataclasses import fields, replace
from pathlib import Path

from . import __version__
from .estimators import IndicatorKind, UndefinedIndicatorError
from .report import _mhq_methods, build_report, csv_chunks, json_chunks, text_chunks, write_chunks, write_in_place
# not called here; kept importable because perfbench/spans.py wraps it here
from .report import render_json  # noqa: F401
from .tables import NoInformativeStrataError, ParseError, parse_csv, parse_json
from .variance import _DEFAULT_METHOD

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_UNDEFINED = 3
EXIT_DESIGN = 4
EXIT_IO = 5

THREADS_ENV_VAR = "SPARSEMH_THREADS"

_RENDERERS = {"text": text_chunks, "json": json_chunks, "csv": csv_chunks}  # each --format choice, in --help order


def _default_threads() -> int:
    raw = os.environ.get(THREADS_ENV_VAR) or "1"
    try:
        if int(raw) >= 1:
            return int(raw)
    except ValueError:
        pass
    raise ValueError(f"{THREADS_ENV_VAR} must be a positive integer, got {raw!r}")


def _parse_scales(text: str) -> list[int]:
    try:
        return [int(s) for s in text.split(",") if s.strip()]
    except ValueError:
        raise ValueError(f"--scales must be comma-separated integers, got {text!r}") from None


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves no state in it.

    Every default is a constant; what the environment sets is read per call
    (``SPARSEMH_THREADS`` in :func:`_default_threads`, ``SOURCE_DATE_EPOCH``
    when a JSON report is rendered). The simulation design's flags have no
    default here: each is stored under its ``SimulationDesign`` field name
    only when given, and the design's own defaults fill the rest.
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
    analyze.add_argument("--format", choices=tuple(_RENDERERS), default="text", help="output format")
    analyze.add_argument("--level", type=float, default=0.95, help="confidence level (default 0.95)")
    default_method = _DEFAULT_METHOD[IndicatorKind.MHQ].value.lower()
    analyze.add_argument(
        "--methods",
        default=default_method,
        help=f"comma-separated MHq variance methods: {default_method} (default) or {','.join(_mhq_methods())}",
    )
    analyze.add_argument("--out", help="write the report here instead of stdout")

    simulate = sub.add_parser("simulate", help="run one of the Monte Carlo studies")
    simulate.add_argument("study", choices=("bias", "coverage", "width", "convergence"))
    design_flag = functools.partial(simulate.add_argument, default=argparse.SUPPRESS)
    design_flag("--k", type=int, help="number of strata")
    design_flag("--n-mentioned", type=int, help="mentioned articles per stratum")
    design_flag("--n-not-mentioned", type=int, help="not-mentioned articles per stratum")
    design_flag("--psi", type=float, help="true column risk ratio")
    design_flag("--p1-low", type=float, help="lower bound of the p1 draw")
    design_flag("--p1-high", type=float, help="upper bound of the p1 draw")
    design_flag(
        "--datasets",
        type=int,
        dest="datasets_per_rep",
        metavar="DATASETS",
        help="datasets per repetition; not used by convergence",
    )
    design_flag("--reps", type=int, help="repetitions (fresh p1 draw each); not used by convergence")
    design_flag("--seed", type=int, help="master seed")
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


def _cmd_analyze(args: argparse.Namespace) -> None:
    """Write the report chunk by chunk as it is rendered; whatever can fail runs before the first byte."""
    ds = _read_dataset(args.input, args.input_format)
    methods = tuple(m.strip().lower() for m in args.methods.split(",") if m.strip())
    report = build_report(ds, source=args.input, level=args.level, methods=methods)
    chunks = _RENDERERS[args.format](report)
    if args.format == "json":
        chunks = itertools.chain(chunks, ("\n",))  # the text, as json.dumps's, ends at its closing brace
    elif args.format == "text":
        # The source path and the labels are the only text that the
        # destination's encoding may refuse (JSON and CSV output is ASCII):
        # refuse it here, before the first byte, not part-way through.
        if args.out is not None:
            encoding, errors = "utf-8", "strict"
        else:
            encoding, errors = getattr(sys.stdout, "encoding", None), getattr(sys.stdout, "errors", None)
        if encoding:  # a text buffer such as io.StringIO takes any str
            "\n".join((report.source, *ds.labels)).encode(encoding, errors or "strict")
    if args.out is not None:  # an --out of '' names no file: opening it is the I/O error
        write_in_place(args.out, chunks)
    else:
        write_chunks(sys.stdout, chunks)


def _digest(summary) -> str:
    records = summary.records

    def mean(name: str) -> float:
        return sum(getattr(r, name) for r in records) / len(records)

    if summary.study == "convergence":
        last = records[-1]
        return (
            f"convergence: psi={summary.design.psi} scale={last.scale} "
            f"mean_abs_dev={last.mean_abs_dev:.5f} (mc_se {last.mc_se:.5f})"
        )
    head = f"{summary.study}: psi={summary.design.psi} reps={len(records)}"
    if summary.study == "bias":
        return f"{head} mean_skm_bias={mean('skm_bias'):+.5f} mean_bh_bias={mean('bh_bias'):+.5f}"
    if summary.study == "coverage":
        return f"{head} skm={mean('skm_coverage'):.4f} bh={mean('bh_coverage'):.4f} dropped={summary.dropped_total}"
    skm_w, bh_w = mean("skm_mean_width"), mean("bh_mean_width")
    ratio = bh_w / skm_w if skm_w else float("nan")
    return f"{head} skm_mean_width={skm_w:.4f} bh_mean_width={bh_w:.4f} bh/skm={ratio:.4f}"


def _cmd_simulate(args: argparse.Namespace) -> None:
    if args.out is not None and os.path.basename(args.out) in ("", ".", ".."):
        raise ValueError(f"--out must end in a file name prefix, got {args.out!r}")
    # imported here, so that analyze never loads the simulation or its thread pool
    from .simulation import (
        SimulationDesign,
        bias_study,
        convergence_study,
        coverage_study,
    )

    design = SimulationDesign(**{f.name: getattr(args, f.name) for f in fields(SimulationDesign) if f.name in args})
    threads = args.threads if args.threads is not None else _default_threads()
    if threads < 1:
        raise ValueError(f"--threads must be at least 1, got {threads}")

    if args.study == "bias":
        summary = bias_study(design, threads=threads)
    elif args.study == "convergence":
        summary = convergence_study(design, _parse_scales(args.scales), replicates=args.replicates, threads=threads)
    else:  # coverage, or width: the coverage study's records under that label
        summary = replace(coverage_study(design, threads=threads), study=args.study)

    prefix = Path(args.out) if args.out else Path(f"sparsemh_{args.study}")
    csv_path, json_path = summary.write(prefix)
    print(f"{_digest(summary)} -> {csv_path} {json_path}")


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "analyze":
            _cmd_analyze(args)
        elif args.command == "simulate":
            _cmd_simulate(args)
        else:
            print(f"sparsemh {__version__}")
        sys.stdout.flush()  # a pipe closed early raises here, not at interpreter exit
        return EXIT_OK
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (UndefinedIndicatorError, NoInformativeStrataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNDEFINED
    except ValueError as exc:
        # flag and environment values (--level, --threads, ...) outside their domain,
        # and the simulation's InvalidDesignError and ExcessiveDropError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DESIGN
    except BrokenPipeError:
        # a reader stopped early: stdout, where it has a descriptor (io.StringIO has none), goes
        # to os.devnull, so that the flush at interpreter exit cannot raise again
        with contextlib.suppress(AttributeError, OSError), open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return EXIT_OK
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except MemoryError as exc:
        # numpy's MemoryError names the allocation the input or the design asked for
        what = "input" if args.command == "analyze" else "design"
        print(f"error: {str(exc) or f'the {what} does not fit in memory'}", file=sys.stderr)
        return EXIT_DESIGN


if __name__ == "__main__":
    raise SystemExit(main())
