"""Analysis reports: every indicator, interval, weight, and diagnostic for a dataset.

A report computes each indicator's per-stratum terms once and derives its
weights, point value and every variance from them, through the same kernels
as :func:`~sparsemh.variance.estimate_indicator` and the public estimators.

Each output format has one renderer, ``*_chunks``, that makes the report's
text in order, in chunks of at most :data:`STRATA_PER_CHUNK` strata;
:func:`render_json` joins the JSON ones. :func:`write_in_place` and
:func:`write_chunks` write each chunk as soon as it is made, so no
whole-report string or byte copy is built. What can fail (the estimates,
the ``SOURCE_DATE_EPOCH`` check) runs before the first chunk is made.
"""

from __future__ import annotations

import datetime
import itertools
import math
import os
import stat
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _encode
from typing import TextIO

import numpy as np

from . import __version__
from .estimators import STRATA_PER_CHUNK, IndicatorKind, _cells, _weight_total, _weighted_sums, ratio_columns
# not called here; kept importable because perfbench/spans.py wraps them here
from .estimators import stratum_ratios, stratum_weights, world_comparison_row  # noqa: F401
from .tables import StratifiedDataset, filter_informative
from .variance import _DEFAULT_METHOD, _LOG_VARIANCES, IndicatorEstimate, VarianceMethod, _estimate

# Chunks are written this many characters at a time. Encoding a slice copies
# it, and a copy below glibc's default mmap threshold (128 KiB) reuses heap
# memory, where a copy of a whole chunk would map fresh pages every time.
_WRITE_SLICE = 1 << 16


@dataclass(frozen=True)
class AnalysisReport:
    """Everything the CLI prints for one dataset.

    Per-stratum rows cover the dataset in input order, including strata that
    were excluded from estimation; estimates and weights are computed on the
    retained strata only. ``weights`` holds each indicator's read-only raw stratum weights S_i and their fsum.
    The renderers print each chunk's :func:`~sparsemh.estimators.ratio_columns` and S_i / fsum in their order.
    """

    source: str
    level: float
    dataset: StratifiedDataset
    filtered: StratifiedDataset
    weights: dict[IndicatorKind, tuple[np.ndarray, float]]
    estimates: tuple[IndicatorEstimate, ...]


def _mhq_methods() -> dict[str, VarianceMethod]:
    """The MHq methods of the variance table by lowercase name, in table order: the names ``analyze`` takes."""
    return {method.value.lower(): method for kind, method in _LOG_VARIANCES if kind is IndicatorKind.MHQ}


def build_report(
    ds: StratifiedDataset,
    source: str = "<memory>",
    level: float = 0.95,
    methods: tuple[str, ...] = (),
) -> AnalysisReport:
    """Filter, estimate every indicator, and collect the per-stratum diagnostics.

    Each indicator's terms are computed once on the retained strata and
    shared by its weights, point value and variances; the results and errors
    are those of :func:`~sparsemh.estimators.stratum_weights` and
    :func:`~sparsemh.variance.estimate_indicator`, raised in :class:`IndicatorKind` order.
    ``methods`` names the extra MHq variance methods to report after each
    kind's default (its first in the variance table), in table order; a
    method whose table entry has a caveat is flagged as deprecated.
    """
    level = float(level)
    named = _mhq_methods()
    if unknown := [method for method in methods if method not in named]:
        raise ValueError(f"unknown MHq variance method {unknown[0]!r}: choose from {', '.join(named)}")
    filtered = filter_informative(ds)

    cells = _cells(filtered)
    # each kind's sums, and the fsum of its S_i: the weights' divisor and the value's denominator
    sums = {kind: _weighted_sums(kind, *cells) for kind in IndicatorKind}
    dens = {kind: _weight_total(kind, kind_sums.s) for kind, kind_sums in sums.items()}
    for kind_sums in sums.values():
        kind_sums.s.flags.writeable = False

    # keys in order, so a method named twice, or the default named, is reported once
    pairs = dict.fromkeys((kind, _DEFAULT_METHOD[kind]) for kind in IndicatorKind)
    pairs |= dict.fromkeys((IndicatorKind.MHQ, method) for name, method in named.items() if name in methods)
    estimates = tuple(
        _estimate(kind, method, level, filtered.labels, cells, sums[kind], dens[kind]) for kind, method in pairs
    )

    return AnalysisReport(
        source=source,
        level=level,
        dataset=ds,
        filtered=filtered,
        weights={kind: (sums[kind].s, dens[kind]) for kind in IndicatorKind},
        estimates=estimates,
    )


def _fmt(value: float | None) -> str:
    return "undefined" if value is None else f"{value:.2f}"


def text_chunks(report: AnalysisReport) -> Iterator[str]:
    """The human-readable report, ratios and intervals to 2 d.p., in chunks of up to :data:`STRATA_PER_CHUNK` strata."""
    excluded = report.filtered.excluded
    k = len(report.dataset)
    yield (
        f"dataset: {report.source}\n"
        f"strata: {k} read, {len(report.filtered)} used, {len(excluded)} excluded\n"
        "\nper-stratum ratios:\n"
        f"{'stratum':<12} {'a':>6} {'b':>6} {'c':>6} {'d':>6} {'n':>7} "
        + " ".join(f"{name:>10}" for name in ratio_columns(report.dataset.counts[:0])) + "\n"
    )
    for lo in range(0, k, STRATA_PER_CHUNK):
        counts = report.dataset.counts[lo:lo + STRATA_PER_CHUNK]
        rows = zip(report.dataset.labels[lo:lo + STRATA_PER_CHUNK], counts.tolist(), *ratio_columns(counts).values())
        yield "".join(
            f"{label:<12} {a:>6} {b:>6} {c:>6} {d:>6} {a + b + c + d:>7} "
            + " ".join(f"{_fmt(r):>10}" for r in ratios) + "\n"
            for label, (a, b, c, d), *ratios in rows
        )
    for lo in range(0, len(excluded), STRATA_PER_CHUNK):
        yield "\n" * (not lo) + "".join(
            f"excluded: {label} ({reason})\n" for label, reason in excluded[lo:lo + STRATA_PER_CHUNK]
        )

    lines = ["", f"indicators ({report.level * 100:.15g}% confidence intervals):"]
    for est in report.estimates:
        caveat = _LOG_VARIANCES[est.kind, est.method].caveat
        note = f"  (deprecated: {caveat})" if caveat else ""
        lines.append(
            f"{est.kind.value:<5} = {est.value:.2f}  "
            f"[{est.ci_low:.2f}, {est.ci_high:.2f}]  variance method: {est.method.value}{note}"
        )
    lines += ["", "normalized stratum weights:", ""]
    yield "\n".join(lines)

    labels = report.filtered.labels
    for kind, (raw, total) in report.weights.items():
        for lo in range(0, len(labels), STRATA_PER_CHUNK):
            hi = lo + STRATA_PER_CHUNK
            pairs = ", ".join(f"{label}={w:.3f}" for label, w in zip(labels[lo:hi], (raw[lo:hi] / total).tolist()))
            yield (", " if lo else f"{kind.value:<5} ") + pairs
        yield "\n"


class _FloatText(dict):
    """Per-call memo of JSON float text, in json's own spelling; ``None`` is ``null``.

    Sparse strata repeat the same few tables, so most ratio and weight values recur within
    one report. Each value costs one lookup: ``__missing__`` spells a new one, and never stores a zero.
    """

    def __init__(self) -> None:
        super().__init__({None: "null"})

    def __missing__(self, value: float) -> str:
        if value != value:
            text = "NaN"
        elif value == math.inf:
            text = "Infinity"
        elif value == -math.inf:
            text = "-Infinity"
        else:
            text = float.__repr__(value)
        if value:  # 0.0 == -0.0, so zeros would share one key
            self[value] = text
        return text


def _generated_at() -> str:
    """ISO time stamp, taken from ``SOURCE_DATE_EPOCH`` when it is set."""
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    if not epoch:
        return datetime.datetime.now(datetime.timezone.utc).isoformat()
    try:
        return datetime.datetime.fromtimestamp(int(epoch), datetime.timezone.utc).isoformat()
    except (ValueError, OverflowError, OSError):
        raise ValueError(f"SOURCE_DATE_EPOCH must be an integer count of seconds, got {epoch!r}") from None


def _strata_json(report: AnalysisReport, memo: _FloatText) -> Iterator[str]:
    # A stratum object after its "stratum" key depends on the table alone;
    # sparse data repeat a few tables, so each distinct one is written once.
    # The tails are dropped when the strata are done, before the weights.
    tails = {}
    excluded = dict(report.filtered.excluded)
    for lo in range(0, len(report.dataset), STRATA_PER_CHUNK):
        yield _strata_chunk(report, lo, lo + STRATA_PER_CHUNK, excluded, tails, memo)
    yield '\n  ],\n  "excluded": '


def _strata_chunk(report: AnalysisReport, lo: int, hi: int, excluded: dict, tails: dict, memo: _FloatText) -> str:
    """The stratum objects lo..hi-1, each after its comma (the list's bracket for stratum 0).

    ``tails`` maps each table already written to its text after the label.
    The work lists are this function's own, so they are freed before the
    chunk is written.
    """
    labels = report.dataset.labels[lo:hi]
    counts = report.dataset.counts[lo:hi]
    tables = list(zip(*counts.T.tolist(), map(excluded.get, labels)))
    columns = [(f"\n      {_encode(name)}: ", column) for name, column in ratio_columns(counts).items()]
    for i, table in enumerate(tables):
        if table in tails:
            continue
        a, b, c, d, reason = table
        ratios = "".join([f"{key}{memo[column[i]]}," for key, column in columns])
        tails[table] = f''',
      "a": {a},
      "b": {b},
      "c": {c},
      "d": {d},
      "n": {a + b + c + d},{ratios}
      "excluded": {"false" if reason is None else "true"},
      "exclusion_reason": {"null" if reason is None else _encode(reason)}
    }}'''
    head = '\n    {\n      "stratum": '
    flat = ["," + head] * (3 * len(tables))
    if not lo:
        flat[0] = "[" + head
    flat[1::3] = map(_encode, labels)
    flat[2::3] = map(tails.__getitem__, tables)
    return "".join(flat)


def _weights_json(report: AnalysisReport, memo: _FloatText) -> Iterator[str]:
    labels = report.filtered.labels
    sep = "{"
    for kind, (raw, total) in report.weights.items():
        for lo in range(0, len(labels), STRATA_PER_CHUNK):
            hi = lo + STRATA_PER_CHUNK
            block = [",\n      ", "", ": ", ""] * len(labels[lo:hi])
            if not lo:
                block[0] = f'{sep}\n    "{kind.value}": {{\n      '
            block[1::4] = map(_encode, labels[lo:hi])
            block[3::4] = map(memo.__getitem__, (raw[lo:hi] / total).tolist())
            yield "".join(block)
        sep = "\n    },"
    yield '\n    }\n  },\n  "indicators": '


def _excluded_json(report: AnalysisReport) -> Iterator[str]:
    excluded = report.filtered.excluded
    for lo in range(0, len(excluded), STRATA_PER_CHUNK):
        yield ("," if lo else "[") + ",".join(f'''
    {{
      "stratum": {_encode(label)},
      "reason": {_encode(reason)}
    }}''' for label, reason in excluded[lo:lo + STRATA_PER_CHUNK])
    yield ("\n  ]" if excluded else "[]") + ',\n  "weights": '


def _indicators_json(report: AnalysisReport, memo: _FloatText) -> str:
    items = []
    for est in report.estimates:
        caveat = _LOG_VARIANCES[est.kind, est.method].caveat
        deprecated = f',\n      "deprecated": {_encode(caveat)}' if caveat else ""
        items.append(f'''
    {{
      "kind": {_encode(est.kind.value)},
      "method": {_encode(est.method.value)},
      "value": {memo[est.value]},
      "log_variance": {memo[est.log_variance]},
      "ci_low": {memo[est.ci_low]},
      "ci_high": {memo[est.ci_high]},
      "level": {memo[est.level]}{deprecated}
    }}''')
    return "[" + ",".join(items) + "\n  ]"


def _meta_json() -> str:
    return f'''{{
    "package": "sparsemh",
    "version": {_encode(__version__)},
    "generated_at": {_encode(_generated_at())}
  }}'''


def json_chunks(report: AnalysisReport) -> Iterator[str]:
    """The text of :func:`render_json`, in order, in chunks of at most :data:`STRATA_PER_CHUNK` strata.

    This call reads the time stamp, so a bad ``SOURCE_DATE_EPOCH`` raises
    here, and makes the head and the tail (indicators and meta); the chunks
    of the strata, excluded and weights sections are made as they are read,
    and raise nothing. Each part ends with the key of the next.
    """
    meta = _meta_json()
    memo = _FloatText()  # one per report: later chunks reuse the text of earlier ones' floats
    head = f'{{\n  "source": {_encode(report.source)},\n  "level": {memo[report.level]},\n  "strata": '
    tail = f'{_indicators_json(report, memo)},\n  "meta": {meta}\n}}'
    sections = _strata_json(report, memo), _excluded_json(report), _weights_json(report, memo)
    return itertools.chain((head,), *sections, (tail,))


def render_json(report: AnalysisReport) -> str:
    """The report as JSON with full double precision, indented by two spaces.

    The bytes equal ``json.dumps(..., indent=2)`` of the same structure. The
    sections holding lists and objects are written from fixed templates
    instead of going through the pure-Python encoder that ``indent``
    selects.
    """
    return "".join(json_chunks(report))


def csv_chunks(report: AnalysisReport) -> list[str]:
    """The indicator table as CSV (full precision), as one chunk: it holds no per-stratum rows."""
    lines = ["kind,method,value,ci_low,ci_high,level,log_variance"]
    for est in report.estimates:
        lines.append(
            f"{est.kind.value},{est.method.value},{est.value!r},"
            f"{est.ci_low!r},{est.ci_high!r},{est.level!r},{est.log_variance!r}"
        )
    return ["\n".join(lines) + "\n"]


def write_chunks(fh: TextIO, chunks: Iterable[str]) -> None:
    """Write the text ``chunks`` to ``fh`` in order, each as soon as it is made.

    A chunk goes out :data:`_WRITE_SLICE` characters at a time, so that
    encoding it never copies more than one slice.
    """
    for chunk in chunks:
        for start in range(0, len(chunk), _WRITE_SLICE):
            fh.write(chunk[start:start + _WRITE_SLICE])
        del chunk  # before the next chunk is made


def write_in_place(path: str | os.PathLike, chunks: Iterable[str]) -> None:
    """Write the text ``chunks`` in order as UTF-8 over ``path``, creating the file if it is missing.

    Each chunk is written by :func:`write_chunks` as soon as it is made, so
    the whole text is never built as one string or one byte copy. Whatever can fail
    belongs before this call: a chunk that raises stops the writing there.
    The file is written from its start without ``O_TRUNC`` and then, if it
    was a non-empty regular file, cut to the new length: on ext4, truncating
    a non-empty file to zero (or renaming a temp file over it) forces a
    writeback on close (``auto_da_alloc``), and rewriting in place does not.
    A new file, a FIFO or a device such as ``/dev/null`` is never truncated.
    A write that is cut short (an error, a signal, a crash or a power loss)
    can leave rows of the old file after the new ones, and nothing marks the
    file as mixed.
    """
    if isinstance(chunks, str):
        raise TypeError("write_in_place takes an iterable of str chunks, not one str")
    flags = os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0)
    with open(os.open(path, flags, 0o666), "w", encoding="utf-8") as fh:
        st = os.fstat(fh.fileno())
        write_chunks(fh, chunks)
        if stat.S_ISREG(st.st_mode) and st.st_size:
            fh.truncate()
