"""Analysis reports: every indicator, interval, weight, and diagnostic for a dataset.

A report computes each indicator's per-stratum terms once and derives its
weights, point value and every variance from them, through the same kernels
as :func:`~sparsemh.variance.estimate_indicator` and the public estimators.

Each output format has one renderer, ``*_chunks``, that makes the report's
text in order, in chunks of at most :data:`STRATA_PER_CHUNK` strata;
``render_*`` joins them. :func:`write_in_place` and :func:`write_chunks` write
each chunk as soon as it is made, so no whole-report string or byte copy is
built. What can fail (the estimates, the ``SOURCE_DATE_EPOCH`` check) runs
before the first chunk is made.
"""

from __future__ import annotations

import datetime
import json
import math
import os
import stat
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from itertools import filterfalse
from json.encoder import encode_basestring_ascii as _encode
from typing import TextIO

from . import __version__
from .estimators import IndicatorKind, _cells, _fsum, _normalized, ratio_columns
# not called here; kept importable because perfbench/spans.py wraps them here
from .estimators import stratum_ratios, stratum_weights, world_comparison_row  # noqa: F401
from .tables import StratifiedDataset, filter_informative
from .variance import _DEFAULT_METHOD, IndicatorEstimate, VarianceMethod, _estimate, _indicator_sums

BH_CAVEAT = "overestimates variance"

_REPORT_ORDER = (IndicatorKind.MHRR, IndicatorKind.MHCR, IndicatorKind.MHOR, IndicatorKind.MHQ)
# (position in _REPORT_ORDER, kind, variance method) of every estimate in a
# report: the default one per kind, then the opt-in BH estimate of MHq
_REPORT_PAIRS = tuple((i, kind, _DEFAULT_METHOD[kind]) for i, kind in enumerate(_REPORT_ORDER))
_BH_PAIR = (_REPORT_ORDER.index(IndicatorKind.MHQ), IndicatorKind.MHQ, VarianceMethod.BH)

# Renderers make a report's text in chunks of at most this many strata, so
# that a writer never builds the whole text as one string or one byte copy.
STRATA_PER_CHUNK = 2048
# Chunks are written this many characters at a time. Encoding a slice copies
# it, and a copy below glibc's default mmap threshold (128 KiB) reuses heap
# memory, where a copy of a whole chunk would map fresh pages every time.
_WRITE_SLICE = 1 << 16


@dataclass(frozen=True)
class AnalysisReport:
    """Everything the CLI prints for one dataset.

    Per-stratum rows cover the dataset in input order, including strata that
    were excluded from estimation; estimates and weights are computed on the
    retained strata only. ``ratios`` maps each per-stratum column (row_rr,
    col_rr, odds_ratio, world_row) to its values, ``None`` where undefined.
    """

    source: str
    level: float
    dataset: StratifiedDataset
    filtered: StratifiedDataset
    ratios: dict[str, list[float | None]]
    weights: dict[IndicatorKind, tuple[float, ...]]
    estimates: tuple[IndicatorEstimate, ...]


def build_report(
    ds: StratifiedDataset,
    source: str = "<memory>",
    level: float = 0.95,
    methods: tuple[str, ...] = ("skm",),
) -> AnalysisReport:
    """Filter, estimate every indicator, and collect the per-stratum diagnostics.

    Each indicator's terms are computed once on the retained strata and
    shared by its weights, point value and variances; the results and errors
    are those of :func:`~sparsemh.estimators.stratum_weights` and
    :func:`~sparsemh.variance.estimate_indicator`, raised in report order.
    ``methods`` selects the MHq variance estimators: ``skm`` is always
    sensible, ``bh`` adds the group-vs-world reconstruction (flagged as
    deprecated in all output because it overestimates the variance).
    """
    for method in methods:
        if method not in ("skm", "bh"):
            raise ValueError(f"unknown MHq variance method {method!r}: choose from skm, bh")
    filtered = filter_informative(ds)

    ratios = ratio_columns(ds.counts)

    cells = _cells(filtered)
    # by position in _REPORT_ORDER: each kind's sums, and the fsum of its S_i
    # (the divisor of the weights and the denominator of the point value)
    sums = [_indicator_sums(kind, *cells) for kind in _REPORT_ORDER]
    dens = [_fsum(kind_sums.s) for kind_sums in sums]
    weights = dict(zip(_REPORT_ORDER, map(_normalized, _REPORT_ORDER, (kind_sums.s for kind_sums in sums), dens)))

    pairs = _REPORT_PAIRS + (_BH_PAIR,) * ("bh" in methods)
    estimates = tuple(
        _estimate(kind, method, level, filtered.labels, cells, sums[i], dens[i]) for i, kind, method in pairs
    )

    return AnalysisReport(
        source=source,
        level=level,
        dataset=ds,
        filtered=filtered,
        ratios=ratios,
        weights=weights,
        estimates=estimates,
    )


def _stratum_rows(report: AnalysisReport, lo: int, hi: int):
    """(label, cells, row_rr, col_rr, odds_ratio, world_row) per stratum lo..hi-1, in input order."""
    columns = (column[lo:hi] for column in report.ratios.values())
    return zip(report.dataset.labels[lo:hi], report.dataset.counts[lo:hi].tolist(), *columns)


def _fmt(value: float | None, digits: int = 2) -> str:
    return "undefined" if value is None else f"{value:.{digits}f}"


def text_chunks(report: AnalysisReport) -> Iterator[str]:
    """The text of :func:`render_text`, in order, in chunks of at most :data:`STRATA_PER_CHUNK` strata."""
    excluded = report.filtered.excluded
    k = len(report.dataset)
    yield (
        f"dataset: {report.source}\n"
        f"strata: {k} read, {len(report.filtered)} used, {len(excluded)} excluded\n"
        "\nper-stratum ratios:\n"
        f"{'stratum':<12} {'a':>6} {'b':>6} {'c':>6} {'d':>6} {'n':>7} "
        f"{'row_rr':>10} {'col_rr':>10} {'odds_ratio':>10} {'world_row':>10}\n"
    )
    for lo in range(0, k, STRATA_PER_CHUNK):
        yield "".join(
            f"{label:<12} {a:>6} {b:>6} {c:>6} {d:>6} {a + b + c + d:>7} "
            + " ".join(f"{_fmt(r):>10}" for r in ratios) + "\n"
            for label, (a, b, c, d), *ratios in _stratum_rows(report, lo, lo + STRATA_PER_CHUNK)
        )
    for lo in range(0, len(excluded), STRATA_PER_CHUNK):
        yield "\n" * (not lo) + "".join(
            f"excluded: {table.label} ({reason})\n" for table, reason in excluded[lo:lo + STRATA_PER_CHUNK]
        )

    lines = ["", f"indicators ({report.level:.0%} confidence intervals):"]
    for est in report.estimates:
        note = f"  (deprecated: {BH_CAVEAT})" if est.method is VarianceMethod.BH else ""
        lines.append(
            f"{est.kind.value:<5} = {est.value:.2f}  "
            f"[{est.ci_low:.2f}, {est.ci_high:.2f}]  variance method: {est.method.value}{note}"
        )
    lines += ["", "normalized stratum weights:", ""]
    yield "\n".join(lines)

    labels = report.filtered.labels
    for kind in _REPORT_ORDER:
        weights = report.weights[kind]
        for lo in range(0, len(labels), STRATA_PER_CHUNK):
            hi = lo + STRATA_PER_CHUNK
            pairs = ", ".join(f"{label}={w:.3f}" for label, w in zip(labels[lo:hi], weights[lo:hi]))
            yield (", " if lo else f"{kind.value:<5} ") + pairs
        yield "\n"


def render_text(report: AnalysisReport) -> str:
    """Human-readable report; ratios and intervals are shown to 2 d.p."""
    return "".join(text_chunks(report))


class _FloatText(dict):
    """Per-call memo of JSON float text, in json's own spelling; ``None`` is ``null``.

    Sparse strata repeat the same few tables, so most ratio and weight
    values recur within one report.
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

    def texts(self, values: list[float | None]) -> list[str]:
        """``[self[v] for v in values]``, with the new values spelled in one pass where all are finite."""
        fresh = set(filterfalse(self.__contains__, values))
        fresh.discard(0.0)  # either zero; zeros go through __missing__ every time
        if all(map(math.isfinite, fresh)):
            self.update(zip(fresh, map(float.__repr__, fresh)))
        return list(map(self.__getitem__, values))


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
    excluded = {t.label: reason for t, reason in report.filtered.excluded}
    for lo in range(0, len(report.dataset), STRATA_PER_CHUNK):
        yield _strata_chunk(report, lo, lo + STRATA_PER_CHUNK, excluded, tails, memo)
    yield "\n  ]"


def _strata_chunk(report: AnalysisReport, lo: int, hi: int, excluded: dict, tails: dict, memo: _FloatText) -> str:
    """The stratum objects lo..hi-1, each after its comma (the list's bracket for stratum 0).

    ``tails`` maps each table already written to its text after the label.
    The work lists are this function's own, so they are freed before the
    chunk is written.
    """
    labels = report.dataset.labels[lo:hi]
    tables = list(zip(*report.dataset.counts[lo:hi].T.tolist(), map(excluded.get, labels)))
    fresh = dict(zip(tables, range(lo, hi)))  # distinct table -> a row holding it
    for table in fresh.keys() & tails.keys():
        del fresh[table]
    columns = report.ratios.values()
    # each new table's row_rr, col_rr, odds_ratio and world_row text, in one pass
    texts = iter(memo.texts([column[i] for i in fresh.values() for column in columns]))
    for (a, b, c, d, reason), row_rr, col_rr, odds_ratio, world_row in zip(fresh, texts, texts, texts, texts):
        tails[a, b, c, d, reason] = f''',
      "a": {a},
      "b": {b},
      "c": {c},
      "d": {d},
      "n": {a + b + c + d},
      "row_rr": {row_rr},
      "col_rr": {col_rr},
      "odds_ratio": {odds_ratio},
      "world_row": {world_row},
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
    for kind in _REPORT_ORDER:
        weights = report.weights[kind]
        for lo in range(0, len(labels), STRATA_PER_CHUNK):
            hi = lo + STRATA_PER_CHUNK
            block = [",\n      ", "", ": ", ""] * len(labels[lo:hi])
            if not lo:
                block[0] = f'{sep}\n    "{kind.value}": {{\n      '
            block[1::4] = map(_encode, labels[lo:hi])
            block[3::4] = memo.texts(weights[lo:hi])
            yield "".join(block)
        sep = "\n    },"
    yield "\n    }\n  }"


def _excluded_json(report: AnalysisReport) -> Iterator[str]:
    excluded = report.filtered.excluded
    for lo in range(0, len(excluded), STRATA_PER_CHUNK):
        yield ("," if lo else "[") + ",".join(f'''
    {{
      "stratum": {_encode(table.label)},
      "reason": {_encode(reason)}
    }}''' for table, reason in excluded[lo:lo + STRATA_PER_CHUNK])
    yield "\n  ]" if excluded else "[]"


def _indicators_json(report: AnalysisReport, memo: _FloatText) -> str:
    items = []
    for est in report.estimates:
        deprecated = f',\n      "deprecated": {_encode(BH_CAVEAT)}' if est.method is VarianceMethod.BH else ""
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

    The time stamp is read before the first chunk is made, so a bad
    ``SOURCE_DATE_EPOCH`` raises from this call, and making the chunks
    raises nothing.
    """
    return _json_chunks(report, _meta_json())


def _json_chunks(report: AnalysisReport, meta: str) -> Iterator[str]:
    memo = _FloatText()  # one per report: later chunks reuse the text of earlier ones' floats
    yield f'{{\n  "source": {json.dumps(report.source)},\n  "level": {json.dumps(report.level)},\n  "strata": '
    yield from _strata_json(report, memo)
    yield ',\n  "excluded": '
    yield from _excluded_json(report)
    yield ',\n  "weights": '
    yield from _weights_json(report, memo)
    yield f',\n  "indicators": {_indicators_json(report, memo)},\n  "meta": {meta}\n}}'


def render_json(report: AnalysisReport) -> str:
    """The report as JSON with full double precision, indented by two spaces.

    The bytes equal ``json.dumps(..., indent=2)`` of the same structure. The
    sections holding lists and objects are written from fixed templates
    instead of going through the pure-Python encoder that ``indent``
    selects; the scalar ``source`` and ``level`` go through the C encoder,
    whose text ``indent`` does not change.
    """
    return "".join(json_chunks(report))


def csv_chunks(report: AnalysisReport) -> list[str]:
    """The text of :func:`render_csv` as one chunk: it holds no per-stratum rows."""
    lines = ["kind,method,value,ci_low,ci_high,level,log_variance"]
    for est in report.estimates:
        lines.append(
            f"{est.kind.value},{est.method.value},{est.value!r},"
            f"{est.ci_low!r},{est.ci_high!r},{est.level!r},{est.log_variance!r}"
        )
    return ["\n".join(lines) + "\n"]


def render_csv(report: AnalysisReport) -> str:
    """Indicator table as CSV (full precision)."""
    return "".join(csv_chunks(report))


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
