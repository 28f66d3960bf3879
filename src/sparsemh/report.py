"""Analysis reports: every indicator, interval, weight, and diagnostic for a dataset.

A report computes each indicator's per-stratum terms once and derives its
weights, point value and every variance from them, through the same kernels
as :func:`~sparsemh.variance.estimate_indicator` and the public estimators.
"""

from __future__ import annotations

import datetime
import json
import math
import os
import stat
from dataclasses import dataclass
from itertools import filterfalse
from json.encoder import encode_basestring_ascii as _encode

from . import __version__
from .estimators import IndicatorKind, _cells, _fsum, _normalized, ratio_columns
# not called here; kept importable because perfbench/spans.py wraps them here
from .estimators import stratum_ratios, stratum_weights, world_comparison_row  # noqa: F401
from .tables import StratifiedDataset, filter_informative
from .variance import _DEFAULT_METHOD, IndicatorEstimate, VarianceMethod, _estimate, _indicator_sums

BH_CAVEAT = "overestimates variance"

_REPORT_ORDER = (IndicatorKind.MHRR, IndicatorKind.MHCR, IndicatorKind.MHOR, IndicatorKind.MHQ)


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
    sums = {kind: _indicator_sums(kind, *cells) for kind in _REPORT_ORDER}
    # fsum of S_i: the divisor of the weights and the denominator of the point value
    dens = {kind: _fsum(sums[kind].s) for kind in _REPORT_ORDER}
    weights = {kind: _normalized(kind, sums[kind].s, dens[kind]) for kind in _REPORT_ORDER}

    pairs = [(kind, _DEFAULT_METHOD[kind]) for kind in _REPORT_ORDER]
    if "bh" in methods:
        pairs.append((IndicatorKind.MHQ, VarianceMethod.BH))
    estimates = [
        _estimate(kind, method, level, filtered.labels, cells, sums[kind], dens[kind]) for kind, method in pairs
    ]

    return AnalysisReport(
        source=source,
        level=level,
        dataset=ds,
        filtered=filtered,
        ratios=ratios,
        weights=weights,
        estimates=tuple(estimates),
    )


def _stratum_rows(report: AnalysisReport):
    """(label, cells, row_rr, col_rr, odds_ratio, world_row) per stratum, in input order."""
    return zip(report.dataset.labels, report.dataset.counts.tolist(), *report.ratios.values())


def _fmt(value: float | None, digits: int = 2) -> str:
    return "undefined" if value is None else f"{value:.{digits}f}"


def render_text(report: AnalysisReport) -> str:
    """Human-readable report; ratios and intervals are shown to 2 d.p."""
    excluded_reasons = {t.label: reason for t, reason in report.filtered.excluded}
    lines = [
        f"dataset: {report.source}",
        f"strata: {len(report.dataset)} read, {len(report.filtered)} used, "
        f"{len(excluded_reasons)} excluded",
        "",
        "per-stratum ratios:",
    ]
    header = f"{'stratum':<12} {'a':>6} {'b':>6} {'c':>6} {'d':>6} {'n':>7} " \
             f"{'row_rr':>10} {'col_rr':>10} {'odds_ratio':>10} {'world_row':>10}"
    lines.append(header)
    for label, (a, b, c, d), *ratios in _stratum_rows(report):
        lines.append(
            f"{label:<12} {a:>6} {b:>6} {c:>6} {d:>6} {a + b + c + d:>7} "
            + " ".join(f"{_fmt(r):>10}" for r in ratios)
        )
    if excluded_reasons:
        lines.append("")
        for label, reason in excluded_reasons.items():
            lines.append(f"excluded: {label} ({reason})")

    lines += ["", f"indicators ({report.level:.0%} confidence intervals):"]
    for est in report.estimates:
        note = f"  (deprecated: {BH_CAVEAT})" if est.method is VarianceMethod.BH else ""
        lines.append(
            f"{est.kind.value:<5} = {est.value:.2f}  "
            f"[{est.ci_low:.2f}, {est.ci_high:.2f}]  variance method: {est.method.value}{note}"
        )

    lines += ["", "normalized stratum weights:"]
    for kind in _REPORT_ORDER:
        pairs = ", ".join(
            f"{label}={w:.3f}" for label, w in zip(report.filtered.labels, report.weights[kind])
        )
        lines.append(f"{kind.value:<5} {pairs}")
    return "\n".join(lines) + "\n"


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


def _strata_json(report: AnalysisReport, keys: list[str], memo: _FloatText) -> list[str]:
    excluded = {t.label: reason for t, reason in report.filtered.excluded}
    # A stratum object after its "stratum" key depends on the table alone;
    # sparse data repeat a few tables, so each distinct one is written once.
    tables = list(zip(*report.dataset.counts.T.tolist(), map(excluded.get, report.dataset.labels)))
    first = dict(zip(tables, range(len(tables))))  # distinct table -> a row holding it
    columns = report.ratios.values()
    # each distinct table's row_rr, col_rr, odds_ratio and world_row text, in one pass
    texts = iter(memo.texts([column[i] for i in first.values() for column in columns]))
    tails = {}
    for (a, b, c, d, reason), row_rr, col_rr, odds_ratio, world_row in zip(first, texts, texts, texts, texts):
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
    flat[0] = "[" + head
    flat[1::3] = keys
    flat[2::3] = map(tails.__getitem__, tables)
    flat.append("\n  ]")
    return flat


def _weights_json(report: AnalysisReport, keys: dict[str, str], memo: _FloatText) -> list[str]:
    entries = [keys[label] + ": " for label in report.filtered.labels]
    flat, sep = [], "{"
    for kind in _REPORT_ORDER:
        block = [",\n      "] * (3 * len(entries))
        block[0] = f'{sep}\n    "{kind.value}": {{\n      '
        block[1::3] = entries
        block[2::3] = memo.texts(report.weights[kind])
        flat += block
        flat.append("\n    }")
        sep = ","
    flat.append("\n  }")
    return flat


def _json_list(items: list[str]) -> str:
    """A list of ``{...}`` item texts, each starting with its newline and indent, as a top-level value."""
    return "[" + ",".join(items) + "\n  ]" if items else "[]"


def _excluded_json(report: AnalysisReport) -> str:
    return _json_list([f'''
    {{
      "stratum": {_encode(table.label)},
      "reason": {_encode(reason)}
    }}''' for table, reason in report.filtered.excluded])


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
    return _json_list(items)


def _meta_json() -> str:
    return f'''{{
    "package": "sparsemh",
    "version": {_encode(__version__)},
    "generated_at": {_encode(_generated_at())}
  }}'''


def render_json(report: AnalysisReport) -> str:
    """The report as JSON with full double precision, indented by two spaces.

    The bytes equal ``json.dumps(..., indent=2)`` of the same structure. The
    sections holding lists and objects are written from fixed templates
    instead of going through the pure-Python encoder that ``indent``
    selects; the scalar ``source`` and ``level`` go through the C encoder,
    whose text ``indent`` does not change.
    """
    memo = _FloatText()
    labels = report.dataset.labels
    encoded = list(map(_encode, labels))
    sections = {
        "source": [json.dumps(report.source)],
        "level": [json.dumps(report.level)],
        "strata": _strata_json(report, encoded, memo),
        "excluded": [_excluded_json(report)],
        "weights": _weights_json(report, dict(zip(labels, encoded)), memo),
        "indicators": [_indicators_json(report, memo)],
        "meta": [_meta_json()],
    }
    # one join over every section's fragments, so the text is copied once
    parts, sep = [], "{\n"
    for key, fragments in sections.items():
        parts.append(f'{sep}  "{key}": ')
        parts += fragments
        sep = ",\n"
    parts.append("\n}")
    return "".join(parts)


def render_csv(report: AnalysisReport) -> str:
    """Indicator table as CSV (full precision)."""
    lines = ["kind,method,value,ci_low,ci_high,level,log_variance"]
    for est in report.estimates:
        lines.append(
            f"{est.kind.value},{est.method.value},{est.value!r},"
            f"{est.ci_low!r},{est.ci_high!r},{est.level!r},{est.log_variance!r}"
        )
    return "\n".join(lines) + "\n"


def write_in_place(path: str | os.PathLike, text: str) -> None:
    """Write ``text`` as UTF-8 over ``path``, creating the file if it is missing.

    The file is written from its start without ``O_TRUNC`` and then, if it
    was a non-empty regular file, cut to the new length: on ext4, truncating
    a non-empty file to zero (or renaming a temp file over it) forces a
    writeback on close (``auto_da_alloc``), and rewriting in place does not.
    A new file, a FIFO or a device such as ``/dev/null`` is never truncated.
    A write that is cut short (an error, a signal, a crash or a power loss)
    can leave rows of the old file after the new ones, and nothing marks the
    file as mixed.
    """
    flags = os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0)
    with open(os.open(path, flags, 0o666), "w", encoding="utf-8") as fh:
        st = os.fstat(fh.fileno())
        fh.write(text)
        if stat.S_ISREG(st.st_mode) and st.st_size:
            fh.truncate()
