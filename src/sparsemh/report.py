"""Analysis reports: every indicator, interval, weight, and diagnostic for a dataset."""

from __future__ import annotations

import datetime
import json
from dataclasses import dataclass

from . import __version__
from .estimators import IndicatorKind, ratio_columns, stratum_weights
# not called here; kept importable because perfbench/spans.py wraps them here
from .estimators import stratum_ratios, world_comparison_row  # noqa: F401
from .tables import StratifiedDataset, filter_informative
from .variance import IndicatorEstimate, VarianceMethod, estimate_indicator

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

    ``methods`` selects the MHq variance estimators: ``skm`` is always
    sensible, ``bh`` adds the group-vs-world reconstruction (flagged as
    deprecated in all output because it overestimates the variance).
    """
    for method in methods:
        if method not in ("skm", "bh"):
            raise ValueError(f"unknown MHq variance method {method!r}: choose from skm, bh")
    filtered = filter_informative(ds)

    ratios = ratio_columns(ds.counts)

    weights = {kind: stratum_weights(filtered, kind) for kind in _REPORT_ORDER}

    estimates = [estimate_indicator(filtered, kind, level=level) for kind in _REPORT_ORDER]
    if "bh" in methods:
        estimates.append(
            estimate_indicator(filtered, IndicatorKind.MHQ, level=level, method=VarianceMethod.BH)
        )

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


def report_dict(report: AnalysisReport) -> dict:
    """JSON-ready structure with full double precision."""
    excluded_reasons = {t.label: reason for t, reason in report.filtered.excluded}
    strata = []
    for label, (a, b, c, d), row_rr, col_rr, odds_ratio, world_row in _stratum_rows(report):
        strata.append(
            {
                "stratum": label,
                "a": a,
                "b": b,
                "c": c,
                "d": d,
                "n": a + b + c + d,
                "row_rr": row_rr,
                "col_rr": col_rr,
                "odds_ratio": odds_ratio,
                "world_row": world_row,
                "excluded": label in excluded_reasons,
                "exclusion_reason": excluded_reasons.get(label),
            }
        )
    indicators = []
    for est in report.estimates:
        entry = {
            "kind": est.kind.value,
            "method": est.method.value,
            "value": est.value,
            "log_variance": est.log_variance,
            "ci_low": est.ci_low,
            "ci_high": est.ci_high,
            "level": est.level,
        }
        if est.method is VarianceMethod.BH:
            entry["deprecated"] = BH_CAVEAT
        indicators.append(entry)
    return {
        "source": report.source,
        "level": report.level,
        "strata": strata,
        "excluded": [
            {"stratum": label, "reason": reason} for label, reason in excluded_reasons.items()
        ],
        "weights": {
            kind.value: dict(zip(report.filtered.labels, report.weights[kind]))
            for kind in _REPORT_ORDER
        },
        "indicators": indicators,
        "meta": {
            "package": "sparsemh",
            "version": __version__,
            "generated_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        },
    }


def render_json(report: AnalysisReport) -> str:
    return json.dumps(report_dict(report), indent=2)


def render_csv(report: AnalysisReport) -> str:
    """Indicator table as CSV (full precision)."""
    lines = ["kind,method,value,ci_low,ci_high,level,log_variance"]
    for est in report.estimates:
        lines.append(
            f"{est.kind.value},{est.method.value},{est.value!r},"
            f"{est.ci_low!r},{est.ci_high!r},{est.level!r},{est.log_variance!r}"
        )
    return "\n".join(lines) + "\n"
