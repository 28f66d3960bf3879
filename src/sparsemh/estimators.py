"""Stratum-level ratios and Mantel-Haenszel summary indicators.

All summary indicators are ratios of weighted count sums, so they stay
defined when individual strata contain zeros; a stratum-level ratio that
hits a zero denominator is reported as ``None`` rather than raised.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .tables import StratifiedDataset, StratumTable


class UndefinedIndicatorError(ValueError):
    """An indicator's defining denominator sum is zero."""


class IndicatorKind(enum.Enum):
    MHRR = "MHRR"
    MHCR = "MHCR"
    MHOR = "MHOR"
    MHQ = "MHq"


@dataclass(frozen=True)
class StratumRatios:
    """Row risk ratio, column risk ratio, and odds ratio for one stratum.

    A field is ``None`` exactly when its defining fraction has a zero
    denominator or takes the 0/0 form.
    """

    row_rr: float | None
    col_rr: float | None
    odds_ratio: float | None


def _cells(ds: StratifiedDataset) -> tuple[np.ndarray, ...]:
    """Float cells a, b, c, d of a dataset; products of counts within MAX_COUNT are exact in them."""
    return tuple(ds.counts.T.astype(float))


def _weighted_sums(kind: IndicatorKind, a, b, c, d):
    """Per-stratum divisor t and terms (R_i, S_i) of an MH indicator.

    The indicator is sum(R_i) / sum(S_i); S_i is the stratum's raw weight.
    Cells are float arrays (last axis indexes strata); t is the table total
    n = a+b+c+d, or m = a+b+n for MHq.
    """
    n = a + b + c + d
    if kind is IndicatorKind.MHRR:
        return n, a * (c + d) / n, c * (a + b) / n
    if kind is IndicatorKind.MHCR:
        return n, a * (b + d) / n, b * (a + c) / n
    if kind is IndicatorKind.MHOR:
        return n, a * d / n, b * c / n
    m = a + b + n
    return (m, *_mhq_terms(a, b, a + c, b + d, m))


def _mhq_terms(a, b, col1, col2, m):
    """MHq's (R_i, S_i) for kernels that already hold a+c, b+d and m = a+b+n."""
    return a * col2 / m, b * col1 / m


def _ratio(num_top, num_bot, den_top, den_bot, undefined=False) -> list[float | None]:
    """(num_top/num_bot) / (den_top/den_bot) per stratum.

    ``None`` where either inner denominator is zero, the divisor fraction is
    zero, or ``undefined`` is set.
    """
    undefined = undefined | (num_bot == 0) | (den_bot == 0) | (den_top == 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        value = ((num_top / num_bot) / (den_top / den_bot)).astype(object)
    value[undefined] = None
    return value.tolist()


def ratio_columns(counts: np.ndarray) -> dict[str, list[float | None]]:
    """Row and column risk ratios, odds ratio and world comparison of every stratum.

    ``counts`` is a (k, 4) array of a, b, c, d per stratum. A value is
    ``None`` where it is undefined; the world comparison is defined exactly
    where the row risk ratio is (a+b > 0 and c > 0).
    """
    a, b, c, d = counts.T
    return {
        "row_rr": _ratio(a, a + b, c, c + d),
        "col_rr": _ratio(a, a + c, b, b + d),
        "odds_ratio": _ratio(a, b, c, d),
        "world_row": _ratio(a, a + b, a + c, a + b + c + d, undefined=c == 0),
    }


def _table_columns(t: StratumTable) -> dict[str, float | None]:
    return {name: col[0] for name, col in ratio_columns(np.array([t.cells()], dtype=np.int64)).items()}


def stratum_ratios(t: StratumTable) -> StratumRatios:
    """Compute the three association measures for a single stratum."""
    cols = _table_columns(t)
    return StratumRatios(row_rr=cols["row_rr"], col_rr=cols["col_rr"], odds_ratio=cols["odds_ratio"])


def _fsum(x: np.ndarray) -> float:
    return math.fsum(x.tolist())


def _mh_value(kind: IndicatorKind, r: np.ndarray, den: float) -> float:
    """The indicator fsum(R_i) / den from its numerator terms and den = fsum(S_i)."""
    if den == 0.0:
        raise UndefinedIndicatorError(f"{kind.value} undefined: its denominator sum over all strata is zero")
    return _fsum(r) / den


def _sum_ratio(ds: StratifiedDataset, kind: IndicatorKind) -> float:
    _, r, s = _weighted_sums(kind, *_cells(ds))
    return _mh_value(kind, r, _fsum(s))


def mh_row_risk_ratio(ds: StratifiedDataset) -> float:
    """Pooled row risk ratio: how much more likely group members are mentioned."""
    return _sum_ratio(ds, IndicatorKind.MHRR)


def mh_col_risk_ratio(ds: StratifiedDataset) -> float:
    """Pooled column risk ratio: how much more likely mentioned articles are in the group."""
    return _sum_ratio(ds, IndicatorKind.MHCR)


def mh_odds_ratio(ds: StratifiedDataset) -> float:
    """Pooled odds ratio of being mentioned for group members versus the rest."""
    return _sum_ratio(ds, IndicatorKind.MHOR)


def mhq(ds: StratifiedDataset) -> float:
    """Pooled column risk ratio under group-vs-world weights.

    Algebraically a weighted average of the stratum column risk ratios, with
    weights b*(a+c)/(a+b+n); for a single stratum it equals the column risk
    ratio exactly.
    """
    return _sum_ratio(ds, IndicatorKind.MHQ)


INDICATOR_FN: dict[IndicatorKind, Callable[[StratifiedDataset], float]] = {
    IndicatorKind.MHRR: mh_row_risk_ratio,
    IndicatorKind.MHCR: mh_col_risk_ratio,
    IndicatorKind.MHOR: mh_odds_ratio,
    IndicatorKind.MHQ: mhq,
}


def stratum_weights(ds: StratifiedDataset, kind: IndicatorKind) -> tuple[float, ...]:
    """Normalized per-stratum weights behind the weighted-average form of each indicator.

    The indicator equals the weighted average of the matching stratum ratios
    whenever all those ratios are defined: the :func:`ratio_columns` column
    ``row_rr`` for MHRR, ``odds_ratio`` for MHOR, and ``col_rr`` for MHCR and
    MHq.
    """
    _, _, raw = _weighted_sums(kind, *_cells(ds))
    return _normalized(kind, raw, _fsum(raw))


def _normalized(kind: IndicatorKind, raw: np.ndarray, total: float) -> tuple[float, ...]:
    """The raw stratum weights S_i of ``kind`` divided by their fsum ``total``."""
    if total == 0.0:
        raise UndefinedIndicatorError(f"{kind.value} weights undefined: every raw stratum weight is zero")
    return tuple((raw / total).tolist())


def world_comparison_row(t: StratumTable) -> float:
    """Mention probability of the group relative to the whole stratum.

    Equals row_rr / (1 + f*(row_rr - 1)) with f the group's share of the
    stratum, and lies strictly between 1 and row_rr (or between row_rr and 1
    when row_rr < 1). Requires a defined row risk ratio; that already implies
    at least one mentioned article.
    """
    value = _table_columns(t)["world_row"]
    if value is None:
        raise UndefinedIndicatorError(
            f"world comparison undefined for stratum {t.label!r}: the row risk ratio is undefined"
        )
    return value


def transpose(ds: StratifiedDataset) -> StratifiedDataset:
    """Swap the group axis with the mention axis in every stratum.

    Exclusion diagnostics are carried along with their tables transposed;
    the recorded reasons still describe the original orientation.
    """
    return StratifiedDataset._from_counts(
        ds.labels,
        ds.counts[:, [0, 2, 1, 3]],
        tuple((t.transposed(), reason) for t, reason in ds.excluded),
    )
