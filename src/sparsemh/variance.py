"""Log-scale variance estimators and confidence intervals for the MH indicators.

Four estimators are provided, tagged by :class:`VarianceMethod`:

* ``SKM`` -- corrected delta-method variance of ln(MHq),
* ``BH``  -- the original group-vs-world reconstruction for ln(MHq), which
  systematically overestimates (at a single stratum it exceeds the classical
  value by exactly 2/(a+c) + 2/(b+d)),
* ``GR``  -- sparse-data variance for ln(MHRR) (and its transpose for MHCR),
* ``RBG`` -- three-term variance for ln(MHOR).

:func:`katz_var_log_rr` gives the classical single-table log risk-ratio
variance.

All kernels are array-generic (cells may be numpy arrays whose last axis
indexes strata), so the Monte Carlo harness can evaluate thousands of
simulated datasets in one call. The SKM and RBG kernels come in two
parts: per-stratum terms (``_skm_terms``, ``_rbg_terms``) and a combine
step on their totals over strata and the indicator's MH sums
(``_skm_combine``, ``_rbg_combine``). Each data-form estimator is one
kernel per (indicator, method) pair that takes a dataset's float cells and
the indicator's sums over them; the public ``var_*`` functions,
:func:`estimate_indicator` and the analysis report all call these kernels,
and a report computes each indicator's sums once for all of its estimates.
The coverage study computes each term once per distinct (a, b), sums the
terms it looks up, and calls the same combine steps. The data forms here and
the simulation's parameter forms pass the column totals a+c, b+d and the
table total n as arrays. The simulation's drawn datasets, whose columns are
fixed by design, pass them as scalars. That substitution is bit-exact
because sums of integer-valued floats below 2**53 are exact.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Literal

import numpy as np

from .estimators import IndicatorKind, UndefinedIndicatorError, _cells, _fsum, _mh_value, _Sums, _weighted_sums
# not called here; kept importable because perfbench/spans.py wraps it here
from .estimators import transpose  # noqa: F401
from .tables import StratifiedDataset, StratumTable


class VarianceMethod(enum.Enum):
    SKM = "SKM"
    BH = "BH"
    GR = "GR"
    RBG = "RBG"


def confidence_interval(value: float, log_variance: float, level: float = 0.95) -> tuple[float, float]:
    """Two-sided normal interval on the log scale: exp(ln value +- z*sqrt(var)).

    An upper bound past the float range is ``inf``.
    """
    if not 0.0 < level < 1.0:
        raise ValueError(f"confidence level must lie in (0, 1), got {level}")
    if value <= 0.0:
        raise ValueError(f"point value must be positive for a log-scale interval, got {value}")
    if log_variance < 0.0:
        raise ValueError(f"log-scale variance must be non-negative, got {log_variance}")
    half = NormalDist().inv_cdf(0.5 + level / 2.0) * math.sqrt(log_variance)
    try:
        return (value * math.exp(-half), value * math.exp(half))
    except OverflowError:  # exp(half) is past the float range; the bound exp(ln value + half) may not be
        with np.errstate(over="ignore"):
            return (value * math.exp(-half), float(np.exp(math.log(value) + half)))


@dataclass(frozen=True)
class IndicatorEstimate:
    """Point estimate with its log-scale variance and confidence interval."""

    kind: IndicatorKind
    value: float
    log_variance: float
    ci_low: float
    ci_high: float
    level: float
    method: VarianceMethod


# --------------------------------------------------------------------------
# array-generic kernels (cells are floats; last axis indexes strata)

def _skm_terms(a, b, c, d, col1, col2, n, m):
    """Per-stratum variances and covariance (v, w, q) of MHq's weighted-count terms.

    R_i = a(b+d)/m and S_i = b(a+c)/m, with m = a+b+n, are the numerator and
    denominator contributions of MHq; v, w, q estimate Var[R_i], Var[S_i],
    and Cov[R_i, S_i] by Taylor linearization of the column-binomial model.
    Requires positive column totals col1 = a+c and col2 = b+d; b = 0 is fine
    (it only zeroes the S-side terms -- no cell appears as a bare divisor).

    The totals col1, col2 and n = a+b+c+d may be arrays shaped like the
    cells or, when every stratum of every dataset shares them (the fixed
    columns of the simulation design), scalars that numpy broadcasts. The
    substitution is bit-exact: sums of integer-valued floats below 2**53 are
    exact, so a+c computed cell by cell equals the scalar column total, and
    every later operation sees the same operands. Squares are written as
    products because a float scalar's ``**`` calls C ``pow``, which does not
    always round x*x the way an array's ``**2`` does.
    """
    m4 = m**4
    var_a = a * c / col1
    var_b = b * d / col2
    v = col2 * col2 * ((n + b) ** 2 * var_a + a**2 * var_b) / m4
    w = col1 * col1 * (b**2 * var_a + (n + a) ** 2 * var_b) / m4
    q = -(col1 * col2 / m4) * (a * b * c * (b + n) / col1 + a * b * d * (a + n) / col2)
    return v, w, q


def _skm_combine(rt, st, vt, wt, qt):
    """Delta-method variance of ln(R/S) from the totals R, S and the totals of v, w, q over strata.

    Var[R]/R^2 + Var[S]/S^2 - 2 Cov[R,S]/(R S); reduces exactly to the
    classical single-table value c/(a(a+c)) + d/(b(b+d)) when there is one
    stratum, and is always non-negative because every covariance term is
    non-positive.
    """
    return vt / (rt * rt) + wt / (st * st) - 2.0 * qt / (rt * st)


def _skm_log_variance(a, b, c, d, col1, col2, n, sums: _Sums):
    """:func:`_skm_combine` of the :func:`_skm_terms` of the cells, with MHq's ``sums``."""
    v, w, q = _skm_terms(a, b, c, d, col1, col2, n, sums.t)
    return _skm_combine(sums.rt, sums.st, v.sum(axis=-1), w.sum(axis=-1), q.sum(axis=-1))


def _rbg_terms(a, b, c, d, t, r, s):
    """Per-stratum terms pR_i, pS_i + qR_i and qS_i of the three-term variance of tables (a, b // c, d).

    p = (a+d)/t and q = (b+c)/t; t, R_i and S_i are the tables' MHOR divisor
    and terms: t = a+b+c+d, R_i = ad/t, S_i = bc/t. For the group-vs-world
    tables (a, b // a+c, b+d) these are exactly MHq's m, R_i and S_i of
    (a, b, c, d) when the cells are integer-valued, so the BH estimator
    reuses MHq's.
    """
    p = (a + d) / t
    q = (b + c) / t
    return p * r, p * s + q * r, q * s


def _rbg_combine(rt, st, prt, pqt, qst):
    """Three-term variance of a log pooled odds ratio from its totals R, S and those of :func:`_rbg_terms`."""
    return prt / (2.0 * (rt * rt)) + pqt / (2.0 * rt * st) + qst / (2.0 * (st * st))


def _rbg_log_variance(a, b, c, d, sums: _Sums):
    """:func:`_rbg_combine` of the :func:`_rbg_terms` of tables (a, b // c, d), with their MHOR ``sums``."""
    pr, pq, qs = _rbg_terms(a, b, c, d, sums.t, sums.r, sums.s)
    return _rbg_combine(sums.rt, sums.st, pr.sum(axis=-1), pq.sum(axis=-1), qs.sum(axis=-1))


# --------------------------------------------------------------------------
# data forms: one kernel on a dataset's labels, float cells and the
# indicator's sums, so a report that holds them for several estimates
# computes them once

def _log_variance(kind: IndicatorKind, method: VarianceMethod, labels, a, b, c, d, sums: _Sums) -> float:
    """``method``'s log variance of ``kind`` from a dataset's labels and float cells and ``kind``'s sums.

    Raises as the public ``var_*`` function does, under its name: first for a
    stratum with an empty column, then for a zero total. MHCR's GR variance
    is MHRR's on the transposed tables (a, c // b, d), whose MHRR sums are
    MHCR's, bit for bit; so it rejects a stratum with an empty row as one
    with an empty column.
    """
    if kind is IndicatorKind.MHCR:
        kind, b, c = IndicatorKind.MHRR, c, b
    op = f"var_{method.value}_log_{kind.value}".lower()  # the public function the messages name
    col1 = a + c
    col2 = b + d
    if not (col1.all() and col2.all()):
        i = int(((col1 == 0) | (col2 == 0)).argmax())
        raise ValueError(
            f"{op}: stratum {labels[i]!r} has an empty column "
            f"(a+c={int(col1[i])}, b+d={int(col2[i])}); apply filter_informative() first"
        )
    if sums.rt == 0.0 or sums.st == 0.0:
        side = "numerator" if sums.rt == 0.0 else "denominator"
        raise UndefinedIndicatorError(f"{op} undefined: the {kind.value} {side} sum is zero")
    if method is VarianceMethod.GR:
        # the per-stratum numerator (a+b)(c+d)(a+c) - ac*n as ad(a+b) + bc(c+d),
        # non-negative terms that do not cancel when the products exceed 2**53
        num = float(((a * d * (a + b) + b * c * (c + d)) / sums.t**2).sum())
        return num / float(sums.rt * sums.st)
    if method is VarianceMethod.RBG:
        return float(_rbg_log_variance(a, b, c, d, sums))
    if method is VarianceMethod.SKM:
        return float(_skm_log_variance(a, b, c, d, col1, col2, a + b + c + d, sums))
    return float(_rbg_log_variance(a, b, col1, col2, sums))  # BH: on the group-vs-world tables


def _data_form(ds: StratifiedDataset, kind: IndicatorKind, method: VarianceMethod) -> float:
    """``method``'s log variance of ``kind`` on a dataset."""
    cells = _cells(ds)
    return _log_variance(kind, method, ds.labels, *cells, _weighted_sums(kind, *cells))


def var_skm_log_mhq(ds: StratifiedDataset) -> float:
    """Corrected variance estimate of ln(MHq) from the observed tables.

    Strata with an empty column must be filtered out beforehand; strata with
    b = 0 are tolerated (they contribute only R-side terms).
    """
    return _data_form(ds, IndicatorKind.MHQ, VarianceMethod.SKM)


def var_bh_log_mhq(ds: StratifiedDataset) -> float:
    """Group-vs-world variance reconstruction for ln(MHq) (overestimates).

    Applies the pooled log-odds-ratio variance to the group-vs-world layout
    of each stratum (rows a, b and a+c, b+d). Kept for comparison studies;
    prefer :func:`var_skm_log_mhq` for inference.
    """
    return _data_form(ds, IndicatorKind.MHQ, VarianceMethod.BH)


def var_gr_log_mhrr(ds: StratifiedDataset) -> float:
    """Sparse-data variance estimate of ln(MHRR)."""
    return _data_form(ds, IndicatorKind.MHRR, VarianceMethod.GR)


def var_gr_log_mhcr(ds: StratifiedDataset) -> float:
    """Sparse-data variance estimate of ln(MHCR): the row form on transposed tables."""
    return _data_form(ds, IndicatorKind.MHCR, VarianceMethod.GR)


def var_rbg_log_mhor(ds: StratifiedDataset) -> float:
    """Three-term variance estimate of ln(MHOR)."""
    return _data_form(ds, IndicatorKind.MHOR, VarianceMethod.RBG)


def katz_var_log_rr(t: StratumTable, orientation: Literal["row", "column"]) -> float:
    """Classical single-table variance of a log risk ratio.

    ``column``: 1/a - 1/(a+c) + 1/b - 1/(b+d) (needs a > 0 and b > 0);
    ``row``:    1/a - 1/(a+b) + 1/c - 1/(c+d) (needs a > 0 and c > 0).
    Each pair is evaluated as c/(a(a+c)), which does not cancel when a is
    much larger than c.
    """
    a, b, c, d = t.cells()
    if orientation == "column":
        if a == 0 or b == 0:
            raise UndefinedIndicatorError(
                f"Katz column variance undefined for stratum {t.label!r}: needs a > 0 and b > 0"
            )
        return c / (a * (a + c)) + d / (b * (b + d))
    if orientation == "row":
        if a == 0 or c == 0:
            raise UndefinedIndicatorError(
                f"Katz row variance undefined for stratum {t.label!r}: needs a > 0 and c > 0"
            )
        return b / (a * (a + b)) + d / (c * (c + d))
    raise ValueError(f"orientation must be 'row' or 'column', got {orientation!r}")


# --------------------------------------------------------------------------
# convenience: indicator + variance + interval in one call

_DEFAULT_METHOD: dict[IndicatorKind, VarianceMethod] = {
    IndicatorKind.MHRR: VarianceMethod.GR,
    IndicatorKind.MHCR: VarianceMethod.GR,
    IndicatorKind.MHOR: VarianceMethod.RBG,
    IndicatorKind.MHQ: VarianceMethod.SKM,
}

# the public data form of each (kind, method) pair that estimate_indicator accepts
_VARIANCE_FN = {
    (IndicatorKind.MHRR, VarianceMethod.GR): var_gr_log_mhrr,
    (IndicatorKind.MHCR, VarianceMethod.GR): var_gr_log_mhcr,
    (IndicatorKind.MHOR, VarianceMethod.RBG): var_rbg_log_mhor,
    (IndicatorKind.MHQ, VarianceMethod.SKM): var_skm_log_mhq,
    (IndicatorKind.MHQ, VarianceMethod.BH): var_bh_log_mhq,
}


def _estimate(
    kind: IndicatorKind, method: VarianceMethod, level: float, labels, cells, sums: _Sums, den: float
) -> IndicatorEstimate:
    """``kind``'s estimate by ``method``.

    ``labels`` and ``cells`` are a dataset's labels and float cells, ``sums``
    are ``kind``'s sums over them, and ``den`` is the fsum of their S_i.
    """
    value = _mh_value(kind, sums.r, den)
    if value <= 0.0:
        raise UndefinedIndicatorError(
            f"{kind.value} is {value}; a log-scale interval needs a positive point estimate"
        )
    log_variance = _log_variance(kind, method, labels, *cells, sums)
    lo, hi = confidence_interval(value, log_variance, level)
    return IndicatorEstimate(kind, value, log_variance, lo, hi, level, method)


def estimate_indicator(
    ds: StratifiedDataset,
    kind: IndicatorKind,
    level: float = 0.95,
    method: VarianceMethod | None = None,
) -> IndicatorEstimate:
    """Point estimate plus interval for one indicator on a filtered dataset."""
    if method is None:
        method = _DEFAULT_METHOD[kind]
    if (kind, method) not in _VARIANCE_FN:
        raise ValueError(f"variance method {method.value} does not apply to {kind.value}")
    cells = _cells(ds)
    sums = _weighted_sums(kind, *cells)
    return _estimate(kind, method, float(level), ds.labels, cells, sums, _fsum(sums.s))
