"""Log-scale variance estimators and confidence intervals for the MH indicators.

Four estimators are provided, tagged by :class:`VarianceMethod`:

* ``SKM`` -- corrected delta-method variance of ln(MHq),
* ``BH``  -- the original group-vs-world reconstruction for ln(MHq), which
  systematically overestimates (at a single stratum it exceeds the classical
  value by exactly 2/(a+c) + 2/(b+d)),
* ``GR``  -- sparse-data variance for ln(MHRR) (and its transpose for MHCR),
* ``RBG`` -- three-term variance for ln(MHOR).

All variances are array-generic (cells may be numpy arrays whose last axis
indexes strata), so the Monte Carlo harness can evaluate thousands of
simulated datasets in one call. One table holds each (indicator, method)
variance as per-stratum terms and a combine step on the terms' totals over
strata and the indicator's totals R and S. Every entry is called as
``(a, b, c, d, sums)``: the float cells and the indicator's MH sums over
them, and an entry works out any column or table total it needs from the
cells. The public ``var_*`` functions, the report and the coverage study
read it; a new MHq method is one entry, which :func:`estimate_indicator` and
``analyze --methods`` both read; each kind's first entry is its default, and
an entry's caveat marks it deprecated. A report computes each indicator's sums
once for all its estimates, and the coverage study its terms per distinct (a, b).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Callable, NamedTuple

import numpy as np

from .estimators import IndicatorKind, UndefinedIndicatorError, _cells, _fsum, _mh_value, _Sums, _weighted_sums
# not called here; kept importable because perfbench/spans.py wraps it here
from .estimators import transpose  # noqa: F401
from .tables import StratifiedDataset


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
# the table of variances (cells are floats; last axis indexes strata)

def _skm_terms(a, b, c, d, sums: _Sums):
    """Per-stratum variances and covariance (v, w, q) of MHq's terms R_i and S_i in ``sums``.

    R_i = a(b+d)/m and S_i = b(a+c)/m, with m = a+b+n and n = a+b+c+d, are
    the numerator and denominator contributions of MHq; v, w, q estimate
    Var[R_i], Var[S_i], and Cov[R_i, S_i] by Taylor linearization of the
    column-binomial model. Requires positive column totals col1 = a+c and
    col2 = b+d; b = 0 is fine (it only zeroes the S-side terms -- no cell
    appears as a bare divisor).
    """
    col1 = a + c
    col2 = b + d
    n = a + b + c + d
    m4 = sums.t**4
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


def _rbg_terms(a, b, c, d, sums: _Sums):
    """Per-stratum terms pR_i, pS_i + qR_i and qS_i of the three-term variance of tables (a, b // c, d).

    p = (a+d)/t and q = (b+c)/t; t, R_i and S_i in ``sums`` are the tables'
    MHOR divisor and terms: t = a+b+c+d, R_i = ad/t, S_i = bc/t.
    """
    t, r, s, _, _ = sums
    p = (a + d) / t
    q = (b + c) / t
    return p * r, p * s + q * r, q * s


def _rbg_combine(rt, st, prt, pqt, qst):
    """Three-term variance of a log pooled odds ratio from its totals R, S and those of :func:`_rbg_terms`."""
    return prt / (2.0 * (rt * rt)) + pqt / (2.0 * rt * st) + qst / (2.0 * (st * st))


def _gr_terms(a, b, c, d, sums: _Sums):
    """GR's per-stratum numerator of ln(MHRR), ((a+b)(c+d)(a+c) - ac*n) / n**2 with n = ``sums.t``."""
    # as ad(a+b) + bc(c+d): non-negative terms that do not cancel when the products exceed 2**53
    return ((a * d * (a + b) + b * c * (c + d)) / sums.t**2,)


class _LogVariance(NamedTuple):
    """``terms(a, b, c, d, sums)``: ``count`` arrays; ``combine(R, S, *their totals over strata)``; a call runs both."""

    count: int
    terms: Callable
    combine: Callable
    caveat: str = ""  # why a report marks the method deprecated; none if empty

    def __call__(self, a, b, c, d, sums: _Sums):
        terms = self.terms(a, b, c, d, sums)
        return self.combine(sums.rt, sums.st, *(term.sum(axis=-1) for term in terms))


# Every variance by (indicator, method). MHCR's is MHRR's on the transposed
# tables (a, c // b, d), whose MHRR sums are MHCR's by construction. BH is RBG
# on the group-vs-world tables (a, b // a+c, b+d), whose MHOR sums are MHq's
# for integer-valued cells.
_LOG_VARIANCES: dict[tuple[IndicatorKind, VarianceMethod], _LogVariance] = {
    (IndicatorKind.MHRR, VarianceMethod.GR): _LogVariance(1, _gr_terms, lambda rt, st, numt: numt / (rt * st)),
    (IndicatorKind.MHOR, VarianceMethod.RBG): _LogVariance(3, _rbg_terms, _rbg_combine),
    (IndicatorKind.MHQ, VarianceMethod.SKM): _LogVariance(3, _skm_terms, _skm_combine),
    (IndicatorKind.MHQ, VarianceMethod.BH): _LogVariance(
        3, lambda a, b, c, d, sums: _rbg_terms(a, b, a + c, b + d, sums), _rbg_combine, "overestimates variance"
    ),
}
_LOG_VARIANCES[IndicatorKind.MHCR, VarianceMethod.GR] = _LOG_VARIANCES[IndicatorKind.MHRR, VarianceMethod.GR]

# the entries the simulation calls by name: SKM on MHq's sums, RBG on tables (a, b // c, d) and their MHOR sums
_skm_log_variance = _LOG_VARIANCES[IndicatorKind.MHQ, VarianceMethod.SKM]
_rbg_log_variance = _LOG_VARIANCES[IndicatorKind.MHOR, VarianceMethod.RBG]


# --------------------------------------------------------------------------
# data forms: the table on a dataset's labels, float cells and the
# indicator's sums, which a report computes once for several estimates

def _log_variance(kind: IndicatorKind, method: VarianceMethod, labels, a, b, c, d, sums: _Sums) -> float:
    """``method``'s log variance of ``kind`` from a dataset's labels and float cells and ``kind``'s sums.

    Raises under the name ``var_<method>_log_<kind>``, BH's included though
    it has no such function: first for a stratum with an empty column, then
    for a zero total. MHCR's GR variance is MHRR's on the transposed tables,
    so it rejects a stratum with an empty row as one with an empty column.
    """
    entry = _LOG_VARIANCES[kind, method]
    if kind is IndicatorKind.MHCR:
        kind, b, c = IndicatorKind.MHRR, c, b
    op = f"var_{method.value}_log_{kind.value}".lower()  # the name the messages give
    col1 = a + c
    col2 = b + d
    if not (col1.all() and col2.all()):
        i = int(((col1 == 0) | (col2 == 0)).argmax())
        raise ValueError(
            f"{op}: stratum {labels[i]!r} has an empty column "
            f"(a+c={int(col1[i])}, b+d={int(col2[i])}); apply filter_informative() first"
        )
    del col1, col2  # not held through the kernel, which works out its own
    if sums.rt == 0.0 or sums.st == 0.0:
        side = "numerator" if sums.rt == 0.0 else "denominator"
        raise UndefinedIndicatorError(f"{op} undefined: the {kind.value} {side} sum is zero")
    return float(entry(a, b, c, d, sums))


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


def var_gr_log_mhrr(ds: StratifiedDataset) -> float:
    """Sparse-data variance estimate of ln(MHRR)."""
    return _data_form(ds, IndicatorKind.MHRR, VarianceMethod.GR)


def var_gr_log_mhcr(ds: StratifiedDataset) -> float:
    """Sparse-data variance estimate of ln(MHCR): the row form on transposed tables."""
    return _data_form(ds, IndicatorKind.MHCR, VarianceMethod.GR)


def var_rbg_log_mhor(ds: StratifiedDataset) -> float:
    """Three-term variance estimate of ln(MHOR)."""
    return _data_form(ds, IndicatorKind.MHOR, VarianceMethod.RBG)


# --------------------------------------------------------------------------
# convenience: indicator + variance + interval in one call

# each kind's default method is its first one in the table
_DEFAULT_METHOD: dict[IndicatorKind, VarianceMethod] = dict(reversed(_LOG_VARIANCES))

# each pair's public data form: unread here, but perfbench/spans.py wraps the functions in it
_VARIANCE_FN = {
    (IndicatorKind.MHRR, VarianceMethod.GR): var_gr_log_mhrr,
    (IndicatorKind.MHCR, VarianceMethod.GR): var_gr_log_mhcr,
    (IndicatorKind.MHOR, VarianceMethod.RBG): var_rbg_log_mhor,
    (IndicatorKind.MHQ, VarianceMethod.SKM): var_skm_log_mhq,
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
    if (kind, method) not in _LOG_VARIANCES:
        raise ValueError(f"variance method {method.value} does not apply to {kind.value}")
    cells = _cells(ds)
    sums = _weighted_sums(kind, *cells)
    return _estimate(kind, method, float(level), ds.labels, cells, sums, _fsum(sums.s))
