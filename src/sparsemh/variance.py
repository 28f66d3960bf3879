"""Log-scale variance estimators and confidence intervals for the MH indicators.

Five estimators are provided, tagged by :class:`VarianceMethod`:

* ``SKM``  -- corrected delta-method variance of ln(MHq),
* ``BH``   -- the original group-vs-world reconstruction for ln(MHq), which
  systematically overestimates (at a single stratum it exceeds the classical
  value by exactly 2/(a+c) + 2/(b+d)),
* ``GR``   -- sparse-data variance for ln(MHRR) (and its transpose for MHCR),
* ``RBG``  -- three-term variance for ln(MHOR),
* ``KATZ`` -- classical single-table log risk-ratio variance.

The SKM and BH estimators also come in parameter form for column-binomial
designs: every cell count is replaced by its expectation, which is what the
simulation harness evaluates at the true generating parameters.

All kernels are array-generic (cells may be numpy arrays whose last axis
indexes strata), so the Monte Carlo harness can evaluate thousands of
simulated datasets in one call.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Literal, Sequence

import numpy as np

from .estimators import INDICATOR_FN, IndicatorKind, UndefinedIndicatorError, _mhq_terms, _weighted_sums, transpose
from .tables import StratifiedDataset, StratumTable


class VarianceMethod(enum.Enum):
    SKM = "SKM"
    BH = "BH"
    GR = "GR"
    RBG = "RBG"
    KATZ = "KATZ"


def confidence_interval(value: float, log_variance: float, level: float = 0.95) -> tuple[float, float]:
    """Two-sided normal interval on the log scale: exp(ln value +- z*sqrt(var))."""
    if not 0.0 < level < 1.0:
        raise ValueError(f"confidence level must lie in (0, 1), got {level}")
    if value <= 0.0:
        raise ValueError(f"point value must be positive for a log-scale interval, got {value}")
    if log_variance < 0.0:
        raise ValueError(f"log-scale variance must be non-negative, got {log_variance}")
    half = NormalDist().inv_cdf(0.5 + level / 2.0) * math.sqrt(log_variance)
    return (value * math.exp(-half), value * math.exp(half))


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

    @classmethod
    def from_point(
        cls,
        kind: IndicatorKind,
        value: float,
        log_variance: float,
        method: VarianceMethod,
        level: float = 0.95,
    ) -> "IndicatorEstimate":
        lo, hi = confidence_interval(value, log_variance, level)
        return cls(kind, value, log_variance, lo, hi, level, method)

    @property
    def width(self) -> float:
        return self.ci_high - self.ci_low


# --------------------------------------------------------------------------
# array-generic kernels (cells are floats; last axis indexes strata)

def _skm_terms(a, b, c, d):
    """Per-stratum means, variances, and covariance of the two weighted-count sums.

    R_i = a(b+d)/(a+b+n) and S_i = b(a+c)/(a+b+n) are the numerator and
    denominator contributions of MHq; v, w, q estimate Var[R_i], Var[S_i],
    and Cov[R_i, S_i] by Taylor linearization of the column-binomial model.
    Requires positive column totals a+c and b+d; b = 0 is fine (it only
    zeroes the S-side terms -- no cell appears as a bare divisor).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    d = np.asarray(d, dtype=float)
    n = a + b + c + d
    m = a + b + n
    col1 = a + c
    col2 = b + d
    r, s = _mhq_terms(a, b, col1, col2, m)
    m4 = m**4
    var_a = a * c / col1
    var_b = b * d / col2
    v = col2**2 * ((n + b) ** 2 * var_a + a**2 * var_b) / m4
    w = col1**2 * (b**2 * var_a + (n + a) ** 2 * var_b) / m4
    q = -(col1 * col2 / m4) * (a * b * c * (b + n) / col1 + a * b * d * (a + n) / col2)
    return r, s, v, w, q


def _skm_log_variance(a, b, c, d):
    """Delta-method variance of ln(R/S) from the per-stratum terms.

    Var[R]/R^2 + Var[S]/S^2 - 2 Cov[R,S]/(R S); reduces exactly to the
    classical single-table value c/(a(a+c)) + d/(b(b+d)) when there is one
    stratum, and is always non-negative because every covariance term is
    non-positive.
    """
    r, s, v, w, q = _skm_terms(a, b, c, d)
    rt = r.sum(axis=-1)
    st = s.sum(axis=-1)
    return v.sum(axis=-1) / rt**2 + w.sum(axis=-1) / st**2 - 2.0 * q.sum(axis=-1) / (rt * st)


def _rbg_log_variance(a, b, c, d):
    """Three-term variance of the log pooled odds ratio of tables (a, b // c, d)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    d = np.asarray(d, dtype=float)
    t = a + b + c + d
    p = (a + d) / t
    q = (b + c) / t
    r, s = _weighted_sums(IndicatorKind.MHOR, a, b, c, d)
    rt = r.sum(axis=-1)
    st = s.sum(axis=-1)
    return (
        (p * r).sum(axis=-1) / (2.0 * rt**2)
        + (p * s + q * r).sum(axis=-1) / (2.0 * rt * st)
        + (q * s).sum(axis=-1) / (2.0 * st**2)
    )


# --------------------------------------------------------------------------
# data forms

def _mh_sums(ds: StratifiedDataset, kind: IndicatorKind, op: str):
    """Float cells of an informative dataset and the totals R, S of ``kind``'s MH sums.

    Raises naming the first stratum with an empty column (a+c = 0 or
    b+d = 0), then if either total is zero.
    """
    counts = ds.counts
    col1 = counts[:, 0] + counts[:, 2]
    col2 = counts[:, 1] + counts[:, 3]
    empty = (col1 == 0) | (col2 == 0)
    if empty.any():
        i = int(empty.argmax())
        raise ValueError(
            f"{op}: stratum {ds.labels[i]!r} has an empty column "
            f"(a+c={int(col1[i])}, b+d={int(col2[i])}); apply filter_informative() first"
        )
    a, b, c, d = counts.T.astype(float)
    r, s = _weighted_sums(kind, a, b, c, d)
    rt = float(r.sum())
    st = float(s.sum())
    if rt == 0.0 or st == 0.0:
        side = "numerator" if rt == 0.0 else "denominator"
        raise UndefinedIndicatorError(f"{op} undefined: the {kind.value} {side} sum is zero")
    return (a, b, c, d), rt, st


def var_skm_log_mhq(ds: StratifiedDataset) -> float:
    """Corrected variance estimate of ln(MHq) from the observed tables.

    Strata with an empty column must be filtered out beforehand; strata with
    b = 0 are tolerated (they contribute only R-side terms).
    """
    cells, rt, st = _mh_sums(ds, IndicatorKind.MHQ, "var_skm_log_mhq")
    _, _, v, w, q = _skm_terms(*cells)
    return float(v.sum() / rt**2 + w.sum() / st**2 - 2.0 * q.sum() / (rt * st))


def var_bh_log_mhq(ds: StratifiedDataset) -> float:
    """Group-vs-world variance reconstruction for ln(MHq) (overestimates).

    Applies the pooled log-odds-ratio variance to the group-vs-world layout
    of each stratum (rows a, b and a+c, b+d). Kept for comparison studies;
    prefer :func:`var_skm_log_mhq` for inference.
    """
    (a, b, c, d), _, _ = _mh_sums(ds, IndicatorKind.MHQ, "var_bh_log_mhq")
    return float(_rbg_log_variance(a, b, a + c, b + d))


def var_gr_log_mhrr(ds: StratifiedDataset) -> float:
    """Sparse-data variance estimate of ln(MHRR)."""
    (a, b, c, d), rt, st = _mh_sums(ds, IndicatorKind.MHRR, "var_gr_log_mhrr")
    n = a + b + c + d
    num = float((((a + b) * (c + d) * (a + c) - a * c * n) / n**2).sum())
    return num / (rt * st)


def var_gr_log_mhcr(ds: StratifiedDataset) -> float:
    """Sparse-data variance estimate of ln(MHCR): the row form on transposed tables."""
    return var_gr_log_mhrr(transpose(ds))


def var_rbg_log_mhor(ds: StratifiedDataset) -> float:
    """Three-term variance estimate of ln(MHOR)."""
    cells, _, _ = _mh_sums(ds, IndicatorKind.MHOR, "var_rbg_log_mhor")
    return float(_rbg_log_variance(*cells))


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
# parameter forms for the column-binomial model

@dataclass(frozen=True)
class BinomialParams:
    """Column-binomial parameters of one stratum.

    ``p1`` is the probability that a mentioned article belongs to the group,
    ``p2`` the same for not-mentioned articles; ``n1``/``n2`` are the fixed
    column sample sizes. The stratum column risk ratio is p1/p2.
    """

    p1: float
    p2: float
    n1: int
    n2: int

    def __post_init__(self) -> None:
        for name in ("p1", "p2"):
            p = getattr(self, name)
            if not 0.0 < p <= 1.0:
                raise ValueError(f"{name} must lie in (0, 1], got {p}")
        for name in ("n1", "n2"):
            size = getattr(self, name)
            if isinstance(size, bool) or not isinstance(size, int) or size < 1:
                raise ValueError(f"{name} must be a positive integer, got {size!r}")

    def expected_cells(self) -> tuple[float, float, float, float]:
        return (
            self.n1 * self.p1,
            self.n2 * self.p2,
            self.n1 * (1.0 - self.p1),
            self.n2 * (1.0 - self.p2),
        )


def _expected_cells(params: Sequence[BinomialParams]) -> tuple[np.ndarray, ...]:
    if not params:
        raise ValueError("at least one stratum of binomial parameters is required")
    arr = np.array([p.expected_cells() for p in params], dtype=float)
    return arr[:, 0], arr[:, 1], arr[:, 2], arr[:, 3]


def var_skm_log_mhq_true(params: Sequence[BinomialParams]) -> float:
    """Corrected variance of ln(MHq) evaluated at the true binomial parameters.

    Identical to :func:`var_skm_log_mhq` with every cell replaced by its
    expectation, so the data form is exactly the plug-in of this one at the
    empirical proportions.
    """
    return float(_skm_log_variance(*_expected_cells(params)))


def var_bh_log_mhq_true(params: Sequence[BinomialParams]) -> float:
    """Group-vs-world variance of ln(MHq) at the true binomial parameters."""
    a, b, c, d = _expected_cells(params)
    return float(_rbg_log_variance(a, b, a + c, b + d))


# --------------------------------------------------------------------------
# convenience: indicator + variance + interval in one call

_DEFAULT_METHOD: dict[IndicatorKind, VarianceMethod] = {
    IndicatorKind.MHRR: VarianceMethod.GR,
    IndicatorKind.MHCR: VarianceMethod.GR,
    IndicatorKind.MHOR: VarianceMethod.RBG,
    IndicatorKind.MHQ: VarianceMethod.SKM,
}

_VARIANCE_FN = {
    (IndicatorKind.MHRR, VarianceMethod.GR): var_gr_log_mhrr,
    (IndicatorKind.MHCR, VarianceMethod.GR): var_gr_log_mhcr,
    (IndicatorKind.MHOR, VarianceMethod.RBG): var_rbg_log_mhor,
    (IndicatorKind.MHQ, VarianceMethod.SKM): var_skm_log_mhq,
    (IndicatorKind.MHQ, VarianceMethod.BH): var_bh_log_mhq,
}


def estimate_indicator(
    ds: StratifiedDataset,
    kind: IndicatorKind,
    level: float = 0.95,
    method: VarianceMethod | None = None,
) -> IndicatorEstimate:
    """Point estimate plus interval for one indicator on a filtered dataset."""
    if method is None:
        method = _DEFAULT_METHOD[kind]
    try:
        variance_fn = _VARIANCE_FN[(kind, method)]
    except KeyError:
        raise ValueError(f"variance method {method.value} does not apply to {kind.value}") from None
    value = INDICATOR_FN[kind](ds)
    if value <= 0.0:
        raise UndefinedIndicatorError(
            f"{kind.value} is {value}; a log-scale interval needs a positive point estimate"
        )
    return IndicatorEstimate.from_point(kind, value, variance_fn(ds), method, level)
