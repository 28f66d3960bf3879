from __future__ import annotations

import math
from decimal import Decimal
from fractions import Fraction
from statistics import NormalDist

import numpy as np
import pytest

from sparsemh import (
    BinomialParams,
    IndicatorKind,
    InvalidDesignError,
    StratumTable,
    UndefinedIndicatorError,
    VarianceMethod,
    confidence_interval,
    estimate_indicator,
    katz_var_log_rr,
    mhq,
    stratum_ratios,
    transpose,
    var_bh_log_mhq,
    var_bh_log_mhq_true,
    var_gr_log_mhcr,
    var_gr_log_mhrr,
    var_rbg_log_mhor,
    var_skm_log_mhq,
    var_skm_log_mhq_true,
)
from sparsemh.estimators import _cells, _Sums, _weighted_sums
from sparsemh.variance import _rbg_log_variance, _skm_log_variance, _skm_terms

from conftest import make_dataset

# frozen from rational arithmetic on the three informative small-world strata
VAR_SKM_T3 = 0.04906759372350476
VAR_BH_T3 = 0.11651749747893496
VAR_GR_RR_T3 = 0.01727852177964373
VAR_GR_CR_T3 = 0.049933701950622855
VAR_RBG_T3 = 0.1399221804880643
KATZ_COL_26 = 0.10859140859140859   # 1/26 - 1/44 + 1/7 - 1/20
KATZ_ROW_26 = 0.03145599919793468   # 1/26 - 1/33 + 1/18 - 1/31


def random_positive_dataset(rng, k, high=30):
    return make_dataset(*(tuple(int(x) for x in rng.integers(1, high, size=4)) for _ in range(k)))


# ----------------------------------------------------------------- components

def skm_terms(a, b, c, d):
    """(r, s, v, w, q) of one stratum from the array kernels."""
    cells = tuple(np.array([x], dtype=float) for x in (a, b, c, d))
    sums = _weighted_sums(IndicatorKind.MHQ, *cells)
    v, w, q = _skm_terms(*cells, a + c, b + d, a + b + c + d, sums)
    return tuple(float(x[0]) for x in (sums.r, sums.s, v, w, q))


def test_skm_components_smallworld_first_stratum():
    r, s, v, w, q = skm_terms(26, 7, 18, 13)
    assert r == pytest.approx(520 / 97, rel=1e-15)
    assert s == pytest.approx(308 / 97, rel=1e-15)
    assert v == pytest.approx(0.25615800083549345, rel=1e-13)
    assert w == pytest.approx(0.8173599421868116, rel=1e-13)
    assert q == pytest.approx(-0.15838014091631444, rel=1e-13)
    ds = make_dataset((26, 7, 18, 13))
    assert mhq(ds) == pytest.approx(130 / 77, rel=1e-15)
    # the one-stratum variance is the delta-method combination of these components
    assert var_skm_log_mhq(ds) == pytest.approx(v / r**2 + w / s**2 - 2 * q / (r * s), rel=1e-13)


def test_skm_component_signs_and_p_matches_col_ratio():
    rng = np.random.default_rng(5)
    for _ in range(60):
        t = StratumTable("t", *(int(x) for x in rng.integers(1, 40, size=4)))
        r, s, v, w, q = skm_terms(*t.cells())
        assert r >= 0 and s >= 0
        assert v >= 0 and w >= 0
        assert q <= 0
        col_rr = (t.a / (t.a + t.c)) / (t.b / (t.b + t.d))
        assert mhq(make_dataset(t.cells())) == pytest.approx(col_rr, rel=1e-12)


def test_skm_components_zero_a_zeroes_r_side():
    r, s, v, w, q = skm_terms(0, 5, 7, 3)
    assert r == 0.0 and v == 0.0 and q == 0.0
    assert s > 0.0 and w > 0.0
    with pytest.raises(UndefinedIndicatorError, match="numerator sum is zero"):
        var_skm_log_mhq(make_dataset((0, 5, 7, 3)))


def test_skm_components_b_zero_leaves_p_undefined():
    assert stratum_ratios(StratumTable("t", 4, 0, 7, 3)).col_rr is None
    r, s, v, w, q = skm_terms(4, 0, 7, 3)
    assert s == 0.0 and w == 0.0 and q == 0.0
    assert v > 0.0
    with pytest.raises(UndefinedIndicatorError, match="denominator sum is zero"):
        var_skm_log_mhq(make_dataset((4, 0, 7, 3)))


def test_skm_components_require_informative_columns():
    for cells in ((0, 5, 0, 5), (5, 0, 5, 0)):
        with pytest.raises(ValueError, match="empty column"):
            var_skm_log_mhq(make_dataset(cells))


def test_dataset_components_totals(smallworld_filtered):
    _, r, s, _, _ = _weighted_sums(IndicatorKind.MHQ, *_cells(smallworld_filtered))
    assert math.fsum(r) == pytest.approx(520 / 97 + 240 / 68 + 36 / 34, rel=1e-14)
    assert math.fsum(s) == pytest.approx(308 / 97 + 210 / 68 + 48 / 34, rel=1e-14)
    assert math.fsum(r) / math.fsum(s) == mhq(smallworld_filtered)


def test_kernels_square_scalar_totals_as_the_batch_does():
    # analyze hands the kernels one dataset's totals R and S as numpy
    # scalars, the simulation as arrays over datasets. A scalar's ** 2 calls
    # C pow, which rounds the squares of these totals differently from x * x.
    cells = (np.array([3.0, 1.0]), np.array([7.0, 2.0]), np.array([4.0, 5.0]), np.array([2.0, 9.0]))
    a, b, c, d = cells
    totals = (a + c, b + d, a + b + c + d)
    sums = _weighted_sums(IndicatorKind.MHQ, *cells)
    scalar = sums._replace(rt=np.float64(61_914_041_810.0), st=np.float64(1_071_370_718_072.0))
    batch = _Sums(*(np.asarray(x)[None] for x in scalar))
    batch_cells = tuple(x[None] for x in cells)
    batch_totals = tuple(x[None] for x in totals)
    assert _skm_log_variance(*batch_cells, *batch_totals, batch)[0] == _skm_log_variance(*cells, *totals, scalar)
    assert _rbg_log_variance(*batch_cells, batch)[0] == _rbg_log_variance(*cells, scalar)


# ------------------------------------------------------------- SKM variance

def test_var_skm_smallworld(smallworld_filtered):
    assert var_skm_log_mhq(smallworld_filtered) == pytest.approx(VAR_SKM_T3, rel=1e-12)


def test_var_skm_consistent_with_published_interval(smallworld_filtered):
    # the 95% interval [0.84, 2.00] implies sd ~ ln(2.00/0.84)/(2*1.96)
    implied_sd = math.log(2.00 / 0.84) / (2 * 1.96)
    assert math.sqrt(var_skm_log_mhq(smallworld_filtered)) == pytest.approx(implied_sd, abs=2e-3)


def test_var_skm_single_stratum_equals_katz_column():
    rng = np.random.default_rng(13)
    for _ in range(60):
        t = StratumTable("t", *(int(x) for x in rng.integers(1, 50, size=4)))
        ds = make_dataset(t.cells())
        assert var_skm_log_mhq(ds) == pytest.approx(katz_var_log_rr(t, "column"), rel=1e-12)


def test_var_skm_duplicated_stratum_halves_variance():
    one = make_dataset((26, 7, 18, 13))
    two = make_dataset((26, 7, 18, 13), (26, 7, 18, 13))
    assert var_skm_log_mhq(one) == pytest.approx(KATZ_COL_26, rel=1e-12)
    assert var_skm_log_mhq(two) == pytest.approx(KATZ_COL_26 / 2, rel=1e-12)
    assert var_skm_log_mhq(two) < var_skm_log_mhq(one)


def test_var_skm_tolerates_zero_b_strata():
    # a zero b stratum contributes only numerator-side terms; no error
    ds = make_dataset((5, 0, 7, 9), (4, 3, 6, 8))
    assert var_skm_log_mhq(ds) > 0.0


def test_var_skm_errors_when_all_b_zero():
    ds = make_dataset((5, 0, 7, 9), (4, 0, 6, 8))
    with pytest.raises(UndefinedIndicatorError, match="denominator"):
        var_skm_log_mhq(ds)


def test_var_skm_requires_filtered_input():
    ds = make_dataset((5, 5, 5, 5), (0, 10, 0, 10))
    with pytest.raises(ValueError, match="filter_informative"):
        var_skm_log_mhq(ds)


# -------------------------------------------------------------- BH variance

def test_var_bh_single_table_reduction():
    ds = make_dataset((26, 7, 18, 13))
    assert var_bh_log_mhq(ds) == pytest.approx(0.25404595404595404, rel=1e-12)


def test_var_bh_exceeds_skm_by_column_terms_single_table():
    rng = np.random.default_rng(17)
    for _ in range(60):
        a, b, c, d = (int(x) for x in rng.integers(1, 50, size=4))
        ds = make_dataset((a, b, c, d))
        expected_gap = 2 / (a + c) + 2 / (b + d)
        assert var_bh_log_mhq(ds) - var_skm_log_mhq(ds) == pytest.approx(expected_gap, rel=1e-12)


def test_var_bh_exceeds_skm_on_smallworld(smallworld_filtered):
    assert var_bh_log_mhq(smallworld_filtered) == pytest.approx(VAR_BH_T3, rel=1e-12)
    assert var_bh_log_mhq(smallworld_filtered) > var_skm_log_mhq(smallworld_filtered)


def test_var_bh_strictly_exceeds_skm_randomized():
    rng = np.random.default_rng(19)
    for _ in range(60):
        ds = random_positive_dataset(rng, int(rng.integers(1, 8)))
        assert var_bh_log_mhq(ds) > var_skm_log_mhq(ds)


# ---------------------------------------------------- GR / RBG / Katz forms

def test_var_gr_mhrr_smallworld_interval(smallworld_filtered):
    assert var_gr_log_mhrr(smallworld_filtered) == pytest.approx(VAR_GR_RR_T3, rel=1e-12)
    lo, hi = confidence_interval(1.183780730159691, VAR_GR_RR_T3, 0.95)
    assert round(lo, 2) == 0.91 and round(hi, 2) == 1.53


def test_var_gr_mhrr_single_table_is_katz_row():
    rng = np.random.default_rng(29)
    for _ in range(40):
        t = StratumTable("t", *(int(x) for x in rng.integers(1, 50, size=4)))
        assert var_gr_log_mhrr(make_dataset(t.cells())) == pytest.approx(
            katz_var_log_rr(t, "row"), rel=1e-12
        )


def test_var_gr_mhrr_duplicated_stratum_halves():
    one = var_gr_log_mhrr(make_dataset((26, 7, 18, 13)))
    two = var_gr_log_mhrr(make_dataset((26, 7, 18, 13), (26, 7, 18, 13)))
    assert one == pytest.approx(KATZ_ROW_26, rel=1e-12)
    assert two == pytest.approx(one / 2, rel=1e-10)


def test_var_gr_mhcr_is_transpose_of_mhrr(smallworld_filtered):
    assert var_gr_log_mhcr(smallworld_filtered) == pytest.approx(VAR_GR_CR_T3, rel=1e-12)
    assert var_gr_log_mhcr(smallworld_filtered) == var_gr_log_mhrr(transpose(smallworld_filtered))
    lo, hi = confidence_interval(1.3187974661393624, VAR_GR_CR_T3, 0.95)
    assert round(lo, 2) == 0.85 and round(hi, 2) == 2.04


def test_var_gr_mhcr_single_table_is_katz_column():
    ds = make_dataset((26, 7, 18, 13))
    assert var_gr_log_mhcr(ds) == pytest.approx(KATZ_COL_26, rel=1e-12)


def test_var_rbg_smallworld_interval(smallworld_filtered):
    assert var_rbg_log_mhor(smallworld_filtered) == pytest.approx(VAR_RBG_T3, rel=1e-12)
    lo, hi = confidence_interval(1.6265002235290071, VAR_RBG_T3, 0.95)
    assert round(lo, 2) == 0.78 and round(hi, 2) == 3.39


def test_var_rbg_single_table_is_reciprocal_cell_sum():
    ds = make_dataset((26, 7, 18, 13))
    assert var_rbg_log_mhor(ds) == pytest.approx(1 / 26 + 1 / 7 + 1 / 18 + 1 / 13, rel=1e-12)


def test_var_rbg_balanced_table():
    ds = make_dataset((5, 5, 5, 5))
    assert var_rbg_log_mhor(ds) == pytest.approx(0.8, rel=1e-12)


def test_katz_values_and_errors():
    t = StratumTable("t", 26, 7, 18, 13)
    assert katz_var_log_rr(t, "column") == pytest.approx(KATZ_COL_26, rel=1e-15)
    assert katz_var_log_rr(t, "row") == pytest.approx(KATZ_ROW_26, rel=1e-15)
    with pytest.raises(UndefinedIndicatorError):
        katz_var_log_rr(StratumTable("t", 0, 7, 18, 13), "column")
    with pytest.raises(UndefinedIndicatorError):
        katz_var_log_rr(StratumTable("t", 5, 0, 18, 13), "column")
    with pytest.raises(UndefinedIndicatorError):
        katz_var_log_rr(StratumTable("t", 5, 7, 0, 13), "row")
    with pytest.raises(ValueError, match="orientation"):
        katz_var_log_rr(t, "diagonal")


def test_katz_vanishes_for_huge_balanced_tables():
    t = StratumTable("big", 10**6, 10**6, 10**6, 10**6)
    value = katz_var_log_rr(t, "column")
    assert 0.0 < value < 2e-6


def test_scale_consistency_all_estimators():
    rng = np.random.default_rng(31)
    base = random_positive_dataset(rng, 3, high=20)
    for m in (2, 5):
        repeated = make_dataset(*(row for row in base.counts.tolist() for _ in range(m)))
        for fn in (var_skm_log_mhq, var_bh_log_mhq, var_gr_log_mhrr, var_gr_log_mhcr, var_rbg_log_mhor):
            assert fn(repeated) == pytest.approx(fn(base) / m, rel=1e-8)


# --------------------------------------------------------------- intervals

def test_confidence_interval_reproduces_published_mhq_interval():
    lo, hi = confidence_interval(1.2962509382530716, VAR_SKM_T3, 0.95)
    assert round(lo, 2) == 0.84 and round(hi, 2) == 2.00


def test_confidence_interval_zero_variance_collapses():
    assert confidence_interval(1.7, 0.0, 0.95) == (1.7, 1.7)


def test_confidence_interval_matches_log_formula():
    value, var, level = 1.3, 0.05, 0.9
    lo, hi = confidence_interval(value, var, level)
    z = NormalDist().inv_cdf(0.5 + level / 2)
    assert lo == pytest.approx(math.exp(math.log(value) - z * math.sqrt(var)), rel=1e-14)
    assert hi == pytest.approx(math.exp(math.log(value) + z * math.sqrt(var)), rel=1e-14)


def test_confidence_interval_monotonic_in_variance_and_level():
    widths_var = [confidence_interval(1.5, v, 0.95) for v in (0.01, 0.05, 0.2)]
    spans = [hi - lo for lo, hi in widths_var]
    assert spans[0] < spans[1] < spans[2]
    widths_level = [confidence_interval(1.5, 0.05, lv) for lv in (0.8, 0.9, 0.99)]
    spans = [hi - lo for lo, hi in widths_level]
    assert spans[0] < spans[1] < spans[2]


def test_confidence_interval_validation():
    with pytest.raises(ValueError, match="level"):
        confidence_interval(1.0, 0.1, 1.0)
    with pytest.raises(ValueError, match="level"):
        confidence_interval(1.0, 0.1, 0.0)
    with pytest.raises(ValueError, match="positive"):
        confidence_interval(0.0, 0.1, 0.95)
    with pytest.raises(ValueError, match="variance"):
        confidence_interval(1.0, -0.1, 0.95)


def test_confidence_interval_upper_bound_past_exp_range():
    # z * sd = 709.8 is past exp's range (709.78), but a small value brings the bound back into it
    value, variance = 7.625205880558775e-06, 131145.99999237477
    lo, hi = confidence_interval(value, variance, 0.95)
    half = NormalDist().inv_cdf(0.975) * math.sqrt(variance)
    assert math.isfinite(hi) and math.log(hi) == pytest.approx(math.log(value) + half, rel=1e-15)
    assert lo == value * math.exp(-half)
    assert confidence_interval(1.0, 1e6, 0.95) == (0.0, math.inf)


def test_normal_quantile_value():
    # a unit log-variance puts the 95% bounds at exp(-+z) with z the 0.975 quantile
    lo, hi = confidence_interval(1.0, 1.0, 0.95)
    assert math.log(hi) == pytest.approx(1.959963985, abs=1e-9)
    assert math.log(lo) == pytest.approx(-1.959963985, abs=1e-9)


def test_estimate_indicator_bounds_and_methods(smallworld_filtered):
    for kind, method in (
        (IndicatorKind.MHRR, VarianceMethod.GR),
        (IndicatorKind.MHCR, VarianceMethod.GR),
        (IndicatorKind.MHOR, VarianceMethod.RBG),
        (IndicatorKind.MHQ, VarianceMethod.SKM),
    ):
        est = estimate_indicator(smallworld_filtered, kind)
        assert est.method is method
        assert est.ci_low <= est.value <= est.ci_high
        assert est.level == 0.95
    bh = estimate_indicator(smallworld_filtered, IndicatorKind.MHQ, method=VarianceMethod.BH)
    skm = estimate_indicator(smallworld_filtered, IndicatorKind.MHQ)
    assert bh.ci_high - bh.ci_low > skm.ci_high - skm.ci_low
    with pytest.raises(ValueError, match="does not apply"):
        estimate_indicator(smallworld_filtered, IndicatorKind.MHRR, method=VarianceMethod.SKM)


def test_estimate_indicator_stores_level_as_float(smallworld_filtered):
    # as build_report does, a level of any real type gives the estimate of its float
    for kind in IndicatorKind:
        expected = estimate_indicator(smallworld_filtered, kind)
        for level in (Fraction(19, 20), np.float64(0.95)):
            est = estimate_indicator(smallworld_filtered, kind, level=level)
            assert type(est.level) is float
            assert est == expected


# ------------------------------------------------------------ parameter forms

def test_binomial_params_validation():
    with pytest.raises(ValueError, match="p1"):
        BinomialParams(0.0, 0.5, 10, 10)
    with pytest.raises(ValueError, match="p2"):
        BinomialParams(0.5, 1.2, 10, 10)
    with pytest.raises(ValueError, match="n1"):
        BinomialParams(0.5, 0.5, 0, 10)
    # each of these used to be accepted, or to fail outside InvalidDesignError
    for p1 in (True, Fraction(1, 10), Decimal("0.1"), "0.1", np.float32(0.1)):
        with pytest.raises(InvalidDesignError, match="^p1 must be a real number"):
            BinomialParams(p1, 0.1, 10, 10)
    with pytest.raises(InvalidDesignError, match="^p1 must be finite"):
        BinomialParams(2**1100, 0.1, 10, 10)
    with pytest.raises(InvalidDesignError, match="^p2 must be a real number"):
        BinomialParams(0.1, Fraction(1, 10), 10, 10)
    assert type(BinomialParams(1, 1, 10, 10).p1) is float
    # float64 holds counts exactly only up to 2**53, as for the design's column totals
    with pytest.raises(InvalidDesignError, match=r"^n1 must be at most 2\*\*53, got 9007199254740993$"):
        BinomialParams(0.1, 0.1, 2**53 + 1, 10)
    with pytest.raises(InvalidDesignError, match=r"^n2 must be at most 2\*\*53, got 9007199254740993$"):
        BinomialParams(0.1, 0.1, 10, 2**53 + 1)
    assert BinomialParams(0.1, 0.1, 2**53, 2**53).n1 == 2**53
    params = BinomialParams(0.1, 0.05, 100, 1000)
    assert params.expected_cells() == pytest.approx((10.0, 50.0, 90.0, 950.0))


def test_var_skm_true_single_stratum_value():
    params = [BinomialParams(0.1, 0.1, 100, 1000)]
    # expected cells (10, 100, 90, 900) -> 90/(10*100) + 900/(100*1000)
    assert var_skm_log_mhq_true(params) == pytest.approx(0.099, rel=1e-12)


def test_var_bh_true_single_stratum_value():
    params = [BinomialParams(0.1, 0.1, 100, 1000)]
    assert var_bh_log_mhq_true(params) == pytest.approx(0.121, rel=1e-12)
    # general single-stratum reduction
    p = BinomialParams(0.07, 0.035, 50, 400)
    expected = 1 / (50 * 0.07) + 1 / 50 + 1 / (400 * 0.035) + 1 / 400
    assert var_bh_log_mhq_true([p]) == pytest.approx(expected, rel=1e-12)


def test_parameter_form_is_plugin_of_data_form():
    rng = np.random.default_rng(41)
    for _ in range(40):
        ds = random_positive_dataset(rng, int(rng.integers(1, 6)), high=40)
        params = [
            BinomialParams(
                a / (a + c), b / (b + d), a + c, b + d
            )
            for a, b, c, d in ds.counts.tolist()
        ]
        assert var_skm_log_mhq_true(params) == pytest.approx(var_skm_log_mhq(ds), rel=1e-10)
        assert var_bh_log_mhq_true(params) == pytest.approx(var_bh_log_mhq(ds), rel=1e-10)


def test_var_bh_true_exceeds_var_skm_true_on_grid():
    for psi in (0.2, 0.5, 1.0, 2.0, 10.0):
        for p1 in (0.02, 0.1, 0.2):
            p2 = p1 / psi
            if not 0.0 < p2 <= 1.0:
                continue
            for n1, n2 in ((50, 500), (100, 1000), (1000, 1000)):
                params = [BinomialParams(p1, p2, n1, n2) for _ in range(5)]
                assert var_bh_log_mhq_true(params) > var_skm_log_mhq_true(params)


def test_var_skm_true_halves_when_samples_double():
    params = [BinomialParams(p1, p1 / 2.0, 100, 1000) for p1 in (0.05, 0.1, 0.18)]
    doubled = [BinomialParams(p.p1, p.p2, 2 * p.n1, 2 * p.n2) for p in params]
    assert var_skm_log_mhq_true(doubled) == pytest.approx(var_skm_log_mhq_true(params) / 2, rel=2e-2)


def test_var_skm_true_matches_monte_carlo_sd():
    # Single stratum, 1e5 column-binomial replicates. At E[a] = 10 the exact
    # SD of ln(MHq) sits ~8% above any first-order formula (the log is too
    # curved at sparse counts), so 10% is the honest tolerance here; at 10x
    # the sample sizes the linearization is essentially exact.
    rng = np.random.default_rng(97)

    def mc_sd(n1, n2, p, reps=100_000):
        a = rng.binomial(n1, p, size=reps).astype(float)
        b = rng.binomial(n2, p, size=reps).astype(float)
        ok = (a > 0) & (b > 0)
        return np.log((a[ok] / n1) / (b[ok] / n2)).std(ddof=1)

    sparse_sd = math.sqrt(var_skm_log_mhq_true([BinomialParams(0.1, 0.1, 100, 1000)]))
    assert sparse_sd == pytest.approx(mc_sd(100, 1000, 0.1), rel=0.10)

    dense_sd = math.sqrt(var_skm_log_mhq_true([BinomialParams(0.1, 0.1, 1000, 10_000)]))
    assert dense_sd == pytest.approx(mc_sd(1000, 10_000, 0.1), rel=0.01)


def test_params_required():
    with pytest.raises(ValueError, match="at least one"):
        var_skm_log_mhq_true([])
