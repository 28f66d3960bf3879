from __future__ import annotations

import math

import numpy as np
import pytest

from sparsemh import (
    IndicatorKind,
    StratumTable,
    UndefinedIndicatorError,
    filter_informative,
    mh_col_risk_ratio,
    mh_odds_ratio,
    mh_row_risk_ratio,
    mhq,
    stratum_ratios,
    stratum_weights,
    transpose,
    world_comparison_row,
)
from sparsemh.estimators import INDICATOR_FN, ratio_columns

from conftest import RATIO_COLUMN, make_dataset

# exact values for the three informative small-world strata, frozen from
# rational arithmetic: MHRR = 117347/99129, MHCR = 37682/28573,
# MHOR = 47297/29079, MHq = 32812/25313
MHRR_T3 = 1.183780730159691
MHCR_T3 = 1.3187974661393624
MHOR_T3 = 1.6265002235290071
MHQ_T3 = 1.2962509382530716


def random_positive_dataset(rng, k, high=30):
    return make_dataset(*(tuple(int(x) for x in rng.integers(1, high, size=4)) for _ in range(k)))


# ------------------------------------------------------------ stratum ratios

def test_stratum_ratios_smallworld_rows():
    r1 = stratum_ratios(StratumTable("cat1", 26, 7, 18, 13))
    assert r1.row_rr == pytest.approx(1.3569023569023568, rel=1e-15)
    assert r1.col_rr == pytest.approx(1.6883116883116882, rel=1e-15)
    assert r1.odds_ratio == pytest.approx(2.6825396825396823, rel=1e-15)

    r2 = stratum_ratios(StratumTable("cat2", 15, 7, 15, 9))
    assert (r2.row_rr, r2.col_rr, r2.odds_ratio) == pytest.approx(
        (1.0909090909090908, 1.1428571428571428, 1.2857142857142858), rel=1e-15
    )

    r3 = stratum_ratios(StratumTable("cat3", 3, 3, 13, 9))
    assert (r3.row_rr, r3.col_rr, r3.odds_ratio) == pytest.approx(
        (0.8461538461538461, 0.75, 0.6923076923076923), rel=1e-15
    )


def test_stratum_ratios_undefined_when_no_mentions():
    r4 = stratum_ratios(StratumTable("cat4", 0, 10, 0, 10))
    assert r4.row_rr is None and r4.col_rr is None and r4.odds_ratio is None


def test_stratum_ratios_balanced_table_is_unity():
    r = stratum_ratios(StratumTable("t", 5, 5, 5, 5))
    assert (r.row_rr, r.col_rr, r.odds_ratio) == (1.0, 1.0, 1.0)


def test_stratum_ratios_zero_denominator_cases():
    # c = 0 makes the row divisor zero; b = 0 the column divisor; d = 0 the odds divisor
    assert stratum_ratios(StratumTable("t", 5, 5, 0, 10)).row_rr is None
    assert stratum_ratios(StratumTable("t", 5, 0, 5, 10)).col_rr is None
    assert stratum_ratios(StratumTable("t", 5, 5, 5, 0)).odds_ratio is None
    # a = 0 with healthy denominators is the defined value 0
    r = stratum_ratios(StratumTable("t", 0, 10, 5, 5))
    assert r.row_rr == 0.0 and r.col_rr == 0.0 and r.odds_ratio == 0.0


# ----------------------------------------------------------------- indicators

def test_indicators_on_smallworld(smallworld_filtered):
    assert mh_row_risk_ratio(smallworld_filtered) == pytest.approx(MHRR_T3, rel=1e-14)
    assert mh_col_risk_ratio(smallworld_filtered) == pytest.approx(MHCR_T3, rel=1e-14)
    assert mh_odds_ratio(smallworld_filtered) == pytest.approx(MHOR_T3, rel=1e-14)
    assert mhq(smallworld_filtered) == pytest.approx(MHQ_T3, rel=1e-14)


def test_single_stratum_reductions():
    ds = make_dataset((26, 7, 18, 13))
    r = stratum_ratios(StratumTable(ds.labels[0], *ds.counts[0].tolist()))
    assert mh_row_risk_ratio(ds) == pytest.approx(r.row_rr, rel=1e-12)
    assert mh_col_risk_ratio(ds) == pytest.approx(r.col_rr, rel=1e-12)
    assert mh_odds_ratio(ds) == pytest.approx(r.odds_ratio, rel=1e-12)
    assert mhq(ds) == pytest.approx(r.col_rr, rel=1e-12)


def test_identical_balanced_strata_give_unity():
    ds = make_dataset((5, 5, 5, 5), (5, 5, 5, 5))
    assert mh_row_risk_ratio(ds) == pytest.approx(1.0, rel=1e-15)
    assert mhq(ds) == pytest.approx(1.0, rel=1e-15)
    ds3 = make_dataset(*([(5, 5, 5, 5)] * 3))
    assert mh_odds_ratio(ds3) == pytest.approx(1.0, rel=1e-15)


def test_transpose_duality_on_smallworld(smallworld_filtered):
    lhs = mh_col_risk_ratio(smallworld_filtered)
    rhs = mh_row_risk_ratio(transpose(smallworld_filtered))
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_transpose_duality_randomized():
    rng = np.random.default_rng(11)
    for _ in range(50):
        ds = random_positive_dataset(rng, int(rng.integers(1, 7)))
        assert mh_col_risk_ratio(ds) == pytest.approx(
            mh_row_risk_ratio(transpose(ds)), rel=1e-12
        )


def test_homogeneous_null_gives_unity():
    # strata built so the column proportions match exactly: b = m*a, d = m*c
    ds = make_dataset((2, 4, 6, 12), (5, 15, 1, 3), (7, 7, 2, 2))
    assert mhq(ds) == pytest.approx(1.0, rel=1e-12)
    assert mh_col_risk_ratio(ds) == pytest.approx(1.0, rel=1e-12)


def test_zero_mention_strata_do_not_move_point_estimates(smallworld, smallworld_filtered):
    # the unfiltered dataset includes the (0,10,0,10) stratum
    for fn in (mh_row_risk_ratio, mh_col_risk_ratio, mh_odds_ratio, mhq):
        assert fn(smallworld) == pytest.approx(fn(smallworld_filtered), rel=1e-14)


def test_indicator_zero_denominator_errors():
    no_b = make_dataset((3, 0, 4, 5), (2, 0, 3, 3))
    for fn in (mh_col_risk_ratio, mhq, mh_odds_ratio):
        with pytest.raises(UndefinedIndicatorError):
            fn(no_b)
    no_c = make_dataset((3, 2, 0, 5))
    with pytest.raises(UndefinedIndicatorError, match="MHRR"):
        mh_row_risk_ratio(no_c)


# -------------------------------------------------------------------- weights

def test_weights_on_smallworld(smallworld_filtered):
    wq = stratum_weights(smallworld_filtered, IndicatorKind.MHQ)
    assert wq == pytest.approx((0.4137004701141706, 0.4023624224706672, 0.18393710741516217), abs=1e-15)
    wc = stratum_weights(smallworld_filtered, IndicatorKind.MHCR)
    assert wc == pytest.approx((0.43387113708746017, 0.41157736324502153, 0.1545514996675183), abs=1e-15)


def test_weights_single_stratum_any_kind():
    ds = make_dataset((26, 7, 18, 13))
    for kind in IndicatorKind:
        assert stratum_weights(ds, kind) == (1.0,)


def test_weights_sum_to_one_randomized():
    rng = np.random.default_rng(23)
    for _ in range(30):
        ds = random_positive_dataset(rng, int(rng.integers(1, 9)))
        for kind in IndicatorKind:
            assert math.fsum(stratum_weights(ds, kind)) == pytest.approx(1.0, abs=1e-12)


def test_weights_error_when_all_zero():
    ds = make_dataset((5, 0, 0, 5))
    with pytest.raises(UndefinedIndicatorError, match="weights"):
        stratum_weights(ds, IndicatorKind.MHOR)


def test_weights_of_empty_row_strata_in_the_readme_example():
    """README "Notes": empty-row strata are kept; s2 (a+b = 0) weighs nothing, s3 (c+d = 0) only in MHCR and MHq."""
    ds = filter_informative(make_dataset((3, 2, 5, 7), (0, 0, 4, 6), (2, 1, 0, 0), (1, 4, 2, 9)))
    assert ds.labels == ("s1", "s2", "s3", "s4")
    weights = {kind: stratum_weights(ds, kind) for kind in IndicatorKind}
    assert round(weights[IndicatorKind.MHCR][2], 4) == 0.2827
    assert round(weights[IndicatorKind.MHQ][2], 4) == 0.2042
    assert all(w[1] == 0.0 for w in weights.values())
    assert weights[IndicatorKind.MHRR][2] == weights[IndicatorKind.MHOR][2] == 0.0


def test_weighted_average_identity_randomized():
    # each indicator is the weighted average of its matching stratum ratios
    rng = np.random.default_rng(37)
    for _ in range(60):
        ds = random_positive_dataset(rng, int(rng.integers(2, 9)))
        columns = ratio_columns(ds.counts)
        for kind in IndicatorKind:
            weights = stratum_weights(ds, kind)
            avg = math.fsum(w * x for w, x in zip(weights, columns[RATIO_COLUMN[kind]]))
            assert INDICATOR_FN[kind](ds) == pytest.approx(avg, rel=1e-10)


# ----------------------------------------------------------- world comparison

def test_world_comparison_closed_forms_agree():
    rng = np.random.default_rng(53)
    checked = 0
    while checked < 60:
        cells = tuple(int(x) for x in rng.integers(0, 25, size=4))
        if sum(cells) == 0:
            continue
        t = StratumTable("w", *cells)
        r = stratum_ratios(t).row_rr
        if r is None:
            continue
        direct = world_comparison_row(t)
        f = (t.a + t.b) / sum(t.cells())
        assert direct == pytest.approx(r / (1.0 + f * (r - 1.0)), rel=1e-12)
        checked += 1


def test_world_comparison_smallworld_value():
    # (26/33)/(44/64) = 416/363
    assert world_comparison_row(StratumTable("cat1", 26, 7, 18, 13)) == pytest.approx(
        1.1460055096418732, rel=1e-14
    )


def test_world_comparison_is_unity_for_null_tables():
    # row_rr = 1 forces the world comparison to 1 whatever the group share is
    for cells in ((5, 5, 5, 5), (2, 8, 3, 12), (1, 9, 9, 81)):
        t = StratumTable("t", *cells)
        assert stratum_ratios(t).row_rr == pytest.approx(1.0, rel=1e-14)
        assert world_comparison_row(t) == pytest.approx(1.0, rel=1e-14)


def test_world_comparison_undefined_when_group_is_world():
    with pytest.raises(UndefinedIndicatorError, match="row risk ratio"):
        world_comparison_row(StratumTable("t", 10, 5, 0, 0))


def test_world_comparison_lies_between_one_and_row_ratio():
    rng = np.random.default_rng(59)
    checked = 0
    while checked < 60:
        cells = tuple(int(x) for x in rng.integers(1, 25, size=4))
        t = StratumTable("w", *cells)
        r = stratum_ratios(t).row_rr
        w = world_comparison_row(t)
        if r > 1.0:
            assert 1.0 < w < r
        elif r < 1.0:
            assert r < w < 1.0
        else:
            assert w == pytest.approx(1.0, rel=1e-12)
        checked += 1


# ------------------------------------------------------------------ transpose

def test_transpose_swaps_counts_and_keeps_exclusions():
    ds = filter_informative(make_dataset((1, 2, 3, 4), (0, 5, 0, 5)))
    flipped = transpose(ds)
    assert flipped.counts[0].tolist() == [1, 3, 2, 4]
    assert flipped.excluded[0][0].cells() == (0, 0, 5, 5)
