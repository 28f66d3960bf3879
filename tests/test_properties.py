"""Property tests: the array estimators against a per-stratum Python-int reference.

Counts are drawn up to the parse-time bound, zeros included. Every example
is derandomized, so a run is repeatable and needs no example database.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsemh import (
    IndicatorKind,
    NoInformativeStrataError,
    StratifiedDataset,
    StratumRatios,
    StratumTable,
    UndefinedIndicatorError,
    filter_informative,
    parse_csv,
    parse_json,
    serialize_csv,
    serialize_json,
    stratum_ratios,
    stratum_weights,
    transpose,
    var_gr_log_mhcr,
    var_gr_log_mhrr,
    world_comparison_row,
)
from sparsemh.estimators import INDICATOR_FN, ratio_columns
from sparsemh.tables import EXCLUDED_NO_NOT_MENTIONED, MAX_COUNT

from conftest import make_dataset

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=60)

# zeros are drawn often: sparse strata are what the estimators are for
count = st.one_of(st.just(0), st.integers(1, 3), st.integers(0, 60), st.integers(0, MAX_COUNT))
cells = st.tuples(count, count, count, count).filter(any)
datasets = st.lists(cells, min_size=1, max_size=8).map(lambda rows: make_dataset(*rows))
# every row and column non-empty, so a dataset and its transpose are both informative
full_cells = cells.filter(lambda t: t[0] + t[1] and t[2] + t[3] and t[0] + t[2] and t[1] + t[3])
full_datasets = st.lists(full_cells, min_size=1, max_size=8).map(lambda rows: make_dataset(*rows))

label = st.text(st.characters(blacklist_characters=",\r\n", blacklist_categories=("Cs",)), min_size=1)
labelled_datasets = st.lists(cells, min_size=1, max_size=6).flatmap(
    lambda rows: st.lists(
        label.filter(lambda s: s == s.strip()), min_size=len(rows), max_size=len(rows), unique=True
    ).map(lambda labels: StratifiedDataset(StratumTable(lab, *row) for lab, row in zip(labels, rows)))
)


# ---------------------------------------------- per-stratum Python-int reference

def ref_ratio(num_top: int, num_bot: int, den_top: int, den_bot: int) -> float | None:
    if num_bot == 0 or den_bot == 0 or den_top == 0:
        return None
    return (num_top / num_bot) / (den_top / den_bot)


def ref_ratios(a: int, b: int, c: int, d: int) -> dict[str, float | None]:
    row_rr = ref_ratio(a, a + b, c, c + d)
    return {
        "row_rr": row_rr,
        "col_rr": ref_ratio(a, a + c, b, b + d),
        "odds_ratio": ref_ratio(a, b, c, d),
        "world_row": None if row_rr is None else (a / (a + b)) / ((a + c) / (a + b + c + d)),
    }


def ref_terms(kind: IndicatorKind, a: int, b: int, c: int, d: int) -> tuple[float, float]:
    n = a + b + c + d
    if kind is IndicatorKind.MHRR:
        return a * (c + d) / n, c * (a + b) / n
    if kind is IndicatorKind.MHCR:
        return a * (b + d) / n, b * (a + c) / n
    if kind is IndicatorKind.MHOR:
        return a * d / n, b * c / n
    return a * (b + d) / (a + b + n), b * (a + c) / (a + b + n)


def outcome(fn, ds):
    """The value of ``fn(ds)``, or the type of the ValueError it raises."""
    try:
        return fn(ds)
    except ValueError as exc:
        return type(exc)


# -------------------------------------------------------------------- properties

@PROPERTY
@given(datasets)
def test_estimators_equal_python_int_reference(ds):
    rows = [t.cells() for t in ds.strata]
    for kind in IndicatorKind:
        terms = [ref_terms(kind, *row) for row in rows]
        den = math.fsum(s for _, s in terms)
        if den == 0.0:
            with pytest.raises(UndefinedIndicatorError):
                INDICATOR_FN[kind](ds)
            with pytest.raises(UndefinedIndicatorError):
                stratum_weights(ds, kind)
            continue
        assert INDICATOR_FN[kind](ds) == math.fsum(r for r, _ in terms) / den
        assert stratum_weights(ds, kind) == tuple(s / den for _, s in terms)

    columns = ratio_columns(ds.counts)
    for i, (t, row) in enumerate(zip(ds.strata, rows)):
        want = ref_ratios(*row)
        assert {name: column[i] for name, column in columns.items()} == want
        assert stratum_ratios(t) == StratumRatios(want["row_rr"], want["col_rr"], want["odds_ratio"])
        assert outcome(world_comparison_row, t) == (
            UndefinedIndicatorError if want["world_row"] is None else want["world_row"]
        )


@PROPERTY
@given(full_datasets)
def test_transpose_swaps_mhrr_and_mhcr_exactly(ds):
    flipped = transpose(ds)
    assert transpose(flipped) == ds
    rr, cr = INDICATOR_FN[IndicatorKind.MHRR], INDICATOR_FN[IndicatorKind.MHCR]
    assert outcome(rr, flipped) == outcome(cr, ds)
    assert outcome(cr, flipped) == outcome(rr, ds)
    assert outcome(var_gr_log_mhrr, flipped) == outcome(var_gr_log_mhcr, ds)
    assert outcome(var_gr_log_mhcr, flipped) == outcome(var_gr_log_mhrr, ds)


@PROPERTY
@given(datasets)
def test_filter_informative_is_idempotent_and_keeps_point_estimates(ds):
    try:
        filtered = filter_informative(ds)
    except NoInformativeStrataError:
        assert all(a + c == 0 or b + d == 0 for a, b, c, d in ds.counts.tolist())
        return
    assert filtered.labels == tuple(t.label for t in ds.strata if t.n_mentioned and t.n_not_mentioned)
    assert filter_informative(filtered) == filtered
    kinds = [IndicatorKind.MHCR, IndicatorKind.MHOR, IndicatorKind.MHQ]
    # a stratum with no unmentioned articles (b = d = 0) adds a*c/n to both
    # MHRR sums, so only the other exclusions leave MHRR unchanged
    if all(reason != EXCLUDED_NO_NOT_MENTIONED for _, reason in filtered.excluded):
        kinds.append(IndicatorKind.MHRR)
    for kind in kinds:
        assert outcome(INDICATOR_FN[kind], filtered) == outcome(INDICATOR_FN[kind], ds)


@PROPERTY
@given(labelled_datasets)
def test_csv_and_json_round_trips_give_equal_datasets(ds):
    assert parse_csv(serialize_csv(ds)) == ds
    assert parse_json(serialize_json(ds)) == ds
