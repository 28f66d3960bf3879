"""Property tests: the array estimators against a per-stratum Python-int reference.

Counts are drawn up to the parse-time bound, zeros included. Every example
is derandomized, so a run is repeatable and needs no example database.
"""

from __future__ import annotations

import dataclasses
import json
import math
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from sparsemh import simulation
from sparsemh import (
    __version__,
    IndicatorKind,
    NoInformativeStrataError,
    ParseError,
    SimulationDesign,
    StratifiedDataset,
    StratumRatios,
    StratumTable,
    UndefinedIndicatorError,
    VarianceMethod,
    estimate_indicator,
    filter_informative,
    parse_csv,
    parse_json,
    stratum_ratios,
    stratum_weights,
    transpose,
    var_gr_log_mhcr,
    var_gr_log_mhrr,
    var_rbg_log_mhor,
    var_skm_log_mhq,
    world_comparison_row,
)
from sparsemh.estimators import INDICATOR_FN, _Sums, _weighted_sums, ratio_columns
from sparsemh.report import (
    _REPORT_ORDER,
    STRATA_PER_CHUNK,
    _FloatText,
    build_report,
    csv_chunks,
    json_chunks,
    render_json,
    text_chunks,
)
from sparsemh.simulation import ExcessiveDropError, bias_study, coverage_study
from sparsemh.tables import EXCLUDED_NO_NOT_MENTIONED, MAX_COUNT, _csv_text, _parse_csv_lines
from sparsemh.variance import _LOG_VARIANCES, _log_variance, _rbg_log_variance, _skm_log_variance

from conftest import (
    RATIO_COLUMN, csv_text, inversion_edge_ps, json_text, katz_var_log_rr, make_dataset, sparse_datasets,
)

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

# Report inputs: at least one complete stratum, so the report builds, plus
# strata that are excluded (an empty column) or have undefined ratios (b = 0
# or c = 0), under labels that need JSON escapes.
positive = st.one_of(st.integers(1, 3), st.integers(1, 60), st.integers(1, MAX_COUNT))
complete_cells = st.tuples(positive, positive, positive, positive)
excluded_cells = st.one_of(
    st.tuples(st.just(0), positive, st.just(0), count),
    st.tuples(positive, st.just(0), count, st.just(0)),
)
undefined_cells = st.one_of(
    st.tuples(positive, st.just(0), positive, positive),
    st.tuples(positive, positive, st.just(0), positive),
)
report_label = st.text(
    st.one_of(st.sampled_from('"\\\x00\x1f\x7f\t\n\u00e9\u2028\U0001f600/'), st.characters()), min_size=1
)


@st.composite
def report_datasets(draw):
    other = st.one_of(complete_cells, excluded_cells, undefined_cells)
    rows = draw(st.permutations([draw(complete_cells)] + draw(st.lists(other, max_size=7))))
    labels = draw(st.lists(report_label, min_size=len(rows), max_size=len(rows), unique=True))
    return StratifiedDataset(StratumTable(label, *cells) for label, cells in zip(labels, rows))


@st.composite
def repeated_report_datasets(draw):
    """Up to 200 strata drawn from a few distinct tables, excluded ones among them."""
    other = st.one_of(complete_cells, excluded_cells, undefined_cells)
    pool = [draw(complete_cells)] + draw(st.lists(other, min_size=1, max_size=4))
    rows = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=199))
    rows = draw(st.permutations(rows + [pool[0]]))
    prefix = draw(report_label)
    return StratifiedDataset(StratumTable(f"{prefix}{i}", *cells) for i, cells in enumerate(rows))


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
    rows = ds.counts.tolist()
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
    for i, (label, row) in enumerate(zip(ds.labels, rows)):
        t = StratumTable(label, *row)
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
    assert filtered.labels == tuple(
        label for label, (a, b, c, d) in zip(ds.labels, ds.counts.tolist()) if a + c and b + d
    )
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
    assert parse_csv(csv_text(ds)) == ds
    assert parse_json(json_text(ds)) == ds


# CSV text around the canonical form: padding with ASCII and Unicode
# whitespace, int() spellings the strict pattern leaves to the line reader,
# blank lines, every line ending, a BOM, duplicate labels and all-zero rows.
WHITESPACE = " \t\x0b\x0c\x1c\x1f\x85\xa0\u2000\u2028\u3000"
ARABIC_INDIC_DIGITS = str.maketrans("0123456789", "".join(map(chr, range(0x660, 0x66A))))
pad = st.one_of(st.just(""), st.text(st.sampled_from(WHITESPACE), min_size=1, max_size=2))
csv_label = st.one_of(
    st.sampled_from(["s1", "s2", "x"]),  # a small pool, so labels repeat
    st.text(
        st.one_of(st.sampled_from(WHITESPACE + '#"\x00\ufeff'), st.characters(blacklist_characters=",\r\n")),
        max_size=4,
    ),
)
csv_count = st.one_of(
    st.integers(0, 60).map(str),
    st.sampled_from(["0", "00", "007", str(2**26), str(2**26 + 1), "99999999", "000000001", "123456789012"]),
    st.integers(0, 99).map(lambda n: f"+{n}"),
    st.integers(10, 999).map(lambda n: f"{n // 10}_{n % 10}"),
    st.integers(0, 99).map(lambda n: str(n).translate(ARABIC_INDIC_DIGITS)),
    st.sampled_from(["-1", "1.5", "x", ""]),
)
csv_field = st.tuples(pad, csv_count, pad).map("".join)
csv_row = st.tuples(
    st.tuples(pad, csv_label, pad).map("".join),
    st.one_of(st.lists(csv_field, min_size=4, max_size=4), st.lists(csv_field, min_size=3, max_size=5)),
).map(lambda row: ",".join([row[0], *row[1]]))
canonical_label = st.one_of(
    st.sampled_from(["s1", "s2", "x", "y z", "#"]),
    st.text(st.one_of(st.sampled_from(WHITESPACE + '#"\x00'), st.characters(blacklist_characters=",\r\n")),
            min_size=1, max_size=4).filter(lambda s: s == s.strip()),
)
canonical_counts = st.lists(
    st.one_of(st.just(0), st.integers(0, 60), st.sampled_from([7, 2**26])), min_size=4, max_size=4
).filter(any)
csv_line = st.one_of(
    st.tuples(canonical_label, canonical_counts).map(lambda row: ",".join([row[0], *map(str, row[1])])),
    csv_row,
    st.text(st.sampled_from(WHITESPACE), max_size=2),
)


@st.composite
def csv_texts(draw):
    if draw(st.booleans()):
        # canonical rows, which the vectorized pass reads, or hands on for a
        # duplicate label, an all-zero row or a count above the bound
        rows = draw(st.lists(st.tuples(canonical_label, canonical_counts), min_size=1, max_size=8,
                             unique_by=lambda row: row[0]))
        defect = draw(st.sampled_from([None, None, "duplicate", "zero", 2**26 + 1, 99_999_999]))
        if defect is not None:
            label, counts = draw(st.sampled_from(rows))
            if defect != "duplicate":
                label += "'"
                counts = [0, 0, 0, 0] if defect == "zero" else [*counts[:3], defect]
            rows.insert(draw(st.integers(0, len(rows))), (label, counts))
        # 7 is written with leading zeros
        lines = ["stratum,a,b,c,d"] + [
            ",".join([label, *("007" if n == 7 else str(n) for n in counts)]) for label, counts in rows
        ]
    else:
        header = draw(st.sampled_from(["stratum,a,b,c,d", " stratum , a,b,c,d", "stratum,a,b,c"]))
        lines = [header] + draw(st.lists(csv_line, max_size=8))
    ends = draw(st.lists(st.sampled_from(["\n", "\n", "\r\n", "\r"]), min_size=len(lines), max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    if draw(st.booleans()):
        text = text[: -len(ends[-1])]
    return draw(st.sampled_from(["", "\ufeff"])) + text


def parsed(parse, text):
    """The dataset ``parse`` reads from ``text``, or its ParseError message."""
    try:
        return parse(text)
    except ParseError as exc:
        return str(exc)


@PROPERTY
@given(csv_texts())
@example("stratum,a,b,c,d\n x,1,2,3,4\n")  # padded label
@example("stratum,a,b,c,d\nx\xa0,1,2,3,4\n")  # Unicode whitespace after the label
@example("stratum,a,b,c,d\nx,1, 2,3,4\u2028\n")  # padded counts
@example("stratum,a,b,c,d\nx,+1,2,3,4\n")
@example("stratum,a,b,c,d\nx,1_0,2,3,4\n")
@example("stratum,a,b,c,d\nx,\u0661\u0662,2,3,4\n")  # Arabic-Indic digits
@example("stratum,a,b,c,d\nx,000000001,2,3,4\n")  # nine digits, a valid count
@example("stratum,a,b,c,d\nx,67108865,2,3,4\n")  # 2**26 + 1
@example("stratum,a,b,c,d\nx,1,2,3,4\n\ny,1,2,3,4\n")  # a blank line
@example("stratum,a,b,c,d\nx,1,2,3,4\n \x1c\n")  # a whitespace-only line
@example("\nstratum,a,b,c,d\nx,1,2,3,4\n")  # a blank line before the header
@example(" stratum,a,b,c,d\nx,1,2,3,4\n")  # a padded header
@example("stratum,a,b,c,d\nx,1,2,3,4\nx,5,6,7,8\n")  # a duplicate label
@example("stratum,a,b,c,d\nx,1,2,3,4\ny,0,0,0,0\n")  # an all-zero row
@example("stratum,a,b,c,d\nx,1,2,3\n")
@example("stratum,a,b,c,d\nx,1,2,3,4,5\n")
@example("stratum,a,b,c,d\n,1,2,3,4\n")  # an empty label
@example("stratum,a,b,c,d\n")
@example("")
@example("\ufeff\ufeffstratum,a,b,c,d\nx,1,2,3,4")  # a second BOM is part of the header
@example("\ufeffstratum,a,b,c,d\r\nx\x85y,1,2,3,4\ry,5,6,7,8")  # canonical: BOM, CRLF, CR, no final newline
def test_parse_csv_equals_the_line_reader(text):
    got, want = parsed(parse_csv, text), parsed(_parse_csv_lines, _csv_text(text))
    assert got == want
    if isinstance(want, StratifiedDataset):
        assert got.counts.dtype == want.counts.dtype and not got.counts.flags.writeable


@PROPERTY
@given(st.one_of(report_datasets(), repeated_report_datasets()), st.sampled_from([("skm",), ("skm", "bh")]))
def test_render_json_matches_json_dumps_and_the_report(ds, methods):
    report = build_report(ds, source='dir\\"data\u00e9".csv', methods=methods)
    text = render_json(report)
    parsed = json.loads(text)
    assert text == json.dumps(parsed, indent=2)

    assert parsed["source"] == report.source and parsed["level"] == report.level
    excluded = {t.label: reason for t, reason in report.filtered.excluded}
    assert parsed["excluded"] == [{"stratum": label, "reason": r} for label, r in excluded.items()]
    assert len(parsed["strata"]) == len(ds)
    columns = ratio_columns(ds.counts)
    for i, (row, label, (a, b, c, d)) in enumerate(zip(parsed["strata"], ds.labels, ds.counts.tolist())):
        assert row == {
            "stratum": label, "a": a, "b": b, "c": c, "d": d, "n": a + b + c + d,
            **{name: column[i] for name, column in columns.items()},
            "excluded": label in excluded, "exclusion_reason": excluded.get(label),
        }
    assert list(parsed["weights"]) == [kind.value for kind in report.weights]
    for kind in report.weights:
        weights = stratum_weights(report.filtered, kind)
        assert list(parsed["weights"][kind.value].items()) == list(zip(report.filtered.labels, weights))
    assert [(e["kind"], e["method"], e["value"], e["log_variance"], e["ci_low"], e["ci_high"], e["level"])
            for e in parsed["indicators"]] == [
        (e.kind.value, e.method.value, e.value, e.log_variance, e.ci_low, e.ci_high, e.level)
        for e in report.estimates
    ]
    assert [e.get("deprecated") for e in parsed["indicators"]] == [
        "overestimates variance" if e.method.value == "BH" else None for e in report.estimates
    ]


def public_report(ds, methods):
    """What ``build_report(ds, methods=methods)`` holds, from the public functions, called in its order."""
    filtered = filter_informative(ds)
    weights = {kind: stratum_weights(filtered, kind) for kind in _REPORT_ORDER}
    pairs = [(kind, None) for kind in _REPORT_ORDER] + [(IndicatorKind.MHQ, VarianceMethod.BH)] * ("bh" in methods)
    return filtered, weights, [estimate_indicator(filtered, kind, method=method) for kind, method in pairs]


def hexed(values):
    return [None if v is None else v.hex() for v in values]


def estimate_bits(est):
    return (est.kind, est.method, *hexed([est.value, est.log_variance, est.ci_low, est.ci_high, est.level]))


@PROPERTY
@given(sparse_datasets, st.sampled_from([("skm",), ("skm", "bh")]))
# empty rows: s2 has a+b = 0 and s3 has c+d = 0, so MHCR's GR variance rejects them
@example(make_dataset((3, 2, 5, 7), (0, 0, 4, 6), (2, 1, 0, 0), (1, 4, 2, 9)), ("skm", "bh"))
@example(make_dataset((0, 5, 0, 5), (3, 2, 5, 7)), ("skm",))  # an excluded empty column
@example(make_dataset((3, 0, 5, 7)), ("skm", "bh"))  # k = 1 and b = 0: MHCR and MHq are undefined
def test_build_report_equals_the_public_functions_bit_for_bit(ds, methods):
    try:
        filtered, weights, estimates = public_report(ds, methods)
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            build_report(ds, methods=methods)
        assert (type(raised.value), str(raised.value)) == (type(exc), str(exc))
        return
    report = build_report(ds, methods=methods)
    assert report.filtered == filtered
    # the report holds each kind's raw S_i and their fsum; the renderers divide them per chunk
    assert {kind: hexed((raw / total).tolist()) for kind, (raw, total) in report.weights.items()} == {
        kind: hexed(w) for kind, w in weights.items()
    }
    for raw, total in report.weights.values():
        assert raw.dtype == np.float64 and not raw.flags.writeable and total == math.fsum(raw.tolist())
    assert list(map(estimate_bits, report.estimates)) == list(map(estimate_bits, estimates))


def reference_render_json(report, columns=None) -> str:
    """The report as one ``json.dumps(..., indent=2)`` of the whole structure.

    The per-stratum ``columns`` default to the dataset's :func:`ratio_columns`,
    and the weights are :func:`stratum_weights` in the order of the report's.
    """
    columns = ratio_columns(report.dataset.counts) if columns is None else columns
    excluded = {t.label: reason for t, reason in report.filtered.excluded}
    strata = [
        {
            "stratum": label, "a": a, "b": b, "c": c, "d": d, "n": a + b + c + d,
            **{name: column[i] for name, column in columns.items()},
            "excluded": label in excluded, "exclusion_reason": excluded.get(label),
        }
        for i, (label, (a, b, c, d)) in enumerate(zip(report.dataset.labels, report.dataset.counts.tolist()))
    ]
    indicators = []
    for est in report.estimates:
        entry = {
            "kind": est.kind.value, "method": est.method.value, "value": est.value,
            "log_variance": est.log_variance, "ci_low": est.ci_low, "ci_high": est.ci_high, "level": est.level,
        }
        if est.method.value == "BH":
            entry["deprecated"] = "overestimates variance"
        indicators.append(entry)
    return json.dumps({
        "source": report.source,
        "level": report.level,
        "strata": strata,
        "excluded": [{"stratum": label, "reason": reason} for label, reason in excluded.items()],
        "weights": {
            kind.value: dict(zip(report.filtered.labels, stratum_weights(report.filtered, kind)))
            for kind in report.weights
        },
        "indicators": indicators,
        "meta": {"package": "sparsemh", "version": __version__, "generated_at": "2026-01-01T00:00:00+00:00"},
    }, indent=2)


finite_floats = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def reports_with_any_finite_estimates(draw):
    """A report with and without excluded strata, BH on or off, and indicator floats of any exponent."""
    rows = draw(st.lists(complete_cells, min_size=1, max_size=3))
    if draw(st.booleans()):
        rows += draw(st.lists(excluded_cells, min_size=1, max_size=3))
    rows = draw(st.permutations(rows))
    labels = draw(st.lists(report_label, min_size=len(rows), max_size=len(rows), unique=True))
    ds = StratifiedDataset(StratumTable(label, *cells) for label, cells in zip(labels, rows))
    report = build_report(ds, source=draw(report_label), methods=draw(st.sampled_from([("skm",), ("skm", "bh")])))
    estimates = tuple(
        dataclasses.replace(
            est, value=draw(finite_floats), log_variance=draw(finite_floats), ci_low=draw(finite_floats),
            ci_high=draw(finite_floats), level=draw(finite_floats),
        )
        for est in report.estimates
    )
    return dataclasses.replace(report, level=draw(finite_floats), estimates=estimates)


def signed_zero_report():
    """A report whose floats hold 0.0 (a row_rr, then estimate fields) and -0.0, which json spells apart."""
    report = build_report(StratifiedDataset([StratumTable("s1", 0, 2, 5, 7), StratumTable("s2", 3, 2, 5, 7)]))
    estimates = tuple(
        dataclasses.replace(est, value=0.0, log_variance=-0.0, ci_low=-0.0, ci_high=0.0, level=-0.0)
        for est in report.estimates
    )
    return dataclasses.replace(report, level=-0.0, estimates=estimates)


@PROPERTY
@given(reports_with_any_finite_estimates())
@example(signed_zero_report())  # a memo that stored zeros under one key would spell -0.0 as 0.0
def test_render_json_equals_one_indented_json_dumps(report):
    with mock.patch.dict("os.environ", {"SOURCE_DATE_EPOCH": "1767225600"}):
        assert render_json(report) == reference_render_json(report)


def reference_render_text(report, columns=None) -> str:
    """The text report as one list of lines, joined once, from the same references as :func:`reference_render_json`."""
    def fmt(value):
        return "undefined" if value is None else f"{value:.2f}"

    columns = ratio_columns(report.dataset.counts) if columns is None else columns
    excluded = {t.label: reason for t, reason in report.filtered.excluded}
    lines = [
        f"dataset: {report.source}",
        f"strata: {len(report.dataset)} read, {len(report.filtered)} used, {len(excluded)} excluded",
        "",
        "per-stratum ratios:",
        f"{'stratum':<12} {'a':>6} {'b':>6} {'c':>6} {'d':>6} {'n':>7} "
        + " ".join(f"{name:>10}" for name in columns),
    ]
    for i, (label, (a, b, c, d)) in enumerate(zip(report.dataset.labels, report.dataset.counts.tolist())):
        ratios = " ".join(f"{fmt(column[i]):>10}" for column in columns.values())
        lines.append(f"{label:<12} {a:>6} {b:>6} {c:>6} {d:>6} {a + b + c + d:>7} {ratios}")
    if excluded:
        lines += [""] + [f"excluded: {label} ({reason})" for label, reason in excluded.items()]
    lines += ["", f"indicators ({report.level * 100:.15g}% confidence intervals):"]
    for est in report.estimates:
        note = "  (deprecated: overestimates variance)" if est.method.value == "BH" else ""
        lines.append(
            f"{est.kind.value:<5} = {est.value:.2f}  "
            f"[{est.ci_low:.2f}, {est.ci_high:.2f}]  variance method: {est.method.value}{note}"
        )
    lines += ["", "normalized stratum weights:"]
    for kind in report.weights:
        weights = stratum_weights(report.filtered, kind)
        pairs = ", ".join(f"{label}={w:.3f}" for label, w in zip(report.filtered.labels, weights))
        lines.append(f"{kind.value:<5} {pairs}")
    return "\n".join(lines) + "\n"


@PROPERTY
@given(reports_with_any_finite_estimates(), st.integers(1, 4))
def test_chunks_of_any_size_join_to_the_reference_report(report, size):
    with mock.patch.dict("os.environ", {"SOURCE_DATE_EPOCH": "1767225600"}), \
            mock.patch("sparsemh.report.STRATA_PER_CHUNK", size):
        assert "".join(json_chunks(report)) == reference_render_json(report)
        assert "".join(text_chunks(report)) == reference_render_text(report)


@PROPERTY
@given(reports_with_any_finite_estimates())
def test_renderers_follow_the_order_of_the_reports_ratios_and_weights(report):
    # the names and order a renderer prints are ratio_columns' and the report's, not a list of its own
    def reversed_columns(counts):
        return dict(reversed(ratio_columns(counts).items()))

    report = dataclasses.replace(report, weights=dict(reversed(report.weights.items())))
    columns = reversed_columns(report.dataset.counts)
    with mock.patch.dict("os.environ", {"SOURCE_DATE_EPOCH": "1767225600"}), \
            mock.patch("sparsemh.report.ratio_columns", reversed_columns):
        assert render_json(report) == "".join(json_chunks(report)) == reference_render_json(report, columns)
        assert "".join(text_chunks(report)) == reference_render_text(report, columns)


def chunk_boundary_dataset(k: int) -> StratifiedDataset:
    """k strata: complete, excluded, b = 0 and c = 0 tables, most repeated, under labels that need JSON escapes."""
    rng = np.random.default_rng(k)
    pool = [(3, 2, 5, 7), (0, 4, 0, 6), (5, 0, 2, 0), (3, 0, 5, 7), (3, 2, 0, 7)]
    rows = [tuple(rng.integers(1, MAX_COUNT, 4).tolist()) if i % 3 == 0 else pool[i % 5] for i in range(k)]
    labels = [f's{i}"\\\u00e9\u2028\x01' if i % 4 == 0 else f"s{i}" for i in range(k)]
    return StratifiedDataset(StratumTable(label, *cells) for label, cells in zip(labels, rows))


@pytest.mark.parametrize("k", [1, STRATA_PER_CHUNK - 1, STRATA_PER_CHUNK, STRATA_PER_CHUNK + 1, 2 * STRATA_PER_CHUNK + 1],
                         ids=["1", "C-1", "C", "C+1", "2C+1"])
@pytest.mark.parametrize("methods", [("skm",), ("skm", "bh")], ids=["skm", "skm,bh"])
def test_chunks_join_to_the_whole_report_at_chunk_boundaries(k, methods, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1767225600")
    report = build_report(chunk_boundary_dataset(k), source='dir\\"data\u00e9".csv', methods=methods)
    chunks = list(json_chunks(report))
    assert "".join(chunks) == render_json(report) == reference_render_json(report)
    assert max(chunk.count('"stratum": ') for chunk in chunks) <= STRATA_PER_CHUNK
    assert "".join(text_chunks(report)) == reference_render_text(report)
    # the CSV holds no per-stratum rows, so it is one chunk at any k
    rows = [
        f"{e.kind.value},{e.method.value},{e.value!r},{e.ci_low!r},{e.ci_high!r},{e.level!r},{e.log_variance!r}"
        for e in report.estimates
    ]
    assert list(csv_chunks(report)) == ["kind,method,value,ci_low,ci_high,level,log_variance\n" + "".join(r + "\n" for r in rows)]


@PROPERTY
@given(st.lists(st.one_of(st.floats(), st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan])), max_size=20))
def test_float_memo_spells_floats_as_json_does(values):
    memo = _FloatText()
    # twice over, so the second pass reads what the first memoized
    for value in values + values:
        assert memo[value] == json.dumps(value)
    assert memo[None] == "null"
    for memo in (_FloatText(), memo):
        assert [memo[v] for v in values + [None] + values] == [json.dumps(v) for v in values + [None] + values]


def test_float_memo_spells_each_zero_by_its_sign():
    memo = _FloatText()
    assert [memo[v] for v in [0.0, -0.0, 0.0, -0.0]] == ["0.0", "-0.0", "0.0", "-0.0"]
    assert [memo[v] for v in [0.0, 1.5, 0.0]] == ["0.0", "1.5", "0.0"]
    assert [memo[v] for v in [-0.0]] == ["-0.0"]
    assert memo[-0.0] == "-0.0" and memo[0.0] == "0.0"


# ------------------------------------------------- the paper's variance identities

one_stratum = st.tuples(positive, positive, count, count)


@PROPERTY
@given(one_stratum)
@example((23_731_198, 43, 3, 0))  # 1/a - 1/(a+c) cancels when a >> c
def test_one_stratum_skm_equals_katz_column(cells):
    t = StratumTable("s", *cells)
    assert var_skm_log_mhq(make_dataset(cells)) == pytest.approx(katz_var_log_rr(t, "column"), rel=1e-13, abs=0)


@PROPERTY
@given(one_stratum)
def test_one_stratum_bh_exceeds_skm_by_the_column_terms(cells):
    a, b, c, d = cells
    ds = make_dataset(cells)
    excess = 2 / (a + c) + 2 / (b + d)
    # the difference cancels to a few ulps of the variances, which are at most about 6
    bh = estimate_indicator(ds, IndicatorKind.MHQ, method=VarianceMethod.BH).log_variance
    assert bh - var_skm_log_mhq(ds) == pytest.approx(excess, rel=1e-12, abs=1e-14)


@PROPERTY
@given(st.lists(cells, min_size=1, max_size=8))
def test_skm_variance_is_non_negative(rows):
    ds = make_dataset(*rows)
    try:
        variance = var_skm_log_mhq(filter_informative(ds))
    except (NoInformativeStrataError, UndefinedIndicatorError):
        return
    assert variance >= 0.0


@PROPERTY
@given(st.lists(st.one_of(complete_cells, cells), min_size=1, max_size=8))
@example([(26, 7, 18, 13), (5, 3, 1, 9)])
def test_indicator_is_the_weighted_average_of_its_stratum_ratios(rows):
    ds = make_dataset(*rows)
    columns = ratio_columns(ds.counts)
    for kind in IndicatorKind:
        ratios = columns[RATIO_COLUMN[kind]]
        if None in ratios:
            continue
        average = math.fsum(w * x for w, x in zip(stratum_weights(ds, kind), ratios))
        assert INDICATOR_FN[kind](ds) == pytest.approx(average, rel=1e-13, abs=0)


def ref_var_gr_log_mhrr(rows) -> float:
    """Exact rational GR variance with the numerator a^2 d + bc^2 + abd + bcd."""
    num = sum(Fraction(a * a * d + b * c * c + a * b * d + b * c * d, (a + b + c + d) ** 2) for a, b, c, d in rows)
    r = sum(Fraction(a * (c + d), a + b + c + d) for a, b, c, d in rows)
    s = sum(Fraction(c * (a + b), a + b + c + d) for a, b, c, d in rows)
    return float(num / (r * s))


@PROPERTY
@given(datasets)
@example(make_dataset((3, 0, 63_051_986, 1)))  # (a+b)(c+d)(a+c) - ac*n cancels here
def test_gr_variance_is_non_negative_and_matches_the_exact_value(ds):
    try:
        kept = filter_informative(ds)
        variance = var_gr_log_mhrr(kept)
    except (NoInformativeStrataError, UndefinedIndicatorError):
        return
    assert variance >= 0.0
    assert variance == pytest.approx(ref_var_gr_log_mhrr(kept.counts.tolist()), rel=1e-12, abs=0)


def ref_var_skm_log_mhq(rows) -> float:
    """Exact rational SKM variance from each stratum's v, w and q, with m = a+b+n."""
    v = w = q = r = s = Fraction(0)
    for a, b, c, d in rows:
        col1, col2, n = a + c, b + d, a + b + c + d
        m = a + b + n
        var_a, var_b = Fraction(a * c, col1), Fraction(b * d, col2)
        v += col2 * col2 * ((n + b) ** 2 * var_a + a * a * var_b) / m**4
        w += col1 * col1 * (b * b * var_a + (n + a) ** 2 * var_b) / m**4
        q -= Fraction(col1 * col2, m**4) * (Fraction(a * b * c * (b + n), col1) + Fraction(a * b * d * (a + n), col2))
        r += Fraction(a * col2, m)
        s += Fraction(b * col1, m)
    return float(v / (r * r) + w / (s * s) - 2 * q / (r * s))


def ref_var_rbg_log_mhor(rows) -> float:
    """Exact rational RBG variance from the totals of pR, pS+qR and qS, with p = (a+d)/n and q = (b+c)/n."""
    pr = psqr = qs = r = s = Fraction(0)
    for a, b, c, d in rows:
        n = a + b + c + d
        p, q = Fraction(a + d, n), Fraction(b + c, n)
        ri, si = Fraction(a * d, n), Fraction(b * c, n)
        pr, psqr, qs, r, s = pr + p * ri, psqr + p * si + q * ri, qs + q * si, r + ri, s + si
    return float(pr / (2 * r * r) + psqr / (2 * r * s) + qs / (2 * s * s))


def ref_var_bh_log_mhq(rows) -> float:
    """Exact rational BH variance: RBG on the group-vs-world tables (a, b // a+c, b+d)."""
    return ref_var_rbg_log_mhor([(a, b, a + c, b + d) for a, b, c, d in rows])


b_zero_cells = st.tuples(count, st.just(0), count, count).filter(any)


@PROPERTY
@pytest.mark.parametrize(
    "variance, reference",
    [(var_skm_log_mhq, ref_var_skm_log_mhq),
     (lambda ds: estimate_indicator(ds, IndicatorKind.MHQ, method=VarianceMethod.BH).log_variance, ref_var_bh_log_mhq),
     (var_rbg_log_mhor, ref_var_rbg_log_mhor)],
    ids=["skm", "bh", "rbg"],
)
# strata with b = 0 zero SKM's S-side terms
@given(ds=st.lists(st.one_of(cells, b_zero_cells), min_size=1, max_size=8).map(lambda rows: make_dataset(*rows)))
@example(ds=make_dataset((26, 7, 18, 13)))  # k = 1
@example(ds=make_dataset((3, 0, 5, 7), (2, 4, 1, 9)))
@example(ds=make_dataset((MAX_COUNT, MAX_COUNT - 1, MAX_COUNT - 2, MAX_COUNT), (MAX_COUNT - 3, 0, 1, MAX_COUNT)))
@example(ds=make_dataset((MAX_COUNT - 1, 1, MAX_COUNT, MAX_COUNT - 2)))  # k = 1 near the bound
def test_variance_matches_its_exact_value(variance, reference, ds):
    try:
        kept = filter_informative(ds)
        got = variance(kept)
    except (NoInformativeStrataError, UndefinedIndicatorError):
        return
    assert got == pytest.approx(reference(kept.counts.tolist()), rel=1e-12, abs=0)


# ------------------------------------------------ the coverage study's kernels

@st.composite
def coverage_draws(draw):
    """One repetition's (datasets, k) group counts a, b under fixed column totals n1, n2.

    Zeros are common, some strata have b = 0 in every dataset, and some
    datasets leave MHq undefined (every a or every b is zero).
    """
    n1 = draw(st.one_of(st.integers(1, 3), st.integers(1, 200), st.integers(1, 2**40)))
    n2 = draw(st.one_of(st.integers(1, 3), st.integers(1, 5000), st.integers(1, 2**40)))
    k = draw(st.integers(1, 6))
    rows = draw(st.integers(1, 30))

    def counts(top):
        flat = draw(st.lists(st.one_of(st.just(0), st.integers(0, top)), min_size=rows * k, max_size=rows * k))
        return np.array(flat, dtype=float).reshape(rows, k)

    a, b = counts(n1), counts(n2)
    b[:, draw(st.lists(st.integers(0, k - 1), max_size=k - 1, unique=True))] = 0.0
    for row in draw(st.lists(st.integers(0, rows - 1), max_size=rows, unique=True)):
        (a if draw(st.booleans()) else b)[row] = 0.0
    return a, b, n1, n2


# C pow rounds 61914041810.0 ** 2 differently from 61914041810.0 * 61914041810.0
LARGE_DRAWS = (np.array([[3.0, 1.0], [0.0, 2.0]]), np.array([[7.0, 0.0], [2.0, 5.0]]), 1_071_370_718_072, 61_914_041_810)


def array_total_estimates(a, b, n1, n2):
    """ln(MHq), SKM and BH of the defined datasets, and the undefined count, by the data forms' calls.

    ``a`` and ``b`` are (datasets, k) group counts; every total is an array,
    as the data and parameter forms pass them.
    """
    c, d = n1 - a, n2 - b
    all_sums = _weighted_sums(IndicatorKind.MHQ, a, b, c, d)
    defined = (all_sums.rt > 0.0) & (all_sums.st > 0.0)
    a, b, c, d = (x[defined] for x in (a, b, c, d))
    world = (a, b, a + c, b + d)
    return (
        np.log(all_sums.rt[defined] / all_sums.st[defined]),
        _skm_log_variance(a, b, c, d, _weighted_sums(IndicatorKind.MHQ, a, b, c, d)),
        _rbg_log_variance(*world, _weighted_sums(IndicatorKind.MHOR, *world)),
        int((~defined).sum()),
    )


def stratum_major(a, b, n1, n2):
    """(datasets, k) float counts as the draws hold them: stratum-major, in the compact dtype."""
    return tuple(x.T.astype(np.min_scalar_type(max(n1, n2))) for x in (a, b))


def joined(blocks):
    """ln(MHq), SKM and BH over the blocks of :func:`simulation._coverage_blocks`, and the undefined count."""
    ln, skm, bh, dropped = zip(*blocks)
    return np.concatenate(ln), np.concatenate(skm), np.concatenate(bh), sum(dropped)


def assert_same_estimates(got, want):
    *got_arrays, got_dropped = got
    *want_arrays, want_dropped = want
    assert got_dropped == want_dropped
    for name, x, y in zip(("ln", "skm", "bh"), got_arrays, want_arrays):
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name


@PROPERTY
@given(coverage_draws(), st.integers(1, 64))
@example(LARGE_DRAWS, 64)
def test_coverage_kernels_equal_the_array_total_form_bit_for_bit(draws, block_cells):
    a, b, n1, n2 = draws
    want = array_total_estimates(a, b, n1, n2)
    assume(want[0].size > 0)

    # the whole coverage repetition on these draws, in blocks of about block_cells cells
    coverage_blocks = simulation._coverage_blocks
    seen = []

    def blocks(*args):
        for block in coverage_blocks(*args):
            seen.append(block)
            yield block

    design = SimulationDesign(k=a.shape[1], n_mentioned=n1, n_not_mentioned=n2, datasets_per_rep=a.shape[0], reps=1)
    with mock.patch.multiple(
        simulation,
        _draw_count_matrices_streamed=lambda *_: stratum_major(a, b, n1, n2),
        MAX_DROP_FRACTION=1.0,
        BLOCK_CELLS=block_cells,
        _coverage_blocks=blocks,
    ):
        record, dropped = simulation._coverage_rep(design, 0)

    assert len(seen) == -(-a.shape[0] // max(1, block_cells // a.shape[1]))
    assert_same_estimates(joined(seen), want)
    assert record.dropped == dropped == want[-1]


@PROPERTY
@given(coverage_draws(), st.integers(1, 64), st.sampled_from([0, 2**16]))
@example(LARGE_DRAWS, 64, 0)
@example(LARGE_DRAWS, 64, 2**16)
# disjoint ranges of a, [0, 1] and [8, 9]: the values 2 to 7 get no points
@example((np.array([[0.0, 9.0], [1.0, 8.0]]), np.array([[2.0, 0.0], [1.0, 3.0]]), 10, 10), 1, 2**16)
# the fallback on a block whose first dataset has a = 0 in every stratum, so MHq's numerator is zero
@example((np.array([[0.0, 0.0], [1.0, 2.0]]), np.array([[3.0, 1.0], [0.0, 4.0]]), 4, 1000), 64, 0)
def test_coverage_lookup_and_fallback_equal_the_array_total_form_bit_for_bit(draws, block_cells, max_points):
    a, b, n1, n2 = draws
    box = int((a.max() - a.min() + 1) * (b.max() - b.min() + 1))
    real_term_table = simulation._term_table
    tables = []

    def term_table(a, b, n1, n2, _):
        # the guard, moved: nothing is tabulated at 0, and at 2**16 at least every box that small is
        tables.append(real_term_table(a, b, n1, n2, max_points))
        return tables[-1]

    # an undefined dataset's variances divide by zero before it is dropped, which must not warn
    with mock.patch.multiple(simulation, BLOCK_CELLS=block_cells, _term_table=term_table), warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = joined(simulation._coverage_blocks(*stratum_major(a, b, n1, n2), float(n1), float(n2)))

    assert len(tables) == 1
    if max_points == 0 or box <= max_points:
        assert (tables[0] is None) == (max_points == 0)
    assert_same_estimates(got, array_total_estimates(a, b, n1, n2))


@PROPERTY
@given(coverage_draws())
@example(LARGE_DRAWS)
def test_every_table_variance_looked_up_per_count_pair_equals_its_data_form_bit_for_bit(draws):
    # each (indicator, method) variance from its terms and its indicator's own
    # R and S at each distinct (a, b), gathered and summed over strata in
    # (rows, k) order, as the coverage study does for SKM and BH
    a, b, n1, n2 = draws
    f1, f2 = float(n1), float(n2)
    labels = tuple(f"s{i}" for i in range(a.shape[1]))
    points, index = np.unique(np.stack([a, b], axis=-1).reshape(-1, 2), axis=0, return_inverse=True)
    index = index.reshape(a.shape)
    pa, pb = points.T
    compared = 0
    for (kind, method), entry in _LOG_VARIANCES.items():
        sums = _weighted_sums(kind, pa, pb, f1 - pa, f2 - pb)
        if kind is IndicatorKind.MHCR:
            # MHRR's GR on the transposed tables (a, c // b, d), whose columns are not fixed
            cells = (pa, f1 - pa, pb, f2 - pb)
        else:
            cells = (pa, pb, f1 - pa, f2 - pb)
        terms = entry.terms(*cells, sums)
        rt, st, *term_totals = (x.take(index).sum(axis=-1) for x in (sums.r, sums.s, *terms))
        with np.errstate(divide="ignore", invalid="ignore"):
            looked_up = entry.combine(rt, st, *term_totals)
        for row in range(a.shape[0]):
            row_cells = (a[row], b[row], f1 - a[row], f2 - b[row])
            try:
                want = _log_variance(kind, method, labels, *row_cells, _weighted_sums(kind, *row_cells))
            except ValueError:  # a zero total, or an empty row that MHCR's transpose rejects
                continue
            assert float(looked_up[row]).hex() == want.hex(), (kind, method, row)
            compared += 1
    assume(compared)


# ------------------------------------------ compact stratum-major count storage

def column_ps(n: int):
    """p in (0, 1] for a Bin(n, p) column: uniform, or on numpy's inversion branch, or at its edges.

    Uniform p almost never reaches the inversion branch, n * min(p, 1 - p) <= 30,
    once n >= 256.
    """
    cut = min(30.0 / n, 1.0)
    return st.one_of(
        st.floats(0.0, 1.0, exclude_min=True),
        st.floats(0.0, cut, exclude_min=True),
        st.floats(1.0 - cut, 1.0, exclude_min=True),
        st.sampled_from(inversion_edge_ps(n)),
    )


@PROPERTY
@given(
    k=st.integers(1, 8),
    # uint8, uint16, uint32 and uint64 storage
    n1=st.one_of(st.integers(1, 255), st.integers(256, 65_535), st.integers(65_536, 2**32), st.just(2**40)),
    n2=st.one_of(st.integers(1, 255), st.integers(256, 65_535), st.integers(65_536, 2**32), st.just(2**40)),
    count=st.integers(1, 200),
    block_cells=st.integers(1, 256),
    seed=st.integers(0, 2**64 - 1),
    data=st.data(),
)
def test_compact_draws_in_blocks_equal_float64_matrices_bit_for_bit(k, n1, n2, count, block_cells, seed, data):
    p1s, p2s = (np.array(data.draw(st.lists(column_ps(n), min_size=k, max_size=k))) for n in (n1, n2))

    def stream(i):
        return np.random.default_rng(np.random.SeedSequence((seed, 0, i)))

    # float64 (count, k) matrices, filled column by column from the same streams
    want_a, want_b = np.empty((count, k)), np.empty((count, k))
    for i in range(k):
        rng = stream(i)
        want_a[:, i] = rng.binomial(n1, p1s[i], size=count)
        want_b[:, i] = rng.binomial(n2, p2s[i], size=count)
    f1, f2 = float(n1), float(n2)
    want_ln, want_defined, want_dropped, want_sums = simulation._ln_mhq_from_counts(want_a, want_b, f1, f2)
    a_d, b_d, sums_d = want_a[want_defined], want_b[want_defined], _Sums(*(x[want_defined] for x in want_sums))
    want_skm = _skm_log_variance(a_d, b_d, f1 - a_d, f2 - b_d, sums_d)
    want_bh = _rbg_log_variance(a_d, b_d, f1, f2, sums_d)

    a, b = simulation._draw_count_matrices_streamed(p1s, p2s, n1, n2, count, seed, 0)
    assert a.shape == b.shape == (k, count)
    assert a.dtype == b.dtype == np.min_scalar_type(max(n1, n2))
    got = {"ln": [], "defined": [], "skm": [], "bh": []}
    dropped = 0
    with mock.patch.object(simulation, "BLOCK_CELLS", block_cells):
        # the coverage study's terms, looked up or, for a wide spread of counts, computed per block
        got_coverage = joined(simulation._coverage_blocks(a, b, f1, f2))
        for a_rows, b_rows in simulation._blocks(a, b, np.float64):
            assert a_rows.dtype == b_rows.dtype == np.float64
            assert a_rows.flags.c_contiguous and b_rows.flags.c_contiguous
            ln, defined, block_dropped, sums = simulation._ln_mhq_from_counts(a_rows, b_rows, f1, f2)
            a_rows, b_rows, sums = a_rows[defined], b_rows[defined], _Sums(*(x[defined] for x in sums))
            got["ln"].append(ln)
            got["defined"].append(defined)
            got["skm"].append(_skm_log_variance(a_rows, b_rows, f1 - a_rows, f2 - b_rows, sums))
            got["bh"].append(_rbg_log_variance(a_rows, b_rows, f1, f2, sums))
            dropped += block_dropped
    assert dropped == want_dropped
    for name, want in (("ln", want_ln), ("defined", want_defined), ("skm", want_skm), ("bh", want_bh)):
        got_joined = np.concatenate(got[name])
        assert got_joined.dtype == want.dtype and got_joined.tobytes() == want.tobytes(), name
    assert_same_estimates(got_coverage, (want_ln, want_skm, want_bh, want_dropped))


# ------------------------------------------------- thread-count invariance

@settings(PROPERTY, max_examples=5)
@given(
    st.builds(
        SimulationDesign,
        k=st.integers(1, 4),
        n_mentioned=st.integers(30, 200),
        n_not_mentioned=st.integers(30, 2000),
        psi=st.sampled_from([0.5, 1.0, 3.0]),
        p1_low=st.just(0.1),
        p1_high=st.just(0.4),
        datasets_per_rep=st.integers(1, 200),
        reps=st.integers(2, 3),
        seed=st.integers(0, 2**64 - 1),
    )
)
def test_studies_write_the_same_bytes_for_any_thread_count(design):
    def written(study, threads):
        try:
            if study == "bias":
                summary = bias_study(design, threads=threads)
            else:
                summary = dataclasses.replace(coverage_study(design, threads=threads), study=study)
        except ExcessiveDropError as exc:  # too sparse to summarize: the same error either way
            return f"{type(exc).__name__}: {exc}"
        return summary.to_csv(), summary.to_json()

    for study in ("bias", "coverage", "width"):
        assert written(study, 2) == written(study, 1)
