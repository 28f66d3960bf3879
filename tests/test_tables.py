from __future__ import annotations

from unittest import mock

import numpy as np
import pytest

from sparsemh import (
    NoInformativeStrataError,
    ParseError,
    StratifiedDataset,
    StratumTable,
    filter_informative,
    parse_csv,
    parse_json,
)
from sparsemh import tables
from sparsemh.tables import EXCLUDED_NO_MENTIONED, EXCLUDED_NO_NOT_MENTIONED, MAX_COUNT

from conftest import csv_text, json_text, make_dataset

TABLE3_CSV = "stratum,a,b,c,d\ncat1,26,7,18,13\ncat2,15,7,15,9\ncat3,3,3,13,9\ncat4,0,10,0,10\n"


def random_table(rng, label="t", low=0, high=30) -> StratumTable:
    while True:
        a, b, c, d = (int(x) for x in rng.integers(low, high, size=4))
        if a + b + c + d > 0:
            return StratumTable(label, a, b, c, d)


# ---------------------------------------------------------------- StratumTable

def test_table_accessors():
    t = StratumTable("cat1", 26, 7, 18, 13)
    assert sum(t.cells()) == 64
    assert t.a + t.c == 44
    assert t.b + t.d == 20
    assert t.cells() == (26, 7, 18, 13)


def test_table_transposed_swaps_b_and_c():
    t = StratumTable("x", 1, 2, 3, 4)
    assert t.transposed() == StratumTable("x", 1, 3, 2, 4)
    assert t.transposed().transposed() == t


def test_table_normalizes_numpy_integer_counts():
    t = StratumTable("x", np.int64(3), np.int64(4), 5, 6)
    assert t.cells() == (3, 4, 5, 6)
    assert all(type(v) is int for v in t.cells())


def test_table_rejects_bad_counts():
    with pytest.raises(ValueError, match="non-negative"):
        StratumTable("x", 1, -2, 3, 4)
    with pytest.raises(ValueError, match="integer"):
        StratumTable("x", 1.5, 2, 3, 4)
    with pytest.raises(ValueError, match="integer"):
        StratumTable("x", True, 2, 3, 4)
    with pytest.raises(ValueError, match="empty"):
        StratumTable("x", 0, 0, 0, 0)
    with pytest.raises(ValueError, match="label"):
        StratumTable("", 1, 2, 3, 4)


def test_table_count_bound():
    assert MAX_COUNT == 2**26
    assert StratumTable("x", MAX_COUNT, 0, 0, MAX_COUNT).cells() == (MAX_COUNT, 0, 0, MAX_COUNT)
    with pytest.raises(ValueError, match=r"'d' must be at most 2\*\*26"):
        StratumTable("x", 1, 2, 3, MAX_COUNT + 1)


def test_dataset_rejects_duplicate_labels_and_emptiness():
    t = StratumTable("same", 1, 2, 3, 4)
    with pytest.raises(ValueError, match="duplicate"):
        StratifiedDataset((t, StratumTable("same", 5, 6, 7, 8)))
    with pytest.raises(ValueError, match="at least one"):
        StratifiedDataset(())


# ---------------------------------------------------------------------- CSV

def test_parse_csv_table3():
    ds = parse_csv(TABLE3_CSV)
    assert ds.labels == ("cat1", "cat2", "cat3", "cat4")
    assert ds.counts[0].tolist() == [26, 7, 18, 13]
    assert ds.counts[3].tolist() == [0, 10, 0, 10]
    assert ds.excluded == ()


def test_parse_csv_accepts_bytes_and_crlf():
    ds = parse_csv(TABLE3_CSV.replace("\n", "\r\n").encode("utf-8"))
    assert ds.labels == ("cat1", "cat2", "cat3", "cat4")


def test_parse_csv_ignores_utf8_bom():
    bom = "\ufeff" + TABLE3_CSV
    assert parse_csv(bom) == parse_csv(TABLE3_CSV)
    assert parse_csv(bom.encode("utf-8")) == parse_csv(TABLE3_CSV)


def test_parse_count_bound_csv_and_json():
    at, above = MAX_COUNT, MAX_COUNT + 1
    ds = parse_csv(f"stratum,a,b,c,d\nx,1,2,3,4\ny,{at},0,0,{at}\n")
    assert ds.counts[1].tolist() == [at, 0, 0, at]
    assert parse_json(f'[{{"stratum":"x","a":1,"b":2,"c":3,"d":4}},{{"stratum":"y","a":{at},"b":0,"c":0,"d":{at}}}]') == ds
    with pytest.raises(ParseError, match=r"line 3: field 'd' must be at most 2\*\*26 = 67108864, got 67108865"):
        parse_csv(f"stratum,a,b,c,d\nx,1,2,3,4\ny,{at},0,0,{above}\n")
    with pytest.raises(ParseError, match=r"entry 2: key 'a' must be at most 2\*\*26 = 67108864, got 67108865"):
        parse_json(f'[{{"stratum":"x","a":1,"b":2,"c":3,"d":4}},{{"stratum":"y","a":{above},"b":0,"c":0,"d":1}}]')


@pytest.mark.parametrize("end", ["", "\n", "\r\n"])
def test_parse_csv_reads_canonical_text_without_the_line_reader(monkeypatch, end):
    text = "\ufeffstratum,a,b,c,d\r\ncat1,26,7,18,13\r\nq\"#\x85 x,0,10,0,10\rz,007,0,1,67108864" + end
    want = tables._parse_csv_lines(tables._csv_text(text))
    monkeypatch.setattr(tables, "_parse_csv_lines", mock.Mock(side_effect=AssertionError("line reader used")))
    got = parse_csv(text)
    assert got == want and got.labels == ("cat1", 'q"#\x85 x', "z")
    assert got.counts.tolist() == [[26, 7, 18, 13], [0, 10, 0, 10], [7, 0, 1, MAX_COUNT]]


def test_parse_csv_header_only_is_empty_body():
    with pytest.raises(ParseError, match="empty body"):
        parse_csv("stratum,a,b,c,d\n")


def test_parse_csv_negative_count_names_line_and_field():
    with pytest.raises(ParseError, match=r"line 2.*'c'"):
        parse_csv("stratum,a,b,c,d\ncat1,26,7,-1,13\n")


def test_parse_csv_non_integer_count():
    with pytest.raises(ParseError, match=r"line 3.*'a'"):
        parse_csv("stratum,a,b,c,d\ncat1,1,2,3,4\ncat2,x,2,3,4\n")
    with pytest.raises(ParseError, match=r"line 2.*'b'"):
        parse_csv("stratum,a,b,c,d\ncat1,1,2.5,3,4\n")


def test_parse_csv_structural_errors():
    with pytest.raises(ParseError, match="header"):
        parse_csv("a,b,c,d,stratum\ncat1,1,2,3,4\n")
    with pytest.raises(ParseError, match="empty input"):
        parse_csv("")
    with pytest.raises(ParseError, match=r"line 2.*5 comma-separated fields"):
        parse_csv("stratum,a,b,c,d\ncat1,1,2,3\n")
    with pytest.raises(ParseError, match=r"line 3.*duplicate"):
        parse_csv("stratum,a,b,c,d\ncat1,1,2,3,4\ncat1,5,6,7,8\n")
    with pytest.raises(ParseError, match=r"line 2.*zero"):
        parse_csv("stratum,a,b,c,d\ncat1,0,0,0,0\n")


def test_csv_round_trip_randomized():
    rng = np.random.default_rng(101)
    for _ in range(50):
        k = int(rng.integers(1, 6))
        ds = StratifiedDataset(tuple(random_table(rng, f"s{i}") for i in range(k)))
        assert parse_csv(csv_text(ds)) == ds


# --------------------------------------------------------------------- JSON

def test_parse_json_matches_csv():
    payload = (
        '[{"stratum":"cat1","a":26,"b":7,"c":18,"d":13},'
        '{"stratum":"cat2","a":15,"b":7,"c":15,"d":9},'
        '{"stratum":"cat3","a":3,"b":3,"c":13,"d":9},'
        '{"stratum":"cat4","a":0,"b":10,"c":0,"d":10}]'
    )
    assert parse_json(payload) == parse_csv(TABLE3_CSV)


def test_parse_json_errors():
    with pytest.raises(ParseError, match="empty body"):
        parse_json("[]")
    with pytest.raises(ParseError, match=r"entry 1.*'d'"):
        parse_json('[{"stratum":"x","a":1,"b":2,"c":3}]')
    with pytest.raises(ParseError, match=r"entry 1.*integer"):
        parse_json('[{"stratum":"x","a":1.5,"b":2,"c":3,"d":4}]')
    with pytest.raises(ParseError, match=r"entry 1.*integer"):
        parse_json('[{"stratum":"x","a":true,"b":2,"c":3,"d":4}]')
    with pytest.raises(ParseError, match="array"):
        parse_json('{"stratum":"x"}')
    with pytest.raises(ParseError, match="invalid JSON"):
        parse_json("{nope")
    with pytest.raises(ParseError, match="invalid JSON"):  # too many digits to convert
        parse_json('[{"stratum":"x","a":' + "1" * 5000 + ',"b":2,"c":3,"d":4}]')
    with pytest.raises(ParseError, match=r"entry 2.*duplicate"):
        parse_json('[{"stratum":"x","a":1,"b":2,"c":3,"d":4},{"stratum":"x","a":1,"b":2,"c":3,"d":4}]')
    with pytest.raises(ParseError, match=r"^entry 2: expected an object, got list$"):
        parse_json('[{"stratum":"x","a":1,"b":2,"c":3,"d":4},["y",1,2,3,4]]')
    with pytest.raises(ParseError, match=r"^entry 1: key 'stratum' must be a non-empty string, got 7$"):
        parse_json('[{"stratum":7,"a":1,"b":2,"c":3,"d":4}]')
    with pytest.raises(ParseError, match=r"^entry 1: key 'stratum' must be a non-empty string, got ''$"):
        parse_json('[{"stratum":"","a":1,"b":2,"c":3,"d":4}]')
    with pytest.raises(ParseError, match=r"^entry 1: stratum 'x' is empty \(all four counts are zero\)$"):
        parse_json('[{"stratum":"x","a":0,"b":0,"c":0,"d":0}]')


def test_json_round_trip():
    ds = parse_csv(TABLE3_CSV)
    assert parse_json(json_text(ds)) == ds


# ----------------------------------------------------------------- filtering

def test_filter_informative_on_table3():
    ds = filter_informative(parse_csv(TABLE3_CSV))
    assert ds.labels == ("cat1", "cat2", "cat3")
    assert len(ds.excluded) == 1
    dropped, reason = ds.excluded[0]
    assert dropped.label == "cat4"
    assert reason == EXCLUDED_NO_MENTIONED


def test_filter_informative_keeps_healthy_single_stratum():
    ds = make_dataset((5, 5, 5, 5))
    assert filter_informative(ds) == StratifiedDataset([StratumTable("s1", 5, 5, 5, 5)])
    assert ds.__eq__(object()) is NotImplemented
    assert ds != object()


def test_filter_informative_all_excluded():
    with pytest.raises(NoInformativeStrataError, match="no informative strata"):
        filter_informative(make_dataset((0, 10, 0, 10)))


def test_filter_informative_empty_not_mentioned_column():
    ds = make_dataset((5, 0, 5, 0), (1, 1, 1, 1))
    filtered = filter_informative(ds)
    assert filtered.labels == ("s2",)
    assert filtered.excluded[0][1] == EXCLUDED_NO_NOT_MENTIONED


def test_filter_informative_is_idempotent():
    once = filter_informative(parse_csv(TABLE3_CSV))
    assert filter_informative(once) == once


def test_filter_informative_retains_empty_rows():
    # an empty *row* (a+b=0 or c+d=0) is kept: both columns still have data
    ds = make_dataset((0, 0, 5, 5), (5, 5, 0, 0))
    assert filter_informative(ds).labels == ("s1", "s2")


def test_filtered_strata_have_positive_columns_randomized():
    rng = np.random.default_rng(3)
    for _ in range(50):
        k = int(rng.integers(1, 7))
        ds = StratifiedDataset(tuple(random_table(rng, f"s{i}", high=4) for i in range(k)))
        try:
            filtered = filter_informative(ds)
        except NoInformativeStrataError:
            continue
        for a, b, c, d in filtered.counts.tolist():
            assert a + c >= 1
            assert b + d >= 1
