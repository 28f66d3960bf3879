from __future__ import annotations

import contextlib
import csv
import importlib
import io
import json
import os
import re
import stat
import subprocess
import sys
import threading
import tracemalloc
from dataclasses import asdict, replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings

import sparsemh
from sparsemh import IndicatorKind, VarianceMethod, __version__, cli, simulation
from sparsemh.cli import _build_parser, main
from sparsemh.datasets import smallworld_path
from sparsemh.report import (
    STRATA_PER_CHUNK, build_report, csv_chunks, json_chunks, render_json, text_chunks, write_in_place,
)
from sparsemh.tables import parse_csv
from sparsemh.variance import _DEFAULT_METHOD, _LOG_VARIANCES

from conftest import csv_text, json_text, make_dataset, sparse_datasets

GOLDEN = Path(__file__).parent / "golden" / "smallworld_report.json"


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_smallworld(tmp_path: Path) -> Path:
    path = tmp_path / "smallworld.csv"
    path.write_text(smallworld_path().read_text(encoding="utf-8"), encoding="utf-8")
    return path


# ------------------------------------------------------------------- analyze

def test_analyze_text_reproduces_published_table(capsys, tmp_path):
    code, out, err = run(capsys, "analyze", str(write_smallworld(tmp_path)))
    assert code == 0 and err == ""
    for expected in (
        "1.36", "1.69", "2.68",          # stratum 1 ratios
        "0.85", "0.75", "0.69",          # stratum 3 ratios
        "undefined",                     # stratum 4
        "MHRR  = 1.18  [0.91, 1.53]",
        "MHCR  = 1.32  [0.85, 2.04]",
        "MHOR  = 1.63  [0.78, 3.39]",
        "MHq   = 1.30  [0.84, 2.00]",
        "cat1=0.414, cat2=0.402, cat3=0.184",
        "excluded: cat4 (no mentioned articles)",
    ):
        assert expected in out


def test_analyze_default_level_flag_is_a_no_op(capsys, tmp_path):
    path = str(write_smallworld(tmp_path))
    _, plain, _ = run(capsys, "analyze", path)
    _, explicit, _ = run(capsys, "analyze", path, "--level", "0.95")
    assert plain == explicit


def test_analyze_text_header_prints_the_level_unrounded(capsys, tmp_path):
    path = str(write_smallworld(tmp_path))
    for level, header in (("0.95", "95%"), ("0.975", "97.5%"), ("0.999", "99.9%")):
        code, out, _ = run(capsys, "analyze", path, "--level", level)
        assert code == 0 and f"indicators ({header} confidence intervals):" in out.splitlines()


def test_build_report_renders_a_level_of_any_real_type_as_its_float():
    ds = parse_csv(smallworld_path().read_text(encoding="utf-8"))

    def rendered(level) -> tuple[str, ...]:
        report = build_report(ds, level=level)
        json_out = "".join(json_chunks(report))
        return "".join(text_chunks(report)), "".join(csv_chunks(report)), json_out[:json_out.index('"meta"')]

    want = rendered(0.95)
    assert rendered(np.float64(0.95)) == want
    assert rendered(Fraction(19, 20)) == want


def test_analyze_json_matches_golden(capsys, tmp_path):
    code, out, _ = run(capsys, "analyze", str(write_smallworld(tmp_path)), "--format", "json")
    assert code == 0
    got = json.loads(out)
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got.pop("meta")
    want.pop("meta")
    got.pop("source")
    want.pop("source")
    assert got == want


def test_analyze_json_bytes_match_the_golden_report(capsys, tmp_path):
    # json.loads cannot see key order or float spelling, so the bytes are
    # compared too, after masking the two lines that name the run
    code, out, _ = run(capsys, "analyze", str(write_smallworld(tmp_path)), "--format", "json")
    assert code == 0

    def masked(text: str) -> str:
        text, count = re.subn(r'^(  "source"|    "generated_at"): .*$', r"\1: <masked>", text, flags=re.M)
        assert count == 2
        return text

    assert masked(out) == masked(GOLDEN.read_text(encoding="utf-8"))


def test_analyze_json_accepts_json_input(capsys, tmp_path):
    csv_code, csv_out, _ = run(
        capsys, "analyze", str(write_smallworld(tmp_path)), "--format", "json"
    )
    json_input = tmp_path / "smallworld.json"
    rows = json.loads(csv_out)["strata"]
    json_input.write_text(
        json.dumps(
            [{"stratum": r["stratum"], "a": r["a"], "b": r["b"], "c": r["c"], "d": r["d"]} for r in rows]
        ),
        encoding="utf-8",
    )
    code, out, _ = run(capsys, "analyze", str(json_input), "--format", "json")
    assert code == 0
    got = json.loads(out)
    want = json.loads(csv_out)
    for payload in (got, want):
        payload.pop("meta")
        payload.pop("source")
    assert got == want


@pytest.mark.parametrize(
    "name, body, flag, expected",
    [
        ("data.txt", "json", "json", 0),  # the flag overrides the extension
        ("table.json", "csv", "csv", 0),
        ("TABLE.JSON", "csv", "auto", 2),  # auto reads a .json suffix in any case as JSON
    ],
)
def test_analyze_input_format_flag(capsys, tmp_path, smallworld, name, body, flag, expected):
    reference = tmp_path / "reference.csv"
    reference.write_text(csv_text(smallworld), encoding="utf-8")
    _, want, _ = run(capsys, "analyze", str(reference))
    path = tmp_path / name
    path.write_text(json_text(smallworld) if body == "json" else csv_text(smallworld), encoding="utf-8")
    code, out, err = run(capsys, "analyze", str(path), "--input-format", flag)
    assert code == expected
    if expected == 0:
        assert err == "" and out == want.replace(str(reference), str(path))
    else:
        assert out == "" and err.startswith("error: invalid JSON") and err.count("\n") == 1


def test_analyze_bh_method_is_opt_in_and_annotated(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1767225600")
    path = str(write_smallworld(tmp_path))
    _, default_out, _ = run(capsys, "analyze", path, "--format", "json")
    kinds = [(i["kind"], i["method"]) for i in json.loads(default_out)["indicators"]]
    assert ("MHq", "BH") not in kinds
    # the default is the variance table's first MHq method, skm: naming it adds nothing
    assert run(capsys, "analyze", path, "--format", "json", "--methods", "skm") == (0, default_out, "")

    code, out, _ = run(capsys, "analyze", path, "--methods", "skm,bh", "--format", "json")
    assert code == 0
    bh_rows = [i for i in json.loads(out)["indicators"] if i["method"] == "BH"]
    assert len(bh_rows) == 1
    assert bh_rows[0]["deprecated"] == "overestimates variance"

    _, text_out, _ = run(capsys, "analyze", path, "--methods", "skm,bh")
    assert "deprecated: overestimates variance" in text_out
    header, *rows = run(capsys, "analyze", path, "--methods", "skm,bh", "--format", "csv")[1].splitlines()
    assert rows[-1].startswith("MHq,BH,") and rows[-1].count(",") == header.count(",")


def test_build_report_takes_every_mhq_method_of_the_variance_table(smallworld, monkeypatch):
    # a new MHq method is one table entry: here RBG names SKM's entry
    skm_entry = _LOG_VARIANCES[IndicatorKind.MHQ, VarianceMethod.SKM]
    monkeypatch.setitem(_LOG_VARIANCES, (IndicatorKind.MHQ, VarianceMethod.RBG), skm_entry)
    estimates = build_report(smallworld, methods=("rbg",)).estimates
    assert len(estimates) == 5
    skm, rbg = estimates[3:]
    assert (skm.kind, skm.method) == (IndicatorKind.MHQ, VarianceMethod.SKM)
    assert rbg == replace(skm, method=VarianceMethod.RBG)
    with pytest.raises(ValueError) as raised:
        build_report(smallworld, methods=("nope",))
    assert str(raised.value) == "unknown MHq variance method 'nope': choose from skm, bh, rbg"


@pytest.fixture
def fresh_parser():
    """The parser is built anew in the test, and again after it: a test that edits the variance table changes its help."""
    _build_parser.cache_clear()
    yield
    _build_parser.cache_clear()


def test_analyze_takes_the_mhq_default_from_the_variance_table(capsys, tmp_path, monkeypatch, fresh_parser):
    monkeypatch.setitem(_DEFAULT_METHOD, IndicatorKind.MHQ, VarianceMethod.BH)
    code, out, _ = run(capsys, "analyze", str(write_smallworld(tmp_path)), "--format", "csv")
    assert code == 0
    assert [line.split(",")[1] for line in out.splitlines() if line.startswith("MHq,")] == ["BH"]
    with pytest.raises(SystemExit):
        main(["analyze", "--help"])
    assert "bh (default)" in " ".join(capsys.readouterr().out.split())


def test_analyze_takes_each_deprecation_note_from_the_variance_table(capsys, tmp_path, monkeypatch, fresh_parser):
    key = (IndicatorKind.MHQ, VarianceMethod.SKM)
    monkeypatch.setitem(_LOG_VARIANCES, key, _LOG_VARIANCES[key]._replace(caveat="test caveat"))
    path = str(write_smallworld(tmp_path))
    _, out, _ = run(capsys, "analyze", path, "--format", "json")
    marked = [(i["kind"], i["method"], i["deprecated"]) for i in json.loads(out)["indicators"] if "deprecated" in i]
    assert marked == [("MHq", "SKM", "test caveat")]
    _, text, _ = run(capsys, "analyze", path)
    assert "variance method: SKM  (deprecated: test caveat)\n" in text


def test_analyze_csv_output(capsys, tmp_path):
    code, out, _ = run(capsys, "analyze", str(write_smallworld(tmp_path)), "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "kind,method,value,ci_low,ci_high,level,log_variance"
    assert len(lines) == 5
    assert lines[4].startswith("MHq,SKM,")


def test_analyze_out_writes_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "analyze", str(write_smallworld(tmp_path)), "--format", "json", "--out", str(target)
    )
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["indicators"]


def test_analyze_no_informative_strata_exit_code(capsys, tmp_path):
    path = tmp_path / "only4.csv"
    path.write_text("stratum,a,b,c,d\ncat4,0,10,0,10\n", encoding="utf-8")
    code, _, err = run(capsys, "analyze", str(path))
    assert code == 3
    assert "no informative strata" in err
    # b = 0 in every stratum leaves MHCR, and so MHq, undefined
    path.write_text("stratum,a,b,c,d\ns1,3,0,5,7\ns2,2,0,1,4\n", encoding="utf-8")
    assert run(capsys, "analyze", str(path)) == (3, "", "error: MHCR weights undefined: every raw stratum weight is zero\n")


def test_analyze_parse_error_exit_code(capsys, tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("stratum,a,b,c,d\ncat1,26,7,-1,13\n", encoding="utf-8")
    code, _, err = run(capsys, "analyze", str(path))
    assert code == 2
    assert "line 2" in err and "'c'" in err


def test_analyze_huge_count_is_a_parse_error(capsys, tmp_path):
    # a count too large for a float used to escape as an OverflowError traceback
    path = tmp_path / "huge.csv"
    path.write_text(f"stratum,a,b,c,d\ncat1,{10**400},7,1,13\n", encoding="utf-8")
    code, _, err = run(capsys, "analyze", str(path))
    assert code == 2
    assert "line 2: field 'a' must be at most 2**26" in err


def test_analyze_invalid_utf8_csv_is_a_parse_error(capsys, tmp_path):
    # a CSV that does not decode used to exit 4, as if a flag value were bad
    path = tmp_path / "latin1.csv"
    path.write_bytes("stratum,a,b,c,d\ncaf\u00e9,26,7,18,13\n".encode("latin-1"))
    code, out, err = run(capsys, "analyze", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: input is not valid UTF-8: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_analyze_deeply_nested_json_is_a_parse_error(capsys, tmp_path):
    # json.loads used to escape as a RecursionError traceback, exit 1
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000, encoding="utf-8")
    code, out, err = run(capsys, "analyze", str(path))
    assert code == 2 and out == ""
    assert err == "error: invalid JSON: nested too deeply\n"
    assert "Traceback" not in err


def test_analyze_bom_csv_matches_plain_file(capsys, tmp_path):
    plain = write_smallworld(tmp_path)
    bom = tmp_path / "smallworld_bom.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    reports = []
    for path in (plain, bom):
        code, out, _ = run(capsys, "analyze", str(path), "--format", "json")
        assert code == 0
        report = json.loads(out)
        report.pop("meta")
        report.pop("source")
        reports.append(report)
    assert reports[0] == reports[1]


def test_analyze_json_is_byte_reproducible_with_source_date_epoch(capsys, tmp_path, monkeypatch):
    path = str(write_smallworld(tmp_path))
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1767225600")
    outputs = []
    for _ in range(2):
        code, out, err = run(capsys, "analyze", path, "--format", "json", "--methods", "skm,bh")
        assert code == 0 and err == ""
        outputs.append(out.encode("utf-8"))
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["meta"]["generated_at"] == "2026-01-01T00:00:00+00:00"


def test_analyze_invalid_source_date_epoch_exit_code(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "yesterday")
    code, out, err = run(capsys, "analyze", str(write_smallworld(tmp_path)), "--format", "json")
    assert code == 4 and out == ""
    assert err == "error: SOURCE_DATE_EPOCH must be an integer count of seconds, got 'yesterday'\n"


def test_analyze_missing_file_exit_code(capsys, tmp_path):
    code, _, err = run(capsys, "analyze", str(tmp_path / "nope.csv"))
    assert code == 5
    assert "error" in err


def test_analyze_invalid_flag_values(capsys, tmp_path):
    path = str(write_smallworld(tmp_path))
    code, _, err = run(capsys, "analyze", path, "--methods", "bayes")
    assert code == 4 and "bayes" in err
    assert run(capsys, "analyze", path, "--methods", "nope") == (
        4, "", "error: unknown MHq variance method 'nope': choose from skm, bh\n"
    )
    code, _, err = run(capsys, "analyze", path, "--level", "1.5")
    assert code == 4 and "level" in err


# ------------------------------------------------- --out rewrites in place

ONE_STRATUM = "stratum,a,b,c,d\ns1,3,2,5,7\n"


def write_one_stratum(tmp_path: Path) -> Path:
    path = tmp_path / "one.csv"
    path.write_text(ONE_STRATUM, encoding="utf-8")
    return path


def wide_rows(k: int) -> str:
    """k CSV rows of the paper's desk design (100 mentioned, 1000 not), with excluded and b = 0 strata among them."""
    rows = []
    for i in range(k):
        a, b = i % 37 + 1, (7 * i) % 211 + 1
        cells = (0, 4, 0, 6) if i % 10 == 3 else (3, 0, 5, 7) if i % 7 == 5 else (a, b, 100 - a, 1000 - b)
        rows.append("s%d,%d,%d,%d,%d\n" % (i + 1, *cells))
    return "".join(rows)


def test_analyze_out_over_a_longer_report_leaves_no_stale_tail(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1767225600")
    target = tmp_path / "report.json"
    code, _, _ = run(capsys, "analyze", str(write_smallworld(tmp_path)), "--format", "json", "--out", str(target))
    assert code == 0
    longer = target.stat().st_size
    one = str(write_one_stratum(tmp_path))
    code, _, _ = run(capsys, "analyze", one, "--format", "json", "--out", str(target))
    code_stdout, out, _ = run(capsys, "analyze", one, "--format", "json")
    assert code == code_stdout == 0
    assert target.read_bytes() == out.encode("utf-8")
    assert target.stat().st_size < longer


def test_simulate_out_over_longer_files_leaves_no_stale_tail(capsys, tmp_path):
    prefix = tmp_path / "old"
    stale = "x" * 100_000 + "\n"
    for suffix in (".csv", ".json"):
        (tmp_path / ("old" + suffix)).write_text(stale, encoding="utf-8")
    for out in (prefix, tmp_path / "fresh"):
        code, _, _ = run(capsys, *simulate_args("bias", out))
        assert code == 0
    for suffix in (".csv", ".json"):
        written = (tmp_path / ("old" + suffix)).read_bytes()
        assert written == (tmp_path / ("fresh" + suffix)).read_bytes()


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_analyze_out_bytes_equal_stdout_bytes(capsys, tmp_path, monkeypatch, fmt):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1767225600")
    path = str(write_smallworld(tmp_path))
    target = tmp_path / f"report.{fmt}"
    code, out, _ = run(capsys, "analyze", path, "--format", fmt, "--out", str(target))
    assert code == 0 and out == ""
    code, out, _ = run(capsys, "analyze", path, "--format", fmt)
    assert code == 0
    assert target.read_bytes() == out.encode("utf-8")


@pytest.mark.parametrize(
    ("rows", "flags", "env", "expected"),
    [
        ("cat4,0,10,0,10\n", (), None, 3),                         # no informative strata
        ("s1,3,2,5,7\n", ("--level", "1.5"), None, 4),             # flag out of its domain
        ("s1,3,2,5,7\n", ("--format", "json"), "yesterday", 4),    # fails while rendering
        (wide_rows(2 * STRATA_PER_CHUNK + 1), ("--format", "json"), "yesterday", 4),
    ],
    ids=["no-informative-strata", "level-out-of-domain", "bad-epoch-while-rendering", "bad-epoch-past-one-chunk"],
)
def test_failed_analyze_leaves_the_out_file_unchanged(capsys, tmp_path, monkeypatch, rows, flags, env, expected):
    if env is not None:
        monkeypatch.setenv("SOURCE_DATE_EPOCH", env)
    path = tmp_path / "in.csv"
    path.write_text("stratum,a,b,c,d\n" + rows, encoding="utf-8")
    target, missing = tmp_path / "report.txt", tmp_path / "new.txt"
    target.write_bytes(b"the previous report\n")
    for out_path in (target, missing):
        code, out, err = run(capsys, "analyze", str(path), *flags, "--out", str(out_path))
        assert code == expected and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
    assert target.read_bytes() == b"the previous report\n"
    assert not missing.exists()


# ------------------------------------------- reports longer than one chunk


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_analyze_out_bytes_equal_stdout_bytes_past_one_chunk(capsys, tmp_path, monkeypatch, fmt):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1767225600")
    path = tmp_path / "wide.csv"
    path.write_text("stratum,a,b,c,d\n" + wide_rows(2 * STRATA_PER_CHUNK + 1), encoding="utf-8")
    target = tmp_path / f"report.{fmt}"
    target.write_bytes(b"a longer earlier report\n" * 100_000)
    code, out, _ = run(capsys, "analyze", str(path), "--format", fmt, "--out", str(target))
    assert code == 0 and out == ""
    code, out, _ = run(capsys, "analyze", str(path), "--format", fmt)
    assert code == 0
    assert target.read_bytes() == out.encode("utf-8")


def test_label_the_output_cannot_encode_past_one_chunk_touches_no_output(capsys, tmp_path):
    # JSON input may spell a lone surrogate; text output cannot write it as UTF-8
    rows = [{"stratum": f"s{i}", "a": 3, "b": 2, "c": 5, "d": 7} for i in range(STRATA_PER_CHUNK + 10)]
    rows[STRATA_PER_CHUNK + 5]["stratum"] = "s\ud800"
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(rows), encoding="utf-8")
    target, missing = tmp_path / "report.txt", tmp_path / "new.txt"
    target.write_bytes(b"the previous report\n")
    for argv in (["--out", str(target)], ["--out", str(missing)], []):
        code, out, err = run(capsys, "analyze", str(path), "--format", "text", *argv)
        assert (code, out) == (4, "")
        assert err.startswith("error: 'utf-8' codec can't encode character '\\ud800'") and err.count("\n") == 1
    assert target.read_bytes() == b"the previous report\n"
    assert not missing.exists()
    code, out, _ = run(capsys, "analyze", str(path), "--format", "json")
    assert code == 0 and '"s\\ud800"' in out


def test_writing_a_report_holds_no_whole_copy_of_it(tmp_path):
    # sparse strata repeat a few tables, so the per-report memo of their
    # text stays small and what the writer holds is a chunk at a time
    tables = [(3, 2, 5, 7), (0, 4, 0, 6), (3, 0, 5, 7), (3, 2, 0, 7), (1, 4, 2, 9), (12, 30, 40, 55)]
    rows = [f"s{i + 1},%d,%d,%d,%d" % tables[(i * i) % 6] for i in range(3 * STRATA_PER_CHUNK)]
    report = build_report(parse_csv("stratum,a,b,c,d\n" + "\n".join(rows) + "\n"))
    length = len(render_json(report))
    target = tmp_path / "report.json"
    tracemalloc.start()
    try:
        write_in_place(target, json_chunks(report))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert target.stat().st_size == length
    assert peak < length / 2


def test_a_report_holds_its_counts_and_weight_arrays_not_per_stratum_objects():
    # the desk design at K = 20,000: the filtered counts and labels take 40
    # bytes a stratum and the four S_i arrays 32; the renderers compute each
    # chunk's ratios and normalized weights, so the report holds no list of them
    k = 20_000
    rng = np.random.default_rng(20_000)
    p1 = rng.uniform(0.01, 0.2, size=k)
    a, b = rng.binomial(100, p1), rng.binomial(1000, p1)
    while (empty := a + b == 0).any():  # an empty row is rejected by MHCR's GR variance
        a[empty], b[empty] = rng.binomial(100, p1[empty]), rng.binomial(1000, p1[empty])
    cells = zip(a.tolist(), b.tolist(), (100 - a).tolist(), (1000 - b).tolist())
    ds = parse_csv("stratum,a,b,c,d\n" + "".join("s%d,%d,%d,%d,%d\n" % (i + 1, *t) for i, t in enumerate(cells)))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        report = build_report(ds)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(report.filtered) == k
    assert held <= 128 * k


def test_write_in_place_refuses_one_str(tmp_path):
    target = tmp_path / "report.txt"
    with pytest.raises(TypeError):
        write_in_place(target, "a report")
    assert not target.exists()


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(sparse_datasets)
@example(make_dataset((3, 2, 5, 7), (0, 0, 4, 6), (2, 1, 0, 0), (1, 4, 2, 9)))  # empty rows
@example(make_dataset((0, 1, 1, 0), (1, 262_286, 0, 1)))  # exp(z * sd) is past the float range
def test_analyze_exits_0_3_or_4_on_every_parsed_dataset(tmp_path_factory, ds):
    # exit 4 is the empty-row rejection of MHCR's GR variance; once that is
    # mended, the contract narrows to {0, 3}
    path = tmp_path_factory.getbasetemp() / "contract.csv"
    path.write_text(csv_text(ds), encoding="utf-8")
    for fmt in ("text", "json", "csv"):
        for methods in ("skm", "skm,bh"):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(["analyze", str(path), "--format", fmt, "--methods", methods])
            assert code in (0, 3, 4)
            if code:
                assert out.getvalue() == "" and err.getvalue().startswith("error: ")
            else:
                assert out.getvalue() and err.getvalue() == ""


def test_analyze_out_dev_null(capsys, tmp_path):
    if not os.path.exists("/dev/null"):
        pytest.skip("needs /dev/null")
    code, out, err = run(capsys, "analyze", str(write_smallworld(tmp_path)), "--out", "/dev/null")
    assert (code, out, err) == (0, "", "")


def test_analyze_out_fifo_is_written_whole(capsys, tmp_path):
    if not hasattr(os, "mkfifo"):
        pytest.skip("needs named pipes")
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    one = str(write_one_stratum(tmp_path))
    code, _, err = run(capsys, "analyze", one, "--format", "csv", "--out", str(fifo))
    reader.join(timeout=30)
    assert not reader.is_alive()
    assert code == 0 and err == ""
    _, out, _ = run(capsys, "analyze", one, "--format", "csv")
    assert received == [out.encode("utf-8")]


def test_analyze_out_directory_is_an_io_error(capsys, tmp_path):
    code, out, err = run(capsys, "analyze", str(write_smallworld(tmp_path)), "--out", str(tmp_path))
    assert code == 5 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    ("command", "out"),
    [("analyze", ""), ("simulate", ""), ("simulate", "."), ("simulate", ".."), ("simulate", "sub/")],
    ids=["analyze-empty", "simulate-empty", "simulate-dot", "simulate-dotdot", "simulate-trailing-slash"],
)
def test_analyze_or_simulate_out_that_names_no_file_is_an_error(capsys, tmp_path, monkeypatch, command, out):
    def no_draws(*args, **kwargs):
        raise AssertionError("drew before --out was checked")

    monkeypatch.setattr(simulation, "_rep_p1s", no_draws)
    monkeypatch.chdir(tmp_path)
    argv = [str(write_smallworld(tmp_path))] if command == "analyze" else ["bias", "--k", "3", "--reps", "1"]
    code, stdout, err = run(capsys, command, *argv, "--out", out)
    assert (code, stdout) == (5 if command == "analyze" else 4, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert [path.name for path in tmp_path.iterdir()] == (["smallworld.csv"] if command == "analyze" else [])


@pytest.mark.skipif(not hasattr(os, "geteuid") or os.geteuid() == 0, reason="root may write read-only files")
def test_analyze_out_read_only_file_is_an_io_error(capsys, tmp_path):
    target = tmp_path / "report.txt"
    target.write_bytes(b"kept\n")
    target.chmod(0o444)
    code, out, err = run(capsys, "analyze", str(write_smallworld(tmp_path)), "--out", str(target))
    assert code == 5 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert target.read_bytes() == b"kept\n"


@pytest.mark.parametrize("umask", [0o022, 0o077], ids=["022", "077"])
def test_analyze_out_new_file_mode_follows_the_umask(capsys, tmp_path, umask):
    target = tmp_path / "report.txt"
    previous = os.umask(umask)
    try:
        code, _, _ = run(capsys, "analyze", str(write_smallworld(tmp_path)), "--out", str(target))
    finally:
        os.umask(previous)
    assert code == 0
    assert stat.S_IMODE(target.stat().st_mode) == 0o666 & ~umask


# ------------------------------------------------------------------ simulate

def simulate_args(study: str, out: Path, *extra: str) -> list[str]:
    return [
        "simulate", study,
        "--k", "5", "--n-mentioned", "40", "--n-not-mentioned", "300",
        "--datasets", "300", "--reps", "2", "--seed", "7",
        "--out", str(out), *extra,
    ]


def test_simulate_design_defaults_are_the_design_dataclass_defaults(capsys, tmp_path, monkeypatch):
    # the repetitions are stubbed: only the design the flags build is under test
    def no_draws(design, rep):
        return simulation.BiasRecord(rep, 0.0, 0.0, 0.0, 0.0, 0.0), 0

    monkeypatch.setattr(simulation, "_bias_rep", no_draws)
    for argv, want in (
        (["simulate", "bias", "--out", str(tmp_path / "default")], simulation.SimulationDesign()),
        (
            simulate_args("bias", tmp_path / "given"),
            simulation.SimulationDesign(
                k=5, n_mentioned=40, n_not_mentioned=300, datasets_per_rep=300, reps=2, seed=7
            ),
        ),
    ):
        code, _, _ = run(capsys, *argv)
        assert code == 0
        payload = json.loads(Path(argv[argv.index("--out") + 1] + ".json").read_text(encoding="utf-8"))
        assert payload["design"] == asdict(want)


def test_simulate_bias_deterministic_across_threads(capsys, tmp_path):
    code1, out1, _ = run(capsys, *simulate_args("bias", tmp_path / "a"), "--threads", "1")
    code2, out2, _ = run(capsys, *simulate_args("bias", tmp_path / "b"), "--threads", "2")
    assert code1 == code2 == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    assert out1.startswith("bias:") and out2.startswith("bias:")


def test_simulate_coverage_writes_summary(capsys, tmp_path):
    code, out, _ = run(capsys, *simulate_args("coverage", tmp_path / "cov"))
    assert code == 0
    assert out.startswith("coverage:")
    header = (tmp_path / "cov.csv").read_text().splitlines()[0]
    assert header == "setting,psi,skm_coverage,bh_coverage,skm_mean_width,bh_mean_width,dropped"


def test_simulate_width_digest_reports_ratio(capsys, tmp_path):
    code, out, _ = run(capsys, *simulate_args("width", tmp_path / "w"))
    assert code == 0
    assert "bh/skm=" in out


def test_simulate_convergence(capsys, tmp_path):
    code, out, _ = run(
        capsys,
        "simulate", "convergence",
        "--k", "4", "--psi", "2", "--scales", "1,5", "--replicates", "200",
        "--seed", "3", "--out", str(tmp_path / "conv"),
    )
    assert code == 0
    assert out.startswith("convergence:")
    lines = (tmp_path / "conv.csv").read_text().splitlines()
    assert lines[0] == "scale,mean_abs_dev,mc_se,replicates"
    assert len(lines) == 3
    meta = json.loads((tmp_path / "conv.json").read_text())
    assert meta["design"]["scales"] == [1, 5]
    assert meta["design"]["replicates"] == 200
    assert "reps" not in meta["design"] and "datasets_per_rep" not in meta["design"]
    assert meta["rng"]["streams"].startswith("p1 draws: SeedSequence((seed,))")


@pytest.mark.parametrize("study", ["bias", "coverage", "width", "convergence"])
def test_simulate_summary_line_is_built_from_the_written_csv(capsys, tmp_path, study):
    # each CSV cell is repr(float), which reads back to the same float, so the
    # means rebuilt here are the ones the command printed, bit for bit
    code, out, err = run(
        capsys, *simulate_args(study, tmp_path / "s"), "--psi", "2", "--scales", "1,5", "--replicates", "50"
    )
    assert code == 0 and err == ""
    with open(tmp_path / "s.csv", newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    meta = json.loads((tmp_path / "s.json").read_text(encoding="utf-8"))
    psi = meta["design"]["psi"]

    def mean(name: str) -> float:
        return sum(float(row[name]) for row in rows) / len(rows)

    if study == "bias":
        line = (
            f"bias: psi={psi} reps={len(rows)} "
            f"mean_skm_bias={mean('skm_bias'):+.5f} mean_bh_bias={mean('bh_bias'):+.5f}"
        )
    elif study == "coverage":
        line = (
            f"coverage: psi={psi} reps={len(rows)} "
            f"skm={mean('skm_coverage'):.4f} bh={mean('bh_coverage'):.4f} dropped={meta['dropped_total']}"
        )
    elif study == "width":
        skm_w, bh_w = mean("skm_mean_width"), mean("bh_mean_width")
        ratio = bh_w / skm_w if skm_w else float("nan")
        line = (
            f"width: psi={psi} reps={len(rows)} "
            f"skm_mean_width={skm_w:.4f} bh_mean_width={bh_w:.4f} bh/skm={ratio:.4f}"
        )
    else:
        last = rows[-1]
        line = (
            f"convergence: psi={psi} scale={last['scale']} "
            f"mean_abs_dev={float(last['mean_abs_dev']):.5f} (mc_se {float(last['mc_se']):.5f})"
        )
    assert out == f"{line} -> {tmp_path / 's.csv'} {tmp_path / 's.json'}\n"


def test_simulate_rejects_an_unknown_study(capsys):
    with pytest.raises(SystemExit) as stopped:
        main(["simulate", "bogus"])
    assert stopped.value.code == 2
    assert "invalid choice: 'bogus'" in capsys.readouterr().err


def test_simulate_help_says_convergence_ignores_the_repetition_flags(capsys):
    with pytest.raises(SystemExit) as stopped:
        main(["simulate", "--help"])
    assert stopped.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    # option -> its help text, up to the next "--option METAVAR"
    entries = dict(re.findall(r"(--[a-z0-9-]+) [A-Z0-9_]+ (.*?)(?= --[a-z0-9-]+ [A-Z0-9_]+ |$)", text))
    for flag in ("--datasets", "--reps"):
        assert "not used by convergence" in entries[flag]
    for flag in ("--k", "--psi", "--seed", "--threads", "--scales", "--replicates"):
        assert "not used by convergence" not in entries[flag]


def test_simulate_invalid_design_exit_code(capsys, tmp_path):
    code, _, err = run(
        capsys, "simulate", "bias", "--psi", "0.15", "--p1-high", "0.2", "--out", str(tmp_path / "x")
    )
    assert code == 4
    assert "p1_high" in err or "p2" in err
    argv = ("--k", "3", "--datasets", "50", "--reps", "1", "--p1-low", "5e-324", "--p1-high", "5e-324", "--psi", "2")
    code, out, err = run(capsys, "simulate", "bias", *argv, "--out", str(tmp_path / "underflow"))
    assert (code, out) == (4, "")
    assert err == "error: psi=2.0 with p1_low=5e-324 would make p2 = p1/psi underflow to 0\n"
    assert not (tmp_path / "underflow.csv").exists()


def test_simulate_excessive_drop_exit_code(capsys, tmp_path):
    code, out, err = run(
        capsys,
        "simulate", "coverage",
        "--k", "3", "--n-mentioned", "2", "--n-not-mentioned", "5",
        "--p1-low", "0.01", "--p1-high", "0.02", "--reps", "1", "--datasets", "200",
        "--out", str(tmp_path / "sparse"),
    )
    assert code == 4 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "197 of 200 replicates had an undefined MHq" in err
    assert not (tmp_path / "sparse.csv").exists()
    # main's ValueError handler is the one that reports it
    assert issubclass(simulation.ExcessiveDropError, ValueError)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["bias", "--threads", "0"], "--threads must be at least 1, got 0"),
        (["convergence", "--scales", "1,x"], "--scales must be comma-separated integers, got '1,x'"),
        (["convergence", "--scales", "5,5"], "scales[1] repeats scale 5 of scales[0]"),
    ],
)
def test_simulate_invalid_flag_exit_code(capsys, tmp_path, argv, message):
    code, out, err = run(capsys, "simulate", *argv, "--out", str(tmp_path / "flag"))
    assert code == 4 and out == ""
    assert err == f"error: {message}\n"
    assert not (tmp_path / "flag.csv").exists()


@pytest.mark.parametrize("value", ["abc", "0", "-2", "1.5"])
def test_simulate_invalid_threads_env_exit_code(capsys, tmp_path, monkeypatch, value):
    monkeypatch.setenv("SPARSEMH_THREADS", value)
    code, _, err = run(capsys, *simulate_args("bias", tmp_path / "env"))
    assert code == 4
    assert err == f"error: SPARSEMH_THREADS must be a positive integer, got {value!r}\n"


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_simulate_threads_env_default(capsys, tmp_path, monkeypatch):
    # SPARSEMH_THREADS=2, SPARSEMH_THREADS=1 and --threads 1 write the same
    # bytes. Each study ignores the others' flags. The wide design's counts
    # spread past the term lookup, so its coverage runs the data-form kernels;
    # the drop design leaves MHq undefined in 2 of its 2,000 datasets
    argvs = [simulate_args(study, Path(study), "--scales", "1,2", "--replicates", "50")
             for study in ("bias", "coverage", "width", "convergence")]
    argvs += [
        ["simulate", "coverage", "--k", "3", "--n-mentioned", "100000", "--n-not-mentioned", "1000000",
         "--datasets", "50", "--reps", "2", "--out", "wide"],
        ["simulate", "coverage", "--k", "2", "--n-mentioned", "4", "--n-not-mentioned", "1000",
         "--p1-low", "0.5", "--p1-high", "0.6", "--datasets", "1000", "--reps", "2", "--out", "drop"],
    ]
    written = []
    for variant, (env, flags) in enumerate((("2", ()), ("1", ()), (None, ("--threads", "1")))):
        (tmp_path / str(variant)).mkdir()
        monkeypatch.chdir(tmp_path / str(variant))
        if env:
            monkeypatch.setenv("SPARSEMH_THREADS", env)
        else:
            monkeypatch.delenv("SPARSEMH_THREADS")
        assert [run(capsys, *argv, *flags)[0] for argv in argvs] == [0] * len(argvs)
        written.append({path.name: path.read_bytes() for path in Path.cwd().iterdir()})
    assert written[0] == written[1] == written[2] and len(written[0]) == 2 * len(argvs)
    assert written[0]["width.csv"] == written[0]["coverage.csv"]
    assert json.loads(written[0]["drop.json"])["dropped_total"] == 2


@pytest.mark.parametrize(
    "argv, field",
    [
        (["bias", "--n-not-mentioned", "10000000000000000000"], "n_not_mentioned must"),
        (["bias", "--n-mentioned", str(2**53 + 1)], "n_mentioned must"),
        (["convergence", "--scales", "1,10000000000000000"], "n_mentioned * scale must"),
    ],
)
def test_simulate_huge_sample_size_exit_code(capsys, tmp_path, argv, field):
    # numpy's binomial draw used to end in an OverflowError traceback
    code, out, err = run(capsys, "simulate", *argv, "--out", str(tmp_path / "huge"))
    assert code == 4 and out == ""
    assert err.startswith(f"error: {field} be at most 2**53, got ") and err.count("\n") == 1


@pytest.mark.parametrize("study", ["bias", "convergence"])
def test_simulate_excessive_drop_exit_code_for_bias_and_convergence(capsys, tmp_path, study):
    code, out, err = run(
        capsys,
        "simulate", study,
        "--k", "1", "--n-mentioned", "1", "--n-not-mentioned", "1",
        "--p1-low", "0.01", "--p1-high", "0.01",
        "--reps", "1", "--datasets", "200", "--scales", "1", "--replicates", "200",
        "--out", str(tmp_path / "sparse"),
    )
    assert code == 4 and out == ""
    assert err == (
        "error: 200 of 200 replicates had an undefined MHq (> 1%); "
        "the sampling design is too sparse to summarize\n"
    )


NUMPY_OOM = "Unable to allocate 54.6 TiB for an array with shape (30, 1000000000000) and data type uint16"


@pytest.mark.parametrize(
    "study, threads, message, expected",
    [
        ("bias", "1", NUMPY_OOM, NUMPY_OOM),
        ("coverage", "2", "", "the design does not fit in memory"),
        ("convergence", "1", "", "the design does not fit in memory"),
    ],
)
def test_simulate_design_too_large_for_memory_exit_code(capsys, tmp_path, monkeypatch, study, threads, message, expected):
    # numpy's MemoryError for an unallocatable count array used to escape as
    # a traceback, exit 1; the draw is replaced, so nothing large is requested
    def out_of_memory(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(simulation, "_draw_count_matrices_streamed", out_of_memory)
    code, out, err = run(capsys, *simulate_args(study, tmp_path / "big", "--threads", threads))
    assert code == 4 and out == ""
    assert err == f"error: {expected}\n"
    assert not (tmp_path / "big.csv").exists()


@pytest.mark.parametrize(
    "message, expected",
    [
        ("Unable to allocate 9.54 GiB for an array with shape (320000000, 4) and data type int64",) * 2,
        ("", "the input does not fit in memory"),
    ],
)
def test_analyze_input_too_large_for_memory_exit_code(capsys, tmp_path, monkeypatch, message, expected):
    # a MemoryError used to escape analyze as a traceback, exit 1
    def out_of_memory(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "build_report", out_of_memory)
    out_path = tmp_path / "report.json"
    code, out, err = run(capsys, "analyze", str(write_smallworld(tmp_path)), "--format", "json", "--out", str(out_path))
    assert code == 4 and out == ""
    assert err == f"error: {expected}\n"
    assert not out_path.exists()


@pytest.mark.parametrize("psi", ["inf", "nan"])
def test_simulate_non_finite_psi_is_rejected_before_any_draw(capsys, tmp_path, monkeypatch, psi):
    def no_draws(*args, **kwargs):
        raise AssertionError("drew before the design was validated")

    monkeypatch.setattr(simulation, "_rep_p1s", no_draws)
    monkeypatch.setattr(simulation, "_draw_count_matrices_streamed", no_draws)
    code, out, err = run(capsys, "simulate", "convergence", "--psi", psi, "--out", str(tmp_path / "inf"))
    assert code == 4 and out == ""
    assert err == f"error: psi must be positive and finite, got {psi}\n"


def checkout_env() -> dict[str, str]:
    """This process's environment, with this checkout's sparsemh first on ``PYTHONPATH``."""
    src = str(Path(sparsemh.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))


def fresh_interpreter(code: str) -> str:
    """stdout of ``python -c code`` in a new process that imports this checkout's sparsemh."""
    env = checkout_env()
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout


def test_importing_the_cli_loads_no_process_machinery():
    # analyze needs neither the simulation nor a pool; both load on first use
    heavy = ("sparsemh.simulation", "concurrent.futures", "multiprocessing")
    # a bare import loads no submodule and no numpy: each name loads its own on first use
    for module, unloaded in (("sparsemh.cli", heavy), ("sparsemh", heavy + ("sparsemh.", "numpy"))):
        probe = f"import sys, {module}; print(sorted(m for m in sys.modules if m.startswith({unloaded!r})))"
        assert fresh_interpreter(probe) == "[]\n", module


def test_simulation_names_resolve_on_first_use():
    assert sparsemh.bias_study is sparsemh.simulation.bias_study
    assert sparsemh.InvalidDesignError is simulation.InvalidDesignError
    # the column-binomial model lives in the simulation alone
    moved = (
        "BinomialParams", "InvalidDesignError", "MAX_COLUMN_TOTAL", "_check_column_totals", "_check_positive_ints",
        "_expected_cells", "_real", "var_bh_log_mhq_true", "var_skm_log_mhq_true",
    )
    assert [name for name in moved if hasattr(sparsemh.variance, name)] == []
    assert sparsemh.__all__ == [
        "__version__", "BinomialParams", "ExcessiveDropError", "IndicatorEstimate", "IndicatorKind",
        "InvalidDesignError", "NoInformativeStrataError", "ParseError", "SimulationDesign",
        "StratifiedDataset", "StratumRatios", "StratumTable", "StudySummary",
        "UndefinedIndicatorError", "VarianceMethod", "bias_study", "confidence_interval",
        "convergence_study", "coverage_study", "estimate_indicator",
        "filter_informative", "mh_col_risk_ratio", "mh_odds_ratio",
        "mh_row_risk_ratio", "mhq", "parse_csv", "parse_json", "stratum_ratios", "stratum_weights",
        "transpose", "var_bh_log_mhq_true", "var_gr_log_mhcr", "var_gr_log_mhrr",
        "var_rbg_log_mhor", "var_skm_log_mhq", "var_skm_log_mhq_true", "world_comparison_row",
    ]
    for module, names in sparsemh._EXPORTS.items():
        for name in names:
            assert getattr(sparsemh, name) is getattr(importlib.import_module(f"sparsemh.{module}"), name), name
    # the submodules a bare import offers
    submodules = ("estimators", "tables", "variance", "simulation")
    probe = f"import sys, sparsemh; print(all(getattr(sparsemh, m) is sys.modules['sparsemh.' + m] for m in {submodules!r}))"
    assert fresh_interpreter(probe) == "True\n"
    namespace: dict = {}
    exec("from sparsemh import *", namespace)
    assert {name: namespace[name] for name in sparsemh.__all__} == {
        name: getattr(sparsemh, name) for name in sparsemh.__all__
    }
    assert set(sparsemh.__all__) <= set(dir(sparsemh))
    with pytest.raises(AttributeError, match="no_such_name"):
        sparsemh.no_such_name


# ------------------------------------------------- a reader that stops early

def run_into_closed_pipe(cwd: Path, unbuffered: bool, *argv: str) -> subprocess.CompletedProcess:
    """``python -m sparsemh.cli argv`` in a new process whose stdout pipe was closed by its reader before any write.

    Block-buffered stdout meets the closed pipe when it is flushed, and
    unbuffered stdout (``PYTHONUNBUFFERED``) at its first write.
    """
    env = checkout_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        command = [sys.executable, "-m", "sparsemh.cli", *argv]
        return subprocess.run(command, cwd=cwd, env=env, stdout=write_end, stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write_end)


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_simulate_into_a_closed_pipe_exits_0_and_writes_its_files(capsys, tmp_path, unbuffered):
    flags = ("simulate", "coverage", "--k", "3", "--datasets", "50", "--reps", "1", "--out")
    piped = run_into_closed_pipe(tmp_path, unbuffered, *flags, "piped")
    assert (piped.returncode, piped.stderr) == (0, "")
    assert run(capsys, *flags, str(tmp_path / "plain"))[0] == 0
    for suffix in (".csv", ".json"):
        assert (tmp_path / f"piped{suffix}").read_bytes() == (tmp_path / f"plain{suffix}").read_bytes()


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_analyze_into_a_closed_pipe_exits_0(tmp_path, unbuffered):
    rows = [f"s{i + 1},{i % 37 + 1},{7 * i % 211 + 1},{99 - i % 37},{999 - 7 * i % 211}" for i in range(4096)]
    text = "stratum,a,b,c,d\n" + "\n".join(rows) + "\n"
    (tmp_path / "wide.csv").write_text(text, encoding="utf-8")
    assert len(render_json(build_report(parse_csv(text)))) > 1 << 20  # far past a pipe's buffer
    piped = run_into_closed_pipe(tmp_path, unbuffered, "analyze", "wide.csv", "--format", "json")
    assert (piped.returncode, piped.stderr) == (0, "")


class ClosedPipe:
    """A stdout whose reader has gone: every write raises, and it has no file descriptor."""

    def write(self, text: str) -> int:
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self) -> None:
        pass


def test_main_returns_0_when_stdout_is_closed_early(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    assert main(["analyze", str(write_smallworld(tmp_path)), "--format", "json"]) == 0
    assert main(["version"]) == 0
    assert capsys.readouterr().err == ""


# ----------------------------------------------- one parser for every call

def test_parser_is_built_once_and_keeps_no_state_between_calls(capsys, tmp_path):
    assert _build_parser() is _build_parser()
    path = str(write_smallworld(tmp_path))
    code, out, _ = run(capsys, "analyze", path, "--format", "json")
    assert code == 0 and out.startswith("{")
    code, out, _ = run(capsys, "analyze", path)
    assert code == 0 and out.startswith("dataset: ")

    with pytest.raises(SystemExit) as stopped:
        main(["analyze", path, "--no-such-flag"])
    assert stopped.value.code == 2
    assert "unrecognized arguments: --no-such-flag" in capsys.readouterr().err
    code, out, err = run(capsys, "analyze", path, "--format", "csv")
    assert code == 0 and err == "" and out.startswith("kind,method,")


def test_threads_env_is_read_on_every_call(capsys, tmp_path, monkeypatch):
    seen = []
    run_reps = simulation._run_reps

    def spy(work, reps, threads):
        seen.append(threads)
        return run_reps(work, reps, threads)

    monkeypatch.setattr(simulation, "_run_reps", spy)
    for value in ("1", "2"):
        monkeypatch.setenv("SPARSEMH_THREADS", value)
        code, _, _ = run(capsys, *simulate_args("bias", tmp_path / value))
        assert code == 0
    assert seen == [1, 2]


@pytest.mark.parametrize("argv", [["--help"], ["analyze", "--help"], ["simulate", "--help"]])
def test_help_equals_a_freshly_built_parsers(capsys, tmp_path, argv):
    run(capsys, "analyze", str(write_smallworld(tmp_path)))
    texts = []
    for parse in (main, _build_parser.__wrapped__().parse_args):
        with pytest.raises(SystemExit) as stopped:
            parse(argv)
        assert stopped.value.code == 0
        texts.append(capsys.readouterr().out)
    assert texts[0] == texts[1] and texts[0].startswith("usage: sparsemh ")


# -------------------------------------------------------------------- version

def test_version(capsys):
    code, out, _ = run(capsys, "version")
    assert code == 0
    assert out.strip() == f"sparsemh {__version__}"
