from __future__ import annotations

import json
from pathlib import Path

from sparsemh import __version__
from sparsemh.cli import main
from sparsemh.datasets import smallworld_path

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


def test_analyze_bh_method_is_opt_in_and_annotated(capsys, tmp_path):
    path = str(write_smallworld(tmp_path))
    _, default_out, _ = run(capsys, "analyze", path, "--format", "json")
    kinds = [(i["kind"], i["method"]) for i in json.loads(default_out)["indicators"]]
    assert ("MHq", "BH") not in kinds

    code, out, _ = run(capsys, "analyze", path, "--methods", "skm,bh", "--format", "json")
    assert code == 0
    bh_rows = [i for i in json.loads(out)["indicators"] if i["method"] == "BH"]
    assert len(bh_rows) == 1
    assert bh_rows[0]["deprecated"] == "overestimates variance"

    _, text_out, _ = run(capsys, "analyze", path, "--methods", "skm,bh")
    assert "deprecated: overestimates variance" in text_out


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


def test_analyze_missing_file_exit_code(capsys, tmp_path):
    code, _, err = run(capsys, "analyze", str(tmp_path / "nope.csv"))
    assert code == 5
    assert "error" in err


def test_analyze_invalid_flag_values(capsys, tmp_path):
    path = str(write_smallworld(tmp_path))
    code, _, err = run(capsys, "analyze", path, "--methods", "bayes")
    assert code == 4 and "bayes" in err
    code, _, err = run(capsys, "analyze", path, "--level", "1.5")
    assert code == 4 and "level" in err


# ------------------------------------------------------------------ simulate

def simulate_args(study: str, out: Path, *extra: str) -> list[str]:
    return [
        "simulate", study,
        "--k", "5", "--n-mentioned", "40", "--n-not-mentioned", "300",
        "--datasets", "300", "--reps", "2", "--seed", "7",
        "--out", str(out), *extra,
    ]


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


def test_simulate_invalid_design_exit_code(capsys, tmp_path):
    code, _, err = run(
        capsys, "simulate", "bias", "--psi", "0.15", "--p1-high", "0.2", "--out", str(tmp_path / "x")
    )
    assert code == 4
    assert "p1_high" in err or "p2" in err


def test_simulate_threads_env_default(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("SPARSEMH_THREADS", "2")
    code, _, _ = run(capsys, *simulate_args("bias", tmp_path / "env"))
    assert code == 0
    monkeypatch.setenv("SPARSEMH_THREADS", "1")
    code, _, _ = run(capsys, *simulate_args("bias", tmp_path / "env1"))
    assert code == 0
    assert (tmp_path / "env.csv").read_bytes() == (tmp_path / "env1.csv").read_bytes()


# -------------------------------------------------------------------- version

def test_version(capsys):
    code, out, _ = run(capsys, "version")
    assert code == 0
    assert out.strip() == f"sparsemh {__version__}"
