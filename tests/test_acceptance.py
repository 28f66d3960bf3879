"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``. The Monte Carlo criteria
(5-9) run the studies at desk scale (20 repetitions of 10,000 datasets each,
seed 42) and take a couple of minutes in total.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from sparsemh import (
    IndicatorKind,
    SimulationDesign,
    StratumTable,
    VarianceMethod,
    bias_study,
    confidence_interval,
    convergence_study,
    coverage_study,
    estimate_indicator,
    mh_col_risk_ratio,
    mh_odds_ratio,
    mh_row_risk_ratio,
    mhq,
    stratum_ratios,
    stratum_weights,
    var_gr_log_mhcr,
    var_gr_log_mhrr,
    var_rbg_log_mhor,
    var_skm_log_mhq,
    var_skm_log_mhq_true,
    BinomialParams,
)
from sparsemh import simulation
from sparsemh.cli import main
from sparsemh.estimators import INDICATOR_FN, ratio_columns
from sparsemh.simulation import _draw_count_matrices_streamed, _ln_mhq_from_counts

from conftest import RATIO_COLUMN, katz_var_log_rr, make_dataset

PSIS = (0.2, 1.0, 10.0)


def desk_design(psi: float) -> SimulationDesign:
    return SimulationDesign(
        k=30,
        n_mentioned=100,
        n_not_mentioned=1000,
        psi=psi,
        p1_low=0.01,
        p1_high=0.2,
        datasets_per_rep=10_000,
        reps=20,
        seed=42,
    )


@pytest.fixture(scope="module")
def bias_summaries():
    return {psi: bias_study(desk_design(psi)) for psi in PSIS}


@pytest.fixture(scope="module")
def coverage_summaries():
    return {psi: coverage_study(desk_design(psi)) for psi in PSIS}


def report(number: int, name: str, ok: bool, detail: str) -> None:
    print(f"criterion {number} ({name}): {'PASS' if ok else 'FAIL'} -- {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


# -------------------------------------------------------------------------

def test_criterion_01_smallworld_reproduction(smallworld, smallworld_filtered):
    t0 = time.perf_counter()
    expected_ratios = [
        (1.36, 1.69, 2.68),
        (1.09, 1.14, 1.29),
        (0.85, 0.75, 0.69),
        (None, None, None),
    ]
    failures = []
    for label, row, expected in zip(smallworld.labels, smallworld.counts.tolist(), expected_ratios):
        table = StratumTable(label, *row)
        got = stratum_ratios(table)
        for name, want in zip(("row_rr", "col_rr", "odds_ratio"), expected):
            value = getattr(got, name)
            if want is None:
                if value is not None:
                    failures.append(f"{table.label}.{name} should be undefined")
            elif value is None or abs(value - want) > 0.005:
                failures.append(f"{table.label}.{name}={value} want {want}+-0.005")

    points = {
        "MHRR": (mh_row_risk_ratio(smallworld_filtered), 1.18, (0.91, 1.53)),
        "MHCR": (mh_col_risk_ratio(smallworld_filtered), 1.32, (0.85, 2.04)),
        "MHOR": (mh_odds_ratio(smallworld_filtered), 1.63, (0.78, 3.39)),
        "MHq": (mhq(smallworld_filtered), 1.30, (0.84, 2.00)),
    }
    variance_fns = {
        "MHRR": var_gr_log_mhrr,
        "MHCR": var_gr_log_mhcr,
        "MHOR": var_rbg_log_mhor,
        "MHq": var_skm_log_mhq,
    }
    for name, (value, want, (lo_want, hi_want)) in points.items():
        if abs(value - want) > 0.005:
            failures.append(f"{name}={value:.4f} want {want}+-0.005")
        lo, hi = confidence_interval(value, variance_fns[name](smallworld_filtered), 0.95)
        if abs(lo - lo_want) > 0.005:
            failures.append(f"{name} ci_low={lo:.4f} want {lo_want}+-0.005")
        if abs(hi - hi_want) > 0.005:
            failures.append(f"{name} ci_high={hi:.4f} want {hi_want}+-0.005")

    elapsed = time.perf_counter() - t0
    report(
        1,
        "small-world reproduction",
        not failures and elapsed < 1.0,
        failures[0] if failures else f"all ratios, points, and intervals within 0.005 ({elapsed * 1e3:.0f} ms)",
    )


def test_criterion_02_weight_reproduction(smallworld_filtered):
    wq = stratum_weights(smallworld_filtered, IndicatorKind.MHQ)
    wc = stratum_weights(smallworld_filtered, IndicatorKind.MHCR)
    failures = []
    for got, want, tag in (
        (wq, (0.414, 0.402, 0.184), "MHq"),
        (wc, (0.434, 0.411, 0.154), "MHCR"),
    ):
        for i, (g, w) in enumerate(zip(got, want)):
            if abs(g - w) > 0.0015:
                failures.append(f"{tag} weight {i + 1}: {g:.4f} want {w}+-0.0015")
    report(
        2,
        "weight reproduction",
        not failures,
        failures[0] if failures else f"MHq weights {[round(w, 3) for w in wq]}, MHCR weights {[round(w, 3) for w in wc]}",
    )


def test_criterion_03_single_stratum_reductions():
    t0 = time.perf_counter()
    rng = np.random.default_rng(314)
    worst = 0.0
    for _ in range(200):
        a, b, c, d = (int(x) for x in rng.integers(1, 60, size=4))
        table = StratumTable("t", a, b, c, d)
        ds = make_dataset((a, b, c, d))
        col_rr = stratum_ratios(table).col_rr
        katz = katz_var_log_rr(table, "column")
        bh = estimate_indicator(ds, IndicatorKind.MHQ, method=VarianceMethod.BH).log_variance
        pairs = (
            (mhq(ds), col_rr),
            (var_skm_log_mhq(ds), katz),
            (bh, katz + 2 / (a + c) + 2 / (b + d)),
        )
        for got, want in pairs:
            worst = max(worst, abs(got - want) / abs(want))
    elapsed = time.perf_counter() - t0
    report(
        3,
        "single-stratum reductions",
        worst <= 1e-12 and elapsed < 1.0,
        f"worst relative error {worst:.2e} over 200 tables ({elapsed * 1e3:.0f} ms)",
    )


def test_criterion_04_weighted_average_identity():
    rng = np.random.default_rng(159)
    worst = 0.0
    for _ in range(200):
        k = int(rng.integers(2, 9))
        ds = make_dataset(*(tuple(int(x) for x in rng.integers(1, 30, size=4)) for _ in range(k)))
        columns = ratio_columns(ds.counts)
        for kind in IndicatorKind:
            weights = stratum_weights(ds, kind)
            average = math.fsum(w * x for w, x in zip(weights, columns[RATIO_COLUMN[kind]]))
            direct = INDICATOR_FN[kind](ds)
            worst = max(worst, abs(direct - average) / abs(average))
    report(4, "weighted-average identity", worst <= 1e-10, f"worst relative error {worst:.2e} over 200 datasets")


def test_criterion_05_bias_study(bias_summaries):
    failures = []
    details = []
    for psi, summary in bias_summaries.items():
        skm = np.array([r.skm_bias for r in summary.records])
        bh = np.array([r.bh_bias for r in summary.records])
        bh_positive = float((bh > 0).mean())
        se = skm.std(ddof=1) / math.sqrt(skm.size)
        if bh_positive < 0.95:
            failures.append(f"psi={psi}: BH bias positive in only {bh_positive:.0%} of reps")
        if not abs(skm.mean()) < abs(bh.mean()) / 5:
            failures.append(f"psi={psi}: |mean skm|={abs(skm.mean()):.5f} not < |mean bh|/5={abs(bh.mean()) / 5:.5f}")
        if not abs(skm.mean()) <= 3 * se:
            failures.append(f"psi={psi}: mean skm bias {skm.mean():+.5f} outside 3 MC se ({se:.5f})")
        details.append(f"psi={psi}: skm {skm.mean():+.5f} (se {se:.5f}), bh {bh.mean():+.5f}, bh>0 {bh_positive:.0%}")
    report(5, "bias study", not failures, failures[0] if failures else "; ".join(details))


def test_criterion_06_coverage_study(coverage_summaries):
    failures = []
    details = []
    for psi, summary in coverage_summaries.items():
        skm = float(np.mean([r.skm_coverage for r in summary.records]))
        bh = float(np.mean([r.bh_coverage for r in summary.records]))
        if not 0.935 <= skm <= 0.965:
            failures.append(f"psi={psi}: SKM coverage {skm:.4f} outside [0.935, 0.965]")
        if bh < skm:
            failures.append(f"psi={psi}: BH coverage {bh:.4f} below SKM {skm:.4f}")
        details.append(f"psi={psi}: skm {skm:.4f}, bh {bh:.4f}")
    report(6, "coverage study", not failures, failures[0] if failures else "; ".join(details))


def test_criterion_07_width_comparison(coverage_summaries):
    targets = {0.2: 1.13, 1.0: 1.12, 10.0: 1.07}
    failures = []
    details = []
    for psi, summary in coverage_summaries.items():
        skm = float(np.mean([r.skm_mean_width for r in summary.records]))
        bh = float(np.mean([r.bh_mean_width for r in summary.records]))
        ratio = bh / skm
        if abs(ratio - targets[psi]) > 0.03:
            failures.append(f"psi={psi}: width ratio {ratio:.4f} not within 0.03 of {targets[psi]}")
        details.append(f"psi={psi}: bh/skm {ratio:.4f} (target {targets[psi]})")
    report(7, "width comparison", not failures, failures[0] if failures else "; ".join(details))


def test_criterion_08_convergence(monkeypatch):
    psi = 2.0
    design = SimulationDesign(k=4, n_mentioned=100, n_not_mentioned=1000, psi=psi, p1_low=0.2, p1_high=0.5, seed=4242)
    monkeypatch.setattr(simulation, "_rep_p1s", lambda design: np.array([0.2, 0.3, 0.4, 0.5]))
    records = convergence_study(design, scales=(1, 10, 100), replicates=1000).records
    failures = []
    for prev, curr in zip(records, records[1:]):
        slack = 2 * math.sqrt(prev.mc_se**2 + curr.mc_se**2)
        if curr.mean_abs_dev > prev.mean_abs_dev + slack:
            failures.append(
                f"mean |MHq-psi| rose from {prev.mean_abs_dev:.5f} (s={prev.scale}) "
                f"to {curr.mean_abs_dev:.5f} (s={curr.scale})"
            )
    final = records[-1]
    if not final.mean_abs_dev < 0.01 * psi:
        failures.append(f"s=100 mean |MHq-psi| {final.mean_abs_dev:.5f} not < {0.01 * psi}")
    ladder = ", ".join(f"s={r.scale}: {r.mean_abs_dev:.5f}" for r in records)
    report(8, "convergence ladder", not failures, failures[0] if failures else ladder)


def test_criterion_09_oracle_cross_check():
    p1s = np.linspace(0.02, 0.19, 30)
    failures = []
    details = []
    for psi in PSIS:
        design = SimulationDesign(
            k=30,
            n_mentioned=100,
            n_not_mentioned=1000,
            psi=psi,
            p1_low=0.02,
            p1_high=0.19,
            datasets_per_rep=100_000,
            reps=1,
            seed=24_601,
        )
        counts = _draw_count_matrices_streamed(p1s, p1s / psi, 100, 1000, design.datasets_per_rep, design.seed, 0)
        a, b = (x.T.astype(float) for x in counts)
        ln_mhq, _, dropped, _ = _ln_mhq_from_counts(a, b, design.n_mentioned, design.n_not_mentioned)
        mc_sd = float(ln_mhq.std(ddof=1))
        params = [BinomialParams(float(p), float(p / psi), 100, 1000) for p in p1s]
        formula_sd = math.sqrt(var_skm_log_mhq_true(params))
        rel = abs(formula_sd - mc_sd) / mc_sd
        if rel > 0.10:
            failures.append(f"psi={psi}: formula sd {formula_sd:.5f} vs MC sd {mc_sd:.5f} ({rel:.1%})")
        details.append(f"psi={psi}: {rel:.2%} (dropped {dropped})")
    report(9, "parameter-form oracle cross-check", not failures, failures[0] if failures else "; ".join(details))


def test_criterion_10_cli_determinism(tmp_path, capsys):
    base = [
        "simulate", "bias",
        "--k", "10", "--n-mentioned", "60", "--n-not-mentioned", "500",
        "--psi", "1", "--reps", "5", "--datasets", "2000", "--seed", "7",
    ]
    assert main(base + ["--threads", "1", "--out", str(tmp_path / "t1")]) == 0
    assert main(base + ["--threads", "3", "--out", str(tmp_path / "t3")]) == 0
    cov = [
        "simulate", "coverage",
        "--k", "8", "--n-mentioned", "50", "--n-not-mentioned", "400",
        "--reps", "4", "--datasets", "1500", "--seed", "11",
    ]
    assert main(cov + ["--threads", "1", "--out", str(tmp_path / "c1")]) == 0
    assert main(cov + ["--threads", "2", "--out", str(tmp_path / "c2")]) == 0
    capsys.readouterr()

    bias_same = (tmp_path / "t1.csv").read_bytes() == (tmp_path / "t3.csv").read_bytes()
    cov_same = (tmp_path / "c1.csv").read_bytes() == (tmp_path / "c2.csv").read_bytes()
    json_same = (tmp_path / "t1.json").read_bytes() == (tmp_path / "t3.json").read_bytes()
    report(
        10,
        "thread-count determinism",
        bias_same and cov_same and json_same,
        "bias and coverage CSV/JSON byte-identical for differing --threads",
    )
