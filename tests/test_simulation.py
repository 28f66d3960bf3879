from __future__ import annotations

import json
import math
from dataclasses import astuple
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from statistics import NormalDist

import numpy as np
import pytest

from sparsemh import (
    BinomialParams,
    ExcessiveDropError,
    InvalidDesignError,
    SimulationDesign,
    StratifiedDataset,
    StratumTable,
    bias_study,
    convergence_check,
    convergence_study,
    coverage_study,
    draw_p1,
    mhq,
    var_bh_log_mhq,
    var_skm_log_mhq,
    var_skm_log_mhq_true,
)
from sparsemh import simulation
from sparsemh.simulation import (
    LOOKUP_CELLS_PER_POINT,
    CoverageRecord,
    _bias_rep,
    _coverage_blocks,
    _coverage_rep,
    _draw_count_matrices_streamed,
    _gathered,
    _ln_mhq_from_counts,
    _rep_counts,
    _rep_p1s,
    _term_table,
    worker_count,
)

from conftest import inversion_edge_ps


def allow_cpus(monkeypatch, cpus: int) -> None:
    """Make ``cpus`` CPUs usable, by affinity set and by CPU count alike."""
    monkeypatch.setattr(simulation.os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    monkeypatch.setattr(simulation.os, "cpu_count", lambda: cpus)


def small_design(**overrides) -> SimulationDesign:
    base = dict(
        k=6,
        n_mentioned=50,
        n_not_mentioned=400,
        psi=1.0,
        p1_low=0.05,
        p1_high=0.2,
        datasets_per_rep=400,
        reps=3,
        seed=9,
    )
    base.update(overrides)
    return SimulationDesign(**base)


def streamed_counts(design: SimulationDesign, p1s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Repetition 0's stratum-major counts of ``design`` at the given p1 vector."""
    n1, n2, count = design.n_mentioned, design.n_not_mentioned, design.datasets_per_rep
    return _draw_count_matrices_streamed(p1s, p1s / design.psi, n1, n2, count, design.seed, 0)


# -------------------------------------------------------------------- design

def test_design_rejects_p2_above_one():
    with pytest.raises(InvalidDesignError, match="exceed 1"):
        SimulationDesign(psi=0.15, p1_high=0.2)


def test_design_rejects_bad_parameters():
    with pytest.raises(InvalidDesignError, match="k"):
        SimulationDesign(k=0)
    for psi in (0.0, math.inf, math.nan):
        with pytest.raises(InvalidDesignError, match="psi must be positive and finite"):
            SimulationDesign(psi=psi)
    with pytest.raises(InvalidDesignError, match="p1_low"):
        SimulationDesign(p1_low=0.3, p1_high=0.2)
    with pytest.raises(InvalidDesignError, match="seed"):
        SimulationDesign(seed=-1)
    # float64 holds counts exactly only up to 2**53
    with pytest.raises(InvalidDesignError, match=r"^n_mentioned must be at most 2\*\*53"):
        SimulationDesign(n_mentioned=2**53 + 1)
    with pytest.raises(InvalidDesignError, match=r"^n_not_mentioned must be at most 2\*\*53"):
        SimulationDesign(n_not_mentioned=10**19)
    assert SimulationDesign(n_mentioned=2**53, n_not_mentioned=2**53).n_mentioned == 2**53
    # p2 = p1/psi underflows to 0 at the least p1 the design can draw
    for p1_high in (5e-324, 0.5):
        with pytest.raises(InvalidDesignError, match="p2"):
            SimulationDesign(p1_low=5e-324, p1_high=p1_high, psi=2)


def test_design_stores_its_real_fields_as_floats():
    # the library writes the bytes the CLI, whose flags parse to float, writes
    design = dict(k=3, datasets_per_rep=50, reps=1)
    want = coverage_study(SimulationDesign(**design, psi=2.0))
    ladder = ((0.2, 0.3), 10, 20, (1, 2), 1)
    want_ladder = convergence_check(2.0, *ladder, replicates=50)
    for psi in (np.float64(2.0), 2):
        got = coverage_study(SimulationDesign(**design, psi=psi))
        assert type(got.design.psi) is float
        assert (got.to_csv(), got.to_json()) == (want.to_csv(), want.to_json())
        assert convergence_check(psi, *ladder, replicates=50) == want_ladder
    p1s = SimulationDesign(p1_low=np.float64(0.25), p1_high=1)
    assert (type(p1s.p1_low), type(p1s.p1_high)) == (float, float)


@pytest.mark.parametrize("field", ["psi", "p1_low", "p1_high"])
@pytest.mark.parametrize("value", [True, Fraction(1, 2), Decimal("0.5"), "0.5", None, np.int64(1), np.float32(0.5)])
def test_design_rejects_real_fields_that_are_not_int_or_float(field, value):
    with pytest.raises(InvalidDesignError, match=f"^{field} must be a real number, got "):
        SimulationDesign(**{field: value})


@pytest.mark.parametrize("field", ["psi", "p1_low", "p1_high"])
def test_design_rejects_an_int_beyond_the_float_range(field):
    with pytest.raises(InvalidDesignError, match=f"^{field} must be finite, got 1000"):
        SimulationDesign(**{field: 10**400})


def test_design_allows_degenerate_p1_interval():
    design = SimulationDesign(p1_low=0.1, p1_high=0.1)
    assert design.p1_low == design.p1_high == 0.1


# ------------------------------------------------------------------ sampling

def test_draw_p1_within_bounds_and_deterministic():
    design = small_design()
    draws = draw_p1(design, np.random.default_rng(3))
    again = draw_p1(design, np.random.default_rng(3))
    assert draws.shape == (design.k,)
    assert np.all(draws >= design.p1_low) and np.all(draws <= design.p1_high)
    assert np.array_equal(draws, again)


def test_draw_p1_degenerate_interval():
    design = small_design(p1_low=0.1, p1_high=0.1)
    assert np.all(draw_p1(design, np.random.default_rng(0)) == 0.1)


def test_streamed_draws_fix_column_totals():
    design = small_design()
    _, a, b = _rep_counts(design, 0)
    # stratum-major, in the smallest unsigned type that holds both column totals
    assert a.shape == b.shape == (design.k, design.datasets_per_rep)
    assert a.dtype == b.dtype == np.uint16
    assert np.array_equal(a, np.round(a)) and np.array_equal(b, np.round(b))
    assert a.min() >= 0 and a.max() <= design.n_mentioned
    assert b.min() >= 0 and b.max() <= design.n_not_mentioned
    # c = n1 - a and d = n2 - b complete the columns exactly, which is what
    # lets the coverage kernels take the column totals as scalars
    assert np.all(a + (design.n_mentioned - a) == design.n_mentioned)
    assert np.all(b + (design.n_not_mentioned - b) == design.n_not_mentioned)


def test_streamed_draws_degenerate_probability():
    design = small_design(p1_low=1.0, p1_high=1.0, psi=1.0)
    a, b = streamed_counts(design, np.ones(design.k))
    assert np.all(a == design.n_mentioned)
    assert np.all(b == design.n_not_mentioned)


def test_streamed_draws_reject_invalid_p2_before_sampling(monkeypatch):
    def no_sampling(*args, **kwargs):
        raise AssertionError("counts were drawn before the p1 vector was validated")

    monkeypatch.setattr(simulation, "_draw_count_matrices_streamed", no_sampling)
    # a design checks its p1 range against psi when it is built, before any rep draws
    with pytest.raises(InvalidDesignError, match="p1"):
        small_design(p1_high=1.5)
    with pytest.raises(InvalidDesignError, match="p2"):
        small_design(psi=0.5, p1_low=0.01, p1_high=0.9)
    # convergence_check checks the p1 vector it is handed the same way
    bad = [
        ((1.0, (0.1, 1.5)), "p1"),
        ((0.5, (0.1, 0.9)), "p2"),
        ((2.0, (5e-324, 0.5)), "p2"),
        ((1.0, ()), r"expected a non-empty vector of p1 values"),
        ((1.0, np.full((2, 2), 0.1)), r"expected a non-empty vector of p1 values"),
    ]
    for (psi, p1s), message in bad:
        with pytest.raises(InvalidDesignError, match=message):
            convergence_check(psi, p1s, 10, 10, (1,), 1, replicates=2)


class CountingGenerator:
    """A Generator's draws, counting its ``random`` and ``binomial`` calls."""

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        self.bit_generator = self.rng.bit_generator
        self.random_calls = self.binomial_calls = 0

    def random(self, size):
        self.random_calls += 1
        return self.rng.random(size)

    def binomial(self, n, p, size):
        self.binomial_calls += 1
        return self.rng.binomial(n, p, size=size)


def assert_draws_like_numpy(n: int, p: float, count: int, seed: int) -> CountingGenerator:
    """Assert that _binomial gives rng.binomial's integers and stream position; return the generator it used."""
    got_rng, want_rng = CountingGenerator(seed), np.random.default_rng(seed)
    got = simulation._binomial(got_rng, n, p, count)
    want = want_rng.binomial(n, p, size=count)
    assert got.dtype == want.dtype and np.array_equal(got, want), (n, p, count)
    assert got_rng.rng.random() == want_rng.random(), (n, p, count)
    return got_rng


EDGE_NS = [1, 2, 7, 59, 60, 61, 100, 120, 1000, 3000, 2**40]


@pytest.mark.parametrize("n", EDGE_NS)
def test_binomial_draws_equal_numpy_at_the_inversion_edges(n):
    for p in inversion_edge_ps(n) + [5e-324, 1e-300, 0.5]:
        for count in (0, 1, 500):
            assert_draws_like_numpy(n, p, count, seed=n + count)


@pytest.mark.parametrize("n", EDGE_NS)
def test_binomial_redraws_every_column_it_cannot_decide(monkeypatch, n):
    # a tolerance of 1.0 leaves no uniform far enough from the thresholds,
    # so every inversion column is rewound and drawn by numpy
    monkeypatch.setattr(simulation, "INVERSION_TOLERANCE", 1.0)
    for p in inversion_edge_ps(n) + [1e-300, 0.5]:
        small = p if p <= 0.5 else 1.0 - p
        inversion = 0.0 < small and small * n <= 30.0
        rng = assert_draws_like_numpy(n, p, 500, seed=n)
        assert (rng.random_calls, rng.binomial_calls) == (int(inversion), 1), (n, p)


def test_binomial_lookup_decides_desk_design_columns_without_numpy():
    design = SimulationDesign()
    for seed, p in enumerate(np.linspace(design.p1_low, design.p1_high, 8).tolist()):
        for n in (design.n_mentioned, design.n_not_mentioned):
            rng = assert_draws_like_numpy(n, p, 10_000, seed)
            assert rng.binomial_calls == (n * p > 30.0), (n, p)


def test_binomial_redraws_exactly_the_columns_with_a_uniform_near_a_threshold(monkeypatch):
    tolerance = 0.01  # wide enough that a few of the columns below come near
    monkeypatch.setattr(simulation, "INVERSION_TOLERANCE", tolerance - 100 * 2.0**-52)
    n, p, count = 100, 0.1, 5
    thresholds = simulation._inversion_thresholds(n, p)[1:]
    seen = set()
    for seed in range(60):
        u = np.random.default_rng(seed).random(count)
        assert u.max() <= thresholds[-1] - tolerance  # so no walk restarts
        gap = u[:, None] - thresholds
        near_below = bool(((gap < 0) & (gap > -tolerance)).any())  # u just under a threshold
        near_above = bool(((gap > 0) & (gap < tolerance)).any())  # u just over one
        rng = assert_draws_like_numpy(n, p, count, seed)
        assert rng.binomial_calls == (near_below or near_above), seed
        seen.add((near_below, near_above))
    assert seen >= {(False, False), (True, False), (False, True)}


def test_binomial_redraws_a_column_whose_uniforms_pass_the_last_threshold(monkeypatch):
    # numpy restarts its walk, with a fresh uniform, for a uniform past
    # P(X <= bound); cut the thresholds short so that most uniforms are
    thresholds = simulation._inversion_thresholds
    monkeypatch.setattr(simulation, "_inversion_thresholds", lambda n, p: thresholds(n, p)[:3])
    rng = assert_draws_like_numpy(100, 0.1, 500, seed=4)
    assert (rng.random_calls, rng.binomial_calls) == (1, 1)


def test_binomial_draws_equal_numpy_for_a_huge_column_with_a_tiny_p():
    # (1 - p)^n at n = 2**40 and p = 3.3e-12 differs by 3e-5 relative between
    # exp(n*log1p(-p)) and exp(n*log(1 - p)). Were the tolerance too narrow
    # for that, the lookup would differ from numpy in a few draws of most of
    # these columns, unless a uniform past the last threshold sent it back.
    for seed in range(8):
        assert_draws_like_numpy(2**40, 3.3e-12, 10_000, seed)


def test_generated_group_share_tracks_p1():
    # law of large numbers: the mean share of mentioned articles in the group
    # approaches the mean drawn p1 within Monte Carlo error
    design = small_design(k=30, n_mentioned=100, n_not_mentioned=1000, datasets_per_rep=10_000, seed=2)
    p1s, a, b = _rep_counts(design, 0)
    shares = a / design.n_mentioned
    se = shares.std(ddof=1) / math.sqrt(shares.size)
    assert abs(shares.mean() - p1s.mean()) < 3 * se + 1e-9


def test_ground_truth_sd_needs_two_defined_replicates():
    design = small_design(datasets_per_rep=1)
    with pytest.raises(ExcessiveDropError, match="fewer than 2"):
        _bias_rep(design, 0)


# ---------------------------------------------------------------- ground truth
# The ground-truth SD of ln(MHq) is BiasRecord.true_sd, measured by _bias_rep.

def streamed_sd(design: SimulationDesign, p1s: np.ndarray) -> float:
    """Sample SD of ln(MHq) over one repetition's streamed draws at the given p1 vector."""
    a, b = streamed_counts(design, p1s)
    ln_mhq = _ln_mhq_from_counts(a.T.astype(float), b.T.astype(float), design.n_mentioned, design.n_not_mentioned)[0]
    return float(ln_mhq.std(ddof=1))


def test_ground_truth_sd_zero_for_degenerate_draws():
    design = small_design(p1_low=1.0, p1_high=1.0, datasets_per_rep=2)
    record, dropped = _bias_rep(design, 0)
    assert record.true_sd == 0.0
    assert dropped == 0


def test_ground_truth_sd_matches_parameter_formula():
    design = small_design(k=10, n_mentioned=100, n_not_mentioned=1000, datasets_per_rep=20_000, seed=5)
    record, _ = _bias_rep(design, 0)
    params = [BinomialParams(float(p), float(p), 100, 1000) for p in _rep_p1s(design, 0)]
    assert record.skm_sd == math.sqrt(var_skm_log_mhq_true(params))
    assert record.true_sd == pytest.approx(record.skm_sd, rel=0.1)


def test_ground_truth_sd_scales_with_sample_size():
    p1s = np.linspace(0.05, 0.2, 6)
    small = small_design(datasets_per_rep=4000, seed=21)
    large = small_design(
        n_mentioned=2 * small.n_mentioned,
        n_not_mentioned=2 * small.n_not_mentioned,
        datasets_per_rep=4000,
        seed=22,
    )
    ratio = streamed_sd(large, p1s) / streamed_sd(small, p1s)
    assert ratio == pytest.approx(1 / math.sqrt(2), rel=0.1)


def test_excessive_drops_abort():
    design = small_design(k=1, n_mentioned=1, n_not_mentioned=1, p1_low=0.01, p1_high=0.01, datasets_per_rep=200)
    with pytest.raises(ExcessiveDropError):
        _bias_rep(design, 0)


# ----------------------------------------------------------- batched kernels

def test_batched_kernels_match_scalar_functions():
    # the vectorized kernels used by the studies must agree with the
    # dataset-level estimators on the same counts; 4,000 datasets have
    # enough cells per point of their counts' range that the coverage terms
    # are looked up
    design = small_design(datasets_per_rep=4000, seed=33)
    _, *counts = _rep_counts(design, 0)
    n1, n2 = float(design.n_mentioned), float(design.n_not_mentioned)
    assert _term_table(*counts, n1, n2, counts[0].size // LOOKUP_CELLS_PER_POINT) is not None
    ln_mhq, skm, bh, drops = zip(*_coverage_blocks(*counts, n1, n2))
    assert sum(drops) == 0
    ln_mhq, skm, bh = (np.concatenate(x) for x in (ln_mhq, skm, bh))
    a, b = (x.T.astype(float) for x in counts)
    c = n1 - a
    d = n2 - b
    labels = [f"stratum{i + 1}" for i in range(design.k)]
    for row in range(0, 50, 7):
        ds = StratifiedDataset(
            tuple(
                StratumTable(labels[i], int(a[row, i]), int(b[row, i]), int(c[row, i]), int(d[row, i]))
                for i in range(design.k)
            )
        )
        # mhq adds its terms with math.fsum, the batch with numpy's pairwise sum
        assert ln_mhq[row] == pytest.approx(math.log(mhq(ds)), rel=1e-12)
        # the variances are the same terms and combine steps on the same operands
        assert skm[row] == var_skm_log_mhq(ds)
        assert bh[row] == var_bh_log_mhq(ds)


def test_exact_coverage_of_the_readme_design_is_the_quoted_0_958():
    # README's design k = 2, n = (4, 20), p1 = (0.3, 0.5), psi = 2: all
    # 105**2 datasets through the coverage study's term lookup, each weighted
    # by its exact binomial probability
    n1, n2, psi, p1s = 4, 20, 2.0, (0.3, 0.5)

    def pmf(n, p, x):
        return math.comb(n, x) * p**x * (1.0 - p) ** (n - x)

    pairs = [(x, y) for x in range(n1 + 1) for y in range(n2 + 1)]
    datasets = [(first, second) for first in pairs for second in pairs]
    a = np.array([[tables[i][0] for tables in datasets] for i in range(2)], dtype=np.uint8)
    b = np.array([[tables[i][1] for tables in datasets] for i in range(2)], dtype=np.uint8)
    weight = np.array([
        math.prod(pmf(n1, p1, x) * pmf(n2, p1 / psi, y) for p1, (x, y) in zip(p1s, tables)) for tables in datasets
    ])
    assert a.shape == (2, 11_025) and math.fsum(weight) == pytest.approx(1.0, abs=1e-12)
    assert _term_table(a, b, float(n1), float(n2), a.size // LOOKUP_CELLS_PER_POINT) is not None
    *arrays, drops = zip(*_coverage_blocks(a, b, float(n1), float(n2)))
    ln_mhq, skm, bh = map(np.concatenate, arrays)
    defined = (a.sum(axis=0) > 0) & (b.sum(axis=0) > 0)  # some a and some b: R and S both positive
    assert sum(drops) == int((~defined).sum()) and ln_mhq.size == int(defined.sum())
    z = NormalDist().inv_cdf(0.975)

    def coverage(log_variance):
        half = z * np.sqrt(log_variance)
        covered = (ln_mhq - half <= math.log(psi)) & (math.log(psi) <= ln_mhq + half)
        return math.fsum(weight[defined][covered]) / math.fsum(weight[defined])

    skm_coverage, bh_coverage = coverage(skm), coverage(bh)
    assert round(skm_coverage, 3) == 0.958
    assert bh_coverage > skm_coverage  # BH overestimates the variance
    readme = " ".join((Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8").split())
    notes = readme[readme.index("## Notes and limitations"):]
    assert f"psi = 2, the SKM interval covered {skm_coverage:.3f}," in notes


# -------------------------------------------------------------------- studies

def test_bias_study_records_and_determinism():
    design = small_design()
    summary = bias_study(design)
    assert summary.study == "bias"
    assert len(summary.records) == design.reps
    for rep, record in enumerate(summary.records):
        assert record.rep == rep
        assert record.true_sd > 0
        assert record.skm_bias == pytest.approx(record.skm_sd - record.true_sd, abs=1e-15)
        assert record.bh_bias == pytest.approx(record.bh_sd - record.true_sd, abs=1e-15)
        assert record.bh_sd > record.skm_sd
    again = bias_study(design)
    assert summary == again


def test_bias_study_single_rep():
    summary = bias_study(small_design(reps=1))
    assert len(summary.records) == 1


def test_bias_study_threads_do_not_change_results():
    design = small_design()
    serial = bias_study(design, threads=1)
    parallel = bias_study(design, threads=2)
    assert serial == parallel
    assert serial.to_csv() == parallel.to_csv()
    assert serial.to_json() == parallel.to_json()


@pytest.mark.parametrize(
    ("threads", "reps", "cpus", "expected"),
    [
        (2, 4, 8, 2),        # the requested count when reps and CPUs allow it
        (10_000, 4, 8, 4),   # never more workers than repetitions
        (10_000, 50, 2, 2),  # nor more than CPUs
        (3, 1, 8, 1),
        (0, 4, 8, 1),
        (4, 4, None, 1),     # CPU count unknown
    ],
)
def test_worker_count_clamps_to_reps_and_cpus(monkeypatch, threads, reps, cpus, expected):
    if cpus is None:
        # no affinity set to read either
        monkeypatch.delattr(simulation.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(simulation.os, "cpu_count", lambda: None)
    else:
        allow_cpus(monkeypatch, cpus)
    assert worker_count(threads, reps) == expected


def test_worker_count_counts_only_the_cpus_this_process_may_use(monkeypatch):
    # as under `taskset -c 0` on a 2-CPU machine
    monkeypatch.setattr(simulation.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(simulation.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert worker_count(4, 4) == 1

    def no_pool(max_workers):
        raise AssertionError(f"started {max_workers} threads for one usable CPU")

    monkeypatch.setattr(simulation, "ThreadPoolExecutor", no_pool)
    design = small_design(reps=2, datasets_per_rep=200)
    assert bias_study(design, threads=4) == bias_study(design, threads=1)


def test_worker_count_falls_back_to_the_cpu_count_without_an_affinity_set(monkeypatch):
    monkeypatch.delattr(simulation.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(simulation.os, "cpu_count", lambda: 3)
    assert worker_count(10, 10) == 3


def test_run_reps_starts_the_clamped_pool(monkeypatch):
    started = []

    class SerialPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(simulation, "ThreadPoolExecutor", SerialPool)
    allow_cpus(monkeypatch, 64)
    design = small_design(reps=3, datasets_per_rep=200)
    assert bias_study(design, threads=10_000) == bias_study(design, threads=1)
    assert started == [3]


@pytest.mark.parametrize("threads", [0, -1, 2.5, True, np.int64(2), "2", None])
def test_every_study_rejects_a_thread_count_that_is_not_a_positive_int(threads):
    design = small_design(reps=2, datasets_per_rep=50)
    runs = (
        lambda: bias_study(design, threads=threads),
        lambda: coverage_study(design, threads=threads),
        lambda: convergence_study(design, scales=(1, 2), replicates=50, threads=threads),
        lambda: convergence_check(1.0, (0.1, 0.2), 10, 20, (1, 2), 1, replicates=50, threads=threads),
    )
    for run in runs:
        with pytest.raises(InvalidDesignError, match="^threads must be a positive integer, got "):
            run()


def test_coverage_study_records():
    design = small_design(datasets_per_rep=600)
    summary = coverage_study(design)
    assert summary.study == "coverage"
    assert len(summary.records) == design.reps
    for record in summary.records:
        assert 0.0 <= record.skm_coverage <= 1.0
        assert 0.0 <= record.bh_coverage <= 1.0
        assert record.bh_mean_width > record.skm_mean_width > 0.0
        assert record.psi == design.psi
        assert record.dropped == 0
    parallel = coverage_study(design, threads=2)
    assert parallel == summary


@pytest.mark.parametrize(
    "design, lookup",
    [
        (SimulationDesign(psi=0.2, reps=1), True),
        # counts spread wider than the repetition's 150 cells: data-form kernels
        (small_design(k=3, n_mentioned=100_000, n_not_mentioned=1_000_000, datasets_per_rep=50, reps=1), False),
    ],
)
def test_coverage_record_is_the_interval_formula_on_each_variance(design, lookup):
    _, a, b = _rep_counts(design, 0)
    n1, n2 = float(design.n_mentioned), float(design.n_not_mentioned)
    assert (_term_table(a, b, n1, n2, a.size // LOOKUP_CELLS_PER_POINT) is not None) is lookup
    (ln_mhq, skm_var, bh_var), dropped = _gathered(_coverage_blocks(a, b, n1, n2), design.datasets_per_rep)
    z = NormalDist().inv_cdf(0.975)
    log_psi = math.log(design.psi)

    def interval(log_variance):
        lo, hi = ln_mhq - z * np.sqrt(log_variance), ln_mhq + z * np.sqrt(log_variance)
        return float(((lo <= log_psi) & (log_psi <= hi)).mean()), float((np.exp(hi) - np.exp(lo)).mean())

    skm_coverage, skm_width = interval(skm_var)
    bh_coverage, bh_width = interval(bh_var)
    assert bh_width > skm_width  # a swap of the two variances cannot pass
    expected = CoverageRecord(
        setting=0,
        psi=design.psi,
        skm_coverage=skm_coverage,
        bh_coverage=bh_coverage,
        skm_mean_width=skm_width,
        bh_mean_width=bh_width,
        dropped=dropped,
    )
    record, record_dropped = _coverage_rep(design, 0)
    assert [float(x).hex() for x in astuple(record)] == [float(x).hex() for x in astuple(expected)]
    assert record_dropped == dropped


def test_csv_headers_are_pinned():
    design = small_design(reps=2, datasets_per_rep=200)
    bias_csv = bias_study(design).to_csv()
    assert bias_csv.splitlines()[0] == "rep,true_sd,skm_sd,bh_sd,skm_bias,bh_bias"
    cov_csv = coverage_study(design).to_csv()
    assert (
        cov_csv.splitlines()[0]
        == "setting,psi,skm_coverage,bh_coverage,skm_mean_width,bh_mean_width,dropped"
    )
    assert len(cov_csv.splitlines()) == design.reps + 1


def test_summary_json_metadata():
    design = small_design(reps=2, datasets_per_rep=200)
    payload = json.loads(bias_study(design).to_json())
    assert payload["design"]["seed"] == design.seed
    assert payload["design"]["psi"] == design.psi
    assert payload["rng"]["algorithm"] == "PCG64"
    assert "SeedSequence((seed, r, i))" in payload["rng"]["streams"]
    assert payload["rng"]["numpy"] == np.__version__
    assert payload["dropped_total"] == 0
    assert len(payload["records"]) == 2


def test_summary_write_creates_csv_and_json(tmp_path):
    design = small_design(reps=2, datasets_per_rep=150)
    summary = coverage_study(design, study="width")
    csv_path, json_path = summary.write(tmp_path / "out" / "study")
    assert csv_path.read_text().startswith("setting,psi,")
    assert json.loads(json_path.read_text())["study"] == "width"


def test_coverage_study_rejects_unknown_label():
    with pytest.raises(ValueError, match="study"):
        coverage_study(small_design(), study="bias")


# ---------------------------------------------------------------- convergence

def test_convergence_check_improves_with_scale():
    records = convergence_check(
        psi=2.0,
        p1s=(0.2, 0.3, 0.4, 0.5),
        n_mentioned=100,
        n_not_mentioned=1000,
        scales=(1, 25),
        seed=12,
        replicates=600,
    )
    assert [r.scale for r in records] == [1, 25]
    assert records[1].mean_abs_dev < records[0].mean_abs_dev
    assert all(r.replicates == 600 for r in records)
    assert all(r.mc_se > 0 for r in records)


def test_convergence_check_centers_on_psi():
    records = convergence_check(
        psi=1.0,
        p1s=(0.1, 0.1, 0.1, 0.1),
        n_mentioned=1000,
        n_not_mentioned=10_000,
        scales=(10,),
        seed=4,
        replicates=500,
    )
    assert records[0].mean_abs_dev < 0.05


def test_convergence_json_describes_the_run():
    design = small_design(k=4, psi=2.0, p1_low=0.2, p1_high=0.5, seed=3)
    summary = convergence_study(design, scales=(1, 5), replicates=200)
    payload = json.loads(summary.to_json())
    assert payload["study"] == "convergence"
    assert list(payload["design"]) == [
        "k", "n_mentioned", "n_not_mentioned", "psi", "p1_low", "p1_high", "seed", "scales", "replicates"
    ]
    assert payload["design"]["scales"] == [1, 5]
    assert payload["design"]["replicates"] == 200
    assert payload["rng"]["streams"] == simulation.CONVERGENCE_STREAM_DERIVATION
    assert payload["rng"]["numpy"] == np.__version__
    assert "SeedSequence((seed,))" in payload["rng"]["streams"]
    assert "SeedSequence((seed, s, i))" in payload["rng"]["streams"]
    assert payload["dropped_total"] == 0
    assert [r["scale"] for r in payload["records"]] == [1, 5]
    # the stated derivation reproduces the records: p1 from (seed,), counts per (scale, stratum)
    rng = np.random.default_rng(np.random.SeedSequence((design.seed,)))
    p1s = rng.uniform(design.p1_low, design.p1_high, size=design.k)
    again = convergence_check(design.psi, p1s, design.n_mentioned, design.n_not_mentioned, (1, 5), design.seed, 200)
    assert again == summary.records


def test_documented_streams_rebuild_a_bias_repetition_and_a_convergence_scale():
    # numpy and the stream derivation the JSON states, nothing else of the simulation
    def mhq_totals(seed, first, p1s, psi, n1, n2, count):
        """MHq's numerator and denominator totals of each dataset drawn on SeedSequence((seed, first, i))."""
        a, b = np.empty((count, len(p1s))), np.empty((count, len(p1s)))
        for i, p1 in enumerate(p1s):
            rng = np.random.default_rng(np.random.SeedSequence((seed, first, i)))
            a[:, i] = rng.binomial(n1, p1, size=count)
            b[:, i] = rng.binomial(n2, p1 / psi, size=count)
        m = a + b + float(n1 + n2)
        rt, st = (a * n2 / m).sum(axis=-1), (b * n1 / m).sum(axis=-1)
        defined = (rt > 0.0) & (st > 0.0)
        return rt[defined], st[defined]

    design = small_design(psi=2.0, reps=3, datasets_per_rep=500, seed=31)
    n1, n2 = design.n_mentioned, design.n_not_mentioned
    rep = 2
    p1s = np.random.default_rng(np.random.SeedSequence((design.seed, rep))).uniform(
        design.p1_low, design.p1_high, size=design.k
    )
    rt, st = mhq_totals(design.seed, rep, p1s, design.psi, n1, n2, design.datasets_per_rep)
    assert bias_study(design).records[rep].true_sd == float(np.log(rt / st).std(ddof=1))

    scale, replicates = 3, 400
    p1s = np.random.default_rng(np.random.SeedSequence((design.seed,))).uniform(
        design.p1_low, design.p1_high, size=design.k
    )
    rt, st = mhq_totals(design.seed, scale, p1s, design.psi, n1 * scale, n2 * scale, replicates)
    deviations = np.abs(rt / st - design.psi)
    want = simulation.ConvergenceRecord(
        scale=scale,
        mean_abs_dev=float(deviations.mean()),
        mc_se=float(deviations.std(ddof=1) / math.sqrt(deviations.size)),
        replicates=deviations.size,
    )
    assert convergence_study(design, scales=(1, scale), replicates=replicates).records[1] == want


def test_convergence_study_writes_the_same_bytes_for_any_thread_count(monkeypatch):
    allow_cpus(monkeypatch, 4)
    design = small_design(k=4, psi=2.0, p1_low=0.2, p1_high=0.5, seed=3)
    serial = convergence_study(design, scales=(1, 5, 2), replicates=300)
    for threads in (2, 3):
        pooled = convergence_study(design, scales=(1, 5, 2), replicates=300, threads=threads)
        assert (pooled.to_csv(), pooled.to_json()) == (serial.to_csv(), serial.to_json())
    # a scale's record depends on the seed and that scale alone
    assert convergence_study(design, scales=(5,), replicates=300).records == serial.records[1:2]


def test_convergence_check_validation():
    for psi in (0.0, math.inf):
        with pytest.raises(InvalidDesignError, match="psi must be positive and finite"):
            convergence_check(psi, (0.1,), 10, 10, (1,), 0)
    # p2 = p1/psi underflows to 0, which no binomial draw can use
    with pytest.raises(InvalidDesignError, match="p2"):
        convergence_check(1e305, (1e-20,), 10, 10, (1,), 0)
    with pytest.raises(InvalidDesignError, match="p1"):
        convergence_check(1.0, (), 10, 10, (1,), 0)
    with pytest.raises(InvalidDesignError, match="scales"):
        convergence_check(1.0, (0.1,), 10, 10, (), 0)
    with pytest.raises(InvalidDesignError, match="p2"):
        convergence_check(0.05, (0.5,), 10, 10, (1,), 0)
    with pytest.raises(InvalidDesignError, match="replicates"):
        convergence_check(1.0, (0.1,), 10, 10, (1,), 0, replicates=1)
    with pytest.raises(InvalidDesignError, match="^n_not_mentioned must be a positive integer, got 0$"):
        convergence_check(1.0, (0.1,), 10, 0, (1,), 0)
    with pytest.raises(InvalidDesignError, match="^n_mentioned must be a positive integer, got 0$"):
        convergence_check(1.0, (0.1,), n_mentioned=0, n_not_mentioned=10, scales=(1,), seed=0)
    with pytest.raises(InvalidDesignError, match=r"^n_mentioned \* scale must be at most 2\*\*53"):
        convergence_check(1.0, (0.1,), 10, 10, (1, 10**16), 0)
    with pytest.raises(InvalidDesignError, match=r"^n_not_mentioned \* scale must be at most 2\*\*53"):
        convergence_check(1.0, (0.1,), 1, 2**10, (2**44,), 0)
    # each of these used to be accepted, or to fail outside InvalidDesignError
    bad = [
        # fractional totals, drawn as float16 counts
        ((1.0, (0.5, 0.6, 0.7), 12.5, 20.5, (1, 2), 1), r"^n_mentioned must be a positive integer, got 12\.5$"),
        ((1.0, (0.1,), 10, 20.5, (1,), 1), r"^n_not_mentioned must be a positive integer, got 20\.5$"),
        # fractional scales, labelled and drawn as their integer parts
        ((1.0, (0.5, 0.6, 0.7), 12, 20, (1.5, 2.9), 1), r"^scales\[0\] must be a positive integer, got 1\.5$"),
        ((1.0, (0.1,), True, 10, (1,), 1), "^n_mentioned must be a positive integer, got True$"),
        ((1.0, (0.1,), 10, 10, (2, True), 1), r"^scales\[1\] must be a positive integer, got True$"),
        ((1.0, (0.1,), 10, 10, (1,), -1), "^seed must be a 64-bit unsigned integer, got -1$"),
        ((1.0, (0.1,), 10, 10, (1,), 2**70), f"^seed must be a 64-bit unsigned integer, got {2**70}$"),
        ((1.0, (0.1,), 10, 10, (1,), 1.0), r"^seed must be a 64-bit unsigned integer, got 1\.0$"),
        # a repeated scale, drawn again on the same streams as an identical record
        ((1.0, (0.1,), 10, 10, (5, 5), 1), r"^scales\[1\] repeats scale 5 of scales\[0\]$"),
        ((1.0, (0.1,), 10, 10, (1, 2, 3, 2), 1), r"^scales\[3\] repeats scale 2 of scales\[1\]$"),
        # a psi that is not an int or a float, or lies beyond the float range
        ((True, (0.1,), 10, 10, (1,), 1), "^psi must be a real number, got True$"),
        ((Fraction(2), (0.1,), 10, 10, (1,), 1), r"^psi must be a real number, got Fraction\(2, 1\)$"),
        ((Decimal("2"), (0.1,), 10, 10, (1,), 1), r"^psi must be a real number, got Decimal\('2'\)$"),
        (("2", (0.1,), 10, 10, (1,), 1), "^psi must be a real number, got '2'$"),
        ((2**1100, (0.1,), 10, 10, (1,), 1), f"^psi must be finite, got {2**1100}$"),
        # p1 values that are not an int or a float
        ((2.0, ("0.2", 0.3), 10, 20, (1,), 1), r"^p1s\[0\] must be a real number"),
        ((2.0, (True, 0.3), 10, 20, (1,), 1), r"^p1s\[0\] must be a real number"),
        ((2.0, (Fraction(1, 5), 0.3), 10, 20, (1,), 1), r"^p1s\[0\] must be a real number"),
        ((2.0, (Decimal("0.2"), 0.3), 10, 20, (1,), 1), r"^p1s\[0\] must be a real number"),
        ((2.0, np.array([0.2, 0.3], dtype=np.float32), 10, 20, (1,), 1), r"^p1s\[0\] must be a real number"),
    ]
    for args, message in bad:
        with pytest.raises(InvalidDesignError, match=message):
            convergence_check(*args, replicates=20)
    with pytest.raises(InvalidDesignError, match=r"^replicates must be a positive integer, got 20\.0$"):
        convergence_check(1.0, (0.1,), 10, 10, (1,), 0, replicates=20.0)
