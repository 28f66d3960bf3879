from __future__ import annotations

import json
import math
from dataclasses import astuple, replace
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from statistics import NormalDist

import numpy as np
import pytest

from sparsemh import (
    BinomialParams,
    ExcessiveDropError,
    IndicatorKind,
    InvalidDesignError,
    SimulationDesign,
    StratifiedDataset,
    StratumTable,
    VarianceMethod,
    bias_study,
    convergence_study,
    coverage_study,
    estimate_indicator,
    mhq,
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
from sparsemh.variance import _LOG_VARIANCES

from conftest import inversion_edge_ps
from exact import all_datasets, enumeration, exact_interval, exact_study, sparse_bias, stratum_moments, table_terms


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
    # the whole message, for totals and seeds that are not ints or are out of range
    bad = [
        (dict(n_mentioned=0), "^n_mentioned must be a positive integer, got 0$"),
        (dict(n_not_mentioned=0), "^n_not_mentioned must be a positive integer, got 0$"),
        (dict(n_mentioned=12.5), r"^n_mentioned must be a positive integer, got 12\.5$"),
        (dict(n_not_mentioned=20.5), r"^n_not_mentioned must be a positive integer, got 20\.5$"),
        (dict(n_mentioned=True), "^n_mentioned must be a positive integer, got True$"),
        (dict(seed=-1), "^seed must be a 64-bit unsigned integer, got -1$"),
        (dict(seed=2**70), f"^seed must be a 64-bit unsigned integer, got {2**70}$"),
        (dict(seed=1.0), r"^seed must be a 64-bit unsigned integer, got 1\.0$"),
        # a psi that is not an int or a float, or lies beyond the float range
        (dict(psi=True), "^psi must be a real number, got True$"),
        (dict(psi=Fraction(2)), r"^psi must be a real number, got Fraction\(2, 1\)$"),
        (dict(psi=Decimal("2")), r"^psi must be a real number, got Decimal\('2'\)$"),
        (dict(psi="2"), "^psi must be a real number, got '2'$"),
        (dict(psi=2**1100), f"^psi must be finite, got {2**1100}$"),
    ]
    for fields, message in bad:
        with pytest.raises(InvalidDesignError, match=message):
            SimulationDesign(**fields)
    # p2 = p1/psi underflows to 0 at the least p1 the design can draw
    for p1_high in (5e-324, 0.5):
        with pytest.raises(InvalidDesignError, match="p2"):
            SimulationDesign(p1_low=5e-324, p1_high=p1_high, psi=2)


def test_design_stores_its_real_fields_as_floats():
    # the library writes the bytes the CLI, whose flags parse to float, writes
    design = dict(k=3, datasets_per_rep=50, reps=1)
    want = coverage_study(SimulationDesign(**design, psi=2.0))
    for psi in (np.float64(2.0), 2):
        got = coverage_study(SimulationDesign(**design, psi=psi))
        assert type(got.design.psi) is float
        assert (got.to_csv(), got.to_json()) == (want.to_csv(), want.to_json())
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
    draws = _rep_p1s(design, 3)
    again = _rep_p1s(design, 3)
    assert draws.shape == (design.k,)
    assert np.all(draws >= design.p1_low) and np.all(draws <= design.p1_high)
    assert np.array_equal(draws, again)


def test_draw_p1_degenerate_interval():
    design = small_design(p1_low=0.1, p1_high=0.1)
    assert np.all(_rep_p1s(design, 0) == 0.1)


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
    # lets MHq's sums take the column totals as scalars
    assert np.all(a + (design.n_mentioned - a) == design.n_mentioned)
    assert np.all(b + (design.n_not_mentioned - b) == design.n_not_mentioned)


def test_streamed_draws_degenerate_probability():
    design = small_design(p1_low=1.0, p1_high=1.0, psi=1.0)
    a, b = streamed_counts(design, np.ones(design.k))
    assert np.all(a == design.n_mentioned)
    assert np.all(b == design.n_not_mentioned)


def test_streamed_draws_reject_invalid_p2_before_sampling(monkeypatch):
    def no_sampling(*args, **kwargs):
        raise AssertionError("drew before the design and the study's arguments were validated")

    monkeypatch.setattr(simulation, "_draw_count_matrices_streamed", no_sampling)
    # a design checks its p1 range against psi when it is built, before any rep draws
    with pytest.raises(InvalidDesignError, match="p1"):
        small_design(p1_high=1.5)
    with pytest.raises(InvalidDesignError, match="p2"):
        small_design(psi=0.5, p1_low=0.01, p1_high=0.9)
    # the convergence study checks its scales and thread count before it draws p1 or a count
    monkeypatch.setattr(simulation, "_rep_p1s", no_sampling)
    with pytest.raises(InvalidDesignError, match="scales"):
        convergence_study(small_design(), (), replicates=2)
    with pytest.raises(InvalidDesignError, match="threads"):
        convergence_study(small_design(), (1,), replicates=2, threads=0)


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


def test_rep_p1s_is_the_only_p1_draw(monkeypatch):
    # the traced name draws every study's p1 vector: patched, it feeds a repetition's counts and the convergence scales
    design = small_design(k=4, reps=2, datasets_per_rep=100)
    held = replace(design, p1_low=0.3, p1_high=0.3)  # its own draw is the vector patched in below
    counts = [_rep_counts(held, rep) for rep in range(2)]
    ladder = convergence_study(held, scales=(1, 2), replicates=100).records
    calls = []

    def fixed_draw(design, *key):
        calls.append(key)
        return np.full(design.k, 0.3)

    monkeypatch.setattr(simulation, "_rep_p1s", fixed_draw)
    for rep in range(2):
        assert all(np.array_equal(got, want) for got, want in zip(_rep_counts(design, rep), counts[rep]))
    assert convergence_study(design, scales=(1, 2), replicates=100).records == ladder
    assert calls == [(0,), (1,), ()]


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
        assert bh[row] == estimate_indicator(ds, IndicatorKind.MHQ, method=VarianceMethod.BH).log_variance


def test_exact_coverage_of_the_readme_design_is_the_quoted_0_958():
    # README's design k = 2, n = (4, 20), p1 = (0.3, 0.5), psi = 2: all
    # 105**2 datasets through the coverage study's term lookup, each weighted
    # by its exact binomial probability
    a, b = all_datasets(4, 20, 2)
    assert a.shape == (2, 11_025)
    assert _term_table(a, b, 4.0, 20.0, a.size // LOOKUP_CELLS_PER_POINT) is not None
    _, skm_coverage, bh_coverage = exact_study(4, 20, 2.0, (0.3, 0.5))[:3]
    assert round(skm_coverage, 3) == 0.958
    assert bh_coverage > skm_coverage  # BH overestimates the variance
    assert f"psi = 2, the SKM interval covered {skm_coverage:.3f}," in readme_notes()


def readme_notes() -> str:
    """README's "Notes and limitations" section, its whitespace runs as single spaces."""
    readme = " ".join((Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8").split())
    return readme[readme.index("## Notes and limitations"):]


def p_undefined(n1, n2, psi, p1s):
    """P(every a = 0 or every b = 0), by inclusion-exclusion: MHq is undefined exactly then."""
    no_a = math.prod((1.0 - p1) ** n1 for p1 in p1s)
    no_b = math.prod((1.0 - p1 / psi) ** n2 for p1 in p1s)
    return no_a + no_b - no_a * no_b


@pytest.mark.parametrize(
    "n1, n2, p1s, want",
    [
        # P(undefined); given a defined MHq, the SKM and BH coverage, the mean
        # and SD of ln MHq, and the SKM and BH mean width exp(high) - exp(low)
        (3, 12, (0.2, 0.3, 0.4), (0.0379, 0.9363, 0.9977, -0.0459, 0.5822, 2.5424, 5.1105)),  # the Baseline's k = 3
        (5, 20, (0.3,), (0.1687, 0.9500, 0.9974, 0.1450, 0.6012, 5.8550, 10.5710)),
        (3, 9, (0.1, 0.2), (0.4058, 0.9638, 0.9984, 0.4598, 0.6700, 12.9102, 25.1993)),  # sparse: 41% undefined
        (8, 20, (0.35, 0.35), (0.0010, 0.9560, 0.9979, -0.0422, 0.4546, 1.8222, 3.0239)),  # the studies' design
    ],
)
def test_exact_coverage_of_tiny_designs(n1, n2, p1s, want):
    exact = exact_study(n1, n2, 1.0, p1s)
    got = (*exact[:3], exact.mean, exact.sd, exact.skm_width, exact.bh_width)
    assert tuple(round(x, 4) for x in got) == want
    assert exact.undefined == pytest.approx(p_undefined(n1, n2, 1.0, p1s), rel=0, abs=1e-12)
    # BH overestimates the variance: its intervals cover at least as often, and are at least as wide on average
    assert exact.bh_coverage >= exact.skm_coverage and exact.bh_width >= exact.skm_width


@pytest.mark.parametrize("n1, n2, psi, p1", [(4, 20, 2.0, 0.3), (3, 9, 1.0, 0.2)])  # README's n, and a sparse design
def test_exact_study_at_one_stratum_equals_an_independent_sum_over_its_tables(n1, n2, psi, p1):
    # At k = 1, MHq is the column risk ratio a n2 / (b n1), defined when a > 0
    # and b > 0; SKM is Katz's c/(a n1) + d/(b n2), and BH adds 2/n1 + 2/n2.
    # Each table's probability is a Fraction pmf at the float p1 and p2, and
    # its logs and interval half-widths are taken in mpmath.
    import mpmath

    with mpmath.workdps(40):
        q1, q2 = Fraction(p1), Fraction(p1 / psi)
        z, log_psi = mpmath.sqrt(2) * mpmath.erfinv(mpmath.mpf("0.95")), mpmath.log(psi)
        undefined, covered, log_sum = Fraction(0), {"skm": Fraction(0), "bh": Fraction(0)}, mpmath.mpf(0)
        for a in range(n1 + 1):
            for b in range(n2 + 1):
                p = math.comb(n1, a) * q1**a * (1 - q1) ** (n1 - a) * math.comb(n2, b) * q2**b * (1 - q2) ** (n2 - b)
                if a == 0 or b == 0:
                    undefined += p
                    continue
                ln_mhq = mpmath.log(mpmath.mpf(a * n2) / (b * n1))
                katz = Fraction(n1 - a, a * n1) + Fraction(n2 - b, b * n2)
                for method, var in (("skm", katz), ("bh", katz + Fraction(2, n1) + Fraction(2, n2))):
                    if abs(ln_mhq - log_psi) <= z * mpmath.sqrt(mpmath.mpf(var.numerator) / var.denominator):
                        covered[method] += p
                log_sum += p.numerator * ln_mhq / p.denominator
        defined = 1 - undefined
        mean = log_sum / (mpmath.mpf(defined.numerator) / defined.denominator)
        want = (undefined, covered["skm"] / defined, covered["bh"] / defined, mean)
    exact = exact_study(n1, n2, psi, (p1,))
    got = (exact.undefined, exact.skm_coverage, exact.bh_coverage, exact.mean)
    assert got == pytest.approx(tuple(map(float, want)), rel=0, abs=1e-12)


@pytest.mark.parametrize(
    "n1, n2, psi, p1s, gr, rbg",
    [
        # P(undefined), the target and the coverage of the target given a
        # defined value, of GR on MHRR and of RBG on MHOR
        (3, 12, 1.0, (0.2, 0.3, 0.4), (0.038022, 1.0, 0.975748), (0.038139, 1.0, 0.976001)),
        (5, 20, 1.0, (0.3,), (0.170500, 1.0, 0.971612), (0.171162, 1.0, 0.980230)),
        (3, 9, 1.0, (0.1, 0.2), (0.375584, 1.0, 0.895128), (0.408608, 1.0, 0.984955)),  # sparse: GR under-covers
        (8, 20, 1.0, (0.35, 0.35), (0.001015, 1.0, 0.965101), (0.001016, 1.0, 0.958324)),
        (4, 20, 2.0, (0.3, 0.5), (0.016096, 2.337793, 0.986987), (0.018052, 2.739130, 0.981057)),  # README's 0.958
    ],
)
def test_exact_coverage_of_the_gr_and_rbg_intervals(n1, n2, psi, p1s, gr, rbg):
    # MHCR is left out: its GR rejects a stratum with an empty row, which
    # the sparse designs draw often (ROADMAP item 1)
    got_gr = exact_interval(IndicatorKind.MHRR, VarianceMethod.GR, n1, n2, psi, p1s)
    got_rbg = exact_interval(IndicatorKind.MHOR, VarianceMethod.RBG, n1, n2, psi, p1s)
    assert got_gr == pytest.approx(gr, rel=0, abs=1e-6) and got_rbg == pytest.approx(rbg, rel=0, abs=1e-6)
    # the same helper on MHq's SKM is exact_study's; MHq's target is psi at
    # psi = 1, but 2.0137 at README's psi = 2, where the two cover different values
    skm = exact_interval(IndicatorKind.MHQ, VarianceMethod.SKM, n1, n2, psi, p1s)
    exact = exact_study(n1, n2, psi, p1s)
    assert skm.undefined == pytest.approx(exact.undefined, rel=0, abs=1e-12)
    if psi == 1.0:
        assert skm.target == pytest.approx(1.0, rel=0, abs=1e-12)
        assert skm.coverage == pytest.approx(exact.skm_coverage, rel=0, abs=1e-12)
    if (n1, n2) == (3, 9):  # README quotes the sparse design's coverages
        quoted = f"GR on MHRR {got_gr.coverage:.4f}, RBG on MHOR {got_rbg.coverage:.4f} and SKM on MHq {skm.coverage:.4f}"
        assert quoted in readme_notes()


# ----------------------------------------------------- exact sparse moments

def test_exact_sparse_combine_steps_are_linear_in_the_terms_and_homogeneous_in_r_and_s():
    # what makes a variance sum(N_i) / R**2 at R = theta S, with N_i = theta**2 combine(theta, 1, *terms_i)
    rng = np.random.default_rng(5)
    for key, entry in _LOG_VARIANCES.items():
        for _ in range(20):
            rt, st, scale, weight = rng.uniform(0.1, 10.0, size=4)
            one, two = rng.uniform(0.0, 10.0, size=(2, entry.count))
            value = entry.combine(rt, st, *one)
            assert entry.combine(rt, st, *(one + weight * two)) == pytest.approx(
                value + weight * entry.combine(rt, st, *two), rel=1e-12
            ), key
            assert entry.combine(scale * rt, scale * st, *one) == pytest.approx(value / scale**2, rel=1e-12), key


def own_target_moments(kind, method, n1, n2, p1, p2):
    """The stratum's :func:`stratum_moments` at its own target E[R_i] / E[S_i]."""
    first = stratum_moments(kind, method, n1, n2, p1, p2, 1.0)
    return stratum_moments(kind, method, n1, n2, p1, p2, first.mean_r / first.mean_s)


def test_exact_sparse_ratios_per_stratum():
    # E[N_i] / Var(U_i) on 200 strata, each at its own target: GR on MHCR
    # and RBG on MHOR are exact, GR on MHRR is not, SKM is below 1 and BH above
    rng = np.random.default_rng(2024)
    strata = zip(rng.integers(1, 41, size=200), rng.integers(1, 81, size=200), *rng.uniform(0.005, 0.995, size=(2, 200)))
    ratios = {key: [] for key in _LOG_VARIANCES}
    for n1, n2, p1, p2 in strata:
        for key in ratios:
            moments = own_target_moments(*key, int(n1), int(n2), p1, p2)
            assert abs(moments.mean_u) <= 1e-12 * math.sqrt(moments.var_u)
            ratios[key].append(float(moments.mean_n / moments.var_u))
    ratios = {key: np.array(values) for key, values in ratios.items()}
    for key in ((IndicatorKind.MHCR, VarianceMethod.GR), (IndicatorKind.MHOR, VarianceMethod.RBG)):
        assert np.abs(ratios[key] - 1.0).max() <= 1e-12, key
    assert np.abs(ratios[IndicatorKind.MHRR, VarianceMethod.GR] - 1.0).max() > 1e-3
    assert (ratios[IndicatorKind.MHQ, VarianceMethod.SKM] < 1.0).all()
    assert (ratios[IndicatorKind.MHQ, VarianceMethod.BH] > 1.0).all()


@pytest.mark.parametrize(
    "n1, n2, psi, p1s",
    [
        (3, 12, 1.0, (0.2, 0.3, 0.4)),
        (5, 20, 1.0, (0.3,)),
        (3, 9, 1.0, (0.1, 0.2)),
        (8, 20, 1.0, (0.35, 0.35)),
        (4, 20, 2.0, (0.3, 0.5)),
    ],
)
def test_exact_sparse_moments_match_the_enumeration(n1, n2, psi, p1s):
    # the moments that factor over strata, summed, against the enumeration's weighted means over datasets
    a, b, weight, _ = enumeration(n1, n2, psi, p1s)
    a, b = a.T.astype(float), b.T.astype(float)
    p1s = np.array(p1s)

    def mean(values: np.ndarray) -> float:
        return math.fsum(weight * values)

    for kind, method in _LOG_VARIANCES:
        sums, terms = table_terms(kind, method, a, b, n1 - a, n2 - b)
        theta = sparse_bias(kind, method, n1, n2, psi, p1s).theta
        moments = stratum_moments(kind, method, n1, n2, p1s, p1s / psi, theta)
        for got, term in zip(moments.terms, terms):
            assert math.fsum(got) == pytest.approx(mean(term.sum(axis=-1)), rel=1e-12), (kind, method)
        assert math.fsum(moments.mean_r) == pytest.approx(mean(sums.rt), rel=1e-12)
        assert math.fsum(moments.mean_s) == pytest.approx(mean(sums.st), rel=1e-12)
        u = sums.rt - theta * sums.st
        assert math.fsum(moments.var_u) == pytest.approx(mean((u - mean(u)) ** 2), rel=1e-12)


@pytest.mark.parametrize(
    "n1, n2, k, psi, skm, bh, theta",
    [
        (10, 100, 300, 1.0, -0.0525, 0.1395, 1.0),
        (5, 50, 1000, 1.0, -0.1067, 0.1436, 1.0),
        (2, 20, 3000, 1.0, -0.2850, 0.1504, 1.0),
        (10, 100, 300, 10.0, -0.0339, 0.0872, 10.0103),
        (5, 50, 1000, 10.0, -0.0680, 0.1003, 10.0207),
        (2, 20, 3000, 10.0, -0.1737, 0.1358, 10.0495),
    ],
)
def test_exact_sparse_bias_of_skm_and_bh_on_the_sparse_rungs(n1, n2, k, psi, skm, bh, theta):
    # the SD bias of the two MHq variances as the strata grow, at the studies' p1 ~ U(0.01, 0.2)
    p1s = np.random.default_rng(42).uniform(0.01, 0.2, size=k)
    got_skm = sparse_bias(IndicatorKind.MHQ, VarianceMethod.SKM, n1, n2, psi, p1s)
    got_bh = sparse_bias(IndicatorKind.MHQ, VarianceMethod.BH, n1, n2, psi, p1s)
    assert got_skm.sd_bias == pytest.approx(skm, rel=0, abs=1e-3)
    assert got_bh.sd_bias == pytest.approx(bh, rel=0, abs=1e-3)
    # MHq's target is psi at psi = 1, exactly: given a+b, a is hypergeometric
    assert got_skm.theta == got_bh.theta == pytest.approx(theta, rel=0, abs=1e-12 if psi == 1.0 else 1e-4)


def test_exact_sparse_ladder_is_the_one_readme_quotes():
    # README's sparse-data ladder at psi = 1 is SKM's exact many-strata SD bias on each rung
    for k, n1, n2 in ((30, 100, 1000), (300, 10, 100), (1000, 5, 50), (3000, 2, 20)):
        p1s = np.random.default_rng(42).uniform(0.01, 0.2, size=k)
        bias = sparse_bias(IndicatorKind.MHQ, VarianceMethod.SKM, n1, n2, 1.0, p1s).sd_bias
        quoted = f"{bias:.1%}".replace("-", "\N{MINUS SIGN}")
        assert f"{quoted} at {k} × ({n1}, {n2})" in readme_notes()


def test_coverage_and_bias_studies_match_exact_enumeration():
    # k = 2, n = (8, 20), p1 = 0.35 in both strata (equal bounds draw exactly
    # 0.35), psi = 1: each study value lies within 4 Monte Carlo SEs of its
    # exact value, each SE taken from the exact distribution
    design = SimulationDesign(
        k=2, n_mentioned=8, n_not_mentioned=20, psi=1.0, p1_low=0.35, p1_high=0.35,
        datasets_per_rep=20_000, reps=1, seed=42,
    )
    exact = exact_study(8, 20, 1.0, (0.35, 0.35))
    count = design.datasets_per_rep
    summary = coverage_study(design)
    (record,) = summary.records
    defined = count - summary.dropped_total
    assert abs(summary.dropped_total - count * exact.undefined) <= 4 * math.sqrt(
        count * exact.undefined * (1 - exact.undefined)
    )
    for got, p in ((record.skm_coverage, exact.skm_coverage), (record.bh_coverage, exact.bh_coverage)):
        assert abs(got - p) <= 4 * math.sqrt(p * (1 - p) / defined)
    for got, mean, sd in (
        (record.skm_mean_width, exact.skm_width, exact.skm_width_sd),
        (record.bh_mean_width, exact.bh_width, exact.bh_width_sd),
    ):
        assert abs(got - mean) <= 4 * sd / math.sqrt(defined)
    bias = bias_study(design)
    (bias_record,) = bias.records
    sigma, defined = exact.sd, count - bias.dropped_total
    assert abs(bias_record.true_sd - sigma) <= 4 * math.sqrt((exact.mu4 - sigma**4) / defined) / (2 * sigma)


@pytest.mark.parametrize(
    "n1, n2, p1s, psi",
    [
        (3, 9, (0.1, 0.2), 1.0),  # sparse: P(undefined) > 10%
        (3, 12, (0.2, 0.3, 0.4), 1.0),  # the Baseline's k = 3
        (4, 20, (0.3, 0.5), 2.0),  # README's design
        (8, 20, (0.35, 0.35), 1.0),  # the studies' design
    ],
    ids=["3-9", "3-12", "4-20", "8-20"],
)
def test_drawn_sparse_design_agrees_with_exact_enumeration(n1, n2, p1s, psi):
    # the undefined fraction and the SKM coverage of ln psi of 20,000
    # datasets drawn at p2 = p1 / psi lie within 4 Monte Carlo SEs of the
    # exact values
    p1s, count, log_psi = np.array(p1s), 20_000, math.log(psi)
    exact_undefined, exact_skm, _ = exact_study(n1, n2, psi, tuple(p1s))[:3]
    a, b = _draw_count_matrices_streamed(p1s, p1s / psi, n1, n2, count, 42, 0)
    *arrays, drops = zip(*_coverage_blocks(a, b, float(n1), float(n2)))
    ln_mhq, skm, _ = map(np.concatenate, arrays)
    undefined = sum(drops) / count
    assert abs(undefined - exact_undefined) <= 4 * math.sqrt(exact_undefined * (1 - exact_undefined) / count)
    half = NormalDist().inv_cdf(0.975) * np.sqrt(skm)
    covered = float(((ln_mhq - half <= log_psi) & (log_psi <= ln_mhq + half)).mean())
    assert abs(covered - exact_skm) <= 4 * math.sqrt(exact_skm * (1 - exact_skm) / ln_mhq.size)


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


def test_the_widest_desk_boxes_are_looked_up():
    # at psi = 0.2 these desk repetitions span boxes of 37,880 to 40,530
    # points: more than an eighth of their 300,000 cells, within a sixth
    for seed, rep in ((7, 13), (7, 14), (11, 1), (11, 3), (42, 11), (42, 12), (42, 17), (42, 18)):
        _, a, b = _rep_counts(SimulationDesign(psi=0.2, seed=seed), rep)
        assert _term_table(a, b, 100.0, 1000.0, a.size // LOOKUP_CELLS_PER_POINT) is not None, (seed, rep)


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
    summary = replace(coverage_study(design), study="width")
    csv_path, json_path = summary.write(tmp_path / "out" / "study")
    assert csv_path.read_text().startswith("setting,psi,")
    assert json.loads(json_path.read_text())["study"] == "width"


# ---------------------------------------------------------------- convergence

def test_convergence_check_improves_with_scale(monkeypatch):
    design = SimulationDesign(k=4, n_mentioned=100, n_not_mentioned=1000, psi=2.0, p1_low=0.2, p1_high=0.5, seed=12)
    monkeypatch.setattr(simulation, "_rep_p1s", lambda design: np.array([0.2, 0.3, 0.4, 0.5]))
    records = convergence_study(design, scales=(1, 25), replicates=600).records
    assert [r.scale for r in records] == [1, 25]
    assert records[1].mean_abs_dev < records[0].mean_abs_dev
    assert all(r.replicates == 600 for r in records)
    assert all(r.mc_se > 0 for r in records)


def test_convergence_check_centers_on_psi():
    # equal p1 bounds: p1 is 0.1 in every stratum
    design = SimulationDesign(k=4, n_mentioned=1000, n_not_mentioned=10_000, psi=1.0, p1_low=0.1, p1_high=0.1, seed=4)
    records = convergence_study(design, scales=(10,), replicates=500).records
    assert records[0].mean_abs_dev < 0.05


def test_convergence_json_describes_the_run(monkeypatch):
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
    monkeypatch.setattr(simulation, "_rep_p1s", lambda design: p1s)
    assert convergence_study(design, scales=(1, 5), replicates=200).records == summary.records


def test_convergence_dropped_total_sums_the_scales_drops():
    # P(a = 0) = 0.15**3, about 0.34% of the datasets at scale 1 and 1e-5 at scale 2: some drop, under the 1% bound
    design = SimulationDesign(k=1, n_mentioned=3, n_not_mentioned=20, psi=1.0, p1_low=0.85, p1_high=0.85)
    summary = convergence_study(design, scales=(1, 2), replicates=2000)
    assert summary.dropped_total > 0
    assert summary.dropped_total == sum(2000 - r.replicates for r in summary.records)
    assert convergence_study(design, scales=(1, 2), replicates=2000, threads=2).records == summary.records


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
    # the ladder's own checks, which the study makes after its design's
    design = small_design(k=1, n_mentioned=10, n_not_mentioned=10, p1_low=0.1, p1_high=0.1, seed=0)

    def study(scales=(1,), replicates=20, **fields):
        return convergence_study(replace(design, **fields), scales, replicates=replicates)

    with pytest.raises(InvalidDesignError, match="scales"):
        study(())
    with pytest.raises(InvalidDesignError, match="replicates"):
        study(replicates=1)
    with pytest.raises(InvalidDesignError, match=r"^replicates must be a positive integer, got 20\.0$"):
        study(replicates=20.0)
    with pytest.raises(InvalidDesignError, match=r"^n_mentioned \* scale must be at most 2\*\*53"):
        study((1, 10**16))
    with pytest.raises(InvalidDesignError, match=r"^n_not_mentioned \* scale must be at most 2\*\*53"):
        study((2**44,), n_mentioned=1, n_not_mentioned=2**10)
    # each of these used to be accepted
    bad = [
        # fractional scales, labelled and drawn as their integer parts
        ((1.5, 2.9), r"^scales\[0\] must be a positive integer, got 1\.5$"),
        ((2, True), r"^scales\[1\] must be a positive integer, got True$"),
        # a repeated scale, drawn again on the same streams as an identical record
        ((5, 5), r"^scales\[1\] repeats scale 5 of scales\[0\]$"),
        ((1, 2, 3, 2), r"^scales\[3\] repeats scale 2 of scales\[1\]$"),
    ]
    for scales, message in bad:
        with pytest.raises(InvalidDesignError, match=message):
            study(scales)
