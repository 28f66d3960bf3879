"""Column-binomial Monte Carlo studies of the MHq variance estimators.

The generator fixes the column totals of every stratum (n1 mentioned, n2 not
mentioned articles) and draws the group memberships binomially: a ~ Bin(n1,
p1_i) and b ~ Bin(n2, p2_i) with p2_i = p1_i / psi, so the column risk ratio
is exactly psi in every stratum. Three studies are built on top:

* ``bias_study``     -- SD of ln(MHq) over simulated datasets versus the
  corrected and the group-vs-world formulas evaluated at the true parameters;
* ``coverage_study`` -- empirical coverage and width of nominal 95% intervals
  computed from each simulated dataset;
* ``convergence_study`` -- mean |MHq - psi| along a ladder of sample sizes.

The SKM and BH estimators also come in parameter form for column-binomial
designs: every cell count is replaced by its expectation, which is what the
bias study evaluates at the true generating parameters.

Reproducibility contract: every stream is PCG64, derived from the master
seed alone. For repetition r of the bias, coverage and width studies, the p1
vector comes from ``SeedSequence((seed, r))``; the counts of stratum i come
from ``SeedSequence((seed, r, i))`` with the mentioned column drawn before
the not-mentioned column. The convergence study draws its one p1 vector from
``SeedSequence((seed,))`` and the counts of stratum i at scale s from
``SeedSequence((seed, s, i))``, mentioned column first. Repetitions and
convergence scales are therefore independent of worker scheduling, and
results are bit-identical for any thread count.

Threads, not processes, run the repetitions (or the convergence scales): the
work is mostly numpy's draws and array operations, which release the GIL;
the threshold lookup of the count draws, described last, holds it for its
per-column Python steps. ``threads=1`` runs them one after another on the
calling thread. A repetition holds its counts stratum-major, as (k,
datasets) arrays of the smallest unsigned integer type that fits the column
totals (uint16 at the desk design), so each stratum's draw is one
contiguous row write and the counts take an eighth of the memory of float64
values. The bias and convergence studies convert blocks of
datasets to float64 (count, k) matrices, in C order, only as the MHq sums
reach them.

The coverage and width studies avoid that copy where they can. Their
column totals are fixed, so every per-stratum term they add up over strata,
MHq's R and S and then the terms of each variance they take from the
variance table (SKM, then BH), is a function of the counts (a, b) alone. A
repetition computes those terms once per (a, b) point its strata's count
ranges cover (see _term_table) and looks up each cell's. A block's terms
are summed over strata from (rows, k) arrays in C order, the order of the
data forms' matrices, and each variance's own combine step takes R, S and
its terms' totals, so every bit is the data forms'. When there are more
points than an eighth of the repetition's cells (LOOKUP_CELLS_PER_POINT),
as with large column totals, looking up stops paying, and each block
converts its counts to float64 and runs the SKM and BH data forms instead.

Every count is the value the installed numpy's ``Generator.binomial`` draws
from the stream, and the stream is left where ``binomial`` leaves it; a numpy
release that changes its binomial sampler changes the emitted values. A
column whose mean n*min(p, 1-p) is at most 30 is the one numpy draws by
inversion (Kachitvichyanukul & Schmeiser 1988): one uniform U per draw,
walked down the point probabilities px_0 = (1-p)^n, px_x = px_{x-1} *
(n-x+1)p / (xq) until U, less each px passed, is at most the next; past
x = bound it restarts with a fresh uniform. ``_binomial`` computes those
columns without the per-draw walk: it recomputes the px_x by the same
floating-point operations, sums them into thresholds, draws the column's
uniforms with ``Generator.random`` (the same doubles the walk takes), and
returns the first x whose threshold each uniform does not exceed. A uniform
farther than ``_binomial``'s margin (see INVERSION_TOLERANCE) from every
threshold gets numpy's x. If any uniform of a column is nearer, or beyond
the last threshold, the generator is rewound and numpy draws the column
itself.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, astuple, dataclass, fields
from pathlib import Path
from statistics import NormalDist
from typing import Callable, Sequence

import numpy as np

from .estimators import IndicatorKind, _mhq_sums, _weighted_sums
from .report import write_in_place
from .variance import _LOG_VARIANCES, VarianceMethod, _rbg_log_variance, _skm_log_variance

RNG_ALGORITHM = "PCG64"
STREAM_DERIVATION = (
    "p1 draws for repetition r: SeedSequence((seed, r)); counts for stratum i of "
    "repetition r: SeedSequence((seed, r, i)), mentioned column before not-mentioned column"
)
CONVERGENCE_STREAM_DERIVATION = (
    "p1 draws: SeedSequence((seed,)); counts for stratum i at scale s: SeedSequence((seed, s, i)), "
    "mentioned column before not-mentioned column"
)

# Cells per block of datasets that a repetition's MHq sums and variance
# kernels work through at a time: a block's float64 copies and temporaries
# fit in cache and reuse the same memory, where whole-batch temporaries
# would be paged in afresh every repetition. At 2**15 cells (256 KiB per
# array) the allocator returned a coverage block's memory to the system and
# faulted it in again for the next block: about 5,300 page faults per desk
# repetition, against 540 at 2**13 with the same output bits.
BLOCK_CELLS = 2**13

# The coverage terms are looked up only while a repetition has at least this
# many cells per point of its term table. Timing _coverage_rep with the
# lookup against the data-form kernels at k = 10, 30 and 100 (2-core Xeon
# VM), the lookup stopped winning at 2 to 5 cells per point; at 8 it won by
# 5-10%, and its table (64 bytes per point) holds at most 8 bytes per cell.
LOOKUP_CELLS_PER_POINT = 8

# The variances of ln(MHq) that the coverage study takes, in its records' order.
_COVERAGE = tuple(_LOG_VARIANCES[IndicatorKind.MHQ, method] for method in (VarianceMethod.SKM, VarianceMethod.BH))

# numpy's binomial sampler inverts, one uniform per draw, when the column's
# mean n*min(p, 1-p) is at most this; above it, BTPE takes a varying number of
# uniforms per draw and _binomial leaves the column to numpy.
INVERSION_MAX_MEAN = 30.0

# Buckets of the table that starts each uniform's threshold search: a uniform
# in [j, j+1) / LOOKUP_BUCKETS starts at the first threshold >= j /
# LOOKUP_BUCKETS. Most uniforms end there after one comparison; the ~1% in a
# bucket holding several thresholds (the tail crowds below 1.0) are looked up
# by binary search.
LOOKUP_BUCKETS = 1024
_BUCKET_EDGES = np.arange(LOOKUP_BUCKETS) / LOOKUP_BUCKETS

# How far a uniform must lie from every inversion threshold for the lookup to
# take numpy's decision is this plus n * 2**-52 (see _binomial). This part
# covers the walk, whose running subtraction and running sum round by at most
# 2**-54 per step, 2 * steps * 2**-54 in all: under 1e-14 at the 85 steps a
# mean of 30 allows. n * 2**-52 covers px_0 = (1-p)^n, where numpy 2.4's
# exp(n*log1p(-p)) and the textbook exp(n*log(1-p)) differ by up to n * 2**-53
# relative. As steps <= n, the n-term alone is at least both bounds together,
# so no draw tells the two parts apart.
INVERSION_TOLERANCE = 1e-12

# Undefined-MHq replicates are dropped and counted; a run is aborted rather
# than silently reported when more than this fraction is lost.
MAX_DROP_FRACTION = 0.01


class ExcessiveDropError(ValueError):
    """More replicates were undefined than the reporting contract allows."""


class InvalidDesignError(ValueError):
    """Simulation design parameters are inconsistent or out of range."""


# Largest column total: counts are converted to float64, which holds every
# integer up to 2**53 exactly (and numpy's binomial takes no n beyond int64).
MAX_COLUMN_TOTAL = 2**53


def _check_positive_ints(**values: object) -> None:
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, int) or value < 1:
            raise InvalidDesignError(f"{name} must be a positive integer, got {value!r}")


def _check_column_totals(**totals: int) -> None:
    for name, n in totals.items():
        if n > MAX_COLUMN_TOTAL:
            raise InvalidDesignError(f"{name} must be at most 2**53, got {n}")


def _real(name: str, value: object) -> float:
    """``value``, an ``int`` or a ``float`` (numpy's float64 is one) but not a bool, as a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InvalidDesignError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an int beyond the largest float
        raise InvalidDesignError(f"{name} must be finite, got {value}") from None


@dataclass(frozen=True)
class SimulationDesign:
    """Column-binomial generator settings shared by all studies."""

    k: int = 30
    n_mentioned: int = 100
    n_not_mentioned: int = 1000
    psi: float = 1.0
    p1_low: float = 0.01
    p1_high: float = 0.2
    datasets_per_rep: int = 10_000
    reps: int = 20
    seed: int = 42

    def __post_init__(self) -> None:
        _check_positive_ints(
            k=self.k, n_mentioned=self.n_mentioned, n_not_mentioned=self.n_not_mentioned,
            datasets_per_rep=self.datasets_per_rep, reps=self.reps,
        )
        _check_column_totals(n_mentioned=self.n_mentioned, n_not_mentioned=self.n_not_mentioned)
        if isinstance(self.seed, bool) or not isinstance(self.seed, int) or not 0 <= self.seed < 2**64:
            raise InvalidDesignError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")
        for name in ("psi", "p1_low", "p1_high"):
            object.__setattr__(self, name, _real(name, getattr(self, name)))
        if not 0.0 < self.psi < math.inf:
            raise InvalidDesignError(f"psi must be positive and finite, got {self.psi}")
        if not 0.0 < self.p1_low <= self.p1_high <= 1.0:
            raise InvalidDesignError(
                f"need 0 < p1_low <= p1_high <= 1, got p1_low={self.p1_low}, p1_high={self.p1_high}"
            )
        if self.p1_high / self.psi > 1.0:
            raise InvalidDesignError(
                f"psi={self.psi} with p1_high={self.p1_high} would make p2 = p1/psi exceed 1"
            )
        if self.p1_low / self.psi == 0.0:
            raise InvalidDesignError(
                f"psi={self.psi} with p1_low={self.p1_low} would make p2 = p1/psi underflow to 0"
            )


# --------------------------------------------------------------------------
# parameter forms for the column-binomial model

@dataclass(frozen=True)
class BinomialParams:
    """Column-binomial parameters of one stratum.

    ``p1`` is the probability that a mentioned article belongs to the group,
    ``p2`` the same for not-mentioned articles; ``n1``/``n2`` are the fixed
    column sample sizes. The stratum column risk ratio is p1/p2.
    """

    p1: float
    p2: float
    n1: int
    n2: int

    def __post_init__(self) -> None:
        for name in ("p1", "p2"):
            p = _real(name, getattr(self, name))
            if not 0.0 < p <= 1.0:
                raise InvalidDesignError(f"{name} must lie in (0, 1], got {p}")
            object.__setattr__(self, name, p)
        _check_positive_ints(n1=self.n1, n2=self.n2)
        _check_column_totals(n1=self.n1, n2=self.n2)

    def expected_cells(self) -> tuple[float, float, float, float]:
        return (
            self.n1 * self.p1,
            self.n2 * self.p2,
            self.n1 * (1.0 - self.p1),
            self.n2 * (1.0 - self.p2),
        )


def _expected_cells(params: Sequence[BinomialParams]) -> tuple[np.ndarray, ...]:
    if not params:
        raise ValueError("at least one stratum of binomial parameters is required")
    arr = np.array([p.expected_cells() for p in params], dtype=float)
    return arr[:, 0], arr[:, 1], arr[:, 2], arr[:, 3]


def var_skm_log_mhq_true(params: Sequence[BinomialParams]) -> float:
    """Corrected variance of ln(MHq) evaluated at the true binomial parameters.

    Identical to :func:`var_skm_log_mhq` with every cell replaced by its
    expectation, so the data form is exactly the plug-in of this one at the
    empirical proportions.
    """
    a, b, c, d = _expected_cells(params)
    return float(_skm_log_variance(a, b, c, d, _weighted_sums(IndicatorKind.MHQ, a, b, c, d)))


def var_bh_log_mhq_true(params: Sequence[BinomialParams]) -> float:
    """Group-vs-world variance of ln(MHq) at the true binomial parameters."""
    a, b, c, d = _expected_cells(params)
    # the expected cells are not integers, so the group-vs-world tables get
    # their own MHOR sums rather than MHq's (see the variance table)
    world = (a, b, a + c, b + d)
    return float(_rbg_log_variance(*world, _weighted_sums(IndicatorKind.MHOR, *world)))


def _rep_p1s(design: SimulationDesign, *key: int) -> np.ndarray:
    """One Uniform(p1_low, p1_high) draw per stratum (half-open interval), from ``SeedSequence((seed, *key))``."""
    rng = np.random.default_rng(np.random.SeedSequence((design.seed, *key)))
    return rng.uniform(design.p1_low, design.p1_high, size=design.k)


def _inversion_thresholds(n: int, p: float) -> np.ndarray:
    """[-inf, P(X <= 0), ..., P(X <= bound)] for numpy's inversion walk of Bin(n, p), p <= 0.5.

    Each px_x is computed by numpy's own operations, in its order.
    """
    q = 1.0 - p
    mean = n * p
    bound = int(min(n, mean + 10.0 * math.sqrt(mean * q + 1)))
    px = math.exp(n * math.log1p(-p))
    thresholds = [-math.inf, px]
    total = px
    for x in range(1, bound + 1):
        px = ((n - x + 1) * p * px) / (x * q)
        total += px
        thresholds.append(total)
    return np.array(thresholds)


def _binomial(rng: np.random.Generator, n: int, p: float, count: int) -> np.ndarray:
    """``rng.binomial(n, p, size=count)``: the same integers, and ``rng`` left in the same state.

    Columns on numpy's inversion branch are found by threshold lookup (see
    the module docstring); every other column, and any column the lookup
    cannot decide as numpy would, is drawn by ``rng.binomial``.
    """
    small = 1.0 - p if p > 0.5 else p
    if n == 0 or small == 0.0 or small * n > INVERSION_MAX_MEAN or count == 0:
        return rng.binomial(n, p, size=count)
    thresholds = _inversion_thresholds(n, small)  # thresholds[x + 1] = P(X <= x)
    tolerance = INVERSION_TOLERANCE + n * 2.0**-52
    state = rng.bit_generator.state
    u = rng.random(count)
    # past the last threshold, numpy restarts the walk with a fresh uniform
    if u.max() <= thresholds[-1] - tolerance:
        start = np.searchsorted(thresholds, _BUCKET_EDGES)
        index = start[(u * LOOKUP_BUCKETS).astype(np.intp)]
        upper = thresholds[index]
        # uniforms past their bucket's first threshold search the rest
        past = np.flatnonzero(u > upper)
        index[past] = np.searchsorted(thresholds, u[past])
        upper[past] = thresholds[index[past]]
        index -= 1  # the draws: thresholds[x] < u <= thresholds[x + 1]
        lower = thresholds[index]
        upper -= u
        lower -= u
        if upper.min() >= tolerance and lower.max() <= -tolerance:
            return n - index if p > 0.5 else index
    rng.bit_generator.state = state
    return rng.binomial(n, p, size=count)


def _draw_count_matrices_streamed(
    p1s: np.ndarray, p2s: np.ndarray, n1: int, n2: int, count: int, seed: int, first: int
) -> tuple[np.ndarray, np.ndarray]:
    """``count`` datasets as stratum-major (k, count) arrays of mentioned/not-mentioned group counts.

    Both arrays hold the smallest unsigned integer type that fits max(n1, n2).
    Stratum i draws its mentioned column, then its not-mentioned column, from
    ``SeedSequence((seed, first, i))``, each into one contiguous row; ``first``
    is the repetition, or the convergence scale.
    """
    a = np.empty((len(p1s), count), dtype=np.min_scalar_type(max(n1, n2)))
    b = np.empty_like(a)
    for i in range(len(p1s)):
        rng = np.random.default_rng(np.random.SeedSequence((seed, first, i)))
        a[i] = _binomial(rng, n1, float(p1s[i]), count)
        b[i] = _binomial(rng, n2, float(p2s[i]), count)
    return a, b


def _ln_mhq_from_counts(a: np.ndarray, b: np.ndarray, n1: float, n2: float):
    """ln(MHq) per defined dataset, the defined-replicate mask, the dropped count, and MHq's sums.

    ``a`` and ``b`` are (count, k) group-count matrices. Every stratum has the
    column totals a+c = n1 and b+d = n2, so they enter the sums as scalars.
    The sums cover every dataset, defined or not.
    """
    sums = _mhq_sums(a, b, float(n1), float(n2), float(n1 + n2))
    return (*_defined_log_ratio(sums.rt, sums.st), sums)


def _defined_log_ratio(rt: np.ndarray, st: np.ndarray):
    """ln(rt/st) of the datasets whose totals are both positive, their mask, and how many others were dropped."""
    defined = (rt > 0.0) & (st > 0.0)
    return np.log(rt[defined] / st[defined]), defined, int(defined.size - defined.sum())


def _blocks(a: np.ndarray, b: np.ndarray, dtype):
    """Yield each block of datasets of the stratum-major (k, count) ``a`` and ``b`` as (rows, k) ``dtype`` matrices.

    Each block is converted once, to C order, so its rows lie as in a (count,
    k) matrix and every ``axis=-1`` sum adds the same values in the same
    order; integers below 2**53 convert to float64 exactly. Every value
    depends on its own dataset only, so the blocks give the whole batch's bits.
    """
    k, count = a.shape
    step = max(1, BLOCK_CELLS // k)
    for start in range(0, count, step):
        yield a[:, start:start + step].T.astype(dtype, order="C"), b[:, start:start + step].T.astype(dtype, order="C")


def _gathered(blocks, total: int) -> tuple[list[np.ndarray], int]:
    """The per-block arrays of ``blocks``, (array, ..., dropped) tuples, each joined, and the dropped sum.

    Raises ExcessiveDropError when more than MAX_DROP_FRACTION of the
    ``total`` replicates were dropped.
    """
    *parts, drops = zip(*blocks)
    dropped = sum(drops)
    if dropped > MAX_DROP_FRACTION * total:
        raise ExcessiveDropError(
            f"{dropped} of {total} replicates had an undefined MHq "
            f"(> {MAX_DROP_FRACTION:.0%}); the sampling design is too sparse to summarize"
        )
    return [np.concatenate(part) for part in parts], dropped


# --------------------------------------------------------------------------
# study records and summaries

@dataclass(frozen=True)
class BiasRecord:
    rep: int
    true_sd: float
    skm_sd: float
    bh_sd: float
    skm_bias: float
    bh_bias: float


@dataclass(frozen=True)
class CoverageRecord:
    setting: int
    psi: float
    skm_coverage: float
    bh_coverage: float
    skm_mean_width: float
    bh_mean_width: float
    dropped: int


@dataclass(frozen=True)
class ConvergenceRecord:
    scale: int
    mean_abs_dev: float
    mc_se: float
    replicates: int


@dataclass(frozen=True)
class StudySummary:
    """Per-repetition results of one study, serializable to CSV and JSON.

    Output never depends on how many workers produced it: records are keyed
    and ordered by repetition index.
    """

    study: str
    design: SimulationDesign
    records: tuple
    dropped_total: int
    # convergence only: the datasets drawn at each scale, which with the
    # records' scales replaces the design's reps and datasets_per_rep
    replicates: int = 0

    def to_csv(self) -> str:
        # every study has at least one record, and its fields are the columns
        lines = [",".join(f.name for f in fields(self.records[0]))]
        lines.extend(",".join(map(str, astuple(record))) for record in self.records)
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        design = asdict(self.design)
        streams = STREAM_DERIVATION
        if self.study == "convergence":
            del design["datasets_per_rep"], design["reps"]
            design.update(scales=[r.scale for r in self.records], replicates=self.replicates)
            streams = CONVERGENCE_STREAM_DERIVATION
        payload = {
            "study": self.study,
            "design": design,
            "rng": {"algorithm": RNG_ALGORITHM, "streams": streams, "numpy": np.__version__},
            "dropped_total": self.dropped_total,
            "records": [asdict(record) for record in self.records],
        }
        return json.dumps(payload, indent=2)

    def write(self, prefix: str | Path) -> tuple[Path, Path]:
        """Write ``<prefix>.csv`` and ``<prefix>.json``; returns both paths."""
        prefix = Path(prefix)
        prefix.parent.mkdir(parents=True, exist_ok=True)
        # plain concatenation: with_suffix would truncate prefixes like "psi0.2"
        csv_path = prefix.parent / (prefix.name + ".csv")
        json_path = prefix.parent / (prefix.name + ".json")
        write_in_place(csv_path, [self.to_csv()])
        write_in_place(json_path, [self.to_json()])
        return csv_path, json_path


# --------------------------------------------------------------------------
# studies

def _rep_counts(design: SimulationDesign, rep: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Repetition ``rep``'s p1 vector and its stratum-major (k, datasets) counts, on the documented streams."""
    p1s = _rep_p1s(design, rep)
    n1, n2, count = design.n_mentioned, design.n_not_mentioned, design.datasets_per_rep
    return (p1s, *_draw_count_matrices_streamed(p1s, p1s / design.psi, n1, n2, count, design.seed, rep))


def _bias_rep(design: SimulationDesign, rep: int) -> tuple[BiasRecord, int]:
    p1s, a, b = _rep_counts(design, rep)
    n1, n2 = design.n_mentioned, design.n_not_mentioned
    blocks = (_ln_mhq_from_counts(*rows, n1, n2) for rows in _blocks(a, b, np.float64))
    (ln_mhq,), dropped = _gathered(((ln, dropped) for ln, _, dropped, _ in blocks), design.datasets_per_rep)
    if ln_mhq.size < 2:
        raise ExcessiveDropError("fewer than 2 defined replicates; cannot estimate an SD")
    true_sd = float(ln_mhq.std(ddof=1))
    params = [BinomialParams(p1, p1 / design.psi, n1, n2) for p1 in p1s]
    skm_sd = math.sqrt(var_skm_log_mhq_true(params))
    bh_sd = math.sqrt(var_bh_log_mhq_true(params))
    record = BiasRecord(
        rep=rep,
        true_sd=true_sd,
        skm_sd=skm_sd,
        bh_sd=bh_sd,
        skm_bias=skm_sd - true_sd,
        bh_bias=bh_sd - true_sd,
    )
    return record, dropped


def _coverage_terms(a, b, n1: float, n2: float) -> tuple[np.ndarray, ...]:
    """The per-cell terms R and S of ln(MHq), then those of each ``_COVERAGE`` variance, at float64 counts a, b.

    c = n1 - a and d = n2 - b, so every table has the column totals n1, n2.
    """
    sums = _mhq_sums(a, b, n1, n2, n1 + n2)
    c, d = n1 - a, n2 - b
    return (sums.r, sums.s, *(term for entry in _COVERAGE for term in entry.terms(a, b, c, d, sums)))


def _term_table(a: np.ndarray, b: np.ndarray, n1: float, n2: float, max_points: int):
    """The :func:`_coverage_terms` of every (a, b) the strata's count ranges cover; None past ``max_points``.

    For each value of a, the points run from the least to the greatest b of
    the strata whose range of a holds that value, and the runs lie end to
    end (at psi = 0.2 on the desk design, a third fewer than the whole box).
    Returns the float64 (terms, points) table, a.min and ``base``: the
    terms of (a, b) are column base[a - a.min] + b.
    """
    a_low, a_high, b_low, b_high = (f(x, axis=1).tolist() for x in (a, b) for f in (np.min, np.max))
    a0 = min(a_low)
    height = max(a_high) - a0 + 1
    if height > max_points:
        return None
    low = np.full(height, max(b_high))
    high = np.full(height, -1)
    for i in range(len(a_low)):
        held = slice(a_low[i] - a0, a_high[i] - a0 + 1)  # the values of a stratum i's range holds
        low[held] = np.minimum(low[held], b_low[i])
        high[held] = np.maximum(high[held], b_high[i])
    widths = np.maximum(high - low + 1, 0)  # 0 for a value no stratum's range holds
    ends = np.cumsum(widths)
    if ends[-1] > max_points:
        return None
    base = ends - widths - low
    table = np.empty((2 + sum(entry.count for entry in _COVERAGE), ends[-1]))
    # a quarter block of points at a time: _coverage_terms holds about a
    # dozen arrays of that many values alive, 200 KiB against 760 KiB
    step = max(1, BLOCK_CELLS // 4)
    for start in range(0, ends[-1], step):
        columns = np.arange(start, min(start + step, ends[-1]))
        rows = np.searchsorted(ends, columns, side="right")
        terms = _coverage_terms((rows + a0).astype(np.float64), (columns - base[rows]).astype(np.float64), n1, n2)
        for out, term in zip(table[:, start:start + step], terms):
            out[...] = term
    return table, a0, base


def _coverage_blocks(a: np.ndarray, b: np.ndarray, n1: float, n2: float):
    """Yield ln(MHq), its ``_COVERAGE`` variances of each block's defined datasets, and the block's undefined count.

    ``a`` and ``b`` are the stratum-major (k, count) arrays of
    :func:`_draw_count_matrices_streamed`. The terms are looked up in their
    :func:`_term_table`; when it would have more than one point per
    ``LOOKUP_CELLS_PER_POINT`` cells, each block runs the data forms of
    ``_COVERAGE``'s SKM and BH instead (see the module docstring).
    """
    lookup = _term_table(a, b, n1, n2, a.size // LOOKUP_CELLS_PER_POINT)
    if lookup is None:
        for a_rows, b_rows in _blocks(a, b, np.float64):
            ln_mhq, defined, dropped, sums = _ln_mhq_from_counts(a_rows, b_rows, n1, n2)
            # row by row, over every dataset: an undefined one divides by its zero total and is then dropped
            with np.errstate(divide="ignore", invalid="ignore"):
                skm_var = _skm_log_variance(a_rows, b_rows, n1 - a_rows, n2 - b_rows, sums)
                # BH: RBG on the group-vs-world tables (a, b // n1, n2)
                bh_var = _rbg_log_variance(a_rows, b_rows, n1, n2, sums)
            yield ln_mhq, skm_var[defined], bh_var[defined], dropped
        return
    table, a0, base = lookup
    # each row of a gathered term is one dataset, as in the data forms' matrices
    for index, b_rows in _blocks(a, b, np.intp):
        index -= a0
        index = base.take(index)
        index += b_rows
        # one term at a time: gathering all at once would hold BLOCK_CELLS values per term
        totals = np.empty((len(table), len(index)))
        for row, out in zip(table, totals):
            row.take(index).sum(axis=-1, out=out)
        ln_mhq, defined, dropped = _defined_log_ratio(totals[0], totals[1])
        rt, st, *terms = totals[:, defined] if dropped else totals
        terms = iter(terms)  # each variance combines the next `count` totals
        yield ln_mhq, *(entry.combine(rt, st, *itertools.islice(terms, entry.count)) for entry in _COVERAGE), dropped


def _coverage_rep(design: SimulationDesign, rep: int) -> tuple[CoverageRecord, int]:
    _, a, b = _rep_counts(design, rep)
    n1, n2 = float(design.n_mentioned), float(design.n_not_mentioned)
    (ln_mhq, *variances), dropped = _gathered(_coverage_blocks(a, b, n1, n2), design.datasets_per_rep)
    z = NormalDist().inv_cdf(0.975)
    log_psi = math.log(design.psi)

    def coverage_and_width(log_variance: np.ndarray) -> tuple[float, float]:
        half = z * np.sqrt(log_variance)
        low, high = ln_mhq - half, ln_mhq + half
        return float(((low <= log_psi) & (log_psi <= high)).mean()), float((np.exp(high) - np.exp(low)).mean())

    # the coverages, then the mean widths, each in _COVERAGE's order (SKM, BH): the record's field order
    coverage, width = zip(*map(coverage_and_width, variances))
    return CoverageRecord(rep, design.psi, *coverage, *width, dropped), dropped


def worker_count(threads: int, reps: int) -> int:
    """Worker threads for ``threads`` requested: never more than reps or usable CPUs, at least 1.

    The usable CPUs are this process's affinity set where the OS has one
    (``taskset`` narrows it below ``os.cpu_count()``), else the CPU count.
    """
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return max(1, min(threads, reps, cpus))


def _run_reps(work: Callable[[int], object], reps: int, threads: int) -> list:
    """``[work(rep) for rep in range(reps)]``, on a pool of ``worker_count(threads, reps)`` threads.

    With one worker the repetitions run in order on the calling thread.
    """
    _check_positive_ints(threads=threads)
    threads = worker_count(threads, reps)
    if threads == 1:
        return [work(rep) for rep in range(reps)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(work, range(reps)))


def _rep_study(
    study: str, rep_fn: Callable, design: SimulationDesign, threads: int, reps: int | None = None, replicates: int = 0
) -> StudySummary:
    """The summary of ``rep_fn(design, rep)``, a (record, dropped) pair, for ``reps`` reps (the design's by default)."""
    results = _run_reps(functools.partial(rep_fn, design), design.reps if reps is None else reps, threads)
    return StudySummary(
        study=study,
        design=design,
        records=tuple(record for record, _ in results),
        dropped_total=sum(dropped for _, dropped in results),
        replicates=replicates,
    )


def bias_study(design: SimulationDesign, threads: int = 1) -> StudySummary:
    """SD bias of the two variance formulas at the true generating parameters.

    Each repetition draws a fresh p1 vector, measures the ground-truth SD of
    ln(MHq) over ``datasets_per_rep`` simulated datasets, and records formula
    minus truth for both estimators.
    """
    return _rep_study("bias", _bias_rep, design, threads)


def coverage_study(design: SimulationDesign, threads: int = 1) -> StudySummary:
    """Coverage of psi and mean width of the nominal 95% intervals per setting."""
    return _rep_study("coverage", _coverage_rep, design, threads)


def convergence_study(
    design: SimulationDesign, scales: Sequence[int], replicates: int = 1000, threads: int = 1
) -> StudySummary:
    """Mean |MHq - psi| at one p1 draw from ``design`` when its sample sizes are multiplied by each scale.

    Uses the design's k, sample sizes, psi, p1 bounds and seed; its reps and
    datasets_per_rep do not apply. ``scales`` must be distinct positive
    integers that keep each column total times a scale at most 2**53, and
    ``replicates`` an integer of at least 2; these and ``threads`` are
    checked before p1 is drawn. The p1 vector comes from
    ``SeedSequence((seed,))``, and stratum i's counts at scale s from
    ``SeedSequence((seed, s, i))``, so each scale's record depends on the
    seed and that scale alone, and the scales run on up to ``threads``
    threads with the same result.
    """
    _check_positive_ints(replicates=replicates)
    if replicates < 2:
        raise InvalidDesignError(f"need at least 2 replicates, got {replicates}")
    scales = list(scales)
    if not scales:
        raise InvalidDesignError(f"scales must be positive integers, got {scales}")
    _check_positive_ints(**{f"scales[{j}]": s for j, s in enumerate(scales)})
    first = {}
    for j, s in enumerate(scales):
        if first.setdefault(s, j) != j:
            raise InvalidDesignError(f"scales[{j}] repeats scale {s} of scales[{first[s]}]")
    _check_column_totals(**{
        "n_mentioned * scale": design.n_mentioned * max(scales),
        "n_not_mentioned * scale": design.n_not_mentioned * max(scales),
    })
    _check_positive_ints(threads=threads)
    p1s = _rep_p1s(design)

    def scale_record(design: SimulationDesign, index: int) -> tuple[ConvergenceRecord, int]:
        scale, psi = scales[index], design.psi
        n1, n2 = design.n_mentioned * scale, design.n_not_mentioned * scale
        a, b = _draw_count_matrices_streamed(p1s, p1s / psi, n1, n2, replicates, design.seed, scale)
        blocks = (_ln_mhq_from_counts(*rows, n1, n2) for rows in _blocks(a, b, np.float64))
        (mhq,), dropped = _gathered(((sums.rt[d] / sums.st[d], dropped) for _, d, dropped, sums in blocks), replicates)
        deviations = np.abs(mhq - psi)
        record = ConvergenceRecord(
            scale=scale,
            mean_abs_dev=float(deviations.mean()),
            mc_se=float(deviations.std(ddof=1) / math.sqrt(deviations.size)),
            replicates=int(deviations.size),
        )
        return record, dropped

    return _rep_study("convergence", scale_record, design, threads, reps=len(scales), replicates=replicates)
