"""Column-binomial Monte Carlo studies of the MHq variance estimators.

The generator fixes the column totals of every stratum (n1 mentioned, n2 not
mentioned articles) and draws the group memberships binomially: a ~ Bin(n1,
p1_i) and b ~ Bin(n2, p2_i) with p2_i = p1_i / psi, so the column risk ratio
is exactly psi in every stratum. Three studies are built on top:

* ``bias_study``     -- SD of ln(MHq) over simulated datasets versus the
  corrected and the group-vs-world formulas evaluated at the true parameters;
* ``coverage_study`` -- empirical coverage and width of nominal 95% intervals
  computed from each simulated dataset;
* ``convergence_study`` -- mean |MHq - psi| along a ladder of sample sizes
  (``convergence_check`` is the ladder itself, for a given p1 vector).

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
column totals are fixed, so every per-stratum term that ln(MHq), SKM and BH add up over strata
(R, S, SKM's v, w, q, and BH's pR, pS + qR, qS) is a function of the counts
(a, b) alone. A repetition computes the eight terms once for each point its
strata's count ranges cover, and looks up each cell's terms: for each value
of a, the points run from the least to the greatest b of the strata whose
range of a holds that value. That is a third smaller than the whole box
[a.min..a.max] x [b.min..b.max] at psi = 0.2 on the desk design. The terms
of a block are summed over strata from (rows, k) arrays in C order, the
order of the data forms' matrices, and combined by the data forms' own
functions, so every bit is theirs. When there are more points than an
eighth of the repetition's cells (LOOKUP_CELLS_PER_POINT; wide count ranges,
as with large column totals), looking up stops paying, and each block
converts its counts to float64 and runs the data-form kernels
(_skm_log_variance, _rbg_log_variance) on them instead.

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
returns the first x whose threshold each uniform does not exceed. Numpy's
running subtraction and the running sum each round by at most 2**-54 per
step, over at most 85 steps, so a uniform farther than INVERSION_TOLERANCE
from every threshold gets numpy's x. If any uniform of a column is nearer,
or beyond the last threshold, the generator is rewound and numpy draws the
column itself.
"""

from __future__ import annotations

import functools
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, astuple, dataclass, fields
from pathlib import Path
from statistics import NormalDist
from typing import Callable, Sequence

import numpy as np

from .estimators import _mhq_terms
from .report import write_in_place
from .variance import (
    BinomialParams,
    _mhq_sums,
    _rbg_combine,
    _rbg_terms,
    _skm_combine,
    _skm_terms,
    _rbg_log_variance,
    _skm_log_variance,
    var_bh_log_mhq_true,
    var_skm_log_mhq_true,
)

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

# Largest column total: counts are converted to float64, which holds every
# integer up to 2**53 exactly (and numpy's binomial takes no n beyond int64).
MAX_COLUMN_TOTAL = 2**53

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
# take numpy's decision: a hundred times the 1e-14 that rounding can move it.
# _binomial adds n * 2**-52 for px_0 = (1-p)^n, which numpy 2.4 computes as
# exp(n*log1p(-p)); the textbook exp(n*log(1-p)) differs from it by up to
# n * 2**-53 relative, and the margin covers either form.
INVERSION_TOLERANCE = 1e-12

# Undefined-MHq replicates are dropped and counted; a run is aborted rather
# than silently reported when more than this fraction is lost.
MAX_DROP_FRACTION = 0.01


class InvalidDesignError(ValueError):
    """Simulation design parameters are inconsistent or out of range."""


class ExcessiveDropError(RuntimeError):
    """More replicates were undefined than the reporting contract allows."""


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
        for name in ("k", "n_mentioned", "n_not_mentioned", "datasets_per_rep", "reps"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise InvalidDesignError(f"{name} must be a positive integer, got {value!r}")
        for name in ("n_mentioned", "n_not_mentioned"):
            if getattr(self, name) > MAX_COLUMN_TOTAL:
                raise InvalidDesignError(f"{name} must be at most 2**53, got {getattr(self, name)}")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool) or not 0 <= self.seed < 2**64:
            raise InvalidDesignError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")
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


def draw_p1(design: SimulationDesign, rng: np.random.Generator) -> np.ndarray:
    """One Uniform(p1_low, p1_high) draw per stratum (half-open interval)."""
    return rng.uniform(design.p1_low, design.p1_high, size=design.k)


def _validated_p1_p2(psi: float, p1s: Sequence[float], k: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """``p1s`` as a float vector and p2 = p1/psi, each entry of both checked to lie in (0, 1].

    The vector must hold ``k`` entries, or any positive number of them when
    ``k`` is None.
    """
    if not 0.0 < psi < math.inf:
        raise InvalidDesignError(f"psi must be positive and finite, got {psi}")
    p1s = np.asarray(p1s, dtype=float)
    if p1s.ndim != 1 or p1s.size == 0 or k not in (None, p1s.size):
        raise InvalidDesignError(f"expected {k or 'a non-empty vector of'} p1 values, got shape {p1s.shape}")
    if not np.all((p1s > 0.0) & (p1s <= 1.0)):
        raise InvalidDesignError("every p1 must lie in (0, 1]")
    p2s = p1s / psi
    if not np.all((p2s > 0.0) & (p2s <= 1.0)):
        raise InvalidDesignError(f"p2 = p1/psi must lie in (0, 1]; psi={psi} violates that")
    return p1s, p2s


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


def _draw_counts(
    p1s: np.ndarray,
    p2s: np.ndarray,
    n1: int,
    n2: int,
    count: int,
    stratum_rng: Callable[[int], np.random.Generator],
) -> tuple[np.ndarray, np.ndarray]:
    """``count`` datasets as stratum-major (k, count) arrays of mentioned/not-mentioned group counts.

    Both arrays hold the smallest unsigned integer type that fits max(n1, n2).
    Stratum i draws its mentioned column, then its not-mentioned column, from
    ``stratum_rng(i)``, each into one contiguous row.
    """
    a = np.empty((len(p1s), count), dtype=np.min_scalar_type(max(n1, n2)))
    b = np.empty_like(a)
    for i in range(len(p1s)):
        rng = stratum_rng(i)
        a[i] = _binomial(rng, n1, float(p1s[i]), count)
        b[i] = _binomial(rng, n2, float(p2s[i]), count)
    return a, b


def _draw_count_matrices_streamed(
    design: SimulationDesign, p1s: np.ndarray, rep: int
) -> tuple[np.ndarray, np.ndarray]:
    """Batched draws on the documented per-(rep, stratum) streams."""
    p1s, p2s = _validated_p1_p2(design.psi, p1s, design.k)
    return _draw_counts(
        p1s,
        p2s,
        design.n_mentioned,
        design.n_not_mentioned,
        design.datasets_per_rep,
        lambda i: np.random.default_rng(np.random.SeedSequence((design.seed, rep, i))),
    )


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


def _ln_mhq_blocks(a: np.ndarray, b: np.ndarray, n1: float, n2: float):
    """Yield each block of datasets as float64 (rows, k) matrices a, b and _ln_mhq_from_counts of them.

    ``a`` and ``b`` are the stratum-major (k, count) arrays of
    :func:`_draw_counts`. Each block is converted once, to C order, so its
    rows lie as in a float64 (count, k) matrix and every ``axis=-1`` sum
    adds the same values in the same order; integers below 2**53 convert
    exactly. Every value depends on its own dataset only, so the blocks give
    the same bits as the whole batch would.
    """
    k, count = a.shape
    step = max(1, BLOCK_CELLS // k)
    for start in range(0, count, step):
        a_rows = a[:, start:start + step].T.astype(np.float64, order="C")
        b_rows = b[:, start:start + step].T.astype(np.float64, order="C")
        yield a_rows, b_rows, _ln_mhq_from_counts(a_rows, b_rows, n1, n2)


def _check_drop_rate(dropped: int, total: int) -> None:
    if dropped > MAX_DROP_FRACTION * total:
        raise ExcessiveDropError(
            f"{dropped} of {total} replicates had an undefined MHq "
            f"(> {MAX_DROP_FRACTION:.0%}); the sampling design is too sparse to summarize"
        )


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


# each study's record class; its fields are the CSV columns, in order
_RECORD_CLASS = {
    "bias": BiasRecord,
    "coverage": CoverageRecord,
    "width": CoverageRecord,
    "convergence": ConvergenceRecord,
}


def _csv_cell(value: object) -> str:
    return repr(value) if isinstance(value, float) else str(value)


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
        lines = [",".join(f.name for f in fields(_RECORD_CLASS[self.study]))]
        lines.extend(",".join(map(_csv_cell, astuple(record))) for record in self.records)
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

def _rep_p1s(design: SimulationDesign, rep: int) -> np.ndarray:
    rng = np.random.default_rng(np.random.SeedSequence((design.seed, rep)))
    return draw_p1(design, rng)


def _bias_rep(design: SimulationDesign, rep: int) -> tuple[BiasRecord, int]:
    p1s = _rep_p1s(design, rep)
    a, b = _draw_count_matrices_streamed(design, p1s, rep)
    ln_parts, dropped = [], 0
    for _, _, (ln_part, _, block_dropped, _) in _ln_mhq_blocks(a, b, design.n_mentioned, design.n_not_mentioned):
        ln_parts.append(ln_part)
        dropped += block_dropped
    _check_drop_rate(dropped, design.datasets_per_rep)
    ln_mhq = np.concatenate(ln_parts)
    if ln_mhq.size < 2:
        raise ExcessiveDropError("fewer than 2 defined replicates; cannot estimate an SD")
    true_sd = float(ln_mhq.std(ddof=1))
    params = [
        BinomialParams(float(p1), float(p1 / design.psi), design.n_mentioned, design.n_not_mentioned)
        for p1 in p1s
    ]
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
    """The per-cell terms R, S, v, w, q, pR, pS + qR, qS of ln(MHq), SKM and BH at float64 counts a, b.

    c = n1 - a and d = n2 - b; BH's terms are those of the group-vs-world
    tables (a, b // n1, n2), whose MHOR sums are MHq's.
    """
    n = n1 + n2
    m = a + b + n
    r, s = _mhq_terms(a, b, n1, n2, m)
    return (r, s, *_skm_terms(a, b, n1 - a, n2 - b, n1, n2, n, m), *_rbg_terms(a, b, n1, n2, m, r, s))


def _term_table(a: np.ndarray, b: np.ndarray, n1: float, n2: float, max_points: int):
    """The :func:`_coverage_terms` of every (a, b) the strata's count ranges cover; None past ``max_points``.

    For each value of a, the points run from the least to the greatest b of
    the strata whose range of a holds that value, and the runs lie end to
    end. Returns the float64 (8, points) table, a.min and ``base``: the
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
    table = np.empty((8, ends[-1]))
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
    """Yield ln(MHq), its SKM and BH variances of each block's defined datasets, and the block's undefined count.

    ``a`` and ``b`` are the stratum-major (k, count) arrays of
    :func:`_draw_counts`. The terms are looked up in their
    :func:`_term_table`; when it would have more than one point per
    ``LOOKUP_CELLS_PER_POINT`` cells, each block runs the data-form kernels
    instead (see the module docstring).
    """
    lookup = _term_table(a, b, n1, n2, a.size // LOOKUP_CELLS_PER_POINT)
    if lookup is None:
        for a_rows, b_rows, (ln_mhq, defined, dropped, sums) in _ln_mhq_blocks(a, b, n1, n2):
            if dropped:
                a_rows, b_rows, sums = a_rows[defined], b_rows[defined], sums.rows(defined)
            skm_var = _skm_log_variance(a_rows, b_rows, n1 - a_rows, n2 - b_rows, n1, n2, n1 + n2, sums)
            yield ln_mhq, skm_var, _rbg_log_variance(a_rows, b_rows, n1, n2, sums), dropped
        return
    table, a0, base = lookup
    k, count = a.shape
    step = max(1, BLOCK_CELLS // k)
    for start in range(0, count, step):
        block = slice(start, start + step)
        # in C order, like _ln_mhq_blocks' matrices, so each row of a gathered term is one dataset
        index = a[:, block].T.astype(np.intp, order="C")
        index -= a0
        index = base.take(index)
        index += b[:, block].T.astype(np.intp)
        # one term at a time: a gather of all eight would hold 8 * BLOCK_CELLS values
        totals = np.empty((8, len(index)))
        for row, out in zip(table, totals):
            row.take(index).sum(axis=-1, out=out)
        ln_mhq, defined, dropped = _defined_log_ratio(totals[0], totals[1])
        rt, st, vt, wt, qt, prt, pqt, qst = totals[:, defined] if dropped else totals
        yield ln_mhq, _skm_combine(rt, st, vt, wt, qt), _rbg_combine(rt, st, prt, pqt, qst), dropped


def _coverage_rep(design: SimulationDesign, rep: int) -> tuple[CoverageRecord, int]:
    p1s = _rep_p1s(design, rep)
    a, b = _draw_count_matrices_streamed(design, p1s, rep)
    n1, n2 = float(design.n_mentioned), float(design.n_not_mentioned)
    ln_parts, skm_parts, bh_parts, drops = zip(*_coverage_blocks(a, b, n1, n2))
    dropped = sum(drops)
    _check_drop_rate(dropped, design.datasets_per_rep)
    ln_mhq = np.concatenate(ln_parts)
    if ln_mhq.size == 0:
        raise ExcessiveDropError("no defined replicates; cannot estimate coverage")
    z = NormalDist().inv_cdf(0.975)
    log_psi = math.log(design.psi)
    skm_half = z * np.sqrt(np.concatenate(skm_parts))
    bh_half = z * np.sqrt(np.concatenate(bh_parts))
    record = CoverageRecord(
        setting=rep,
        psi=design.psi,
        skm_coverage=float(((ln_mhq - skm_half <= log_psi) & (log_psi <= ln_mhq + skm_half)).mean()),
        bh_coverage=float(((ln_mhq - bh_half <= log_psi) & (log_psi <= ln_mhq + bh_half)).mean()),
        skm_mean_width=float((np.exp(ln_mhq + skm_half) - np.exp(ln_mhq - skm_half)).mean()),
        bh_mean_width=float((np.exp(ln_mhq + bh_half) - np.exp(ln_mhq - bh_half)).mean()),
        dropped=dropped,
    )
    return record, dropped


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
    threads = worker_count(threads, reps)
    if threads == 1:
        return [work(rep) for rep in range(reps)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(work, range(reps)))


def _rep_study(study: str, rep_fn: Callable, design: SimulationDesign, threads: int) -> StudySummary:
    """The summary of ``rep_fn(design, rep)``, a (record, dropped) pair, over the design's repetitions."""
    results = _run_reps(functools.partial(rep_fn, design), design.reps, threads)
    return StudySummary(
        study=study,
        design=design,
        records=tuple(record for record, _ in results),
        dropped_total=sum(dropped for _, dropped in results),
    )


def bias_study(design: SimulationDesign, threads: int = 1) -> StudySummary:
    """SD bias of the two variance formulas at the true generating parameters.

    Each repetition draws a fresh p1 vector, measures the ground-truth SD of
    ln(MHq) over ``datasets_per_rep`` simulated datasets, and records formula
    minus truth for both estimators.
    """
    return _rep_study("bias", _bias_rep, design, threads)


def coverage_study(design: SimulationDesign, threads: int = 1, study: str = "coverage") -> StudySummary:
    """Coverage of psi and mean width of the nominal 95% intervals per setting."""
    if study not in ("coverage", "width"):
        raise ValueError(f"study must be 'coverage' or 'width', got {study!r}")
    return _rep_study(study, _coverage_rep, design, threads)


def convergence_check(
    psi: float,
    p1s: Sequence[float],
    n_mentioned: int,
    n_not_mentioned: int,
    scales: Sequence[int],
    seed: int,
    replicates: int = 1000,
    threads: int = 1,
) -> tuple[ConvergenceRecord, ...]:
    """Mean |MHq - psi| when all sample sizes are multiplied by each scale.

    Parameters must be homogeneous by construction (p2_i = p1_i / psi), which
    is what makes psi the common column risk ratio being estimated. The
    counts of stratum i at scale s come from ``SeedSequence((seed, s, i))``,
    so each scale's record depends on the seed and that scale alone, and the
    scales run on up to ``threads`` threads with the same result.
    """
    p1s, p2s = _validated_p1_p2(psi, p1s)
    if n_mentioned < 1 or n_not_mentioned < 1:
        raise InvalidDesignError("base sample sizes must be positive")
    if replicates < 2:
        raise InvalidDesignError(f"need at least 2 replicates, got {replicates}")
    scales = [int(s) for s in scales]
    if not scales or any(s < 1 for s in scales):
        raise InvalidDesignError(f"scales must be positive integers, got {scales}")
    for name, n in (("n_mentioned", n_mentioned), ("n_not_mentioned", n_not_mentioned)):
        if n * max(scales) > MAX_COLUMN_TOTAL:
            raise InvalidDesignError(f"{name} * scale must be at most 2**53, got {n} * {max(scales)}")

    def scale_record(index: int) -> ConvergenceRecord:
        scale = scales[index]
        n1 = n_mentioned * scale
        n2 = n_not_mentioned * scale
        a, b = _draw_counts(
            p1s, p2s, n1, n2, replicates,
            lambda i: np.random.default_rng(np.random.SeedSequence((seed, scale, i))),
        )
        ratios, dropped = [], 0
        for _, _, (_, defined, block_dropped, sums) in _ln_mhq_blocks(a, b, n1, n2):
            ratios.append(sums.rt[defined] / sums.st[defined])
            dropped += block_dropped
        _check_drop_rate(dropped, replicates)
        deviations = np.abs(np.concatenate(ratios) - psi)
        return ConvergenceRecord(
            scale=scale,
            mean_abs_dev=float(deviations.mean()),
            mc_se=float(deviations.std(ddof=1) / math.sqrt(deviations.size)),
            replicates=int(deviations.size),
        )

    return tuple(_run_reps(scale_record, len(scales), threads))


def convergence_study(
    design: SimulationDesign, scales: Sequence[int], replicates: int = 1000, threads: int = 1
) -> StudySummary:
    """:func:`convergence_check` at one p1 draw from ``design``, on the streams described above.

    Uses the design's k, sample sizes, psi, p1 bounds and seed; its reps and
    datasets_per_rep do not apply.
    """
    p1s = draw_p1(design, np.random.default_rng(np.random.SeedSequence((design.seed,))))
    records = convergence_check(
        design.psi, p1s, design.n_mentioned, design.n_not_mentioned, scales, design.seed,
        replicates=replicates, threads=threads,
    )
    return StudySummary(
        study="convergence",
        design=design,
        records=records,
        dropped_total=sum(replicates - r.replicates for r in records),
        replicates=replicates,
    )
