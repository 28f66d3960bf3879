"""Column-binomial Monte Carlo studies of the MHq variance estimators.

The generator fixes the column totals of every stratum (n1 mentioned, n2 not
mentioned articles) and draws the group memberships binomially: a ~ Bin(n1,
p1_i) and b ~ Bin(n2, p2_i) with p2_i = p1_i / psi, so the column risk ratio
is exactly psi in every stratum. Three studies are built on top:

* ``bias_study``     -- SD of ln(MHq) over simulated datasets versus the
  corrected and the group-vs-world formulas evaluated at the true parameters;
* ``coverage_study`` -- empirical coverage and width of nominal 95% intervals
  computed from each simulated dataset;
* ``convergence_check`` -- mean |MHq - psi| along a ladder of sample sizes.

Reproducibility contract: every stream is PCG64, derived from the master
seed alone. For repetition r, the p1 vector comes from
``SeedSequence((seed, r))``; the counts of stratum i come from
``SeedSequence((seed, r, i))`` with the mentioned column drawn before the
not-mentioned column. Repetitions are therefore independent of worker
scheduling, and results are bit-identical for any thread count.
"""

from __future__ import annotations

import functools
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path
from statistics import NormalDist
from typing import Callable, Sequence

import numpy as np

from .tables import StratifiedDataset, StratumTable
from .variance import (
    BinomialParams,
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
        if not isinstance(self.seed, int) or isinstance(self.seed, bool) or not 0 <= self.seed < 2**64:
            raise InvalidDesignError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")
        if not self.psi > 0.0:
            raise InvalidDesignError(f"psi must be positive, got {self.psi}")
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


def _validated_p2(design: SimulationDesign, p1s: np.ndarray) -> np.ndarray:
    p1s = np.asarray(p1s, dtype=float)
    if p1s.shape != (design.k,):
        raise InvalidDesignError(f"expected {design.k} p1 values, got shape {p1s.shape}")
    if np.any(p1s <= 0.0) or np.any(p1s > 1.0):
        raise InvalidDesignError("every p1 must lie in (0, 1]")
    p2 = p1s / design.psi
    if np.any(p2 > 1.0) or np.any(p2 <= 0.0):
        raise InvalidDesignError(f"p2 = p1/psi must lie in (0, 1]; psi={design.psi} violates that")
    return p2


def generate_dataset(
    design: SimulationDesign, p1s: np.ndarray, rng: np.random.Generator
) -> StratifiedDataset:
    """Draw one stratified dataset; column totals are fixed by construction."""
    p2 = _validated_p2(design, p1s)
    strata = []
    for i in range(design.k):
        a = int(rng.binomial(design.n_mentioned, float(p1s[i])))
        b = int(rng.binomial(design.n_not_mentioned, float(p2[i])))
        strata.append(
            StratumTable(
                label=f"stratum{i + 1}",
                a=a,
                b=b,
                c=design.n_mentioned - a,
                d=design.n_not_mentioned - b,
            )
        )
    return StratifiedDataset(tuple(strata))


def _draw_counts(
    p1s: np.ndarray,
    p2s: np.ndarray,
    n1: int,
    n2: int,
    count: int,
    stratum_rng: Callable[[int], np.random.Generator],
) -> tuple[np.ndarray, np.ndarray]:
    """``count`` datasets as (count, k) matrices of mentioned/not-mentioned group counts.

    Stratum i draws its mentioned column, then its not-mentioned column, from
    ``stratum_rng(i)``.
    """
    a = np.empty((count, len(p1s)))
    b = np.empty((count, len(p1s)))
    for i in range(len(p1s)):
        rng = stratum_rng(i)
        a[:, i] = rng.binomial(n1, float(p1s[i]), size=count)
        b[:, i] = rng.binomial(n2, float(p2s[i]), size=count)
    return a, b


def _draw_count_matrices(
    design: SimulationDesign, p1s: np.ndarray, rng: np.random.Generator, count: int
) -> tuple[np.ndarray, np.ndarray]:
    """Batched draws consuming the single generator ``rng`` stratum by stratum."""
    p2 = _validated_p2(design, p1s)
    return _draw_counts(
        np.asarray(p1s, dtype=float), p2, design.n_mentioned, design.n_not_mentioned, count, lambda i: rng
    )


def _draw_count_matrices_streamed(
    design: SimulationDesign, p1s: np.ndarray, rep: int
) -> tuple[np.ndarray, np.ndarray]:
    """Batched draws on the documented per-(rep, stratum) streams."""
    p2 = _validated_p2(design, p1s)
    return _draw_counts(
        np.asarray(p1s, dtype=float),
        p2,
        design.n_mentioned,
        design.n_not_mentioned,
        design.datasets_per_rep,
        lambda i: np.random.default_rng(np.random.SeedSequence((design.seed, rep, i))),
    )


def _mhq_sums(a: np.ndarray, b: np.ndarray, n1: int, n2: int) -> tuple[np.ndarray, np.ndarray]:
    """MHq numerator and denominator sums per dataset of (count, k) group-count matrices.

    The MHq terms with the column totals a+c = n1 and b+d = n2 held fixed.
    """
    m = a + b + float(n1 + n2)
    return (a * n2 / m).sum(axis=1), (b * n1 / m).sum(axis=1)


def _ln_mhq_from_counts(
    a: np.ndarray, b: np.ndarray, n1: int, n2: int
) -> tuple[np.ndarray, np.ndarray, int]:
    """ln(MHq) per dataset, the defined-replicate mask, and the dropped count."""
    r, s = _mhq_sums(a, b, n1, n2)
    defined = (r > 0.0) & (s > 0.0)
    dropped = int(defined.size - defined.sum())
    return np.log(r[defined] / s[defined]), defined, dropped


def _check_drop_rate(dropped: int, total: int) -> None:
    if dropped > MAX_DROP_FRACTION * total:
        raise ExcessiveDropError(
            f"{dropped} of {total} replicates had an undefined MHq "
            f"(> {MAX_DROP_FRACTION:.0%}); the sampling design is too sparse to summarize"
        )


def ground_truth_sd(
    design: SimulationDesign, p1s: np.ndarray, rng: np.random.Generator
) -> float:
    """Sample SD (ddof=1) of ln(MHq) over ``datasets_per_rep`` fresh datasets.

    Replicates with an undefined MHq are dropped; the run aborts if they
    exceed :data:`MAX_DROP_FRACTION`.
    """
    a, b = _draw_count_matrices(design, p1s, rng, design.datasets_per_rep)
    ln_mhq, _, dropped = _ln_mhq_from_counts(a, b, design.n_mentioned, design.n_not_mentioned)
    _check_drop_rate(dropped, design.datasets_per_rep)
    if ln_mhq.size < 2:
        raise ExcessiveDropError("fewer than 2 defined replicates; cannot estimate an SD")
    return float(ln_mhq.std(ddof=1))


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


_CSV_COLUMNS = {
    "bias": ("rep", "true_sd", "skm_sd", "bh_sd", "skm_bias", "bh_bias"),
    "coverage": ("setting", "psi", "skm_coverage", "bh_coverage", "skm_mean_width", "bh_mean_width", "dropped"),
    "width": ("setting", "psi", "skm_coverage", "bh_coverage", "skm_mean_width", "bh_mean_width", "dropped"),
    "convergence": ("scale", "mean_abs_dev", "mc_se", "replicates"),
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

    @property
    def columns(self) -> tuple[str, ...]:
        return _CSV_COLUMNS[self.study]

    def to_csv(self) -> str:
        lines = [",".join(self.columns)]
        for record in self.records:
            values = asdict(record)
            lines.append(",".join(_csv_cell(values[col]) for col in self.columns))
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        payload = {
            "study": self.study,
            "design": asdict(self.design),
            "rng": {"algorithm": RNG_ALGORITHM, "streams": STREAM_DERIVATION},
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
        csv_path.write_text(self.to_csv(), encoding="utf-8")
        json_path.write_text(self.to_json(), encoding="utf-8")
        return csv_path, json_path


# --------------------------------------------------------------------------
# studies

def _rep_p1s(design: SimulationDesign, rep: int) -> np.ndarray:
    rng = np.random.default_rng(np.random.SeedSequence((design.seed, rep)))
    return draw_p1(design, rng)


def _bias_rep(design: SimulationDesign, rep: int) -> tuple[BiasRecord, int]:
    p1s = _rep_p1s(design, rep)
    a, b = _draw_count_matrices_streamed(design, p1s, rep)
    ln_mhq, _, dropped = _ln_mhq_from_counts(a, b, design.n_mentioned, design.n_not_mentioned)
    _check_drop_rate(dropped, design.datasets_per_rep)
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


def _coverage_rep(design: SimulationDesign, rep: int) -> tuple[CoverageRecord, int]:
    p1s = _rep_p1s(design, rep)
    a, b = _draw_count_matrices_streamed(design, p1s, rep)
    ln_mhq, defined, dropped = _ln_mhq_from_counts(a, b, design.n_mentioned, design.n_not_mentioned)
    _check_drop_rate(dropped, design.datasets_per_rep)
    if ln_mhq.size == 0:
        raise ExcessiveDropError("no defined replicates; cannot estimate coverage")

    a = a[defined]
    b = b[defined]
    c = design.n_mentioned - a
    d = design.n_not_mentioned - b
    z = NormalDist().inv_cdf(0.975)
    log_psi = math.log(design.psi)

    skm_half = z * np.sqrt(_skm_log_variance(a, b, c, d))
    bh_half = z * np.sqrt(_rbg_log_variance(a, b, a + c, b + d))
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


def _run_reps(
    rep_fn: Callable[[SimulationDesign, int], tuple], design: SimulationDesign, threads: int
) -> list[tuple]:
    if threads <= 1:
        return [rep_fn(design, rep) for rep in range(design.reps)]
    with ProcessPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(functools.partial(rep_fn, design), range(design.reps)))


def bias_study(design: SimulationDesign, threads: int = 1) -> StudySummary:
    """SD bias of the two variance formulas at the true generating parameters.

    Each repetition draws a fresh p1 vector, measures the ground-truth SD of
    ln(MHq) over ``datasets_per_rep`` simulated datasets, and records formula
    minus truth for both estimators.
    """
    results = _run_reps(_bias_rep, design, threads)
    return StudySummary(
        study="bias",
        design=design,
        records=tuple(record for record, _ in results),
        dropped_total=sum(dropped for _, dropped in results),
    )


def coverage_study(design: SimulationDesign, threads: int = 1, study: str = "coverage") -> StudySummary:
    """Coverage of psi and mean width of the nominal 95% intervals per setting."""
    if study not in ("coverage", "width"):
        raise ValueError(f"study must be 'coverage' or 'width', got {study!r}")
    results = _run_reps(_coverage_rep, design, threads)
    return StudySummary(
        study=study,
        design=design,
        records=tuple(record for record, _ in results),
        dropped_total=sum(dropped for _, dropped in results),
    )


def convergence_check(
    psi: float,
    p1s: Sequence[float],
    n_mentioned: int,
    n_not_mentioned: int,
    scales: Sequence[int],
    rng: np.random.Generator,
    replicates: int = 1000,
) -> tuple[ConvergenceRecord, ...]:
    """Mean |MHq - psi| when all sample sizes are multiplied by each scale.

    Parameters must be homogeneous by construction (p2_i = p1_i / psi), which
    is what makes psi the common column risk ratio being estimated.
    """
    if psi <= 0.0:
        raise InvalidDesignError(f"psi must be positive, got {psi}")
    if n_mentioned < 1 or n_not_mentioned < 1:
        raise InvalidDesignError("base sample sizes must be positive")
    if replicates < 2:
        raise InvalidDesignError(f"need at least 2 replicates, got {replicates}")
    scales = [int(s) for s in scales]
    if not scales or any(s < 1 for s in scales):
        raise InvalidDesignError(f"scales must be positive integers, got {scales}")

    p1s = np.asarray(p1s, dtype=float)
    if p1s.ndim != 1 or p1s.size == 0 or np.any(p1s <= 0.0) or np.any(p1s > 1.0):
        raise InvalidDesignError("p1 values must be a non-empty vector with entries in (0, 1]")
    p2s = p1s / psi
    if np.any(p2s > 1.0):
        raise InvalidDesignError(f"p2 = p1/psi must lie in (0, 1]; psi={psi} violates that")

    records = []
    for scale in scales:
        n1 = n_mentioned * scale
        n2 = n_not_mentioned * scale
        a, b = _draw_counts(p1s, p2s, n1, n2, replicates, lambda i: rng)
        r, s = _mhq_sums(a, b, n1, n2)
        defined = (r > 0.0) & (s > 0.0)
        dropped = int(defined.size - defined.sum())
        _check_drop_rate(dropped, replicates)
        deviations = np.abs(r[defined] / s[defined] - psi)
        records.append(
            ConvergenceRecord(
                scale=scale,
                mean_abs_dev=float(deviations.mean()),
                mc_se=float(deviations.std(ddof=1) / math.sqrt(deviations.size)),
                replicates=int(deviations.size),
            )
        )
    return tuple(records)
