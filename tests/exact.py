"""Exact enumeration of tiny column-binomial designs: an oracle for the Monte Carlo harness.

A design of k strata, each with n1 mentioned and n2 not-mentioned articles,
has (n1+1)(n2+1) tables per stratum and that number to the k-th power of
datasets. Each dataset is weighted by its exact probability, the product of
its strata's ``math.comb`` binomial pmfs. :func:`exact_study` takes its
ln(MHq) and variances from the coverage study's own
:func:`~sparsemh.simulation._coverage_blocks`; :func:`exact_interval` takes
any indicator's sums and variance from the variance table.
"""

from __future__ import annotations

import functools
import math
from statistics import NormalDist
from typing import NamedTuple

import numpy as np

from sparsemh.estimators import IndicatorKind, _weighted_sums
from sparsemh.simulation import _coverage_blocks
from sparsemh.variance import _LOG_VARIANCES, VarianceMethod


def all_datasets(n1: int, n2: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Every dataset of k strata with column totals n1 and n2 (at most 255), as stratum-major (k, count) a and b."""
    a, b = (x.ravel() for x in np.indices((n1 + 1, n2 + 1), dtype=np.uint8))
    index = np.indices((a.size,) * k).reshape(k, -1)
    return a[index], b[index]


def pmf(n: int, p: float, x: int) -> float:
    return math.comb(n, x) * p**x * (1.0 - p) ** (n - x)


class ExactStudy(NamedTuple):
    """A design's exact P(undefined MHq); every other value is given a defined MHq."""

    undefined: float
    skm_coverage: float  # of psi by the nominal 95% interval
    bh_coverage: float
    mean: float  # of ln MHq
    sd: float
    mu4: float  # the fourth central moment of ln MHq
    skm_width: float  # the mean of exp(high) - exp(low)
    bh_width: float
    skm_width_sd: float
    bh_width_sd: float


@functools.cache  # several tests and helpers enumerate the same designs
def enumeration(n1: int, n2: int, psi: float, p1s) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[np.ndarray]]:
    """A design's datasets as stratum-major (k, count) a and b, each one's exact probability, and each stratum's pmf.

    Stratum i draws a ~ Bin(n1, p1s[i]) and b ~ Bin(n2, p1s[i] / psi); its
    pmf is an (n1+1, n2+1) array indexed by (a, b).
    """
    a, b = all_datasets(n1, n2, len(p1s))
    tables = [
        np.array([[pmf(n1, p1, x) * pmf(n2, p1 / psi, y) for y in range(n2 + 1)] for x in range(n1 + 1)]) for p1 in p1s
    ]
    weight = np.ones(a.shape[1])
    for a_row, b_row, table_weight in zip(a, b, tables):
        weight *= table_weight[a_row, b_row]
    assert abs(math.fsum(weight) - 1.0) < 1e-12
    return a, b, weight, tables


@functools.cache  # several tests check the same designs
def exact_study(n1: int, n2: int, psi: float, p1s) -> ExactStudy:
    """The exact values of a design, from its :func:`enumeration`.

    The intervals cover psi, and their widths are taken, as the coverage
    study's are.
    """
    a, b, weight, _ = enumeration(n1, n2, psi, p1s)
    *arrays, drops = zip(*_coverage_blocks(a, b, float(n1), float(n2)))
    ln_mhq, skm, bh = map(np.concatenate, arrays)
    defined = (a.sum(axis=0) > 0) & (b.sum(axis=0) > 0)  # some a and some b: R and S both positive
    assert sum(drops) == int((~defined).sum()) and ln_mhq.size == int(defined.sum())
    given = weight[defined] / math.fsum(weight[defined])
    z = NormalDist().inv_cdf(0.975)
    log_psi = math.log(psi)

    def expect(values: np.ndarray) -> float:
        return math.fsum(given * values)

    def coverage_and_width(log_variance: np.ndarray) -> tuple[float, float, float]:
        half = z * np.sqrt(log_variance)
        low, high = ln_mhq - half, ln_mhq + half
        width = np.exp(high) - np.exp(low)
        mean_width = expect(width)
        return expect((low <= log_psi) & (log_psi <= high)), mean_width, math.sqrt(expect((width - mean_width) ** 2))

    mean = expect(ln_mhq)
    deviation = ln_mhq - mean
    (skm_coverage, skm_width, skm_width_sd), (bh_coverage, bh_width, bh_width_sd) = map(coverage_and_width, (skm, bh))
    return ExactStudy(
        math.fsum(weight[~defined]),
        skm_coverage,
        bh_coverage,
        mean,
        math.sqrt(expect(deviation**2)),
        expect(deviation**4),
        skm_width,
        bh_width,
        skm_width_sd,
        bh_width_sd,
    )


class ExactInterval(NamedTuple):
    """An indicator's exact P(undefined) and target; the coverage is given a defined value."""

    undefined: float  # P(the R or S total is 0)
    target: float  # sum(E[R_i]) / sum(E[S_i]), each E[R_i] and E[S_i] over the stratum's own tables
    coverage: float  # of the target by the nominal 95% interval


@functools.cache
def exact_interval(kind: IndicatorKind, method: VarianceMethod, n1: int, n2: int, psi: float, p1s) -> ExactInterval:
    """The exact values of ``method``'s interval on ``kind`` over a design's :func:`enumeration`.

    The interval is ln(R/S) +- z sqrt(var), with the sums and the variance
    table's entry taken on each dataset's float cells, as the coverage study
    takes its intervals. MHCR is refused: its variance entry expects the
    transposed tables.
    """
    if kind is IndicatorKind.MHCR:
        raise ValueError("MHCR's GR entry takes the transposed tables")
    a, b, weight, tables = enumeration(n1, n2, psi, p1s)
    grid_a, grid_b = (x.ravel().astype(float) for x in np.indices((n1 + 1, n2 + 1)))
    grid = _weighted_sums(kind, grid_a, grid_b, n1 - grid_a, n2 - grid_b)  # R_i and S_i of each possible table
    expect_r, expect_s = ([math.fsum(table.ravel() * terms) for table in tables] for terms in (grid.r, grid.s))
    target = math.fsum(expect_r) / math.fsum(expect_s)

    a, b = a.T.astype(float), b.T.astype(float)
    cells = (a, b, n1 - a, n2 - b)
    sums = _weighted_sums(kind, *cells)
    defined = (sums.rt > 0.0) & (sums.st > 0.0)
    sums = sums.rows(defined)
    half = NormalDist().inv_cdf(0.975) * np.sqrt(_LOG_VARIANCES[kind, method](*(x[defined] for x in cells), sums))
    ln_value = np.log(sums.rt / sums.st)
    log_target = math.log(target)
    covered = (ln_value - half <= log_target) & (log_target <= ln_value + half)
    given = weight[defined] / math.fsum(weight[defined])
    return ExactInterval(math.fsum(weight[~defined]), target, math.fsum(given * covered))
