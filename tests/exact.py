"""Exact enumeration of tiny column-binomial designs: an oracle for the Monte Carlo harness.

A design of k strata, each with n1 mentioned and n2 not-mentioned articles,
has (n1+1)(n2+1) tables per stratum and that number to the k-th power of
datasets. Each dataset is weighted by its exact probability, the product of
its strata's ``math.comb`` binomial pmfs. :func:`exact_study` takes its
ln(MHq) and variances from the coverage study's own
:func:`~sparsemh.simulation._coverage_blocks`; :func:`exact_interval` takes
any indicator's sums and variance from the variance table.

Moments that factor over strata need no enumeration of datasets: each is
one stratum's expectation over its own (n1+1)(n2+1) grid of tables.
:func:`stratum_moments` and :func:`sparse_bias` give every variance's bias
in the many-strata limit that way, at any k.
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


def binomial_pmfs(n: int, p) -> np.ndarray:
    """The Bin(n, p) pmf at 0..n on the last axis, for each p of the array ``p``, from ``math.comb``."""
    x = np.arange(n + 1)
    comb = np.array([float(math.comb(n, j)) for j in range(n + 1)])
    p = np.asarray(p, dtype=float)[..., None]
    return comb * p**x * (1.0 - p) ** (n - x)


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
    tables = [np.outer(binomial_pmfs(n1, p1), binomial_pmfs(n2, p1 / psi)) for p1 in p1s]
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
    takes its intervals.
    """
    a, b, weight, tables = enumeration(n1, n2, psi, p1s)
    grid_r, grid_s = _grid(kind, method, n1, n2)[:2]  # R_i and S_i of each possible table
    expect_r, expect_s = ([math.fsum((table * terms).ravel()) for table in tables] for terms in (grid_r, grid_s))
    target = math.fsum(expect_r) / math.fsum(expect_s)

    a, b = a.T.astype(float), b.T.astype(float)
    sums, terms = table_terms(kind, method, a, b, n1 - a, n2 - b)
    defined = (sums.rt > 0.0) & (sums.st > 0.0)
    rt, st = sums.rt[defined], sums.st[defined]
    variance = _LOG_VARIANCES[kind, method].combine(rt, st, *(term.sum(axis=-1)[defined] for term in terms))
    half = NormalDist().inv_cdf(0.975) * np.sqrt(variance)
    ln_value = np.log(rt / st)
    log_target = math.log(target)
    covered = (ln_value - half <= log_target) & (log_target <= ln_value + half)
    given = weight[defined] / math.fsum(weight[defined])
    return ExactInterval(math.fsum(weight[~defined]), target, math.fsum(given * covered))


def table_terms(kind: IndicatorKind, method: VarianceMethod, a, b, c, d):
    """``kind``'s sums and ``method``'s per-stratum variance terms on float cells.

    MHCR's entry takes the transposed tables (a, c // b, d), whose MHRR sums
    are MHCR's, as ``_log_variance`` gives them.
    """
    sums = _weighted_sums(kind, a, b, c, d)
    if kind is IndicatorKind.MHCR:
        b, c = c, b
    return sums, _LOG_VARIANCES[kind, method].terms(a, b, c, d, sums)


@functools.cache  # R, S and the terms do not depend on p: one grid per (n1, n2)
def _grid(kind: IndicatorKind, method: VarianceMethod, n1: int, n2: int) -> tuple[np.ndarray, ...]:
    """R, S and the variance's terms of every table (a, b // n1-a, n2-b), as (n1+1, n2+1) arrays indexed by (a, b)."""
    a, b = (x.astype(float) for x in np.indices((n1 + 1, n2 + 1)))
    sums, terms = table_terms(kind, method, a, b, n1 - a, n2 - b)
    return (sums.r, sums.s, *terms)


class StratumMoments(NamedTuple):
    """Exact moments of strata with a ~ Bin(n1, p1) and b ~ Bin(n2, p2), at a target theta.

    U_i = R_i - theta S_i is the estimating function of R/S = theta, and N_i
    the variance's numerator at R = theta S: the variance is sum(N_i) / R**2
    there, since every combine step is linear in its term totals and
    homogeneous of degree -2 in (R, S).
    """

    mean_r: np.ndarray  # E[R_i]
    mean_s: np.ndarray  # E[S_i]
    mean_u: np.ndarray  # E[U_i]
    var_u: np.ndarray  # Var(U_i)
    terms: tuple  # E of each of the variance's per-stratum terms
    mean_n: np.ndarray  # E[N_i] = theta**2 combine(theta, 1, *terms)


def stratum_moments(kind: IndicatorKind, method: VarianceMethod, n1: int, n2: int, p1, p2, theta) -> StratumMoments:
    """The exact :class:`StratumMoments` of ``method``'s variance of ``kind``, one per element of p1, p2 and theta.

    Each expectation is pmf_a F pmf_b over the stratum's grid of tables.
    """
    r, s, *terms = _grid(kind, method, n1, n2)
    pa, pb = binomial_pmfs(n1, p1), binomial_pmfs(n2, p2)
    theta = np.asarray(theta, dtype=float)

    def expect(values: np.ndarray) -> np.ndarray:
        return np.einsum("...a,...ab,...b->...", pa, values, pb)

    u = r - theta[..., None, None] * s
    mean_u = expect(u)
    mean_terms = tuple(map(expect, terms))
    mean_n = theta**2 * _LOG_VARIANCES[kind, method].combine(theta, 1.0, *mean_terms)
    return StratumMoments(expect(r), expect(s), mean_u, expect((u - mean_u[..., None, None]) ** 2), mean_terms, mean_n)


class SparseBias(NamedTuple):
    theta: float  # sum(E[R_i]) / sum(E[S_i]), the target
    sd_bias: float  # sqrt(sum(E[N_i]) / sum(Var(U_i))) - 1: the variance's SD bias as the strata grow


def sparse_bias(kind: IndicatorKind, method: VarianceMethod, n1: int, n2: int, psi: float, p1s) -> SparseBias:
    """``method``'s exact SD bias on ``kind`` in the many-strata limit, for strata with p1s and p2 = p1 / psi.

    ln(R/S) - ln(theta) is sum(U_i) / E[R] to first order, and the strata
    are independent, so the true variance is sum(Var(U_i)) / E[R]**2; the
    variance's own tends to sum(E[N_i]) / E[R]**2.
    """
    p1s = np.asarray(p1s, dtype=float)
    # E[R_i] and E[S_i] do not depend on theta
    first = stratum_moments(kind, method, n1, n2, p1s, p1s / psi, psi)
    theta = math.fsum(first.mean_r) / math.fsum(first.mean_s)
    moments = stratum_moments(kind, method, n1, n2, p1s, p1s / psi, theta)
    return SparseBias(theta, math.sqrt(math.fsum(moments.mean_n) / math.fsum(moments.var_u)) - 1.0)
