"""Exact enumeration of tiny column-binomial designs: an oracle for the Monte Carlo harness.

A design of k strata, each with n1 mentioned and n2 not-mentioned articles,
has (n1+1)(n2+1) tables per stratum and that number to the k-th power of
datasets. Each dataset is weighted by its exact probability, the product of
its strata's ``math.comb`` binomial pmfs, and its ln(MHq) and variances come
from the coverage study's own :func:`~sparsemh.simulation._coverage_blocks`.
"""

from __future__ import annotations

import functools
import math
from statistics import NormalDist
from typing import NamedTuple

import numpy as np

from sparsemh.simulation import _coverage_blocks


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


@functools.cache  # several tests check the same designs
def exact_study(n1: int, n2: int, psi: float, p1s) -> ExactStudy:
    """The exact values of a design, from one enumeration of its datasets.

    Stratum i draws a ~ Bin(n1, p1s[i]) and b ~ Bin(n2, p1s[i] / psi). The
    intervals cover psi, and their widths are taken, as the coverage study's
    are.
    """
    a, b = all_datasets(n1, n2, len(p1s))
    weight = np.ones(a.shape[1])
    for a_row, b_row, p1 in zip(a, b, p1s):
        table_weight = np.array([[pmf(n1, p1, x) * pmf(n2, p1 / psi, y) for y in range(n2 + 1)] for x in range(n1 + 1)])
        weight *= table_weight[a_row, b_row]
    assert abs(math.fsum(weight) - 1.0) < 1e-12
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
