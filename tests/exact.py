"""Exact enumeration of tiny column-binomial designs: an oracle for the Monte Carlo harness.

A design of k strata, each with n1 mentioned and n2 not-mentioned articles,
has (n1+1)(n2+1) tables per stratum and that number to the k-th power of
datasets. Each dataset is weighted by its exact probability, the product of
its strata's ``math.comb`` binomial pmfs, and its ln(MHq) and variances come
from the coverage study's own :func:`~sparsemh.simulation._coverage_blocks`.
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np

from sparsemh.simulation import _coverage_blocks


def all_datasets(n1: int, n2: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Every dataset of k strata with column totals n1 and n2 (at most 255), as stratum-major (k, count) a and b."""
    a, b = (x.ravel() for x in np.indices((n1 + 1, n2 + 1), dtype=np.uint8))
    index = np.indices((a.size,) * k).reshape(k, -1)
    return a[index], b[index]


def pmf(n: int, p: float, x: int) -> float:
    return math.comb(n, x) * p**x * (1.0 - p) ** (n - x)


def exact_coverage(n1: int, n2: int, psi: float, p1s) -> tuple[float, float, float]:
    """Exact P(undefined MHq), and the SKM and BH coverage of psi by nominal 95% intervals given a defined MHq.

    Stratum i draws a ~ Bin(n1, p1s[i]) and b ~ Bin(n2, p1s[i] / psi). The
    interval covers psi as the coverage study's does.
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
    z = NormalDist().inv_cdf(0.975)
    log_psi = math.log(psi)

    def coverage(log_variance: np.ndarray) -> float:
        half = z * np.sqrt(log_variance)
        covered = (ln_mhq - half <= log_psi) & (log_psi <= ln_mhq + half)
        return math.fsum(weight[defined][covered]) / math.fsum(weight[defined])

    return math.fsum(weight[~defined]), coverage(skm), coverage(bh)
