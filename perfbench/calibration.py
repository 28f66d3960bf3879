"""Machine-speed calibration for the timing metrics.

The shared machines this benchmark runs on change speed by 10-60% over
seconds to minutes, through contention from other tenants, and that moves
every timing alike. A fixed kernel that does not touch sparsemh is timed
right after each measured op. The op's time is then scaled by
``REF_MS[kind] / (the median of those kernels)``, so that it reads as a time
at one reference speed. The raw times are printed as well.

Different work slows down by different amounts, so the kernel follows the
kind of work. In 10-run trials on a shared VM:

- ``simulate`` studies tracked numpy binomial draws;
- ``analyze`` ops and the import of ``sparsemh.cli`` tracked Python object
  and JSON work plus those draws. Python work alone swung further than
  these ops did, and it over-corrected on fast periods.
"""

from __future__ import annotations

import json
import time

import numpy as np

SHARE = 0.1  # kernel time to spend per unit of measured time
_SEED = np.random.SeedSequence(12345)


def numpy_kernel() -> float:
    """Binomial draws and elementwise float math, like the Monte Carlo studies."""
    x = np.random.default_rng(_SEED).binomial(100, 0.1, size=(900, 30)).astype(float)
    return float((np.log(x + 1.0) / (x + 2.0)).sum())


def mixed_kernel() -> float:
    """Python dicts and JSON, like parse/validate/report, then the numpy kernel."""
    rows = [{"label": f"s{i}", "a": i % 7, "b": i % 11, "ratio": (i % 7 + 1) / (i % 11 + 1)} for i in range(300)]
    return sum(r["ratio"] for r in json.loads(json.dumps(rows, indent=2))) + numpy_kernel()


# kind of work -> kernel, and the kernel's median on a 2-core Xeon VM
# (Python 3.11, numpy 2.4)
KERNELS = {"analyze": mixed_kernel, "setup": mixed_kernel, "sim": numpy_kernel}
REF_MS = {"analyze": 6.0, "setup": 6.0, "sim": 3.0}


def timed_kernel(kind: str) -> float:
    start = time.perf_counter()
    KERNELS[kind]()
    return time.perf_counter() - start
