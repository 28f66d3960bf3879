from __future__ import annotations

import json

import pytest
from hypothesis import strategies as st

from sparsemh import IndicatorKind, StratifiedDataset, StratumTable, UndefinedIndicatorError, filter_informative
from sparsemh.datasets import smallworld_path
from sparsemh.tables import MAX_COUNT, parse_csv

# the ratio_columns column whose weighted average each indicator is
RATIO_COLUMN = {
    IndicatorKind.MHRR: "row_rr",
    IndicatorKind.MHCR: "col_rr",
    IndicatorKind.MHOR: "odds_ratio",
    IndicatorKind.MHQ: "col_rr",
}


def inversion_edge_ps(n: int) -> list[float]:
    """p values in (0, 1] where numpy's Bin(n, p) sampler switches branch, and near and at 1.

    numpy draws by inversion when n * min(p, 1 - p) <= 30 and by BTPE above;
    these put that product just below, at and just above 30, from either side.
    """
    cut = 30.0 / n
    ps = [cut * (1 - 1e-6), cut, cut * (1 + 1e-6)]
    ps += [1.0 - p for p in ps] + [1.0 - 1e-9, 1.0]
    return [p for p in ps if 0.0 < p <= 1.0]


def katz_var_log_rr(t: StratumTable, orientation: str) -> float:
    """Classical single-table variance of a log risk ratio: the reference for the one-stratum reductions.

    ``column``: 1/a - 1/(a+c) + 1/b - 1/(b+d) (needs a > 0 and b > 0);
    ``row``:    1/a - 1/(a+b) + 1/c - 1/(c+d) (needs a > 0 and c > 0).
    Each pair is evaluated as c/(a(a+c)), which does not cancel when a is
    much larger than c.
    """
    a, b, c, d = t.cells()
    if orientation == "column":
        if a == 0 or b == 0:
            raise UndefinedIndicatorError(
                f"Katz column variance undefined for stratum {t.label!r}: needs a > 0 and b > 0"
            )
        return c / (a * (a + c)) + d / (b * (b + d))
    if orientation == "row":
        if a == 0 or c == 0:
            raise UndefinedIndicatorError(
                f"Katz row variance undefined for stratum {t.label!r}: needs a > 0 and c > 0"
            )
        return b / (a * (a + b)) + d / (c * (c + d))
    raise ValueError(f"orientation must be 'row' or 'column', got {orientation!r}")


def make_dataset(*cells: tuple[int, int, int, int]) -> StratifiedDataset:
    return StratifiedDataset(
        tuple(StratumTable(f"s{i + 1}", a, b, c, d) for i, (a, b, c, d) in enumerate(cells))
    )


def random_positive_dataset(rng, k, high=30):
    """k strata whose four counts are drawn from ``rng`` in 1..high-1."""
    return make_dataset(*(tuple(int(x) for x in rng.integers(1, high, size=4)) for _ in range(k)))


# Mostly zeros: empty rows (a+b = 0 or c+d = 0), b = 0, strata excluded for
# an empty column and single strata are all common, and each exit of analyze
# (a report, an undefined indicator, the empty-row rejection) is frequent.
sparse_count = st.one_of(st.sampled_from([0, 0, 0, 1, 2, 3, 7, 50]), st.integers(0, MAX_COUNT))
sparse_datasets = st.lists(
    st.tuples(sparse_count, sparse_count, sparse_count, sparse_count).filter(any), min_size=1, max_size=8
).map(lambda rows: make_dataset(*rows))


def csv_text(ds: StratifiedDataset) -> str:
    """The retained strata of ``ds`` as canonical CSV; labels must hold no comma or line break."""
    rows = [f"{label},{a},{b},{c},{d}" for label, (a, b, c, d) in zip(ds.labels, ds.counts.tolist())]
    return "\n".join(["stratum,a,b,c,d", *rows]) + "\n"


def json_text(ds: StratifiedDataset) -> str:
    """The retained strata of ``ds`` as a JSON array of stratum objects."""
    return json.dumps([{"stratum": label, **dict(zip("abcd", cells))} for label, cells in zip(ds.labels, ds.counts.tolist())])


@pytest.fixture(scope="session")
def smallworld() -> StratifiedDataset:
    return parse_csv(smallworld_path().read_text(encoding="utf-8"))


@pytest.fixture(scope="session")
def smallworld_filtered(smallworld) -> StratifiedDataset:
    return filter_informative(smallworld)
