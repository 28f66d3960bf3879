from __future__ import annotations

import json

import pytest
from hypothesis import strategies as st

from sparsemh import IndicatorKind, StratifiedDataset, StratumTable, filter_informative
from sparsemh.datasets import load_smallworld
from sparsemh.tables import MAX_COUNT

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


def make_dataset(*cells: tuple[int, int, int, int]) -> StratifiedDataset:
    return StratifiedDataset(
        tuple(StratumTable(f"s{i + 1}", a, b, c, d) for i, (a, b, c, d) in enumerate(cells))
    )


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
    return load_smallworld()


@pytest.fixture(scope="session")
def smallworld_filtered(smallworld) -> StratifiedDataset:
    return filter_informative(smallworld)
