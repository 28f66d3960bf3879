from __future__ import annotations

import pytest

from sparsemh import IndicatorKind, StratifiedDataset, StratumTable, filter_informative
from sparsemh.datasets import load_smallworld

# the ratio_columns column whose weighted average each indicator is
RATIO_COLUMN = {
    IndicatorKind.MHRR: "row_rr",
    IndicatorKind.MHCR: "col_rr",
    IndicatorKind.MHOR: "odds_ratio",
    IndicatorKind.MHQ: "col_rr",
}


def make_dataset(*cells: tuple[int, int, int, int]) -> StratifiedDataset:
    return StratifiedDataset(
        tuple(StratumTable(f"s{i + 1}", a, b, c, d) for i, (a, b, c, d) in enumerate(cells))
    )


@pytest.fixture(scope="session")
def smallworld() -> StratifiedDataset:
    return load_smallworld()


@pytest.fixture(scope="session")
def smallworld_filtered(smallworld) -> StratifiedDataset:
    return filter_informative(smallworld)
