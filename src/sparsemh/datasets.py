"""Bundled example data."""

from __future__ import annotations

from pathlib import Path

_DATA_DIR = Path(__file__).resolve().parent / "data"


def smallworld_path() -> Path:
    """Path to the bundled four-category small-world dataset."""
    return _DATA_DIR / "smallworld.csv"
