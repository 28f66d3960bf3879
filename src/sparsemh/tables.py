"""Stratified 2x2 count data: tables, datasets, parsing, and filtering.

Each stratum is a 2x2 contingency table crossing group membership (in the
group G / not in G) with mention status (mentioned / not mentioned):

             mentioned   not mentioned
    in G         a             b
    not in G     c             d

Counts are non-negative integers of at most :data:`MAX_COUNT`; a dataset is
an ordered collection of labelled strata, held as one (k, 4) count array,
plus diagnostics for strata excluded from estimation.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, replace
from itertools import compress
from typing import Iterable

import numpy as np

EXCLUDED_NO_MENTIONED = "no mentioned articles"
EXCLUDED_NO_NOT_MENTIONED = "no unmentioned articles"

# Every product the point estimates form is a count times the sum of two
# counts; at most 2**26 * 2**27 = 2**53, it is exact in float64, so array
# arithmetic on the counts gives the same bits as Python integers.
MAX_COUNT = 2**26

_CSV_HEADER = ("stratum", "a", "b", "c", "d")
_CELLS = ("a", "b", "c", "d")


class ParseError(ValueError):
    """A CSV or JSON payload does not match the expected schema."""


class NoInformativeStrataError(ValueError):
    """Every stratum has an empty mentioned or not-mentioned column."""


def _range_problem(value: int) -> str:
    """Why a count outside 0..MAX_COUNT is rejected."""
    if value < 0:
        return f"must be non-negative, got {value}"
    return f"must be at most 2**26 = {MAX_COUNT}, got {value}"


def _check_count(owner: str, name: str, value: object, maximum: float = MAX_COUNT) -> int:
    # numpy integer scalars are welcome; bools and floats are not
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{owner}: count {name!r} must be an integer, got {value!r}")
    if not 0 <= value <= maximum:
        raise ValueError(f"{owner}: count {name!r} {_range_problem(value)}")
    return int(value)


def _empty_stratum(label: str) -> str:
    return f"stratum {label!r} is empty (all four counts are zero)"


@dataclass(frozen=True)
class StratumTable:
    """One labelled 2x2 contingency table."""

    label: str
    a: int
    b: int
    c: int
    d: int

    def __post_init__(self) -> None:
        if not isinstance(self.label, str) or not self.label:
            raise ValueError(f"stratum label must be a non-empty string, got {self.label!r}")
        for name in _CELLS:
            object.__setattr__(self, name, _check_count(f"stratum {self.label!r}", name, getattr(self, name)))
        if self.n == 0:
            raise ValueError(_empty_stratum(self.label))

    @property
    def n(self) -> int:
        return self.a + self.b + self.c + self.d

    @property
    def n_mentioned(self) -> int:
        return self.a + self.c

    @property
    def n_not_mentioned(self) -> int:
        return self.b + self.d

    def cells(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)

    def transposed(self) -> "StratumTable":
        """Swap the group axis with the mention axis (b and c trade places)."""
        return replace(self, b=self.c, c=self.b)


@dataclass(frozen=True, eq=False, init=False)
class StratifiedDataset:
    """Ordered strata plus (table, reason) diagnostics for excluded strata.

    The strata are held as their ``labels`` and one read-only (k, 4) int64
    ``counts`` array whose columns are a, b, c, d.
    """

    labels: tuple[str, ...]
    counts: np.ndarray
    excluded: tuple[tuple[StratumTable, str], ...]

    def __init__(self, strata: Iterable[StratumTable], excluded: Iterable[tuple[StratumTable, str]] = ()) -> None:
        strata = tuple(strata)
        if not strata:
            raise ValueError("a dataset needs at least one stratum")
        counts = np.array([t.cells() for t in strata], dtype=np.int64)
        self._fill(tuple(t.label for t in strata), counts, tuple(excluded))
        seen: set[str] = set()
        for label in self.labels + tuple(t.label for t, _ in self.excluded):
            if label in seen:
                raise ValueError(f"duplicate stratum label {label!r}")
            seen.add(label)

    @classmethod
    def _from_counts(cls, labels: tuple[str, ...], counts: np.ndarray, excluded=()) -> "StratifiedDataset":
        """Wrap counts that are already valid: unique labels, at least one row, no row all zero."""
        ds = cls.__new__(cls)
        ds._fill(labels, counts, tuple(excluded))
        return ds

    def _fill(self, labels: tuple[str, ...], counts: np.ndarray, excluded: tuple) -> None:
        counts.flags.writeable = False
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "excluded", excluded)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StratifiedDataset):
            return NotImplemented
        return (
            self.labels == other.labels
            and np.array_equal(self.counts, other.counts)
            and self.excluded == other.excluded
        )

    @property
    def strata(self) -> tuple[StratumTable, ...]:
        """The retained strata as tables, built on each access."""
        return tuple(StratumTable(label, *cells) for label, cells in zip(self.labels, self.counts.tolist()))

    @property
    def k(self) -> int:
        return len(self.labels)

    def __iter__(self):
        return iter(self.strata)

    def __len__(self) -> int:
        return len(self.labels)


@dataclass(frozen=True)
class CrossTableRow:
    """One stratum in group-vs-world layout.

    The second row of the source table holds whole-population (world) totals
    rather than the complement group, so the world cells must dominate the
    group cells.
    """

    label: str
    g_mentioned: int
    g_not_mentioned: int
    world_mentioned: int
    world_not_mentioned: int

    def __post_init__(self) -> None:
        # world totals are sums of two counts; the table built by
        # from_cross_table enforces the count bound
        for name in ("g_mentioned", "g_not_mentioned", "world_mentioned", "world_not_mentioned"):
            object.__setattr__(
                self, name, _check_count(f"cross-table row {self.label!r}", name, getattr(self, name), math.inf)
            )
        if self.world_mentioned < self.g_mentioned:
            raise ValueError(
                f"cross-table row {self.label!r}: world_mentioned ({self.world_mentioned}) "
                f"is smaller than g_mentioned ({self.g_mentioned})"
            )
        if self.world_not_mentioned < self.g_not_mentioned:
            raise ValueError(
                f"cross-table row {self.label!r}: world_not_mentioned ({self.world_not_mentioned}) "
                f"is smaller than g_not_mentioned ({self.g_not_mentioned})"
            )


def from_cross_table(row: CrossTableRow) -> StratumTable:
    """Convert a group-vs-world row to a contingency table by differencing."""
    return StratumTable(
        label=row.label,
        a=row.g_mentioned,
        b=row.g_not_mentioned,
        c=row.world_mentioned - row.g_mentioned,
        d=row.world_not_mentioned - row.g_not_mentioned,
    )


def to_cross_table(table: StratumTable) -> CrossTableRow:
    """Rebuild the group-vs-world row whose difference form is ``table``."""
    return CrossTableRow(
        label=table.label,
        g_mentioned=table.a,
        g_not_mentioned=table.b,
        world_mentioned=table.n_mentioned,
        world_not_mentioned=table.n_not_mentioned,
    )


def parse_csv(text: str | bytes) -> StratifiedDataset:
    """Parse ``stratum,a,b,c,d`` CSV text into a dataset, in file order.

    A leading UTF-8 byte-order mark is ignored. No filtering is applied.
    Raises :class:`ParseError` naming the line (and field, where applicable)
    for malformed rows, out-of-range counts, duplicate labels, or an empty
    body.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    lines = text.removeprefix("\ufeff").replace("\r\n", "\n").replace("\r", "\n").split("\n")

    rows: list[tuple[int, str]] = [(i, line) for i, line in enumerate(lines, start=1) if line.strip()]
    if not rows:
        raise ParseError("empty input: expected a 'stratum,a,b,c,d' header")

    header_no, header = rows[0]
    if tuple(p.strip() for p in header.split(",")) != _CSV_HEADER:
        raise ParseError(f"line {header_no}: expected header 'stratum,a,b,c,d', got {header.strip()!r}")
    if len(rows) == 1:
        raise ParseError("empty body: no data rows after the header")

    strata: dict[str, list[int]] = {}  # label -> cells, in input order
    for lineno, line in rows[1:]:
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 5:
            raise ParseError(f"line {lineno}: expected 5 comma-separated fields, got {len(parts)}")
        label = parts[0]
        if not label:
            raise ParseError(f"line {lineno}: empty stratum label")
        if label in strata:
            raise ParseError(f"line {lineno}: duplicate stratum label {label!r}")
        cells = []
        for name, field in zip(_CELLS, parts[1:]):
            try:
                value = int(field, 10)
            except ValueError:
                raise ParseError(
                    f"line {lineno}: field {name!r} must be a non-negative integer, got {field!r}"
                ) from None
            if not 0 <= value <= MAX_COUNT:
                raise ParseError(f"line {lineno}: field {name!r} {_range_problem(value)}")
            cells.append(value)
        if not any(cells):
            raise ParseError(f"line {lineno}: {_empty_stratum(label)}")
        strata[label] = cells
    return StratifiedDataset._from_counts(tuple(strata), np.array(list(strata.values()), dtype=np.int64))


def parse_json(text: str | bytes) -> StratifiedDataset:
    """Parse a JSON array of ``{"stratum", "a", "b", "c", "d"}`` objects.

    Yields the same dataset as the equivalent CSV. Raises
    :class:`ParseError` naming the entry and offending key on schema
    violations and out-of-range counts.
    """
    try:
        data = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer too long to convert
        raise ParseError(f"invalid JSON: {exc}") from None
    if not isinstance(data, list):
        raise ParseError(f"expected a JSON array of stratum objects, got {type(data).__name__}")
    if not data:
        raise ParseError("empty body: the JSON array has no entries")

    strata: dict[str, list[int]] = {}  # label -> cells, in input order
    for i, item in enumerate(data, start=1):
        if not isinstance(item, dict):
            raise ParseError(f"entry {i}: expected an object, got {type(item).__name__}")
        for key in _CSV_HEADER:
            if key not in item:
                raise ParseError(f"entry {i}: missing key {key!r}")
        label = item["stratum"]
        if not isinstance(label, str) or not label:
            raise ParseError(f"entry {i}: key 'stratum' must be a non-empty string, got {label!r}")
        if label in strata:
            raise ParseError(f"entry {i}: duplicate stratum label {label!r}")
        cells = []
        for name in _CELLS:
            value = item[name]
            if isinstance(value, bool) or not isinstance(value, int):
                raise ParseError(f"entry {i}: key {name!r} must be an integer count, got {value!r}")
            if not 0 <= value <= MAX_COUNT:
                raise ParseError(f"entry {i}: key {name!r} {_range_problem(value)}")
            cells.append(value)
        if not any(cells):
            raise ParseError(f"entry {i}: {_empty_stratum(label)}")
        strata[label] = cells
    return StratifiedDataset._from_counts(tuple(strata), np.array(list(strata.values()), dtype=np.int64))


def serialize_csv(ds: StratifiedDataset) -> str:
    """Render the retained strata as canonical CSV (exclusions are not kept)."""
    lines = [",".join(_CSV_HEADER)]
    for label, (a, b, c, d) in zip(ds.labels, ds.counts.tolist()):
        if "," in label or "\n" in label:
            raise ValueError(f"label {label!r} cannot be serialized to unquoted CSV")
        lines.append(f"{label},{a},{b},{c},{d}")
    return "\n".join(lines) + "\n"


def serialize_json(ds: StratifiedDataset) -> str:
    """Render the retained strata as a JSON array."""
    return json.dumps(
        [{"stratum": label, **dict(zip(_CELLS, cells))} for label, cells in zip(ds.labels, ds.counts.tolist())],
        indent=2,
    )


def filter_informative(ds: StratifiedDataset) -> StratifiedDataset:
    """Move strata with an empty mentioned or not-mentioned column to ``excluded``.

    Such strata carry no information about the association and would put 0/0
    terms into the variance components, so they are excluded before any
    estimation. MHCR, MHOR and MHq are insensitive to the removal, and so is
    MHRR for strata with no mentioned articles; a stratum with no
    unmentioned articles adds a*c/n to both MHRR sums. Strata with an empty
    *row* (a+b = 0 or c+d = 0) are retained: they simply contribute zero
    weight. Idempotent.
    """
    a, b, c, d = ds.counts.T
    no_mentioned = a + c == 0
    keep = ~no_mentioned & (b + d > 0)
    if not keep.any():
        raise NoInformativeStrataError(
            "no informative strata: every stratum has an empty mentioned or not-mentioned column"
        )
    dropped = tuple(
        (
            StratumTable(ds.labels[i], *ds.counts[i].tolist()),
            EXCLUDED_NO_MENTIONED if no_mentioned[i] else EXCLUDED_NO_NOT_MENTIONED,
        )
        for i in np.flatnonzero(~keep).tolist()
    )
    labels = tuple(compress(ds.labels, keep.tolist()))
    return StratifiedDataset._from_counts(labels, ds.counts[keep], ds.excluded + dropped)
