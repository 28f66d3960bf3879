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
import numbers
import re
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
# One canonical body row: a label with no comma, no line feed and no leading
# or trailing whitespace (``\s`` is ``str.isspace``), then four counts of 1 to
# 8 ASCII digits. ``$`` with re.M ends a line only before a line feed.
_CANONICAL_ROW = re.compile(r"^([^,\s][^,\n]*(?<!\s)),[0-9]{1,8},[0-9]{1,8},[0-9]{1,8},[0-9]{1,8}$", re.M)
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


def _check_count(owner: str, name: str, value: object) -> int:
    # numpy integer scalars are welcome; bools and floats are not
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{owner}: count {name!r} must be an integer, got {value!r}")
    if not 0 <= value <= MAX_COUNT:
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
        if not any(self.cells()):
            raise ValueError(_empty_stratum(self.label))

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

    def __init__(self, strata: Iterable[StratumTable]) -> None:
        strata = tuple(strata)
        if not strata:
            raise ValueError("a dataset needs at least one stratum")
        counts = np.array([t.cells() for t in strata], dtype=np.int64)
        self._fill(tuple(t.label for t in strata), counts, ())
        seen: set[str] = set()
        for label in self.labels:
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

    def __len__(self) -> int:
        return len(self.labels)


def _csv_text(text: str | bytes) -> str:
    """Decoded CSV text without a leading byte-order mark, its lines ended by LF."""
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"input is not valid UTF-8: {exc}") from None
    return text.removeprefix("\ufeff").replace("\r\n", "\n").replace("\r", "\n")


def parse_csv(text: str | bytes) -> StratifiedDataset:
    """Parse ``stratum,a,b,c,d`` CSV text into a dataset, in file order.

    The accepted syntax: the text is UTF-8, and a leading byte-order mark is
    ignored. Lines end in LF, CRLF or CR. Lines that are empty or hold only
    whitespace are skipped. Each field is stripped of surrounding whitespace
    (``str.strip``). The first line not skipped is the header
    ``stratum,a,b,c,d``; each later line is a non-empty label and four
    counts, read with Python's ``int(field, 10)`` (so ``+5``, ``1_0`` and
    non-ASCII digits are counts), that lie in 0..MAX_COUNT.

    Canonical text, where every row is an unpadded label with four runs of
    1 to 8 ASCII digits and no line is blank, is read in one vectorized pass;
    any other text goes through the per-line reader, which gives the same
    dataset or error. No filtering is applied. Raises :class:`ParseError`
    naming the line (and field, where applicable) for malformed rows,
    out-of-range counts, duplicate labels, or an empty body.
    """
    text = _csv_text(text)
    header, *lines = text.split("\n")
    if header == ",".join(_CSV_HEADER):
        if lines[-1:] == [""]:
            lines.pop()
        labels = _CANONICAL_ROW.findall(text, len(header) + 1)  # the body's rows
        if lines and len(labels) == len(lines):
            counts = np.loadtxt(lines, dtype=np.int64, delimiter=",", usecols=(1, 2, 3, 4), ndmin=2, comments=None)
            if counts.max() <= MAX_COUNT and counts.any(axis=1).all() and len(set(labels)) == len(labels):
                return StratifiedDataset._from_counts(tuple(labels), counts)
    return _parse_csv_lines(text)


def _parse_csv_lines(text: str) -> StratifiedDataset:
    """:func:`parse_csv` one line at a time, on its :func:`_csv_text`: every text it accepts, and each error message."""
    lines = text.split("\n")

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
    violations and out-of-range counts, and on JSON nested too deeply to
    decode.
    """
    try:
        data = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer too long to convert
        raise ParseError(f"invalid JSON: {exc}") from None
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply") from None
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


def filter_informative(ds: StratifiedDataset) -> StratifiedDataset:
    """Move strata with an empty mentioned or not-mentioned column to ``excluded``.

    Such strata carry no information about the association and would put 0/0
    terms into the variance components, so they are excluded before any
    estimation. MHCR, MHOR and MHq are insensitive to the removal, and so is
    MHRR for strata with no mentioned articles; a stratum with no
    unmentioned articles adds a*c/n to both MHRR sums. Strata with an empty
    *row* (a+b = 0 or c+d = 0) are retained. One with a+b = 0 adds nothing
    to any indicator's sums; one with c+d = 0 adds nothing to MHRR or MHOR
    but keeps its raw weight b*(a+c)/n in MHCR and b*(a+c)/(a+b+n) in MHq.
    MHCR's GR variance rejects both, as an empty column of the transposed
    table. Idempotent.
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
