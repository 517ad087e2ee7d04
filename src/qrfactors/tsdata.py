"""Time series container, CSV ingestion, demeaning, log returns.

Series are stored rows-as-series: a K x N matrix holds K series observed at
N time points. All operations are pure and return new objects; the stored
array is frozen so instances can be shared between threads.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np


def _frozen(values: np.ndarray) -> np.ndarray:
    out = np.array(values, dtype=float, copy=True)
    out.setflags(write=False)
    return out


def _rescaled(x, exp: int):
    """x * 2^exp, saturating to 0 or inf where it leaves the float range."""
    with np.errstate(over="ignore"):
        return np.ldexp(x, exp)


@dataclass(frozen=True)
class TimeSeries:
    """K x N observation matrix with optional series labels."""

    values: np.ndarray
    labels: tuple[str, ...] | None = None
    K: int = field(init=False)
    N: int = field(init=False)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2:
            raise ValueError(f"values must be 2-D, got shape {values.shape}")
        k, n = values.shape
        if k < 1:
            raise ValueError("need at least one series")
        if n < 2:
            raise ValueError(f"need at least 2 time points, got {n}")
        if not np.isfinite(values).all():
            raise ValueError("values contain NaN or Inf")
        object.__setattr__(self, "values", _frozen(values))
        if self.labels is not None:
            labels = tuple(str(s) for s in self.labels)
            if len(labels) != k:
                raise ValueError(
                    f"got {len(labels)} labels for {k} series"
                )
            object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "K", k)
        object.__setattr__(self, "N", n)

    @cached_property
    def _normalized(self) -> tuple[np.ndarray, int]:
        """The centered panel times 2^-e, and e, with 2^e the power of two
        above the widest series range (2^k * values gives the same array
        and e + k). A constant series is exactly 0 in it; a panel of
        constant series has no factor and is rejected."""
        hi, lo = self.values.max(axis=1), self.values.min(axis=1)
        if (hi == lo).all():
            raise ValueError(
                "every series in the panel is constant, so there is no factor "
                "to estimate; pass a panel in which at least one series varies"
            )
        # halves keep a range near the float limit finite
        e = math.frexp(float((hi / 2 - lo / 2).max()))[1] + 1
        with np.errstate(over="ignore"):
            z = np.ldexp(self.values, -e)
        z[hi == lo] = 0.0
        z -= z.mean(axis=1, keepdims=True)
        z.setflags(write=False)
        return z, e


def load_csv(path, orientation: str = "rows-are-series",
             has_header: bool = False) -> TimeSeries:
    """Read a numeric CSV file into a TimeSeries.

    numpy's C reader (``np.loadtxt``) parses the file. It converts a cell
    exactly as ``float(cell.strip())`` does but accepts fewer spellings:
    not ``1_000``, nor non-ASCII digits. A file it refuses (a label column
    among them), or one it could read differently from ``csv.reader`` (an
    empty line, a record over several lines, a field past csv's size
    limit), goes through a per-cell ``float`` loop, which builds every
    error message. So a file is accepted, with the same values, exactly
    when the loop alone would accept it.

    Parameters
    ----------
    path : str or Path
        Comma-separated UTF-8 file, with or without a byte-order mark
        (Excel's "CSV UTF-8" writes one); ``"``-quoted cells are
        unquoted as by ``csv.reader``, and a record ends at ``\\n``,
        ``\\r\\n`` or ``\\r``. Cells may carry surrounding whitespace.
    orientation : str
        "rows-are-series" (alias "rows") or "columns-are-series" (alias
        "columns"). With rows-are-series, a non-numeric first column is
        auto-detected and used as series labels.
    has_header : bool
        Strip the first row before parsing. With columns-are-series the
        header entries become the series labels.

    Raises
    ------
    ValueError
        On a non-numeric cell (reported with its 1-based file position),
        ragged rows (an interior blank line among them; trailing blank
        lines are ignored), or a shape too small to be a time series.
    """
    orientation = {"rows": "rows-are-series",
                   "columns": "columns-are-series"}.get(orientation, orientation)
    if orientation not in ("rows-are-series", "columns-are-series"):
        raise ValueError(f"unknown orientation {orientation!r}")

    header, labels, data = _read_numeric(
        path, has_header=has_header, labels=orientation == "rows-are-series")
    if orientation == "rows-are-series":
        return TimeSeries(data, labels=labels)
    names = header if (header and len(header) == data.shape[1]) else None
    return TimeSeries(data.T, labels=names)


def read_matrix(path) -> np.ndarray:
    """A numeric CSV file as a 2-D array, as the CLI reads its matrix
    files: every blank record is skipped, a bad cell is reported before
    ragged rows, and rows are numbered as records of the file, from 1."""
    return _read_numeric(path, skip_blank=True)[2]


def _read_numeric(path, has_header: bool = False, labels: bool = False,
                  skip_blank: bool = False):
    """(header, labels, values) of a numeric CSV file: the one CSV reader
    of `load_csv` and `read_matrix`.

    ``header`` holds the stripped cells of the first record when
    ``has_header``, else None. With ``labels``, a first column with a cell
    ``float`` refuses is returned as stripped labels (else None) and left
    out of ``values``. Every record must have the width of the first, or
    the file is ragged. Without ``skip_blank`` an interior blank record is
    a ragged row and trailing ones are dropped; with it every blank record
    is skipped and a bad cell is reported before ragged rows. Rows are
    numbered as records of the file, from 1. A ``csv.Error``, such as a
    field past its size limit, is raised as a ValueError naming the file.
    """
    try:
        return (_c_parse(path, has_header, skip_blank)
                or _cell_loop(path, has_header, labels, skip_blank))
    except csv.Error as exc:
        raise ValueError(f"{path}: {exc}") from None


_EMPTY_LINES = ("\n", "\r\n", "\r")


def _c_parse(path, has_header: bool, skip_blank: bool):
    """`_read_numeric` by ``np.loadtxt``, or None wherever its result could
    differ from `_cell_loop`'s.

    loadtxt splits and unquotes the cells of a line as ``csv.reader``
    does, and its float converter accepts a subset of what ``float``
    does, surrounding whitespace included, with the same value. So a file
    it parses has no label column, and a file it refuses, a labelled one
    among them, goes to the loop. So does one it could read differently:
    loadtxt skips empty lines and has no field size limit. Both read the
    lines ``open(newline="")`` splits at \\n, \\r\\n and \\r.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        try:
            lines = list(fh)
        except UnicodeDecodeError:  # the loop meets it, or a csv error first
            return None
    reader = csv.reader(lines)
    header = ([c.strip() for c in next(reader, [])]
              if has_header else None)
    skip, end = reader.line_num, len(lines)
    while end > skip and lines[end - 1] in _EMPTY_LINES:
        end -= 1
    data = lines[skip:end]
    if not data or max(map(len, data)) > csv.field_size_limit():
        return None
    try:
        values = np.loadtxt(data, delimiter=",", comments=None,
                            quotechar='"', ndmin=2)
    except ValueError:
        return None
    # one record a line: no record spans lines, nor is a blank line ragged
    empty = sum(line in _EMPTY_LINES for line in data) if skip_blank else 0
    if len(values) != len(data) - empty:
        return None
    return header, None, values


def _cell_loop(path, has_header: bool, labels: bool, skip_blank: bool):
    """`_read_numeric` by ``csv.reader`` and a ``float`` call per cell."""
    def blank(row) -> bool:
        return all(c.strip() == "" for c in row)

    def parses(cell: str) -> bool:
        try:
            float(cell.strip())
            return True
        except ValueError:
            return False

    def ragged() -> None:
        widths = {len(row) for _, row in records}
        if len(widths) != 1:
            raise ValueError(f"{path}: ragged rows (widths {sorted(widths)})")

    def number(i: int, j: int, cell: str) -> float:
        try:
            return float(cell.strip())
        except ValueError:
            raise ValueError(
                f"{path}: cell at row {i}, column {j} is not numeric: "
                f"{cell.strip()!r}") from None

    with open(path, newline="", encoding="utf-8-sig") as fh:
        records = list(enumerate(csv.reader(fh), start=1))
    if skip_blank:
        records = [(i, row) for i, row in records if not blank(row)]
    # Trailing blank lines are noise, interior ones are structure errors.
    while records and blank(records[-1][1]):
        records.pop()
    if not records:
        raise ValueError(f"{path}: empty {'matrix ' * skip_blank}file")

    header = None
    if has_header:
        header = [c.strip() for c in records[0][1]]
        records = records[1:]
        if not records:
            raise ValueError(f"{path}: no data rows after header")
    if not skip_blank:
        ragged()
    # Detect a label column: any unparseable cell in column 1 marks it.
    names = None
    if labels and not all(parses(row[0]) for _, row in records):
        names = [row[0].strip() for _, row in records]
    col0 = 0 if names is None else 1
    rows = [[number(i, j, cell) for j, cell in enumerate(row[col0:], col0 + 1)]
            for i, row in records]
    if skip_blank:
        ragged()
    return header, names, np.array(rows)


def demean(ts: TimeSeries) -> TimeSeries:
    """Remove each series' full-sample mean."""
    centered = ts.values - ts.values.mean(axis=1, keepdims=True)
    return TimeSeries(centered, labels=ts.labels)


def log_returns(prices: TimeSeries) -> TimeSeries:
    """Per-series log returns; output has one fewer time point.

    All prices must be strictly positive and the input needs at least
    3 points so the result is still a valid TimeSeries.
    """
    if prices.values.min() <= 0:
        k, n = np.unravel_index(np.argmin(prices.values), prices.values.shape)
        raise ValueError(
            f"non-positive price {prices.values[k, n]} "
            f"at series {k}, time {n}"
        )
    if prices.N < 3:
        raise ValueError("need at least 3 prices to form returns")
    return TimeSeries(np.diff(np.log(prices.values), axis=1),
                      labels=prices.labels)
