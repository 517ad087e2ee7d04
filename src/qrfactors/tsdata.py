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

    Parameters
    ----------
    path : str or Path
        Comma-separated UTF-8 file. Cells may carry surrounding whitespace.
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
        ragged rows, or a shape too small to be a time series.
    """
    orientation = {"rows": "rows-are-series",
                   "columns": "columns-are-series"}.get(orientation, orientation)
    if orientation not in ("rows-are-series", "columns-are-series"):
        raise ValueError(f"unknown orientation {orientation!r}")

    with open(path, newline="", encoding="utf-8") as fh:
        raw = [row for row in csv.reader(fh)]
    # Trailing blank lines are noise, interior ones are structure errors.
    while raw and all(c.strip() == "" for c in raw[-1]):
        raw.pop()
    if not raw:
        raise ValueError(f"{path}: empty file")

    header = None
    first_data_row = 1
    if has_header:
        header = [c.strip() for c in raw[0]]
        raw = raw[1:]
        first_data_row = 2
        if not raw:
            raise ValueError(f"{path}: no data rows after header")

    widths = {len(row) for row in raw}
    if len(widths) != 1:
        raise ValueError(f"{path}: ragged rows (widths {sorted(widths)})")

    # Detect a label column: any unparseable cell in column 1 marks it.
    def parses(cell: str) -> bool:
        try:
            float(cell.strip())
            return True
        except ValueError:
            return False

    label_col = (orientation == "rows-are-series"
                 and not all(parses(row[0]) for row in raw))
    labels = [row[0].strip() for row in raw] if label_col else None
    col0 = 1 if label_col else 0

    data = np.empty((len(raw), len(raw[0]) - col0))
    for i, row in enumerate(raw):
        for j, cell in enumerate(row[col0:]):
            try:
                data[i, j] = float(cell.strip())
            except ValueError:
                raise ValueError(
                    f"{path}: cell at row {i + first_data_row}, "
                    f"column {j + col0 + 1} is not numeric: {cell.strip()!r}"
                ) from None

    if orientation == "rows-are-series":
        return TimeSeries(data, labels=labels)
    names = header if (header and len(header) == data.shape[1]) else None
    return TimeSeries(data.T, labels=names)


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
