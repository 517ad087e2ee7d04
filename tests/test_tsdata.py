"""Loader and panel-container behavior."""

import csv

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import oracles
from qrfactors import tsdata
from qrfactors.baselines import EvdSpectrum
from qrfactors.factor_rrqr import FactorModelFit
from qrfactors.rrqr import QrFactors
from qrfactors.simgen import SimDataset
from qrfactors.tsdata import (TimeSeries, demean, load_csv, log_returns,
                              read_matrix)


def test_timeseries_fields():
    ts = TimeSeries([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]], labels=("a", "b"))
    assert (ts.K, ts.N) == (2, 3)
    assert ts.labels == ("a", "b")
    assert ts.values.dtype == np.float64


def test_timeseries_values_are_frozen():
    ts = TimeSeries(np.ones((2, 4)))
    assert not ts.values.flags.writeable
    with pytest.raises(ValueError):
        ts.values[0, 0] = 7.0


@pytest.mark.parametrize("record,fields", [
    (lambda a: QrFactors(q=a[0], r=a[1], diag=a[2]), ("q", "r", "diag")),
    (lambda a: EvdSpectrum(eigenvalues=a[0], eigenvectors=a[1], ratios=a[2]),
     ("eigenvalues", "eigenvectors", "ratios")),
    (lambda a: SimDataset(y=TimeSeries(np.ones((2, 4))), h=a[0], x=a[1], p=2),
     ("h", "x")),
    (lambda a: FactorModelFit(method="EVD", p_hat=2, q_hat=a[0], factors=a[1]),
     ("q_hat", "factors")),
], ids=["QrFactors", "EvdSpectrum", "SimDataset", "FactorModelFit"])
def test_records_freeze_their_own_copies(record, fields):
    sources = [np.arange(6.0).reshape(3, 2), np.arange(8.0).reshape(2, 4),
               np.arange(3.0)]
    rec = record(sources)
    kept = [np.array(getattr(rec, name)) for name in fields]
    for name, src in zip(fields, sources):
        assert not getattr(rec, name).flags.writeable
        src[...] = -1.0
    for name, want in zip(fields, kept):
        assert_array_equal(getattr(rec, name), want)


@pytest.mark.parametrize("bad,message", [
    pytest.param(np.ones(5), "values must be 2-D, got shape (5,)",
                 id="bad0"),
    pytest.param(np.ones((2, 1)), "need at least 2 time points, got 1",
                 id="bad1"),
    pytest.param([[1.0, np.nan], [0.0, 1.0]], "values contain NaN or Inf",
                 id="bad2"),
    pytest.param([[1.0, np.inf], [0.0, 1.0]], "values contain NaN or Inf",
                 id="bad3"),
    pytest.param(np.ones((0, 5)), "need at least one series",
                 id="no series"),
])
def test_timeseries_rejects_bad_values(bad, message):
    with pytest.raises(ValueError) as err:
        TimeSeries(bad)
    assert str(err.value) == message


def test_timeseries_rejects_label_count_mismatch():
    with pytest.raises(ValueError, match="labels"):
        TimeSeries(np.ones((3, 4)), labels=("a", "b"))


def test_demean_zeroes_row_means():
    rng = np.random.default_rng(7)
    ts = TimeSeries(rng.standard_normal((4, 50)) + 3.0, labels=tuple("abcd"))
    out = demean(ts)
    assert_allclose(out.values.mean(axis=1), 0.0, atol=1e-13)
    assert out.labels == ts.labels
    # input untouched
    assert abs(ts.values.mean()) > 1.0


def test_demean_of_demeaned_is_identity():
    rng = np.random.default_rng(8)
    ts = demean(TimeSeries(rng.standard_normal((3, 20))))
    assert_allclose(demean(ts).values, ts.values, atol=1e-15)


def test_log_returns_matches_numpy():
    rng = np.random.default_rng(9)
    prices = TimeSeries(np.exp(rng.standard_normal((3, 12)) * 0.01) * 100.0)
    out = log_returns(prices)
    assert out.N == prices.N - 1
    assert_array_equal(out.values, np.diff(np.log(prices.values), axis=1))


def test_log_returns_names_the_offending_price():
    vals = np.full((2, 5), 10.0)
    vals[1, 3] = -2.0
    with pytest.raises(ValueError, match=r"series 1, time 3"):
        log_returns(TimeSeries(vals))


def test_log_returns_needs_three_points():
    with pytest.raises(ValueError, match="3"):
        log_returns(TimeSeries([[1.0, 2.0]]))


def test_load_csv_rows_are_series(tmp_path):
    path = tmp_path / "panel.csv"
    path.write_text("1.0, 2.0, 3.5\n4.0, 5.0, 6.0\n")
    ts = load_csv(path)
    assert_array_equal(ts.values, [[1.0, 2.0, 3.5], [4.0, 5.0, 6.0]])
    assert ts.labels is None


def test_load_csv_detects_label_column(tmp_path):
    path = tmp_path / "panel.csv"
    path.write_text("aapl,1.0,2.0\nmsft,3.0,4.0\n")
    ts = load_csv(path)
    assert ts.labels == ("aapl", "msft")
    assert_array_equal(ts.values, [[1.0, 2.0], [3.0, 4.0]])


def test_load_csv_columns_are_series_header_labels(tmp_path):
    path = tmp_path / "panel.csv"
    path.write_text("x,y\n1.0,10.0\n2.0,20.0\n3.0,30.0\n")
    ts = load_csv(path, orientation="columns-are-series", has_header=True)
    assert ts.labels == ("x", "y")
    assert_array_equal(ts.values, [[1.0, 2.0, 3.0], [10.0, 20.0, 30.0]])


def test_load_csv_orientation_aliases(tmp_path):
    path = tmp_path / "panel.csv"
    path.write_text("1,2,3\n4,5,6\n")
    assert_array_equal(load_csv(path, orientation="rows").values,
                       load_csv(path, orientation="rows-are-series").values)
    assert load_csv(path, orientation="columns").K == 3


def test_load_csv_ignores_trailing_blank_line(tmp_path):
    path = tmp_path / "panel.csv"
    path.write_text("1,2,3\n4,5,6\n\n")
    assert load_csv(path).N == 3


def test_load_csv_reports_bad_cell_position(tmp_path):
    path = tmp_path / "panel.csv"
    path.write_text("h1,h2,h3\n1.0,2.0,3.0\n4.0,oops,6.0\n")
    with pytest.raises(ValueError, match=r"row 3, column 2"):
        load_csv(path, has_header=True)


def test_load_csv_rejects_ragged_rows(tmp_path):
    path = tmp_path / "panel.csv"
    path.write_text("1,2,3\n4,5\n")
    with pytest.raises(ValueError, match="ragged"):
        load_csv(path)


@pytest.mark.parametrize("where", ["body", "header"])
def test_an_oversized_field_is_a_value_error_naming_the_file(tmp_path, where):
    # csv.reader refuses a field past its size limit; both readers report
    # it as the bad input it is, not as a csv.Error
    big = "1" * (csv.field_size_limit() + 10)
    rows = ["1,2,3", "4,5,6"]
    rows.insert(2 if where == "body" else 0, f"7,{big},9")
    path = tmp_path / "panel.csv"
    path.write_text("\n".join(rows) + "\n")
    want = f"{path}: field larger than field limit"
    for load in (lambda p: load_csv(p, has_header=where == "header"),
                 read_matrix):
        with pytest.raises(ValueError) as err:
            load(path)
        assert str(err.value).startswith(want), str(err.value)[:200]


def test_load_csv_rejects_unknown_orientation(tmp_path):
    path = tmp_path / "panel.csv"
    path.write_text("1,2\n3,4\n")
    with pytest.raises(ValueError, match="orientation"):
        load_csv(path, orientation="sideways")


# ------------------------------------------------------------------
# the C parse against the per-cell loaders it replaced

def _g17(*values):
    return ",".join("%.17g" % v for v in values)


CSV_CORPUS = {
    "padded": " 1.5 , 2 ,3\n4,\t5 ,6 \n",
    "quoted numbers": '"1.5",2,"3"\n4,"5",6\n',
    "quoted label with comma, crlf": '"acme, inc",1,2,3\r\n beta ,4,5,6\r\n',
    "interior blank line": "1,2,3\n\n4,5,6\n",
    "leading blank line": "\n1,2,3\n4,5,6\n",
    "trailing blank lines": "1,2,3\n4,5,6\n\n\r\n\n",
    "trailing whitespace line": "1,2,3\n4,5,6\n  \n",
    "interior whitespace line": "1,2,3\n \n4,5,6\n",
    "hash first cell": "#,1,2\n3,4,5\n",
    "hash inner cell": "1,#,2\n3,4,5\n",
    "underscore": "1_000,2,3\n4,5,6\n",
    "non-ascii digit": "١,2,3\n4,5,6\n",
    "unicode spaces": "\xa01\x0c,2 ,3\n4,5,6\n",
    "inf and nan": "inf,1,2\n3,nan,4\n",
    "extremes": (_g17(5e-324, -0.0, 1.7976931348623157e308) + "\n"
                 + _g17(-5e-324, 0.0, -1.7976931348623157e308) + "\n"),
    "single row": "1,2,3\n",
    "single column": "1\n2\n3\n",
    "single cell": "7",
    "header only": "a,b,c\n",
    "empty": "",
    "blank only": "\n\r\n",
    "bad cell in label file": "x,1,2\ny,3,oops\n",
    "bad cell after header": "h1,h2\n1,2\n3,bad\n",
    "ragged": "1,2,3\n4,5\n",
    "ragged before a bad cell": "1,2,3\n4,5\nx,6,7\n",
    "lone cr": "1,2,3\r4,5,6\r",
    "lone cr before blank": "1,2\r3,4\n\n5,6\n",
    "quoted newline header": 'x,"y\nz"\n1,2\n3,4\n',
    "quote after closing quote": '"1"2,3\n4,5\n',
    "unterminated quote": 'a,1,2\n"b,3,4\n',
    "field past the csv limit": "1,1" + "0" * 131072 + "\n2,3\n",
    "quoted field over lines past the limit": (
        '"1' + (" " * 70000 + "\n") * 2 + '",2\n3,4\n'),
    "quoted number over a line end": '"1\r\n",2\n3,4\n',
    "bad utf-8": b"1,2\n3,\xff\n",
}

LOADERS = {
    "rows": dict(orientation="rows"),
    "rows, header": dict(orientation="rows", has_header=True),
    "columns": dict(orientation="columns"),
    "columns, header": dict(orientation="columns", has_header=True),
}


def _encoded(text):
    return text if isinstance(text, bytes) else text.encode("utf-8")


def _outcome(read, *args, **kwargs):
    """What a loader gives: its array's shape, layout and bits and any
    labels, or its exception's type and message."""
    try:
        out = read(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return type(exc), str(exc)
    labels = getattr(out, "labels", None)
    values = getattr(out, "values", out)
    return (values.shape, values.dtype, values.flags.c_contiguous,
            values.view(np.int64).tobytes(), labels)


def _csv_error_as_value_error(read):
    """An old loader with the one change made since: a csv.Error, such
    as a field past the size limit, is raised as a ValueError naming
    the file."""
    def wrapped(path, **kwargs):
        try:
            return read(path, **kwargs)
        except csv.Error as exc:
            raise ValueError(f"{path}: {exc}") from None
    return wrapped


@pytest.mark.parametrize("loader", LOADERS)
@pytest.mark.parametrize("name", CSV_CORPUS)
def test_load_csv_is_the_cell_loop(tmp_path, name, loader):
    path = tmp_path / "panel.csv"
    path.write_bytes(_encoded(CSV_CORPUS[name]))
    old = _csv_error_as_value_error(oracles.old_load_csv)
    assert (_outcome(load_csv, path, **LOADERS[loader])
            == _outcome(old, path, **LOADERS[loader]))


@pytest.mark.parametrize("name", CSV_CORPUS)
def test_read_matrix_is_the_cell_loop(tmp_path, name):
    path = tmp_path / "m.csv"
    path.write_bytes(_encoded(CSV_CORPUS[name]))
    old = _csv_error_as_value_error(oracles.old_read_matrix)
    assert (_outcome(read_matrix, str(path)) == _outcome(old, str(path)))


def test_plain_panels_take_the_c_parse(tmp_path, monkeypatch):
    """Round-tripped panels, with CRLF endings and with a header, never
    reach the per-cell loop, and agree with it bit for bit; nor does a
    matrix file with an interior blank line."""
    rng = np.random.default_rng(17)
    y = rng.standard_normal((12, 40)) * np.logspace(-300, 300, 40)
    body = "\r\n".join(_g17(*row) for row in y) + "\r\n"
    files = {"plain": (body, {}),
             "header": ("t" + ",t" * 39 + "\n" + body,
                        dict(orientation="columns", has_header=True))}
    expect = {}
    for name, (text, kwargs) in files.items():
        path = tmp_path / f"{name}.csv"
        path.write_text(text, encoding="utf-8", newline="")
        expect[name] = _outcome(oracles.old_load_csv, path, **kwargs)
    lines = body.splitlines(keepends=True)
    (tmp_path / "gapped.csv").write_text(
        "".join(lines[:6] + ["\r\n"] + lines[6:]), newline="")
    monkeypatch.setattr(tsdata, "_cell_loop", None)
    for name, (_, kwargs) in files.items():
        assert _outcome(load_csv, tmp_path / f"{name}.csv", **kwargs) \
            == expect[name], name
    assert_array_equal(read_matrix(str(tmp_path / "plain.csv")), y)
    assert_array_equal(read_matrix(str(tmp_path / "gapped.csv")), y)


def test_load_csv_opens_the_file_itself(tmp_path):
    """A compressed-looking name is read as the text it holds."""
    path = tmp_path / "panel.csv.gz"
    path.write_text("1,2,3\n4,5,6\n")
    assert_array_equal(load_csv(path).values, [[1, 2, 3], [4, 5, 6]])
