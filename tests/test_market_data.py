import csv
import pickle
import re
import sys
import warnings
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import align_assets_reference, load_ohlc_csv_reference, make_frame, random_walk_frame, write_ohlc_csv
from portrl.market_data import (
    ALIGNMENT_POLICIES,
    MarketFrame,
    align_assets,
    load_manifest,
    load_ohlc_csv,
    price_relatives,
    split_periods,
    step_relatives,
)


def series_from_rows(tmp_path, rows, ticker="XYZ", header="date,open,high,low,close"):
    path = tmp_path / f"{ticker}.csv"
    write_ohlc_csv(path, rows, header)
    return load_ohlc_csv(path, ticker)


class TestLoadCsv:
    def test_direct_parse(self, tmp_path):
        series = series_from_rows(
            tmp_path,
            [("2020-01-02", 10, 12, 9, 11), ("2020-01-03", 11, 13, 10, 12)],
        )
        assert series.n_steps == 2
        assert series.dates == (date(2020, 1, 2), date(2020, 1, 3))
        assert np.array_equal(series.closes[0], [11.0, 12.0])
        assert np.array_equal(series.highs[0], [12.0, 13.0])
        assert np.array_equal(series.lows[0], [9.0, 10.0])
        assert not hasattr(series, "opens")  # the open is validated, not stored

    def test_close_above_high_rejected(self, tmp_path):
        message = (f"{tmp_path / 'XYZ.csv'}:2: OHLC ordering violated on 2020-01-02 (open=10.0, high=12.0, low=9.0, "
                   "close=14.0)")
        with pytest.raises(ValueError, match=re.escape(message)):
            series_from_rows(tmp_path, [("2020-01-02", 10, 12, 9, 14)])

    @pytest.mark.parametrize("open_price", [8, 13])
    def test_open_outside_low_high_rejected(self, tmp_path, open_price):
        message = (f"{tmp_path / 'XYZ.csv'}:2: OHLC ordering violated on 2020-01-02 (open={float(open_price)}, "
                   "high=12.0, low=9.0, close=11.0)")
        with pytest.raises(ValueError, match=re.escape(message)):
            series_from_rows(tmp_path, [("2020-01-02", open_price, 12, 9, 11)])

    def test_shuffled_rows_match_sorted_input(self, tmp_path):
        rows = [("2020-01-0%d" % d, 10 + d, 12 + d, 9 + d, 11 + d) for d in range(2, 8)]
        sorted_series = series_from_rows(tmp_path, rows, ticker="S")
        shuffled = [rows[i] for i in (3, 0, 5, 2, 4, 1)]
        shuffled_series = series_from_rows(tmp_path, shuffled, ticker="T")
        assert sorted_series.dates == shuffled_series.dates
        assert np.array_equal(sorted_series.closes, shuffled_series.closes)

    def test_missing_column(self, tmp_path):
        message = f"{tmp_path / 'XYZ.csv'}: missing column 'close' in header ['date', 'open', 'high', 'low']"
        with pytest.raises(ValueError, match=re.escape(message)):
            series_from_rows(tmp_path, [("2020-01-02", 10, 12, 9)], header="date,open,high,low")

    def test_unparsable_row_reports_line_number(self, tmp_path):
        message = f"{tmp_path / 'XYZ.csv'}:3: Invalid isoformat string: 'not-a-date'"
        with pytest.raises(ValueError, match=re.escape(message)):
            series_from_rows(tmp_path, [("2020-01-02", 10, 12, 9, 11), ("not-a-date", 1, 2, 1, 1)])

    @pytest.mark.parametrize("bad", ["inf", "nan", "-inf"])
    def test_non_finite_price_rejected_with_line(self, tmp_path, bad):
        # an all-inf row satisfies 0 < low <= close <= high
        v = float(bad)
        message = f"{tmp_path / 'XYZ.csv'}:3: non-finite price on 2020-01-03 (open={v}, high={v}, low={v}, close={v})"
        with pytest.raises(ValueError, match=re.escape(message)):
            series_from_rows(tmp_path, [("2020-01-02", 10, 12, 9, 11), ("2020-01-03", bad, bad, bad, bad)])

    def test_duplicate_date_rejected(self, tmp_path):
        with pytest.raises(ValueError, match=re.escape(f"{tmp_path / 'XYZ.csv'}:3: duplicate date 2020-01-02")):
            series_from_rows(tmp_path, [("2020-01-02", 10, 12, 9, 11), ("2020-01-02", 1, 2, 1, 1)])

    def test_empty_file_and_headers_only(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        with pytest.raises(ValueError, match=re.escape(f"{empty}: file is empty")):
            load_ohlc_csv(empty, "E")
        with pytest.raises(ValueError, match=re.escape(f"{tmp_path / 'XYZ.csv'}: no data rows")):
            series_from_rows(tmp_path, [])

    def test_byte_order_mark_before_the_header_is_skipped(self, tmp_path):
        rows = [("2020-01-02", 10, 12, 9, 11), ("2020-01-03", 11, 13, 10, 12)]
        plain = series_from_rows(tmp_path, rows, ticker="P")
        path = tmp_path / "BOM.csv"
        write_ohlc_csv(path, rows)
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        marked = load_ohlc_csv(path, "BOM")
        assert marked.dates == plain.dates
        assert np.array_equal(marked.closes, plain.closes)

    def test_byte_that_is_not_utf8_names_file_and_line(self, tmp_path):
        path = tmp_path / "LATIN1.csv"
        path.write_bytes(b"date,open,high,low,close\n2020-01-02,10,12,9,11\n2020-01-03,1\xe9,13,10,12\n")
        with pytest.raises(ValueError) as err:
            load_ohlc_csv(path, "L")
        assert str(err.value).startswith(f"{path}:3: byte 0xe9 is not UTF-8")

    def test_extra_columns_and_case_insensitive_header(self, tmp_path):
        series = series_from_rows(
            tmp_path,
            [("2020-01-02", 10, 12, 9, 11, 99999)],
            header="Date,Open,High,Low,Close,Volume",
        )
        assert series.closes[0, 0] == 11.0


REQUIRED = ("date", "open", "high", "low", "close")
CORRUPTIONS = ("short", "date", "price", "non_finite", "duplicate", "ohlc",
               "extra", "hash", "spelling", "long_date", "nul")
# how many rows to corrupt, or blank rows to insert: none in half the
# files, so that many reach numpy's reader
COUNTS = (0, 0, 0, 1, 2, 3)
ARABIC_INDIC = str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669")


def csv_cell(draw, text, quote_free):
    """A cell as written: plain, quoted (unless quote-free), or padded
    with spaces, NBSPs or tabs."""
    style = draw(st.sampled_from(("plain", "plain", "spaced", "padded") + (() if quote_free else ("quoted",))))
    if style == "quoted":
        return f'"{text}"'
    if style == "padded":
        return draw(st.sampled_from(("\xa0", "\t"))) + text + draw(st.sampled_from(("", "\xa0", "\t")))
    return f" {text}  " if style == "spaced" else text


def respelled(draw, number):
    """The same number as float() reads it, with an underscore between
    two digits or in Arabic-Indic digits; numpy's parser takes neither."""
    pairs = [i for i in range(1, len(number)) if number[i - 1].isdigit() and number[i].isdigit()]
    if pairs and draw(st.booleans()):
        i = draw(st.sampled_from(pairs))
        return f"{number[:i]}_{number[i:]}"
    return number.translate(ARABIC_INDIC)


@st.composite
def ohlc_csv_texts(draw):
    """CSV bytes in the accepted syntax: required columns in any order and
    case among extra ones, rows (possibly none) in any date order, blank
    rows, quoted (in about half the files) and padded cells, either line
    ending, an optional byte-order mark; 0-3 rows are then corrupted,
    including in ways on which numpy's C reader and the csv module part,
    and a line may end in a lone carriage return."""
    quote_free = draw(st.booleans())
    extras = draw(st.lists(st.sampled_from(("volume", "adj close", "note")), unique=True))
    names = draw(st.permutations(REQUIRED + tuple(extras)))
    header = [draw(st.sampled_from((name, name.upper(), name.title(), f" {name} "))) for name in names]
    days = draw(st.lists(st.integers(0, 60), min_size=0, max_size=10, unique=True))
    rows = []
    for day in days:
        low, open_, close, high = sorted(draw(st.lists(st.floats(0.01, 1e4), min_size=4, max_size=4)))
        if draw(st.booleans()):
            open_, close = close, open_
        rows.append({"date": (date(2020, 1, 1) + timedelta(days=day)).isoformat(), "open": repr(open_),
                     "high": repr(high), "low": repr(low), "close": repr(close),
                     "volume": str(draw(st.integers(0, 10**6))), "adj close": repr(close),
                     "note": draw(st.sampled_from(("x y", "x#y")))})
    short, extra = set(), set()
    for _ in range(draw(st.sampled_from(COUNTS)) if rows else 0):
        row = rows[draw(st.integers(0, len(rows) - 1))]
        kind = draw(st.sampled_from(CORRUPTIONS))
        price = draw(st.sampled_from(REQUIRED[1:]))
        if kind == "short":
            short.add(id(row))
        elif kind == "extra":
            extra.add(id(row))
        elif kind == "date":
            row["date"] = draw(st.sampled_from(("2020-02-30", "not-a-date", "", "2020/01/02",
                                                "20200102", "2020-W01-2", "2020W011")))
        elif kind == "price":
            row[price] = draw(st.sampled_from(("abc", "", "1.5.0", "--1")))
        elif kind == "non_finite":
            row[price] = draw(st.sampled_from(("inf", "nan", "-inf", "Infinity")))
        elif kind == "duplicate":
            row["date"] = draw(st.sampled_from(rows))["date"]
        elif kind == "hash":
            name = draw(st.sampled_from(REQUIRED))
            row[name] = draw(st.sampled_from((f"{row[name]}#", f"#{row[name]}", "#")))
        elif kind == "spelling":
            row[price] = respelled(draw, row[price])
        elif kind == "long_date":
            # padding that may fill numpy's 16-character string field, then maybe a stray letter
            row["date"] += " " * draw(st.integers(4, 10)) + draw(st.sampled_from(("", "x")))
        elif kind == "nul":
            name = draw(st.sampled_from(REQUIRED))
            row[name] += "\0"
        else:
            row[price] = draw(st.sampled_from(("0", "-1.5", "1e9", "1e-9")))
    lines = [",".join(header)]
    for row in rows:
        cells = [csv_cell(draw, row[name], quote_free) for name in names]
        if id(row) in short:
            cells = cells[:draw(st.integers(0, len(cells) - 1))]
        if id(row) in extra:
            cells.append(draw(st.sampled_from(("", "9", "x"))))
        lines.append(",".join(cells))
    blanks = ("", "   ", " , ,", ",,", "\t", "\xa0") + (() if quote_free else ('""',))
    for _ in range(draw(st.sampled_from(COUNTS))):
        lines.insert(draw(st.integers(1, len(lines))), draw(st.sampled_from(blanks)))
    ends = [draw(st.sampled_from(("\n", "\r\n")))] * len(lines)
    if draw(st.integers(0, 4)) == 0:
        ends[draw(st.integers(0, len(lines) - 1))] = "\r"
    text = "".join(map(str.__add__, lines, ends))
    return (b"\xef\xbb\xbf" if draw(st.booleans()) else b"") + text.encode("utf-8")


def loaded_or_error(load, path):
    try:
        return load(path, "XYZ")
    except ValueError as exc:
        return type(exc), str(exc)


def assert_same_frame(got, want):
    assert got.dates == want.dates and got.tickers == want.tickers
    for name in ("closes", "highs", "lows"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


def assert_loads_as_the_reference(path):
    got = loaded_or_error(load_ohlc_csv, path)
    want = loaded_or_error(load_ohlc_csv_reference, path)
    if isinstance(want, tuple):
        assert got == want
        return
    assert not isinstance(got, tuple), got
    assert_same_frame(got, want)


@given(text=ohlc_csv_texts())
@example(text=b"date,open,high,low,close\n2020-01-02,10,12,9,11\n2020-01-03,1,abc,1,1\n"
              b"2020-01-0x,1,2,1,1\n")  # a bad price on an earlier line than a bad date
@example(text=b"Close,DATE,low,high,open\n\n1.5,2020-01-03,1,2,1.5\n\"2\", 2020-01-02 ,1,3,1\n"
              b"2,2020-01-03,1,3,2\n")  # a duplicate date, named at the later line (5: the blank one counts)
@settings(max_examples=300, deadline=None)
def test_load_matches_the_row_by_row_reference(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("csv") / "XYZ.csv"
    path.write_bytes(text)
    assert_loads_as_the_reference(path)


HEADER = "date,open,high,low,close\n"


@pytest.mark.parametrize("text", [
    pytest.param(HEADER + "2020-01-02,1,2#,0.5,1.5\n", id="hash_in_a_price"),
    pytest.param(HEADER + "2020-01-02#,1,2,0.5,1.5\n", id="hash_after_a_date"),
    pytest.param(HEADER + "2020-01-02,1,2,0.5,1.5#x\n", id="hash_after_the_last_price"),
    pytest.param("date,note,open,high,low,close\n2020-01-02,a#b,1,2,0.5,1.5\n", id="hash_in_an_unused_cell"),
    pytest.param(HEADER + "2020-01-02,1_5,2_0,0.5,1.5\n", id="underscore_in_prices"),
    pytest.param(HEADER + "2020-01-02,\u0661,\u0662,0.5,1.5\n", id="arabic_indic_prices"),
    pytest.param(HEADER + "\xa02020-01-02\t,\t1\xa0,2,\xa00.5,1.5\t\n", id="nbsp_and_tab_padding"),
    pytest.param(HEADER + " \n2020-01-02,1,2,0.5,1.5\n\t\n", id="whitespace_only_rows"),
    pytest.param(HEADER + ",,,,\n2020-01-02,1,2,0.5,1.5\n , ,\n", id="comma_only_rows"),
    pytest.param(HEADER + "2020-01-02,1,2,0.5,1.5,9\n2020-01-03,1,2,0.5,1.5\n", id="extra_trailing_cell"),
    # loadtxt's skiprows=1 would skip the header and the 2020-01-02 row as one line
    pytest.param("date,open,high,low,close,volume\r2020-01-02,1,2,0.5,1.5,7\n2020-01-03,1,2,0.5,1.5,8\n",
                 id="lone_cr_after_the_header"),
    pytest.param(HEADER + "2020-01-02,1,2,0.5,1.5\r2020-01-03,1,2,0.5,1.5\r", id="lone_cr_line_endings"),
    pytest.param(HEADER.replace("\n", "\r\n") + "2020-01-02,1,2,0.5,1.5\r\n\r\n", id="crlf_and_a_blank_line"),
    pytest.param(HEADER + "2020-01-02\0,1,2,0.5,1.5\n", id="nul_after_a_date"),
    pytest.param(HEADER + "2020-01-02,1,2,0.5,1.5\0\n", id="nul_after_a_price"),
    pytest.param(HEADER + "2018-01-01        x,1,2,0.5,1.5\n", id="letter_after_padding_past_the_field"),
    pytest.param(HEADER + "2018-01-01          ,1,2,0.5,1.5\n", id="padding_past_the_field"),
    pytest.param(HEADER, id="header_only"),
    pytest.param(HEADER + "\n\n", id="header_and_empty_lines"),
    # csv.field_size_limit() is 131,072 characters; loadtxt reads longer cells
    pytest.param(HEADER + "2020-01-02,1,2,0.5,1." + "5" * 200_000 + "\n", id="price_past_the_csv_field_limit"),
    pytest.param("date,note,open,high,low,close\n2020-01-02," + "x" * 200_000 + ",1,2,0.5,1.5\n",
                 id="unused_cell_past_the_csv_field_limit"),
    pytest.param("date,open,high,low,close," + "x" * 200_000 + "\n2020-01-02,1,2,0.5,1.5\n",
                 id="header_cell_past_the_csv_field_limit"),
    pytest.param(HEADER + "2020-01-0x,1,2,0.5,1.5\n2020-01-03,1,2,0.5," + "5" * 200_000 + "\n",
                 id="bad_date_before_a_cell_past_the_csv_field_limit"),
])
def test_inputs_on_which_numpy_and_the_csv_module_part_load_as_the_reference(tmp_path, text):
    path = tmp_path / "XYZ.csv"
    path.write_bytes(text.encode("utf-8"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert_loads_as_the_reference(path)
    assert not caught  # loadtxt warns on a header-only file; the warning must not escape


@pytest.mark.parametrize("quoted", [False, True], ids=["plain", "quoted"])
@pytest.mark.parametrize("day", ["20180101", "2018-W01-2", "2018W011"])
def test_dates_other_than_yyyy_mm_dd_are_refused_on_every_python(tmp_path, day, quoted):
    cell = f'"{day}"' if quoted else day
    path = tmp_path / "XYZ.csv"
    path.write_text(f"{HEADER}2017-12-31,1,2,0.5,1.5\n{cell},1,2,0.5,1.5\n")
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}:3: Invalid isoformat string: {day!r}')}$"):
        load_ohlc_csv(path, "XYZ")


BUNDLED = sorted((Path(__file__).resolve().parents[1] / "data" / "synth_crypto").glob("*.csv"))


def test_the_bundled_csvs_are_read_without_the_csv_module(monkeypatch):
    want = [load_ohlc_csv_reference(path, path.stem) for path in BUNDLED]

    def reader(*args, **kwargs):
        raise AssertionError("csv.reader called")

    monkeypatch.setattr(csv, "reader", reader)
    assert len(BUNDLED) == 9
    for path, frame in zip(BUNDLED, want):
        assert_same_frame(load_ohlc_csv(path, path.stem), frame)


def test_the_bundled_csvs_load_the_same_through_the_csv_module_when_loadtxt_fails(monkeypatch):
    calls = []

    def loadtxt(*args, **kwargs):
        calls.append(args)
        raise ValueError("loadtxt failed")

    monkeypatch.setattr(np, "loadtxt", loadtxt)
    for path in BUNDLED:
        assert_same_frame(load_ohlc_csv(path, path.stem), load_ohlc_csv_reference(path, path.stem))
    assert len(calls) == len(BUNDLED) == 9


def test_the_bundled_basket_has_the_same_prices_under_either_calendar():
    # The manifest's forward_fill matters only where an asset misses a day;
    # every bundled asset has every day, so intersect must agree bit for bit.
    entries, alignment = load_manifest(BUNDLED[0].parent / "portfolio.txt")
    frames = [load_ohlc_csv(path, ticker) for ticker, path in entries]
    intersect = align_assets(frames, "intersect")
    forward_fill = align_assets(frames, "forward_fill")
    assert intersect.dates == forward_fill.dates
    assert intersect.tickers == forward_fill.tickers
    assert intersect.prices.tobytes() == forward_fill.prices.tobytes()
    assert alignment == "forward_fill"
    assert len(frames) == 9 and len(intersect.dates) == 2191
    assert all(frame.dates == intersect.dates for frame in frames)


def two_series(tmp_path):
    a = series_from_rows(
        tmp_path,
        [("2020-01-01", 1, 1, 1, 1), ("2020-01-02", 2, 2, 2, 2), ("2020-01-03", 3, 3, 3, 3)],
        ticker="A",
    )
    b = series_from_rows(
        tmp_path,
        [("2020-01-01", 5, 5, 5, 5), ("2020-01-03", 7, 7, 7, 7)],
        ticker="B",
    )
    return a, b


class TestAlign:
    def test_identical_calendars_are_unchanged(self, tmp_path):
        rows = [("2020-01-0%d" % d, d, d, d, d) for d in range(1, 5)]
        a = series_from_rows(tmp_path, rows, ticker="A")
        b = series_from_rows(tmp_path, rows, ticker="B")
        frame = align_assets([a, b], "intersect")
        assert frame.dates == a.dates
        assert np.array_equal(frame.closes[0], a.closes[0])
        assert np.array_equal(frame.closes[1], b.closes[0])

    def test_intersect_drops_partial_dates(self, tmp_path):
        a, b = two_series(tmp_path)
        frame = align_assets([a, b], "intersect")
        assert frame.dates == (date(2020, 1, 1), date(2020, 1, 3))
        assert np.array_equal(frame.closes, [[1.0, 3.0], [5.0, 7.0]])

    def test_forward_fill_copies_most_recent_row(self, tmp_path):
        a, b = two_series(tmp_path)
        frame = align_assets([a, b], "forward_fill")
        assert frame.dates == (date(2020, 1, 1), date(2020, 1, 2), date(2020, 1, 3))
        assert np.array_equal(frame.closes[1], [5.0, 5.0, 7.0])
        assert np.array_equal(frame.highs[1], [5.0, 5.0, 7.0])

    def test_forward_fill_trims_leading_gap(self, tmp_path):
        a = series_from_rows(tmp_path, [("2020-01-01", 1, 1, 1, 1), ("2020-01-02", 2, 2, 2, 2)], ticker="A")
        b = series_from_rows(tmp_path, [("2020-01-02", 9, 9, 9, 9)], ticker="B")
        frame = align_assets([a, b], "forward_fill")
        assert frame.dates == (date(2020, 1, 2),)

    def test_forward_fill_uses_rows_before_the_trimmed_start(self, tmp_path):
        a = series_from_rows(tmp_path, [("2020-01-01", 1, 1, 1, 1), ("2020-01-03", 3, 3, 3, 3)], ticker="A")
        b = series_from_rows(tmp_path, [("2020-01-02", 9, 9, 9, 9), ("2020-01-03", 8, 8, 8, 8)], ticker="B")
        frame = align_assets([a, b], "forward_fill")
        assert frame.dates == (date(2020, 1, 2), date(2020, 1, 3))
        assert np.array_equal(frame.closes[0], [1.0, 3.0])  # Jan 2 filled from Jan 1

    def test_empty_intersection(self, tmp_path):
        a = series_from_rows(tmp_path, [("2020-01-01", 1, 1, 1, 1)], ticker="A")
        b = series_from_rows(tmp_path, [("2020-01-02", 2, 2, 2, 2)], ticker="B")
        with pytest.raises(ValueError, match=re.escape("no common dates across ['A', 'B']")):
            align_assets([a, b], "intersect")

    def test_intersect_is_idempotent(self, tmp_path):
        a, b = two_series(tmp_path)
        once = align_assets([a, b], "intersect")
        again_sources = [
            series_from_rows(
                tmp_path,
                [(d.isoformat(), once.closes[i, j], once.highs[i, j], once.lows[i, j], once.closes[i, j])
                 for j, d in enumerate(once.dates)],
                ticker=f"R{i}",
                header="date,open,high,low,close",
            )
            for i in range(once.n_assets)
        ]
        twice = align_assets(again_sources, "intersect")
        assert twice.dates == once.dates
        assert np.array_equal(twice.closes, once.closes)

    def test_forward_fill_leaves_no_gaps_and_reuses_genuine_cells(self, tmp_path):
        rng = np.random.default_rng(0)
        sources = []
        for i in range(3):
            rows = []
            for d in range(1, 15):
                if rng.random() < 0.7 or d == 1:
                    price = float(rng.uniform(5, 10))
                    rows.append((f"2020-01-{d:02d}", price, price, price, price))
            sources.append(series_from_rows(tmp_path, rows, ticker=f"F{i}"))
        frame = align_assets(sources, "forward_fill")
        assert np.isfinite(frame.closes).all()
        for i, source in enumerate(sources):
            assert set(frame.closes[i]) <= set(source.closes[0])


def frames_on_calendars(calendars, seed):
    """One frame per (days, n_assets) pair: days are offsets from
    2020-01-01, prices random and distinct across the three channels."""
    rng = np.random.default_rng(seed)
    frames = []
    for k, (days, n_assets) in enumerate(calendars):
        shape = (n_assets, len(days))
        frames.append(MarketFrame(
            tickers=tuple(f"F{k}A{a}" for a in range(n_assets)),
            dates=tuple(date(2020, 1, 1) + timedelta(days=d) for d in sorted(days)),
            prices=np.stack([rng.uniform(1.0, 2.0, shape), rng.uniform(2.0, 3.0, shape),
                             rng.uniform(0.5, 1.0, shape)]),
        ))
    return frames


def aligned_or_empty(align, frames, policy):
    try:
        return align(frames, policy)
    except ValueError as exc:
        if not str(exc).startswith("no common dates"):
            raise
        return None


@given(
    calendars=st.lists(st.tuples(st.sets(st.integers(0, 20), min_size=1, max_size=15), st.integers(1, 2)),
                       min_size=1, max_size=4),
    seed=st.integers(0, 2**32 - 1),
)
@example(calendars=[({0, 1, 3, 4}, 2), ({1, 2, 4}, 1)], seed=0)
@settings(max_examples=150, deadline=None)
def test_align_matches_the_per_day_reference(calendars, seed):
    frames = frames_on_calendars(calendars, seed)
    for policy in ALIGNMENT_POLICIES:
        got = aligned_or_empty(align_assets, frames, policy)
        want = aligned_or_empty(align_assets_reference, frames, policy)
        assert (got is None) == (want is None), policy
        if want is None:
            continue
        assert got.dates == want.dates and got.tickers == want.tickers
        for name in ("closes", "highs", "lows"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), (policy, name)


@pytest.mark.parametrize("policy", ALIGNMENT_POLICIES)
def test_loading_and_aligning_never_call_np_unique(tmp_path, monkeypatch, policy):
    # the first np.unique in a process costs about 1.5 MB of peak memory
    def unique(*args, **kwargs):
        raise AssertionError("np.unique called")

    # np.intersect1d and np.union1d call their own module's unique, not np.unique
    set_ops = [sys.modules[name] for name in ("numpy.lib._arraysetops_impl", "numpy.lib.arraysetops")
               if name in sys.modules]
    assert len(set_ops) == 1
    for module in (np, *set_ops):
        monkeypatch.setattr(module, "unique", unique)
    a = series_from_rows(tmp_path, [("2020-01-03", 3, 3, 3, 3), ("2020-01-01", 1, 1, 1, 1),
                                    ("2020-01-02", 2, 2, 2, 2)], ticker="A")
    b = series_from_rows(tmp_path, [("2020-01-03", 7, 7, 7, 7), ("2020-01-01", 5, 5, 5, 5)], ticker="B")
    frame = align_assets([a, b], policy)
    if policy == "intersect":
        assert frame.dates == (date(2020, 1, 1), date(2020, 1, 3))
        assert np.array_equal(frame.closes, [[1.0, 3.0], [5.0, 7.0]])
    else:
        assert frame.dates == (date(2020, 1, 1), date(2020, 1, 2), date(2020, 1, 3))
        assert np.array_equal(frame.closes, [[1.0, 2.0, 3.0], [5.0, 5.0, 7.0]])


class TestSplit:
    def test_window_prefix_indices(self):
        frame = random_walk_frame(np.random.default_rng(1), 2, 100)
        split = split_periods(frame, (frame.dates[0], frame.dates[79]), (frame.dates[80], frame.dates[99]), 5)
        assert split.train.n_steps == 80
        assert split.test.n_steps == 24
        assert split.test.dates[0] == frame.dates[76]
        assert split.test.dates[5 - 1] == frame.dates[80]

    def test_insufficient_train_length(self):
        frame = random_walk_frame(np.random.default_rng(2), 1, 60)
        message = ("train_start = 2020-01-01 .. train_end = 2020-01-03 holds 3 rows, need at least 51 "
                   "(data: 2020-01-01..2020-02-29)")
        with pytest.raises(ValueError, match=re.escape(message)):
            split_periods(frame, (frame.dates[0], frame.dates[2]), (frame.dates[3], frame.dates[59]), 50)

    def test_overlapping_ranges(self):
        frame = random_walk_frame(np.random.default_rng(3), 1, 30)
        message = ("train_start = 2020-01-01 .. train_end = 2020-01-16 must end before test_start = 2020-01-11 .. "
                   "test_end = 2020-01-30 starts (data: 2020-01-01..2020-01-30)")
        with pytest.raises(ValueError, match=re.escape(message)):
            split_periods(frame, (frame.dates[0], frame.dates[15]), (frame.dates[10], frame.dates[29]), 3)

    @pytest.mark.parametrize("empty, outside", [("train", (date(2019, 1, 1), date(2019, 12, 31))),
                                                 ("test", (date(2030, 1, 1), date(2030, 12, 31)))])
    def test_a_range_without_rows_is_named_with_its_dates(self, empty, outside):
        frame = random_walk_frame(np.random.default_rng(3), 1, 30)
        ranges = {"train": (frame.dates[0], frame.dates[20]), "test": (frame.dates[21], frame.dates[29])}
        ranges[empty] = outside
        message = f"{empty}_start = {outside[0]} .. {empty}_end = {outside[1]} holds no rows (data: 2020-01-01..2020-01-30)"
        with pytest.raises(ValueError, match=re.escape(message)):
            split_periods(frame, ranges["train"], ranges["test"], 3)

    def test_nyse_style_date_config(self):
        frame = random_walk_frame(np.random.default_rng(4), 2, 3400, vol=0.01)
        # calendar starts 2020-01-01 in the helper; shift ranges onto it
        start = frame.dates[0]
        train_range = (start, frame.dates[2999])
        test_range = (frame.dates[3000], frame.dates[3399])
        split = split_periods(frame, train_range, test_range, 50)
        assert split.train.dates[-1] < split.test.dates[50 - 1]
        assert split.test.n_steps == 400 + 49

    def test_concatenation_reproduces_frame(self):
        frame = random_walk_frame(np.random.default_rng(5), 3, 60)
        window = 7
        split = split_periods(frame, (frame.dates[0], frame.dates[39]), (frame.dates[40], frame.dates[59]), window)
        rebuilt = np.concatenate([split.train.closes, split.test.closes[:, window - 1 :]], axis=1)
        assert np.array_equal(rebuilt, frame.closes)

    def test_ranges_ending_on_missing_days_match_a_per_date_filter(self):
        weekdays = [date(2020, 1, 1) + timedelta(days=i) for i in range(120)]
        weekdays = [day for day in weekdays if day.weekday() < 5]
        frame = MarketFrame(("A",), tuple(weekdays), np.ones((3, 1, len(weekdays))))
        window = 5
        rng = np.random.default_rng(6)
        outcomes = set()
        for _ in range(400):
            # four ordered calendar days, weekends included, so range ends often fall on a missing day
            offsets = np.sort(rng.choice(130, size=4, replace=False)) - 5
            train_range, test_range = [tuple(date(2020, 1, 1) + timedelta(days=int(o)) for o in pair)
                                       for pair in offsets.reshape(2, 2)]
            train = [i for i, day in enumerate(weekdays) if train_range[0] <= day <= train_range[1]]
            test = [i for i, day in enumerate(weekdays) if test_range[0] <= day <= test_range[1]]
            if not train or not test:
                empty, (start, end) = ("train", train_range) if not train else ("test", test_range)
                with pytest.raises(ValueError, match=f"^{empty}_start = {start} .. {empty}_end = {end} holds no rows "):
                    split_periods(frame, train_range, test_range, window)
                outcomes.add(empty)
            elif len(train) < window + 1:
                with pytest.raises(ValueError, match=f" holds {len(train)} rows, need at least "):
                    split_periods(frame, train_range, test_range, window)
                outcomes.add("short")
            else:
                split = split_periods(frame, train_range, test_range, window)
                assert split.train.dates == tuple(weekdays[train[0] : train[-1] + 1])
                assert split.test.dates == tuple(weekdays[test[0] - (window - 1) : test[-1] + 1])
                outcomes.add("split")
        assert outcomes == {"train", "test", "short", "split"}


class TestPriceRelatives:
    def test_direct_division(self):
        frame = make_frame([[10.0, 11.0], [20.0, 18.0]])
        assert np.allclose(price_relatives(frame, 1), [1.0, 1.1, 0.9])

    def test_constant_prices_give_ones(self):
        frame = make_frame([[7.0, 7.0, 7.0]])
        assert np.array_equal(price_relatives(frame, 2), [1.0, 1.0])

    def test_halving_close(self):
        frame = make_frame([[8.0, 4.0]])
        assert np.array_equal(price_relatives(frame, 1), [1.0, 0.5])

    def test_out_of_range(self):
        frame = make_frame([[1.0, 2.0]])
        with pytest.raises(IndexError, match=re.escape("step 0 outside [1, 2)")):
            price_relatives(frame, 0)
        with pytest.raises(IndexError, match=re.escape("step 2 outside [1, 2)")):
            price_relatives(frame, 2)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30)
    def test_bit_for_bit_against_naive_recomputation(self, seed):
        frame = random_walk_frame(np.random.default_rng(seed), 3, 12)
        expected = np.array([[1.0] + [frame.closes[i, t] / frame.closes[i, t - 1] for i in range(3)]
                             for t in range(1, frame.n_steps)])
        for t in range(1, frame.n_steps):
            assert np.array_equal(price_relatives(frame, t), expected[t - 1])
        for first, stop in ((1, frame.n_steps), (4, 9), (5, 5)):
            assert step_relatives(frame, first, stop).tobytes() == expected[first - 1 : stop - 1].tobytes()


@pytest.mark.parametrize("shape", [(2, 4), (3, 3, 4), (3, 2, 3), (4, 2, 4)],
                         ids=["no_channel_axis", "one_asset_too_many", "one_day_too_few", "four_channels"])
def test_prices_of_another_shape_than_channels_assets_days_are_refused(shape):
    dates = tuple(date(2020, 1, 1) + timedelta(days=i) for i in range(4))
    with pytest.raises(ValueError) as err:
        MarketFrame(("A", "B"), dates, np.ones(shape))
    assert str(err.value) == f"prices has shape {shape}, expected (3, 2, 4)"


def test_frame_channels_are_views_of_its_prices():
    frame = make_frame([[1.0, 2.0, 3.0]], spread=0.5)
    assert np.shares_memory(frame.closes, frame.prices)
    assert [frame.closes.tolist(), frame.highs.tolist(), frame.lows.tolist()] == frame.prices.tolist()
    assert frame.prices.tolist() == [[[1.0, 2.0, 3.0]], [[1.5, 3.0, 4.5]], [[0.5, 1.0, 1.5]]]


def test_frame_matrices_are_read_only():
    frame = make_frame([[1.0, 2.0, 3.0]])
    for matrix in (frame.prices, frame.closes):
        with pytest.raises(ValueError):
            matrix[..., 0] = 99.0


def test_unpickled_frame_matrices_are_read_only():
    # spawned campaign jobs train on frames unpickled from the parent process
    frame = pickle.loads(pickle.dumps(make_frame([[1.0, 2.0, 3.0]])))
    assert frame.closes.tolist() == [[1.0, 2.0, 3.0]]
    for matrix in (frame.prices, frame.closes, frame.highs, frame.lows):
        with pytest.raises(ValueError):
            matrix[..., 0] = 99.0


def test_manifest_parsing(tmp_path):
    (tmp_path / "a.csv").write_text("date,open,high,low,close\n2020-01-01,1,1,1,1\n")
    manifest = tmp_path / "portfolio.txt"
    manifest.write_text("# demo portfolio\nalignment = forward_fill\nAAA a.csv\n")
    entries, alignment = load_manifest(manifest)
    assert alignment == "forward_fill"
    assert entries[0][0] == "AAA"
    assert entries[0][1].name == "a.csv"
    manifest.write_text("AAA a.csv\n")  # no alignment line: the intersect calendar
    assert load_manifest(manifest)[1] == "intersect"

    bad = tmp_path / "portfolio2.txt"
    bad.write_text("files = x\n")
    with pytest.raises(ValueError):
        load_manifest(bad)


def test_manifest_byte_order_mark_is_not_part_of_the_first_ticker(tmp_path):
    (tmp_path / "a.csv").touch()
    (tmp_path / "b.csv").touch()
    manifest = tmp_path / "portfolio.txt"
    manifest.write_bytes("\ufeffCOIN1 a.csv\nCOIN2 b.csv\n".encode("utf-8"))
    entries, _ = load_manifest(manifest)
    assert [ticker for ticker, _ in entries] == ["COIN1", "COIN2"]


def test_manifest_ticker_listed_twice_names_file_and_both_lines(tmp_path):
    (tmp_path / "a.csv").touch()
    (tmp_path / "b.csv").touch()
    manifest = tmp_path / "portfolio.txt"
    manifest.write_text("AAA a.csv\nBBB b.csv\n# comment\nAAA c.csv\n")
    with pytest.raises(ValueError) as err:
        load_manifest(manifest)
    message = str(err.value)
    assert str(manifest) in message and "'AAA'" in message and "lines 1 and 4" in message


def test_manifest_alignment_given_twice_names_file_and_both_lines(tmp_path):
    manifest = tmp_path / "portfolio.txt"
    manifest.write_text("alignment = intersect\nAAA a.csv\nalignment = forward_fill\n")
    with pytest.raises(ValueError) as err:
        load_manifest(manifest)
    message = str(err.value)
    assert str(manifest) in message and "alignment" in message and "lines 1 and 3" in message


def test_manifest_unknown_alignment_names_file_and_line(tmp_path):
    manifest = tmp_path / "portfolio.txt"
    manifest.write_text("AAA a.csv\nalignment = forwardfill\n")
    with pytest.raises(ValueError) as err:
        load_manifest(manifest)
    message = str(err.value)
    assert f"{manifest}:2:" in message and "'forwardfill'" in message


def test_manifest_ticker_without_a_path_names_file_and_line(tmp_path):
    (tmp_path / "a.csv").touch()
    manifest = tmp_path / "portfolio.txt"
    manifest.write_text("AAA a.csv\n# comment\nBBB\n")
    with pytest.raises(ValueError) as err:
        load_manifest(manifest)
    assert str(err.value) == f"{manifest}:3: expected 'TICKER PATH'"


def test_manifest_without_assets_names_the_file(tmp_path):
    manifest = tmp_path / "portfolio.txt"
    manifest.write_text("# no assets yet\nalignment = intersect\n\n")
    with pytest.raises(ValueError) as err:
        load_manifest(manifest)
    assert str(err.value) == f"{manifest}: manifest lists no assets"
