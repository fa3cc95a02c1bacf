import pickle
import re
import sys
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import align_assets_reference, load_ohlc_csv_reference, make_frame, random_walk_frame, write_ohlc_csv
from portrl.market_data import (
    ALIGNMENT_POLICIES,
    EmptyIntersection,
    EmptySeries,
    IndexOutOfRange,
    InsufficientTrainLength,
    MarketFrame,
    MissingColumn,
    OhlcOrderingViolation,
    RangesOverlap,
    UnparsableRow,
    align_assets,
    load_manifest,
    load_ohlc_csv,
    price_relatives,
    split_periods,
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
        with pytest.raises(OhlcOrderingViolation) as err:
            series_from_rows(tmp_path, [("2020-01-02", 10, 12, 9, 14)])
        assert "2020-01-02" in str(err.value)

    @pytest.mark.parametrize("open_price", [8, 13])
    def test_open_outside_low_high_rejected(self, tmp_path, open_price):
        with pytest.raises(OhlcOrderingViolation) as err:
            series_from_rows(tmp_path, [("2020-01-02", open_price, 12, 9, 11)])
        assert "open=" in str(err.value)

    def test_shuffled_rows_match_sorted_input(self, tmp_path):
        rows = [("2020-01-0%d" % d, 10 + d, 12 + d, 9 + d, 11 + d) for d in range(2, 8)]
        sorted_series = series_from_rows(tmp_path, rows, ticker="S")
        shuffled = [rows[i] for i in (3, 0, 5, 2, 4, 1)]
        shuffled_series = series_from_rows(tmp_path, shuffled, ticker="T")
        assert sorted_series.dates == shuffled_series.dates
        assert np.array_equal(sorted_series.closes, shuffled_series.closes)

    def test_missing_column(self, tmp_path):
        with pytest.raises(MissingColumn):
            series_from_rows(tmp_path, [("2020-01-02", 10, 12, 9)], header="date,open,high,low")

    def test_unparsable_row_reports_line_number(self, tmp_path):
        with pytest.raises(UnparsableRow) as err:
            series_from_rows(tmp_path, [("2020-01-02", 10, 12, 9, 11), ("not-a-date", 1, 2, 1, 1)])
        assert ":3:" in str(err.value)

    @pytest.mark.parametrize("bad", ["inf", "nan", "-inf"])
    def test_non_finite_price_rejected_with_line(self, tmp_path, bad):
        # an all-inf row satisfies 0 < low <= close <= high
        with pytest.raises(UnparsableRow) as err:
            series_from_rows(tmp_path, [("2020-01-02", 10, 12, 9, 11), ("2020-01-03", bad, bad, bad, bad)])
        assert "XYZ.csv:3:" in str(err.value)

    def test_duplicate_date_rejected(self, tmp_path):
        with pytest.raises(UnparsableRow):
            series_from_rows(tmp_path, [("2020-01-02", 10, 12, 9, 11), ("2020-01-02", 1, 2, 1, 1)])

    def test_empty_file_and_headers_only(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        with pytest.raises(EmptySeries):
            load_ohlc_csv(empty, "E")
        with pytest.raises(EmptySeries):
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
CORRUPTIONS = ("short", "date", "price", "non_finite", "duplicate", "ohlc")


def csv_cell(draw, text):
    """A cell as written: plain, quoted, or padded with spaces."""
    style = draw(st.sampled_from(("plain", "plain", "quoted", "spaced")))
    if style == "quoted":
        return f'"{text}"'
    return f" {text}  " if style == "spaced" else text


@st.composite
def ohlc_csv_texts(draw):
    """CSV bytes in the accepted syntax: required columns in any order and
    case among extra ones, rows in any date order, blank rows, quoted and
    padded cells, either line ending, an optional byte-order mark; 0-3
    rows are then corrupted."""
    extras = draw(st.lists(st.sampled_from(("volume", "adj close", "note")), unique=True))
    names = draw(st.permutations(REQUIRED + tuple(extras)))
    header = [draw(st.sampled_from((name, name.upper(), name.title(), f" {name} "))) for name in names]
    days = draw(st.lists(st.integers(0, 60), min_size=1, max_size=10, unique=True))
    rows = []
    for day in days:
        low, open_, close, high = sorted(draw(st.lists(st.floats(0.01, 1e4), min_size=4, max_size=4)))
        if draw(st.booleans()):
            open_, close = close, open_
        rows.append({"date": (date(2020, 1, 1) + timedelta(days=day)).isoformat(), "open": repr(open_),
                     "high": repr(high), "low": repr(low), "close": repr(close),
                     "volume": str(draw(st.integers(0, 10**6))), "adj close": repr(close), "note": "x y"})
    short = set()
    for _ in range(draw(st.integers(0, 3))):
        row = rows[draw(st.integers(0, len(rows) - 1))]
        kind = draw(st.sampled_from(CORRUPTIONS))
        price = draw(st.sampled_from(REQUIRED[1:]))
        if kind == "short":
            short.add(id(row))
        elif kind == "date":
            row["date"] = draw(st.sampled_from(("2020-02-30", "not-a-date", "", "2020/01/02")))
        elif kind == "price":
            row[price] = draw(st.sampled_from(("abc", "", "1.5.0", "--1")))
        elif kind == "non_finite":
            row[price] = draw(st.sampled_from(("inf", "nan", "-inf", "Infinity")))
        elif kind == "duplicate":
            row["date"] = draw(st.sampled_from(rows))["date"]
        else:
            row[price] = draw(st.sampled_from(("0", "-1.5", "1e9", "1e-9")))
    lines = [",".join(header)]
    for row in rows:
        cells = [csv_cell(draw, row[name]) for name in names]
        if id(row) in short:
            cells = cells[:draw(st.integers(0, len(cells) - 1))]
        lines.append(",".join(cells))
    for _ in range(draw(st.integers(0, 3))):
        blank = draw(st.sampled_from(("", "   ", " , ,", '""', "\t")))
        lines.insert(draw(st.integers(1, len(lines))), blank)
    text = draw(st.sampled_from(("\n", "\r\n"))).join(lines) + "\n"
    return (b"\xef\xbb\xbf" if draw(st.booleans()) else b"") + text.encode("utf-8")


def loaded_or_error(load, path):
    try:
        return load(path, "XYZ")
    except ValueError as exc:
        return type(exc), str(exc)


@given(text=ohlc_csv_texts())
@example(text=b"date,open,high,low,close\n2020-01-02,10,12,9,11\n2020-01-03,1,abc,1,1\n"
              b"2020-01-0x,1,2,1,1\n")  # a bad price on an earlier line than a bad date
@example(text=b"Close,DATE,low,high,open\n\n1.5,2020-01-03,1,2,1.5\n\"2\", 2020-01-02 ,1,3,1\n"
              b"2,2020-01-03,1,3,2\n")  # a duplicate date, named at the later line (5: the blank one counts)
@settings(max_examples=300, deadline=None)
def test_load_matches_the_row_by_row_reference(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("csv") / "XYZ.csv"
    path.write_bytes(text)
    got = loaded_or_error(load_ohlc_csv, path)
    want = loaded_or_error(load_ohlc_csv_reference, path)
    if isinstance(want, tuple):
        assert got == want
        return
    assert not isinstance(got, tuple), got
    assert got.dates == want.dates and got.tickers == want.tickers
    for name in ("closes", "highs", "lows"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


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
        with pytest.raises(EmptyIntersection):
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
    2020-01-01, prices random and distinct across the three matrices."""
    rng = np.random.default_rng(seed)
    frames = []
    for k, (days, n_assets) in enumerate(calendars):
        shape = (n_assets, len(days))
        frames.append(MarketFrame(
            tickers=tuple(f"F{k}A{a}" for a in range(n_assets)),
            dates=tuple(date(2020, 1, 1) + timedelta(days=d) for d in sorted(days)),
            closes=rng.uniform(1.0, 2.0, shape),
            highs=rng.uniform(2.0, 3.0, shape),
            lows=rng.uniform(0.5, 1.0, shape),
        ))
    return frames


def aligned_or_empty(align, frames, policy):
    try:
        return align(frames, policy)
    except EmptyIntersection:
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
        message = "train range 2020-01-01..2020-01-03 holds 3 rows, need at least 51 (data: 2020-01-01..2020-02-29)"
        with pytest.raises(InsufficientTrainLength, match=re.escape(message)):
            split_periods(frame, (frame.dates[0], frame.dates[2]), (frame.dates[3], frame.dates[59]), 50)

    def test_overlapping_ranges(self):
        frame = random_walk_frame(np.random.default_rng(3), 1, 30)
        message = ("train range 2020-01-01..2020-01-16 must end before test range 2020-01-11..2020-01-30 "
                   "starts (data: 2020-01-01..2020-01-30)")
        with pytest.raises(RangesOverlap, match=re.escape(message)):
            split_periods(frame, (frame.dates[0], frame.dates[15]), (frame.dates[10], frame.dates[29]), 3)

    @pytest.mark.parametrize("empty, outside", [("train", (date(2019, 1, 1), date(2019, 12, 31))),
                                                 ("test", (date(2030, 1, 1), date(2030, 12, 31)))])
    def test_a_range_without_rows_is_named_with_its_dates(self, empty, outside):
        frame = random_walk_frame(np.random.default_rng(3), 1, 30)
        ranges = {"train": (frame.dates[0], frame.dates[20]), "test": (frame.dates[21], frame.dates[29])}
        ranges[empty] = outside
        message = f"{empty} range {outside[0]}..{outside[1]} holds no rows (data: 2020-01-01..2020-01-30)"
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
        frame = MarketFrame(("A",), tuple(weekdays), *np.ones((3, 1, len(weekdays))))
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
                with pytest.raises(ValueError, match=f"^{empty} range {start}..{end} holds no rows "):
                    split_periods(frame, train_range, test_range, window)
                outcomes.add(empty)
            elif len(train) < window + 1:
                with pytest.raises(InsufficientTrainLength, match=f" holds {len(train)} rows, need at least "):
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
        with pytest.raises(IndexOutOfRange):
            price_relatives(frame, 0)
        with pytest.raises(IndexOutOfRange):
            price_relatives(frame, 2)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30)
    def test_bit_for_bit_against_naive_recomputation(self, seed):
        frame = random_walk_frame(np.random.default_rng(seed), 3, 12)
        for t in range(1, frame.n_steps):
            expected = np.array([1.0] + [frame.closes[i, t] / frame.closes[i, t - 1] for i in range(3)])
            assert np.array_equal(price_relatives(frame, t), expected)


def test_frame_matrices_are_read_only():
    frame = make_frame([[1.0, 2.0, 3.0]])
    with pytest.raises(ValueError):
        frame.closes[0, 0] = 99.0


def test_unpickled_frame_matrices_are_read_only():
    # campaign workers train on frames unpickled from the parent process
    frame = pickle.loads(pickle.dumps(make_frame([[1.0, 2.0, 3.0]])))
    assert frame.closes.tolist() == [[1.0, 2.0, 3.0]]
    for matrix in (frame.closes, frame.highs, frame.lows):
        with pytest.raises(ValueError):
            matrix[0, 0] = 99.0


def test_manifest_parsing(tmp_path):
    (tmp_path / "a.csv").write_text("date,open,high,low,close\n2020-01-01,1,1,1,1\n")
    manifest = tmp_path / "portfolio.txt"
    manifest.write_text("# demo portfolio\nalignment = forward_fill\nAAA a.csv\n")
    entries, alignment = load_manifest(manifest)
    assert alignment == "forward_fill"
    assert entries[0][0] == "AAA"
    assert entries[0][1].name == "a.csv"

    bad = tmp_path / "portfolio2.txt"
    bad.write_text("files = x\n")
    with pytest.raises(ValueError):
        load_manifest(bad)


def test_manifest_byte_order_mark_is_not_part_of_the_first_ticker(tmp_path):
    manifest = tmp_path / "portfolio.txt"
    manifest.write_bytes("\ufeffCOIN1 a.csv\nCOIN2 b.csv\n".encode("utf-8"))
    entries, _ = load_manifest(manifest)
    assert [ticker for ticker, _ in entries] == ["COIN1", "COIN2"]


def test_manifest_ticker_listed_twice_names_file_and_both_lines(tmp_path):
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
