import pickle
from datetime import date

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import make_frame, random_walk_frame, write_ohlc_csv
from portrl.market_data import (
    EmptyIntersection,
    EmptySeries,
    IndexOutOfRange,
    InsufficientTrainLength,
    MissingColumn,
    NoCommonStart,
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
        assert len(series) == 2
        assert series.dates == (date(2020, 1, 2), date(2020, 1, 3))
        assert np.array_equal(series.closes, [11.0, 12.0])
        assert np.array_equal(series.highs, [12.0, 13.0])
        assert np.array_equal(series.lows, [9.0, 10.0])
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

    def test_extra_columns_and_case_insensitive_header(self, tmp_path):
        series = series_from_rows(
            tmp_path,
            [("2020-01-02", 10, 12, 9, 11, 99999)],
            header="Date,Open,High,Low,Close,Volume",
        )
        assert series.closes[0] == 11.0


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
        assert np.array_equal(frame.closes[0], a.closes)
        assert np.array_equal(frame.closes[1], b.closes)

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
            assert set(frame.closes[i]) <= set(source.closes)


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
        with pytest.raises(InsufficientTrainLength):
            split_periods(frame, (frame.dates[0], frame.dates[2]), (frame.dates[3], frame.dates[59]), 50)

    def test_overlapping_ranges(self):
        frame = random_walk_frame(np.random.default_rng(3), 1, 30)
        with pytest.raises(RangesOverlap):
            split_periods(frame, (frame.dates[0], frame.dates[15]), (frame.dates[10], frame.dates[29]), 3)

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
