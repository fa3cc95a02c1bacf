import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import make_frame, random_walk_frame
from portrl.market_data import MarketFrame
from portrl.normalization import (
    DATA_MAX,
    NonPositiveScale,
    TickerMismatch,
    apply_data_max,
    fit_data_max,
    normalize_window,
    scheme_from_kind,
)


def normalize_last_close(closes, highs, lows):
    return normalize_window(scheme_from_kind("last_close"), np.stack([closes, highs, lows]))


def normalize_last_price(closes, highs, lows):
    return normalize_window(scheme_from_kind("last_price"), np.stack([closes, highs, lows]))


def single_asset_window():
    closes = np.array([[1.0, 2.0, 4.0]])
    highs = np.array([[1.5, 2.5, 4.4]])
    lows = np.array([[0.9, 1.8, 3.8]])
    return closes, highs, lows


class TestLastClose:
    def test_divides_every_feature_by_final_close(self):
        state = normalize_last_close(*single_asset_window())
        assert np.allclose(state[0], [[0.25, 0.5, 1.0]])
        assert np.allclose(state[1], [[0.375, 0.625, 1.1]])
        assert np.allclose(state[2], [[0.225, 0.45, 0.95]])

    def test_constant_prices_become_ones(self):
        flat = np.full((2, 4), 3.7)
        state = normalize_last_close(flat, flat, flat)
        assert np.array_equal(state, np.ones((3, 2, 4)))

    def test_assets_do_not_mix(self):
        closes = np.array([[1.0, 2.0], [10.0, 40.0]])
        state = normalize_last_close(closes, closes, closes)
        assert np.allclose(state[0], [[0.5, 1.0], [0.25, 1.0]])

    def test_close_plane_ends_in_ones(self):
        rng = np.random.default_rng(0)
        closes = np.abs(rng.normal(5, 1, (4, 6))) + 0.5
        state = normalize_last_close(closes, closes * 1.1, closes * 0.9)
        assert np.array_equal(state[0][:, -1], np.ones(4))


class TestLastPrice:
    def test_each_feature_uses_its_own_last_value(self):
        closes = np.array([[1.0, 2.0, 4.0]])
        highs = np.array([[1.5, 2.5, 5.0]])
        lows = np.array([[0.8, 1.6, 3.2]])
        state = normalize_last_price(closes, highs, lows)
        assert np.allclose(state[0], [[0.25, 0.5, 1.0]])
        assert np.allclose(state[1], [[0.3, 0.5, 1.0]])
        assert np.allclose(state[2], [[0.25, 0.5, 1.0]])

    def test_every_feature_ends_in_ones(self):
        rng = np.random.default_rng(1)
        closes = np.abs(rng.normal(5, 1, (3, 8))) + 0.5
        state = normalize_last_price(closes, closes * 1.2, closes * 0.8)
        assert np.array_equal(state[:, :, -1], np.ones((3, 3)))

    def test_matches_last_close_when_divisors_coincide(self):
        closes = np.array([[2.0, 3.0, 5.0]])
        state_lp = normalize_last_price(closes, closes, closes)
        state_lc = normalize_last_close(closes, closes, closes)
        assert np.array_equal(state_lp, state_lc)


class TestDataMax:
    def test_scale_is_training_max_high(self):
        frame = MarketFrame(
            tickers=("A",),
            dates=make_frame([[1.0, 1.0, 1.0]]).dates,
            prices=np.array([[[1.9, 7.5, 3.8]], [[2.0, 8.0, 4.0]], [[1.8, 7.0, 3.5]]]),
        )
        scheme = fit_data_max(frame)
        assert scheme.scales == (8.0,)
        scaled = apply_data_max(scheme, frame)
        assert np.allclose(scaled.closes, [[0.2375, 0.9375, 0.475]])

    def test_scales_are_per_asset(self):
        frame = make_frame([[1.0, 2.0], [10.0, 30.0]], spread=0.0)
        scheme = fit_data_max(frame)
        assert scheme.scales == (2.0, 30.0)

    def test_constant_asset_normalizes_to_one(self):
        flat = np.full((1, 5), 4.2)
        frame = MarketFrame(("A",), make_frame(flat).dates, np.stack([flat] * 3))
        scheme = fit_data_max(frame)
        scaled = apply_data_max(scheme, frame)
        assert np.allclose(scaled.highs, 1.0)

    def test_test_period_values_may_exceed_one(self):
        train = make_frame([[2.0, 8.0, 4.0]], spread=0.0)
        test = make_frame([[10.0, 12.0]], spread=0.0)
        scheme = fit_data_max(train)
        scaled = apply_data_max(scheme, test)
        assert scaled.closes.max() == 1.5

    def test_identity_scales_leave_frame_unchanged(self):
        frame = random_walk_frame(np.random.default_rng(2), 2, 6)
        scheme = fit_data_max(frame)
        unit = type(scheme)(kind=DATA_MAX, tickers=frame.tickers, scales=(1.0, 1.0))
        scaled = apply_data_max(unit, frame)
        assert np.array_equal(scaled.closes, frame.closes)

    def test_training_max_high_is_exactly_one_after_apply(self):
        frame = random_walk_frame(np.random.default_rng(3), 4, 30)
        scheme = fit_data_max(frame)
        scaled = apply_data_max(scheme, frame)
        assert np.array_equal(scaled.highs.max(axis=1), np.ones(4))

    def test_ticker_mismatch(self):
        frame = random_walk_frame(np.random.default_rng(4), 2, 5)
        scheme = fit_data_max(frame)
        other = MarketFrame(("X", "Y"), frame.dates, frame.prices.copy())
        with pytest.raises(TickerMismatch):
            apply_data_max(scheme, other)

    def test_non_positive_scale_is_defended(self):
        zeros = np.zeros((1, 3))
        frame = MarketFrame(("A",), make_frame(zeros).dates, np.stack([zeros] * 3))
        with pytest.raises(NonPositiveScale):
            fit_data_max(frame)


@given(st.floats(min_value=1e-6, max_value=1e6))
@settings(max_examples=60)
def test_state_schemes_are_scale_invariant(scale):
    closes, highs, lows = single_asset_window()
    for normalize in (normalize_last_close, normalize_last_price):
        base = normalize(closes, highs, lows)
        scaled = normalize(closes * scale, highs * scale, lows * scale)
        assert np.abs(scaled - base).max() / np.abs(base).max() < 1e-12


def test_data_max_is_not_scale_invariant_across_train_test():
    train = make_frame([[2.0, 8.0, 4.0]], spread=0.0)
    test = make_frame([[6.0, 7.0]], spread=0.0)
    scheme = fit_data_max(train)
    base = apply_data_max(scheme, test)
    scaled_test = make_frame([[12.0, 14.0]], spread=0.0)
    scaled = apply_data_max(scheme, scaled_test)
    assert np.allclose(scaled.closes, 2.0 * base.closes)


def test_single_divisor_schemes_preserve_ohlc_ordering():
    frame = random_walk_frame(np.random.default_rng(5), 3, 20)
    window = (frame.closes[:, :10], frame.highs[:, :10], frame.lows[:, :10])
    for state in (normalize_last_close(*window), normalize_window(fit_data_max(frame), np.stack(window))):
        assert (state[2] <= state[0] + 1e-15).all()
        assert (state[0] <= state[1] + 1e-15).all()


def test_normalize_window_dispatch():
    closes, highs, lows = single_asset_window()
    divisor = closes[:, -1:]
    assert np.array_equal(
        normalize_window(scheme_from_kind("last_close"), np.stack([closes, highs, lows])),
        np.stack([closes / divisor, highs / divisor, lows / divisor]),
    )
    assert np.array_equal(
        normalize_window(scheme_from_kind("last_price"), np.stack([closes, highs, lows])),
        np.stack([closes / closes[:, -1:], highs / highs[:, -1:], lows / lows[:, -1:]]),
    )
    passthrough = normalize_window(
        fit_data_max(make_frame([[1.0, 2.0, 4.0]])), np.stack([closes, highs, lows])
    )
    assert np.array_equal(passthrough, np.stack([closes, highs, lows]))


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        scheme_from_kind("zscore")
