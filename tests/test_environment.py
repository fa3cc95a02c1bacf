import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import make_frame, random_simplex, random_walk_frame, transaction_factor_oracle
from portrl.environment import (
    InvalidAction,
    build_state,
    coerce_action,
    drift_value,
    drift_weights,
    env_reset,
    env_step,
    transaction_factor,
)
from portrl.normalization import fit_data_max, apply_data_max, scheme_from_kind

LAST_CLOSE = scheme_from_kind("last_close")

simplex_entries = st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=2, max_size=8)


class TestDriftWeights:
    def test_all_cash_never_drifts(self):
        w = np.array([1.0, 0.0, 0.0])
        y = np.array([1.0, 3.0, 0.2])
        assert np.array_equal(drift_weights(w, y), w)

    def test_flat_prices_leave_weights_unchanged(self):
        w = np.array([0.2, 0.3, 0.5])
        assert np.allclose(drift_weights(w, np.ones(3)), w)

    def test_hand_evaluated_case(self):
        # (y*w)/(y.w) with w=[0,.5,.5], y=[1,2,1]: [0,1,.5]/1.5
        out = drift_weights(np.array([0.0, 0.5, 0.5]), np.array([1.0, 2.0, 1.0]))
        assert np.allclose(out, [0.0, 2.0 / 3.0, 1.0 / 3.0], atol=1e-15)

    @given(simplex_entries, simplex_entries)
    @settings(max_examples=100)
    def test_output_stays_on_simplex(self, raw_w, raw_y):
        size = min(len(raw_w), len(raw_y))
        w = np.array(raw_w[:size]) / sum(raw_w[:size])
        y = np.array(raw_y[:size]) * 4.0
        y[0] = 1.0
        out = drift_weights(w, y)
        assert abs(out.sum() - 1.0) < 1e-12
        assert (out >= 0.0).all() and (out <= 1.0 + 1e-15).all()


class TestDriftValue:
    def test_cash_keeps_value(self):
        assert drift_value(5000.0, np.array([1.0, 0.0]), np.array([1.0, 1.7])) == 5000.0

    def test_single_asset(self):
        assert np.isclose(drift_value(1.0, np.array([0.0, 1.0]), np.array([1.0, 1.1])), 1.1)

    def test_dot_product(self):
        assert np.isclose(
            drift_value(100_000.0, np.array([0.5, 0.5]), np.array([1.0, 1.2])), 110_000.0
        )


class TestTransactionFactor:
    def test_no_rebalancing_gives_exactly_one(self):
        w = np.array([0.25, 0.25, 0.5])
        assert transaction_factor(w, w, 0.0025) == 1.0
        # bisection lands within its bracket tolerance of the endpoint root
        assert abs(transaction_factor_oracle(w, w, 0.0025) - 1.0) < 1e-13

    def test_full_liquidation_closed_form(self):
        w_from = np.array([0.0, 1.0])
        w_to = np.array([1.0, 0.0])
        for c in (0.0025, 0.01):
            assert abs(transaction_factor(w_from, w_to, c) - (1.0 - c)) < 1e-12

    def test_zero_commission_is_one(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a, b = random_simplex(rng, 5), random_simplex(rng, 5)
            assert transaction_factor(a, b, 0.0) == 1.0
            assert transaction_factor_oracle(a, b, 0.0) == 1.0

    def test_agrees_with_bisection_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            n = int(rng.integers(2, 9))
            a, b = random_simplex(rng, n), random_simplex(rng, n)
            c = float(rng.uniform(0.0, 0.01))
            assert abs(transaction_factor(a, b, c) - transaction_factor_oracle(a, b, c)) < 1e-10

    def test_a_nan_weight_gives_a_nan_factor_not_no_convergence(self):
        cash, unknown = np.array([1.0, 0.0, 0.0]), np.full(3, np.nan)
        assert math.isnan(transaction_factor(cash, unknown, 0.0025))
        assert math.isnan(transaction_factor(unknown, cash, 0.0025))

    def test_monotone_weakly_decreasing_in_commission(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            a, b = random_simplex(rng, 4), random_simplex(rng, 4)
            factors = [transaction_factor(a, b, c) for c in (0.0, 0.001, 0.0025, 0.005, 0.01)]
            assert all(hi >= lo - 1e-15 for hi, lo in zip(factors, factors[1:]))
            assert all(0.0 < f <= 1.0 for f in factors)


class TestBuildState:
    def test_first_decidable_step_takes_leading_window(self):
        frame = random_walk_frame(np.random.default_rng(3), 2, 60)
        state = build_state(frame, 49, 50, LAST_CLOSE)
        assert state.shape == (3, 2, 50)
        expected = frame.closes[:, :50] / frame.closes[:, 49:50]
        assert np.array_equal(state[0], expected)

    def test_last_close_final_column_is_ones(self):
        frame = random_walk_frame(np.random.default_rng(4), 3, 20)
        state = build_state(frame, 10, 8, LAST_CLOSE)
        assert np.array_equal(state[0][:, -1], np.ones(3))

    def test_data_max_is_passthrough_on_prescaled_frame(self):
        flat = np.full((1, 10), 6.0)
        frame = make_frame(flat, spread=0.0)
        scheme = fit_data_max(frame)
        scaled = apply_data_max(scheme, frame)
        state = build_state(scaled, 5, 4, scheme)
        assert np.array_equal(state, np.ones((3, 1, 4)))

    def test_window_out_of_range(self):
        frame = random_walk_frame(np.random.default_rng(5), 1, 10)
        with pytest.raises(IndexError, match=re.escape("step 3 with window 5 outside frame of length 10")):
            build_state(frame, 3, 5, LAST_CLOSE)
        with pytest.raises(IndexError, match=re.escape("step 10 with window 5 outside frame of length 10")):
            build_state(frame, 10, 5, LAST_CLOSE)


class TestEnvResetStep:
    def test_reset_is_all_cash_at_initial_value(self):
        frame = random_walk_frame(np.random.default_rng(6), 3, 30)
        state, obs = env_reset(frame, 5, LAST_CLOSE, 100_000.0, 0.0025)
        assert state.value == 100_000.0
        assert np.array_equal(state.weights, [1.0, 0.0, 0.0, 0.0])
        assert state.t == 4
        assert obs.shape == (3, 3, 5)

    def test_reset_is_deterministic(self):
        frame = random_walk_frame(np.random.default_rng(7), 2, 20)
        first, obs_a = env_reset(frame, 4, LAST_CLOSE, 100_000.0, 0.0025)
        second, obs_b = env_reset(frame, 4, LAST_CLOSE, 100_000.0, 0.0025)
        assert np.array_equal(first.weights, second.weights)
        assert np.array_equal(obs_a, obs_b)

    def test_window_equal_to_frame_length_is_too_short(self):
        frame = random_walk_frame(np.random.default_rng(8), 1, 10)
        with pytest.raises(ValueError, match=re.escape("frame of length 10 allows no step with window 10")):
            env_reset(frame, 10, LAST_CLOSE, 100_000.0, 0.0025)

    def test_holding_through_flat_prices_earns_zero(self):
        flat = np.full((2, 12), 5.0)
        frame = make_frame(flat, spread=0.0)
        state, _ = env_reset(frame, 3, LAST_CLOSE, 1000.0, 0.0025)
        action = state.drifted_weights
        new_state, _, reward = env_step(state, action)
        assert reward == 0.0
        assert new_state.drifted_value == 1000.0

    def test_all_cash_forever_pays_nothing_after_reset(self):
        frame = random_walk_frame(np.random.default_rng(9), 2, 15)
        state, _ = env_reset(frame, 3, LAST_CLOSE, 1000.0, 0.0025)
        cash = np.array([1.0, 0.0, 0.0])
        while not state.terminal:
            state, _, reward = env_step(state, cash)
            assert reward == 0.0
        assert state.drifted_value == 1000.0

    def test_liquidation_costs_log_mu_once_then_cash_is_inert(self):
        frame = random_walk_frame(np.random.default_rng(25), 2, 15)
        state, _ = env_reset(frame, 3, LAST_CLOSE, 1000.0, 0.0025)
        state, _, _ = env_step(state, np.array([0.0, 0.6, 0.4]))
        mu = transaction_factor(state.drifted_weights, np.array([1.0, 0.0, 0.0]), 0.0025)
        cash = np.array([1.0, 0.0, 0.0])
        state, _, reward = env_step(state, cash)
        assert abs(reward - math.log(mu)) < 1e-15
        while not state.terminal:
            state, _, reward = env_step(state, cash)
            assert reward == 0.0

    def test_zero_commission_rewards_telescope(self):
        rng = np.random.default_rng(10)
        for _ in range(5):
            frame = random_walk_frame(rng, 3, 40)
            state, _ = env_reset(frame, 4, LAST_CLOSE, 100_000.0, 0.0)
            total = 0.0
            while not state.terminal:
                state, _, reward = env_step(state, random_simplex(rng, 4))
                total += reward
            assert abs(math.exp(total) - state.drifted_value / 100_000.0) < 1e-9

    def test_commission_weakly_reduces_value_each_rebalance(self):
        rng = np.random.default_rng(11)
        frame = random_walk_frame(rng, 3, 40)
        state, _ = env_reset(frame, 4, LAST_CLOSE, 100_000.0, 0.0025)
        while not state.terminal:
            before = state.drifted_value
            state, _, _ = env_step(state, random_simplex(rng, 4))
            assert state.value <= before + 1e-12

    def test_frame_is_never_mutated(self):
        rng = np.random.default_rng(12)
        frame = random_walk_frame(rng, 2, 30)
        before = [frame.closes.copy(), frame.highs.copy(), frame.lows.copy()]
        state, _ = env_reset(frame, 4, LAST_CLOSE, 100_000.0, 0.0025)
        while not state.terminal:
            state, _, _ = env_step(state, random_simplex(rng, 3))
        for original, now in zip(before, [frame.closes, frame.highs, frame.lows]):
            assert np.array_equal(original, now)

    def test_invalid_actions_rejected(self):
        frame = random_walk_frame(np.random.default_rng(13), 2, 10)
        state, _ = env_reset(frame, 3, LAST_CLOSE, 100_000.0, 0.0025)
        with pytest.raises(InvalidAction):
            env_step(state, np.array([0.7, 0.7, 0.0]))
        with pytest.raises(InvalidAction):
            env_step(state, np.array([1.5, -0.5, 0.0]))
        with pytest.raises(InvalidAction):
            env_step(state, np.array([np.nan, 0.5, 0.5]))

    def test_near_simplex_actions_are_renormalized(self):
        out = coerce_action(np.array([0.5 + 4e-7, 0.5, -5e-10]))
        assert abs(out.sum() - 1.0) < 1e-15
        assert out[2] == 0.0

    @given(simplex_entries, st.floats(min_value=-9e-7, max_value=9e-7))
    @settings(max_examples=60)
    def test_coercion_snaps_anything_within_tolerance(self, raw, wobble):
        w = np.array(raw) / sum(raw)
        w[0] += wobble
        if w[0] < 0.0:
            return
        out = coerce_action(w)
        assert abs(out.sum() - 1.0) < 1e-12
        assert (out >= 0.0).all()

    def test_stepping_after_terminal_raises(self):
        frame = random_walk_frame(np.random.default_rng(14), 1, 5)
        state, _ = env_reset(frame, 3, LAST_CLOSE, 100_000.0, 0.0025)
        cash = np.array([1.0, 0.0])
        while not state.terminal:
            state, _, _ = env_step(state, cash)
        with pytest.raises(RuntimeError, match=re.escape("episode already ended at step 4")):
            env_step(state, cash)
