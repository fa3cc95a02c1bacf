import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import mdd_reference
from portrl.metrics import (
    EmptyTrajectory,
    TooShort,
    ZeroVariance,
    fapv,
    mdd,
    report,
    sharpe_from_returns,
)
from portrl.training import Trajectory


def traj_from_values(values):
    values = np.asarray(values, dtype=np.float64)
    rewards = np.zeros_like(values)
    rewards[1:] = np.log(values[1:] / values[:-1])
    return Trajectory(
        steps=np.arange(len(values), dtype=np.int64),
        values=values,
        rewards=rewards,
        actions=np.full((len(values), 2), 0.5),
    )


def brute_force_mdd(values):
    worst = 0.0
    for t in range(len(values)):
        for tau in range(t + 1, len(values)):
            worst = max(worst, (values[t] - values[tau]) / values[t])
    return worst


class TestFapv:
    def test_flat_is_one(self):
        assert fapv(traj_from_values([100_000.0, 100_000.0]), 100_000.0) == 1.0

    def test_crypto_data_normalization_magnitude(self):
        assert fapv(traj_from_values([100_000.0, 178_000.0]), 100_000.0) == 1.78

    def test_nyse_last_close_magnitude(self):
        assert fapv(traj_from_values([100_000.0, 76_000.0]), 100_000.0) == 0.76

    def test_empty_trajectory(self):
        empty = Trajectory(
            steps=np.array([], dtype=np.int64),
            values=np.array([]),
            rewards=np.array([]),
            actions=np.zeros((0, 2)),
        )
        with pytest.raises(EmptyTrajectory):
            fapv(empty, 1.0)
        with pytest.raises(EmptyTrajectory):
            mdd(empty)

    def test_equals_exp_sum_of_rewards(self):
        rng = np.random.default_rng(0)
        values = 100_000.0 * np.exp(rng.normal(0, 0.02, 50).cumsum())
        traj = traj_from_values(values)
        traj.values[0] = 100_000.0  # reset convention: V_0^f = V_0
        traj.rewards[0] = 0.0
        traj.rewards[1] = np.log(traj.values[1] / traj.values[0])
        assert abs(fapv(traj, 100_000.0) - np.exp(traj.rewards.sum())) < 1e-9


class TestMdd:
    def test_monotone_values_have_zero_drawdown(self):
        assert mdd(traj_from_values([1.0, 1.0, 2.0, 3.0])) == 0.0

    def test_single_dip(self):
        assert mdd(traj_from_values([100.0, 120.0, 90.0, 110.0])) == 0.25

    def test_two_equal_drawdowns(self):
        assert mdd(traj_from_values([100.0, 50.0, 200.0, 100.0])) == 0.5

    def test_scale_invariant(self):
        rng = np.random.default_rng(1)
        values = np.exp(rng.normal(0, 0.1, 40).cumsum()) * 100.0
        base = mdd(traj_from_values(values))
        assert mdd(traj_from_values(values * 8.0)) == base  # power of two scales exactly
        assert abs(mdd(traj_from_values(values * 7.5)) - base) < 1e-14

    @given(st.integers(min_value=0, max_value=100_000))
    @settings(max_examples=80)
    def test_matches_brute_force_exactly(self, seed):
        rng = np.random.default_rng(seed)
        length = int(rng.integers(1, 60))
        values = np.exp(rng.normal(0, 0.1, length).cumsum()) * 50.0
        assert mdd(traj_from_values(values)) == brute_force_mdd(values)

    def test_matches_the_running_peak_loop_bit_for_bit(self):
        rng = np.random.default_rng(3)
        cases = [np.array([7.0]), np.full(6, 3.0), np.linspace(1.0, 2.0, 30), np.linspace(2.0, 1.0, 30),
                 np.array([100.0, 80.0]), np.array([80.0, 100.0]), np.array([100.0, 100.0])]
        for _ in range(600):
            length = int(rng.integers(1, 401))
            sigma = float(np.exp(rng.uniform(np.log(0.001), np.log(0.3))))
            values = 100.0 * np.exp(rng.normal(0.0, sigma, length).cumsum())
            if rng.random() < 0.3:  # three significant digits: equal values tie with the peak
                values = np.array([float(f"{value:.3g}") for value in values])
            cases.append(values)
        for values in cases:
            assert float(mdd(traj_from_values(values))).hex() == float(mdd_reference(values)).hex(), values


class TestSharpe:
    def test_worked_example(self):
        # rho = [1.1, 0.9, 1.1]; mean/population-std computed longhand
        values = [100.0, 110.0, 99.0, 108.9]
        ratios = np.array([1.1, 0.9, 1.1])
        mean = ratios.sum() / 3.0
        variance = ((ratios - mean) ** 2).sum() / 3.0
        expected = mean / np.sqrt(variance)
        assert abs(report(traj_from_values(values), 100.0).sharpe - expected) < 1e-12
        assert abs(expected - 10.960155108391484) < 1e-9

    def test_constant_exponential_growth_has_zero_variance(self):
        values = [100.0 * 2.0**k for k in range(6)]
        with pytest.raises(ZeroVariance):
            report(traj_from_values(values), 100.0)

    def test_too_short(self):
        with pytest.raises(TooShort):
            report(traj_from_values([100.0]), 100.0)

    def test_negating_excess_returns_negates_ratio(self):
        rng = np.random.default_rng(2)
        returns = rng.normal(0.001, 0.02, 30)
        assert sharpe_from_returns(-returns) == -sharpe_from_returns(returns)

    def test_scale_invariant_within_tolerance(self):
        rng = np.random.default_rng(3)
        values = np.exp(rng.normal(0.001, 0.03, 60).cumsum()) * 100_000.0
        base = report(traj_from_values(values), 100_000.0).sharpe
        scaled = report(traj_from_values(values * 3.7), 370_000.0).sharpe
        assert abs(scaled - base) <= 1e-12 * abs(base)


class TestReport:
    def test_fields_and_excess_relation(self):
        rng = np.random.default_rng(4)
        values = np.exp(rng.normal(0.001, 0.02, 50).cumsum()) * 100_000.0
        result = report(traj_from_values(values), 100_000.0)
        ratios = values[1:] / values[:-1]
        assert result.n_steps == 50
        assert abs(result.fapv - values[-1] / 100_000.0) < 1e-15
        assert abs(result.sharpe - ratios.mean() / ratios.std()) < 1e-12
        assert abs(result.sharpe_excess - (ratios - 1.0).mean() / (ratios - 1.0).std()) < 1e-12
