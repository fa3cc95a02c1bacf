"""Performance metrics over a backtest trajectory.

The Sharpe ratio is reported in two labeled conventions, because its
defining formula leaves the risk-free term at zero: ``sharpe`` uses the
raw value ratios rho_t = V_t / V_{t-1} (literal reading), and
``sharpe_excess`` the per-step excess returns rho_t - 1. Both use the
population (1/N) standard deviation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .training import Trajectory


class EmptyTrajectory(ValueError):
    pass


class TooShort(ValueError):
    pass


class ZeroVariance(ValueError):
    pass


@dataclass(frozen=True)
class MetricReport:
    fapv: float
    mdd: float
    sharpe: float
    sharpe_excess: float
    n_steps: int


def fapv(traj: Trajectory, initial_value: float) -> float:
    """Final portfolio value over initial value."""
    if len(traj) == 0:
        raise EmptyTrajectory("trajectory has no steps")
    return float(traj.values[-1]) / initial_value


def mdd(traj: Trajectory) -> float:
    """Largest peak-to-trough relative loss, 0 if values never decline."""
    if len(traj) == 0:
        raise EmptyTrajectory("trajectory has no steps")
    peaks = np.maximum.accumulate(traj.values)
    return float(((peaks - traj.values) / peaks).max())


def sharpe_from_returns(returns: np.ndarray) -> float:
    """mean(r) / population-std(r), with the risk-free term at zero."""
    returns = np.asarray(returns, dtype=np.float64)
    std = float(returns.std())
    if std == 0.0:
        raise ZeroVariance("returns are all identical")
    return float(returns.mean()) / std


def report(traj: Trajectory, initial_value: float) -> MetricReport:
    """All metrics of one trajectory; both Sharpe conventions need a
    return series, so at least two steps."""
    if len(traj) < 2:
        raise TooShort(f"need at least two steps for a return series, got {len(traj)}")
    ratios = traj.values[1:] / traj.values[:-1]
    return MetricReport(
        fapv=fapv(traj, initial_value),
        mdd=mdd(traj),
        sharpe=sharpe_from_returns(ratios),
        sharpe_excess=sharpe_from_returns(ratios - 1.0),
        n_steps=len(traj),
    )
