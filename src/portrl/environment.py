"""Deterministic portfolio-market simulator.

One step: rebalance the drifted weights to the requested action, paying
the transaction-cost factor mu; then prices move one day, drifting
weights and value passively. The reward is the log-return of the
drifted portfolio value. The market frame is never mutated; the agent's
actions do not influence prices. An action with a non-finite entry or
off the simplex raises InvalidAction, and a cost factor whose fixed
point does not converge NoConvergence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .market_data import MarketFrame, price_relatives
from .normalization import NormalizationScheme, normalize_window


class InvalidAction(ValueError):
    pass


class NoConvergence(RuntimeError):
    pass


@dataclass(frozen=True, eq=False)
class EnvState:
    """Snapshot of a simulation: value/weights before and after the day's
    price drift, plus everything needed to step it as a pure function."""

    t: int
    weights: np.ndarray          # W_t, the last rebalancing target
    drifted_weights: np.ndarray  # W_t after price drift
    value: float                 # V_t, value right after rebalancing
    drifted_value: float         # V_t after price drift
    frame: MarketFrame
    window: int
    scheme: NormalizationScheme
    commission: float
    terminal: bool = False


# Largest |sum - 1| of an action that coerce_action snaps onto the simplex.
ACTION_SUM_TOL = 1e-6
# Stopping rule of the mu fixed point: |mu_next - mu| < MU_TOL within MU_MAX_ITER updates.
MU_TOL = 1e-12
MU_MAX_ITER = 10000


def coerce_action(action: np.ndarray) -> np.ndarray:
    """Validate a proposed weight vector and snap it onto the simplex.

    Entries >= -1e-9 are clamped to 0 and the vector renormalized when
    its sum is within ``ACTION_SUM_TOL`` of 1; anything farther off is
    rejected.
    """
    action = np.asarray(action, dtype=np.float64)
    if not np.isfinite(action).all():
        raise InvalidAction(f"non-finite entries in action {action}")
    if action.min() < -1e-9 or abs(action.sum() - 1.0) > ACTION_SUM_TOL:
        raise InvalidAction(f"action off the simplex beyond tolerance: sum={action.sum()!r}, min={action.min()!r}")
    clipped = np.clip(action, 0.0, None)
    return clipped / clipped.sum()


def drift_weights(weights: np.ndarray, rel: np.ndarray) -> np.ndarray:
    """Weights after a price move, row by row: (y * w) / (y . w)."""
    moved = rel * weights
    return moved / moved.sum(axis=-1, keepdims=True)


def drift_value(value: float, weights: np.ndarray, rel: np.ndarray) -> float:
    """Value after a price move: V * (w . y)."""
    return value * float(np.dot(weights, rel))


def transaction_factor(w_from: np.ndarray, w_to: np.ndarray, commission: float) -> float:
    """Cost factor mu of rebalancing w_from -> w_to at commission rate c:
    the one-row case of transaction_factor_batch."""
    return float(transaction_factor_batch(w_from[None], w_to[None], commission)[0])


def transaction_factor_batch(w_from: np.ndarray, w_to: np.ndarray, commission: float) -> np.ndarray:
    """Row-wise cost factor mu over (B, n+1) weight matrices.

    Each row's mu is the fixed point of
        mu = (1 - c*w_from[0] - (2c - c^2) * sum_i max(w_from[i] - mu*w_to[i], 0))
             / (1 - c*w_to[0])
    over the risky entries i >= 1, iterated from mu_0 = 1 - c*sum|delta|
    until every row moves less than ``MU_TOL``. A NaN row (a non-finite
    weight makes one) ends it too, and comes back NaN.
    """
    c = commission
    risky_from, risky_to = w_from[:, 1:], w_to[:, 1:]
    denominator = 1.0 - c * w_to[:, 0]
    mu = 1.0 - c * np.abs(risky_from - risky_to).sum(axis=1)
    for _ in range(MU_MAX_ITER):
        sold = np.maximum(risky_from - mu[:, None] * risky_to, 0.0).sum(axis=1)
        nxt = (1.0 - c * w_from[:, 0] - (2.0 * c - c * c) * sold) / denominator
        if not np.abs(nxt - mu).max() >= MU_TOL:  # False for a NaN row as well
            return nxt
        mu = nxt
    raise NoConvergence(f"mu fixed point did not converge (c={c})")


def build_state(frame: MarketFrame, t: int, window: int, scheme: NormalizationScheme) -> np.ndarray:
    """Normalized (close, high, low) window of shape (3, n, window) for
    deciding at step t (the window ends at t, inclusive)."""
    if t < window - 1 or t >= frame.n_steps:
        raise IndexError(f"step {t} with window {window} outside frame of length {frame.n_steps}")
    return normalize_window(scheme, frame.prices[:, :, t - window + 1 : t + 1].copy())


def env_reset(frame: MarketFrame, window: int, scheme: NormalizationScheme,
              initial_value: float, commission: float) -> tuple[EnvState, np.ndarray]:
    """All-cash start at the first decidable step; a campaign takes both values from its ExperimentConfig."""
    if window < 1:
        raise IndexError(f"window must be >= 1, got {window}")
    if frame.n_steps < window + 1:
        raise ValueError(f"frame of length {frame.n_steps} allows no step with window {window}")
    w0 = np.zeros(frame.n_assets + 1)
    w0[0] = 1.0
    t0 = window - 1
    state = EnvState(
        t=t0,
        weights=w0,
        drifted_weights=w0.copy(),
        value=float(initial_value),
        drifted_value=float(initial_value),
        frame=frame,
        window=window,
        scheme=scheme,
        commission=commission,
    )
    return state, build_state(frame, t0, window, scheme)


def env_step(state: EnvState, action: np.ndarray) -> tuple[EnvState, np.ndarray | None, float]:
    """Rebalance to ``action``, advance one day, and return the log-return reward."""
    if state.terminal:
        raise RuntimeError(f"episode already ended at step {state.t}")
    action = coerce_action(action)
    mu = transaction_factor(state.drifted_weights, action, state.commission)
    value = mu * state.drifted_value
    rel = price_relatives(state.frame, state.t + 1)
    drifted = drift_weights(action, rel)
    drifted_value = drift_value(value, action, rel)
    reward = math.log(drifted_value / state.drifted_value)
    t_next = state.t + 1
    terminal = t_next == state.frame.n_steps - 1
    next_state = replace(
        state,
        t=t_next,
        weights=action,
        drifted_weights=drifted,
        value=value,
        drifted_value=drifted_value,
        terminal=terminal,
    )
    obs = None if terminal else build_state(state.frame, t_next, state.window, state.scheme)
    return next_state, obs, reward
