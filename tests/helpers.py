"""Shared test helpers: synthetic market data, the finite-difference
oracle with mu held constant, and the bisection oracle for mu."""

from __future__ import annotations

from datetime import date, timedelta

import numpy as np

from portrl import training
from portrl.environment import transaction_factor_batch
from portrl.market_data import MarketFrame


def make_frame(closes, spread: float = 0.01, start: date = date(2020, 1, 1), tickers=None) -> MarketFrame:
    """Frame with highs/lows a fixed fraction around the given closes."""
    closes = np.asarray(closes, dtype=np.float64)
    n, length = closes.shape
    return MarketFrame(
        tickers=tuple(tickers) if tickers else tuple(f"A{i}" for i in range(n)),
        dates=tuple(start + timedelta(days=i) for i in range(length)),
        closes=closes,
        highs=closes * (1.0 + spread),
        lows=closes * (1.0 - spread),
    )


def random_walk_frame(rng: np.random.Generator, n: int, length: int,
                      vol: float = 0.02, drift: float = 0.0) -> MarketFrame:
    log_returns = rng.normal(drift, vol, size=(n, length))
    log_returns[:, 0] = 0.0
    closes = 50.0 * np.exp(log_returns.cumsum(axis=1))
    return make_frame(closes)


def write_ohlc_csv(path, rows, header="date,open,high,low,close") -> None:
    lines = [header] + [",".join(str(cell) for cell in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def random_simplex(rng: np.random.Generator, size: int) -> np.ndarray:
    return rng.dirichlet(np.ones(size))


def hold_mu(monkeypatch) -> None:
    """Hold portrl.training's mu constant, as the analytic gradient does:
    the next batch_objective computes mu as usual and every later one
    reuses it."""
    held = []

    def held_mu(*args):
        if not held:
            held.append(transaction_factor_batch(*args))
        return held[0]

    monkeypatch.setattr(training, "transaction_factor_batch", held_mu)


def max_fd_error(evaluate, flat: np.ndarray, analytic: np.ndarray, eps: float) -> float:
    """Max relative error between ``analytic`` and central differences.

    ``flat`` is a writable flat view of the parameter that ``evaluate()``
    reads; each entry is moved by +-eps in place and restored. The
    denominator is max(|analytic|, |numeric|, 1e-8) per coordinate.
    """
    numeric = np.empty(flat.size)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        plus = evaluate()
        flat[i] = original - eps
        minus = evaluate()
        flat[i] = original
        numeric[i] = (plus - minus) / (2.0 * eps)
    analytic = np.asarray(analytic).reshape(-1)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float((np.abs(analytic - numeric) / denom).max())


class BracketFailure(RuntimeError):
    pass


def transaction_factor_oracle(w_from: np.ndarray, w_to: np.ndarray, commission: float,
                              tol: float = 1e-14) -> float:
    """Independent bisection on the fixed-point residual.

    g(mu) = mu*(1 - c*w_to[0]) - (1 - c*w_from[0] - (2c - c^2)*sum max(w_from[i] - mu*w_to[i], 0))
    is continuous and strictly increasing on [1 - 2c, 1], which brackets
    the unique root for any simplex pair.
    """
    c = commission
    risky_from, risky_to = w_from[1:], w_to[1:]

    def g(mu: float) -> float:
        sold = np.maximum(risky_from - mu * risky_to, 0.0).sum()
        return mu * (1.0 - c * w_to[0]) - (1.0 - c * w_from[0] - (2.0 * c - c * c) * sold)

    lo, hi = 1.0 - 2.0 * c, 1.0
    if g(lo) * g(hi) > 0.0:
        lo, hi = 0.0, 1.0
        if g(lo) * g(hi) > 0.0:
            raise BracketFailure(f"no sign change on [0, 1] (c={c})")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if g(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
