"""Shared builders for synthetic market data used across the test suite."""

from __future__ import annotations

from datetime import date, timedelta

import numpy as np

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


def clear_grads(params) -> None:
    """Reset the gradient of every learnable tensor of a policy."""
    for _, tensor in params.named_tensors():
        tensor.grad = None


def random_simplex(rng: np.random.Generator, size: int) -> np.ndarray:
    return rng.dirichlet(np.ones(size))


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
