"""Input-normalization schemes for the price state.

Two per-window state scalings (by last closing price; by each feature's
own last value) and one dataset-level scaling (divide each asset's
series by its training-period maximum high). State scalings are pure
functions of the window; the dataset scaling is fitted once on training
rows and applied to train and test frames alike, so test values may
exceed 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .market_data import MarketFrame

LAST_CLOSE = "last_close"
LAST_PRICE = "last_price"
DATA_MAX = "data_max"
KINDS = (LAST_CLOSE, LAST_PRICE, DATA_MAX)


class NonPositiveScale(ValueError):
    pass


class TickerMismatch(ValueError):
    pass


@dataclass(frozen=True)
class NormalizationScheme:
    kind: str
    tickers: tuple[str, ...] | None = None
    scales: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown normalization kind '{self.kind}', expected one of {KINDS}")
        if self.kind == DATA_MAX and self.scales is None:
            raise ValueError("data_max scheme requires fitted scales; use fit_data_max")


def scheme_from_kind(kind: str) -> NormalizationScheme:
    """Stateless scheme for last_close / last_price (data_max needs fitting)."""
    return NormalizationScheme(kind=kind)


def normalize_window(scheme: NormalizationScheme, prices: np.ndarray) -> np.ndarray:
    """Apply the scheme's state-time transform in place to stacked
    (close, high, low) windows of shape (3, ..., n, t) and return them.

    last_close divides every feature of asset i by close_i at the
    window's last step; last_price divides each feature by its own last
    value. Either way each entry is one division, so a window gives the
    same bits alone or inside a batch. data_max is a pass-through here:
    its scaling happens once on the whole frame via apply_data_max
    before any window is cut.
    """
    if scheme.kind == LAST_CLOSE:
        prices /= prices[0, ..., -1:].copy()
    elif scheme.kind == LAST_PRICE:
        prices /= prices[..., -1:].copy()
    return prices


def fit_data_max(train: MarketFrame) -> NormalizationScheme:
    """One scale per asset: the maximum high over the training rows.

    A single per-asset divisor (rather than one per feature) keeps the
    low <= close <= high ordering intact after scaling.
    """
    if train.n_steps == 0:
        raise ValueError("cannot fit data_max on an empty frame")
    scales = train.highs.max(axis=1)
    if (scales <= 0.0).any():
        raise NonPositiveScale(f"non-positive fitted scale in {scales}")
    return NormalizationScheme(kind=DATA_MAX, tickers=train.tickers, scales=tuple(scales))


def apply_data_max(scheme: NormalizationScheme, frame: MarketFrame) -> MarketFrame:
    """Divide every feature of asset i by the fitted scale_i."""
    if scheme.kind != DATA_MAX:
        raise ValueError(f"apply_data_max needs a data_max scheme, got '{scheme.kind}'")
    if frame.tickers != scheme.tickers:
        raise TickerMismatch(f"frame tickers {frame.tickers} != fitted tickers {scheme.tickers}")
    divisor = np.asarray(scheme.scales)[:, None]
    return MarketFrame(
        tickers=frame.tickers,
        dates=frame.dates,
        prices=frame.prices / divisor,
    )
