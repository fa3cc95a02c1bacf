"""Shared test helpers: synthetic market data, the row-by-row CSV
loader and per-day alignment oracles, the running-peak loop oracle for
the maximum drawdown, the unfold-and-GEMM oracle for a narrow
convolution, the finite-difference oracle with mu held constant, and
the bisection oracle for mu, and a TrainerConfig with the campaign's
defaults."""

from __future__ import annotations

import csv
import io
import math
from dataclasses import fields
from datetime import date, timedelta
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from portrl import training
from portrl.environment import transaction_factor_batch
from portrl.experiment import ExperimentConfig
from portrl.market_data import MarketFrame, read_text


def make_frame(closes, spread: float = 0.01, start: date = date(2020, 1, 1), tickers=None) -> MarketFrame:
    """Frame with highs/lows a fixed fraction around the given closes."""
    closes = np.asarray(closes, dtype=np.float64)
    n, length = closes.shape
    return MarketFrame(
        tickers=tuple(tickers) if tickers else tuple(f"A{i}" for i in range(n)),
        dates=tuple(start + timedelta(days=i) for i in range(length)),
        prices=np.stack([closes, closes * (1.0 + spread), closes * (1.0 - spread)]),
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


def numbered_records(path: Path):
    """(line, cells) of each record of a CSV file, counting records from
    the header's line 1; a record the csv module refuses is unparsable."""
    reader = csv.reader(io.StringIO(read_text(path), newline=""))
    line_no = 1
    while True:
        try:
            record = next(reader)
        except StopIteration:
            return
        except csv.Error as exc:  # say, a cell past csv.field_size_limit()
            raise ValueError(f"{path}:{line_no}: {exc}") from None
        yield line_no, record
        line_no += 1


def load_ohlc_csv_reference(path: str | Path, ticker: str) -> MarketFrame:
    """Oracle for market_data.load_ohlc_csv: read and check one row at a
    time (a date must read YYYY-MM-DD), stop at the first record the csv
    module refuses or row that does not parse, sort by date, then walk
    the sorted rows for a repeated date and then for an OHLC violation."""
    path = Path(path)
    records = numbered_records(path)
    try:
        _, header = next(records)
    except StopIteration:
        raise ValueError(f"{path}: file is empty") from None
    columns = {name.strip().lower(): i for i, name in enumerate(header)}
    required = ("date", "open", "high", "low", "close")
    for name in required:
        if name not in columns:
            raise ValueError(f"{path}: missing column '{name}' in header {header}")
    rows = []
    for line_no, row in records:
        if not row or all(not cell.strip() for cell in row):
            continue
        try:
            text = row[columns["date"]].strip()
            day = date.fromisoformat(text)
            if day.isoformat() != text:  # Python 3.11 also takes 20180101 and 2018-W01-2
                raise ValueError(f"Invalid isoformat string: {text!r}")
            values = [float(row[columns[name]]) for name in required[1:]]
        except (ValueError, IndexError) as exc:
            raise ValueError(f"{path}:{line_no}: {exc}") from None
        rows.append((day, line_no, values))

    if not rows:
        raise ValueError(f"{path}: no data rows")
    rows.sort(key=lambda item: item[0])
    for (day, _, _), (next_day, line_no, _) in zip(rows, rows[1:]):
        if day == next_day:
            raise ValueError(f"{path}:{line_no}: duplicate date {day}")

    prices = np.empty((3, 1, len(rows)))
    for i, (day, line_no, (o, h, l, c)) in enumerate(rows):
        if not (0.0 < l <= c <= h < math.inf and l <= o <= h):
            if not all(map(math.isfinite, (o, h, l, c))):
                raise ValueError(f"{path}:{line_no}: non-finite price on {day} "
                                 f"(open={o}, high={h}, low={l}, close={c})")
            raise ValueError(f"{path}:{line_no}: OHLC ordering violated on {day} "
                             f"(open={o}, high={h}, low={l}, close={c})")
        prices[:, 0, i] = c, h, l
    return MarketFrame(
        tickers=(ticker,),
        dates=tuple(day for day, _, _ in rows),
        prices=prices,
    )


def align_assets_reference(frames: list[MarketFrame], policy: str) -> MarketFrame:
    """Oracle for market_data.align_assets: set-built calendars, then a
    loop over every (asset, calendar day) that takes the asset's row on
    that day or its most recent earlier row."""
    if policy == "intersect":
        common = set(frames[0].dates)
        for frame in frames[1:]:
            common &= set(frame.dates)
        if not common:
            raise ValueError("no common dates")
        calendar = sorted(common)
    else:
        union: set[date] = set()
        for frame in frames:
            union |= set(frame.dates)
        start = max(frame.dates[0] for frame in frames)
        calendar = sorted(d for d in union if d >= start)
    assets = [(frame, a) for frame in frames for a in range(frame.n_assets)]
    prices = np.empty((3, len(assets), len(calendar)))
    for i, (frame, a) in enumerate(assets):
        lookup = {d: j for j, d in enumerate(frame.dates)}
        # most recent row at or before the calendar start (may predate it)
        last = None
        for j, day in enumerate(frame.dates):
            if day > calendar[0]:
                break
            last = j
        for j, day in enumerate(calendar):
            if day in lookup:
                last = lookup[day]
            elif policy == "intersect" or last is None:
                raise AssertionError(f"{frame.tickers[a]}: no row on or before {day}")
            prices[:, i, j] = frame.prices[:, a, last]
    return MarketFrame(
        tickers=tuple(frame.tickers[a] for frame, a in assets),
        dates=tuple(calendar),
        prices=prices,
    )


def mdd_reference(values: np.ndarray) -> float:
    """Oracle for metrics.mdd: one pass that keeps the running peak and
    the largest relative drop below it."""
    peak = values[0]
    worst = 0.0
    for value in values:
        if value > peak:
            peak = value
        else:
            drop = (peak - value) / peak
            if drop > worst:
                worst = drop
    return worst


def narrow_conv_reference(x: np.ndarray, kernels: np.ndarray, bias: np.ndarray,
                          g: np.ndarray | None = None) -> np.ndarray:
    """Oracle for a narrow conv1d_over_time (or, given its output gradient
    ``g``, for its kernel gradient): one GEMM over the unfold, a contiguous
    (C_in, k, rows, t_out) copy of every window of ``x`` (C_in, rows, t),
    so each output sums its C_in * k terms in (c, k) order."""
    c_out, c_in, k = kernels.shape
    rows, t_out = x.shape[1], x.shape[2] - k + 1
    unfolded = np.ascontiguousarray(sliding_window_view(x, k, axis=2).transpose(0, 3, 1, 2))
    columns = unfolded.reshape(c_in * k, rows * t_out)
    if g is not None:
        return np.dot(g.reshape(c_out, rows * t_out), columns.T).reshape(c_out, c_in, k)
    return np.dot(kernels.reshape(c_out, c_in * k), columns).reshape(c_out, rows, t_out) + bias[:, None, None]


def trainer_config(**overrides) -> training.TrainerConfig:
    """A TrainerConfig holding ExperimentConfig's default for each setting
    that ``overrides`` does not name: the defaults have that one home."""
    defaults = {f.name: f.default for f in fields(ExperimentConfig)}
    settings = {f.name: defaults[f.name] for f in fields(training.TrainerConfig)}
    return training.TrainerConfig(**{**settings, **overrides})


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
