"""Loading, validation, alignment, and splitting of daily OHLC series.

CSV inputs carry a header with date/open/high/low/close columns
(case-insensitive, extra columns ignored), ISO-8601 dates, and plain
decimal prices. Aligned data lives in an immutable MarketFrame whose
matrices are (assets, days); cash is implicit at index 0 of every
relative vector with a price ratio of exactly 1.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from datetime import date
from pathlib import Path

import numpy as np


class MissingColumn(ValueError):
    pass


class UnparsableRow(ValueError):
    pass


class OhlcOrderingViolation(ValueError):
    pass


class EmptySeries(ValueError):
    pass


class EmptyIntersection(ValueError):
    pass


class NoCommonStart(ValueError):
    pass


class RangesOverlap(ValueError):
    pass


class InsufficientTrainLength(ValueError):
    pass


class IndexOutOfRange(IndexError):
    pass


@dataclass(frozen=True, eq=False)
class AssetSeries:
    """One asset's validated OHLC history, sorted by date; the open is
    checked against low/high on load but not kept."""

    ticker: str
    dates: tuple[date, ...]
    highs: np.ndarray
    lows: np.ndarray
    closes: np.ndarray

    def __len__(self) -> int:
        return len(self.dates)


@dataclass(frozen=True, eq=False)
class MarketFrame:
    """Aligned close/high/low matrices of shape (assets, days)."""

    tickers: tuple[str, ...]
    dates: tuple[date, ...]
    closes: np.ndarray
    highs: np.ndarray
    lows: np.ndarray

    def __post_init__(self):
        n, length = len(self.tickers), len(self.dates)
        for name in ("closes", "highs", "lows"):
            matrix = getattr(self, name)
            if matrix.shape != (n, length):
                raise ValueError(f"{name} has shape {matrix.shape}, expected {(n, length)}")
            matrix.flags.writeable = False

    def __reduce__(self):
        # an unpickled copy (a campaign worker's) goes through __init__, so its matrices are read-only too
        return MarketFrame, (self.tickers, self.dates, self.closes, self.highs, self.lows)

    @property
    def n_assets(self) -> int:
        return len(self.tickers)

    @property
    def n_steps(self) -> int:
        return len(self.dates)

    def slice(self, start: int, stop: int) -> "MarketFrame":
        return MarketFrame(
            tickers=self.tickers,
            dates=self.dates[start:stop],
            closes=self.closes[:, start:stop].copy(),
            highs=self.highs[:, start:stop].copy(),
            lows=self.lows[:, start:stop].copy(),
        )


@dataclass(frozen=True, eq=False)
class PeriodSplit:
    """Train/test slices; the test slice is prefixed with the trailing
    (time_window - 1) rows before the test range so its first state exists."""

    train: MarketFrame
    test: MarketFrame


def load_ohlc_csv(path: str | Path, ticker: str) -> AssetSeries:
    """Parse and validate one asset's OHLC CSV, sorting rows by date."""
    path = Path(path)
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptySeries(f"{path}: file is empty") from None
        columns = {name.strip().lower(): i for i, name in enumerate(header)}
        required = ("date", "open", "high", "low", "close")
        for name in required:
            if name not in columns:
                raise MissingColumn(f"{path}: missing column '{name}' in header {header}")
        rows = []
        for line_no, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            try:
                day = date.fromisoformat(row[columns["date"]].strip())
                values = [float(row[columns[name]]) for name in required[1:]]
            except (ValueError, IndexError) as exc:
                raise UnparsableRow(f"{path}:{line_no}: {exc}") from None
            rows.append((day, line_no, values))

    if not rows:
        raise EmptySeries(f"{path}: no data rows")
    rows.sort(key=lambda item: item[0])
    for (day, _, _), (next_day, line_no, _) in zip(rows, rows[1:]):
        if day == next_day:
            raise UnparsableRow(f"{path}:{line_no}: duplicate date {day}")

    highs, lows, closes = (np.empty(len(rows)) for _ in range(3))
    for i, (day, line_no, (o, h, l, c)) in enumerate(rows):
        # NaN fails every comparison and high < inf bounds the rest, so
        # this one chain also rejects non-finite prices.
        if not (0.0 < l <= c <= h < math.inf and l <= o <= h):
            if not all(map(math.isfinite, (o, h, l, c))):
                raise UnparsableRow(f"{path}:{line_no}: non-finite price on {day} "
                                    f"(open={o}, high={h}, low={l}, close={c})")
            raise OhlcOrderingViolation(
                f"{path}:{line_no}: OHLC ordering violated on {day} (open={o}, high={h}, low={l}, close={c})"
            )
        highs[i], lows[i], closes[i] = h, l, c
    return AssetSeries(
        ticker=ticker,
        dates=tuple(day for day, _, _ in rows),
        highs=highs,
        lows=lows,
        closes=closes,
    )


ALIGNMENT_POLICIES = ("intersect", "forward_fill")


def align_assets(series: list[AssetSeries], policy: str = "intersect") -> MarketFrame:
    """Merge per-asset series onto one calendar.

    ``intersect`` keeps dates present in every series; ``forward_fill``
    uses the union calendar, copying each asset's most recent prior row
    into gaps, and trims leading dates for which some asset has no prior
    row yet.
    """
    if not series:
        raise ValueError("align_assets needs at least one series")
    if policy not in ALIGNMENT_POLICIES:
        raise ValueError(f"unknown alignment policy '{policy}'")

    if policy == "intersect":
        common = set(series[0].dates)
        for s in series[1:]:
            common &= set(s.dates)
        if not common:
            raise EmptyIntersection(f"no common dates across {[s.ticker for s in series]}")
        calendar = sorted(common)
    else:
        union: set[date] = set()
        for s in series:
            union |= set(s.dates)
        start = max(s.dates[0] for s in series)
        calendar = sorted(d for d in union if d >= start)
        if not calendar:
            raise NoCommonStart(f"no date on or after every series start across {[s.ticker for s in series]}")

    n, length = len(series), len(calendar)
    closes, highs, lows = np.empty((n, length)), np.empty((n, length)), np.empty((n, length))
    for i, s in enumerate(series):
        lookup = {d: j for j, d in enumerate(s.dates)}
        # most recent row at or before the calendar start (may predate it)
        last = None
        for j, day in enumerate(s.dates):
            if day > calendar[0]:
                break
            last = j
        for j, day in enumerate(calendar):
            if day in lookup:
                last = lookup[day]
            elif policy == "intersect" or last is None:
                raise NoCommonStart(f"{s.ticker}: no prior row for {day}")
            closes[i, j] = s.closes[last]
            highs[i, j] = s.highs[last]
            lows[i, j] = s.lows[last]
    return MarketFrame(
        tickers=tuple(s.ticker for s in series),
        dates=tuple(calendar),
        closes=closes,
        highs=highs,
        lows=lows,
    )


def split_periods(
    frame: MarketFrame,
    train_range: tuple[date, date],
    test_range: tuple[date, date],
    time_window: int,
) -> PeriodSplit:
    """Cut a frame into a train slice and a window-prefixed test slice."""
    if train_range[1] >= test_range[0]:
        raise RangesOverlap(f"train range {train_range} must end before test range {test_range}")
    dates = frame.dates
    train_idx = [i for i, d in enumerate(dates) if train_range[0] <= d <= train_range[1]]
    test_idx = [i for i, d in enumerate(dates) if test_range[0] <= d <= test_range[1]]
    if not train_idx or not test_idx:
        raise ValueError("both ranges must intersect the frame calendar")
    if len(train_idx) < time_window + 1:
        raise InsufficientTrainLength(
            f"train range holds {len(train_idx)} rows, need at least {time_window + 1}"
        )
    prefix_start = test_idx[0] - (time_window - 1)
    if prefix_start < 0:
        raise InsufficientTrainLength(
            f"only {test_idx[0]} rows precede the test range, need {time_window - 1}"
        )
    return PeriodSplit(
        train=frame.slice(train_idx[0], train_idx[-1] + 1),
        test=frame.slice(prefix_start, test_idx[-1] + 1),
    )


def price_relatives(frame: MarketFrame, t: int) -> np.ndarray:
    """Close-to-close ratio vector of length n+1; index 0 is cash (= 1)."""
    if not 1 <= t < frame.n_steps:
        raise IndexOutOfRange(f"step {t} outside [1, {frame.n_steps})")
    y = np.empty(frame.n_assets + 1)
    y[0] = 1.0
    y[1:] = frame.closes[:, t] / frame.closes[:, t - 1]
    return y


def load_manifest(path: str | Path) -> tuple[list[tuple[str, Path]], str | None]:
    """Read a portfolio manifest: `TICKER PATH` lines plus an optional
    `alignment = intersect|forward_fill` line. Paths resolve relative to
    the manifest's directory. A ticker, or the alignment line, may appear
    once."""
    path = Path(path)
    entries: list[tuple[str, Path]] = []
    alignment = None
    alignment_line = None
    ticker_lines: dict[str, int] = {}
    for line_no, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" in line:
            key, _, value = line.partition("=")
            if key.strip() != "alignment":
                raise ValueError(f"{path}:{line_no}: unknown manifest key '{key.strip()}'")
            if alignment_line is not None:
                raise ValueError(f"{path}:{line_no}: 'alignment =' given twice, on lines {alignment_line} "
                                 f"and {line_no}")
            alignment, alignment_line = value.strip(), line_no
            if alignment not in ALIGNMENT_POLICIES:
                raise ValueError(f"{path}:{line_no}: alignment must be intersect or forward_fill, got '{alignment}'")
            continue
        parts = line.split(None, 1)
        if len(parts) != 2:
            raise ValueError(f"{path}:{line_no}: expected 'TICKER PATH'")
        ticker, csv_path = parts
        if ticker in ticker_lines:
            raise ValueError(f"{path}:{line_no}: ticker '{ticker}' listed twice, on lines {ticker_lines[ticker]} "
                             f"and {line_no}")
        ticker_lines[ticker] = line_no
        entries.append((ticker, (path.parent / csv_path.strip()).resolve()))
    if not entries:
        raise ValueError(f"{path}: manifest lists no assets")
    return entries, alignment
