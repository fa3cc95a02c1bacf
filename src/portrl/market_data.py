"""Loading, validation, alignment, and splitting of daily OHLC series.

CSV inputs are UTF-8 (a leading byte-order mark is allowed) and carry a
header with date/open/high/low/close columns (case-insensitive, extra
columns ignored), ISO-8601 dates, and plain decimal prices. The csv
module splits a file into rows, and each required column is converted
in one pass and checked with array operations. Errors name the file and
line: conversion errors first, at the first failing row in file order,
then duplicate dates, then OHLC ordering at the earliest date. All price
data lives in one immutable type, MarketFrame, whose matrices are
(assets, days): loading a CSV gives a one-asset frame, and alignment
joins frames onto one calendar by a sorted-date search, each frame
contributing its own assets. Cash is implicit at index 0 of every
relative vector with a price ratio of exactly 1.
"""

from __future__ import annotations

import bisect
import csv
import functools
import io
import itertools
import math
import operator
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


class RangesOverlap(ValueError):
    pass


class InsufficientTrainLength(ValueError):
    pass


class IndexOutOfRange(IndexError):
    pass


@dataclass(frozen=True, eq=False)
class MarketFrame:
    """Close/high/low matrices of shape (assets, days): one loaded CSV's
    asset, or a basket aligned onto one calendar."""

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


def read_text(path: Path) -> str:
    """A text file's contents as UTF-8, without a leading byte-order mark.
    A byte that is not UTF-8 raises a ValueError naming the file and line."""
    try:
        return path.read_bytes().decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        line_no = exc.object[:exc.start].count(b"\n") + 1
        raise ValueError(f"{path}:{line_no}: byte {exc.object[exc.start]:#04x} is not UTF-8 "
                         f"({exc.reason})") from None


def load_ohlc_csv(path: str | Path, ticker: str) -> MarketFrame:
    """Parse and validate one asset's OHLC CSV into a one-asset frame,
    sorting rows by date; the open is checked against low/high but not
    kept."""
    path = Path(path)
    reader = csv.reader(io.StringIO(read_text(path), newline=""))
    try:
        header = next(reader)
    except StopIteration:
        raise EmptySeries(f"{path}: file is empty") from None
    columns = {name.strip().lower(): i for i, name in enumerate(header)}
    required = ("date", "open", "high", "low", "close")
    for name in required:
        if name not in columns:
            raise MissingColumn(f"{path}: missing column '{name}' in header {header}")
    records = list(reader)
    # drop a row whose joined cells are blank; a row's line counts
    # records, the header being line 1
    kept = list(map(bool, map(str.strip, map("".join, records))))
    rows = list(itertools.compress(records, kept))
    lines = list(itertools.compress(itertools.count(2), kept))
    if not rows:
        raise EmptySeries(f"{path}: no data rows")

    date_cells, *price_cells = (map(operator.itemgetter(columns[name]), rows) for name in required)
    try:
        days = list(map(date.fromisoformat, map(str.strip, date_cells)))
        prices = np.array([np.fromiter(map(float, cells), np.float64, len(rows)) for cells in price_cells])
    except (ValueError, IndexError):
        # a column failed somewhere: name the first failing row in file order
        for line_no, row in zip(lines, rows):
            try:
                date.fromisoformat(row[columns["date"]].strip())
                for name in required[1:]:
                    float(row[columns[name]])
            except (ValueError, IndexError) as exc:
                raise UnparsableRow(f"{path}:{line_no}: {exc}") from None
        raise

    ordinals = np.fromiter(map(date.toordinal, days), np.int64, len(days))
    order = np.argsort(ordinals, kind="stable")
    repeats = np.flatnonzero(np.diff(ordinals[order]) == 0)
    if repeats.size:
        k = order[repeats[0] + 1]
        raise UnparsableRow(f"{path}:{lines[k]}: duplicate date {days[k]}")

    opens, highs, lows, closes = prices.take(order, axis=1)
    # NaN fails every comparison and high < inf bounds the rest, so this
    # one mask also rejects non-finite prices.
    valid = (0.0 < lows) & (lows <= closes) & (closes <= highs) & (highs < np.inf) & (lows <= opens) & (opens <= highs)
    if not valid.all():
        k = order[np.argmin(valid)]
        o, h, l, c = prices[:, k].tolist()
        where = f"{path}:{lines[k]}"
        if not all(map(math.isfinite, (o, h, l, c))):
            raise UnparsableRow(f"{where}: non-finite price on {days[k]} (open={o}, high={h}, low={l}, close={c})")
        raise OhlcOrderingViolation(
            f"{where}: OHLC ordering violated on {days[k]} (open={o}, high={h}, low={l}, close={c})"
        )
    return MarketFrame(
        tickers=(ticker,),
        dates=tuple(map(days.__getitem__, order.tolist())),
        closes=closes[np.newaxis],
        highs=highs[np.newaxis],
        lows=lows[np.newaxis],
    )


ALIGNMENT_POLICIES = ("intersect", "forward_fill")


def align_assets(frames: list[MarketFrame], policy: str = "intersect") -> MarketFrame:
    """Join frames, each with sorted unique dates, onto one calendar; the
    result lists every frame's assets in order.

    ``intersect`` keeps the dates present in every frame; ``forward_fill``
    keeps the union of their dates on or after the latest first date, and
    fills each asset's gaps with its most recent earlier row (which may
    predate that start).
    """
    if not frames:
        raise ValueError("align_assets needs at least one frame")
    if policy not in ALIGNMENT_POLICIES:
        raise ValueError(f"unknown alignment policy '{policy}'")
    # ordinals, not datetime64: numpy converts date objects to datetime64 slowly
    days = [np.fromiter(map(date.toordinal, frame.dates), np.int64, frame.n_steps) for frame in frames]
    tickers = tuple(ticker for frame in frames for ticker in frame.tickers)
    # each frame's days are unique, so neither calendar needs np.unique
    # (whose first call in a process costs about 1.5 MB of peak memory)
    if policy == "intersect":
        calendar = functools.reduce(functools.partial(np.intersect1d, assume_unique=True), days)
        if not calendar.size:
            raise EmptyIntersection(f"no common dates across {list(tickers)}")
    else:
        merged = np.sort(np.concatenate(days))
        calendar = merged[np.concatenate(([True], merged[1:] != merged[:-1]))]
        calendar = calendar[calendar >= max(d[0] for d in days)]
    # each frame's row on a calendar day is its last row on or before that day
    rows = [np.searchsorted(d, calendar, side="right") - 1 for d in days]
    closes, highs, lows = (np.concatenate([getattr(frame, name)[:, r] for frame, r in zip(frames, rows)])
                           for name in ("closes", "highs", "lows"))
    return MarketFrame(
        tickers=tickers,
        dates=tuple(map(date.fromordinal, calendar.tolist())),
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
    dates = frame.dates
    train_text = f"train range {train_range[0]}..{train_range[1]}"
    test_text = f"test range {test_range[0]}..{test_range[1]}"
    data_text = f"(data: {dates[0]}..{dates[-1]})"
    if train_range[1] >= test_range[0]:
        raise RangesOverlap(f"{train_text} must end before {test_text} starts {data_text}")
    # each range's rows, found by search on the sorted calendar (empty when none fall in it)
    train_rows = range(bisect.bisect_left(dates, train_range[0]), bisect.bisect_right(dates, train_range[1]))
    test_rows = range(bisect.bisect_left(dates, test_range[0]), bisect.bisect_right(dates, test_range[1]))
    for text, rows in ((train_text, train_rows), (test_text, test_rows)):
        if not rows:
            raise ValueError(f"{text} holds no rows {data_text}")
    if len(train_rows) < time_window + 1:
        raise InsufficientTrainLength(
            f"{train_text} holds {len(train_rows)} rows, need at least {time_window + 1} {data_text}"
        )
    # the train rows precede the test range, so its (time_window - 1)-row prefix exists
    return PeriodSplit(
        train=frame.slice(train_rows.start, train_rows.stop),
        test=frame.slice(test_rows.start - (time_window - 1), test_rows.stop),
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
    for line_no, raw in enumerate(read_text(path).splitlines(), start=1):
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
