"""Loading, validation, alignment, and splitting of daily OHLC series.

CSV inputs are UTF-8 (a leading byte-order mark is allowed) and carry a
header with date/open/high/low/close columns (case-insensitive, extra
columns ignored), YYYY-MM-DD dates on every Python (3.11's
date.fromisoformat also takes 20180101 and 2018-W01-2; they are
refused), and plain decimal prices. A file with no quote, NUL or lone
carriage return, and no line longer than the csv module's field limit,
is read by one np.loadtxt call, numpy's C reader, and checked with
array operations. Any other file, and any file that reader declines (a
row it cannot read, a date cell that fills its string field, a failed
check), is read row by row by the csv module. Only the csv path
raises, so the errors and their order do not depend on the reader.
Errors name the file and line: conversion errors first (a record the
csv module refuses among them), at the first failing row in file
order, then duplicate dates, then OHLC ordering at the earliest date.
All price data lives in one immutable type, MarketFrame, whose prices
are (3, assets, days) in (close, high, low) order, the order of every
state window: loading a CSV gives a one-asset frame, and alignment
joins frames onto one calendar by a sorted-date search, each frame
contributing its own assets. Cash is implicit at index 0 of every
relative vector with a price ratio of exactly 1.

Manifests, and the campaign configs of portrl.experiment, are read by
one settings reader. Every load-time error, in a CSV, a manifest or a
config, is a plain ValueError whose message names the file and line,
and the key where there is one; split_periods names a train or test
range by the config keys that set it.
"""

from __future__ import annotations

import bisect
import csv
import functools
import io
import math
import warnings
from dataclasses import dataclass
from datetime import date
from pathlib import Path

import numpy as np


@dataclass(frozen=True, eq=False)
class MarketFrame:
    """Read-only (close, high, low) prices of shape (3, assets, days): one
    loaded CSV's asset, or a basket aligned onto one calendar."""

    tickers: tuple[str, ...]
    dates: tuple[date, ...]
    prices: np.ndarray

    def __post_init__(self):
        expected = (3, len(self.tickers), len(self.dates))
        if self.prices.shape != expected:
            raise ValueError(f"prices has shape {self.prices.shape}, expected {expected}")
        self.prices.flags.writeable = False

    def __reduce__(self):
        # an unpickled copy (a spawned campaign job's) goes through __init__, so its prices are read-only too
        return MarketFrame, (self.tickers, self.dates, self.prices)

    @property
    def closes(self) -> np.ndarray:
        return self.prices[0]

    @property
    def highs(self) -> np.ndarray:
        return self.prices[1]

    @property
    def lows(self) -> np.ndarray:
        return self.prices[2]

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
            prices=self.prices[:, :, start:stop].copy(),
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


REQUIRED_COLUMNS = ("date", "open", "high", "low", "close")
# numpy's string field cuts a longer cell short without an error, so the
# C reader declines a file with a date cell that fills it
DATE_WIDTH = 16
PLAIN_FIELDS = [("date", f"U{DATE_WIDTH}")] + [(name, np.float64) for name in REQUIRED_COLUMNS[1:]]


def load_ohlc_csv(path: str | Path, ticker: str) -> MarketFrame:
    """Parse and validate one asset's OHLC CSV into a one-asset frame,
    sorting rows by date; the open is checked against low/high but not
    kept. numpy's C reader reads the file unless it declines it; then,
    and for every error, the csv module reads it."""
    path = Path(path)
    text = read_text(path)
    try:
        return frame_from_loadtxt(path, ticker, text)
    except (ValueError, Warning):
        pass  # declined: the csv path reads the file and names its first error
    return frame_from_csv_module(path, ticker, text)


def required_columns(path: Path, header: list[str]) -> list[int]:
    """Indices of the date, open, high, low and close cells; names match
    case-insensitively and a later column of the same name wins."""
    columns = {name.strip().lower(): i for i, name in enumerate(header)}
    for name in REQUIRED_COLUMNS:
        if name not in columns:
            raise ValueError(f"{path}: missing column '{name}' in header {header}")
    return [columns[name] for name in REQUIRED_COLUMNS]


def iso_days(cells) -> list[date]:
    """The days that date cells name. A cell must read YYYY-MM-DD once
    stripped: Python 3.11's date.fromisoformat also takes forms such as
    20180101 and 2018-W01-2, which are refused with Python 3.10's message."""
    texts = list(map(str.strip, cells))
    days = list(map(date.fromisoformat, texts))
    # of the forms fromisoformat takes, only YYYY-MM-DD is ten characters
    # with dashes at 4 and 7: a test ten times cheaper than formatting each day
    joined = "".join(texts)
    if not (set(map(len, texts)) <= {10} and joined[4::10] + joined[7::10] == "-" * (2 * len(texts))):
        for text, day in zip(texts, days):
            if day.isoformat() != text:
                raise ValueError(f"Invalid isoformat string: {text!r}")
    return days


def frame_from_loadtxt(path: Path, ticker: str, text: str) -> MarketFrame:
    """The frame of a file read by one np.loadtxt call, or a ValueError or
    Warning where this reader declines the file: a file with a quote, NUL
    or lone carriage return (which the csv module reads differently), a
    line longer than csv.field_size_limit() (which may hold a cell the
    csv module refuses), a row loadtxt cannot read, or any failed check,
    whose message would carry stand-in line numbers."""
    if '"' in text or "\0" in text or ("\r" in text and text.count("\r") != text.count("\r\n")):
        raise ValueError("left to the csv module")
    limit = csv.field_size_limit()
    if len(text) > limit and max(map(len, text.split("\n"))) > limit:
        raise ValueError("a cell may be past the csv module's field limit")
    header = text.partition("\n")[0].removesuffix("\r").split(",")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a header-only file warns
        table = np.loadtxt(io.StringIO(text), dtype=PLAIN_FIELDS, delimiter=",", comments=None,
                           skiprows=1, usecols=required_columns(path, header), ndmin=1)
    cells = table["date"].tolist()
    if max(map(len, cells)) >= DATE_WIDTH:
        raise ValueError("a date cell may have been cut short")
    prices = np.array([table[name] for name in REQUIRED_COLUMNS[1:]])
    return sorted_frame(path, ticker, iso_days(cells), prices, range(len(cells)))


def frame_from_csv_module(path: Path, ticker: str, text: str) -> MarketFrame:
    """The frame of a file read row by row by the csv module: each row
    that is not blank is converted and checked in file order, and the
    first failure raises, a record the csv module refuses (say, a cell
    past csv.field_size_limit()) among them. A row's line counts
    records, the header being line 1."""
    days, prices, lines = [], [], []
    line_no = 0
    try:
        for line_no, row in enumerate(csv.reader(io.StringIO(text, newline="")), start=1):
            if line_no == 1:
                usecols = required_columns(path, row)
            elif "".join(row).strip():
                try:
                    days += iso_days([row[usecols[0]]])
                    prices.append([float(row[i]) for i in usecols[1:]])
                except (ValueError, IndexError) as exc:
                    raise ValueError(f"{path}:{line_no}: {exc}") from None
                lines.append(line_no)
    except csv.Error as exc:
        raise ValueError(f"{path}:{line_no + 1}: {exc}") from None
    if not line_no:
        raise ValueError(f"{path}: file is empty")
    if not lines:
        raise ValueError(f"{path}: no data rows")
    return sorted_frame(path, ticker, days, np.array(prices).T, lines)


def sorted_frame(path: Path, ticker: str, days: list[date], prices: np.ndarray, lines) -> MarketFrame:
    """The one-asset frame of parsed rows, sorted by date, after the
    duplicate-date and OHLC checks; lines[k] is row k's line in the file."""
    ordinals = np.fromiter(map(date.toordinal, days), np.int64, len(days))
    order = np.argsort(ordinals, kind="stable")
    repeats = np.flatnonzero(np.diff(ordinals[order]) == 0)
    if repeats.size:
        k = order[repeats[0] + 1]
        raise ValueError(f"{path}:{lines[k]}: duplicate date {days[k]}")

    opens, highs, lows, closes = prices.take(order, axis=1)
    # NaN fails every comparison and high < inf bounds the rest, so this
    # one mask also rejects non-finite prices.
    valid = (0.0 < lows) & (lows <= closes) & (closes <= highs) & (highs < np.inf) & (lows <= opens) & (opens <= highs)
    if not valid.all():
        k = order[np.argmin(valid)]
        o, h, l, c = prices[:, k].tolist()
        fault = "OHLC ordering violated" if all(map(math.isfinite, (o, h, l, c))) else "non-finite price"
        raise ValueError(f"{path}:{lines[k]}: {fault} on {days[k]} (open={o}, high={h}, low={l}, close={c})")
    return MarketFrame(
        tickers=(ticker,),
        dates=tuple(map(days.__getitem__, order.tolist())),
        prices=np.stack([closes, highs, lows])[:, np.newaxis],
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
            raise ValueError(f"no common dates across {list(tickers)}")
    else:
        merged = np.sort(np.concatenate(days))
        calendar = merged[np.concatenate(([True], merged[1:] != merged[:-1]))]
        calendar = calendar[calendar >= max(d[0] for d in days)]
    # each frame's row on a calendar day is its last row on or before that day
    rows = [np.searchsorted(d, calendar, side="right") - 1 for d in days]
    return MarketFrame(
        tickers=tickers,
        dates=tuple(map(date.fromordinal, calendar.tolist())),
        prices=np.concatenate([frame.prices.take(r, axis=2) for frame, r in zip(frames, rows)], axis=1),
    )


def split_periods(
    frame: MarketFrame,
    train_range: tuple[date, date],
    test_range: tuple[date, date],
    time_window: int,
) -> PeriodSplit:
    """Cut a frame into a train slice and a window-prefixed test slice."""
    dates = frame.dates
    train_text = f"train_start = {train_range[0]} .. train_end = {train_range[1]}"
    test_text = f"test_start = {test_range[0]} .. test_end = {test_range[1]}"
    data_text = f"(data: {dates[0]}..{dates[-1]})"
    if train_range[1] >= test_range[0]:
        raise ValueError(f"{train_text} must end before {test_text} starts {data_text}")
    # each range's rows, found by search on the sorted calendar (empty when none fall in it)
    train_rows = range(bisect.bisect_left(dates, train_range[0]), bisect.bisect_right(dates, train_range[1]))
    test_rows = range(bisect.bisect_left(dates, test_range[0]), bisect.bisect_right(dates, test_range[1]))
    for text, rows in ((train_text, train_rows), (test_text, test_rows)):
        if not rows:
            raise ValueError(f"{text} holds no rows {data_text}")
    if len(train_rows) < time_window + 1:
        raise ValueError(f"{train_text} holds {len(train_rows)} rows, need at least {time_window + 1} {data_text}")
    # the train rows precede the test range, so its (time_window - 1)-row prefix exists
    return PeriodSplit(
        train=frame.slice(train_rows.start, train_rows.stop),
        test=frame.slice(test_rows.start - (time_window - 1), test_rows.stop),
    )


def step_relatives(frame: MarketFrame, first: int, stop: int) -> np.ndarray:
    """Price relatives of the moves into steps [first, stop), 1 <= first <= stop <= n_steps:
    per step, cash at exactly 1, then each close over the close before."""
    y = np.ones((stop - first, frame.n_assets + 1))
    y[:, 1:] = (frame.closes[:, first:stop] / frame.closes[:, first - 1 : stop - 1]).T
    return y


def price_relatives(frame: MarketFrame, t: int) -> np.ndarray:
    """The price relatives of the move into step t: step_relatives' one row."""
    if not 1 <= t < frame.n_steps:
        raise IndexError(f"step {t} outside [1, {frame.n_steps})")
    return step_relatives(frame, t, t + 1)[0]


def read_settings(path: Path, parsers: dict, kind: str) -> tuple[dict, list[tuple[int, str]]]:
    """Read a settings file, a config or a manifest: '#' starts a comment
    and blank lines are skipped. A `key = value` line must name a key of
    ``parsers``, at most once, and its value is that key's parser's result.
    Every error is a ValueError naming the file and line, and the key.
    Returns ({key: value}, [(line number, text) of every other line])."""
    values, key_lines, others = {}, {}, []
    for line_no, raw in enumerate(read_text(path).splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if "=" in line:
            key, _, text = (part.strip() for part in line.partition("="))
            if key not in parsers:
                raise ValueError(f"{path}:{line_no}: unknown {kind} key '{key}'")
            if key in key_lines:
                raise ValueError(f"{path}:{line_no}: {kind} key '{key}' given twice, on lines {key_lines[key]} "
                                 f"and {line_no}")
            key_lines[key] = line_no
            try:
                values[key] = parsers[key](text)
            except ValueError:
                raise ValueError(f"{path}:{line_no}: cannot parse '{text}' for key '{key}'") from None
        elif line:
            others.append((line_no, line))
    return values, others


def load_manifest(path: str | Path) -> tuple[list[tuple[str, Path]], str | None]:
    """Read a portfolio manifest: `TICKER PATH` lines plus an optional
    `alignment = intersect|forward_fill` line. Paths resolve relative to
    the manifest's directory and must name files. A ticker, or the
    alignment line, may appear once."""
    path = Path(path)
    # index() raises a ValueError on a value that names no policy
    parsers = {"alignment": lambda text: ALIGNMENT_POLICIES[ALIGNMENT_POLICIES.index(text)]}
    values, lines = read_settings(path, parsers, "manifest")
    entries: list[tuple[str, Path]] = []
    ticker_lines: dict[str, int] = {}
    for line_no, line in lines:
        parts = line.split(None, 1)
        if len(parts) != 2:
            raise ValueError(f"{path}:{line_no}: expected 'TICKER PATH'")
        ticker, csv_path = parts
        if ticker in ticker_lines:
            raise ValueError(f"{path}:{line_no}: ticker '{ticker}' listed twice, on lines {ticker_lines[ticker]} "
                             f"and {line_no}")
        ticker_lines[ticker] = line_no
        resolved = (path.parent / csv_path.strip()).resolve()
        if not resolved.is_file():
            raise ValueError(f"{path}:{line_no}: ticker '{ticker}': {resolved} is not a file")
        entries.append((ticker, resolved))
    if not entries:
        raise ValueError(f"{path}: manifest lists no assets")
    return entries, values.get("alignment")
