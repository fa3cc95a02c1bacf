"""Config-driven campaign runner.

A campaign is N seeded train/backtest runs of each normalization method
the config lists. Each run is fully determined by (config, method,
seed): before any run starts, the pipeline loads, aligns and splits the
manifest's assets once and fits/applies each method's normalization to
that split, then each run trains the policy on its method's frames and
backtests with online learning, in this process or, with workers > 1,
in a process of its own. The config is read by market_data.read_settings,
its dates by the CSV rule (YYYY-MM-DD). A run that raises, or whose
process dies, costs only its own seed. Once the data loads, a run can
fail four ways, each its own exception class: NonFiniteLoss,
InvalidAction, NoConvergence and ZeroVariance.

A campaign directory holds one campaign and stores its facts, each
written once: each run's trajectory or failure message, the fitted
data_max scales and the config as loaded, its one copy, without
``workers``, which changes no result. It starts new or empty:
``portrl run`` refuses one that holds files, so no fact of another
campaign sits beside them. ``summarize`` writes only the summaries it
derives from them: per-run metrics, per-method aggregates (mean and 95%
normal CI half-width of the mean) and plot-ready sample lists. Wall
times go to a separate timings file that nothing reads, so every other
emitted byte is reproducible from (config, seed) alone.
"""

from __future__ import annotations

import json
import math
import multiprocessing.connection
import sys
import time
from contextlib import closing
from dataclasses import MISSING, asdict, dataclass, field, fields
from datetime import date
from itertools import islice
from pathlib import Path
from typing import get_type_hints

import numpy as np

from . import metrics as metrics_mod
from .market_data import (MarketFrame, align_assets, iso_days, load_manifest, load_ohlc_csv, read_settings, read_text,
                          split_periods)
from .normalization import DATA_MAX, KINDS, NormalizationScheme, apply_data_max, fit_data_max, scheme_from_kind
from .policy import K1, init_policy
from .training import Trainer, TrainerConfig, Trajectory, release_free_heap

REPORT_FORMAT_VERSION = 1
# A run's metrics, in the order runs.tsv lists them; the float ones are aggregated.
_RUN_METRICS = tuple(f.name for f in fields(metrics_mod.MetricReport))
_METRIC_NAMES = tuple(name for name, hint in get_type_hints(metrics_mod.MetricReport).items() if hint is float)
# Allowed range of each numeric key: (test, description). NaN fails every test.
_RANGES = {
    "learning_rate": (lambda v: 0 < v < math.inf, "finite and > 0"),
    "batch_size": (lambda v: v >= 1, ">= 1"),
    "sample_bias": (lambda v: 0 < v <= 1, "in (0, 1]"),
    "steps": (lambda v: v >= 0, ">= 0"),
    "online_steps": (lambda v: v >= 0, ">= 0"),
    "time_window": (lambda v: v >= K1 + 1, f">= {K1 + 1}"),  # a day wider than conv1's kernel
    "commission_rate": (lambda v: 0 <= v < 1, "in [0, 1)"),
    "initial_value": (lambda v: 0 < v < math.inf, "finite and > 0"),
    "weight_decay": (lambda v: 0 <= v < math.inf, "finite and >= 0"),
    "runs": (lambda v: v >= 1, ">= 1"),
    "base_seed": (lambda v: v >= 0, ">= 0"),
    "workers": (lambda v: v >= 1, ">= 1"),
}


@dataclass
class ExperimentConfig:
    """A campaign's settings, one field per config key.

    The calendar is the manifest's own (its ``alignment =`` line) and the
    network's shape is ``policy.K1, C1, C2``, so neither is a key.
    """
    manifest: str
    train_start: date
    train_end: date
    test_start: date
    test_end: date
    normalization: str  # one method, or several separated by commas
    learning_rate: float = 5e-5
    batch_size: int = 200
    sample_bias: float = 0.002
    steps: int = 300_000
    online_steps: int = 30
    time_window: int = 50
    commission_rate: float = 0.0025
    initial_value: float = 100_000.0
    weight_decay: float = 0.01
    runs: int = 50
    base_seed: int = 0
    workers: int = 1

    def __post_init__(self):
        methods = self.methods
        if any(kind not in KINDS for kind in methods):
            raise ValueError(f"normalization must list methods from {KINDS}, got '{self.normalization}'")
        if len(set(methods)) != len(methods):
            raise ValueError(f"normalization lists a method twice: '{self.normalization}'")
        for name, (allowed, text) in _RANGES.items():
            value = getattr(self, name)
            if not allowed(value):
                raise ValueError(f"{name} must be {text}, got {value!r}")

    @property
    def methods(self) -> tuple[str, ...]:
        """The normalization methods the campaign runs, in listed order."""
        return tuple(kind.strip() for kind in self.normalization.split(","))


@dataclass
class RunResult:
    """One run's record: what summary.json, runs.tsv and timings.tsv list
    for it, and its trajectory. A run read back from its trajectory file
    has no wall time: only timings.tsv records it."""
    seed: int
    metrics: metrics_mod.MetricReport
    trajectory_path: str
    wall_time: float | None
    trajectory: Trajectory = field(compare=False, repr=False)


@dataclass
class MethodResults:
    results: list[RunResult] = field(default_factory=list)
    failures: list[tuple[int, str]] = field(default_factory=list)
    scales: tuple[float, ...] | None = None


@dataclass
class CampaignReport:
    config: ExperimentConfig
    methods: dict[str, MethodResults]


# Each config key parses as its field's type (str, int, float or date, a
# date by the CSV rule); the keys whose fields have no default are required.
_KEY_PARSERS = {name: (lambda text: iso_days([text])[0]) if hint is date else hint
                for name, hint in get_type_hints(ExperimentConfig).items()}
_REQUIRED_KEYS = [f.name for f in fields(ExperimentConfig) if f.default is MISSING]


def load_config(path: str | Path) -> ExperimentConfig:
    """Parse a flat `key = value` config file ('#' starts a comment) with
    read_settings; each key may appear once."""
    path = Path(path)
    values, others = read_settings(path, _KEY_PARSERS, "config")
    if others:
        raise ValueError(f"{path}:{others[0][0]}: expected 'key = value'")
    missing = [name for name in _REQUIRED_KEYS if name not in values]
    if missing:
        raise ValueError(f"{path}: missing required keys {missing}")
    try:
        config = ExperimentConfig(**values)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if not Path(config.manifest).is_absolute():
        config.manifest = str((path.parent / config.manifest).resolve())
    return config


def config_values(config: ExperimentConfig) -> dict[str, str]:
    """config_resolved.txt's and summary.json's text of each config key but
    ``workers``, which changes no result; a float's str is its repr."""
    return {f.name: str(getattr(config, f.name)) for f in fields(ExperimentConfig) if f.name != "workers"}


def config_to_text(config: ExperimentConfig) -> str:
    return "".join(f"{name} = {value}\n" for name, value in config_values(config).items())


# One method's prepared data: (train frame, test frame, fitted scheme)
Prepared = tuple[MarketFrame, MarketFrame, NormalizationScheme]


def prepare(config: ExperimentConfig) -> dict[str, Prepared]:
    """Load, align and split the manifest's assets once, on the calendar
    its ``alignment =`` line names (``intersect`` when it has none), then,
    for each method the config lists, fit its normalization on the
    training rows only and apply it to both slices.

    Returns {method: (train frame, test frame, scheme)} in listed order;
    each test frame carries the (time_window - 1)-row prefix its first
    state needs.
    """
    entries, alignment = load_manifest(config.manifest)
    frames = [load_ohlc_csv(csv_path, ticker) for ticker, csv_path in entries]
    try:
        frame = align_assets(frames, alignment)
    except ValueError as error:  # an intersect calendar left empty, the one error a manifest reaches here
        raise ValueError(f"{config.manifest}: {error}") from None
    split = split_periods(
        frame,
        (config.train_start, config.train_end),
        (config.test_start, config.test_end),
        config.time_window,
    )
    train_steps = split.train.n_steps - config.time_window
    if config.batch_size > train_steps:
        raise ValueError(f"batch_size = {config.batch_size} exceeds the {train_steps} decidable training "
                         f"step(s) of train_start = {config.train_start} .. train_end = {config.train_end}")
    decidable = split.test.n_steps - config.time_window
    if decidable < 2:
        raise ValueError(f"test_start = {config.test_start} .. test_end = {config.test_end} leaves "
                         f"{decidable} decidable test step(s); the metrics need at least 2")
    prepared = {}
    for kind in config.methods:
        if kind == DATA_MAX:
            scheme = fit_data_max(split.train)
            prepared[kind] = apply_data_max(scheme, split.train), apply_data_max(scheme, split.test), scheme
        else:
            prepared[kind] = split.train, split.test, scheme_from_kind(kind)
    return prepared


def trajectory_name(kind: str, seed: int) -> str:
    """The file, inside the campaign directory, that holds the trajectory
    of ``kind``'s run ``seed``."""
    return f"traj_{kind}_{seed:05d}.tsv"


def failure_name(kind: str, seed: int) -> str:
    """The file, inside the campaign directory, that holds the message of
    ``kind``'s run ``seed`` when it failed."""
    return f"failed_{kind}_{seed:05d}.txt"


def run_single(config: ExperimentConfig, seed: int, prepared: Prepared) -> RunResult:
    """One fully seeded train + backtest on ``prepared``, one method's
    entry of ``prepare(config)``; returns its record, trajectory included.
    The wall time covers the training and the backtest, not the load."""
    started = time.perf_counter()
    train_frame, test_frame, scheme = prepared
    trainer = Trainer(
        params=init_policy(train_frame.n_assets, config.time_window, seed),
        frame=train_frame,
        window=config.time_window,
        scheme=scheme,
        initial_value=config.initial_value,
        commission=config.commission_rate,
        config=TrainerConfig(
            learning_rate=config.learning_rate,
            batch_size=config.batch_size,
            sample_bias=config.sample_bias,
            weight_decay=config.weight_decay,
        ),
        rng=np.random.default_rng(seed),
    )
    trainer.fill_buffer()
    trainer.train(config.steps)
    trajectory = trainer.backtest(test_frame, config.online_steps)
    report = metrics_mod.report(trajectory, config.initial_value)
    return RunResult(seed, report, trajectory_name(scheme.kind, seed), time.perf_counter() - started, trajectory)


def _outcome(config: ExperimentConfig, seed: int, prepared: Prepared) -> RunResult | Exception:
    """What run_single returns, or the exception it raises."""
    try:
        return run_single(config, seed, prepared)
    except Exception as exc:
        return exc


def _job(config: ExperimentConfig, seed: int, prepared: Prepared, sender) -> None:
    sender.send(_outcome(config, seed, prepared))


def _finished_jobs(config: ExperimentConfig, prepared: dict[str, Prepared], jobs: list[tuple[str, int]]):
    """Yield ((method, seed), outcome) as jobs finish; the outcome is what
    run_single returned or the exception it raised."""
    if config.workers == 1:
        for kind, seed in jobs:
            yield (kind, seed), _outcome(config, seed, prepared[kind])
        return
    # Each job runs in a process of its own, at most config.workers at once. A forked job inherits the
    # config and frames, so nothing is pickled; spawn and forkserver pickle its method's entry only.
    # The heap prepare() freed goes back to the OS first, so no forked job inherits it.
    release_free_heap()
    pending, running = iter(jobs), {}  # running: {receiving end: (job, process)}
    try:
        while True:
            for kind, seed in islice(pending, config.workers - len(running)):
                receiver, sender = multiprocessing.Pipe(duplex=False)
                process = multiprocessing.Process(target=_job, args=(config, seed, prepared[kind], sender))
                process.start()
                sender.close()  # so the receiver reads EOF once the job's process ends
                running[receiver] = (kind, seed), process
            if not running:
                return
            for receiver in multiprocessing.connection.wait(list(running)):
                job, process = running[receiver]
                try:
                    outcome = receiver.recv()
                except EOFError:  # the process ended without sending an outcome: say how
                    process.join()
                    code = process.exitcode
                    how = f"was killed by signal {-code}" if code < 0 else f"died with exit code {code}"
                    outcome = ChildProcessError(f"the process running this job {how}")
                process.join()
                del running[receiver]
                receiver.close()
                yield job, outcome
    finally:  # left early: no job process outlives the campaign
        for receiver, (_, process) in running.items():
            process.terminate()
            process.join()
            receiver.close()


def run_campaign(config: ExperimentConfig) -> CampaignReport:
    """Run config.runs seeds (seed = base_seed + k) of every listed method,
    serially or each in a process of its own, at most config.workers at
    once, printing one progress line per finished job on stderr. The data is prepared once, before any
    run starts, so a load error leaves here and no run starts. A failed
    run is recorded with its message, never fatal, even when every run
    fails."""
    prepared = prepare(config)
    jobs = [(kind, config.base_seed + k) for kind in prepared for k in range(config.runs)]
    methods = {kind: MethodResults(scales=scheme.scales) for kind, (_, _, scheme) in prepared.items()}
    started = time.perf_counter()
    with closing(_finished_jobs(config, prepared, jobs)) as outcomes:
        for (kind, seed), outcome in outcomes:
            if isinstance(outcome, BaseException):
                message = f"{type(outcome).__name__}: {outcome}"  # a failure is kept as its message
                methods[kind].failures.append((seed, message))
                status = f"failed: {message}"
            else:
                methods[kind].results.append(outcome)
                status = "done"
            print(f"[{time.perf_counter() - started:7.0f}s] {kind} seed {seed} {status}", file=sys.stderr, flush=True)
    for method in methods.values():  # jobs finish in any order; the report lists seeds in order
        method.results.sort(key=lambda r: r.seed)
        method.failures.sort()
    return CampaignReport(config=config, methods=methods)


def aggregate(results: list[RunResult]) -> dict[str, tuple[float, float]]:
    """Per metric: (mean, 1.96 * sample std / sqrt(N)); half-width 0 for N = 1."""
    if not results:
        raise ValueError("aggregate needs at least one result")
    out = {}
    for name in _METRIC_NAMES:
        samples = np.array([getattr(r.metrics, name) for r in results])
        if len(samples) == 1:
            out[name] = (float(samples[0]), 0.0)
        else:
            half = 1.96 * float(samples.std(ddof=1)) / np.sqrt(len(samples))
            out[name] = (float(samples.mean()), half)
    return out


def max_fapv(results: list[RunResult]) -> float:
    return max(r.metrics.fapv for r in results)


def _float_text(value: float) -> str:
    return repr(float(value))


def _trajectory_header(n_weights: int) -> str:
    """A trajectory file's line 1: one column per field, then one per weight, cash first."""
    return "\t".join(["step", "value", "reward", *(f"w_{i}" for i in range(n_weights))])


def _write_trajectory(traj: Trajectory, path: Path) -> None:
    lines = [_trajectory_header(traj.actions.shape[1])]
    for step, value, reward, action in zip(traj.steps, traj.values, traj.rewards, traj.actions):
        lines.append("\t".join([str(int(step)), *map(_float_text, (value, reward, *action))]))
    path.write_text("\n".join(lines) + "\n")


def _read_trajectory(path: Path) -> Trajectory:
    header, *lines = read_text(path).splitlines() or [""]
    expected = _trajectory_header(max(header.count("\t") - 2, 1))
    if header != expected:
        raise ValueError(f"{path}:1: expected the header {expected!r}, got {header!r}")
    rows = [line.split("\t") for line in lines]
    try:
        traj = Trajectory(
            steps=np.array([int(r[0]) for r in rows], dtype=np.int64),
            values=np.array([float(r[1]) for r in rows]),
            rewards=np.array([float(r[2]) for r in rows]),
            actions=np.array([[float(x) for x in r[3:]] for r in rows]),
        )
    except (ValueError, IndexError) as error:
        raise ValueError(f"{path}: {error}") from None
    valid = (traj.values > 0) & np.isfinite(np.column_stack([traj.values, traj.rewards, traj.actions])).all(axis=1)
    if not valid.all():
        raise ValueError(f"{path}:{np.argmin(valid) + 2}: expected finite numbers and a value > 0")
    return traj


def _read_scales(path: Path) -> tuple[float, ...]:
    """The fitted data_max scales, one per line, each finite and > 0 as
    fit_data_max fits them."""
    lines = read_text(path).splitlines()
    if not lines:
        raise ValueError(f"{path}: expected one scale per asset, got none")
    scales = []
    for number, line in enumerate(lines, start=1):
        try:
            scale = float(line)
        except ValueError:
            scale = math.nan
        if not 0 < scale < math.inf:
            raise ValueError(f"{path}:{number}: expected a scale, got {line!r}")
        scales.append(scale)
    return tuple(scales)


def summary_dict(report: CampaignReport) -> dict:
    """Deterministic machine-readable content of a campaign."""
    methods = {}
    for kind in sorted(report.methods):
        method = report.methods[kind]
        aggregates = None  # a method whose every run failed has no statistics
        if method.results:
            aggregates = {
                name: {"mean": mean, "half_width": half, "single_run": len(method.results) == 1}
                for name, (mean, half) in aggregate(method.results).items()
            }
        methods[kind] = {
            "aggregates": aggregates,
            "max_fapv": max_fapv(method.results) if method.results else None,
            "runs": [{"seed": r.seed, **asdict(r.metrics), "trajectory": r.trajectory_path}
                     for r in method.results],
            "failures": [{"seed": seed, "error": message} for seed, message in method.failures],
            "data_max_scales": list(method.scales) if method.scales is not None else None,
        }
    return {
        "format_version": REPORT_FORMAT_VERSION,
        "conventions": {
            "half_width": "95% normal CI of the mean: 1.96 * sample std (ddof=1) / sqrt(N)",
            "sharpe": "mean(rho) / population std(rho), rho_t = V_t / V_{t-1}, risk-free ratio 0",
            "sharpe_excess": "mean(rho - 1) / population std(rho - 1)",
        },
        "config": config_values(report.config),
        "methods": methods,
    }


def emit_report(report: CampaignReport, out_dir: str | Path) -> dict:
    """Write a campaign's facts into ``out_dir``, a new or empty directory
    (``portrl run`` checks this): first the resolved config, exactly
    config_to_text(config), then each run's trajectory or failure
    message, the fitted data_max scales and, separately, wall times.
    Returns summarize(out_dir), which derives the summaries from them."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config_resolved.txt").write_text(config_to_text(report.config))
    timing_rows = ["method\tseed\twall_time"]
    for kind in sorted(report.methods):
        method = report.methods[kind]
        for r in method.results:
            _write_trajectory(r.trajectory, out / r.trajectory_path)
            timing_rows.append(f"{kind}\t{r.seed}\t{_float_text(r.wall_time)}")
        for seed, message in method.failures:
            (out / failure_name(kind, seed)).write_text(message + "\n", encoding="utf-8")
        if method.scales is not None:
            (out / "data_max_scales.txt").write_text("".join(_float_text(s) + "\n" for s in method.scales))
    (out / "timings.tsv").write_text("\n".join(timing_rows) + "\n")
    return summarize(out)


def summarize(out_dir: str | Path) -> dict:
    """Derive a campaign's summaries from its facts alone: load
    config_resolved.txt, read each configured (method, seed)'s trajectory
    or failure file (files of other runs are ignored), recompute each
    run's metrics from its trajectory, and write only summary.json,
    runs.tsv and the listed methods' FAPV lists. Returns the summary_dict
    that summary.json holds, methods in sorted order. A fact that is
    missing, doubled or does not parse, or a trajectory of fewer than 2
    rows, a non-finite cell or a value <= 0, raises an error naming its
    file before anything is written."""
    out = Path(out_dir)
    config = load_config(out / "config_resolved.txt")
    methods = {kind: MethodResults() for kind in config.methods}
    for kind, method in methods.items():
        for seed in range(config.base_seed, config.base_seed + config.runs):
            path, failure = out / trajectory_name(kind, seed), out / failure_name(kind, seed)
            failed = failure.exists()
            if path.exists() == failed:
                raise ValueError(f"{path}: method '{kind}' seed {seed} has {'both' if failed else 'neither'} this "
                                 f"trajectory {'and' if failed else 'nor'} {failure.name}")
            if failed:
                method.failures.append((seed, read_text(failure).removesuffix("\n")))
                continue
            trajectory = _read_trajectory(path)
            try:
                metrics = metrics_mod.report(trajectory, config.initial_value)
            except ValueError as error:
                raise ValueError(f"{path}: {error}") from None
            method.results.append(RunResult(seed, metrics, path.name, None, trajectory))
        if kind == DATA_MAX:
            method.scales = _read_scales(out / "data_max_scales.txt")

    summary = summary_dict(CampaignReport(config=config, methods=methods))
    (out / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    rows = ["\t".join(["method", "seed", *_RUN_METRICS, "trajectory"])]
    for kind in sorted(methods):
        samples = []
        for r in methods[kind].results:
            cells = [_float_text(v) if isinstance(v, float) else str(v) for v in asdict(r.metrics).values()]
            rows.append("\t".join([kind, str(r.seed), *cells, r.trajectory_path]))
            samples.append(_float_text(r.metrics.fapv) + "\n")
        (out / f"fapv_{kind}.txt").write_text("".join(samples))
    (out / "runs.tsv").write_text("\n".join(rows) + "\n")
    return summary
