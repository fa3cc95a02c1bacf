"""Config-driven campaign runner.

A campaign is N seeded train/backtest runs of each normalization method
the config lists. Each run is fully determined by (config, method,
seed): the pipeline loads and aligns the manifest's assets, splits
train/test and fits/applies the normalization once per method, before
any run starts, then each run trains the policy on those frames and
backtests with online learning. Reports carry per-run metrics,
per-method aggregates (mean and 95% normal CI half-width of the mean),
and plot-ready sample lists. Wall times go to a separate timings file so
every other emitted byte is reproducible from (config, seed) alone.
"""

from __future__ import annotations

import json
import sys
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from datetime import date
from pathlib import Path
from typing import get_type_hints

import numpy as np

from . import metrics as metrics_mod
from .market_data import ALIGNMENT_POLICIES, MarketFrame, align_assets, load_manifest, load_ohlc_csv, split_periods
from .normalization import DATA_MAX, KINDS, NormalizationScheme, apply_data_max, fit_data_max, scheme_from_kind
from .policy import init_policy
from .training import Trainer, TrainerConfig, Trajectory

REPORT_FORMAT_VERSION = 1
# A run's metrics, in the order runs.tsv lists them; the float ones are aggregated.
_RUN_METRICS = tuple(f.name for f in fields(metrics_mod.MetricReport))
_METRIC_NAMES = tuple(name for name, hint in get_type_hints(metrics_mod.MetricReport).items() if hint is float)
_ALIGNMENTS = ("", *ALIGNMENT_POLICIES)
# Allowed range of each numeric key: (test, description). NaN fails every test.
_RANGES = {
    "learning_rate": (lambda v: v > 0, "> 0"),
    "batch_size": (lambda v: v >= 1, ">= 1"),
    "sample_bias": (lambda v: 0 < v <= 1, "in (0, 1]"),
    "steps": (lambda v: v >= 0, ">= 0"),
    "online_steps": (lambda v: v >= 0, ">= 0"),
    "commission_rate": (lambda v: 0 <= v < 1, "in [0, 1)"),
    "initial_value": (lambda v: v > 0, "> 0"),
    "weight_decay": (lambda v: v >= 0, ">= 0"),
    "runs": (lambda v: v >= 1, ">= 1"),
    "base_seed": (lambda v: v >= 0, ">= 0"),
    "workers": (lambda v: v >= 1, ">= 1"),
    "kernel_width": (lambda v: v >= 1, ">= 1"),
    "conv1_channels": (lambda v: v >= 1, ">= 1"),
    "conv2_channels": (lambda v: v >= 1, ">= 1"),
}


@dataclass
class ExperimentConfig:
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
    alignment: str = ""
    kernel_width: int = 3
    conv1_channels: int = 2
    conv2_channels: int = 20

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
        if self.time_window < self.kernel_width + 1:
            raise ValueError(f"time_window must be >= kernel_width + 1 = {self.kernel_width + 1}, "
                             f"got {self.time_window}")
        if self.alignment not in _ALIGNMENTS:
            raise ValueError(f"alignment must be empty, 'intersect' or 'forward_fill', got '{self.alignment}'")

    @property
    def methods(self) -> tuple[str, ...]:
        """The normalization methods the campaign runs, in listed order."""
        return tuple(kind.strip() for kind in self.normalization.split(","))


@dataclass
class RunResult:
    seed: int
    metrics: metrics_mod.MetricReport
    trajectory_path: str
    wall_time: float


@dataclass
class MethodResults:
    results: list[RunResult] = field(default_factory=list)
    failures: list[tuple[int, str]] = field(default_factory=list)
    scales: tuple[float, ...] | None = None
    trajectories: dict[int, Trajectory] = field(default_factory=dict)


@dataclass
class CampaignReport:
    config: ExperimentConfig
    methods: dict[str, MethodResults]


# Each config key parses as its field's type (str, int, float or date);
# the keys whose fields have no default are required.
_KEY_PARSERS = {name: date.fromisoformat if hint is date else hint
                for name, hint in get_type_hints(ExperimentConfig).items()}
_REQUIRED_KEYS = [f.name for f in fields(ExperimentConfig) if f.default is MISSING]


def load_config(path: str | Path) -> ExperimentConfig:
    """Parse a flat `key = value` config file ('#' starts a comment); each
    key may appear once."""
    path = Path(path)
    values: dict[str, object] = {}
    key_lines: dict[str, int] = {}
    for line_no, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{line_no}: expected 'key = value'")
        key, _, text = line.partition("=")
        key, text = key.strip(), text.strip()
        if key not in _KEY_PARSERS:
            raise ValueError(f"{path}:{line_no}: unknown config key '{key}'")
        if key in key_lines:
            raise ValueError(f"{path}:{line_no}: config key '{key}' given twice, on lines {key_lines[key]} "
                             f"and {line_no}")
        key_lines[key] = line_no
        try:
            values[key] = _KEY_PARSERS[key](text)
        except ValueError:
            raise ValueError(f"{path}:{line_no}: cannot parse '{text}' for key '{key}'") from None
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


def config_to_text(config: ExperimentConfig) -> str:
    lines = []
    for f in fields(ExperimentConfig):
        value = getattr(config, f.name)
        if isinstance(value, float):
            value = repr(value)
        lines.append(f"{f.name} = {value}")
    return "\n".join(lines) + "\n"


# What prepare returns: (train frame, test frame, fitted scheme)
Prepared = tuple[MarketFrame, MarketFrame, NormalizationScheme]


def prepare(config: ExperimentConfig) -> Prepared:
    """Load, align and split the manifest's assets, then fit the config's
    normalization on the training rows only and apply it to both slices.

    Returns (train frame, test frame, scheme); the test frame carries the
    (time_window - 1)-row prefix its first state needs.
    """
    entries, manifest_alignment = load_manifest(config.manifest)
    series = [load_ohlc_csv(csv_path, ticker) for ticker, csv_path in entries]
    frame = align_assets(series, config.alignment or manifest_alignment or "intersect")
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
    if config.normalization == DATA_MAX:
        scheme = fit_data_max(split.train)
        return apply_data_max(scheme, split.train), apply_data_max(scheme, split.test), scheme
    return split.train, split.test, scheme_from_kind(config.normalization)


def run_single(config: ExperimentConfig, seed: int,
               prepared: Prepared) -> tuple[RunResult, Trajectory, tuple[float, ...] | None]:
    """One fully seeded train + backtest of a single-method config on
    ``prepared``, what ``prepare(config)`` returned; returns metrics,
    trajectory, fitted data_max scales (or None). The wall time covers
    the training and the backtest, not the load."""
    started = time.perf_counter()
    train_frame, test_frame, scheme = prepared
    params = init_policy(
        train_frame.n_assets,
        config.time_window,
        seed,
        k1=config.kernel_width,
        c1=config.conv1_channels,
        c2=config.conv2_channels,
    )
    trainer = Trainer(
        params=params,
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
    result = RunResult(
        seed=seed,
        metrics=report,
        trajectory_path=f"traj_{config.normalization}_{seed:05d}.tsv",
        wall_time=time.perf_counter() - started,
    )
    return result, trajectory, scheme.scales


def _finished_jobs(configs: dict[str, ExperimentConfig], prepared: dict[str, Prepared],
                   jobs: list[tuple[str, int]], workers: int):
    """Yield ((method, seed), outcome) as jobs finish; the outcome is what
    run_single returned or the exception it raised."""
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {pool.submit(run_single, configs[kind], seed, prepared[kind]): (kind, seed)
                       for kind, seed in jobs}
            for future in as_completed(futures):
                error = future.exception()
                yield futures[future], future.result() if error is None else error
    else:
        for kind, seed in jobs:
            try:
                outcome = run_single(configs[kind], seed, prepared[kind])
            except Exception as exc:
                outcome = exc
            yield (kind, seed), outcome


def run_campaign(config: ExperimentConfig) -> CampaignReport:
    """Run config.runs seeds (seed = base_seed + k) of every listed method,
    serially or on config.workers processes, printing one progress line
    per finished job on stderr. Every method's data is prepared before
    any run starts, so a load error leaves here and no run starts. A
    failed run is recorded with its message, never fatal, even when
    every run fails."""
    configs = {kind: replace(config, normalization=kind) for kind in config.methods}
    prepared = {kind: prepare(method_config) for kind, method_config in configs.items()}
    jobs = [(kind, config.base_seed + k) for kind in configs for k in range(config.runs)]
    outcomes: dict[tuple[str, int], object] = {}
    started = time.perf_counter()
    for (kind, seed), outcome in _finished_jobs(configs, prepared, jobs, config.workers):
        if isinstance(outcome, BaseException):
            outcome = f"{type(outcome).__name__}: {outcome}"  # a failure is kept as its message
        outcomes[kind, seed] = outcome
        status = f"failed: {outcome}" if isinstance(outcome, str) else "done"
        print(f"[{time.perf_counter() - started:7.0f}s] {kind} seed {seed} {status}", file=sys.stderr, flush=True)

    methods = {kind: MethodResults() for kind in configs}
    for kind, seed in jobs:
        method, outcome = methods[kind], outcomes[kind, seed]
        if isinstance(outcome, str):
            method.failures.append((seed, outcome))
            continue
        result, trajectory, scales = outcome
        method.results.append(result)
        method.trajectories[seed] = trajectory
        method.scales = scales
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


def _write_trajectory(traj: Trajectory, path: Path) -> None:
    n_weights = traj.actions.shape[1]
    header = "step\tvalue\treward\t" + "\t".join(f"w_{i}" for i in range(n_weights))
    lines = [header]
    for i in range(len(traj)):
        row = [str(int(traj.steps[i])), _float_text(traj.values[i]), _float_text(traj.rewards[i])]
        row += [_float_text(w) for w in traj.actions[i]]
        lines.append("\t".join(row))
    path.write_text("\n".join(lines) + "\n")


def _read_trajectory(path: Path) -> Trajectory:
    lines = path.read_text().splitlines()
    rows = [line.split("\t") for line in lines[1:]]
    return Trajectory(
        steps=np.array([int(r[0]) for r in rows], dtype=np.int64),
        values=np.array([float(r[1]) for r in rows]),
        rewards=np.array([float(r[2]) for r in rows]),
        actions=np.array([[float(x) for x in r[3:]] for r in rows]),
    )


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
        "config": {f.name: str(getattr(report.config, f.name)) for f in fields(ExperimentConfig)},
        "methods": methods,
    }


def emit_report(report: CampaignReport, out_dir: str | Path) -> None:
    """Write summary.json, runs.tsv, per-method FAPV lists, the resolved
    config, per-run trajectories, and (separately) wall times."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    (out / "summary.json").write_text(json.dumps(summary_dict(report), indent=2, sort_keys=True) + "\n")

    rows = ["\t".join(["method", "seed", *_RUN_METRICS, "trajectory"])]
    for kind in sorted(report.methods):
        for r in report.methods[kind].results:
            cells = [_float_text(v) if isinstance(v, float) else str(v) for v in asdict(r.metrics).values()]
            rows.append("\t".join([kind, str(r.seed), *cells, r.trajectory_path]))
    (out / "runs.tsv").write_text("\n".join(rows) + "\n")

    for kind in sorted(report.methods):
        samples = [_float_text(r.metrics.fapv) + "\n" for r in report.methods[kind].results]
        (out / f"fapv_{kind}.txt").write_text("".join(samples))

    seeds = [str(r.seed) for kind in sorted(report.methods) for r in report.methods[kind].results]
    seed_lines = [f"# seeds used: {', '.join(seeds)}"]
    (out / "config_resolved.txt").write_text("\n".join(seed_lines) + "\n" + config_to_text(report.config))

    timing_rows = ["method\tseed\twall_time"]
    for kind in sorted(report.methods):
        for r in report.methods[kind].results:
            timing_rows.append(f"{kind}\t{r.seed}\t{_float_text(r.wall_time)}")
    (out / "timings.tsv").write_text("\n".join(timing_rows) + "\n")

    for kind, method in report.methods.items():
        for r in method.results:
            if r.seed in method.trajectories:
                _write_trajectory(method.trajectories[r.seed], out / r.trajectory_path)


def load_campaign(out_dir: str | Path) -> CampaignReport:
    """Rebuild a CampaignReport from an emitted directory."""
    out = Path(out_dir)
    config = load_config(out / "config_resolved.txt")
    summary = json.loads((out / "summary.json").read_text())
    timings: dict[tuple[str, int], float] = {}
    for line in (out / "timings.tsv").read_text().splitlines()[1:]:
        kind, seed, wall = line.split("\t")
        timings[(kind, int(seed))] = float(wall)

    methods: dict[str, MethodResults] = {}
    for kind, entry in summary["methods"].items():
        method = MethodResults()
        for run in entry["runs"]:
            result = RunResult(
                seed=run["seed"],
                metrics=metrics_mod.MetricReport(**{name: run[name] for name in _RUN_METRICS}),
                trajectory_path=run["trajectory"],
                wall_time=timings.get((kind, run["seed"]), 0.0),
            )
            method.results.append(result)
            traj_file = out / run["trajectory"]
            if traj_file.exists():
                method.trajectories[result.seed] = _read_trajectory(traj_file)
        method.failures = [(f["seed"], f["error"]) for f in entry["failures"]]
        scales = entry["data_max_scales"]
        method.scales = tuple(scales) if scales is not None else None
        methods[kind] = method
    return CampaignReport(config=config, methods=methods)
