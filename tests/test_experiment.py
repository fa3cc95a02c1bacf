import json
import multiprocessing
import multiprocessing.connection
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import MISSING, asdict, fields, replace
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import portrl
from portrl import cli
from portrl.market_data import MarketFrame
from portrl.metrics import MetricReport
from portrl.normalization import KINDS
from portrl.policy import init_policy
from portrl.training import Trainer, TrainerConfig, Trajectory, sample_batch
from portrl.experiment import (
    ExperimentConfig,
    RunResult,
    _read_trajectory,
    aggregate,
    config_to_text,
    emit_report,
    load_config,
    max_fapv,
    prepare,
    run_campaign,
    run_single,
    summarize,
    summary_dict,
)

ALL_METHODS = "last_close, last_price, data_max"


def write_market(tmp_path, n_assets=3, length=120, seed=42):
    rng = np.random.default_rng(seed)
    data_dir = tmp_path / "data"
    data_dir.mkdir(exist_ok=True)
    start = date(2021, 1, 1)
    lines = []
    for i in range(n_assets):
        closes = 20.0 * np.exp(rng.normal(0.0005, 0.02, length).cumsum())
        rows = ["date,open,high,low,close"]
        for j in range(length):
            day = start + timedelta(days=j)
            close = closes[j]
            rows.append(f"{day},{close * 0.995},{close * 1.01},{close * 0.99},{close}")
        (data_dir / f"T{i}.csv").write_text("\n".join(rows) + "\n")
        lines.append(f"T{i} T{i}.csv")
    (data_dir / "portfolio.txt").write_text("alignment = intersect\n" + "\n".join(lines) + "\n")
    return data_dir / "portfolio.txt"


def write_config(tmp_path, manifest, **overrides):
    values = {
        "manifest": str(manifest),
        "train_start": "2021-01-01",
        "train_end": "2021-03-01",
        "test_start": "2021-03-02",
        "test_end": "2021-04-01",
        "normalization": "last_close",
        "learning_rate": "0.00005",
        "batch_size": "6",
        "sample_bias": "0.05",
        "steps": "4",
        "online_steps": "1",
        "time_window": "4",
        "commission_rate": "0.0025",
        "initial_value": "100000",
        "runs": "2",
        "base_seed": "0",
        "workers": "1",
    }
    values.update({key: str(value) for key, value in overrides.items()})
    path = tmp_path / "experiment.cfg"
    path.write_text("\n".join(f"{k} = {v}" for k, v in values.items()) + "\n")
    return path


@pytest.fixture
def tiny_config(tmp_path):
    manifest = write_market(tmp_path)
    return load_config(write_config(tmp_path, manifest))


class TestConfig:
    def test_round_trips_through_text(self, tmp_path, tiny_config):
        path = tmp_path / "resolved.cfg"
        path.write_text(config_to_text(tiny_config))
        assert load_config(path) == tiny_config

    def test_unknown_key_rejected(self, tmp_path):
        manifest = write_market(tmp_path)
        path = write_config(tmp_path, manifest)
        path.write_text(path.read_text() + "mystery = 1\n")
        with pytest.raises(ValueError) as err:
            load_config(path)
        assert "mystery" in str(err.value)

    def test_missing_required_keys_rejected(self, tmp_path):
        path = tmp_path / "partial.cfg"
        path.write_text("normalization = last_close\n")
        with pytest.raises(ValueError) as err:
            load_config(path)
        assert "manifest" in str(err.value)

    def test_bad_normalization_rejected(self, tmp_path):
        manifest = write_market(tmp_path)
        path = write_config(tmp_path, manifest, normalization="zscore")
        with pytest.raises(ValueError):
            load_config(path)

    @pytest.mark.parametrize("key, value", [
        ("commission_rate", "-0.5"), ("commission_rate", "1.0"),
        ("steps", "-5"), ("online_steps", "-1"),
        ("sample_bias", "3.0"), ("sample_bias", "0"), ("sample_bias", "nan"),
        ("workers", "-2"), ("workers", "0"),
        ("weight_decay", "-1"), ("base_seed", "-1"),
        ("learning_rate", "0"), ("batch_size", "0"), ("runs", "0"), ("initial_value", "-1"),
        ("learning_rate", "inf"), ("weight_decay", "inf"), ("initial_value", "inf"),
        ("time_window", "3"),  # the policy's kernel width 3 needs at least 4
        ("normalization", "last_close, zscore"), ("normalization", "data_max, data_max"),
        ("normalization", "last_close,"),
    ])
    def test_out_of_range_value_names_key_and_file(self, tmp_path, key, value):
        path = write_config(tmp_path, tmp_path / "portfolio.txt", **{key: value})
        with pytest.raises(ValueError) as err:
            load_config(path)
        assert str(path) in str(err.value) and key in str(err.value)

    def test_byte_order_mark_is_not_part_of_the_first_key(self, tmp_path, tiny_config):
        path = write_config(tmp_path, tmp_path / "data" / "portfolio.txt")
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert load_config(path) == tiny_config

    def test_repeated_key_names_file_and_both_lines(self, tmp_path):
        path = write_config(tmp_path, tmp_path / "portfolio.txt", steps=300000)  # steps is line 10
        lines = path.read_text().splitlines() + ["steps = 7"]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as err:
            load_config(path)
        message = str(err.value)
        assert str(path) in message and "'steps'" in message and f"lines 10 and {len(lines)}" in message

    def test_line_without_equals_names_file_and_line(self, tmp_path):
        path = write_config(tmp_path, tmp_path / "portfolio.txt")
        lines = path.read_text().splitlines() + ["# a comment", "steps 7"]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as err:
            load_config(path)
        assert str(err.value) == f"{path}:{len(lines)}: expected 'key = value'"

    def test_value_that_does_not_parse_names_file_line_and_key(self, tmp_path):
        path = write_config(tmp_path, tmp_path / "portfolio.txt", steps="many")  # steps is line 10
        with pytest.raises(ValueError) as err:
            load_config(path)
        assert str(err.value) == f"{path}:10: cannot parse 'many' for key 'steps'"

    @pytest.mark.parametrize("day", ["20180101", "2018-W01-2"])
    def test_a_date_other_than_yyyy_mm_dd_is_refused_on_every_python(self, tmp_path, day):
        # Python 3.11's date.fromisoformat takes both; a config date follows the CSV rule
        path = write_config(tmp_path, tmp_path / "portfolio.txt", train_start=day)  # train_start is line 2
        message = f"{path}:2: cannot parse '{day}' for key 'train_start'"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_config(path)

    def test_the_shipped_config_names_every_key(self):
        path = Path(__file__).resolve().parents[1] / "configs" / "synth_crypto.cfg"
        lines = [line.split("#", 1)[0] for line in path.read_text().splitlines()]
        keys = [line.partition("=")[0].strip() for line in lines if line.strip()]
        assert keys == [f.name for f in fields(ExperimentConfig)]
        # and gives each defaulted key its ExperimentConfig default, the setting's one home
        config = load_config(path)
        defaulted = [f for f in fields(ExperimentConfig) if f.default is not MISSING]
        assert {f.name: getattr(config, f.name) for f in defaulted} == {f.name: f.default for f in defaulted}

    def test_normalization_lists_methods_in_order(self, tmp_path):
        config = load_config(write_config(tmp_path, tmp_path / "portfolio.txt", normalization="data_max,last_close"))
        assert config.methods == ("data_max", "last_close")


def test_default_hyperparameters(tmp_path):
    manifest = write_market(tmp_path)
    path = tmp_path / "minimal.cfg"
    path.write_text("\n".join([
        f"manifest = {manifest}",
        "train_start = 2021-01-01",
        "train_end = 2021-03-01",
        "test_start = 2021-03-02",
        "test_end = 2021-04-01",
        "normalization = last_close",
    ]) + "\n")
    config = load_config(path)
    assert config.learning_rate == 5e-5
    assert config.batch_size == 200
    assert config.sample_bias == 0.002
    assert config.steps == 300_000
    assert config.online_steps == 30
    assert config.time_window == 50
    assert config.commission_rate == 0.0025
    assert config.initial_value == 100_000.0
    assert config.runs == 50


class TestAggregate:
    @staticmethod
    def result(fapv_value, seed=0):
        return RunResult(
            seed=seed,
            metrics=MetricReport(fapv=fapv_value, mdd=0.1, sharpe=1.0, sharpe_excess=0.01, n_steps=5),
            trajectory_path="x.tsv",
            wall_time=0.0,
            trajectory=Trajectory(np.arange(5), np.ones(5), np.zeros(5), np.ones((5, 2)) / 2),
        )

    def test_identical_results_have_zero_half_width(self):
        agg = aggregate([self.result(1.3, 0), self.result(1.3, 1)])
        assert agg["fapv"] == (1.3, 0.0)

    def test_two_sample_half_width(self):
        agg = aggregate([self.result(1.0, 0), self.result(1.2, 1)])
        mean, half = agg["fapv"]
        assert abs(mean - 1.1) < 1e-15
        assert abs(half - 0.196) < 1e-12  # 1.96 * std([1.0, 1.2], ddof=1) / sqrt(2)

    def test_single_run_reports_zero_half_width(self):
        agg = aggregate([self.result(1.5)])
        assert agg["fapv"] == (1.5, 0.0)

    def test_max_fapv(self):
        results = [self.result(v, i) for i, v in enumerate([1.1, 2.06, 0.9])]
        assert max_fapv(results) == 2.06


def test_seeds_are_paired_across_methods(tiny_config):
    """Seed k starts every method from the same weights, fills a buffer of
    the same length and draws the same batch ranges from the trainer's
    RNG, so a per-seed difference between methods is a paired one."""
    seed = 5
    runs = {}
    for kind in KINDS:
        config = replace(tiny_config, normalization=kind)
        train_frame, _, scheme = prepare(config)[kind]
        params = init_policy(train_frame.n_assets, config.time_window, seed)
        initial = params.theta.copy()
        trainer = Trainer(params, train_frame, config.time_window, scheme, config.initial_value,
                          config.commission_rate,
                          TrainerConfig(learning_rate=config.learning_rate, batch_size=config.batch_size,
                                        sample_bias=config.sample_bias, weight_decay=config.weight_decay),
                          np.random.default_rng(seed))
        buffer = trainer.fill_buffer()
        ranges = [sample_batch(buffer, config.batch_size, config.sample_bias, trainer.rng) for _ in range(50)]
        runs[kind] = initial, len(buffer), ranges
    first_initial, first_length, first_ranges = runs[KINDS[0]]
    assert len(set(first_ranges)) > 1  # the draws vary, so agreeing on them means something
    for kind, (initial, length, ranges) in runs.items():
        assert np.array_equal(initial, first_initial), kind
        assert length == first_length, kind
        assert ranges == first_ranges, kind


def test_prepare_rejects_a_batch_larger_than_the_training_slice(tiny_config):
    # 60 training rows with window 4 leave 56 decidable steps, i.e. 56 buffer entries
    assert prepare(replace(tiny_config, batch_size=56))["last_close"][0].n_steps == 60
    with pytest.raises(ValueError) as err:
        prepare(replace(tiny_config, batch_size=57))
    assert "batch_size = 57" in str(err.value) and "56 decidable training step" in str(err.value)


@pytest.mark.parametrize("line, kept", [("alignment = intersect\n", False), ("alignment = forward_fill\n", True),
                                        ("", False)], ids=["intersect", "forward_fill", "no_line"])
def test_prepare_takes_the_calendar_from_the_manifest_line(tmp_path, line, kept):
    manifest = write_market(tmp_path, n_assets=2)
    csv = manifest.parent / "T1.csv"  # T1 lacks one of the 60 training days
    csv.write_text("".join(row for row in csv.read_text().splitlines(keepends=True)
                           if not row.startswith("2021-02-01,")))
    manifest.write_text(line + "T0 T0.csv\nT1 T1.csv\n")
    train, _, _ = prepare(load_config(write_config(tmp_path, manifest)))["last_close"]
    assert (date(2021, 2, 1) in train.dates) == kept and len(train.dates) == 59 + kept


class TestRunSingle:
    def test_untrained_policy_backtests_with_near_uniform_actions(self, tiny_config):
        tiny_config.steps = 0
        tiny_config.online_steps = 0
        prepared = prepare(tiny_config)["last_close"]
        result = run_single(tiny_config, 0, prepared)
        trajectory = result.trajectory
        assert prepared[2].scales is None
        assert np.isfinite([result.metrics.fapv, result.metrics.mdd, result.metrics.sharpe]).all()
        uniform = 1.0 / 4.0
        assert np.abs(trajectory.actions - uniform).max() < 0.1

    def test_rerun_reproduces_result_bitwise(self, tiny_config):
        first = run_single(tiny_config, 3, prepare(tiny_config)["last_close"])
        second = run_single(tiny_config, 3, prepare(tiny_config)["last_close"])
        traj_a, traj_b = first.trajectory, second.trajectory
        assert first.metrics == second.metrics
        assert np.array_equal(traj_a.values, traj_b.values)
        assert np.array_equal(traj_a.actions, traj_b.actions)

    def test_data_max_records_scales(self, tiny_config):
        tiny_config.normalization = "data_max"
        tiny_config.steps = 0
        tiny_config.online_steps = 0
        prepared = prepare(tiny_config)["data_max"]
        result = run_single(tiny_config, 0, prepared)
        scales = prepared[2].scales
        assert scales is not None and len(scales) == 3
        assert all(s > 0 for s in scales)
        assert result.trajectory_path == "traj_data_max_00000.tsv"


class TestCampaign:
    def test_serial_and_concurrent_runs_are_identical(self, tmp_path, tiny_config):
        tiny_config.runs = 3
        serial = run_campaign(tiny_config)
        concurrent_config = load_config(write_config(tmp_path, tiny_config.manifest, workers=2, runs=3))
        concurrent = run_campaign(concurrent_config)
        serial_dir, concurrent_dir = tmp_path / "serial", tmp_path / "parallel"
        emit_report(serial, serial_dir)
        emit_report(concurrent, concurrent_dir)
        assert non_timing_files(concurrent_dir) == non_timing_files(serial_dir)

    def test_campaign_is_deterministic_across_reruns(self, tiny_config):
        first = run_campaign(tiny_config)
        second = run_campaign(tiny_config)
        for a, b in zip(first.methods["last_close"].results, second.methods["last_close"].results):
            # wall_time is timing metadata and lives outside the deterministic outputs
            assert (a.seed, a.metrics, a.trajectory_path) == (b.seed, b.metrics, b.trajectory_path)

    def test_failed_runs_are_recorded_and_excluded(self, tiny_config, monkeypatch):
        import portrl.experiment as experiment

        original = experiment.run_single

        def flaky(config, seed, prepared):
            if seed == 1:
                raise RuntimeError("synthetic failure")
            return original(config, seed, prepared)

        monkeypatch.setattr(experiment, "run_single", flaky)
        report = experiment.run_campaign(tiny_config)
        method = report.methods["last_close"]
        assert [r.seed for r in method.results] == [0]
        assert method.failures == [(1, "RuntimeError: synthetic failure")]

    def test_the_pool_starts_no_more_workers_than_jobs(self, tmp_path, tiny_config, monkeypatch):
        tiny_config.runs = 1
        serial = run_campaign(tiny_config)
        started, alive = record_job_processes(monkeypatch)
        parallel = run_campaign(replace(tiny_config, workers=4))
        assert started == [("last_close", 0)]
        assert alive and max(alive) <= 1
        serial_dir, parallel_dir = tmp_path / "serial", tmp_path / "parallel"
        emit_report(serial, serial_dir)
        emit_report(parallel, parallel_dir)
        assert non_timing_files(parallel_dir) == non_timing_files(serial_dir)

    def test_multi_method_campaign_is_one_report_serial_or_parallel(self, tmp_path, capsys):
        config = replace(load_config(write_config(tmp_path, write_market(tmp_path))), normalization=ALL_METHODS)
        serial = run_campaign(config)
        assert capsys.readouterr().err.count(" done\n") == 6  # one progress line per (method, seed)
        parallel = run_campaign(replace(config, workers=2))
        assert list(serial.methods) == ["last_close", "last_price", "data_max"]
        for kind, method in serial.methods.items():
            assert [r.seed for r in method.results] == [0, 1]
            assert (method.scales is not None) == (kind == "data_max")
        serial_dir, parallel_dir = tmp_path / "serial", tmp_path / "parallel"
        emit_report(serial, serial_dir)
        emit_report(parallel, parallel_dir)
        left, right = non_timing_files(serial_dir), non_timing_files(parallel_dir)
        assert sorted(left) == sorted(right)
        assert len([name for name in left if name.startswith("traj_")]) == 6
        for name in left:
            assert left[name] == right[name], name

    @pytest.mark.parametrize("crash, how", [
        (lambda: os._exit(3), "died with exit code 3"),
        (lambda: os.kill(os.getpid(), signal.SIGKILL), "was killed by signal 9"),
    ], ids=["exit_3", "sigkill"])
    def test_a_crashed_worker_costs_only_its_own_run(self, tmp_path, monkeypatch, crash, how):
        if multiprocessing.get_start_method() != "fork":
            pytest.skip("the crash is patched into the parent, so only forked jobs see it")
        import portrl.experiment as experiment

        config = replace(load_config(write_config(tmp_path, write_market(tmp_path))), normalization=ALL_METHODS)
        emit_report(run_campaign(config), tmp_path / "serial")
        original = experiment.run_single

        def crashes_for_last_price_seed_0(config, seed, prepared):
            if prepared[2].kind == "last_price" and seed == 0:
                crash()
            return original(config, seed, prepared)

        monkeypatch.setattr(experiment, "run_single", crashes_for_last_price_seed_0)
        started, _ = record_job_processes(monkeypatch)
        report = run_campaign(replace(config, workers=2))
        assert sorted(started) == sorted((kind, seed) for kind in KINDS for seed in (0, 1))
        message = f"ChildProcessError: the process running this job {how}"
        assert {kind: method.failures for kind, method in report.methods.items()} == {
            "last_close": [], "last_price": [(0, message)], "data_max": []}
        emit_report(report, tmp_path / "pool")
        serial, pool = non_timing_files(tmp_path / "serial"), non_timing_files(tmp_path / "pool")
        per_run = [name for name in serial if name.startswith("traj_") or name == "data_max_scales.txt"]
        assert len(per_run) == 7
        per_run.remove("traj_last_price_00000.tsv")
        assert {name: pool[name] for name in per_run} == {name: serial[name] for name in per_run}
        assert pool["failed_last_price_00000.txt"] == (message + "\n").encode()
        assert sorted(pool) == sorted(per_run + ["failed_last_price_00000.txt", "config_resolved.txt", "summary.json",
                                                 "runs.tsv", *(f"fapv_{kind}.txt" for kind in KINDS)])

    def test_without_a_crash_each_job_is_submitted_once(self, tmp_path, monkeypatch):
        started, alive = record_job_processes(monkeypatch)
        config = replace(load_config(write_config(tmp_path, write_market(tmp_path))), normalization=ALL_METHODS)
        report = run_campaign(replace(config, workers=2))
        assert all(len(method.results) == 2 for method in report.methods.values())
        assert sorted(started) == sorted((kind, seed) for kind in KINDS for seed in (0, 1))
        assert alive and max(alive) <= 2

    @pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
    def test_no_job_process_outlives_a_campaign_left_early(self, tmp_path, monkeypatch, error):
        if multiprocessing.get_start_method() != "fork":
            pytest.skip("the stall is patched into the parent, so only forked jobs see it")
        import portrl.experiment as experiment

        original = experiment.run_single

        def seed_1_stalls(config, seed, prepared):
            if seed == 1:
                time.sleep(120)
            return original(config, seed, prepared)

        running_at_the_line = []

        class FailingStderr:
            def write(self, text):
                running_at_the_line.append(len(multiprocessing.active_children()))
                raise error("the progress line failed")

        monkeypatch.setattr(experiment, "run_single", seed_1_stalls)
        config = load_config(write_config(tmp_path, write_market(tmp_path), workers=2))
        monkeypatch.setattr(sys, "stderr", FailingStderr())
        with pytest.raises(error, match="the progress line failed"):
            run_campaign(config)
        monkeypatch.undo()
        assert running_at_the_line == [1]  # seed 0 finished, seed 1 still running
        assert multiprocessing.active_children() == []

    def test_jobs_carry_no_market_frames(self, tmp_path, monkeypatch):
        pickled = []
        reduce = MarketFrame.__reduce__

        def recording_reduce(frame):
            pickled.append(frame.tickers)
            return reduce(frame)

        monkeypatch.setattr(MarketFrame, "__reduce__", recording_reduce)
        config = load_config(write_config(tmp_path, write_market(tmp_path), normalization="last_close, data_max",
                                          workers=2))
        report = run_campaign(config)
        assert all(len(method.results) == 2 for method in report.methods.values())
        assert pickled == []

    @pytest.mark.parametrize("start_method", ["spawn", "forkserver"])
    def test_a_pool_under_a_non_fork_start_method_emits_the_serial_bytes(self, tmp_path, start_method):
        if start_method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"no {start_method} start method on this platform")
        config_path = write_config(tmp_path, write_market(tmp_path), normalization="last_close, data_max")
        emit_report(run_campaign(load_config(config_path)), tmp_path / "serial")
        code = ("import multiprocessing, sys\n"
                "from dataclasses import replace\n"
                "from portrl.experiment import emit_report, load_config, run_campaign\n"
                "multiprocessing.set_start_method(sys.argv[1])\n"
                "emit_report(run_campaign(replace(load_config(sys.argv[2]), workers=2)), sys.argv[3])\n")
        env = {**os.environ, "PYTHONPATH": str(Path(portrl.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-c", code, start_method, str(config_path), str(tmp_path / "pool")],
                              env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        assert done.stderr.count(" done\n") == 4
        serial, pool = non_timing_files(tmp_path / "serial"), non_timing_files(tmp_path / "pool")
        assert pool == serial

    def test_a_multi_method_campaign_parses_each_csv_once(self, tmp_path, monkeypatch):
        config = load_config(write_config(tmp_path, write_market(tmp_path), normalization=ALL_METHODS))
        loads = record_csv_loads(monkeypatch)
        report = run_campaign(config)
        assert loads == ["T0", "T1", "T2"]
        assert all(len(method.results) == 2 for method in report.methods.values())

    def test_a_method_whose_runs_all_fail_keeps_the_others(self, tmp_path, tiny_config, monkeypatch):
        import portrl.experiment as experiment

        fail_data_max(monkeypatch)
        config = replace(tiny_config, normalization="last_close, data_max")
        report = experiment.run_campaign(config)
        assert [r.seed for r in report.methods["last_close"].results] == [0, 1]
        assert report.methods["data_max"].results == []
        assert report.methods["data_max"].failures == [(0, "RuntimeError: data_max diverged"),
                                                       (1, "RuntimeError: data_max diverged")]
        emit_report(report, tmp_path / "campaign")
        summary = json.loads((tmp_path / "campaign" / "summary.json").read_text())
        assert summary["methods"]["data_max"]["aggregates"] is None
        assert summary["methods"]["data_max"]["max_fapv"] is None
        # the fitted scales belong to the prepared data, not to a run
        assert summary["methods"]["data_max"]["data_max_scales"] == list(prepare(config)["data_max"][2].scales)
        assert summary["methods"]["last_close"]["aggregates"]["fapv"]["mean"] == \
            aggregate(report.methods["last_close"].results)["fapv"][0]
        assert summarize(tmp_path / "campaign") == summary == summary_dict(report)

    def test_all_failures_abort(self, tmp_path, tiny_config, monkeypatch):
        fail_every_run(monkeypatch)
        report = run_campaign(tiny_config)
        assert report.methods["last_close"].results == []
        emit_report(report, tmp_path / "campaign")
        summary = json.loads((tmp_path / "campaign" / "summary.json").read_text())
        assert summary["methods"]["last_close"]["failures"] == [
            {"seed": 0, "error": "RuntimeError: boom at seed 0"},
            {"seed": 1, "error": "RuntimeError: boom at seed 1"},
        ]

    @pytest.mark.parametrize("block, value, overrides, text", [
        ("theta", np.nan, {}, "NonFiniteLoss: loss nan at step 0, batch [37, 43)"),
        ("theta", np.nan, {"steps": 0}, "InvalidAction: non-finite entries in action [nan nan nan nan]"),
        ("cash_bias", 1e3, {"commission_rate": 0}, "ZeroVariance: returns are all identical"),
        (None, None, {"commission_rate": 0.9999999}, "NoConvergence: mu fixed point did not converge (c=0.9999999)"),
    ], ids=["NonFiniteLoss", "InvalidAction", "ZeroVariance", "NoConvergence"])
    def test_each_failure_a_run_can_record_reaches_its_file(self, tmp_path, monkeypatch, block, value, overrides,
                                                            text):
        import portrl.experiment as experiment

        def init_policy_with_block_set(*args, **kwargs):
            params = init_policy(*args, **kwargs)
            getattr(params, block)[...] = value
            return params

        if block is not None:
            monkeypatch.setattr(experiment, "init_policy", init_policy_with_block_set)
        config = load_config(write_config(tmp_path, write_market(tmp_path), runs=1, **overrides))
        summary = emit_report(run_campaign(config), tmp_path / "campaign")
        assert (tmp_path / "campaign" / "failed_last_close_00000.txt").read_text() == text + "\n"
        assert summary["methods"]["last_close"]["failures"] == [{"seed": 0, "error": text}]


def fail_every_run(monkeypatch):
    """Make every run fail with a message that names its seed."""
    import portrl.experiment as experiment

    def always_fail(config, seed, prepared):
        raise RuntimeError(f"boom at seed {seed}")

    monkeypatch.setattr(experiment, "run_single", always_fail)


def record_csv_loads(monkeypatch):
    """Record the ticker of every CSV that portrl.experiment parses."""
    original, tickers = portrl.experiment.load_ohlc_csv, []

    def recording(path, ticker):
        tickers.append(ticker)
        return original(path, ticker)

    monkeypatch.setattr(portrl.experiment, "load_ohlc_csv", recording)
    return tickers


def fail_data_max(monkeypatch):
    """Make every data_max run fail; the other methods run normally."""
    import portrl.experiment as experiment

    original = experiment.run_single

    def fails_for_data_max(config, seed, prepared):
        if prepared[2].kind == "data_max":
            raise RuntimeError("data_max diverged")
        return original(config, seed, prepared)

    monkeypatch.setattr(experiment, "run_single", fails_for_data_max)


def fail_last_price_seed_1(monkeypatch):
    """Make last_price's seed 1 fail; every other run runs normally."""
    import portrl.experiment as experiment

    original = experiment.run_single

    def fails_for_last_price_seed_1(config, seed, prepared):
        if prepared[2].kind == "last_price" and seed == 1:
            raise RuntimeError("seed 1 diverged")
        return original(config, seed, prepared)

    monkeypatch.setattr(experiment, "run_single", fails_for_last_price_seed_1)


def record_job_processes(monkeypatch):
    """Record the (method, seed) of each job process a campaign starts and,
    each time it waits on their pipes, how many of them are alive."""
    process_class, wait = multiprocessing.Process, multiprocessing.connection.wait
    processes, started, alive = [], [], []

    def recording_process(*args, **kwargs):
        _, seed, (_, _, scheme), _ = kwargs["args"]
        started.append((scheme.kind, seed))
        processes.append(process_class(*args, **kwargs))
        return processes[-1]

    def recording_wait(*args, **kwargs):
        alive.append(sum(process.is_alive() for process in processes))
        return wait(*args, **kwargs)

    monkeypatch.setattr(multiprocessing, "Process", recording_process)
    monkeypatch.setattr(multiprocessing.connection, "wait", recording_wait)
    return started, alive


def non_timing_files(out_dir):
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir()) if p.name != "timings.tsv"}


def replace_all(pattern, replacement):
    """An edit of a file's bytes that replaces every match of a pattern."""
    return lambda data: re.sub(pattern, replacement, data)


# One malformed input of each kind, for write_market's basket and write_config's config:
# {name: (file edited, edit of its bytes, what `portrl validate` prints on stderr)}, where
# {config}, {manifest} and {data}, the CSVs' resolved directory, stand for paths.
MALFORMED_INPUTS = {
    "missing_column": ("T1.csv", replace_all(rb"close\n", b"price\n"),
                       "{data}/T1.csv: missing column 'close' in header ['date', 'open', 'high', 'low', 'price']"),
    "unparsable_row": ("T1.csv", replace_all(rb"\n2021-01-03,[^,]*,", b"\n2021-01-03,abc,"),
                       "{data}/T1.csv:4: could not convert string to float: 'abc'"),
    "ohlc_ordering": ("T1.csv", replace_all(rb"\n2021-01-03,[^\n]*", b"\n2021-01-03,10,12,9,13"),
                      "{data}/T1.csv:4: OHLC ordering violated on 2021-01-03 (open=10.0, high=12.0, low=9.0, "
                      "close=13.0)"),
    "empty_series": ("T1.csv", replace_all(rb"(?s)\n.*", b"\n"), "{data}/T1.csv: no data rows"),
    "empty_intersection": ("T1.csv", replace_all(rb"2021-", b"2019-"),
                           "{manifest}: no common dates across ['T0', 'T1', 'T2']"),
    "ranges_overlap": ("config", replace_all(rb"test_start = 2021-03-02", b"test_start = 2021-02-01"),
                       "train_start = 2021-01-01 .. train_end = 2021-03-01 must end before test_start = 2021-02-01 "
                       ".. test_end = 2021-04-01 starts (data: 2021-01-01..2021-04-30)"),
    "insufficient_train_length": ("config", replace_all(rb"train_end = 2021-03-01", b"train_end = 2021-01-03"),
                                  "train_start = 2021-01-01 .. train_end = 2021-01-03 holds 3 rows, need at least 5 "
                                  "(data: 2021-01-01..2021-04-30)"),
    "unknown_config_key": ("config", replace_all(rb"\Z", b"mystery = 1\n"),
                           "{config}:18: unknown config key 'mystery'"),
    "config_key_given_twice": ("config", replace_all(rb"\Z", b"steps = 7\n"),
                               "{config}:18: config key 'steps' given twice, on lines 10 and 18"),
    "unparsable_config_value": ("config", replace_all(rb"runs = 2", b"runs = two"),
                                "{config}:15: cannot parse 'two' for key 'runs'"),
    "config_line_without_equals": ("config", replace_all(rb"\Z", b"steps 7\n"), "{config}:18: expected 'key = value'"),
    "config_byte_not_utf8": ("config", replace_all(rb"steps", b"st\xe9ps"),
                             "{config}:10: byte 0xe9 is not UTF-8 (invalid continuation byte)"),
    "ticker_listed_twice": ("manifest", replace_all(rb"\Z", b"T0 T1.csv\n"),
                            "{manifest}:5: ticker 'T0' listed twice, on lines 2 and 5"),
    "alignment_given_twice": ("manifest", replace_all(rb"\Z", b"alignment = forward_fill\n"),
                              "{manifest}:5: manifest key 'alignment' given twice, on lines 1 and 5"),
    "bad_alignment": ("manifest", replace_all(rb"= intersect", b"= forwardfill"),
                      "{manifest}:1: cannot parse 'forwardfill' for key 'alignment'"),
    "unknown_manifest_key": ("manifest", replace_all(rb"\Z", b"files = T3.csv\n"),
                             "{manifest}:5: unknown manifest key 'files'"),
    "manifest_names_a_missing_csv": ("manifest", replace_all(rb"\Z", b"T3 missing.csv\n"),
                                     "{manifest}:5: ticker 'T3': {data}/missing.csv is not a file"),
    "manifest_names_a_directory": ("manifest", replace_all(rb"\Z", b"T3 .\n"),
                                   "{manifest}:5: ticker 'T3': {data} is not a file"),
    "manifest_line_without_a_path": ("manifest", replace_all(rb"\Z", b"T3\n"), "{manifest}:5: expected 'TICKER PATH'"),
    "manifest_byte_not_utf8": ("manifest", replace_all(rb"T1 T1", b"T1 T\xe91"),
                               "{manifest}:3: byte 0xe9 is not UTF-8 (invalid continuation byte)"),
}


def perturb_after(data_dir, out_dir, cutoff, factors):
    """Copy a market, scaling every OHLC cell of asset i's rows dated after
    ``cutoff`` by factors[i]; one positive factor per row keeps the OHLC order."""
    out_dir.mkdir()
    for path in data_dir.iterdir():
        lines = path.read_text().splitlines()
        if path.suffix == ".csv":
            factor = factors[int(path.stem[1:])]
            for j, line in enumerate(lines[1:], start=1):
                day, *cells = line.split(",")
                if date.fromisoformat(day) > cutoff:
                    lines[j] = ",".join([day] + [repr(float(cell) * factor) for cell in cells])
        (out_dir / path.name).write_text("\n".join(lines) + "\n")
    return out_dir / "portfolio.txt"


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=4)
@example(day=15, factors=[4.0, 0.25, 2.0])
@example(day=30, factors=[4.0, 0.25, 2.0])  # the last test day: no row follows it
@given(day=st.integers(1, 30), factors=st.lists(st.floats(0.25, 4.0), min_size=3, max_size=3))
def test_no_look_ahead_and_train_only_fitting(kind, day, factors):
    """Prices after test day ``day`` change neither the fitted data_max
    scales nor any decision made up to that day, online learning included.

    A trajectory row records the day after its decision: the action decided
    on day ``day`` sits on the next row, whose value and reward already use
    the next day's prices. On the last test day nothing is decided and no
    row follows it."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        config = load_config(write_config(tmp, write_market(tmp), normalization=kind, steps=3, online_steps=2))
        _, test_frame, scheme = prepare(config)[kind]
        last_kept = config.time_window - 1 + day  # test frame index of test day ``day``
        manifest = perturb_after(tmp / "data", tmp / "perturbed", test_frame.dates[last_kept], factors)
        changed = replace(config, manifest=str(manifest))
        assert prepare(changed)[kind][2] == scheme
        base = run_single(config, 1, prepare(config)[kind]).trajectory
        moved = run_single(changed, 1, prepare(changed)[kind]).trajectory
        kept = base.steps <= last_kept  # values and rewards up to day ``day``
        decided = base.steps <= last_kept + 1  # actions decided up to day ``day``
        assert kept.any() and np.array_equal(base.steps, moved.steps)
        assert (base.steps == last_kept + 1).any() == (last_kept < base.steps[-1])
        for name in ("values", "rewards"):
            assert np.array_equal(getattr(base, name)[kept], getattr(moved, name)[kept]), name
        assert np.array_equal(base.actions[decided], moved.actions[decided])


class TestEmitLoad:
    def test_round_trip_reproduces_report(self, tmp_path, tiny_config):
        report = run_campaign(tiny_config)
        out = tmp_path / "campaign"
        assert emit_report(report, out) == summary_dict(report)
        before = non_timing_files(out)
        assert summarize(out) == summary_dict(report)
        assert non_timing_files(out) == before
        for run in report.methods["last_close"].results:
            traj, restored = run.trajectory, _read_trajectory(out / run.trajectory_path)
            assert np.array_equal(traj.steps, restored.steps)
            assert np.array_equal(traj.values, restored.values)
            assert np.array_equal(traj.actions, restored.actions)
            assert np.array_equal(traj.rewards, restored.rewards)

    def test_config_resolved_is_exactly_the_config_as_loaded(self, tmp_path, tiny_config):
        out = tmp_path / "campaign"
        emit_report(run_campaign(tiny_config), out)
        assert (out / "config_resolved.txt").read_text() == config_to_text(tiny_config)

    def test_summary_schema_is_stable(self, tmp_path, tiny_config):
        report = run_campaign(tiny_config)
        out = tmp_path / "campaign"
        emit_report(report, out)
        summary = json.loads((out / "summary.json").read_text())
        assert sorted(summary) == ["config", "conventions", "format_version", "methods"]
        method = summary["methods"]["last_close"]
        assert sorted(method) == ["aggregates", "data_max_scales", "failures", "max_fapv", "runs"]
        assert sorted(method["aggregates"]) == ["fapv", "mdd", "sharpe", "sharpe_excess"]
        assert sorted(method["runs"][0]) == [
            "fapv", "mdd", "n_steps", "seed", "sharpe", "sharpe_excess", "trajectory",
        ]
        assert summary["format_version"] == 1

    def test_stored_aggregates_are_recomputable_from_runs(self, tmp_path, tiny_config):
        report = run_campaign(tiny_config)
        out = tmp_path / "campaign"
        emit_report(report, out)
        summary = json.loads((out / "summary.json").read_text())
        results = report.methods["last_close"].results
        for run, stored_run in zip(results, summary["methods"]["last_close"]["runs"], strict=True):
            assert stored_run == {"seed": run.seed, **asdict(run.metrics), "trajectory": run.trajectory_path}
        recomputed = aggregate(results)
        stored = summary["methods"]["last_close"]["aggregates"]
        for name, (mean, half) in recomputed.items():
            assert stored[name]["mean"] == mean
            assert stored[name]["half_width"] == half

    def test_fapv_sample_list_matches_run_count(self, tmp_path, tiny_config):
        report = run_campaign(tiny_config)
        out = tmp_path / "campaign"
        emit_report(report, out)
        samples = (out / "fapv_last_close.txt").read_text().splitlines()
        assert len(samples) == len(report.methods["last_close"].results)

    def test_all_failed_campaign_is_written_and_reemitted_byte_for_byte(self, tmp_path, capsys, monkeypatch):
        config_path = write_config(tmp_path, write_market(tmp_path), normalization=ALL_METHODS)
        out_dir = tmp_path / "campaign"
        fail_every_run(monkeypatch)
        assert cli.main(["run", str(config_path), "--out", str(out_dir)]) == 1
        assert capsys.readouterr().out.count("all 2 runs failed") == 3
        before = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
        assert sorted(before) == ["config_resolved.txt", "data_max_scales.txt", "failed_data_max_00000.txt",
                                  "failed_data_max_00001.txt", "failed_last_close_00000.txt",
                                  "failed_last_close_00001.txt", "failed_last_price_00000.txt",
                                  "failed_last_price_00001.txt", "fapv_data_max.txt", "fapv_last_close.txt",
                                  "fapv_last_price.txt", "runs.tsv", "summary.json", "timings.tsv"]
        assert cli.main(["report", str(out_dir)]) == 1
        assert {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())} == before

    @pytest.mark.parametrize("message", ["día 1: valor no finito é", "first line\r\nsecond line\n"],
                             ids=["non_ascii", "multi_line"])
    def test_a_failure_message_round_trips_through_its_file(self, tmp_path, tiny_config, monkeypatch, message):
        def always_fail(config, seed, prepared):
            raise RuntimeError(message)

        monkeypatch.setattr(portrl.experiment, "run_single", always_fail)
        report = run_campaign(tiny_config)
        out = tmp_path / "campaign"
        summary = emit_report(report, out)
        assert summary == summary_dict(report)
        assert summary["methods"]["last_close"]["failures"] == [
            {"seed": seed, "error": f"RuntimeError: {message}"} for seed in (0, 1)]
        assert (out / "failed_last_close_00001.txt").read_bytes() == f"RuntimeError: {message}\n".encode()

    def test_data_max_scales_are_written_one_repr_per_asset_when_data_max_is_listed(self, tmp_path, tiny_config):
        report = run_campaign(replace(tiny_config, normalization="last_close, data_max", runs=1, steps=1))
        out = tmp_path / "campaign"
        summary = emit_report(report, out)
        scales = report.methods["data_max"].scales
        assert len(scales) == 3
        assert (out / "data_max_scales.txt").read_text() == "".join(f"{float(s)!r}\n" for s in scales)
        assert summary["methods"]["data_max"]["data_max_scales"] == list(scales)
        assert summary["methods"]["last_close"]["data_max_scales"] is None

    def test_a_stale_data_max_scales_file_is_not_read_when_data_max_is_not_listed(self, tmp_path, tiny_config):
        out = tmp_path / "campaign"
        report = run_campaign(replace(tiny_config, runs=1, steps=1))
        emit_report(report, out)
        stale = out / "data_max_scales.txt"
        stale.write_bytes(b"not a scale \xe9\n")
        assert summarize(out) == summary_dict(report)
        assert stale.read_bytes() == b"not a scale \xe9\n"



class TestCli:
    def test_validate(self, tmp_path, capsys):
        manifest = write_market(tmp_path)
        config_path = write_config(tmp_path, manifest)
        assert cli.main(["validate", str(config_path)]) == 0
        out = capsys.readouterr().out
        assert "3 assets" in out
        assert "decidable" in out

    def test_validate_parses_each_csv_once_for_every_method(self, tmp_path, capsys, monkeypatch):
        config_path = write_config(tmp_path, write_market(tmp_path), normalization=ALL_METHODS)
        loads = record_csv_loads(monkeypatch)
        assert cli.main(["validate", str(config_path)]) == 0
        assert loads == ["T0", "T1", "T2"]
        assert "normalization 'last_close, last_price, data_max'" in capsys.readouterr().out

    def test_validate_resolves_a_relative_manifest_against_the_config_directory(self, tmp_path, capsys,
                                                                                 monkeypatch):
        write_market(tmp_path)
        config_path = write_config(tmp_path, "data/portfolio.txt")
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)
        loads = record_csv_loads(monkeypatch)
        assert cli.main(["validate", str(config_path)]) == 0
        assert loads == ["T0", "T1", "T2"]
        assert "ok: 3 assets aligned: T0, T1, T2" in capsys.readouterr().out

    def test_validate_names_a_test_range_outside_the_data(self, tmp_path, capsys):
        config_path = write_config(tmp_path, write_market(tmp_path), test_start="2030-01-01", test_end="2030-12-31")
        assert cli.main(["validate", str(config_path)]) == 2
        assert capsys.readouterr() == ("", "test_start = 2030-01-01 .. test_end = 2030-12-31 holds no rows "
                                           "(data: 2021-01-01..2021-04-30)\n")

    def test_validate_names_the_csv_and_line_of_a_byte_that_is_not_utf8(self, tmp_path, capsys):
        config_path = write_config(tmp_path, write_market(tmp_path))
        csv_path = tmp_path / "data" / "T1.csv"
        lines = csv_path.read_bytes().split(b"\n")
        lines[3] = lines[3].replace(b"2021", b"2\xe921", 1)
        csv_path.write_bytes(b"\n".join(lines))
        assert cli.main(["validate", str(config_path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"{csv_path.resolve()}:4: byte 0xe9 is not UTF-8")

    def test_validate_names_the_csv_and_line_of_a_cell_past_the_csv_field_limit(self, tmp_path, capsys):
        config_path = write_config(tmp_path, write_market(tmp_path))
        csv_path = tmp_path / "data" / "T1.csv"
        header, first, rest = csv_path.read_text().split("\n", 2)
        first = first.rpartition(",")[0] + ',"' + "9" * 200_000 + '"'  # a quoted close of 200,000 characters
        csv_path.write_text("\n".join([header, first, rest]))
        assert cli.main(["validate", str(config_path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith(f"{csv_path.resolve()}:2: field larger than field limit")

    def test_every_shipped_config_validates_through_the_module_entry_point(self, tmp_path):
        configs = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.cfg"))
        assert configs
        env = {**os.environ, "PYTHONPATH": str(Path(portrl.__file__).parents[1])}
        for config in configs:
            done = subprocess.run([sys.executable, "-m", "portrl.cli", "validate", str(config)], cwd=tmp_path,
                                  env=env, capture_output=True, text=True, timeout=120)
            assert (done.returncode, done.stderr) == (0, ""), config

    def test_report_on_a_missing_directory_is_its_message_alone_and_exit_2(self, tmp_path, capsys):
        missing = tmp_path / "no" / "such" / "campaign"
        assert cli.main(["report", str(missing)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and str(missing) in err and err.count("\n") == 1
        assert not missing.exists()

    def emitted_campaign(self, tmp_path, capsys):
        out_dir = tmp_path / "campaign"
        config_path = write_config(tmp_path, write_market(tmp_path))
        assert cli.main(["run", str(config_path), "--out", str(out_dir), "--runs", "1", "--steps", "1"]) == 0
        capsys.readouterr()
        return out_dir

    def failing_campaign(self, tmp_path, capsys, monkeypatch):
        """A 3-method x 2-seed campaign whose last_price seed 1 failed, and the table run printed."""
        out_dir = tmp_path / "campaign"
        config_path = write_config(tmp_path, write_market(tmp_path), normalization=ALL_METHODS)
        with monkeypatch.context() as patch:
            fail_last_price_seed_1(patch)
            assert cli.main(["run", str(config_path), "--out", str(out_dir), "--steps", "1"]) == 0
        return out_dir, capsys.readouterr().out.split("\n", 1)[1]

    def report_error(self, out_dir, capsys):
        """The report's stderr, after checking it exits 2 with nothing else printed or written."""
        before = non_timing_files(out_dir)
        assert cli.main(["report", str(out_dir)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert non_timing_files(out_dir) == before
        return err

    def test_report_rebuilds_every_summary_from_the_per_run_files(self, tmp_path, capsys, monkeypatch):
        out_dir, table = self.failing_campaign(tmp_path, capsys, monkeypatch)
        assert (out_dir / "failed_last_price_00001.txt").read_text() == "RuntimeError: seed 1 diverged\n"
        before = non_timing_files(out_dir)
        for path in [out_dir / "runs.tsv", *out_dir.glob("fapv_*.txt")]:
            path.unlink()
        (out_dir / "summary.json").write_text("{ not json\n")
        # per-run files of seeds and methods the config does not list are not read
        stray = {"traj_last_close_00002.tsv": b"not a trajectory\n", "failed_zscore_00000.txt": b"\xe9\n"}
        for name, content in stray.items():
            (out_dir / name).write_bytes(content)
        assert cli.main(["report", str(out_dir)]) == 0
        assert capsys.readouterr().out == table
        assert non_timing_files(out_dir) == {**before, **stray}

    def test_emit_report_returns_the_summary_of_the_runs_in_memory(self, tmp_path, monkeypatch):
        fail_last_price_seed_1(monkeypatch)
        config = load_config(write_config(tmp_path, write_market(tmp_path), normalization=ALL_METHODS, steps=1))
        report = run_campaign(config)
        assert [r.seed for r in report.methods["last_price"].results] == [0]
        # each run's metrics, recomputed from its trajectory file, are bitwise the ones run_single returned
        assert emit_report(report, tmp_path / "campaign") == summary_dict(report)

    # The directory holds a first campaign, (normalization, runs), or, for None, one unrelated file.
    @pytest.mark.parametrize("first, second", [
        ((ALL_METHODS, 2), (ALL_METHODS, 2)),
        (("last_close, data_max", 2), ("last_close", 1)),
        (None, (ALL_METHODS, 2)),
    ], ids=["same_config", "narrower_config", "an_unrelated_file"])
    def test_run_refuses_an_out_directory_that_holds_files_before_any_run(self, tmp_path, capsys, monkeypatch,
                                                                          first, second):
        manifest = write_market(tmp_path)
        out_dir = tmp_path / "campaign"

        def run(normalization, runs):
            config_path = write_config(tmp_path, manifest, normalization=normalization, runs=runs)
            return cli.main(["run", str(config_path), "--out", str(out_dir), "--steps", "1"])

        if first is None:
            out_dir.mkdir()
            (out_dir / "notes.txt").write_bytes(b"kept \xe9\n")
        else:
            assert run(*first) == 0
            capsys.readouterr()
        before = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
        calls = []
        monkeypatch.setattr(portrl.experiment, "run_single", lambda *args: calls.append(args))
        assert run(*second) == 2
        assert capsys.readouterr() == (
            "", f"output directory {out_dir} is not empty: a campaign needs a new or empty directory\n")
        assert calls == []
        assert {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())} == before

    def test_run_refuses_a_default_directory_that_holds_files(self, tmp_path, capsys, monkeypatch):
        config_path = write_config(tmp_path, write_market(tmp_path))
        monkeypatch.chdir(tmp_path)
        Path("campaign_last_close").mkdir()
        Path("campaign_last_close", "notes.txt").write_text("kept\n")
        calls = []
        monkeypatch.setattr(portrl.experiment, "run_single", lambda *args: calls.append(args))
        assert cli.main(["run", str(config_path)]) == 2
        assert capsys.readouterr() == (
            "", "output directory campaign_last_close is not empty: a campaign needs a new or empty directory\n")
        assert calls == [] and os.listdir("campaign_last_close") == ["notes.txt"]

    def test_run_writes_into_an_existing_empty_directory(self, tmp_path, capsys):
        config_path = write_config(tmp_path, write_market(tmp_path), normalization=ALL_METHODS)
        (tmp_path / "empty").mkdir()
        tables = []
        for name in ("empty", "new"):
            assert cli.main(["run", str(config_path), "--out", str(tmp_path / name), "--steps", "1"]) == 0
            tables.append(capsys.readouterr().out.split("\n", 1)[1])
        assert non_timing_files(tmp_path / "empty") == non_timing_files(tmp_path / "new")
        assert tables[0] == tables[1]

    def test_report_writes_only_the_summaries(self, tmp_path, capsys, monkeypatch):
        out_dir, table = self.failing_campaign(tmp_path, capsys, monkeypatch)
        written = []
        for name in ("write_text", "write_bytes", "unlink"):
            def recording(path, *args, _original=getattr(Path, name), **kwargs):
                written.append(path.name)
                return _original(path, *args, **kwargs)
            monkeypatch.setattr(Path, name, recording)
        assert cli.main(["report", str(out_dir)]) == 0
        assert capsys.readouterr().out == table
        assert sorted(written) == ["fapv_data_max.txt", "fapv_last_close.txt", "fapv_last_price.txt", "runs.tsv",
                                   "summary.json"]

    @pytest.mark.parametrize("column, cell", [("value", "nan"), ("value", "inf"), ("value", "0"), ("value", "-1"),
                                              ("reward", "nan"), ("w_0", "-inf")])
    def test_report_on_a_non_finite_cell_or_a_value_not_above_0_names_the_file_and_line(self, tmp_path, capsys,
                                                                                       column, cell):
        out_dir = self.emitted_campaign(tmp_path, capsys)
        trajectory = out_dir / "traj_last_close_00000.tsv"
        lines = [line.split("\t") for line in trajectory.read_text().splitlines()]
        lines[3][lines[0].index(column)] = cell
        trajectory.write_text("".join("\t".join(line) + "\n" for line in lines))
        assert self.report_error(out_dir, capsys) == (
            f"{trajectory}:4: expected finite numbers and a value > 0\n")

    def test_report_on_a_missing_trajectory_names_the_file(self, tmp_path, capsys):
        out_dir = self.emitted_campaign(tmp_path, capsys)
        trajectory = out_dir / "traj_last_close_00000.tsv"
        trajectory.unlink()
        assert self.report_error(out_dir, capsys) == (
            f"{trajectory}: method 'last_close' seed 0 has neither this trajectory nor failed_last_close_00000.txt\n")
        assert not trajectory.exists()

    def test_report_on_a_failed_seed_without_its_failure_file_names_both_files(self, tmp_path, capsys, monkeypatch):
        out_dir, _ = self.failing_campaign(tmp_path, capsys, monkeypatch)
        (out_dir / "failed_last_price_00001.txt").unlink()
        assert self.report_error(out_dir, capsys) == (
            f"{out_dir / 'traj_last_price_00001.tsv'}: method 'last_price' seed 1 has neither this trajectory nor "
            f"failed_last_price_00001.txt\n")

    def test_report_on_a_seed_with_both_per_run_files_names_both_files(self, tmp_path, capsys, monkeypatch):
        out_dir, _ = self.failing_campaign(tmp_path, capsys, monkeypatch)
        (out_dir / "traj_last_price_00001.tsv").write_bytes((out_dir / "traj_last_price_00000.tsv").read_bytes())
        assert self.report_error(out_dir, capsys) == (
            f"{out_dir / 'traj_last_price_00001.tsv'}: method 'last_price' seed 1 has both this trajectory and "
            f"failed_last_price_00001.txt\n")

    def test_report_on_a_trajectory_with_rows_missing_names_the_file(self, tmp_path, capsys):
        out_dir = self.emitted_campaign(tmp_path, capsys)
        trajectory = out_dir / "traj_last_close_00000.tsv"
        trajectory.write_text(trajectory.read_text().splitlines()[0] + "\n")
        assert self.report_error(out_dir, capsys) == (
            f"{trajectory}: need at least two steps for a return series, got 0\n")

    def test_report_on_a_one_row_trajectory_names_the_file(self, tmp_path, capsys):
        out_dir = self.emitted_campaign(tmp_path, capsys)
        trajectory = out_dir / "traj_last_close_00000.tsv"
        trajectory.write_text("\n".join(trajectory.read_text().splitlines()[:2]) + "\n")
        assert self.report_error(out_dir, capsys) == (
            f"{trajectory}: need at least two steps for a return series, got 1\n")

    def test_report_on_a_malformed_trajectory_names_the_file(self, tmp_path, capsys):
        out_dir = self.emitted_campaign(tmp_path, capsys)
        trajectory = next(out_dir.glob("traj_*.tsv"))
        header = trajectory.read_text().splitlines()[0]
        trajectory.write_text(f"{header}\n1\tx\t0.0\n")
        assert self.report_error(out_dir, capsys).startswith(f"{trajectory}: could not convert string to float")

    def test_report_on_a_trajectory_row_with_columns_missing_names_the_file(self, tmp_path, capsys):
        out_dir = self.emitted_campaign(tmp_path, capsys)
        trajectory = out_dir / "traj_last_close_00000.tsv"
        lines = trajectory.read_text().splitlines()
        lines[2] = lines[2].split("\t")[0]  # the step alone
        trajectory.write_text("\n".join(lines) + "\n")
        assert self.report_error(out_dir, capsys) == f"{trajectory}: list index out of range\n"

    def test_report_on_a_missing_config_names_the_file(self, tmp_path, capsys):
        out_dir = self.emitted_campaign(tmp_path, capsys)
        config = out_dir / "config_resolved.txt"
        config.unlink()
        err = self.report_error(out_dir, capsys)
        assert str(config) in err and "No such file" in err

    @pytest.mark.parametrize("line", ["alignment = ", "kernel_width = 3", "conv1_channels = 2",
                                      "conv2_channels = 20"])
    def test_report_on_a_config_with_a_removed_key_names_the_key(self, tmp_path, capsys, line):
        # config_resolved.txt of a campaign written when the calendar and the network's shape were keys
        out_dir = self.emitted_campaign(tmp_path, capsys)
        config = out_dir / "config_resolved.txt"
        config.write_text(config.read_text() + line + "\n")
        assert self.report_error(out_dir, capsys) == (
            f"{config}:18: unknown config key '{line.partition(' =')[0]}'\n")

    def test_report_on_a_config_listing_a_run_without_its_files_names_the_trajectory(self, tmp_path, capsys):
        out_dir = self.emitted_campaign(tmp_path, capsys)
        config = out_dir / "config_resolved.txt"
        config.write_text(config.read_text().replace("\nruns = 1\n", "\nruns = 2\n"))
        assert self.report_error(out_dir, capsys) == (
            f"{out_dir / 'traj_last_close_00001.tsv'}: method 'last_close' seed 1 has neither this trajectory nor "
            f"failed_last_close_00001.txt\n")

    @pytest.mark.parametrize("timings", [None, b"not\ta timings table\n\xe9\n"], ids=["missing", "malformed"])
    def test_report_neither_reads_nor_writes_timings_tsv(self, tmp_path, capsys, monkeypatch, timings):
        out_dir, table = self.failing_campaign(tmp_path, capsys, monkeypatch)
        before = non_timing_files(out_dir)
        path = out_dir / "timings.tsv"
        if timings is None:
            path.unlink()
        else:
            path.write_bytes(timings)
        assert cli.main(["report", str(out_dir)]) == 0
        assert capsys.readouterr().out == table
        assert non_timing_files(out_dir) == before
        assert (path.read_bytes() if path.exists() else None) == timings

    @pytest.mark.parametrize("malformed", [False, True], ids=["missing", "malformed"])
    def test_report_on_missing_or_malformed_data_max_scales_names_the_file(self, tmp_path, capsys, monkeypatch,
                                                                          malformed):
        out_dir, _ = self.failing_campaign(tmp_path, capsys, monkeypatch)
        scales = out_dir / "data_max_scales.txt"
        if malformed:
            lines = scales.read_text().splitlines()
            lines[1] = "1.5x"
            scales.write_text("\n".join(lines) + "\n")
            assert self.report_error(out_dir, capsys) == f"{scales}:2: expected a scale, got '1.5x'\n"
        else:
            scales.unlink()
            err = self.report_error(out_dir, capsys)
            assert str(scales) in err and "No such file" in err

    @pytest.mark.parametrize("name, line", [("traj_last_close_00000.tsv", 2), ("failed_last_price_00001.txt", 1),
                                            ("config_resolved.txt", 3), ("data_max_scales.txt", 2)],
                             ids=["trajectory", "failure", "config", "scales"])
    def test_report_names_the_file_and_line_of_a_byte_that_is_not_utf8(self, tmp_path, capsys, monkeypatch, name,
                                                                       line):
        out_dir, _ = self.failing_campaign(tmp_path, capsys, monkeypatch)
        path = out_dir / name
        lines = path.read_bytes().split(b"\n")
        lines[line - 1] = b"\xe9" + lines[line - 1]
        path.write_bytes(b"\n".join(lines))
        timings = (out_dir / "timings.tsv").read_bytes()
        assert self.report_error(out_dir, capsys).startswith(f"{path}:{line}: byte 0xe9 is not UTF-8 (")
        assert (out_dir / "timings.tsv").read_bytes() == timings

    def test_report_into_a_runs_tsv_that_is_a_directory_is_its_message_alone_and_exit_2(self, tmp_path, capsys):
        out_dir = self.emitted_campaign(tmp_path, capsys)
        runs = out_dir / "runs.tsv"
        runs.unlink()
        runs.mkdir()
        assert cli.main(["report", str(out_dir)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and str(runs) in err and err.count("\n") == 1

    def test_validate_rejects_a_test_range_too_short_to_score(self, tmp_path, capsys):
        config_path = write_config(tmp_path, write_market(tmp_path), test_end="2021-03-03")
        assert cli.main(["validate", str(config_path)]) == 2
        err = capsys.readouterr().err
        assert "test_start" in err and "test_end" in err

    def test_validate_rejects_a_batch_larger_than_the_training_slice(self, tmp_path, capsys):
        config_path = write_config(tmp_path, write_market(tmp_path), batch_size=500)
        assert cli.main(["validate", str(config_path)]) == 2
        err = capsys.readouterr().err
        assert "batch_size = 500" in err and "56 decidable training step" in err

    @pytest.mark.parametrize("command", ["run", "validate"])
    def test_a_manifest_load_error_is_its_message_alone_and_exit_2(self, tmp_path, capsys, monkeypatch, command):
        manifest = write_market(tmp_path)
        manifest.write_text(manifest.read_text().replace("alignment = intersect", "alignment = forwardfill"))
        config_path = write_config(tmp_path, manifest, normalization=ALL_METHODS)
        calls = []
        monkeypatch.setattr(portrl.experiment, "run_single", lambda *args: calls.append(args))
        monkeypatch.chdir(tmp_path)
        assert cli.main([command, str(config_path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"{manifest}:1: cannot parse 'forwardfill' for key 'alignment'\n"
        assert calls == [] and not list(tmp_path.glob("campaign_*"))

    @pytest.mark.parametrize("inside", [False, True], ids=["the_file", "under_the_file"])
    def test_run_rejects_an_out_path_at_or_under_a_file_before_any_run(self, tmp_path, capsys, monkeypatch, inside):
        config_path = write_config(tmp_path, write_market(tmp_path))
        taken = tmp_path / "taken"
        taken.write_text("kept\n")
        out_dir = taken / "campaign" if inside else taken
        calls = []
        monkeypatch.setattr(portrl.experiment, "run_single", lambda *args: calls.append(args))
        assert cli.main(["run", str(config_path), "--out", str(out_dir)]) == 2
        assert capsys.readouterr() == ("", f"output directory {out_dir}: {taken} is not a directory\n")
        assert calls == [] and taken.read_text() == "kept\n"

    @pytest.mark.parametrize("name", MALFORMED_INPUTS)
    def test_validate_prints_the_message_of_each_malformed_input(self, tmp_path, capsys, name):
        manifest = write_market(tmp_path)
        config_path = write_config(tmp_path, manifest)
        file, edit, message = MALFORMED_INPUTS[name]
        path = {"config": config_path, "manifest": manifest}.get(file, manifest.parent / file)
        path.write_bytes(edit(path.read_bytes()))
        assert cli.main(["validate", str(config_path)]) == 2
        expected = message.format(config=config_path, manifest=manifest, data=manifest.parent.resolve())
        assert capsys.readouterr() == ("", expected + "\n")

    @pytest.mark.parametrize("command", ["run", "validate"])
    def test_a_config_error_is_its_message_alone_and_exit_2(self, tmp_path, capsys, command):
        config_path = write_config(tmp_path, write_market(tmp_path))
        config_path.write_text(config_path.read_text() + "step = 3\n")
        line = len(config_path.read_text().splitlines())
        assert cli.main([command, str(config_path)]) == 2
        assert capsys.readouterr() == ("", f"{config_path}:{line}: unknown config key 'step'\n")

    def test_run_exits_1_when_a_method_fails_and_report_keeps_the_rest(self, tmp_path, capsys, monkeypatch):
        config_path = write_config(tmp_path, write_market(tmp_path), normalization=ALL_METHODS)
        out_dir = tmp_path / "campaign"
        fail_data_max(monkeypatch)
        assert cli.main(["run", str(config_path), "--out", str(out_dir), "--steps", "1"]) == 1
        out = capsys.readouterr().out
        assert "data_max      all 2 runs failed" in out
        assert "last_close    " in out and "last_price    " in out and "+-" in out
        assert "state normalizations" not in out  # no verdict without data_max results
        before = non_timing_files(out_dir)
        assert (out_dir / "fapv_data_max.txt").read_text() == ""
        assert len((out_dir / "fapv_last_close.txt").read_text().splitlines()) == 2
        assert cli.main(["report", str(out_dir)]) == 1
        assert capsys.readouterr().out == out.split("\n", 1)[1]  # the table, without the 'written to' line
        assert non_timing_files(out_dir) == before

    def test_a_failed_seed_is_named_under_its_method_row(self, tmp_path, capsys, monkeypatch):
        original = portrl.experiment.run_single

        def fails_for_seed_1(config, seed, prepared):
            if seed == 1:
                raise RuntimeError("seed 1 diverged")
            return original(config, seed, prepared)

        monkeypatch.setattr(portrl.experiment, "run_single", fails_for_seed_1)
        config_path = write_config(tmp_path, write_market(tmp_path))
        assert cli.main(["run", str(config_path), "--out", str(tmp_path / "campaign"), "--steps", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        row = next(i for i, line in enumerate(lines) if line.startswith("last_close "))
        assert lines[row + 1] == "  warning: 1 failed run(s): seed 1"

    def test_report_prints_the_table_run_printed(self, tmp_path, capsys, monkeypatch):
        fail_last_price_seed_1(monkeypatch)
        config_path = write_config(tmp_path, write_market(tmp_path), normalization=ALL_METHODS)
        out_dir = tmp_path / "campaign"
        assert cli.main(["run", str(config_path), "--out", str(out_dir), "--steps", "1"]) == 0
        written, table = capsys.readouterr().out.split("\n", 1)
        assert written == f"campaign written to {out_dir}"
        assert "\n  warning: 1 failed run(s): seed 1\n" in table
        assert "\ndata_max mean FAPV >= both state normalizations: " in table
        assert cli.main(["report", str(out_dir)]) == 0
        assert capsys.readouterr().out == table

    def test_run_overrides_are_validated(self, tmp_path, capsys):
        config_path = write_config(tmp_path, write_market(tmp_path))
        assert cli.main(["run", str(config_path), "--workers", "-2"]) == 2
        assert capsys.readouterr().err == "workers must be >= 1, got -2\n"

    def test_three_method_run_prints_verdict_and_report_reemits_files(self, tmp_path, capsys, monkeypatch):
        config_path = write_config(tmp_path, write_market(tmp_path), normalization=ALL_METHODS)
        monkeypatch.chdir(tmp_path)
        assert cli.main(["run", str(config_path), "--runs", "1", "--steps", "1"]) == 0
        out_dir = tmp_path / "campaign_last_close-last_price-data_max"
        verdict = "data_max mean FAPV >= both state normalizations: "
        assert verdict in capsys.readouterr().out
        before = non_timing_files(out_dir)
        assert cli.main(["report", str(out_dir)]) == 0
        assert verdict in capsys.readouterr().out
        assert non_timing_files(out_dir) == before

    def test_run_and_report(self, tmp_path, capsys):
        manifest = write_market(tmp_path)
        config_path = write_config(tmp_path, manifest)
        out_dir = tmp_path / "campaign"
        assert cli.main(["run", str(config_path), "--out", str(out_dir), "--runs", "1", "--steps", "2"]) == 0
        assert (out_dir / "summary.json").exists()
        capsys.readouterr()
        assert cli.main(["report", str(out_dir)]) == 0
        assert "last_close" in capsys.readouterr().out


class TestBlasPin:
    VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

    def pinned(self, **preset):
        env = {k: v for k, v in os.environ.items() if k not in self.VARS}
        env.update(preset)
        env["PYTHONPATH"] = str(Path(portrl.__file__).parents[1])
        code = "import os, portrl.cli; print(' '.join(os.environ[v] for v in %r))" % (self.VARS,)
        return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, check=True, timeout=120).stdout.split()

    def test_unset_variables_are_pinned_to_one(self):
        assert self.pinned() == ["1", "1", "1"]

    def test_user_value_is_kept(self):
        assert self.pinned(OPENBLAS_NUM_THREADS="3") == ["3", "1", "1"]
