import json
import os
import subprocess
import sys
import tempfile
from dataclasses import replace
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import portrl
from portrl import cli
from portrl.metrics import MetricReport
from portrl.normalization import KINDS
from portrl.policy import init_policy
from portrl.training import Trainer, TrainerConfig, sample_batch
from portrl.experiment import (
    RunResult,
    aggregate,
    config_to_text,
    emit_report,
    load_campaign,
    load_config,
    max_fapv,
    prepare,
    run_campaign,
    run_single,
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
        "conv1_channels": "2",
        "conv2_channels": "3",
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
        ("kernel_width", "0"), ("conv1_channels", "0"), ("conv2_channels", "0"),
        ("weight_decay", "-1"), ("base_seed", "-1"),
        ("learning_rate", "0"), ("batch_size", "0"), ("runs", "0"), ("initial_value", "-1"),
        ("learning_rate", "inf"), ("weight_decay", "inf"), ("initial_value", "inf"),
        ("time_window", "3"),  # the default kernel_width 3 needs at least 4
        ("alignment", "outer"),
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
        params = init_policy(train_frame.n_assets, config.time_window, seed, k1=config.kernel_width,
                             c1=config.conv1_channels, c2=config.conv2_channels)
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


class TestRunSingle:
    def test_untrained_policy_backtests_with_near_uniform_actions(self, tiny_config):
        tiny_config.steps = 0
        tiny_config.online_steps = 0
        prepared = prepare(tiny_config)["last_close"]
        result, trajectory = run_single(tiny_config, 0, prepared)
        assert prepared[2].scales is None
        assert np.isfinite([result.metrics.fapv, result.metrics.mdd, result.metrics.sharpe]).all()
        uniform = 1.0 / 4.0
        assert np.abs(trajectory.actions - uniform).max() < 0.1

    def test_rerun_reproduces_result_bitwise(self, tiny_config):
        first, traj_a = run_single(tiny_config, 3, prepare(tiny_config)["last_close"])
        second, traj_b = run_single(tiny_config, 3, prepare(tiny_config)["last_close"])
        assert first.metrics == second.metrics
        assert np.array_equal(traj_a.values, traj_b.values)
        assert np.array_equal(traj_a.actions, traj_b.actions)

    def test_data_max_records_scales(self, tiny_config):
        tiny_config.normalization = "data_max"
        tiny_config.steps = 0
        tiny_config.online_steps = 0
        prepared = prepare(tiny_config)["data_max"]
        result, _ = run_single(tiny_config, 0, prepared)
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
        for name in ("summary.json", "runs.tsv", "fapv_last_close.txt"):
            left = (serial_dir / name).read_text()
            right = (concurrent_dir / name).read_text()
            if name == "summary.json":
                # configs differ only in the workers knob
                left_doc, right_doc = json.loads(left), json.loads(right)
                left_doc["config"].pop("workers")
                right_doc["config"].pop("workers")
                assert left_doc == right_doc
            else:
                assert left == right

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
            if name in ("summary.json", "config_resolved.txt"):
                # the configs differ only in the workers knob
                left[name] = left[name].replace(b'"workers": "1"', b"").replace(b"workers = 1", b"")
                right[name] = right[name].replace(b'"workers": "2"', b"").replace(b"workers = 2", b"")
            assert left[name] == right[name], name

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
        loaded = load_campaign(tmp_path / "campaign")
        assert loaded.methods["last_close"].results == report.methods["last_close"].results
        assert loaded.methods["data_max"].results == []
        assert loaded.methods["data_max"].failures == report.methods["data_max"].failures

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


def non_timing_files(out_dir):
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir()) if p.name != "timings.tsv"}


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
        _, base = run_single(config, 1, prepare(config)[kind])
        _, moved = run_single(changed, 1, prepare(changed)[kind])
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
        emit_report(report, out)
        loaded = load_campaign(out)
        assert loaded.config == report.config
        assert loaded.methods["last_close"].results == report.methods["last_close"].results
        assert loaded.methods["last_close"].failures == report.methods["last_close"].failures
        for seed, traj in report.methods["last_close"].trajectories.items():
            restored = loaded.methods["last_close"].trajectories[seed]
            assert np.array_equal(traj.values, restored.values)
            assert np.array_equal(traj.actions, restored.actions)
            assert np.array_equal(traj.rewards, restored.rewards)

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
        loaded = load_campaign(out)
        summary = json.loads((out / "summary.json").read_text())
        recomputed = aggregate(loaded.methods["last_close"].results)
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
        assert sorted(before) == ["config_resolved.txt", "fapv_data_max.txt", "fapv_last_close.txt",
                                  "fapv_last_price.txt", "runs.tsv", "summary.json", "timings.tsv"]
        assert cli.main(["report", str(out_dir)]) == 1
        assert {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())} == before



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

    def test_validate_names_a_test_range_outside_the_data(self, tmp_path, capsys):
        config_path = write_config(tmp_path, write_market(tmp_path), test_start="2030-01-01", test_end="2030-12-31")
        assert cli.main(["validate", str(config_path)]) == 2
        assert capsys.readouterr() == ("", "test range 2030-01-01..2030-12-31 holds no rows "
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

    def report_error(self, out_dir, capsys):
        """The report's stderr, after checking it exits 2 with nothing else printed or written."""
        before = non_timing_files(out_dir)
        assert cli.main(["report", str(out_dir)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert non_timing_files(out_dir) == before
        return err

    def test_report_on_a_summary_that_is_not_json_names_the_file(self, tmp_path, capsys):
        out_dir = self.emitted_campaign(tmp_path, capsys)
        summary = out_dir / "summary.json"
        summary.write_text(summary.read_text().replace('"methods"', "methods"))
        assert self.report_error(out_dir, capsys).startswith(f"{summary}: not valid JSON: Expecting property name")

    def test_report_on_a_summary_missing_a_key_names_the_file_and_key(self, tmp_path, capsys):
        out_dir = self.emitted_campaign(tmp_path, capsys)
        summary = out_dir / "summary.json"
        content = json.loads(summary.read_text())
        del content["methods"]["last_close"]["failures"]
        summary.write_text(json.dumps(content))
        assert self.report_error(out_dir, capsys) == f"{summary}: missing key 'failures'\n"

    def test_report_on_a_summary_of_the_wrong_shape_names_the_file(self, tmp_path, capsys):
        out_dir = self.emitted_campaign(tmp_path, capsys)
        summary = out_dir / "summary.json"
        content = json.loads(summary.read_text())
        content["methods"]["last_close"]["runs"] = 3
        summary.write_text(json.dumps(content))
        assert self.report_error(out_dir, capsys) == f"{summary}: 'int' object is not iterable\n"

    def test_report_on_a_malformed_timings_line_names_the_file_and_line(self, tmp_path, capsys):
        out_dir = self.emitted_campaign(tmp_path, capsys)
        timings = out_dir / "timings.tsv"
        timings.write_text(timings.read_text() + "last_close\t1\n")
        assert self.report_error(out_dir, capsys) == (
            f"{timings}:3: expected method, seed and wall time, got 'last_close\\t1'\n")

    def test_report_on_a_malformed_trajectory_names_the_file(self, tmp_path, capsys):
        out_dir = self.emitted_campaign(tmp_path, capsys)
        trajectory = next(out_dir.glob("traj_*.tsv"))
        header = trajectory.read_text().splitlines()[0]
        trajectory.write_text(f"{header}\n1\tx\t0.0\n")
        assert self.report_error(out_dir, capsys).startswith(f"{trajectory}: could not convert string to float")

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
        assert out == "" and err == f"{manifest}:1: alignment must be intersect or forward_fill, got 'forwardfill'\n"
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
