"""Acceptance suite: one test per release criterion, each printing a
PASS line (run with `pytest tests/test_acceptance.py -v -s`).

The directional-replication criterion is soft by design: this file runs
a micro-scale version and records the outcome without gating on it; the
full-budget run is `portrl run configs/replication.cfg`.
"""

import json
import math
import time
from datetime import date, timedelta

import numpy as np
import pytest

from helpers import hold_mu, make_frame, max_fd_error, random_simplex, random_walk_frame, transaction_factor_oracle
from portrl.environment import (
    env_reset,
    env_step,
    transaction_factor,
)
from portrl.experiment import emit_report, load_config, prepare, run_campaign, run_single
from portrl.metrics import mdd as fast_mdd
from portrl.metrics import sharpe_from_returns
from portrl.normalization import (
    apply_data_max,
    fit_data_max,
    normalize_window,
    scheme_from_kind,
)
from portrl.policy import forward_batch, init_policy, policy_forward
from portrl.training import ReplayBuffer, Trainer, TrainerConfig, Trajectory, batch_objective, sample_batch

LAST_CLOSE = scheme_from_kind("last_close")


def normalize_last_close(closes, highs, lows):
    return normalize_window(LAST_CLOSE, np.stack([closes, highs, lows]))


def normalize_last_price(closes, highs, lows):
    return normalize_window(scheme_from_kind("last_price"), np.stack([closes, highs, lows]))


def _announce(name):
    print(f"\nACCEPTANCE {name}: PASS")


def test_mu_oracle_equivalence():
    rng = np.random.default_rng(123)
    started = time.perf_counter()
    for _ in range(1000):
        n = int(rng.integers(2, 12))
        w_from, w_to = rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n))
        for c in (0.0, 0.0025, 0.01):
            fixed = transaction_factor(w_from, w_to, c)
            oracle = transaction_factor_oracle(w_from, w_to, c)
            assert abs(fixed - oracle) < 1e-10
    elapsed = time.perf_counter() - started

    w = rng.dirichlet(np.ones(6))
    assert transaction_factor(w, w, 0.0025) == 1.0
    liquidate_from = np.array([0.0, 1.0])
    liquidate_to = np.array([1.0, 0.0])
    for c in (0.0025, 0.01):
        assert abs(transaction_factor(liquidate_from, liquidate_to, c) - (1.0 - c)) < 1e-12
    _announce(f"mu-oracle-equivalence ({elapsed:.2f}s)")


def _min_relu_preactivation(params, states):
    """Distance of the closest ReLU unit to its kink over a state batch.

    Central differences are only a valid oracle when no unit flips sign
    within the probe step, so instances closer than ~100x the step are
    redrawn.
    """
    from portrl.autodiff import conv1d_over_time
    from portrl.policy import conv1_unfold, stacked_rows

    x = stacked_rows(states)
    pre1 = conv1d_over_time(x, params.conv1_kernels, params.conv1_bias, conv1_unfold(params, x))
    pre2 = conv1d_over_time(np.maximum(pre1, 0.0), params.conv2_kernels, params.conv2_bias)
    return min(float(np.abs(pre1).min()), float(np.abs(pre2).min()))


def test_gradient_correctness_full_policy_objective(monkeypatch):
    n, window, batch, commission = 3, 8, 4, 0.0025
    eps = 1e-4  # balances FD roundoff vs truncation; see kink screen below
    started = time.perf_counter()
    worst_overall = 0.0
    accepted = 0
    candidate = 0
    while accepted < 20:
        candidate += 1
        frame = random_walk_frame(np.random.default_rng(1000 + candidate), n, 24)
        params = init_policy(n, window, seed=candidate, c1=2, c2=20)
        trainer = Trainer(params, frame, window, LAST_CLOSE, 1e5, commission,
                          TrainerConfig(batch_size=batch, sample_bias=0.1),
                          np.random.default_rng(candidate))
        buffer = trainer.fill_buffer()
        start = int(np.random.default_rng(2000 + candidate).integers(0, len(buffer) - batch))
        stop = start + batch
        if _min_relu_preactivation(params, buffer.states(start, stop)) < 100.0 * eps:
            continue
        accepted += 1

        states = buffer.states(start, stop)
        hold_mu(monkeypatch)
        objective, _ = batch_objective(params, states, buffer, start, stop, commission)
        objective.backward()

        def evaluate():
            return float(batch_objective(params, states, buffer, start, stop, commission)[0].data)

        worst_overall = max(worst_overall, max_fd_error(evaluate, params.theta, params.grad, eps))
        assert worst_overall < 1e-4, f"instance {candidate}: max rel error {worst_overall:.2e}"
    elapsed = time.perf_counter() - started
    _announce(f"gradient-correctness (max rel err {worst_overall:.2e}, {elapsed:.1f}s)")


def test_conservation_of_value():
    rng = np.random.default_rng(7)
    for _ in range(100):
        frame = random_walk_frame(rng, 3, 205)  # window 5 -> exactly 200 steps
        state, _ = env_reset(frame, 5, LAST_CLOSE, 1e5, 0.0)
        total = 0.0
        steps = 0
        while not state.terminal:
            state, _, reward = env_step(state, random_simplex(rng, 4))
            total += reward
            steps += 1
        assert steps == 200
        assert abs(math.exp(total) - state.drifted_value / 1e5) < 1e-9

    for _ in range(10):
        frame = random_walk_frame(rng, 3, 60)
        state, _ = env_reset(frame, 5, LAST_CLOSE, 1e5, 0.0025)
        while not state.terminal:
            before_drifted = state.drifted_value
            state, _, _ = env_step(state, random_simplex(rng, 4))
            assert state.value <= before_drifted * (1.0 + 1e-15)
    _announce("conservation")


def test_simplex_safety_fuzz():
    rng = np.random.default_rng(11)
    total = 0
    for chunk in range(10):
        params = init_policy(9, 50, seed=chunk)
        scale = 10.0 ** rng.uniform(-3, 3)
        states = np.abs(rng.normal(1.0, 0.5, (1000, 3, 9, 50))) * scale + 1e-9
        lasts = rng.dirichlet(np.ones(10), size=1000)
        actions, _ = forward_batch(params, states, lasts)
        assert np.abs(actions.sum(axis=1) - 1.0).max() <= 1e-9
        assert actions.min() >= 0.0 and actions.max() <= 1.0
        total += len(actions)
    assert total == 10_000
    _announce("simplex-safety")


def test_normalization_unit_properties():
    rng = np.random.default_rng(13)
    closes = np.abs(rng.normal(5.0, 1.0, (4, 12))) + 0.5
    highs = closes * (1.0 + np.abs(rng.normal(0, 0.01, closes.shape)))
    lows = closes * (1.0 - np.abs(rng.normal(0, 0.01, closes.shape)))

    state = normalize_last_close(closes, highs, lows)
    assert np.array_equal(state[0][:, -1], np.ones(4))

    state = normalize_last_price(closes, highs, lows)
    assert np.array_equal(state[:, :, -1], np.ones((3, 4)))

    frame = random_walk_frame(rng, 5, 40)
    scheme = fit_data_max(frame)
    scaled = apply_data_max(scheme, frame)
    assert np.array_equal(scaled.highs.max(axis=1), np.ones(5))

    for factor in (1e-6, 0.37, 411.0, 1e6):
        for normalize in (normalize_last_close, normalize_last_price):
            base = normalize(closes, highs, lows)
            scaled_state = normalize(closes * factor, highs * factor, lows * factor)
            rel = np.abs(scaled_state - base) / np.maximum(np.abs(base), 1e-300)
            assert rel.max() < 1e-12
    _announce("normalization-unit-properties")


def test_metric_oracles():
    rng = np.random.default_rng(17)

    def traj(values):
        values = np.asarray(values)
        return Trajectory(
            steps=np.arange(len(values), dtype=np.int64),
            values=values,
            rewards=np.zeros(len(values)),
            actions=np.zeros((len(values), 2)),
        )

    for _ in range(1000):
        length = int(rng.integers(2, 501))
        values = 100.0 * np.exp(rng.normal(0, 0.05, length).cumsum())
        fast = fast_mdd(traj(values))
        drop = (values[:, None] - values[None, :]) / values[:, None]
        brute = max(0.0, float(drop[np.triu_indices(length, k=1)].max()))
        assert fast == brute

        initial = 100.0
        assert abs(values[-1] / initial - values[-1] / initial) == 0.0
        ratios = values[1:] / values[:-1]
        if ratios.std() > 0.0:
            longhand_mean = sum(ratios) / len(ratios)
            longhand_var = sum((r - longhand_mean) ** 2 for r in ratios) / len(ratios)
            expected = longhand_mean / math.sqrt(longhand_var)
            assert abs(sharpe_from_returns(ratios) - expected) < 1e-12 * max(1.0, abs(expected))
    _announce("metric-oracles")


def test_sampling_distribution_total_variation():
    bias = 0.002
    batch = 40
    max_offset = 200
    buffer = ReplayBuffer(n_assets=1, window=2, scheme=LAST_CLOSE)
    buffer.add_frame(make_frame(np.ones((1, batch + max_offset + 2)), spread=0.0))
    for _ in range(batch + max_offset):
        buffer.append(np.array([1.0, 0.0]))

    rng = np.random.default_rng(19)
    draws = 1_000_000
    counts = np.zeros(max_offset + 1, dtype=np.int64)
    for _ in range(draws):
        start, _ = sample_batch(buffer, batch, bias, rng)
        counts[max_offset - start] += 1

    offsets = np.arange(max_offset + 1)
    pmf = bias * (1.0 - bias) ** offsets
    pmf /= pmf.sum()
    empirical = counts / draws
    tv = 0.5 * np.abs(empirical - pmf).sum()
    assert tv < 0.01, f"total variation {tv:.4f}"
    _announce(f"sampling-distribution (TV {tv:.4f})")


def test_learning_sanity_on_synthetic_market():
    started = time.perf_counter()
    length = 250
    steps_grid = np.arange(length)
    asset1 = 1.01 ** steps_grid
    flat = np.ones(length)
    frame = make_frame(np.stack([asset1, flat, flat * 2.0]), spread=0.005)
    window = 8

    params = init_policy(3, window, seed=0)
    trainer = Trainer(params, frame, window, LAST_CLOSE, 1e5, 0.0025,
                      TrainerConfig(learning_rate=5e-5, batch_size=40, sample_bias=0.01),
                      np.random.default_rng(0))
    trainer.fill_buffer()
    trainer.train(12_000)

    state, obs = env_reset(frame, window, LAST_CLOSE, 1e5, 0.0025)
    last = state.weights
    weights_on_asset1 = []
    while not state.terminal:
        action = policy_forward(trainer.params, obs, last)
        weights_on_asset1.append(action[1])
        state, obs, _ = env_step(state, action)
        last = action
    trained_fapv = state.drifted_value / 1e5

    state, _ = env_reset(frame, window, LAST_CLOSE, 1e5, 0.0025)
    equal_weight = np.array([0.0, 1 / 3, 1 / 3, 1 / 3])
    while not state.terminal:
        state, _, _ = env_step(state, equal_weight)
    baseline_fapv = state.drifted_value / 1e5

    elapsed = time.perf_counter() - started
    mean_weight = float(np.mean(weights_on_asset1))
    assert mean_weight > 0.9, f"mean weight on appreciating asset {mean_weight:.3f}"
    assert trained_fapv > baseline_fapv, f"{trained_fapv:.3f} vs baseline {baseline_fapv:.3f}"
    _announce(
        f"learning-sanity (weight {mean_weight:.3f}, FAPV {trained_fapv:.2f} "
        f"vs equal-weight {baseline_fapv:.2f}, {elapsed:.0f}s)"
    )


def _write_micro_crypto(tmp_path, n_assets=4, length=160, seed=99):
    rng = np.random.default_rng(seed)
    data_dir = tmp_path / "data"
    data_dir.mkdir(exist_ok=True)
    start = date(2022, 1, 1)
    lines = []
    for i in range(n_assets):
        drift = rng.uniform(-0.002, 0.004)
        vol = rng.uniform(0.02, 0.06)
        log_returns = rng.normal(drift, vol, length)
        log_returns[:60] += 0.003  # boom regime early in training
        closes = 10.0 * np.exp(np.concatenate([[0.0], log_returns[1:]]).cumsum())
        rows = ["date,open,high,low,close"]
        for j in range(length):
            day = start + timedelta(days=j)
            close = closes[j]
            hi = close * (1.0 + abs(rng.normal(0, 0.01)))
            lo = close * (1.0 - abs(rng.normal(0, 0.01)))
            rows.append(f"{day},{close},{hi},{lo},{close}")
        (data_dir / f"C{i}.csv").write_text("\n".join(rows) + "\n")
        lines.append(f"C{i} C{i}.csv")
    manifest = data_dir / "portfolio.txt"
    manifest.write_text("alignment = forward_fill\n" + "\n".join(lines) + "\n")
    return manifest


def test_reduced_directional_replication_micro(tmp_path):
    """Soft criterion: micro-scale stand-in that records (not asserts) the
    ranking of normalization methods; configs/replication.cfg runs the
    full 5-seed x 20000-step version."""
    manifest = _write_micro_crypto(tmp_path)
    config_text = "\n".join([
        f"manifest = {manifest}",
        "train_start = 2022-01-01",
        "train_end = 2022-04-30",
        "test_start = 2022-05-01",
        "test_end = 2022-06-09",
        "normalization = last_close",
        "steps = 400",
        "online_steps = 2",
        "batch_size = 20",
        "sample_bias = 0.01",
        "time_window = 10",
        "runs = 2",
        "conv2_channels = 8",
    ])
    config_path = tmp_path / "micro.cfg"
    config_path.write_text(config_text + "\n")

    means = {}
    for kind in ("last_close", "last_price", "data_max"):
        config = load_config(config_path)
        config.normalization = kind
        fapvs = []
        for seed in range(config.runs):
            result, _, _ = run_single(config, seed, prepare(config))
            assert math.isfinite(result.metrics.fapv)
            fapvs.append(result.metrics.fapv)
        means[kind] = float(np.mean(fapvs))

    data_max_leads = means["data_max"] >= max(means["last_close"], means["last_price"])
    _announce(
        "reduced-directional-replication [SOFT, micro-scale] "
        f"(mean FAPV {', '.join(f'{k}={v:.3f}' for k, v in means.items())}; "
        f"data_max >= state norms: {data_max_leads})"
    )


def test_determinism_of_runs_and_campaigns(tmp_path):
    manifest = _write_micro_crypto(tmp_path, seed=7)
    config_path = tmp_path / "det.cfg"
    config_path.write_text("\n".join([
        f"manifest = {manifest}",
        "train_start = 2022-01-01",
        "train_end = 2022-04-30",
        "test_start = 2022-05-01",
        "test_end = 2022-06-09",
        "normalization = last_price",
        "steps = 6",
        "online_steps = 1",
        "batch_size = 10",
        "sample_bias = 0.05",
        "time_window = 6",
        "runs = 2",
        "conv2_channels = 4",
    ]) + "\n")
    config = load_config(config_path)

    first, traj_a, _ = run_single(config, 1, prepare(config))
    second, traj_b, _ = run_single(config, 1, prepare(config))
    assert first.metrics == second.metrics
    assert np.array_equal(traj_a.values, traj_b.values)
    assert np.array_equal(traj_a.actions, traj_b.actions)
    assert np.array_equal(traj_a.rewards, traj_b.rewards)

    serial_report = run_campaign(config)
    config_parallel = load_config(config_path)
    config_parallel.workers = 2
    parallel_report = run_campaign(config_parallel)
    serial_dir, parallel_dir = tmp_path / "serial", tmp_path / "parallel"
    emit_report(serial_report, serial_dir)
    emit_report(parallel_report, parallel_dir)

    assert (serial_dir / "runs.tsv").read_bytes() == (parallel_dir / "runs.tsv").read_bytes()
    assert (serial_dir / "fapv_last_price.txt").read_bytes() == (parallel_dir / "fapv_last_price.txt").read_bytes()
    left = json.loads((serial_dir / "summary.json").read_text())
    right = json.loads((parallel_dir / "summary.json").read_text())
    left["config"].pop("workers")
    right["config"].pop("workers")
    assert left == right
    for name in sorted(p.name for p in serial_dir.glob("traj_*.tsv")):
        assert (serial_dir / name).read_bytes() == (parallel_dir / name).read_bytes()
    _announce("determinism")
