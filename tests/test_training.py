import copy
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import hold_mu, make_frame, max_fd_error, random_walk_frame, trainer_config
from portrl import training
from portrl.environment import build_state, env_reset, env_step, transaction_factor_batch
from portrl.market_data import price_relatives
from portrl.normalization import DATA_MAX, KINDS, apply_data_max, fit_data_max, scheme_from_kind
from portrl.policy import init_policy, policy_forward, stacked_rows
from portrl.training import (
    AdamW,
    NonFiniteLoss,
    Trainer,
    batch_objective,
    fill_buffer,
    sample_batch,
)

LAST_CLOSE = scheme_from_kind("last_close")


def make_trainer(frame, window=5, commission=0.0025, seed=0, **overrides):
    config = trainer_config(**{
        "learning_rate": 5e-5,
        "batch_size": 8,
        "sample_bias": 0.05,
        **overrides,
    })
    params = init_policy(frame.n_assets, window, seed, c1=2, c2=4)
    trainer = Trainer(
        params=params,
        frame=frame,
        window=window,
        scheme=LAST_CLOSE,
        initial_value=100_000.0,
        commission=commission,
        config=config,
        rng=np.random.default_rng(seed),
    )
    trainer.fill_buffer()
    return trainer


def objective_over(trainer, start, stop, commission):
    """batch_objective over rows [start, stop) of the trainer's buffer, from a fresh gather."""
    buffer = trainer.buffer
    return batch_objective(trainer.params, buffer.states(start, stop), buffer, start, stop, commission)


def normalized_frames(kind, train, test):
    """(scheme, train, test) for one normalization; data_max is fitted on train only."""
    if kind == DATA_MAX:
        scheme = fit_data_max(train)
        return scheme, apply_data_max(scheme, train), apply_data_max(scheme, test)
    return scheme_from_kind(kind), train, test


def reference_step(trainer):
    """Loss and post-AdamW parameters of the trainer's next train_step, built
    the long way on a copy of it: a fresh buffer.states gather, then
    batch_objective, backward and AdamW.step."""
    twin = copy.deepcopy(trainer)
    start, stop = sample_batch(twin.buffer, twin.config.batch_size, twin.config.sample_bias, twin.rng)
    states = twin.buffer.states(start, stop)
    objective = batch_objective(twin.params, states, twin.buffer, start, stop, twin.commission)
    loss = -objective
    loss.backward()
    twin.optimizer.step()
    return float(loss.data), twin.params.theta


def record_batches(monkeypatch):
    """List that receives the (start, stop) range of every later train_step."""
    batches = []
    original = training.sample_batch

    def recording(*args):
        batches.append(original(*args))
        return batches[-1]

    monkeypatch.setattr(training, "sample_batch", recording)
    return batches


class TestFillBuffer:
    def test_one_experience_per_decidable_step(self):
        frame = random_walk_frame(np.random.default_rng(0), 3, 40)
        trainer = make_trainer(frame, window=5)
        assert len(trainer.buffer) == 40 - 5

    def test_first_last_action_is_all_cash(self):
        frame = random_walk_frame(np.random.default_rng(1), 2, 20)
        trainer = make_trainer(frame, window=4)
        assert np.array_equal(trainer.buffer.last_actions[0], [1.0, 0.0, 0.0])

    def test_refill_is_deterministic(self):
        frame = random_walk_frame(np.random.default_rng(2), 2, 25)
        params = init_policy(2, 4, seed=7, c1=2, c2=4)
        first = fill_buffer(frame, 4, LAST_CLOSE, 8, params)
        second = fill_buffer(frame, 4, LAST_CLOSE, 8, params)
        assert np.array_equal(first.last_actions, second.last_actions)
        assert np.array_equal(first.states(0, len(first)), second.states(0, len(second)))
        assert np.array_equal(first.relatives, second.relatives)

    def test_stored_relatives_describe_transition_out_of_each_step(self):
        frame = random_walk_frame(np.random.default_rng(3), 2, 15)
        trainer = make_trainer(frame, window=4)
        assert np.array_equal(trainer.buffer.states(0, 1)[0], build_state(frame, 3, 4, LAST_CLOSE))
        expected = frame.closes[:, 4] / frame.closes[:, 3]
        assert np.array_equal(trainer.buffer.relatives[0, 1:], expected)

    @pytest.mark.blas_invariance
    @pytest.mark.parametrize("kind", KINDS)
    def test_passes_of_any_size_store_the_policy_forward_chain_at_paper_shape(self, kind):
        # 9 assets, window 50, c2 = 20, 230 rows: passes of 1, 7 and 200
        # rows put the pass boundaries in different places, and each fill
        # must store what the simulator's loop decides one day at a time.
        window = 50
        raw = random_walk_frame(np.random.default_rng(36), 9, 280)
        scheme, frame, _ = normalized_frames(kind, raw, raw)
        params = init_policy(9, window, seed=5, c1=2, c2=20)
        decisions = range(window - 1, frame.n_steps - 1)
        states = np.stack([build_state(frame, t, window, scheme) for t in decisions])
        actions = [np.eye(10)[0]]  # all cash
        for state in states[:-1]:
            actions.append(policy_forward(params, state, actions[-1]))
        relatives = np.stack([price_relatives(frame, t + 1) for t in decisions])
        for batch_size in (1, 7, 200):
            buffer = fill_buffer(frame, window, scheme, batch_size, params)
            assert len(buffer) == len(decisions)
            assert buffer.last_actions.tobytes() == np.stack(actions).tobytes(), batch_size
            assert buffer.relatives.tobytes() == relatives.tobytes(), batch_size
            assert buffer.states(0, len(buffer)).tobytes() == states.tobytes(), batch_size


class TestPriceTape:
    """A buffer row is a start column into the price tape, and its state is
    built on demand with the same bits as build_state."""

    @pytest.mark.parametrize("kind", KINDS)
    def test_rows_rebuild_build_state_across_the_train_test_boundary(self, kind):
        window = 5
        scheme, train, test = normalized_frames(kind, random_walk_frame(np.random.default_rng(33), 3, 30),
                                                random_walk_frame(np.random.default_rng(34), 3, 15))
        params = init_policy(3, window, seed=0, c1=2, c2=4)
        trainer = Trainer(params, train, window, scheme, 1e5, 0.0025, trainer_config(batch_size=8),
                          np.random.default_rng(0))
        buffer = trainer.fill_buffer()
        trainer.backtest(test, online_steps=0)
        expected = [build_state(frame, t, window, scheme)
                    for frame in (train, test) for t in range(window - 1, frame.n_steps - 1)]
        states = buffer.states(0, len(buffer))
        assert len(states) == len(expected) == len(buffer)
        for j, state in enumerate(states):
            assert state.tobytes() == expected[j].tobytes(), j

        boundary = train.n_steps - window
        batch = buffer.states(boundary - 3, boundary + 4)
        singles = np.stack([buffer.states(j, j + 1)[0] for j in range(boundary - 3, boundary + 4)])
        assert batch.tobytes() == singles.tobytes()
        assert batch.transpose(3, 1, 0, 2).flags.c_contiguous  # time-major: (window, 3, B, n)
        assert np.shares_memory(stacked_rows(batch), batch)  # the convolutions read the batch without a copy

    @pytest.mark.parametrize("kind", KINDS)
    def test_stored_relatives_are_the_price_relatives_of_their_own_frame(self, kind):
        window = 5
        scheme, train, test = normalized_frames(kind, random_walk_frame(np.random.default_rng(35), 3, 30),
                                                random_walk_frame(np.random.default_rng(36), 3, 15))
        trainer = Trainer(init_policy(3, window, seed=0, c1=2, c2=4), train, window, scheme, 1e5, 0.0025,
                          trainer_config(batch_size=8), np.random.default_rng(0))
        buffer = trainer.fill_buffer()
        trainer.backtest(test, online_steps=0)
        expected = [price_relatives(frame, t) for frame in (train, test) for t in range(window, frame.n_steps)]
        assert len(buffer) == len(expected)
        for j, relatives in enumerate(expected):
            assert buffer.relatives[j].tobytes() == relatives.tobytes(), j


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=10)
@example(day=20, factors=[4.0, 0.25, 2.0])
@example(day=45, factors=[4.0, 0.25, 2.0])
@given(day=st.integers(4, 58), factors=st.lists(st.floats(0.25, 4.0), min_size=3, max_size=3))
def test_buffer_rows_see_no_price_after_their_decision_day(kind, day, factors):
    """Prices from day ``day + 1`` on change no stored state decided on or
    before day ``day``, and no stored relative (or last action) of a row
    decided before it, across fill_buffer and the backtest's appends.

    Days index one 60-day market: training takes days 0..39, the test frame
    days 36..59 (the window - 1 days before its first decision, day 40)."""
    window, length, split = 5, 60, 40
    closes = random_walk_frame(np.random.default_rng(38), 3, length).closes
    if kind == DATA_MAX:  # its scales are fitted on every training day
        day = max(day, split - 1)
    moved = closes.copy()
    moved[:, day + 1 :] *= np.asarray(factors)[:, None]

    def buffer_of(closes):
        scheme, train, test = normalized_frames(kind, make_frame(closes[:, :split]),
                                                make_frame(closes[:, split - window + 1 :]))
        trainer = Trainer(init_policy(3, window, seed=0, c1=2, c2=4), train, window, scheme, 1e5, 0.0025,
                          trainer_config(batch_size=8), np.random.default_rng(0))
        trainer.fill_buffer()
        trainer.backtest(test, online_steps=0)
        return trainer.buffer

    base, perturbed = buffer_of(closes), buffer_of(moved)
    decided = np.concatenate([np.arange(window - 1, split - 1), np.arange(split, length - 1)])
    assert len(base) == len(perturbed) == len(decided)
    kept, before = decided <= day, decided < day
    assert base.states(0, len(base))[kept].tobytes() == perturbed.states(0, len(perturbed))[kept].tobytes()
    assert base.relatives[before].tobytes() == perturbed.relatives[before].tobytes()
    assert base.last_actions[before].tobytes() == perturbed.last_actions[before].tobytes()
    if day < length - 2 and set(factors) != {1.0}:  # the first row decided after the day reads a moved price
        assert base.states(0, len(base))[~kept][0].tobytes() != perturbed.states(0, len(perturbed))[~kept][0].tobytes()


class TestSampleBatch:
    def test_bias_one_always_returns_latest_window(self):
        frame = random_walk_frame(np.random.default_rng(4), 2, 30)
        trainer = make_trainer(frame, window=5)
        rng = np.random.default_rng(0)
        for _ in range(10):
            start, stop = sample_batch(trainer.buffer, 8, 1.0, rng)
            assert (start, stop) == (len(trainer.buffer) - 8, len(trainer.buffer))

    def test_full_length_batch_is_forced(self):
        frame = random_walk_frame(np.random.default_rng(5), 2, 20)
        trainer = make_trainer(frame, window=5)
        size = len(trainer.buffer)
        rng = np.random.default_rng(0)
        assert sample_batch(trainer.buffer, size, 0.002, rng) == (0, size)

    def test_all_redraws_out_of_range_clamp_to_the_earliest_start(self):
        frame = random_walk_frame(np.random.default_rng(5), 2, 20)
        trainer = make_trainer(frame, window=5)
        size, bias = len(trainer.buffer) - 1, 1e-6  # latest start 1: a draw must be 1 or 2 to land in range
        reference = np.random.default_rng(3)
        draws = [int(reference.geometric(bias)) for _ in range(training.MAX_REDRAWS)]
        assert min(draws) > 2  # every redraw of this seed is out of range
        rng = np.random.default_rng(3)
        assert sample_batch(trainer.buffer, size, bias, rng) == (0, size)
        assert rng.bit_generator.state == reference.bit_generator.state  # exactly MAX_REDRAWS draws

    def test_batch_larger_than_buffer_rejected(self):
        frame = random_walk_frame(np.random.default_rng(6), 2, 20)
        trainer = make_trainer(frame, window=5)
        message = f"batch {len(trainer.buffer) + 1} exceeds buffer length {len(trainer.buffer)}"
        with pytest.raises(ValueError, match=re.escape(message)):
            sample_batch(trainer.buffer, len(trainer.buffer) + 1, 0.002, np.random.default_rng(0))

    def test_recent_windows_dominate(self):
        frame = random_walk_frame(np.random.default_rng(7), 2, 60)
        trainer = make_trainer(frame, window=5)
        rng = np.random.default_rng(1)
        starts = [sample_batch(trainer.buffer, 8, 0.3, rng)[0] for _ in range(500)]
        latest = len(trainer.buffer) - 8
        assert np.mean(np.array(starts) == latest) > 0.2


class TestBatchObjective:
    def test_flat_market_objective_is_zero_at_zero_commission(self):
        flat = np.full((3, 20), 8.0)
        frame = make_frame(flat, spread=0.0)
        trainer = make_trainer(frame, window=4, commission=0.0)
        objective = objective_over(trainer, 0, len(trainer.buffer), 0.0)
        assert abs(float(objective.data)) < 1e-12

    def test_all_cash_policy_objective_is_zero_at_zero_commission(self):
        frame = random_walk_frame(np.random.default_rng(8), 3, 25)
        trainer = make_trainer(frame, window=4, commission=0.0)
        trainer.params.theta[...] = 0.0
        trainer.params.cash_bias[...] = 50.0
        trainer.fill_buffer()
        objective = objective_over(trainer, 0, len(trainer.buffer), 0.0)
        assert abs(float(objective.data)) < 1e-12

    def test_full_episode_objective_equals_log_fapv_over_steps(self):
        frame = random_walk_frame(np.random.default_rng(9), 3, 30)
        trainer = make_trainer(frame, window=4, commission=0.0)
        objective = objective_over(trainer, 0, len(trainer.buffer), 0.0)

        state, obs = env_reset(frame, 4, LAST_CLOSE, 100_000.0, 0.0)
        last_action = state.weights
        while not state.terminal:
            action = policy_forward(trainer.params, obs, last_action)
            state, obs, _ = env_step(state, action)
            last_action = action
        expected = math.log(state.drifted_value / 100_000.0) / len(trainer.buffer)
        assert abs(float(objective.data) - expected) < 1e-9

    @staticmethod
    def drifted_weights_matching_scalar_reference(trainer, monkeypatch, start, stop):
        """The weights batch_objective over rows [start, stop) drifts the
        stored last actions to, after checking each row's mu against the
        scalar transaction_factor from those weights as drift_weights gives
        them one row at a time."""
        from portrl.environment import drift_weights, transaction_factor

        buffer = trainer.buffer
        calls = []
        monkeypatch.setattr(training, "transaction_factor_batch",
                            lambda *args: calls.append((args[0], transaction_factor_batch(*args))) or calls[-1][1])
        objective_over(trainer, start, stop, 0.0025)
        drifted, mu = calls[-1]
        for i, j in enumerate(range(start, stop)):
            action = policy_forward(trainer.params, buffer.states(j, j + 1)[0], buffer.last_actions[j])
            if j == 0:
                before = buffer.last_actions[j]
            else:
                before = drift_weights(buffer.last_actions[j], buffer.relatives[j - 1])
            assert abs(mu[i] - transaction_factor(before, action, 0.0025)) < 1e-11
        return drifted

    def test_vectorized_cost_factors_match_scalar_reference(self, monkeypatch):
        frame = random_walk_frame(np.random.default_rng(27), 3, 60)
        trainer = make_trainer(frame, window=5, batch_size=12)
        for start in (0, 3, len(trainer.buffer) - 12):
            self.drifted_weights_matching_scalar_reference(trainer, monkeypatch, start, start + 12)

    @pytest.mark.parametrize("online_steps", [0, 2])
    def test_cost_factors_across_the_train_test_boundary_match_scalar_reference(self, monkeypatch, online_steps):
        train = random_walk_frame(np.random.default_rng(30), 3, 60)
        trainer = make_trainer(train, window=5, batch_size=12)
        trainer.backtest(random_walk_frame(np.random.default_rng(31), 3, 20), online_steps=online_steps)
        first_test_row = train.n_steps - 5
        start = first_test_row - 6
        drifted = self.drifted_weights_matching_scalar_reference(trainer, monkeypatch, start, start + 12)
        if not online_steps:
            # the backtest appends its first row with the all-cash start it
            # decided from, and all cash drifts to all cash; an online step
            # whose batch straddles the boundary rewrites that last action
            # like any other row's
            assert np.array_equal(drifted[first_test_row - start], [1.0, 0.0, 0.0, 0.0])

    def test_gradient_matches_finite_differences_single_step(self, monkeypatch):
        frame = random_walk_frame(np.random.default_rng(10), 3, 16)
        trainer = make_trainer(frame, window=4, commission=0.0)
        hold_mu(monkeypatch)
        objective = objective_over(trainer, 2, 3, 0.0)
        objective.backward()

        def evaluate():
            return float(objective_over(trainer, 2, 3, 0.0).data)

        assert max_fd_error(evaluate, trainer.params.theta, trainer.params.grad, eps=1e-5) < 1e-4

    def test_backward_sets_every_gradient_entry(self):
        trainer = make_trainer(random_walk_frame(np.random.default_rng(36), 3, 30), window=4)
        objective = objective_over(trainer, 2, 10, 0.0025)
        loss = -objective
        trainer.params.grad[...] = np.nan
        loss.backward()
        assert np.isfinite(trainer.params.grad).all()

    def test_backward_sets_gradients_rather_than_accumulating(self):
        trainer = make_trainer(random_walk_frame(np.random.default_rng(28), 3, 30), window=4)
        objective = objective_over(trainer, 2, 10, 0.0025)
        objective.backward()
        first = trainer.params.grad.copy()
        objective.backward()
        assert np.array_equal(trainer.params.grad, first)

    def test_negated_objective_gives_exactly_negated_gradients(self):
        trainer = make_trainer(random_walk_frame(np.random.default_rng(29), 3, 30), window=4)
        objective = objective_over(trainer, 2, 10, 0.0025)
        objective.backward()
        ascent = trainer.params.grad.copy()
        loss = -objective
        assert float(loss.data) == -float(objective.data)
        loss.backward()
        assert np.array_equal(trainer.params.grad, -ascent)


class TestTrainStep:
    def test_zero_learning_rate_keeps_params_but_rewrites(self, monkeypatch):
        frame = random_walk_frame(np.random.default_rng(11), 3, 40)
        trainer = make_trainer(frame, window=5, learning_rate=0.0, weight_decay=0.0,
                               sample_bias=1.0)
        before = trainer.params.theta.copy()
        # poison the slots the rewrite will target (sample_bias=1 pins the range)
        size = len(trainer.buffer)
        junk = np.full(frame.n_assets + 1, 1.0 / (frame.n_assets + 1))
        trainer.buffer.last_actions[size - 7 : size] = junk
        batches = record_batches(monkeypatch)
        trainer.train_step()
        assert np.array_equal(trainer.params.theta, before)
        start, stop = batches[-1]
        assert (start, stop) == (size - 8, size)
        for j in range(start + 1, size):
            expected = policy_forward(trainer.params, trainer.buffer.states(j - 1, j)[0],
                                      trainer.buffer.last_actions[j - 1])
            assert np.array_equal(trainer.buffer.last_actions[j], expected), j

    def test_rewritten_actions_equal_recomputed_policy_outputs(self, monkeypatch):
        frame = random_walk_frame(np.random.default_rng(12), 3, 40)
        trainer = make_trainer(frame, window=5)
        batches = record_batches(monkeypatch)
        for _ in range(3):
            trainer.train_step()
        start, stop = batches[-1]
        buffer = trainer.buffer
        for j in range(start + 1, min(stop + 1, len(buffer))):
            expected = policy_forward(trainer.params, buffer.states(j - 1, j)[0], buffer.last_actions[j - 1])
            assert np.array_equal(buffer.last_actions[j], expected), j

    @pytest.mark.blas_invariance
    @pytest.mark.parametrize("kind", KINDS)
    def test_rewrite_at_paper_shape_equals_policy_forward_bitwise(self, kind, monkeypatch):
        # 9 assets, window 50, c2 = 20, batch 200: the shapes at which a
        # batch-size-dependent summation order would show. Every step, in
        # training and online in the backtest (whose batches straddle the
        # train/test tape boundary), must also equal its reference built
        # from a fresh gather, which a stale shared gather or unfold breaks.
        scheme, train, test = normalized_frames(kind, random_walk_frame(np.random.default_rng(27), 9, 300),
                                                random_walk_frame(np.random.default_rng(35), 9, 60))
        params = init_policy(9, 50, seed=4, c1=2, c2=20)
        trainer = Trainer(params, train, 50, scheme, 100_000.0, 0.0025,
                          trainer_config(batch_size=200, sample_bias=0.02), np.random.default_rng(4))
        trainer.fill_buffer()
        batches = record_batches(monkeypatch)
        checked_steps = []
        original_step = Trainer.train_step

        def checked_step(self):
            expected_loss, expected_theta = reference_step(self)
            loss = original_step(self)
            assert loss == expected_loss, len(checked_steps)
            assert self.params.theta.tobytes() == expected_theta.tobytes(), len(checked_steps)
            checked_steps.append(batches[-1])
            return loss

        def assert_last_batch_rewritten():
            start, stop = batches[-1]
            buffer = trainer.buffer
            for j in range(start + 1, min(stop + 1, len(buffer))):
                expected = policy_forward(params, buffer.states(j - 1, j)[0], buffer.last_actions[j - 1])
                assert np.array_equal(buffer.last_actions[j], expected), j

        monkeypatch.setattr(Trainer, "train_step", checked_step)
        trainer.train(2)
        assert_last_batch_rewritten()
        boundary = len(trainer.buffer)
        trainer.config.sample_bias = 1.0  # each online batch ends at the newest row, past the boundary
        trainer.backtest(test, online_steps=1)
        assert_last_batch_rewritten()
        assert len(checked_steps) == 2 + len(trainer.buffer) - boundary
        assert all(start < boundary < stop for start, stop in checked_steps[2:])

    def test_training_is_bitwise_deterministic(self):
        frame = random_walk_frame(np.random.default_rng(13), 2, 30)
        runs = []
        for _ in range(2):
            trainer = make_trainer(frame, window=4, seed=5)
            trainer.train(5)
            runs.append(trainer.params.theta.copy())
        assert np.array_equal(runs[0], runs[1])

    def test_deep_copy_trains_like_the_original_and_leaves_it_alone(self):
        trainer = make_trainer(random_walk_frame(np.random.default_rng(37), 3, 40), window=5)
        trainer.train(2)
        optimizer = trainer.optimizer
        before = [a.copy() for a in (trainer.params.theta, optimizer.m, optimizer.v)]
        twin = copy.deepcopy(trainer)
        assert twin.optimizer.theta is twin.params.theta and twin.optimizer.grad is twin.params.grad
        twin_loss = twin.train_step()
        for name, original, kept in zip(("theta", "m", "v"), (trainer.params.theta, optimizer.m, optimizer.v), before):
            assert original.tobytes() == kept.tobytes(), name
        assert trainer.train_step() == twin_loss
        assert trainer.params.theta.tobytes() == twin.params.theta.tobytes()
        assert optimizer.m.tobytes() == twin.optimizer.m.tobytes()
        assert optimizer.v.tobytes() == twin.optimizer.v.tobytes()
        assert trainer.buffer.last_actions.tobytes() == twin.buffer.last_actions.tobytes()

    def test_losses_stay_finite_over_many_steps(self):
        frame = random_walk_frame(np.random.default_rng(26), 4, 120, vol=0.03)
        trainer = make_trainer(frame, window=6, learning_rate=5e-5, sample_bias=0.002,
                               batch_size=20)
        losses = [trainer.train_step() for _ in range(1000)]
        assert np.isfinite(losses).all()

    @pytest.mark.parametrize("kind", KINDS)
    def test_a_paper_shape_step_allocates_less_than_8_mib_at_its_peak(self, kind):
        # the batch's states (2 MiB), conv1's output and its gradient are the
        # step's largest arrays; a full-batch copy of conv1's windows (6 MiB)
        # or of the states would break the bound
        scheme, train, _ = normalized_frames(kind, random_walk_frame(np.random.default_rng(38), 9, 400),
                                             random_walk_frame(np.random.default_rng(39), 9, 60))
        trainer = Trainer(init_policy(9, 50, seed=6, c1=2, c2=20), train, 50, scheme, 100_000.0, 0.0025,
                          trainer_config(batch_size=200), np.random.default_rng(6))
        trainer.fill_buffer()
        trainer.train_step()  # warm-up
        tracemalloc.start()
        try:
            for _ in range(5):
                trainer.train_step()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20, f"{peak / 2**20:.2f} MiB"

    def test_a_paper_shape_step_takes_no_page_faults(self):
        # importing training raises glibc's mmap threshold above the step's
        # multi-MB temporaries, so each step reuses them from the heap; mapped
        # afresh, they fault on about 1,300 pages a step
        if training._mallopt is None:
            pytest.skip("the C library has no mallopt")
        import resource

        trainer = Trainer(init_policy(9, 50, seed=7, c1=2, c2=20), random_walk_frame(np.random.default_rng(40), 9, 400),
                          50, LAST_CLOSE, 100_000.0, 0.0025, trainer_config(batch_size=200), np.random.default_rng(7))
        trainer.fill_buffer()
        trainer.train(10)  # warm-up
        steps = 50
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        trainer.train(steps)
        faults = (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / steps
        assert faults < 50, f"{faults:.2f} minor page faults per step"

    def test_non_finite_loss_aborts_with_diagnostics(self):
        frame = random_walk_frame(np.random.default_rng(14), 2, 30)
        trainer = make_trainer(frame, window=4, sample_bias=1.0)
        trainer.buffer.relatives[-1, 1] = np.inf
        with pytest.raises(NonFiniteLoss):
            trainer.train_step()


class TestAdamW:
    def test_matches_reference_implementation(self):
        rng = np.random.default_rng(16)
        theta, grads = rng.normal(size=(4,)), np.empty(4)
        reference = theta.copy()
        optimizer = AdamW(theta, grads, 4, lr=0.01, weight_decay=0.1)
        m = np.zeros(4)
        v = np.zeros(4)
        for step in range(1, 6):
            grad = rng.normal(size=(4,))
            grads[...] = grad
            optimizer.step()
            m = 0.9 * m + 0.1 * grad
            v = 0.999 * v + 0.001 * grad * grad
            m_hat = m / (1 - 0.9**step)
            v_hat = v / (1 - 0.999**step)
            reference = reference - 0.01 * 0.1 * reference
            reference = reference - 0.01 * m_hat / (np.sqrt(v_hat) + 1e-8)
            assert np.allclose(theta, reference, rtol=0, atol=1e-15)

    def test_decay_skips_undecayed_group(self):
        theta = np.ones(4)
        optimizer = AdamW(theta, np.zeros(4), 2, lr=0.1, weight_decay=0.5)
        optimizer.step()
        assert np.allclose(theta[:2], 1.0 - 0.1 * 0.5)
        assert np.array_equal(theta[2:], np.ones(2))


class TestBacktest:
    def test_trajectory_covers_every_decidable_test_step(self):
        frame = random_walk_frame(np.random.default_rng(17), 2, 50)
        trainer = make_trainer(frame, window=5)
        test_frame = random_walk_frame(np.random.default_rng(18), 2, 30)
        traj = trainer.backtest(test_frame, online_steps=0)
        assert len(traj) == 30 - 5

    def test_rewards_telescope_to_final_value(self):
        frame = random_walk_frame(np.random.default_rng(19), 2, 40)
        trainer = make_trainer(frame, window=5)
        test_frame = random_walk_frame(np.random.default_rng(20), 2, 25)
        traj = trainer.backtest(test_frame, online_steps=2)
        assert abs(math.exp(traj.rewards.sum()) - traj.values[-1] / 100_000.0) < 1e-9

    def test_pure_evaluation_is_repeatable(self):
        frame = random_walk_frame(np.random.default_rng(21), 2, 40)
        test_frame = random_walk_frame(np.random.default_rng(22), 2, 25)
        trajectories = []
        for _ in range(2):
            trainer = make_trainer(frame, window=5, seed=3)
            trajectories.append(trainer.backtest(test_frame, online_steps=0))
        assert np.array_equal(trajectories[0].values, trajectories[1].values)
        assert np.array_equal(trajectories[0].actions, trajectories[1].actions)

    def test_online_learning_grows_buffer_and_updates_params(self):
        frame = random_walk_frame(np.random.default_rng(23), 2, 40)
        trainer = make_trainer(frame, window=5)
        before_len = len(trainer.buffer)
        before = trainer.params.conv1_kernels.copy()
        test_frame = random_walk_frame(np.random.default_rng(24), 2, 20)
        traj = trainer.backtest(test_frame, online_steps=1)
        assert len(trainer.buffer) == before_len + len(traj)
        assert not np.array_equal(trainer.params.conv1_kernels, before)


class TestEpisodeLoop:
    """fill_buffer and backtest share one rollout, and the buffer is sized exactly."""

    def test_backtest_without_updates_appends_what_fill_buffer_stores(self):
        frame = random_walk_frame(np.random.default_rng(28), 3, 30)
        trainer = make_trainer(frame, window=5)
        filled = len(trainer.buffer)
        trainer.backtest(frame, online_steps=0)
        assert len(trainer.buffer) == 2 * filled
        states = trainer.buffer.states
        assert states(filled, 2 * filled).tobytes() == states(0, filled).tobytes()
        for name in ("last_actions", "relatives"):
            stored = getattr(trainer.buffer, name)
            assert stored[filled:].tobytes() == stored[:filled].tobytes(), name

    @pytest.mark.parametrize("length", [6, 3])  # as long as the window of 6, and shorter
    def test_frame_without_a_decidable_step_is_too_short(self, length):
        frame = random_walk_frame(np.random.default_rng(29), 2, length)
        params = init_policy(2, 6, seed=0, c1=2, c2=4)
        message = re.escape(f"frame of length {length} allows no step with window 6")
        with pytest.raises(ValueError, match=message):
            fill_buffer(frame, 6, LAST_CLOSE, 8, params)
        trainer = make_trainer(random_walk_frame(np.random.default_rng(32), 2, 20), window=6)
        with pytest.raises(ValueError, match=message):
            trainer.backtest(frame, online_steps=0)

    def test_buffer_has_no_unused_rows(self):
        frame = random_walk_frame(np.random.default_rng(30), 2, 40)
        trainer = make_trainer(frame, window=5)
        assert trainer.buffer._starts.shape[0] == len(trainer.buffer) == 40 - 5
        test_frame = random_walk_frame(np.random.default_rng(31), 2, 20)
        trainer.backtest(test_frame, online_steps=1)
        assert len(trainer.buffer) == 40 - 5 + 20 - 5
        for stored in (trainer.buffer._starts, trainer.buffer._last_actions, trainer.buffer._relatives):
            assert stored.shape[0] == len(trainer.buffer)
