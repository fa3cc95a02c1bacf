import copy
import pickle

import numpy as np
import pytest

from portrl.autodiff import ShapeMismatch
from portrl.policy import (
    WindowTooSmall,
    backward_batch,
    conv1_unfold,
    features,
    forward_batch,
    head,
    head_chain,
    init_policy,
    policy_forward,
    stacked_rows,
)


def random_inputs(rng, n, window, batch=1):
    states = np.abs(rng.normal(1.0, 0.2, (batch, 3, n, window))) + 0.1
    lasts = rng.dirichlet(np.ones(n + 1), size=batch)
    return states, lasts


class TestInit:
    def test_same_seed_is_bitwise_identical(self):
        a = init_policy(9, 50, seed=11)
        b = init_policy(9, 50, seed=11)
        assert np.array_equal(a.theta, b.theta)

    def test_different_seeds_differ(self):
        a = init_policy(9, 50, seed=11)
        b = init_policy(9, 50, seed=12)
        assert not np.array_equal(a.conv1_kernels, b.conv1_kernels)

    def test_second_layer_spans_remaining_time(self):
        params = init_policy(9, 50, seed=0)
        assert params.conv2_kernels.shape == (20, 2, 48)
        actions, _ = forward_batch(params, *random_inputs(np.random.default_rng(0), 9, 50))
        assert actions.shape == (1, 10)

    def test_biases_start_at_zero(self):
        params = init_policy(4, 10, seed=5)
        assert np.array_equal(params.conv1_bias, np.zeros(2))
        assert float(params.cash_bias) == 0.0

    def test_blocks_are_views_of_one_array_kernels_first(self):
        params = init_policy(9, 50, seed=13)
        assert params.theta.size == params.grad.size == 1983  # 18 + 1920 + 21 kernel values, 24 biases
        assert params.n_kernel == 18 + 1920 + 21
        order = ["conv1_kernels", "conv2_kernels", "out_kernels", "conv1_bias", "conv2_bias", "out_bias", "cash_bias"]
        assert list(params.views(params.theta)) == order
        flat = np.concatenate([getattr(params, name).reshape(-1) for name in order])
        assert flat.tobytes() == params.theta.tobytes()
        assert not params.theta[params.n_kernel :].any()  # biases start at zero
        for name in order:
            assert np.shares_memory(getattr(params, name), params.theta), name

    @pytest.mark.parametrize("clone", [copy.deepcopy, lambda p: pickle.loads(pickle.dumps(p))])
    def test_copy_rebuilds_its_views_over_its_own_theta(self, clone):
        params = init_policy(4, 10, seed=14)
        twin = clone(params)
        assert twin.theta.tobytes() == params.theta.tobytes()
        assert not np.shares_memory(twin.theta, params.theta)
        twin.cash_bias[...] = 3.0
        twin.conv2_kernels[0, 0, 0] = 7.0
        assert twin.theta[-1] == 3.0 and twin.theta[twin.conv1_kernels.size] == 7.0
        assert float(params.cash_bias) == 0.0

    def test_window_too_small(self):
        with pytest.raises(WindowTooSmall):
            init_policy(3, 3, seed=0)


class TestForward:
    def test_zero_parameters_give_uniform_action(self):
        params = init_policy(4, 10, seed=1)
        params.theta[...] = 0.0
        states, lasts = random_inputs(np.random.default_rng(1), 4, 10)
        action = policy_forward(params, states[0], lasts[0])
        assert np.array_equal(action, np.full(5, 0.2))

    def test_large_cash_bias_saturates_to_cash(self):
        params = init_policy(3, 8, seed=2)
        params.theta[...] = 0.0
        params.cash_bias[...] = 50.0
        states, lasts = random_inputs(np.random.default_rng(2), 3, 8)
        action = policy_forward(params, states[0], lasts[0])
        assert action[0] > 0.999999999

    def test_asset_permutation_equivariance(self):
        params = init_policy(5, 12, seed=3)
        rng = np.random.default_rng(3)
        states, lasts = random_inputs(rng, 5, 12, batch=4)
        base, _ = forward_batch(params, states, lasts)
        perm = [3, 0, 4, 2, 1]
        lasts_p = lasts.copy()
        lasts_p[:, 1:] = lasts[:, 1:][:, perm]
        permuted, _ = forward_batch(params, states[:, :, perm, :], lasts_p)
        assert np.allclose(permuted[:, 1:], base[:, 1:][:, perm], rtol=0, atol=1e-15)
        assert np.allclose(permuted[:, 0], base[:, 0], rtol=0, atol=1e-15)

    def test_output_is_on_simplex_for_random_inputs(self):
        params = init_policy(6, 9, seed=4)
        rng = np.random.default_rng(4)
        states, lasts = random_inputs(rng, 6, 9, batch=64)
        out, _ = forward_batch(params, states, lasts)
        assert np.abs(out.sum(axis=1) - 1.0).max() < 1e-9
        assert (out > 0.0).all() and (out < 1.0).all()

    def test_forward_is_pure(self):
        params = init_policy(3, 8, seed=5)
        states, lasts = random_inputs(np.random.default_rng(5), 3, 8)
        first = policy_forward(params, states[0], lasts[0])
        second = policy_forward(params, states[0], lasts[0])
        assert np.array_equal(first, second)

    def test_batched_forward_matches_single_forwards(self):
        params = init_policy(4, 10, seed=6)
        states, lasts = random_inputs(np.random.default_rng(6), 4, 10, batch=8)
        batch, _ = forward_batch(params, states, lasts)
        singles = np.stack([policy_forward(params, states[i], lasts[i]) for i in range(8)])
        assert np.allclose(batch, singles, rtol=1e-12, atol=1e-15)

    def test_shape_mismatch_rejected(self):
        params = init_policy(4, 10, seed=7)
        states, lasts = random_inputs(np.random.default_rng(7), 4, 10)
        with pytest.raises(ShapeMismatch):
            forward_batch(params, states[:, :, :3, :], lasts)
        with pytest.raises(ShapeMismatch):
            forward_batch(params, states, lasts[:, :4])

    def test_gradient_reaches_every_parameter_block(self):
        params = init_policy(4, 10, seed=8)
        states, lasts = random_inputs(np.random.default_rng(8), 4, 10, batch=6)
        actions, activations = forward_batch(params, states, lasts)
        params.grad[...] = np.nan
        backward_batch(params, activations, 1.0 / actions.size / actions)  # d mean(log(actions))
        for name, grad in params.views(params.grad).items():
            assert np.isfinite(grad).all(), name
            assert np.abs(grad).max() > 0.0, name

    def test_backward_leaves_its_activations_alone(self):
        # the ReLU masks apply in place to fresh input gradients; the buffer rewrite reads the unfold again
        rng = np.random.default_rng(15)
        params = init_policy(9, 50, seed=15)
        states, lasts = random_inputs(rng, 9, 50, batch=7)
        actions, activations = forward_batch(params, states, lasts)
        _, h1, h2, _, _ = activations
        assert (h1 == 0.0).any() and (h1 > 0.0).any() and (h2 == 0.0).any() and (h2 > 0.0).any()
        before = [array.copy() for array in activations]
        grad_actions = rng.normal(size=actions.shape)
        backward_batch(params, activations, grad_actions)
        first = params.grad.copy()
        names = ("unfold", "h1", "h2", "last actions", "actions")
        for name, array, kept in zip(names, activations, before):
            assert array.tobytes() == kept.tobytes(), name
        backward_batch(params, activations, grad_actions)
        assert params.grad.tobytes() == first.tobytes()

    def test_batch_gradient_is_the_sum_of_per_sample_gradients(self):
        # the batch folds into the convolutions' row axis; backward must not mix samples
        params = init_policy(4, 10, seed=9)
        states, lasts = random_inputs(np.random.default_rng(9), 4, 10, batch=5)
        grad_actions = np.random.default_rng(10).normal(size=(5, 5))
        actions, activations = forward_batch(params, states, lasts)
        backward_batch(params, activations, grad_actions)
        batched = params.grad.copy()
        summed = np.zeros_like(batched)
        for i in range(5):
            _, activations = forward_batch(params, states[i : i + 1], lasts[i : i + 1])
            backward_batch(params, activations, grad_actions[i : i + 1])
            summed += params.grad
        assert np.allclose(batched, summed, rtol=1e-12, atol=1e-15)


class TestBatchInvariance:
    """At paper shape (9 assets, window 50, c2 = 20) a sample's features must
    not depend on the batch around it: the buffer rewrite takes one batched
    pass where the backtest and the tests make one call per sample."""

    @pytest.mark.blas_invariance
    def test_features_have_the_same_bits_at_batch_sizes_1_7_and_200(self):
        params = init_policy(9, 50, seed=21)
        states, _ = random_inputs(np.random.default_rng(21), 9, 50, batch=230)

        def scores(batch):
            x = stacked_rows(batch)
            return features(params, x, conv1_unfold(params, x))[0]

        singles = np.concatenate([scores(states[i : i + 1]) for i in range(len(states))])
        for offset in (0, 3, 17, 30):
            batched = scores(states[offset : offset + 200])
            assert np.array_equal(batched, singles[offset : offset + 200]), offset
        for offset in range(0, 223, 11):
            batched = scores(states[offset : offset + 7])
            assert np.array_equal(batched, singles[offset : offset + 7]), offset

    # conv2 and the head run one product per sample of n rows: n = 1 makes
    # one-row products, 9 one BLAS tile plus a remainder, 17 two plus one
    @pytest.mark.blas_invariance
    @pytest.mark.parametrize("n_assets", [1, 9, 17])
    def test_a_sample_has_the_same_bits_alone_and_in_batches_of_7_and_200(self, n_assets):
        params = init_policy(n_assets, 50, seed=22)
        states, _ = random_inputs(np.random.default_rng(22), n_assets, 50, batch=207)

        def scores(batch):
            x = stacked_rows(batch)
            return features(params, x, conv1_unfold(params, x))[0]

        singles = np.concatenate([scores(states[i : i + 1]) for i in range(len(states))])
        for offset in range(8):
            batched = scores(states[offset : offset + 200])
            assert np.array_equal(batched, singles[offset : offset + 200]), offset
        for offset in range(201):
            batched = scores(states[offset : offset + 7])
            assert np.array_equal(batched, singles[offset : offset + 7]), offset


class TestHeadChain:
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")  # inf - inf
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("column", [0, 2])
    def test_a_non_finite_score_turns_its_row_and_every_later_one_nan(self, bad, column):
        params = init_policy(3, 8, seed=23)
        params.out_kernels[0, -1, 0] = 0.5  # the last action enters every later row
        scores = np.random.default_rng(23).normal(size=(6, 3))
        scores[2, column] = bad
        actions = np.empty((7, 4))
        actions[0] = 0.25
        head_chain(params, scores, actions)
        assert np.isfinite(actions[:3]).all()
        assert np.isnan(actions[3:]).all()

    def chain(self, n_assets, scores):
        """``head_chain`` over ``scores`` from a random first action, with the
        last action and cash bias both entering the logits."""
        params = init_policy(n_assets, 8, seed=24)
        params.out_kernels[0, -1, 0] = 0.5
        params.cash_bias[...] = 0.3
        actions = np.empty((len(scores) + 1, n_assets + 1))
        actions[0] = np.random.default_rng(24).dirichlet(np.ones(n_assets + 1))
        head_chain(params, scores, actions)
        return params, actions

    # 1, 9 and 17 assets put 2, 10 and 18 logits in a row: below the 8 at
    # which numpy's pairwise sum starts unrolling, and above once and twice that
    @pytest.mark.parametrize("n_assets", [1, 9, 17])
    @pytest.mark.parametrize("scale", [1.0, 30.0, 1e300])
    def test_head_and_head_chain_agree_bit_for_bit_per_row(self, n_assets, scale):
        scores = np.random.default_rng(n_assets).normal(size=(40, n_assets)) * scale
        params, actions = self.chain(n_assets, scores)
        assert np.isfinite(actions).all()
        batched = head(params, scores, actions[:-1])
        for row, (alone, chained) in enumerate(zip(batched, actions[1:])):
            assert alone.tobytes() == chained.tobytes(), row

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")  # inf - inf
    @pytest.mark.parametrize("n_assets", [1, 9, 17])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_a_non_finite_score_makes_its_row_all_nan_in_head_and_head_chain(self, n_assets, bad):
        scores = np.random.default_rng(n_assets).normal(size=(6, n_assets))
        scores[2, n_assets // 2] = bad
        params, actions = self.chain(n_assets, scores)
        batched = head(params, scores, actions[:-1])
        assert np.isnan(actions[3]).all() and np.isnan(batched[2]).all()
        assert batched[:2].tobytes() == actions[1:3].tobytes()
