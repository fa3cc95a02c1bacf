import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import max_fd_error, narrow_conv_reference
from portrl import autodiff as ad
from portrl.policy import backward_batch, forward_batch, init_policy


def test_softmax_of_equal_logits_is_uniform():
    out = ad.softmax(np.zeros((1, 5)))
    assert np.array_equal(out, np.full((1, 5), 0.2))


@given(st.lists(st.floats(min_value=-50, max_value=50), min_size=2, max_size=12))
@settings(max_examples=60)
def test_softmax_rows_sum_to_one_and_are_positive(logits):
    out = ad.softmax(np.array([logits]))
    assert abs(out.sum() - 1.0) < 1e-12
    assert (out > 0.0).all()


def test_conv_full_width_kernel_reduces_time_to_one():
    x = np.random.default_rng(0).normal(size=(3, 4, 7))
    kernels = np.random.default_rng(1).normal(size=(1, 3, 7))
    assert ad.conv1d_over_time(x, kernels, np.zeros(1)).shape == (1, 4, 1)


def test_conv_never_mixes_rows():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(2, 5, 9))
    kernels = rng.normal(size=(3, 2, 4))
    bias = np.zeros(3)
    base = ad.conv1d_over_time(x, kernels, bias)
    perturbed = x.copy()
    perturbed[:, 2, :] += rng.normal(size=9)
    out = ad.conv1d_over_time(perturbed, kernels, bias)
    others = [0, 1, 3, 4]
    assert np.array_equal(out[:, others, :], base[:, others, :])
    assert not np.array_equal(out[:, 2, :], base[:, 2, :])


def time_major_copy(x):
    """The values of a (C, rows, t) array, laid out time-major: (t, C, rows) in C order."""
    return np.ascontiguousarray(x.transpose(2, 0, 1)).transpose(1, 2, 0)


@pytest.mark.parametrize("c_in, rows, t, k", [(3, 18, 50, 3), (2, 5, 9, 4), (3, 1, 8, 3)])
def test_narrow_kernel_and_its_gradient_match_the_unfold_oracle(c_in, rows, t, k):
    # the oracle sums each output's terms in (c, k) order and the kernel in
    # (k, c) order, so they agree up to rounding, not bit for bit
    rng = np.random.default_rng(rows * t)
    x = np.abs(rng.normal(1.0, 0.2, (c_in, rows, t))) + 0.1
    kernels = rng.uniform(-0.5, 0.5, (2, c_in, k))
    bias = rng.normal(size=2)
    g = rng.normal(size=(2, rows, t - k + 1))
    out = ad.conv1d_over_time(x, kernels, bias)
    assert out.shape == (2, rows, t - k + 1)
    np.testing.assert_allclose(out, narrow_conv_reference(x, kernels, bias), rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(ad.conv1d_kernel_grad(g, x), narrow_conv_reference(x, kernels, bias, g),
                               rtol=1e-12, atol=1e-12)


def test_a_channel_major_input_and_a_time_major_view_give_the_same_bits():
    # a narrow kernel and its gradient copy a channel-major input to
    # time-major and read a time-major one in place: the same products
    rng = np.random.default_rng(9)
    x, g = rng.normal(size=(3, 12, 10)), rng.normal(size=(2, 12, 8))
    kernels, bias = rng.normal(size=(2, 3, 3)), rng.normal(size=2)
    for array in (x, g):
        assert not np.shares_memory(time_major_copy(array), array)
    in_place = time_major_copy(x)
    assert np.shares_memory(ad.time_major(in_place), in_place)
    copied = ad.conv1d_over_time(x, kernels, bias)
    assert copied.tobytes() == ad.conv1d_over_time(time_major_copy(x), kernels, bias).tobytes()
    copied = ad.conv1d_kernel_grad(g, x)
    assert copied.tobytes() == ad.conv1d_kernel_grad(time_major_copy(g), time_major_copy(x)).tobytes()


@pytest.mark.blas_invariance
@pytest.mark.parametrize("layout", [np.array, time_major_copy])
def test_a_lone_row_has_the_bits_of_its_row_in_batches_of_2_7_and_200(layout):
    # a one-column product would take BLAS's matrix-vector kernel
    rng = np.random.default_rng(31)
    x = layout(np.abs(rng.normal(1.0, 0.2, (3, 200, 8))))
    kernels, bias = rng.uniform(-0.5, 0.5, (2, 3, 3)), rng.normal(size=2)
    alone = [ad.conv1d_over_time(x[:, r : r + 1], kernels, bias) for r in range(200)]
    for rows in (2, 7, 200):
        batched = ad.conv1d_over_time(x[:, :rows], kernels, bias)
        for r in range(rows):
            assert batched[:, r : r + 1].tobytes() == alone[r].tobytes(), (rows, r)


def test_relu_backward_is_zero_at_and_below_zero():
    params = init_policy(3, 6, seed=0)
    params.conv1_kernels[...] = 0.0
    params.conv1_bias[...] = [0.0, -1.0]  # conv1 pre-activations: all 0 in one channel, all -1 in the other
    params.conv2_bias[...] = 0.5
    rng = np.random.default_rng(1)
    states = np.abs(rng.normal(1.0, 0.2, (4, 3, 3, 6))) + 0.1
    actions, activations = forward_batch(params, states, rng.dirichlet(np.ones(4), size=4))
    backward_batch(params, activations, 1.0 / actions)
    grad = params.views(params.grad)
    assert np.array_equal(grad["conv1_kernels"], np.zeros((2, 3, 3)))
    assert np.array_equal(grad["conv1_bias"], np.zeros(2))
    assert np.abs(grad["conv2_bias"]).max() > 0.0


def test_grad_check_linear_function_is_near_exact():
    # sum(weights * conv(x, kernels)) is linear in the kernels
    rng = np.random.default_rng(3)
    x = np.abs(rng.normal(size=(2, 3, 6))) + 0.5
    kernels = rng.normal(size=(2, 2, 3))
    bias = rng.normal(size=(2,))
    weights = np.full((2, 3, 4), 3.0)
    grad_k = ad.conv1d_kernel_grad(weights, x)

    def evaluate():
        return float((weights * ad.conv1d_over_time(x, kernels, bias)).sum())

    assert max_fd_error(evaluate, kernels.reshape(-1), grad_k, eps=1e-5) < 1e-10


def test_conv_gradients_match_finite_differences_both_paths():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(2, 3, 8))
    bias = rng.normal(size=(4,))

    def check(kernels):
        def evaluate():
            out = ad.conv1d_over_time(x, kernels, bias)
            return float((out * out).mean())

        out = ad.conv1d_over_time(x, kernels, bias)
        g = 2.0 * out / out.size
        errors = [max_fd_error(evaluate, kernels.reshape(-1), ad.conv1d_kernel_grad(g, x), 1e-5)]
        if out.shape[2] == 1:  # the graph takes input gradients of full-width kernels only
            errors.append(max_fd_error(evaluate, x.reshape(-1), ad.conv1d_input_grad(g, kernels), 1e-5))
        return errors

    narrow = rng.normal(size=(4, 2, 3))  # t_out > 1
    full = rng.normal(size=(4, 2, 8))    # t_out == 1
    assert max(check(narrow)) < 1e-6
    assert max(check(full)) < 1e-6


@pytest.mark.parametrize("c_in, t, group, rows_major", [
    (2, 6, 3, False),  # conv2: multi-tap, one product per channel of its channel-major input
    (3, 5, 2, False),
    (4, 1, 3, True),   # the head: 1-tap, one product over its rows-major input
    (4, 1, 3, False),
])
def test_full_width_kernels_match_einsum_and_finite_differences(c_in, t, group, rows_major):
    rng = np.random.default_rng(c_in * 10 + t)
    rows, c_out = 3 * group, 5
    x = rng.normal(size=(c_in, rows, t))
    if rows_major:  # laid out as conv2 writes its output
        x = np.ascontiguousarray(x.transpose(1, 0, 2)).transpose(1, 0, 2)
    kernels = rng.normal(size=(c_out, c_in, t))
    bias = rng.normal(size=(c_out,))

    def loss(inputs):
        out = ad.conv1d_over_time(inputs, kernels, bias, group=group)
        return float((out * out).mean())

    out = ad.conv1d_over_time(x, kernels, bias, group=group)
    reference = np.einsum("crt,oct->or", x, kernels)[:, :, None] + bias[:, None, None]
    assert out.shape == (c_out, rows, 1)
    assert np.allclose(out, reference, rtol=1e-13, atol=1e-13)
    g = 2.0 * out / out.size
    grad_k = ad.conv1d_kernel_grad(g, x)
    assert max_fd_error(lambda: loss(x), kernels.reshape(-1), grad_k, 1e-5) < 1e-6
    grad_x = ad.conv1d_input_grad(g, kernels)
    assert grad_x.shape == x.shape
    flat = x.copy()  # a contiguous copy, which the finite differences perturb through its flat view
    assert max_fd_error(lambda: loss(flat), flat.reshape(-1), grad_x, 1e-5) < 1e-6


def test_input_grad_rejects_narrow_kernels():
    message = "conv1d_input_grad: output gradient (4, 3, 6) spans more than one step"
    with pytest.raises(ValueError, match=re.escape(message)):
        ad.conv1d_input_grad(np.zeros((4, 3, 6)), np.zeros((4, 2, 3)))


def test_shape_mismatch_reports_both_shapes():
    with pytest.raises(ValueError, match=re.escape("conv1d_over_time: input (2, 3, 4) vs kernels (1, 3, 2)")):
        ad.conv1d_over_time(np.zeros((2, 3, 4)), np.zeros((1, 3, 2)), np.zeros(1))
    with pytest.raises(ValueError, match=re.escape("conv1d_over_time: kernel width 5 exceeds time axis 4")):
        ad.conv1d_over_time(np.zeros((2, 3, 4)), np.zeros((1, 2, 5)), np.zeros(1))
    with pytest.raises(ValueError, match=re.escape("conv1d_over_time: bias (2,) vs kernels (1, 2, 2)")):
        ad.conv1d_over_time(np.zeros((2, 3, 4)), np.zeros((1, 2, 2)), np.zeros(2))
    # a narrow kernel checks the same shapes
    with pytest.raises(ValueError, match=re.escape("conv1d_over_time: input (3, 3, 4) vs kernels (1, 2, 2)")):
        ad.conv1d_over_time(np.zeros((3, 3, 4)), np.zeros((1, 2, 2)), np.zeros(1))


def test_forward_and_backward_are_deterministic():
    rng = np.random.default_rng(8)
    x_data = rng.normal(size=(3, 6, 10))
    k_data = rng.normal(size=(2, 3, 4))
    full_data = rng.normal(size=(2, 3, 10))
    bias = rng.normal(size=(2,))

    def run():
        out = ad.conv1d_over_time(x_data.copy(), k_data.copy(), bias)
        full = ad.conv1d_over_time(x_data.copy(), full_data.copy(), bias)
        return (out, ad.conv1d_kernel_grad(np.maximum(out, 0.0), x_data.copy()),
                full, ad.conv1d_input_grad(np.maximum(full, 0.0), full_data.copy()))

    for first, second in zip(run(), run()):
        assert np.array_equal(first, second)
