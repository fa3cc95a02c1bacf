import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import max_fd_error
from portrl import autodiff as ad
from portrl.autodiff import ShapeMismatch
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
    base = ad.conv1d_over_time(x, kernels, bias, ad.unfold(x, 4))
    perturbed = x.copy()
    perturbed[:, 2, :] += rng.normal(size=9)
    out = ad.conv1d_over_time(perturbed, kernels, bias, ad.unfold(perturbed, 4))
    others = [0, 1, 3, 4]
    assert np.array_equal(out[:, others, :], base[:, others, :])
    assert not np.array_equal(out[:, 2, :], base[:, 2, :])


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
    unfolded = ad.unfold(x, 3)
    grad_k = ad.conv1d_kernel_grad(weights, unfolded)

    def evaluate():
        return float((weights * ad.conv1d_over_time(x, kernels, bias, unfolded)).sum())

    assert max_fd_error(evaluate, kernels.reshape(-1), grad_k, eps=1e-5) < 1e-10


def test_conv_gradients_match_finite_differences_both_paths():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(2, 3, 8))
    bias = rng.normal(size=(4,))

    def check(kernels):
        unfolded = ad.unfold(x, kernels.shape[2])  # read by a narrow kernel only

        def evaluate():
            out = ad.conv1d_over_time(x, kernels, bias, unfolded)
            return float((out * out).mean())

        out = ad.conv1d_over_time(x, kernels, bias, unfolded)
        g = 2.0 * out / out.size
        read = x if out.shape[2] == 1 else unfolded  # what the forward's product read
        errors = [max_fd_error(evaluate, kernels.reshape(-1), ad.conv1d_kernel_grad(g, read), 1e-5)]
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
    with pytest.raises(ShapeMismatch):
        ad.conv1d_input_grad(np.zeros((4, 3, 6)), np.zeros((4, 2, 3)))


def test_shape_mismatch_reports_both_shapes():
    with pytest.raises(ShapeMismatch) as err:
        ad.conv1d_over_time(np.zeros((2, 3, 4)), np.zeros((1, 3, 2)), np.zeros(1))
    assert "(2, 3, 4)" in str(err.value) and "(1, 3, 2)" in str(err.value)
    with pytest.raises(ShapeMismatch):
        ad.conv1d_over_time(np.zeros((2, 3, 4)), np.zeros((1, 2, 5)), np.zeros(1))
    with pytest.raises(ShapeMismatch) as err:
        ad.conv1d_over_time(np.zeros((2, 3, 4)), np.zeros((1, 2, 2)), np.zeros(2))
    assert "(2,)" in str(err.value) and "(1, 2, 2)" in str(err.value)
    x, narrow = np.zeros((2, 3, 4)), np.zeros((1, 2, 2))
    with pytest.raises(ShapeMismatch):  # a narrow kernel reads the unfold of its input
        ad.conv1d_over_time(x, narrow, np.zeros(1))
    with pytest.raises(ShapeMismatch) as err:
        ad.conv1d_over_time(x, narrow, np.zeros(1), ad.unfold(x, 3))
    assert "(2, 3, 3, 2)" in str(err.value) and "(1, 2, 2)" in str(err.value)


def test_forward_and_backward_are_deterministic():
    rng = np.random.default_rng(8)
    x_data = rng.normal(size=(3, 6, 10))
    k_data = rng.normal(size=(2, 3, 4))
    full_data = rng.normal(size=(2, 3, 10))
    bias = rng.normal(size=(2,))

    def run():
        unfolded = ad.unfold(x_data.copy(), 4)
        out = ad.conv1d_over_time(x_data.copy(), k_data.copy(), bias, unfolded)
        full = ad.conv1d_over_time(x_data.copy(), full_data.copy(), bias)
        return (out, ad.conv1d_kernel_grad(np.maximum(out, 0.0), unfolded),
                full, ad.conv1d_input_grad(np.maximum(full, 0.0), full_data.copy()))

    for first, second in zip(run(), run()):
        assert np.array_equal(first, second)
