import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import max_fd_error
from portrl import autodiff as ad
from portrl.autodiff import NonScalarLoss, ShapeMismatch, Tensor


def grad_check(f, x: Tensor, eps: float = 1e-5) -> float:
    """Max relative error between backward grads of scalar f(x) and central differences."""
    x.requires_grad = True
    x.zero_grad()
    f(x).backward()
    return max_fd_error(lambda: float(f(x).data), x.data.reshape(-1), x.grad, eps)


def test_sum_gradient_is_one_everywhere():
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    ad.tensor_sum(x).backward()
    assert np.array_equal(x.grad, np.ones((2, 3)))


def test_product_rule_scalars():
    x = Tensor(np.array(3.0), requires_grad=True)
    y = Tensor(np.array(-2.0), requires_grad=True)
    ad.mul(x, y).backward()
    assert x.grad == -2.0
    assert y.grad == 3.0


def test_relu_backward_is_zero_at_and_below_zero():
    x = Tensor(np.array([-1.0, 0.0, 2.0]), requires_grad=True)
    ad.tensor_sum(ad.relu(x)).backward()
    assert np.array_equal(x.grad, np.array([0.0, 0.0, 1.0]))


def test_softmax_of_equal_logits_is_uniform():
    x = Tensor(np.zeros((1, 5)))
    out = ad.softmax(x, axis=1)
    assert np.array_equal(out.data, np.full((1, 5), 0.2))


@given(st.lists(st.floats(min_value=-50, max_value=50), min_size=2, max_size=12))
@settings(max_examples=60)
def test_softmax_rows_sum_to_one_and_are_positive(logits):
    out = ad.softmax(Tensor(np.array([logits])), axis=1)
    assert abs(out.data.sum() - 1.0) < 1e-12
    assert (out.data > 0.0).all()


def test_conv_full_width_kernel_reduces_time_to_one():
    x = Tensor(np.random.default_rng(0).normal(size=(3, 4, 7)))
    kernels = Tensor(np.random.default_rng(1).normal(size=(1, 3, 7)))
    assert ad.conv1d_over_time(x, kernels).data.shape == (1, 4, 1)


def test_conv_never_mixes_rows():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(2, 5, 9))
    kernels = Tensor(rng.normal(size=(3, 2, 4)))
    base = ad.conv1d_over_time(Tensor(x), kernels).data
    perturbed = x.copy()
    perturbed[:, 2, :] += rng.normal(size=9)
    out = ad.conv1d_over_time(Tensor(perturbed), kernels).data
    others = [0, 1, 3, 4]
    assert np.array_equal(out[:, others, :], base[:, others, :])
    assert not np.array_equal(out[:, 2, :], base[:, 2, :])


def test_gradient_accumulates_across_fanout():
    x = Tensor(np.array([1.0, 4.0]), requires_grad=True)
    ad.tensor_sum(ad.mul(x, x)).backward()
    assert np.array_equal(x.grad, 2.0 * x.data)


def test_grad_check_linear_function_is_near_exact():
    x = Tensor(np.random.default_rng(3).normal(size=(4,)), requires_grad=True)
    error = grad_check(lambda t: ad.tensor_sum(ad.smul(t, 3.0)), x)
    assert error < 1e-10


def test_grad_check_relu_away_from_kink():
    rng = np.random.default_rng(4)
    values = rng.normal(size=(6,))
    values[np.abs(values) < 0.1] += 0.2  # keep the kink > eps away
    x = Tensor(values, requires_grad=True)
    assert grad_check(lambda t: ad.tensor_sum(ad.relu(t)), x) < 1e-6


def test_grad_check_composite_graph():
    rng = np.random.default_rng(5)
    w = Tensor(rng.normal(size=(4, 3, 2)), requires_grad=True)
    x = np.abs(rng.normal(size=(3, 2, 5))) + 0.5

    def f(t):
        s = ad.softmax(ad.conv1d_over_time(Tensor(x), t), axis=0)
        return ad.mean(ad.log(s))

    assert grad_check(f, w) < 1e-6


def test_conv_gradients_match_finite_differences_both_paths():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(2, 3, 8))
    narrow = Tensor(rng.normal(size=(4, 2, 3)), requires_grad=True)
    full = Tensor(rng.normal(size=(4, 2, 8)), requires_grad=True)
    bias = Tensor(rng.normal(size=(4,)), requires_grad=True)

    def via(kernels):
        return lambda t: ad.mean(ad.mul(ad.conv1d_over_time(Tensor(x), t, bias),
                                        ad.conv1d_over_time(Tensor(x), t, bias)))

    assert grad_check(via(narrow), narrow) < 1e-6
    assert grad_check(via(full), full) < 1e-6
    x_t = Tensor(x, requires_grad=True)
    assert grad_check(lambda t: ad.mean(ad.mul(ad.conv1d_over_time(t, narrow, bias),
                                               ad.conv1d_over_time(t, narrow, bias))), x_t) < 1e-6


def test_concat_reshape_backward():
    rng = np.random.default_rng(7)
    a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    weights = Tensor(rng.normal(size=(12,)))

    def f(t):
        joined = ad.concat([t, ad.smul(t, 2.0)], axis=1)
        return ad.tensor_sum(ad.mul(ad.reshape(joined, (12,)), weights))

    assert grad_check(f, a) < 1e-9


def test_expand_scalar_backward_sums():
    s = Tensor(np.array(1.5), requires_grad=True)
    ad.tensor_sum(ad.expand_scalar(s, (3, 2))).backward()
    assert s.grad == 6.0


def test_shape_mismatch_reports_both_shapes():
    with pytest.raises(ShapeMismatch) as err:
        ad.mul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))))
    assert "(2, 3)" in str(err.value) and "(3, 2)" in str(err.value)
    with pytest.raises(ShapeMismatch) as err:
        ad.conv1d_over_time(Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((1, 3, 2))))
    assert "(2, 3, 4)" in str(err.value) and "(1, 3, 2)" in str(err.value)
    with pytest.raises(ShapeMismatch):
        ad.conv1d_over_time(Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((1, 2, 5))))
    with pytest.raises(ShapeMismatch):
        ad.conv1d_over_time(Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((1, 2, 2))), Tensor(np.zeros(2)))


def test_backward_rejects_nonscalar_loss():
    x = Tensor(np.zeros((2, 2)), requires_grad=True)
    with pytest.raises(NonScalarLoss):
        ad.smul(x, 2.0).backward()


def test_forward_and_backward_are_deterministic():
    rng = np.random.default_rng(8)
    x_data = rng.normal(size=(3, 6, 10))
    k_data = rng.normal(size=(2, 3, 4))

    def run():
        k = Tensor(k_data.copy(), requires_grad=True)
        out = ad.mean(ad.relu(ad.conv1d_over_time(Tensor(x_data.copy()), k)))
        out.backward()
        return out.data.copy(), k.grad.copy()

    first_out, first_grad = run()
    second_out, second_grad = run()
    assert np.array_equal(first_out, second_out)
    assert np.array_equal(first_grad, second_grad)


def test_no_graph_recorded_without_grad_inputs():
    x = Tensor(np.ones((2, 3, 4)))
    kernels = Tensor(np.ones((1, 2, 2)))
    for out in (ad.smul(x, 2.0), ad.relu(ad.conv1d_over_time(x, kernels))):
        assert not out.requires_grad
        assert out._backward is None and out._parents == ()
