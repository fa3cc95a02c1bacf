"""Forward kernels of the policy's one graph and the loss type whose
``backward`` runs its hand-written backward pass, on float64 numpy buffers.

``policy.features`` runs the graph's convolutions through
``conv1d_over_time``, conv1 over the input's ``unfold``, and
``policy.head`` ends it with ``softmax``; ``policy.backward_batch``
differentiates it with the two conv-gradient kernels below. ``Tensor``
is a scalar loss: its value ``data`` and the closure that sets every
entry of the policy's flat ``grad``, so ``loss.backward()`` is the whole
backward pass. Gradients are set, never accumulated.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided


class ShapeMismatch(ValueError):
    pass


class Tensor:
    __slots__ = ("data", "_backward")

    def __init__(self, data, backward):
        self.data = np.asarray(data, dtype=np.float64)
        self._backward = backward  # called with d(loss)/d(this scalar); sets the parameter grads

    def __neg__(self) -> Tensor:
        return Tensor(-self.data, lambda grad: self._backward(-grad))

    def backward(self) -> None:
        """Set the gradient of this scalar loss wrt every parameter."""
        self._backward(1.0)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax of a (rows, k) array."""
    e = logits - np.maximum.reduce(logits, axis=1, keepdims=True)
    np.exp(e, out=e)
    e /= np.add.reduce(e, axis=1, keepdims=True)
    return e


# The contractions below hand-inline np.tensordot's transpose/reshape/dot
# sequence; tensordot's per-call overhead dominates single-sample forwards.
#
# A sample's output must have the same bits whatever the number of
# samples in the call, because the buffer rewrite runs the features of a
# whole batch at once where the backtest and the tests run one sample. A
# sample is ``group`` consecutive rows (the policy's n assets of one
# window). A narrow kernel (conv1) makes one GEMM over the unfold of its
# input, which keeps each output's 3*k-term sum in one fixed order. A
# full-width kernel (conv2, the head) runs as small products per sample:
# a single GEMM over all rows changes its blocking, and with it the
# summation order, with the row count, while a product of one sample's
# rows has the same shape, and so the same bits, in any batch.
#
# conv2 reads conv1's output where conv1 wrote it, channel-major
# (C_in, rows, k): its forward is one product per input channel and
# sample, over x[c], summed in channel order; its kernel gradient is one
# GEMM per channel, g . x[c], and its input gradient one GEMM per channel,
# g^T . K[:, c], written straight into the (C_in, rows, k) result. None of
# the three makes a transposed copy of its input. conv2 writes its output
# rows-major, so the 1-tap head reads it as one product per sample with
# no copy either. The kernel width picks the form.


def unfold(x: np.ndarray, k: int) -> np.ndarray:
    """(C_in, k, rows, t_out) copy of ``x`` whose [:, :, r, s] holds x[:, r, s : s + k].

    A narrow kernel's convolution and its kernel gradient are each one
    GEMM over it, so a training step builds it once and hands it to both.
    """
    c_in, rows, t = x.shape
    s_c, s_r, s_t = x.strides
    windows = as_strided(x, (c_in, k, rows, t - k + 1), (s_c, s_t, s_r, s_t), writeable=False)
    return np.ascontiguousarray(windows)


def conv1d_over_time(x: np.ndarray, kernels: np.ndarray, bias: np.ndarray,
                     unfolded: np.ndarray | None = None, *, group: int = 1) -> np.ndarray:
    """Valid 1-d convolution along the trailing (time) axis.

    ``x`` has shape (C_in, rows, t), ``kernels`` (C_out, C_in, k) and
    ``bias`` (C_out,). A kernel narrower than the time axis reads
    ``unfolded``, which must be ``unfold(x, k)``; a full-width kernel
    reads ``x``, one product per ``group`` consecutive rows. Rows never
    mix: row j of every output channel depends only on row j of the
    input, and has the same bits wherever its group sits among the rows.
    """
    if x.ndim != 3 or kernels.ndim != 3 or x.shape[0] != kernels.shape[1]:
        raise ShapeMismatch(f"conv1d_over_time: input {x.shape} vs kernels {kernels.shape}")
    c_out, c_in, k = kernels.shape
    if k > x.shape[2]:
        raise ShapeMismatch(f"conv1d_over_time: kernel width {k} exceeds time axis {x.shape[2]}")
    if bias.shape != (c_out,):
        raise ShapeMismatch(f"conv1d_over_time: bias {bias.shape} vs kernels {kernels.shape}")
    rows = x.shape[1]
    t_out = x.shape[2] - k + 1
    if t_out > 1:
        if unfolded is None or unfolded.shape != (c_in, k, rows, t_out):
            raise ShapeMismatch(f"conv1d_over_time: unfold {getattr(unfolded, 'shape', None)} vs input {x.shape} "
                                f"and kernels {kernels.shape}")
        out = np.dot(kernels.reshape(c_out, c_in * k), unfolded.reshape(c_in * k, rows * t_out))
        out = out.reshape(c_out, rows, t_out)
    else:
        if k == 1:  # one product per sample, over the rows-major input
            per_group = np.matmul(x[:, :, 0].T.reshape(rows // group, group, c_in), kernels[:, :, 0].T)
        else:  # per sample, one product per channel of the channel-major input, summed in channel order
            samples = x.reshape(c_in, rows // group, group, k)
            per_group = np.matmul(samples[0], kernels[:, 0].T)
            for c in range(1, c_in):
                per_group += np.matmul(samples[c], kernels[:, c].T)
        out = per_group.reshape(rows, c_out).T.reshape(c_out, rows, 1)  # rows-major
    out += bias[:, None, None]  # out is this call's own product, in the layout a new sum would get
    return out


def conv1d_kernel_grad(g: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Gradient wrt the kernels of a conv1d_over_time whose output has gradient ``g``.

    ``x`` is what the forward's product read: the input (C_in, rows, t)
    of a full-width kernel, or the ``unfold`` (C_in, k, rows, t_out) of a
    narrow kernel's input.
    """
    c_out, rows, t_out = g.shape
    if t_out > 1:
        c_in, k = x.shape[:2]
        return np.dot(g.reshape(c_out, rows * t_out), x.reshape(c_in * k, rows * t_out).T).reshape(c_out, c_in, k)
    if x.shape[2] == 1:
        return np.dot(g[:, :, 0], x[:, :, 0].T)[:, :, None]
    return np.stack([np.dot(g[:, :, 0], channel) for channel in x], axis=1)


def conv1d_input_grad(g: np.ndarray, kernels: np.ndarray) -> np.ndarray:
    """Gradient wrt the input of a full-width conv1d_over_time (one output
    step) with ``kernels`` whose output has gradient ``g``.

    The graph only needs it for conv2 and the head: conv1's input is the
    state, which has no parameter behind it.
    """
    _, c_in, k = kernels.shape
    rows, t_out = g.shape[1], g.shape[2]
    if t_out != 1:
        raise ShapeMismatch(f"conv1d_input_grad: output gradient {g.shape} spans more than one step")
    if k == 1:
        return np.dot(kernels[:, :, 0].T, g[:, :, 0])[:, :, None]
    grad = np.empty((c_in, rows, k))
    for c in range(c_in):
        np.dot(g[:, :, 0].T, kernels[:, c], out=grad[c])
    return grad
