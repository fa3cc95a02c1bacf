"""Forward kernels of the policy's one graph and the loss type whose
``backward`` runs its hand-written backward pass, on float64 numpy buffers.

``policy.features`` runs the graph's convolutions through
``conv1d_over_time``, over a time-major batch that none of them copies,
and ``policy.head`` ends it with ``softmax``; ``policy.backward_batch``
differentiates it with the two conv-gradient kernels below. conv1 is
one stacked matmul over strided windows of its input, each output a
sum in (k, c) order, and pads a lone row to two columns so that BLAS
keeps it on gemm. ``Tensor`` is a scalar loss: its value ``data`` and
the closure that sets every entry of the policy's flat ``grad``, so
``loss.backward()`` is the whole backward pass. Gradients are set,
never accumulated.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided


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
# conv1 reads its input time-major, (t, C_in, rows) in C order, the layout
# the replay buffer gathers a batch in. There the k * C_in values of one
# output step's window lie at one stride from each other, so every window
# of the input is one strided view (t_out, k * C_in, rows) of it, and
# conv1 is one stacked matmul of its (C_out, k * C_in) kernel matrix over
# that view, one product per output step, with no copy of the input: each
# output is one 3 * k-term sum in (k, c) order. BLAS computes those sums
# in the same order at any column count but one: numpy hands a one-column
# product to BLAS's matrix-vector kernel, whose bits differ from gemm's,
# so a lone row is padded to two columns.
#
# A sample's output must have the same bits whatever the number of
# samples in the call, because the buffer rewrite runs the features of a
# whole batch at once where the backtest and the tests run one sample. A
# sample is ``group`` consecutive rows (the policy's n assets of one
# window). A full-width kernel (conv2, the head) runs as one product per
# sample, of its rows' k * C_in values by the taps in (k, c) order: a
# single GEMM over all rows changes its blocking, and with it the
# summation order, with the row count, while a product of one sample's
# rows has the same shape, and so the same bits, in any batch. conv2
# reads conv1's time-major output in place and writes rows-major, which
# the 1-tap head reads in place.
#
# Every kernel gradient is one stacked matmul of the time-major output
# gradient with the input's windows, summed over the output steps in
# order, and a full-width kernel's input gradient is one GEMM written
# time-major, which the ReLU mask and the kernel gradient below it read
# as it lies.


def time_major(x: np.ndarray) -> np.ndarray:
    """(C, rows, t) ``x`` as the (t, C, rows) array in C order: a view of
    ``x`` when it is laid out so, a copy otherwise."""
    return np.ascontiguousarray(x.transpose(2, 0, 1))


def time_windows(x: np.ndarray, k: int) -> np.ndarray:
    """(t - k + 1, k * C, rows) read-only view of a time-major (t, C, rows)
    array whose [s, j * C + c] is x[s + j, c]: every width-k window."""
    t, c, rows = x.shape
    return as_strided(x, (t - k + 1, k * c, rows), x.strides, writeable=False)


def tap_rows(kernels: np.ndarray) -> np.ndarray:
    """(k * C_in, C_out) C-order copy of (C_out, C_in, k) ``kernels`` whose
    [j * C_in + c] is kernels[:, c, j]. BLAS multiplies a transposed view of
    it by a transposed sample about half as fast, with the same bits."""
    c_out, c_in, k = kernels.shape
    return kernels.transpose(2, 1, 0).reshape(k * c_in, c_out)


def conv1d_over_time(x: np.ndarray, kernels: np.ndarray, bias: np.ndarray, *, group: int = 1) -> np.ndarray:
    """Valid 1-d convolution along the trailing (time) axis.

    ``x`` has shape (C_in, rows, t), ``kernels`` (C_out, C_in, k) and
    ``bias`` (C_out,). A kernel narrower than the time axis reads ``x``
    time-major, in place when it is laid out so, and returns a view of
    its time-major output; a full-width kernel makes one product per
    ``group`` consecutive rows and returns a view of its rows-major
    output. Rows never mix: row j of every output channel depends only
    on row j of the input, and has the same bits wherever its group sits
    among the rows.
    """
    if x.ndim != 3 or kernels.ndim != 3 or x.shape[0] != kernels.shape[1]:
        raise ValueError(f"conv1d_over_time: input {x.shape} vs kernels {kernels.shape}")
    c_out, c_in, k = kernels.shape
    if k > x.shape[2]:
        raise ValueError(f"conv1d_over_time: kernel width {k} exceeds time axis {x.shape[2]}")
    if bias.shape != (c_out,):
        raise ValueError(f"conv1d_over_time: bias {bias.shape} vs kernels {kernels.shape}")
    rows = x.shape[1]
    if x.shape[2] > k:
        steps = time_major(x)
        if rows == 1:  # two columns keep the product on gemm; the first is the row's
            steps = np.concatenate([steps, steps], axis=2)
        out = np.matmul(kernels.transpose(0, 2, 1).reshape(c_out, k * c_in), time_windows(steps, k))
        out += bias[:, None]  # out is this call's own product, in the layout a new sum would get
        return out[:, :, :rows].transpose(1, 2, 0)
    # a view of conv1's time-major output and of conv2's rows-major one
    samples = x.transpose(1, 2, 0).reshape(rows // group, group, k * c_in)
    out = np.matmul(samples, tap_rows(kernels)).reshape(rows, c_out)
    out += bias
    return out.T[:, :, None]


def conv1d_kernel_grad(g: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Gradient wrt the kernels of a conv1d_over_time over input ``x``
    (C_in, rows, t) whose output has gradient ``g``. It reads both
    time-major, in place when they are laid out so."""
    c_out, _, t_out = g.shape
    c_in, k = x.shape[0], x.shape[2] - t_out + 1
    per_step = np.matmul(time_major(g), time_windows(time_major(x), k).transpose(0, 2, 1))
    return np.add.reduce(per_step, axis=0).reshape(c_out, k, c_in).transpose(0, 2, 1)


def conv1d_input_grad(g: np.ndarray, kernels: np.ndarray) -> np.ndarray:
    """Gradient wrt the input of a full-width conv1d_over_time (one output
    step) with ``kernels`` whose output has gradient ``g``, as a view of
    its time-major layout.

    The graph only needs it for conv2 and the head: conv1's input is the
    state, which has no parameter behind it.
    """
    _, c_in, k = kernels.shape
    rows, t_out = g.shape[1], g.shape[2]
    if t_out != 1:
        raise ValueError(f"conv1d_input_grad: output gradient {g.shape} spans more than one step")
    steps = np.dot(tap_rows(kernels), g[:, :, 0])
    return steps.reshape(k, c_in, rows).transpose(1, 2, 0)
