"""Forward kernels of the policy's one graph and the loss type whose
``backward`` runs its hand-written backward pass, on float64 numpy buffers.

``policy.forward_batch`` runs the graph through ``conv1d_over_time`` and
``softmax``; ``policy.backward_batch`` differentiates it with the two
conv-gradient kernels below. ``Tensor`` holds a parameter's ``data`` and
``grad``; a loss also holds the closure that sets every parameter's
``grad``, so ``loss.backward()`` is the whole backward pass. Gradients
are set, never accumulated.
"""

from __future__ import annotations

import numpy as np


class ShapeMismatch(ValueError):
    pass


class Tensor:
    __slots__ = ("data", "grad", "_backward")

    def __init__(self, data, backward=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self._backward = backward  # called with d(loss)/d(this scalar); sets the parameter grads

    def __neg__(self) -> Tensor:
        return Tensor(-self.data, lambda grad: self._backward(-grad))

    def backward(self) -> None:
        """Set ``grad`` on every parameter this scalar loss depends on."""
        self._backward(1.0)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax of a (rows, k) array."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


# The contractions below hand-inline np.tensordot's transpose/reshape/dot
# sequence; tensordot's per-call overhead dominates single-sample forwards.


def conv1d_over_time(x: np.ndarray, kernels: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Valid 1-d convolution along the trailing (time) axis.

    ``x`` has shape (C_in, rows, t), ``kernels`` (C_out, C_in, k) and
    ``bias`` (C_out,). Rows never mix: row j of every output channel
    depends only on row j of the input.
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
    if t_out == 1:
        flat = x.transpose(0, 2, 1).reshape(c_in * k, rows)
        out = np.dot(kernels.reshape(c_out, c_in * k), flat).reshape(c_out, rows, 1)
    else:
        out = np.zeros((c_out, rows, t_out))
        for j in range(k):
            piece = np.dot(kernels[:, :, j], x[:, :, j : j + t_out].reshape(c_in, rows * t_out))
            out += piece.reshape(c_out, rows, t_out)
    return out + bias[:, None, None]


def conv1d_kernel_grad(g: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Gradient wrt the kernels of a conv1d_over_time on ``x`` whose output has gradient ``g``."""
    c_out, rows, t_out = g.shape
    c_in, k = x.shape[0], x.shape[2] - t_out + 1
    if t_out == 1:
        return np.dot(g[:, :, 0], x.transpose(1, 0, 2).reshape(rows, c_in * k)).reshape(c_out, c_in, k)
    grad = np.empty((c_out, c_in, k))
    flat_g = g.reshape(c_out, rows * t_out)
    for j in range(k):
        slab = x[:, :, j : j + t_out].reshape(c_in, rows * t_out)
        grad[:, :, j] = np.dot(flat_g, slab.T)
    return grad


def conv1d_input_grad(g: np.ndarray, kernels: np.ndarray) -> np.ndarray:
    """Gradient wrt the input of a conv1d_over_time with ``kernels`` whose output has gradient ``g``."""
    c_out, c_in, k = kernels.shape
    rows, t_out = g.shape[1], g.shape[2]
    if t_out == 1:
        folded = np.dot(kernels.reshape(c_out, c_in * k).T, g[:, :, 0])
        return np.ascontiguousarray(folded.reshape(c_in, k, rows).transpose(0, 2, 1))
    grad = np.zeros((c_in, rows, t_out + k - 1))
    flat_g = g.reshape(c_out, rows * t_out)
    for j in range(k):
        piece = np.dot(kernels[:, :, j].T, flat_g)
        grad[:, :, j : j + t_out] += piece.reshape(c_in, rows, t_out)
    return grad
