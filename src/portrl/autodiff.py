"""Reverse-mode tape for the policy's one graph, on float64 numpy buffers.

The ops are those ``policy.forward_batch`` and ``training.batch_objective``
build. Each records its parents and a backward closure on the output
tensor; ``backward`` walks the recorded graph in reverse execution order.
Shapes are explicit everywhere: the only implicit broadcasting is
scalar-vs-tensor (``smul``, ``expand_scalar``).
"""

from __future__ import annotations

import numpy as np


class ShapeMismatch(ValueError):
    pass


class NonScalarLoss(ValueError):
    pass


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self) -> None:
        """Populate ``grad`` on every reachable tensor with requires_grad."""
        if self.data.size != 1:
            raise NonScalarLoss(f"backward needs a scalar loss, got shape {self.data.shape}")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None:
                node._backward(node.grad)


def _accumulate(tensor: Tensor, grad: np.ndarray) -> None:
    if tensor.grad is None:
        tensor.grad = np.zeros_like(tensor.data)
    tensor.grad += grad


def _tracked(*tensors: Tensor) -> bool:
    return any(t.requires_grad for t in tensors)


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ShapeMismatch(f"mul: {a.data.shape} vs {b.data.shape}")
    out = Tensor(a.data * b.data, _tracked(a, b))
    if out.requires_grad:
        out._parents = (a, b)

        def backward(g):
            if a.requires_grad:
                _accumulate(a, g * b.data)
            if b.requires_grad:
                _accumulate(b, g * a.data)

        out._backward = backward
    return out


def smul(a: Tensor, s: float) -> Tensor:
    s = float(s)
    out = Tensor(a.data * s, _tracked(a))
    if out.requires_grad:
        out._parents = (a,)
        out._backward = lambda g: _accumulate(a, g * s)
    return out


def relu(a: Tensor) -> Tensor:
    out = Tensor(np.maximum(a.data, 0.0), _tracked(a))
    if out.requires_grad:
        out._parents = (a,)
        # subgradient at 0 is 0
        out._backward = lambda g: _accumulate(a, g * (a.data > 0.0))
    return out


def log(a: Tensor) -> Tensor:
    out = Tensor(np.log(a.data), _tracked(a))
    if out.requires_grad:
        out._parents = (a,)
        out._backward = lambda g: _accumulate(a, g / a.data)
    return out


def softmax(a: Tensor, axis: int) -> Tensor:
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)
    out = Tensor(y, _tracked(a))
    if out.requires_grad:
        out._parents = (a,)

        def backward(g):
            inner = (g * y).sum(axis=axis, keepdims=True)
            _accumulate(a, y * (g - inner))

        out._backward = backward
    return out


def tensor_sum(a: Tensor, axis: int | None = None) -> Tensor:
    out = Tensor(np.asarray(a.data.sum(axis=axis)), _tracked(a))
    if out.requires_grad:
        out._parents = (a,)

        def backward(g):
            if axis is None:
                _accumulate(a, np.broadcast_to(g, a.data.shape))
            else:
                _accumulate(a, np.broadcast_to(np.expand_dims(g, axis), a.data.shape))

        out._backward = backward
    return out


def mean(a: Tensor) -> Tensor:
    out = Tensor(np.asarray(a.data.mean()), _tracked(a))
    if out.requires_grad:
        out._parents = (a,)
        out._backward = lambda g: _accumulate(a, np.broadcast_to(g / a.data.size, a.data.shape))
    return out


def concat(tensors: list[Tensor], axis: int) -> Tensor:
    out = Tensor(np.concatenate([t.data for t in tensors], axis=axis), _tracked(*tensors))
    if out.requires_grad:
        out._parents = tuple(tensors)
        sizes = [t.data.shape[axis] for t in tensors]

        def backward(g):
            offset = 0
            for t, size in zip(tensors, sizes):
                if t.requires_grad:
                    index = [slice(None)] * g.ndim
                    index[axis] = slice(offset, offset + size)
                    _accumulate(t, g[tuple(index)])
                offset += size

        out._backward = backward
    return out


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    out = Tensor(a.data.reshape(shape), _tracked(a))
    if out.requires_grad:
        out._parents = (a,)
        out._backward = lambda g: _accumulate(a, g.reshape(a.data.shape))
    return out


def expand_scalar(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    """Fill a tensor of the given shape with a scalar tensor's value."""
    if a.data.size != 1:
        raise ShapeMismatch(f"expand_scalar needs a scalar, got shape {a.data.shape}")
    out = Tensor(np.full(shape, float(a.data)), _tracked(a))
    if out.requires_grad:
        out._parents = (a,)
        out._backward = lambda g: _accumulate(a, np.asarray(g.sum()).reshape(a.data.shape))
    return out


# The contractions below hand-inline np.tensordot's transpose/reshape/dot
# sequence; tensordot's per-call overhead dominates single-sample forwards.


def _conv1d_values(x: np.ndarray, kernels: np.ndarray, bias: np.ndarray | None) -> np.ndarray:
    c_out, c_in, k = kernels.shape
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
    if bias is not None:
        out = out + bias[:, None, None]
    return out


def _conv1d_kernel_grad(g: np.ndarray, x: np.ndarray, k: int) -> np.ndarray:
    c_out, rows, t_out = g.shape
    c_in = x.shape[0]
    if t_out == 1:
        return np.dot(g[:, :, 0], x.transpose(1, 0, 2).reshape(rows, c_in * k)).reshape(c_out, c_in, k)
    grad = np.empty((c_out, c_in, k))
    flat_g = g.reshape(c_out, rows * t_out)
    for j in range(k):
        slab = x[:, :, j : j + t_out].reshape(c_in, rows * t_out)
        grad[:, :, j] = np.dot(flat_g, slab.T)
    return grad


def _conv1d_input_grad(g: np.ndarray, kernels: np.ndarray, t: int) -> np.ndarray:
    c_out, c_in, k = kernels.shape
    rows, t_out = g.shape[1], g.shape[2]
    if t_out == 1:
        folded = np.dot(kernels.reshape(c_out, c_in * k).T, g[:, :, 0])
        return np.ascontiguousarray(folded.reshape(c_in, k, rows).transpose(0, 2, 1))
    grad = np.zeros((c_in, rows, t))
    flat_g = g.reshape(c_out, rows * t_out)
    for j in range(k):
        piece = np.dot(kernels[:, :, j].T, flat_g)
        grad[:, :, j : j + t_out] += piece.reshape(c_in, rows, t_out)
    return grad


def conv1d_over_time(x: Tensor, kernels: Tensor, bias: Tensor | None = None) -> Tensor:
    """Valid 1-d convolution along the trailing (time) axis.

    ``x`` has shape (C_in, rows, t), ``kernels`` (C_out, C_in, k) and the
    optional ``bias`` (C_out,). Rows never mix: row j of every output
    channel depends only on row j of the input.
    """
    if x.data.ndim != 3 or kernels.data.ndim != 3 or x.data.shape[0] != kernels.data.shape[1]:
        raise ShapeMismatch(f"conv1d_over_time: input {x.data.shape} vs kernels {kernels.data.shape}")
    k = kernels.data.shape[2]
    if k > x.data.shape[2]:
        raise ShapeMismatch(f"conv1d_over_time: kernel width {k} exceeds time axis {x.data.shape[2]}")
    if bias is not None and bias.data.shape != (kernels.data.shape[0],):
        raise ShapeMismatch(f"conv1d_over_time: bias {bias.data.shape} vs kernels {kernels.data.shape}")
    out = Tensor(_conv1d_values(x.data, kernels.data, None if bias is None else bias.data),
                 _tracked(x, kernels) or (bias is not None and _tracked(bias)))
    if out.requires_grad:
        out._parents = (x, kernels) if bias is None else (x, kernels, bias)

        def backward(g):
            if kernels.requires_grad:
                _accumulate(kernels, _conv1d_kernel_grad(g, x.data, k))
            if x.requires_grad:
                _accumulate(x, _conv1d_input_grad(g, kernels.data, x.data.shape[2]))
            if bias is not None and bias.requires_grad:
                _accumulate(bias, g.sum(axis=(1, 2)))

        out._backward = backward
    return out
