"""Convolutional policy with shared per-asset kernels.

Every asset's (close, high, low) window flows through the same two
convolution layers; the previous action's risky entries join as an
extra channel before a 1x1 convolution scores each asset. A learnable
cash bias provides the cash score and a softmax yields the new weights.
Because kernels are shared and convolution runs along time only, assets
never mix: the network is equivariant under asset permutation.

The graph runs in two parts, split where the last action enters:
``features`` and ``head``. ``features`` gives a sample the same bits at
any batch size: conv2 runs one product per input channel per sample,
over the sample's n asset rows of conv1's channel-major output, and the
head's feature part one product per sample, so the sample, not the
batch, fixes the summation order. The buffer rewrite therefore runs
``features`` once per batch, over the objective's conv1 unfold, and
chains only the head step (``head_chain``), which gives each row the
bits ``head`` gives it (``test_head_and_head_chain_agree_bit_for_bit_per_row``
in tests/test_policy.py). ``policy_forward`` is the one-sample
``forward_batch``, so the filled and rewritten actions match it bit for
bit. conv1 writes its output channel-major and conv2 reads it so, in its
forward and in both its gradients, with no transposed copy.

The learnable values live in one flat array, ``PolicyParams.theta``,
whose named blocks every function here reads as views;
``backward_batch`` writes the same layout into ``PolicyParams.grad``.
"""

from __future__ import annotations

import math

import numpy as np

from . import autodiff as ad


class WindowTooSmall(ValueError):
    pass


class PolicyParams:
    """Every learnable value in one float64 array ``theta``, the kernels
    first (its leading ``n_kernel`` values, which weight decay applies to)
    and then the biases, with a same-shaped ``grad`` that ``backward_batch``
    sets. The named blocks (``conv1_kernels`` ... ``cash_bias``) are
    reshaped views of ``theta``; a copy or an unpickle rebuilds them over
    its own ``theta``.
    """

    def __init__(self, n_assets: int, window: int, k1: int, c1: int, c2: int):
        self.n_assets = n_assets
        self.window = window
        self.shapes = {  # theta's blocks, in order
            "conv1_kernels": (c1, 3, k1),
            "conv2_kernels": (c2, c1, window - k1 + 1),
            "out_kernels": (1, c2 + 1, 1),
            "conv1_bias": (c1,),
            "conv2_bias": (c2,),
            "out_bias": (1,),
            "cash_bias": (),
        }
        sizes = [math.prod(shape) for shape in self.shapes.values()]
        self.n_kernel = sum(sizes[:3])
        self.theta = np.zeros(sum(sizes))
        self.grad = np.zeros(sum(sizes))
        self.__dict__.update(self.views(self.theta))

    def views(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """The named blocks of an array laid out like ``theta``, as views of it."""
        blocks, offset = {}, 0
        for name, shape in self.shapes.items():
            size = math.prod(shape)
            blocks[name] = flat[offset : offset + size].reshape(shape)
            offset += size
        return blocks

    def __getstate__(self) -> dict:
        return {name: value for name, value in self.__dict__.items() if name not in self.shapes}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.__dict__.update(self.views(self.theta))


def _uniform(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def init_policy(n_assets: int, window: int, seed: int, k1: int = 3, c1: int = 2, c2: int = 20) -> PolicyParams:
    """Seed-determined parameters: kernels uniform in +-sqrt(6/(fan_in+fan_out)), biases zero."""
    if n_assets < 1:
        raise ValueError(f"need at least one asset, got {n_assets}")
    if window < k1 + 1:
        raise WindowTooSmall(f"window {window} too small for kernel width {k1}")
    k2 = window - k1 + 1
    rng = np.random.default_rng(seed)
    params = PolicyParams(n_assets, window, k1, c1, c2)
    params.conv1_kernels[...] = _uniform(rng, (c1, 3, k1), 3 * k1, c1 * k1)
    params.conv2_kernels[...] = _uniform(rng, (c2, c1, k2), c1 * k2, c2 * k2)
    params.out_kernels[...] = _uniform(rng, (1, c2 + 1, 1), c2 + 1, 1)
    return params


def forward_batch(params: PolicyParams, states: np.ndarray,
                  last_actions: np.ndarray) -> tuple[np.ndarray, tuple]:
    """Actions for a batch: states (B, 3, n, t), last_actions (B, n+1) -> (B, n+1),
    plus the activations ``backward_batch`` reads.

    The batch folds into the asset axis, which the convolutions treat
    independently anyway; only the final softmax is per-sample. The
    activations start with conv1's unfold, which the buffer rewrite
    reads again for its own pass over the same states.
    """
    batch, channels, n, t = states.shape
    if channels != 3 or n != params.n_assets or t != params.window:
        raise ad.ShapeMismatch(
            f"states {states.shape} incompatible with policy (3, {params.n_assets}, {params.window})"
        )
    if last_actions.shape != (batch, n + 1):
        raise ad.ShapeMismatch(f"last_actions {last_actions.shape}, expected {(batch, n + 1)}")
    x = stacked_rows(states)
    unfolded = conv1_unfold(params, x)
    scores, (h1, h2) = features(params, x, unfolded)
    actions = head(params, scores, last_actions)
    return actions, (unfolded, h1, h2, last_actions, actions)


def stacked_rows(states: np.ndarray) -> np.ndarray:
    """States (B, 3, n, t) as the convolutions' input (3, B*n, t), without a
    copy when the batch is laid out channel-major, as the buffer gathers it."""
    batch, _, n, t = states.shape
    return np.ascontiguousarray(states.transpose(1, 0, 2, 3)).reshape(3, batch * n, t)


def conv1_unfold(params: PolicyParams, x: np.ndarray) -> np.ndarray:
    """conv1's unfold of the stacked rows ``x``: the one copy of its input a forward makes."""
    return ad.unfold(x, params.conv1_kernels.shape[2])


def features(params: PolicyParams, x: np.ndarray, unfolded: np.ndarray) -> tuple[np.ndarray, tuple]:
    """The part of the graph the last action does not enter: conv1 -> relu
    -> conv2 -> relu -> the 1x1 head's feature channels and bias.

    Stacked rows ``x`` (3, B*n, t) with their ``conv1_unfold`` -> per-asset
    partial scores (B, n), plus the activations (h1, h2). A sample's scores
    have the same bits at any B, so a batch's features can stand in for
    one call per sample.
    """
    h1 = ad.conv1d_over_time(x, params.conv1_kernels, params.conv1_bias, unfolded)
    np.maximum(h1, 0.0, out=h1)
    n = params.n_assets
    h2 = ad.conv1d_over_time(h1, params.conv2_kernels, params.conv2_bias, group=n)
    np.maximum(h2, 0.0, out=h2)
    scores = ad.conv1d_over_time(h2, params.out_kernels[:, :-1], params.out_bias, group=n)
    return scores.reshape(-1, n), (h1, h2)


def head(params: PolicyParams, scores: np.ndarray, last_actions: np.ndarray) -> np.ndarray:
    """The rest of the graph: the last risky weights' term of the 1x1 head,
    the cash bias and the softmax. Scores (B, n), last_actions (B, n+1) -> (B, n+1)."""
    logits = last_actions * params.out_kernels[0, -1, 0]
    logits[:, 1:] += scores
    logits[:, 0] = params.cash_bias
    return ad.softmax(logits)


def head_chain(params: PolicyParams, scores: np.ndarray, actions: np.ndarray) -> None:
    """``head`` chained through consecutive samples, in place: for each row j
    of ``scores`` (m, n), actions[j + 1] = head(scores[j], actions[j]), so
    ``actions`` (m + 1, n+1) holds the first last action in row 0.

    Preallocated rows run ``head``'s ufuncs in its order, with the same
    bits and without its per-call temporaries: the logits row keeps the
    cash bias in its first entry, so only the risky entries are computed,
    and the row's max is taken in Python, where a NaN or inf still turns
    the row, and every later one, NaN.
    """
    risky_weight = float(params.out_kernels[0, -1, 0])
    logits = np.empty(actions.shape[1])
    logits[0] = float(params.cash_bias)
    risky = logits[1:]
    e = np.empty_like(logits)
    # bound once, with positional outputs: the loop runs once per row
    multiply, add, subtract, exp, divide, total = np.multiply, np.add, np.subtract, np.exp, np.divide, np.add.reduce
    for score, last, new in zip(scores, actions[:, 1:], actions[1:]):
        multiply(last, risky_weight, risky)
        add(risky, score, risky)
        subtract(logits, max(logits.tolist()), e)
        exp(e, e)
        divide(e, total(e), new)


def backward_batch(params: PolicyParams, activations: tuple, grad_actions: np.ndarray) -> None:
    """Set every entry of ``params.grad`` from d(loss)/d(actions) of one forward_batch.

    A ReLU passes gradient only where its output is positive (the
    subgradient at 0 is 0). Both masks apply in place to the input
    gradients the conv kernels return fresh; ``activations`` is left as
    it was, and the buffer rewrite reads its unfold again.
    """
    unfolded, h1, h2, last_actions, actions = activations
    grad = params.views(params.grad)
    inner = (grad_actions * actions).sum(axis=1, keepdims=True)
    grad_logits = actions * (grad_actions - inner)
    grad["cash_bias"][...] = grad_logits[:, :1].sum()
    g = grad_logits[:, 1:].reshape(1, -1, 1)
    # the head's last input channel is the last risky weights: no parameter behind it
    memory = last_actions[:, 1:].reshape(1, -1, 1)
    grad["out_kernels"][...] = ad.conv1d_kernel_grad(g, np.concatenate([h2, memory]))
    grad["out_bias"][...] = g.sum(axis=(1, 2))
    g = ad.conv1d_input_grad(g, params.out_kernels[:, :-1])
    g *= h2 > 0.0
    grad["conv2_kernels"][...] = ad.conv1d_kernel_grad(g, h1)
    grad["conv2_bias"][...] = g.sum(axis=(1, 2))
    g = ad.conv1d_input_grad(g, params.conv2_kernels)
    g *= h1 > 0.0
    grad["conv1_kernels"][...] = ad.conv1d_kernel_grad(g, unfolded)
    grad["conv1_bias"][...] = g.sum(axis=(1, 2))


def policy_forward(params: PolicyParams, state: np.ndarray, last_action: np.ndarray) -> np.ndarray:
    """Pure inference for one (3, n, t) state: returns the (n+1,) action.

    The one-sample ``forward_batch``, so it gives the same bits as the same
    sample inside any batch and, since ``head`` and ``head_chain`` agree
    bit for bit per row, as the buffer rewrite.
    """
    values = np.asarray(state)
    last_action = np.asarray(last_action)
    if values.shape != (3, params.n_assets, params.window) or last_action.shape != (params.n_assets + 1,):
        raise ad.ShapeMismatch(
            f"state {values.shape} / last_action {last_action.shape} incompatible with "
            f"policy (3, {params.n_assets}, {params.window})"
        )
    return forward_batch(params, values[None], last_action[None])[0][0]
