"""Domain-specific policy-gradient training.

The trainer fills a replay buffer with one experience per training
step, samples recency-biased sequential batches via a geometric
distribution, ascends the mean log-profit objective with AdamW, and
rewrites the sampled experiences' stored last-actions with the updated
policy's outputs. The buffer gathers each batch time-major, the layout
every convolution of the policy reads in place, so one gather serves a
step's objective, its backward pass and its rewrite. ``chain_actions``
writes stored last-actions for both the fill (from all cash, with no
simulator) and the rewrite. During backtests it keeps learning online:
each new test experience is appended to the buffer before a burst of
update steps. A loss that is not finite stops training with
NonFiniteLoss, naming the step and the batch.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .autodiff import Tensor
from .environment import drift_weights, env_reset, env_step, transaction_factor_batch
from .market_data import MarketFrame, step_relatives
from .normalization import NormalizationScheme, normalize_window
from .policy import PolicyParams, backward_batch, features, forward_batch, head_chain, policy_forward, stacked_rows


# glibc maps each allocation at or above its mmap threshold afresh, so every
# page of it faults on first touch, and raises the threshold only after such
# a block is freed. Set up front, a paper-shape train_step reuses its multi-MB
# temporaries (the 2.2 MB time-major batch of states, conv1's 1.4 MB output
# and its gradient) from the heap every step.
MMAP_THRESHOLD = 64 << 20  # bytes; above any one temporary of a train_step
TRIM_THRESHOLD = 128 << 20  # bytes of freed heap top kept for the next step
try:
    _libc = ctypes.CDLL(None)
except (OSError, TypeError):  # no C library handle
    _libc = None
_mallopt = getattr(_libc, "mallopt", None)
if _mallopt is not None:
    _mallopt.argtypes, _mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    _mallopt(-3, MMAP_THRESHOLD)  # M_MMAP_THRESHOLD in glibc's malloc.h
    _mallopt(-1, TRIM_THRESHOLD)  # M_TRIM_THRESHOLD
_malloc_trim = getattr(_libc, "malloc_trim", None)
if _malloc_trim is not None:
    _malloc_trim.argtypes, _malloc_trim.restype = (ctypes.c_size_t,), ctypes.c_int


def release_free_heap() -> None:
    """Return the free heap that TRIM_THRESHOLD keeps to the OS (glibc's
    malloc_trim(0)), so processes forked next do not inherit it; a no-op
    where the C library lacks malloc_trim."""
    if _malloc_trim is not None:
        _malloc_trim(0)


class NonFiniteLoss(RuntimeError):
    pass


@dataclass
class Trajectory:
    """Backtest record: one row per decision, values are post-drift."""

    steps: np.ndarray
    values: np.ndarray
    rewards: np.ndarray
    actions: np.ndarray

    def __len__(self) -> int:
        return len(self.steps)


class ReplayBuffer:
    """Ordered per-step experiences: a start column into one price tape
    per row, plus the last action and price relatives in flat arrays.

    The tape holds the close, high and low of every frame added, in the
    order added, so a row's state is the tape's ``window`` columns from
    its start, normalized on demand exactly as ``build_state`` does.
    The last_action column is mutable by design: training rewrites it
    with fresh policy outputs. Everything else is frozen history.
    """

    def __init__(self, n_assets: int, window: int, scheme: NormalizationScheme):
        self.window = window
        self.scheme = scheme
        self._size = 0
        self._prices = np.empty((3, 0, n_assets))
        self._starts = np.empty(0, dtype=np.int64)
        self._last_actions = np.empty((0, n_assets + 1))
        self._relatives = np.empty((0, n_assets + 1))

    def __len__(self) -> int:
        return self._size

    def add_frame(self, frame: MarketFrame) -> None:
        """Append the frame's prices to the tape and make room for one
        experience per decidable step of it, with the price relatives
        ``step_relatives`` gives for the move out of that step."""
        rows = frame.n_steps - self.window
        if rows < 1:
            raise ValueError(f"frame of length {frame.n_steps} allows no step with window {self.window}")
        self._starts = np.concatenate([self._starts, self._prices.shape[1] + np.arange(rows)])
        self._prices = np.concatenate([self._prices, frame.prices.transpose(0, 2, 1)], axis=1)
        self._last_actions = np.concatenate([self._last_actions, np.empty((rows,) + self._last_actions.shape[1:])])
        # row j holds price_relatives(frame, window + j)
        self._relatives = np.concatenate([self._relatives, step_relatives(frame, self.window, frame.n_steps)])

    def append(self, last_action: np.ndarray) -> None:
        self._last_actions[self._size] = last_action
        self._size += 1

    def states(self, start: int, stop: int) -> np.ndarray:
        """Normalized states of rows [start, stop), shape (B, 3, n, window).

        The gather lays the batch out time-major, (window, 3, B, n) in C
        order, and the result is a transposed view of it, which is the
        layout ``policy.features`` reads without a copy. The rows of one
        frame have consecutive starts, so each frame the batch spans is
        one strided copy of the tape.
        """
        starts = self._starts[: self._size][start:stop]
        batch = np.empty((self.window, 3, len(starts), self._prices.shape[2]))
        windows = sliding_window_view(self._prices, self.window, axis=1).transpose(3, 0, 1, 2)
        firsts = np.flatnonzero(np.diff(starts, prepend=-2) != 1)  # where each run begins; no start is -1
        for lo, hi in zip(firsts, [*firsts[1:], len(starts)]):
            batch[:, :, lo:hi] = windows[:, :, starts[lo] : starts[lo] + hi - lo]
        return normalize_window(self.scheme, batch.transpose(1, 2, 3, 0)).transpose(1, 0, 2, 3)

    @property
    def last_actions(self) -> np.ndarray:
        return self._last_actions[: self._size]

    @property
    def relatives(self) -> np.ndarray:
        return self._relatives[: self._size]


@dataclass
class TrainerConfig:
    """Optimizer and sampler settings; a campaign takes them from its ExperimentConfig."""
    learning_rate: float
    batch_size: int
    sample_bias: float
    weight_decay: float


BETA1, BETA2, EPSILON = 0.9, 0.999, 1e-8  # Adam moment decay rates and denominator guard
MAX_REDRAWS = 100  # out-of-range geometric draws before sample_batch clamps to the earliest start


class AdamW:
    """Adam with decoupled weight decay over one flat parameter array
    ``theta`` and its gradient ``grad``; decay applies to the leading
    ``decayed`` values only. The moments ``m`` and ``v`` are flat too."""

    def __init__(self, theta: np.ndarray, grad: np.ndarray, decayed: int, lr: float, weight_decay: float):
        self.theta = theta
        self.grad = grad
        self.decayed = decayed
        self.lr = lr
        self.weight_decay = weight_decay
        self.step_count = 0
        self.m = np.zeros_like(theta)
        self.v = np.zeros_like(theta)

    def step(self) -> None:
        self.step_count += 1
        bc1 = 1.0 - BETA1 ** self.step_count
        bc2 = 1.0 - BETA2 ** self.step_count
        m, v, g = self.m, self.v, self.grad
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * g * g
        update = (m / bc1) / (np.sqrt(v / bc2) + EPSILON)
        if self.weight_decay:
            decayed = self.theta[: self.decayed]
            decayed -= self.lr * self.weight_decay * decayed
        self.theta -= self.lr * update


def chain_actions(params: PolicyParams, buffer: ReplayBuffer, start: int, stop: int,
                  states: np.ndarray) -> None:
    """Chain the policy through rows [start, stop): row j + 1's stored last
    action becomes the output for row j's state and last action. ``states``
    are ``buffer.states(start, stop)``; a row's features have the same bits
    at any batch size, so one features pass plus the head chain writes
    what ``policy_forward`` gives per row."""
    scores, _ = features(params, stacked_rows(states))
    rows = min(stop, len(buffer) - 1) - start
    head_chain(params, scores[:rows], buffer.last_actions[start : start + rows + 1])


def fill_buffer(frame: MarketFrame, window: int, scheme: NormalizationScheme,
                batch_size: int, params: PolicyParams) -> ReplayBuffer:
    """One experience per decidable step of ``frame``; the last actions
    chain the policy from all cash, in passes of ``batch_size`` rows."""
    buffer = ReplayBuffer(frame.n_assets, window, scheme)
    buffer.add_frame(frame)
    buffer._size = len(buffer._starts)  # every row is written below
    buffer.last_actions[0] = np.eye(frame.n_assets + 1)[0]  # all cash
    for start in range(0, len(buffer), batch_size):
        stop = min(start + batch_size, len(buffer))
        chain_actions(params, buffer, start, stop, buffer.states(start, stop))
    return buffer


def sample_batch(buffer: ReplayBuffer, batch_size: int, sample_bias: float,
                 rng: np.random.Generator) -> tuple[int, int]:
    """Pick a contiguous range [start, start+batch_size) biased toward the end.

    The offset back from the latest valid start is geometric with
    success probability ``sample_bias`` (support 0, 1, 2, ...);
    out-of-range draws are redrawn, then clamped to the earliest start.
    """
    if batch_size > len(buffer):
        raise ValueError(f"batch {batch_size} exceeds buffer length {len(buffer)}")
    latest = len(buffer) - batch_size
    for _ in range(MAX_REDRAWS):
        offset = int(rng.geometric(sample_bias)) - 1
        if offset <= latest:
            return latest - offset, latest - offset + batch_size
    return 0, batch_size


def batch_objective(params: PolicyParams, states: np.ndarray, buffer: ReplayBuffer, start: int, stop: int,
                    commission: float) -> Tensor:
    """Mean log-profit of the policy over one sequential batch.

    Each step contributes ln(mu_t * (a_t . y_t)) where a_t is the policy
    output for the stored state and last-action, y_t the stored price
    relatives, and mu_t the rebalancing cost factor from the stored
    last-action after ``drift_weights`` by the previous row's relatives
    (the episode's first row has none). mu_t is held constant under
    differentiation. ``states`` are ``buffer.states(start, stop)``.
    Returns the objective, whose ``backward`` sets ``params.grad``.
    """
    last_actions = buffer.last_actions[start:stop]
    relatives = buffer.relatives[start:stop]
    actions, activations = forward_batch(params, states, last_actions)
    before = np.array(last_actions)
    lo = max(start, 1)  # the episode's first experience has undrifted weights
    before[lo - start :] = drift_weights(buffer.last_actions[lo:stop], buffer.relatives[lo - 1 : stop - 1])
    mu = transaction_factor_batch(before, actions, commission)
    growth = (actions * relatives).sum(axis=1) * mu

    def backward(grad):  # grad = d loss / d objective; mu is held constant
        grad_gains = (grad / growth.size) / growth * mu
        backward_batch(params, activations, grad_gains[:, None] * relatives)

    return Tensor(np.log(growth).mean(), backward)


class Trainer:
    """One training run: owns its policy, buffer, optimizer state, and RNG."""

    def __init__(self, params: PolicyParams, frame: MarketFrame, window: int,
                 scheme: NormalizationScheme, initial_value: float, commission: float,
                 config: TrainerConfig, rng: np.random.Generator):
        self.params = params
        self.frame = frame
        self.window = window
        self.scheme = scheme
        self.initial_value = initial_value
        self.commission = commission
        self.config = config
        self.rng = rng
        self.buffer: ReplayBuffer | None = None
        self.optimizer = AdamW(params.theta, params.grad, params.n_kernel,
                               lr=config.learning_rate, weight_decay=config.weight_decay)

    def fill_buffer(self) -> ReplayBuffer:
        self.buffer = fill_buffer(self.frame, self.window, self.scheme, self.config.batch_size, self.params)
        return self.buffer

    def train_step(self) -> float:
        if self.buffer is None:
            raise RuntimeError("fill_buffer must run before train_step")
        start, stop = sample_batch(self.buffer, self.config.batch_size,
                                   self.config.sample_bias, self.rng)
        # One gather serves the objective and the rewrite; nothing writes
        # the tape in between.
        states = self.buffer.states(start, stop)
        loss = -batch_objective(self.params, states, self.buffer, start, stop, self.commission)
        value = float(loss.data)
        if not np.isfinite(value):
            raise NonFiniteLoss(f"loss {value} at step {self.optimizer.step_count}, batch [{start}, {stop})")
        loss.backward()
        self.optimizer.step()
        chain_actions(self.params, self.buffer, start, stop, states)
        return value

    def train(self, steps: int) -> None:
        for _ in range(steps):
            self.train_step()

    def backtest(self, test_frame: MarketFrame, online_steps: int) -> Trajectory:
        """Fresh all-cash episode on the test frame; each new experience is
        appended to the buffer and followed by ``online_steps`` updates."""
        if self.buffer is None:
            raise RuntimeError("fill_buffer must run before backtest")
        self.buffer.add_frame(test_frame)
        state, obs = env_reset(test_frame, self.window, self.scheme, self.initial_value, self.commission)
        # the buffer keeps the policy's raw output; the simulator renormalizes its copy
        last_action = state.weights
        steps, values, rewards, actions = [], [], [], []
        while not state.terminal:
            action = policy_forward(self.params, obs, last_action)
            state, obs, reward = env_step(state, action)
            self.buffer.append(last_action)
            for _ in range(online_steps):
                self.train_step()
            steps.append(state.t)
            values.append(state.drifted_value)
            rewards.append(reward)
            actions.append(state.weights)
            last_action = action
        return Trajectory(
            steps=np.asarray(steps, dtype=np.int64),
            values=np.asarray(values),
            rewards=np.asarray(rewards),
            actions=np.asarray(actions),
        )
