"""Span tracing for the traced benchmark run, done from outside the package.

``Tracer.install`` swaps each target function or method for a wrapper
that records a span (name, start, end, parent, argument-derived
attribute). A module-level function is replaced on every ``portrl``
module that holds the same object, so callers that imported it by name
(``from .policy import policy_forward``) see the wrapper too. Spans stay
in memory until ``uninstall``; ``SpanTable`` turns them into per-layer
numbers. A target that no longer exists is reported by name and skipped.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

import numpy as np


def _conv_shape(args, kwargs):
    """(kernel width, output elements) of a conv1d_over_time call."""
    x = args[0] if args else kwargs["x"]
    kernels = args[1] if len(args) > 1 else kwargs["kernels"]
    c_out, _, width = kernels.data.shape
    _, rows, t = x.data.shape
    return width, c_out * rows * (t - width + 1)


# (module, attribute path, span name, attribute extractor)
TARGETS = (
    ("portrl.market_data", "load_manifest", "load_manifest", None),
    ("portrl.market_data", "load_ohlc_csv", "load_ohlc_csv", None),
    ("portrl.market_data", "align_assets", "align_assets", None),
    ("portrl.market_data", "split_periods", "split_periods", None),
    ("portrl.market_data", "price_relatives", "price_relatives", None),
    ("portrl.normalization", "fit_data_max", "fit_data_max", None),
    ("portrl.normalization", "apply_data_max", "apply_data_max", None),
    ("portrl.normalization", "normalize_window", "normalize_window", None),
    ("portrl.environment", "env_reset", "env_reset", None),
    ("portrl.environment", "env_step", "env_step", None),
    ("portrl.environment", "coerce_action", "coerce_action", None),
    ("portrl.environment", "build_state", "build_state", None),
    ("portrl.environment", "transaction_factor", "transaction_factor", None),
    ("portrl.environment", "transaction_factor_batch", "transaction_factor_batch", None),
    ("portrl.policy", "init_policy", "init_policy", None),
    ("portrl.policy", "forward_batch", "forward_batch", None),
    ("portrl.policy", "policy_forward", "policy_forward", None),
    ("portrl.autodiff", "conv1d_over_time", "conv1d_over_time", _conv_shape),
    ("portrl.autodiff", "softmax", "softmax", None),
    ("portrl.autodiff", "Tensor.backward", "backward", None),
    ("portrl.training", "fill_buffer", "fill_buffer", None),
    ("portrl.training", "sample_batch", "sample_batch", None),
    ("portrl.training", "batch_objective", "batch_objective", None),
    ("portrl.training", "ReplayBuffer.append", "append", None),
    ("portrl.training", "AdamW.step", "adamw_step", None),
    ("portrl.training", "Trainer.train_step", "train_step", None),
    ("portrl.training", "Trainer.backtest", "backtest", None),
    ("portrl.metrics", "report", "report", None),
    ("portrl.experiment", "run_campaign", "run_campaign", None),
    ("portrl.experiment", "run_single", "run_single", None),
    ("portrl.experiment", "emit_report", "emit_report", None),
)


class Tracer:
    """Records spans of wrapped calls in one process; not thread-safe."""

    def __init__(self):
        self.spans: list = []  # (name, start_ns, end_ns, parent index or -1, attribute)
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, extract):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            attribute = extract(args, kwargs) if extract is not None else None
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, attribute)

        return wrapper

    def install(self) -> None:
        packages = [m for key, m in sys.modules.items() if key == "portrl" or key.startswith("portrl.")]
        for module_name, path, name, extract in TARGETS:
            label = f"{module_name}.{path}"
            try:
                owner = importlib.import_module(module_name)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(label)
                print(f"trace: target not found, skipped: {label}", file=sys.stderr)
                continue
            wrapper = self._wrap(name, original, extract)
            if outer:
                self._swap(owner, attr, wrapper)
                continue
            for module in packages:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._swap(module, key, wrapper)

    def _swap(self, owner, attr, wrapper) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


class SpanTable:
    """Durations, self times and ancestry of recorded spans, by name."""

    def __init__(self, spans):
        count = len(spans)
        self.names = [s[0] for s in spans]
        self.parents = [s[3] for s in spans]
        self.attributes = [s[4] for s in spans]
        self.durations = np.array([s[2] - s[1] for s in spans], dtype=np.float64) * 1e-9
        children = np.zeros(count)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                children[parent] += self.durations[i]
        self.self_times = self.durations - children
        # index of the nearest enclosing train_step, or -1
        self.step_of = [-1] * count
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                self.step_of[i] = parent if self.names[parent] == "train_step" else self.step_of[parent]
        self.by_name: dict[str, list[int]] = defaultdict(list)
        for i, name in enumerate(self.names):
            self.by_name[name].append(i)

    def durations_of(self, name, under_step=False) -> np.ndarray:
        idx = [i for i in self.by_name.get(name, ()) if not under_step or self.step_of[i] >= 0]
        return self.durations[idx]

    def median(self, name, scale) -> float:
        values = self.durations_of(name)
        return float(np.median(values)) * scale if values.size else 0.0

    def per_step(self, name, scale, where=None) -> float:
        """Total time in ``name`` spans inside train_step, per train_step."""
        steps = len(self.by_name.get("train_step", ()))
        if not steps:
            return 0.0
        idx = [i for i in self.by_name.get(name, ())
               if self.step_of[i] >= 0 and (where is None or where(self.attributes[i]))]
        return float(self.durations[idx].sum()) / steps * scale

    def per_step_count(self, name, value, where=None) -> float:
        steps = len(self.by_name.get("train_step", ()))
        if not steps:
            return 0.0
        return float(sum(value(self.attributes[i]) for i in self.by_name.get(name, ())
                         if self.step_of[i] >= 0 and (where is None or where(self.attributes[i])))) / steps

    def self_share(self, names) -> float:
        """Share of the named spans' time that no child span covers."""
        idx = [i for name in names for i in self.by_name.get(name, ())]
        total = float(self.durations[idx].sum())
        return float(self.self_times[idx].sum()) / total if total else 0.0


def layer_metrics(table: SpanTable, conv_widths: dict[int, str]) -> dict[str, tuple[float, str]]:
    """Per-layer numbers from one traced pass, as name -> (value, unit).

    ``conv_widths`` maps a conv1d_over_time kernel width to conv1, conv2
    or head. A layer the pass never entered reads 0.
    """
    ms, us = 1e3, 1e6

    def width_is(label):
        return lambda attribute: conv_widths.get(attribute[0]) == label

    def total_per(names, per_name, scale):
        """Time in all ``names`` spans per ``per_name`` call."""
        calls = len(table.by_name.get(per_name, ()))
        return sum(float(table.durations_of(n).sum()) for n in names) / calls * scale if calls else 0.0

    appends = table.durations_of("append")
    steps = len(table.by_name.get("train_step", ()))
    rewrites = table.durations_of("policy_forward", under_step=True)
    objective_self = [table.self_times[i] for i in table.by_name.get("batch_objective", ())]
    step_self = [table.self_times[i] for i in table.by_name.get("train_step", ())]
    return {
        "market_data.load_ohlc_csv_ms": (table.median("load_ohlc_csv", ms), "ms"),
        "market_data.align_split_ms": (total_per(("align_assets", "split_periods"), "align_assets", ms), "ms"),
        "market_data.price_relatives_us": (table.median("price_relatives", us), "us"),
        "normalization.fit_apply_ms": (total_per(("fit_data_max", "apply_data_max"), "fit_data_max", ms), "ms"),
        "normalization.normalize_window_us": (table.median("normalize_window", us), "us"),
        "environment.env_step_us": (table.median("env_step", us), "us"),
        "environment.build_state_us": (table.median("build_state", us), "us"),
        "environment.coerce_action_us": (table.median("coerce_action", us), "us"),
        "environment.transaction_factor_us": (table.median("transaction_factor", us), "us"),
        "environment.transaction_factor_batch_ms": (table.per_step("transaction_factor_batch", ms), "ms"),
        "policy.forward_batch_ms": (table.median("forward_batch", ms), "ms"),
        "policy.policy_forward_us": (table.median("policy_forward", us), "us"),
        "policy.policy_forward_calls_per_step": (rewrites.size / steps if steps else 0.0, "count"),
        "autodiff.conv1_ms": (table.per_step("conv1d_over_time", ms, width_is("conv1")), "ms"),
        "autodiff.conv2_ms": (table.per_step("conv1d_over_time", ms, width_is("conv2")), "ms"),
        "autodiff.head_ms": (table.per_step("conv1d_over_time", ms, width_is("head")), "ms"),
        "autodiff.softmax_ms": (table.per_step("softmax", ms), "ms"),
        "autodiff.backward_ms": (table.per_step("backward", ms), "ms"),
        "autodiff.conv1_out_elems_per_step": (
            table.per_step_count("conv1d_over_time", lambda a: a[1], width_is("conv1")), "count"),
        "training.sample_batch_us": (table.median("sample_batch", us), "us"),
        "training.adamw_ms": (table.median("adamw_step", ms), "ms"),
        "training.rewrite_ms": (float(rewrites.sum()) / steps * ms if steps else 0.0, "ms"),
        "training.objective_self_ms": (float(np.sum(objective_self)) / steps * ms if steps else 0.0, "ms"),
        "training.train_step_self_ms": (float(np.mean(step_self)) * ms if step_self else 0.0, "ms"),
        "training.fill_buffer_ms": (table.median("fill_buffer", ms), "ms"),
        "training.append_us_p50": (float(np.median(appends)) * us if appends.size else 0.0, "us"),
        "training.append_us_max": (float(appends.max()) * us if appends.size else 0.0, "us"),
        "metrics.report_ms": (table.median("report", ms), "ms"),
        "experiment.emit_report_ms": (table.median("emit_report", ms), "ms"),
    }
