"""Every function the benchmark's tracer wraps must exist in portrl, and
the tracer must still read the spans it reports per layer.

perfbench/tracer.py is loaded read-only from the checkout; a target it
cannot resolve, or a conv call whose arguments it cannot read, would
otherwise surface only in the slow benchmark self-check
(`missing targets: none`).
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from helpers import random_walk_frame, trainer_config
from portrl import training
from portrl.normalization import scheme_from_kind
from portrl.policy import init_policy

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()
TARGETS = tracer.TARGETS


@pytest.mark.parametrize("module_name, path", [(t[0], t[1]) for t in TARGETS],
                         ids=[f"{t[0]}.{t[1]}" for t in TARGETS])
def test_trace_target_resolves(module_name, path):
    owner = importlib.import_module(module_name)
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def test_traced_train_step_records_every_layer():
    window, k1 = 6, 3
    frame = random_walk_frame(np.random.default_rng(0), 3, 30)
    params = init_policy(3, window, seed=0, k1=k1, c1=2, c2=4)
    trainer = training.Trainer(params, frame, window, scheme_from_kind("last_close"), 1e5, 0.0025,
                               trainer_config(batch_size=8), np.random.default_rng(0))
    trainer.fill_buffer()
    with tracer.Tracer() as trace:
        trainer.train_step()
    assert trace.missing == []
    names = [span[0] for span in trace.spans]
    widths = {span[4][0] for span in trace.spans if span[0] == "conv1d_over_time"}
    assert widths == {k1, window - k1 + 1, 1}
    assert "softmax" in names and names.count("backward") == 1
