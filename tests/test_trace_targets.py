"""Every function the benchmark's tracer wraps must exist in portrl, and
the tracer must still read the spans it reports per layer, at paper
shape too, and see every job of a serial campaign.

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

from helpers import bundled_campaign, random_walk_frame, trainer_config
from portrl import training
from portrl.experiment import run_campaign
from portrl.normalization import scheme_from_kind
from portrl.policy import C1, C2, K1, init_policy

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


@pytest.mark.parametrize("n_assets, length, window, batch, shape", [
    (3, 30, 6, 8, (3, 2, 4)),
    (9, 300, 50, 200, (K1, C1, C2)),
], ids=["small", "paper_shape"])
def test_traced_train_step_records_every_layer(n_assets, length, window, batch, shape):
    k1 = shape[0]
    frame = random_walk_frame(np.random.default_rng(0), n_assets, length)
    params = init_policy(n_assets, window, 0, *shape)
    trainer = training.Trainer(params, frame, window, scheme_from_kind("last_close"), 1e5, 0.0025,
                               trainer_config(batch_size=batch), np.random.default_rng(0))
    trainer.fill_buffer()
    with tracer.Tracer() as trace:
        trainer.train_step()
    assert trace.missing == []
    names = [span[0] for span in trace.spans]
    widths = {span[4][0] for span in trace.spans if span[0] == "conv1d_over_time"}
    assert widths == {k1, window - k1 + 1, 1}
    assert "softmax" in names and names.count("backward") == 1


def test_a_serial_campaign_runs_every_job_where_the_tracer_sees_it():
    config = bundled_campaign(runs=1, steps=1, online_steps=0, workers=1)
    with tracer.Tracer() as trace:
        run_campaign(config)
    assert trace.missing == []
    names = [span[0] for span in trace.spans]
    assert names.count("run_single") == len(config.methods) == 3
    assert "policy_forward" in names and "env_step" in names
