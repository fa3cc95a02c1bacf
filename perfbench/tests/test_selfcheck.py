"""Self-check of the benchmark at toy size.

    python3 -m pytest -q perfbench/tests

Runs every workload in quick mode, untraced and traced, and checks that
each metric named in BENCHMARK.json is emitted with its unit, that the
traced and untraced passes give the same digests, that a wrapped
function which no longer exists is reported by name without crashing
the run, that a slowdown of one normalization alone shows end to end,
that the default seed regenerates the bundled basket byte for
byte, and that the benchmark refuses to run without a portrl checkout.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "perfbench" / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT, code=None):
    command = [sys.executable, str(RUN), *args] if code is None else [sys.executable, "-c", code, *args]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=300)


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


@pytest.mark.parametrize("workload", ["train", "rollout", "campaign"])
@pytest.mark.parametrize("trace", [0, 1])
def test_quick_run_emits_every_metric_with_its_unit(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--quick")
    result = result_of(proc)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end" if trace == 0 else "per_layer"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    assert "machine: " in proc.stdout
    if trace:
        assert "passes agree on every digest" in proc.stderr, proc.stderr[-3000:]
        assert "missing targets: none" in proc.stderr


def test_missing_trace_target_is_reported_by_name():
    code = (
        "import runpy, sys\n"
        f"sys.path[:0] = [{str(RUN.parent)!r}, {str(ROOT / 'src')!r}]\n"
        "import portrl.experiment\n"
        "del portrl.experiment.emit_report\n"
        f"sys.argv = [{str(RUN)!r}] + sys.argv[1:]\n"
        f"runpy.run_path({str(RUN)!r}, run_name='__main__')\n"
    )
    proc = bench("--workload", "train", "--seconds", "1", "--trace", "1", "--quick", code=code)
    result = result_of(proc)
    assert result["correct"]
    assert "target not found, skipped: portrl.experiment.emit_report" in proc.stderr
    assert result["metrics"]["experiment.emit_report_ms"]["value"] == 0.0


def test_slowdown_of_one_normalization_shows_end_to_end():
    """Slowing train_step for one normalization alone must lower units_per_s
    and raise unit_ms_p50: the calm blocks are chosen within each stratum."""
    code = textwrap.dedent(f"""
        import json, sys, time
        sys.path[:0] = [{str(RUN.parent)!r}]
        import run
        generator = run.prepare()
        import workloads
        with run.workspace(generator, "slowdown", 3) as work:
            train = workloads.Train(work / "data", work, 3, quick=True)
            train.setup()
            plain = run.end_to_end(0.0, train.measure(3.0), 1.0)
            train.setup()
            trainer = train.trainers[workloads.nz.KINDS[-1]]
            step = trainer.train_step
            def slow_step():
                time.sleep(0.1)
                return step()
            trainer.train_step = slow_step
            slowed = run.end_to_end(0.0, train.measure(3.0), 1.0)
        print(json.dumps({{"plain": plain, "slowed": slowed}}))
    """)
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-3000:]
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    plain, slowed = out["plain"], out["slowed"]
    assert slowed["units_per_s"][0] < 0.7 * plain["units_per_s"][0], out
    assert slowed["unit_ms_p50"][0] > 1.4 * plain["unit_ms_p50"][0], out


def test_default_seed_regenerates_bundled_basket(tmp_path):
    generator = ROOT / "scripts" / "make_synthetic_market.py"
    subprocess.run([sys.executable, str(generator), "--out", str(tmp_path), "--seed", "20180101"],
                   check=True, capture_output=True, timeout=120)
    bundled = ROOT / "data" / "synth_crypto"
    names = sorted(p.name for p in bundled.iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == names
    for name in names:
        assert (tmp_path / name).read_bytes() == (bundled / name).read_bytes(), name


def test_refuses_to_run_without_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "train", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
