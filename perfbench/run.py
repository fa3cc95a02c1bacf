#!/usr/bin/env python3
"""portrl benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload train --seed 20180101 --seconds 20 --trace 0

Runs from the root of a checkout and imports portrl from its ``src``.
Outside any timed region it regenerates the 9-asset basket from
``--seed`` with ``scripts/make_synthetic_market.py`` (seed 20180101 gives
``data/synth_crypto`` byte for byte) and uses the same seed for the
policy and trainer RNGs. ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer ones from a traced pass plus an untraced
pass of equal length. The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
TOLERANCE_RTOL = 1e-6  # digest values may deviate this much from the reference before a unit fails
# Set-ups timed before and after the timed pass: their median samples the
# host at both ends of a run, not in one state only.
SETUP_REPEATS = (4, 3)
# The unit whose self time counts as unattributed, per workload.
TOP_SPANS = {"train": ("train_step",), "rollout": ("fill_buffer", "backtest"), "campaign": ("run_single",)}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("train", "rollout", "campaign"))
    parser.add_argument("--seed", type=int, default=20180101)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="toy size for self-checks: one set-up, a one-seed campaign")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_checkout():
    """Import portrl and the data generator from this checkout, never from
    anywhere else on the path."""
    src, generator = ROOT / "src", ROOT / "scripts" / "make_synthetic_market.py"
    if not (src / "portrl" / "__init__.py").is_file() or not generator.is_file():
        raise SystemExit(f"benchmark: {ROOT} holds no portrl checkout (need src/portrl and {generator.name})")
    sys.path.insert(0, str(src))
    import portrl

    if Path(portrl.__file__).resolve().parent != (src / "portrl").resolve():
        raise SystemExit(f"benchmark: imported portrl from {portrl.__file__}, not from {src}")
    spec = importlib.util.spec_from_file_location("make_synthetic_market", generator)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def machine() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = next((line.split(":", 1)[1].strip() for line in Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
    }


def pss_kb(pid: int) -> int:
    """Proportional set size of one process, 0 once it has gone."""
    with contextlib.suppress(OSError):
        for line in Path(f"/proc/{pid}/smaps_rollup").read_text().splitlines():
            if line.startswith("Pss:"):
                return int(line.split()[1])
    return 0


def tree_pss_kb(pid: int) -> int:
    """Summed PSS of ``pid`` and all its descendants. PSS splits each shared
    page among its sharers, so pages forked workers share with this
    process count once."""
    total = pss_kb(pid)
    with contextlib.suppress(OSError):
        for task in os.listdir(f"/proc/{pid}/task"):
            with contextlib.suppress(OSError):
                for child in Path(f"/proc/{pid}/task/{task}/children").read_text().split():
                    total += tree_pss_kb(int(child))
    return total


class TreePeak:
    """Samples this process tree's summed PSS every ``interval`` seconds in a
    thread while the ``with`` body runs; ``peak_mb`` is the largest sample."""

    def __init__(self, interval: float = 0.05):
        self.interval = interval
        self.peak_kb = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def _sample(self) -> None:
        while True:
            self.peak_kb = max(self.peak_kb, tree_pss_kb(os.getpid()))
            if self._stop.wait(self.interval):
                return

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    @property
    def peak_mb(self) -> float:
        return self.peak_kb / 1024.0


def own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_setups(workload, repeats: int) -> list[float]:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        workload.setup()
        times.append(time.perf_counter() - t0)
    return times


def quantile(samples, q: float) -> float:
    import numpy as np

    return float(np.quantile(samples, q)) if samples else 0.0


def calm_strata(result) -> list:
    """For each stratum (a normalization on train and rollout, a method on
    campaign) the middle half of its blocks by time per unit: the fastest
    and the slowest quarter are dropped. A shared host changes speed by a
    third or more for stretches of seconds to minutes; trimming both ends
    keeps such stretches from deciding a run's figures, while every stratum
    keeps its weight, so a slowdown confined to one normalization or
    method still shows."""
    strata = {}
    for block in result.blocks:
        strata.setdefault(block.stratum, []).append(block)
    calm = []
    for blocks in strata.values():
        blocks = sorted(blocks, key=lambda b: b.seconds / b.units)
        trim = len(blocks) // 4
        calm.append(blocks[trim: len(blocks) - trim])
    return calm


def end_to_end(setup_s, result, peak_mb) -> dict:
    """Strata weigh equally: the rate is that of a workload doing as many
    units of each stratum, and each percentile is the mean of the strata's."""
    calm = calm_strata(result)
    per_unit = [sum(b.seconds for b in blocks) / sum(b.units for b in blocks) for blocks in calm]
    samples = [[s for b in blocks for s in b.samples] for blocks in calm]
    print(f"timing: {sum(map(len, calm))} of {len(result.blocks)} blocks kept over {len(calm)} strata, "
          f"{sum(b.units for blocks in calm for b in blocks)} units, {sum(map(len, samples))} latency samples",
          file=sys.stderr)
    return {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_mb, "MB"),
        "units_per_s": (1.0 / statistics.mean(per_unit) if per_unit else 0.0, "1/s"),
        "unit_ms_p50": (statistics.mean(quantile(x, 0.5) for x in samples) * 1e3 if samples else 0.0, "ms"),
        "unit_ms_p90": (statistics.mean(quantile(x, 0.9) for x in samples) * 1e3 if samples else 0.0, "ms"),
    }


def check_reference(name, seed, unit, passes) -> tuple[int, list[str]]:
    """Compare each digest with the stored reference for (seed, workload) and
    with the same digest in the other passes. Returns (failed units, notes)."""
    import numpy as np

    failed, notes = 0, []
    first = passes[0].digests
    for other in passes[1:]:
        for key, digest in other.digests.items():
            if key in first and first[key].sha256 != digest.sha256:
                failed += digest.units
                notes.append(f"DEVIATION {name}/{key}: the passes of this run differ")
    if len(passes) > 1 and not failed:
        notes.append(f"{name}: all {len(passes)} passes agree on every digest ({len(first)} keys)")
    stored = json.loads((HERE / "reference.json").read_text()).get(str(seed), {}).get(name)
    if stored is None or stored["unit"] != unit:
        notes.append(f"no stored reference for seed {seed} with this {name} unit; checked invariants and repeats only")
        return failed, notes
    for key, digest in first.items():
        ref = stored["digests"].get(key)
        if ref is None:
            failed += digest.units
            notes.append(f"DEVIATION {name}/{key}: no reference value stored")
        elif ref["sha256"] == digest.sha256:
            notes.append(f"{name}/{key}: bitwise match with reference")
        elif np.allclose(digest.values, ref["values"], rtol=TOLERANCE_RTOL, atol=0.0):
            got, want = np.array(digest.values), np.array(ref["values"])
            dev = np.max(np.abs(got - want) / np.maximum(np.abs(want), np.finfo(float).tiny))
            notes.append(f"{name}/{key}: not bitwise, within rtol {TOLERANCE_RTOL:g} (max rel dev {dev:.3g})")
        else:
            failed += digest.units
            notes.append(f"DEVIATION {name}/{key}: {digest.values} vs reference {ref['values']}")
    missing = sorted(set(stored["digests"]) - set(first))
    if missing:
        notes.append(f"{name}: reference keys not reached in this run: {missing}")
    return failed, notes


def per_workload_names(name, metrics, attempted, failed) -> list[str]:
    """The same numbers under their per-workload names, for people."""
    from workloads import PAPER_RUN_STEPS

    rate = metrics["units_per_s"][0]
    p50, p90 = metrics["unit_ms_p50"][0], metrics["unit_ms_p90"][0]
    rows = [("setup_s", metrics["setup_s"][0], "s"), ("peak_rss_mb", metrics["peak_rss_mb"][0], "MB"),
            ("error_rate", failed / attempted if attempted else 1.0, "ratio")]
    if name == "train":
        rows += [("train_steps_per_s", rate, "1/s"), ("step_ms_p50", p50, "ms"), ("step_ms_p90", p90, "ms"),
                 ("paper_run_h", PAPER_RUN_STEPS / rate / 3600 if rate else float("inf"), "h")]
    elif name == "rollout":
        rows += [("decisions_per_s", rate, "1/s"), ("decision_us_p50", p50 * 1e3, "us"),
                 ("decision_us_p90", p90 * 1e3, "us")]
    else:
        rows += [("campaign_runs_per_h", rate * 3600, "1/h"), ("run_s_p50", p50 / 1e3, "s"),
                 ("run_s_p90", p90 / 1e3, "s")]
    return [f"  {label:<22} {value:.6g} {unit}" for label, value, unit in rows]


@contextlib.contextmanager
def workspace(generator, label: str, seed: int):
    """A working directory inside the checkout holding the basket generated
    from ``seed`` under ``data/``; removed on exit."""
    work = ROOT / ".perfbench_work" / f"{label}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        with contextlib.redirect_stdout(sys.stderr):
            generator.main(["--out", str(work / "data"), "--seed", str(seed)])
        yield work
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()


def campaign_workers(quick: bool) -> int:
    from workloads import Campaign

    return 1 if quick else min(len(os.sched_getaffinity(0)), Campaign.FULL["runs"])


def run(args, generator) -> dict:
    import tracer as tracing
    import workloads

    workers = campaign_workers(args.quick) if args.workload == "campaign" else 1
    with workspace(generator, args.workload, args.seed) as work:
        def make(workers):
            return workloads.WORKLOADS[args.workload](work / "data", work, args.seed, args.quick, workers)

        if not args.trace:
            workload = make(workers)
            before, after = (1, 0) if args.quick else SETUP_REPEATS
            setups = timed_setups(workload, before)
            if args.workload == "campaign":
                # The workers are separate processes: sample the whole tree.
                with TreePeak() as peak:
                    passes = [workload.measure(args.seconds)]
                peak_mb = peak.peak_mb
            else:
                passes = [workload.measure(args.seconds)]
                peak_mb = own_peak_rss_mb()
            setups += timed_setups(workload, after)
            metrics = end_to_end(statistics.median(setups), passes[0], peak_mb)
            unit = workload.unit()
        else:
            # An untraced pass as in --trace 0; for campaign also an untraced
            # serial pass, because the traced pass runs serially to keep its
            # spans in this process; then the traced pass.
            plain = make(workers)
            serial = make(1) if workers > 1 else None
            share = args.seconds / (3 if serial else 2)
            timed_setups(plain, 1)
            passes = [plain.measure(share)]
            if serial is not None:
                timed_setups(serial, 1)
                passes.append(serial.measure(share))
            traced_workload = serial or make(workers)
            with tracing.Tracer() as tracer:
                timed_setups(traced_workload, 1)
                passes.append(traced_workload.measure(share))
            metrics = trace_metrics(args.workload, tracing, workloads, tracer, passes, workers)
            unit = plain.unit()
        attempted = sum(p.attempted for p in passes)
        failed = sum(p.failed for p in passes)
        ref_failed, notes = check_reference(args.workload, args.seed, unit, passes)
        failed += ref_failed
        notes += [f"DEVIATION {problem}" for p in passes for problem in p.problems]
        for note in notes:
            print(f"check: {note}", file=sys.stderr)
        if not args.trace:
            print("\n".join(per_workload_names(args.workload, metrics, attempted, failed)), file=sys.stderr)
    return {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }


def trace_metrics(name, tracing, workloads, tracer, passes, workers) -> dict:
    import numpy as np

    base, untraced, traced = passes[0], passes[-2], passes[-1]
    table = tracing.SpanTable(tracer.spans)
    metrics = tracing.layer_metrics(table, workloads.CONV_WIDTHS)
    for kind in workloads.nz.KINDS:
        metrics[f"training.step_ms_p50.{kind}"] = (base.extra.get(f"step_ms_p50.{kind}", 0.0), "ms")
    campaign_wall = base.extra.get("campaign_wall", 0.0)
    metrics["experiment.run_single_s"] = (float(np.median(traced.run_walls)) if traced.run_walls else 0.0, "s")
    metrics["experiment.worker_busy_share"] = (
        sum(base.run_walls) / (workers * campaign_wall) if campaign_wall else 0.0, "ratio")
    rate_plain = untraced.units / untraced.wall if untraced.wall else 0.0
    rate_traced = traced.units / traced.wall if traced.wall else 0.0
    metrics["trace.overhead_pct"] = (100.0 * (rate_plain / rate_traced - 1.0) if rate_traced else 0.0, "%")
    metrics["trace.unattributed_share"] = (table.self_share(TOP_SPANS[name]), "ratio")
    for key, (value, unit) in metrics.items():
        print(f"  {key:<42} {value:.6g} {unit}", file=sys.stderr)
    print(f"trace: {len(tracer.spans)} spans; missing targets: {tracer.missing or 'none'}", file=sys.stderr)
    return metrics


def prepare():
    """Pin BLAS to one thread before numpy loads (campaign workers inherit
    it), then import the checkout; returns the data generator module."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    return import_checkout()


def main(argv=None) -> int:
    args = parse_args(argv)
    generator = prepare()
    info = machine()
    print(f"machine: {json.dumps(info, sort_keys=True)}")
    result = run(args, generator)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
