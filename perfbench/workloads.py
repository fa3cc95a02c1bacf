"""The three benchmark workloads, driven through portrl's public API.

Every call into the package goes through a module attribute
(``md.load_ohlc_csv``, ``training.Trainer``), never a name bound at
import time, so the traced run's wrappers see every call.

- ``train``: steady-state ``Trainer.train_step`` at paper shape, after
  ``fill_buffer``, in equal blocks that take turns over the normalizations.
- ``rollout``: inference-only episodes, ``fill_buffer`` over the train
  frame then ``Trainer.backtest(online_steps=0)`` over the test year,
  for every normalization and several policy seeds.
- ``campaign``: ``run_campaign`` + ``emit_report`` for the three
  normalizations on a generated config with a short training phase and
  online learning over a short leading slice of the test year.

Each workload digests its deterministic outputs so that a run can be
checked against stored references and against itself.
"""

from __future__ import annotations

import dataclasses
import hashlib
import re
import shutil
import time
from datetime import date
from pathlib import Path

import numpy as np

import portrl.experiment as experiment
import portrl.market_data as md
import portrl.normalization as nz
import portrl.policy as policy
import portrl.training as training

# Paper shape: 9 assets, window 50, batch 200, conv widths 3 / 48 / 1, c1 = 2, c2 = 20.
WINDOW, BATCH, K1, C1, C2 = 50, 200, 3, 2, 20
CONV_WIDTHS = {K1: "conv1", WINDOW - K1 + 1: "conv2", 1: "head"}
COMMISSION, INITIAL_VALUE = 0.0025, 100_000.0
LEARNING_RATE, SAMPLE_BIAS, WEIGHT_DECAY = 5e-5, 0.002, 0.01
TRAIN_RANGE = (date(2018, 1, 1), date(2022, 12, 31))
TEST_RANGE = (date(2023, 1, 1), date(2023, 12, 31))
# A paper-scale run: 300k training steps plus 30 online steps per test day.
PAPER_RUN_STEPS = 300_000 + 364 * 30


@dataclasses.dataclass
class Digest:
    """Hash of a unit's output bytes plus a few of its numbers, so a
    mismatch can be told apart from a deviation beyond tolerance."""

    sha256: str
    values: list[float]
    units: int  # timed units whose outputs this digest covers

    @classmethod
    def of(cls, blobs, values, units: int) -> "Digest":
        h = hashlib.sha256()
        for blob in blobs:
            h.update(blob)
        return cls(h.hexdigest(), [float(v) for v in np.ravel(values)], units)

    def stored(self) -> dict:
        return {"sha256": self.sha256, "values": self.values}


BLOCK_SECONDS = 1.0  # timed units are grouped into blocks of at least this long


@dataclasses.dataclass
class Block:
    """Consecutive timed units of one stratum (a normalization or method):
    their time, count and latency samples."""

    stratum: str
    seconds: float = 0.0
    units: int = 0
    samples: list[float] = dataclasses.field(default_factory=list)  # seconds per unit


@dataclasses.dataclass
class Pass:
    """Outcome of one timed measuring pass."""

    blocks: list[Block] = dataclasses.field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    digests: dict[str, Digest] = dataclasses.field(default_factory=dict)
    problems: list[str] = dataclasses.field(default_factory=list)
    run_walls: list[float] = dataclasses.field(default_factory=list)
    extra: dict[str, float] = dataclasses.field(default_factory=dict)

    def add(self, stratum: str, seconds: float, units: int, samples: list[float]) -> None:
        """Book one timed item into the current block; a new block starts
        when the current one is full or belongs to another stratum."""
        last = self.blocks[-1] if self.blocks else None
        if last is None or last.stratum != stratum or last.seconds >= BLOCK_SECONDS:
            self.blocks.append(Block(stratum))
        block = self.blocks[-1]
        block.seconds += seconds
        block.units += units
        block.samples += samples

    @property
    def units(self) -> int:
        return sum(b.units for b in self.blocks)

    @property
    def wall(self) -> float:
        return sum(b.seconds for b in self.blocks)

    def record(self, key: str, digest: Digest) -> None:
        """Keep the first digest per key; a later unit that differs failed."""
        first = self.digests.setdefault(key, digest)
        if first.sha256 != digest.sha256:
            self.failed += digest.units
            self.problems.append(f"{key}: output differs from an earlier identical unit in this run")


def load_split(manifest: Path) -> md.PeriodSplit:
    entries, alignment = md.load_manifest(manifest)
    series = [md.load_ohlc_csv(path, ticker) for ticker, path in entries]
    frame = md.align_assets(series, alignment or "intersect")
    return md.split_periods(frame, TRAIN_RANGE, TEST_RANGE, WINDOW)


def normalized(kind: str, split: md.PeriodSplit):
    """(scheme, train frame, test frame) for one normalization."""
    if kind == nz.DATA_MAX:
        scheme = nz.fit_data_max(split.train)
        return scheme, nz.apply_data_max(scheme, split.train), nz.apply_data_max(scheme, split.test)
    return nz.scheme_from_kind(kind), split.train, split.test


def new_trainer(params, frame, scheme, seed: int) -> training.Trainer:
    return training.Trainer(
        params=params, frame=frame, window=WINDOW, scheme=scheme,
        initial_value=INITIAL_VALUE, commission=COMMISSION,
        config=training.TrainerConfig(learning_rate=LEARNING_RATE, batch_size=BATCH,
                                      sample_bias=SAMPLE_BIAS, weight_decay=WEIGHT_DECAY),
        rng=np.random.default_rng(seed),
    )


def new_policy(n_assets: int, seed: int):
    return policy.init_policy(n_assets, WINDOW, seed, k1=K1, c1=C1, c2=C2)


class Workload:
    """A workload: set up its state, then time units of work for a while."""

    def __init__(self, data_dir: Path, work_dir: Path, seed: int, quick: bool = False, workers: int = 1):
        self.manifest = data_dir / "portfolio.txt"
        self.work_dir = work_dir
        self.seed = seed
        self.quick = quick
        self.workers = workers

    def unit(self) -> dict:
        """Parameters that fix the digested outputs; stored with references."""
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    def measure(self, seconds: float) -> Pass:
        raise NotImplementedError


class Train(Workload):
    """train_step for each normalization from a freshly filled buffer with
    the same seed, in equal blocks that take turns over the normalizations,
    so each one is timed across the whole run."""

    DIGEST_STEPS = 20  # each normalization runs at least this many steps; their losses are digested

    def unit(self) -> dict:
        return {"digest_steps": self.DIGEST_STEPS, "batch": BATCH, "window": WINDOW}

    def setup(self) -> None:
        split = load_split(self.manifest)
        self.n_assets = split.train.n_assets
        self.frames = {kind: normalized(kind, split)[:2] for kind in nz.KINDS}
        self.trainers = {}  # release the previous set-up's buffers first
        self.trainers = {kind: self._filled(kind) for kind in nz.KINDS}

    def _filled(self, kind: str) -> training.Trainer:
        scheme, train_frame = self.frames[kind]
        trainer = new_trainer(new_policy(self.n_assets, self.seed), train_frame, scheme, self.seed)
        trainer.fill_buffer()
        return trainer

    def measure(self, seconds: float) -> Pass:
        result = Pass()
        losses = {kind: [] for kind in self.trainers}
        live = list(self.trainers)
        block = min(BLOCK_SECONDS, seconds / len(live))
        start = time.perf_counter()
        while live and (time.perf_counter() - start < seconds
                        or min(len(losses[kind]) for kind in live) < self.DIGEST_STEPS):
            for kind in list(live):
                taken = 0.0
                while taken < block:
                    result.attempted += 1
                    t0 = time.perf_counter()
                    try:
                        loss = self.trainers[kind].train_step()
                    except Exception as exc:  # a failed step ends this normalization's run and is counted
                        result.failed += 1
                        result.problems.append(f"train/{kind}: step {len(losses[kind])} raised "
                                               f"{type(exc).__name__}: {exc}")
                        live.remove(kind)
                        break
                    t1 = time.perf_counter()
                    result.add(kind, t1 - t0, 1, [t1 - t0])
                    losses[kind].append(loss)
                    taken += t1 - t0
        for kind in self.trainers:
            self._check(result, kind, losses[kind])
        return result

    def _check(self, result: Pass, kind: str, losses: list[float]) -> None:
        """Outside the timed region: invariants of the losses and of the
        rewritten buffer, and the digest of the first losses twice, from
        the timed trainer and from a fresh one with the same seed, which
        takes the timed one's place."""
        times = [s for b in result.blocks if b.stratum == kind for s in b.samples]
        if times:
            result.extra[f"step_ms_p50.{kind}"] = float(np.median(times)) * 1e3
        actions = self.trainers[kind].buffer.last_actions
        if not np.isfinite(losses).all():
            problem = "non-finite loss"
        elif (actions < 0).any() or np.abs(actions.sum(axis=1) - 1.0).max() > 1e-9:
            problem = "rewritten buffer actions off the simplex"
        else:
            problem = None
        if problem:
            result.failed += len(losses)
            result.problems.append(f"train/{kind}: {problem}")
        if len(losses) < self.DIGEST_STEPS:
            return
        result.record(kind, self._digest(losses[: self.DIGEST_STEPS]))
        self.trainers[kind] = None
        try:
            self.trainers[kind] = self._filled(kind)
            replay = [self.trainers[kind].train_step() for _ in range(self.DIGEST_STEPS)]
        except Exception as exc:
            result.failed += self.DIGEST_STEPS
            result.problems.append(f"train/{kind}: replay raised {type(exc).__name__}: {exc}")
            return
        result.record(kind, self._digest(replay))

    def _digest(self, losses: list[float]) -> Digest:
        head = np.array(losses)
        return Digest.of([head.tobytes()], head, self.DIGEST_STEPS)


class Rollout(Workload):
    """Inference-only episodes cycling over normalization x policy seed."""

    POLICY_SEEDS = 4

    def unit(self) -> dict:
        return {"policy_seeds": self.POLICY_SEEDS, "window": WINDOW,
                "test": [str(d) for d in TEST_RANGE]}

    def setup(self) -> None:
        split = load_split(self.manifest)
        self.episodes = []
        for kind in nz.KINDS:
            scheme, train_frame, test_frame = normalized(kind, split)
            for k in range(self.POLICY_SEEDS):
                seed = self.seed + k
                params = new_policy(split.train.n_assets, seed)
                self.episodes.append((kind, f"{kind}/{k}", params, scheme, train_frame, test_frame, seed))

    def measure(self, seconds: float) -> Pass:
        result = Pass()
        start = time.perf_counter()
        done = 0
        while done < len(self.episodes) or time.perf_counter() - start < seconds:
            kind, key, params, scheme, train_frame, test_frame, seed = self.episodes[done % len(self.episodes)]
            done += 1
            result.attempted += 1
            t0 = time.perf_counter()
            try:
                trainer = new_trainer(params, train_frame, scheme, seed)
                buffer = trainer.fill_buffer()
                traj = trainer.backtest(test_frame, online_steps=0)
            except Exception as exc:
                result.failed += 1
                result.problems.append(f"rollout/{key}: episode raised {type(exc).__name__}: {exc}")
                continue
            elapsed, decisions = time.perf_counter() - t0, len(buffer) + len(traj)
            result.add(kind, elapsed, decisions, [elapsed / decisions])
            problem = trajectory_problem(traj)
            if problem:
                result.failed += 1
                result.problems.append(f"rollout/{key}: {problem}")
                continue
            marks = traj.values[np.linspace(0, len(traj) - 1, 5).astype(int)]
            values = np.concatenate([marks, traj.actions.mean(axis=0)])
            result.record(key, Digest.of([traj.actions.tobytes(), traj.values.tobytes()], values, 1))
        return result


def trajectory_problem(traj) -> str | None:
    """Invariants of a backtest: weights on the simplex, positive values,
    and each value ratio equal to the exponentiated reward."""
    if not np.isfinite(traj.values).all() or (traj.values <= 0).any():
        return "non-positive or non-finite portfolio value"
    if (traj.actions < 0).any() or np.abs(traj.actions.sum(axis=1) - 1.0).max() > 1e-9:
        return "weights off the simplex"
    ratios = traj.values[1:] / traj.values[:-1]
    if np.abs(ratios / np.exp(traj.rewards[1:]) - 1.0).max() > 1e-9:
        return "value ratios disagree with rewards"
    return None


class Campaign(Workload):
    """run_campaign + emit_report for each normalization on a generated config."""

    # Seeds per method, training steps, and the leading test slice with
    # the paper's 30 online steps per test day (3 decisions to 2023-01-04).
    FULL = {"runs": 2, "steps": 20, "online_steps": 30, "test_end": "2023-01-04"}
    QUICK = {"runs": 1, "steps": 5, "online_steps": 30, "test_end": "2023-01-04"}

    def unit(self) -> dict:
        return dict(self.QUICK if self.quick else self.FULL)

    def setup(self) -> None:
        s = self.unit()
        text = "\n".join([
            f"manifest = {self.manifest.resolve()}",
            f"train_start = {TRAIN_RANGE[0]}",
            f"train_end = {TRAIN_RANGE[1]}",
            f"test_start = {TEST_RANGE[0]}",
            f"test_end = {s['test_end']}",
            f"normalization = {nz.KINDS[0]}",
            f"learning_rate = {LEARNING_RATE!r}",
            f"batch_size = {BATCH}",
            f"sample_bias = {SAMPLE_BIAS!r}",
            f"steps = {s['steps']}",
            f"online_steps = {s['online_steps']}",
            f"time_window = {WINDOW}",
            f"commission_rate = {COMMISSION!r}",
            f"initial_value = {INITIAL_VALUE!r}",
            f"weight_decay = {WEIGHT_DECAY!r}",
            f"runs = {s['runs']}",
            f"base_seed = {self.seed}",
            f"workers = {self.workers}",
        ]) + "\n"
        path = self.work_dir / "campaign.cfg"
        path.write_text(text)
        base = experiment.load_config(path)
        self.configs = [dataclasses.replace(base, normalization=kind) for kind in nz.KINDS]
        # Every run loads and normalizes the basket inside the timed region;
        # do it once per method here too, so bad generated data fails before
        # timing and set-up time follows the load path.
        for kind in nz.KINDS:
            normalized(kind, load_split(self.manifest))

    def measure(self, seconds: float) -> Pass:
        """Whole passes over the three methods; each method's run_campaign
        + emit_report is one timing block, each pass one digest."""
        result = Pass()
        start = time.perf_counter()
        unit = 0
        while unit == 0 or time.perf_counter() - start < seconds:
            out = self.work_dir / f"campaign_unit_{unit}"
            unit += 1
            blobs, values = [], []
            try:
                for config in self.configs:
                    result.attempted += config.runs
                    t0 = time.perf_counter()
                    try:
                        report = experiment.run_campaign(config)
                        campaign_wall = time.perf_counter() - t0
                        experiment.emit_report(report, out / config.normalization)
                    except Exception as exc:
                        result.failed += config.runs
                        result.problems.append(f"campaign/{config.normalization}: raised {type(exc).__name__}: {exc}")
                        break
                    elapsed = time.perf_counter() - t0
                    method = report.methods[config.normalization]
                    walls = [r.wall_time for r in method.results]
                    result.add(config.normalization, elapsed, config.runs, walls)
                    result.run_walls += walls
                    result.extra["campaign_wall"] = result.extra.get("campaign_wall", 0.0) + campaign_wall
                    for seed, message in method.failures:
                        result.failed += 1
                        result.problems.append(f"campaign/{config.normalization}: seed {seed} failed: {message}")
                    problem = self._fapv_problem(out / config.normalization, method)
                    if problem:
                        result.failed += len(method.results)
                        result.problems.append(f"campaign/{config.normalization}: {problem}")
                    blobs += self._output_bytes(out / config.normalization, method)
                    values += [[r.metrics.fapv, r.metrics.mdd, r.metrics.sharpe, r.metrics.sharpe_excess]
                               for r in method.results]
                else:
                    if len(values) == sum(c.runs for c in self.configs):
                        result.record("campaign", Digest.of(blobs, values, len(values)))
            finally:
                shutil.rmtree(out, ignore_errors=True)
        return result

    def _output_bytes(self, out: Path, method) -> list[bytes]:
        """summary.json and the trajectory files, made independent of where
        the run happened: the manifest path and the worker count are the
        only fields that differ between identical campaigns."""
        summary = (out / "summary.json").read_text()
        summary = summary.replace(str(self.manifest.resolve()), "<manifest>")
        summary = re.sub(r'"workers": "\d+"', '"workers": "*"', summary)
        blobs = [summary.encode()]
        for r in method.results:
            blobs.append((out / r.trajectory_path).read_bytes())
        return blobs

    @staticmethod
    def _fapv_problem(out: Path, method) -> str | None:
        """Each run's reported FAPV must be its trajectory's last value over
        the initial value."""
        for r in method.results:
            last = (out / r.trajectory_path).read_text().rstrip("\n").rsplit("\n", 1)[-1]
            final = float(last.split("\t")[1])
            if final / INITIAL_VALUE != r.metrics.fapv:
                return f"seed {r.seed}: fapv {r.metrics.fapv!r} but trajectory ends at {final!r}"
        return None


WORKLOADS = {"train": Train, "rollout": Rollout, "campaign": Campaign}
