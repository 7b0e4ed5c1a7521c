"""The benchmark workloads.

Each workload makes its inputs from the workload seed in ``setup``, then
runs rounds of identical work. A round passes every call into the library
through a ``Timer``, so that only the program is timed (and, in the
traced run, only the program records spans), and checks the outputs
afterwards. Training is bit-reproducible, so every round must repeat the
first round's outputs exactly.

Why these three:

- ``train_b256``: the five losses at batch 256, where the O(n^3) loss
  core is nearly all of a step and encoder and Adam are below 1%.
- ``grid_c8``: ``dynlocrep benchmark`` at the paper defaults on the
  acceptance-criterion-8 grid, cut to two seeds; the configuration users
  run (650 batch-32 steps per train, so per-call Python overhead counts),
  the paper-reproduction path and the only one with many independent runs.
- ``cli_export``: ``dynlocrep train`` on a 10 000-row CSV with an export
  at every epoch; the only path where artifact reading and writing is a
  large share.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from dynlocrep import cli, data, encoder, evaluation, training
from dynlocrep.encoder import EncoderConfig, OptimConfig
from dynlocrep.errors import DynLocRepError
from dynlocrep.losses import LossVariant

from .timing import Timer

VARIANTS = [v.value for v in LossVariant]
TEST_FRACTION = 0.2
RUN_SEED = 0  # split and training seed of single runs, as in the grid's first run


@dataclass
class Round:
    """What one round did: program seconds, quality, rows trained, check results."""

    wall_s: float = 0.0
    train_s: dict[str, float] = field(default_factory=dict)
    mae: dict[str, float] = field(default_factory=dict)
    rows: int = 0
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    bytes_written: int = 0

    def fail(self, runs: int, messages: list[str]) -> None:
        self.failed += runs
        self.failures.extend(messages)


def trained_rows(n: int, batch_size: int, epochs: int) -> int:
    """Rows passed through training steps; ``train`` drops a trailing singleton batch."""
    return epochs * (n - 1 if n % batch_size == 1 else n)


def readout_mae(model: encoder.Encoder, train: data.Dataset, test: data.Dataset) -> float:
    """Ridge readout on the unit embeddings, scored on the held-out side."""
    readout = evaluation.ridge_fit(
        model.forward(train.features).unit, train.labels, evaluation.RidgeConfig()
    )
    return evaluation.mae(readout.predict(model.forward(test.features).unit), test.labels)


class Workload:
    """Inputs from a seed, then identical rounds; subclasses set the sizes."""

    batch_size = 32

    def __init__(self) -> None:
        self.recorded: dict[str, object] = {}
        self.dataset: data.Dataset | None = None

    def setup(self, seed: int, workdir: Path) -> None:
        """Make the inputs from the seed; ``dataset`` is the data trained on."""
        raise NotImplementedError

    def round(self, timer: Timer) -> Round:
        raise NotImplementedError

    def check_same(self, key: str, value: object, failures: list[str]) -> None:
        """Record ``value`` on first sight; afterwards it must repeat exactly."""
        expected = self.recorded.setdefault(key, value)
        if value != expected:
            failures.append(f"{key}: {value!r} differs from the first round's {expected!r}")


class TrainWorkload(Workload):
    """One ``training.train`` per variant on the training side of a synthetic split."""

    def __init__(self, n: int, batch_size: int, epochs: int) -> None:
        super().__init__()
        self.n = n
        self.batch_size = batch_size
        self.config = training.TrainConfig(epochs=epochs, batch_size=batch_size, seed=RUN_SEED)

    def setup(self, seed: int, workdir: Path) -> None:
        dataset = data.generate_synthetic(data.SyntheticSpec(n=self.n), seed)
        self.train, self.test = data.split(dataset, TEST_FRACTION, RUN_SEED)
        self.dataset = self.train

    def round(self, timer: Timer) -> Round:
        result = Round()
        for variant in VARIANTS:
            result.attempted += 1
            try:
                run, seconds = timer(
                    training.train,
                    self.train,
                    replace(self.config, variant=LossVariant(variant)),
                    OptimConfig(),
                    EncoderConfig(input_dim=self.train.feature_dim),
                )
            except DynLocRepError as exc:
                result.fail(1, [f"{variant}: {exc}"])
                continue
            failures: list[str] = []
            final_loss = run.trace[-1]["mean_loss"]
            if not math.isfinite(final_loss):
                failures.append(f"{variant}: final mean loss {final_loss}")
            self.check_same(f"{variant}.final_loss", final_loss, failures)
            mae = readout_mae(run.encoder, self.train, self.test)
            self.check_same(f"{variant}.mae", mae, failures)
            if failures:
                result.fail(1, failures)
            result.train_s[variant] = seconds
            result.mae[variant] = mae
            result.wall_s += seconds
            result.rows += trained_rows(self.train.n, self.batch_size, self.config.epochs)
        return result


class GridWorkload(Workload):
    """``dynlocrep benchmark`` through ``cli.main``, one command per variant.

    One command per variant keeps each timed call near two seconds, so the
    reference kernel runs often enough to follow the machine's speed; the
    five reports together make the criterion-8 grid.
    """

    n = 500
    seeds = (0, 1)
    epochs = 50  # the command's default

    def setup(self, seed: int, workdir: Path) -> None:
        self.dataset = data.generate_synthetic(data.SyntheticSpec(n=self.n), seed)
        self.csv = workdir / "grid.csv"
        data.write_csv(self.dataset, self.csv)
        self.workdir = workdir
        self.n_train = self.n - int(math.floor(self.n * TEST_FRACTION + 0.5))

    def round(self, timer: Timer) -> Round:
        result = Round()
        reports = {}
        for variant in VARIANTS:
            out = self.workdir / f"grid_{variant}.json"
            argv = [
                "benchmark",
                "--data", str(self.csv),
                "--variants", variant,
                "--seeds", ",".join(str(s) for s in self.seeds),
                "--out", str(out),
            ]
            result.attempted += len(self.seeds)
            with contextlib.redirect_stdout(io.StringIO()):
                code, seconds = timer(cli.main, argv)
            if code != 0:
                result.fail(len(self.seeds), [f"dynlocrep benchmark --variants {variant} exited {code}"])
                continue
            result.bytes_written += out.stat().st_size
            reports[variant] = json.loads(out.read_text())
            result.train_s[variant] = seconds
            result.wall_s += seconds
            result.rows += len(self.seeds) * trained_rows(self.n_train, self.batch_size, self.epochs)
        if len(reports) < len(VARIANTS):
            return result
        failures = []
        baselines = [report["baselines"] for report in reports.values()]
        if any(b != baselines[0] for b in baselines):
            failures.append("the baseline MAEs differ between benchmark commands")
        grid = {
            "variants": {v: report["variants"][v] for v, report in reports.items()},
            "baselines": baselines[0],
        }
        for variant, entry in grid["variants"].items():
            result.mae[variant] = entry["mean_mae"]
            self.check_same(f"{variant}.report", evaluation.strip_timing(reports[variant]), failures)
        failures.extend(criterion_8_failures(grid))
        if failures:
            result.fail(result.attempted, failures)
        return result


def criterion_8_failures(report: dict) -> list[str]:
    """Acceptance criterion 8's ordering of the localized loss against the baselines."""
    dyn = report["variants"]["dynlocrep"]["mean_mae"]
    raw = report["baselines"]["raw_features"]["mean_mae"]
    untrained = report["baselines"]["untrained_encoder"]["mean_mae"]
    worst = max(e["mean_mae"] for name, e in report["variants"].items() if name != "dynlocrep")
    failures = []
    if not dyn < raw:
        failures.append(f"dynlocrep MAE {dyn} not below raw-feature ridge {raw}")
    if not dyn < untrained:
        failures.append(f"dynlocrep MAE {dyn} not below untrained encoder {untrained}")
    if not dyn <= worst:
        failures.append(f"dynlocrep MAE {dyn} above the worst baseline {worst}")
    return failures


class CliExportWorkload(Workload):
    """``dynlocrep train`` per variant with an embedding export at every epoch."""

    n_train = 10_000
    epochs = 2

    def setup(self, seed: int, workdir: Path) -> None:
        n = round(self.n_train / (1 - TEST_FRACTION))
        dataset = data.generate_synthetic(data.SyntheticSpec(n=n), seed)
        self.train, self.test = data.split(dataset, TEST_FRACTION, RUN_SEED)
        self.dataset = self.train
        self.csv = workdir / "train.csv"
        data.write_csv(self.train, self.csv)
        self.out_root = workdir / "cli_out"

    def round(self, timer: Timer) -> Round:
        result = Round()
        for variant in VARIANTS:
            result.attempted += 1
            out_dir = self.out_root / variant
            shutil.rmtree(out_dir, ignore_errors=True)
            argv = [
                "train",
                "--data", str(self.csv),
                "--out-dir", str(out_dir),
                "--loss", variant,
                "--epochs", str(self.epochs),
                "--export-epochs", ",".join(str(e) for e in range(1, self.epochs + 1)),
            ]
            with contextlib.redirect_stdout(io.StringIO()):
                code, seconds = timer(cli.main, argv)
            if code != 0:
                result.fail(1, [f"dynlocrep train --loss {variant} exited {code}"])
                continue
            failures = self._check_artifacts(variant, out_dir, result)
            if failures:
                result.fail(1, failures)
            result.train_s[variant] = seconds
            result.wall_s += seconds
            result.rows += trained_rows(self.train.n, self.batch_size, self.epochs)
            result.bytes_written += sum(p.stat().st_size for p in out_dir.iterdir())
        return result

    def _check_artifacts(self, variant: str, out_dir: Path, result: Round) -> list[str]:
        """One trace line per epoch, one export row per sample, and a checkpoint
        that reloads and reproduces the last export exactly; records the MAE."""
        failures = []
        trace = (out_dir / "trace.jsonl").read_text().splitlines()
        if len(trace) != self.epochs:
            failures.append(f"{variant}: trace has {len(trace)} lines, expected {self.epochs}")
        else:
            self.check_same(f"{variant}.final_loss", json.loads(trace[-1])["mean_loss"], failures)
        try:
            model = encoder.load_checkpoint(out_dir / "encoder.txt")
        except DynLocRepError as exc:
            return failures + [f"{variant}: checkpoint does not reload: {exc}"]
        columns = range(3, 3 + model.layer_dims[-1])  # epoch,id,y,z0..
        for epoch in range(1, self.epochs + 1):
            path = out_dir / f"embeddings_epoch{epoch}.csv"
            rows = np.loadtxt(path, delimiter=",", skiprows=1, usecols=columns, ndmin=2)
            if rows.shape[0] != self.train.n:
                failures.append(
                    f"{variant}: export {epoch} has {rows.shape[0]} rows, expected {self.train.n}"
                )
        if not np.array_equal(rows, model.forward(self.train.features).unit):
            failures.append(f"{variant}: reloaded checkpoint does not reproduce the last export")
        mae = readout_mae(model, self.train, self.test)
        self.check_same(f"{variant}.mae", mae, failures)
        result.mae[variant] = mae
        return failures


def make(name: str) -> Workload:
    if name == "train_b256":
        return TrainWorkload(n=1024, batch_size=256, epochs=2)
    if name == "grid_c8":
        return GridWorkload()
    if name == "cli_export":
        return CliExportWorkload()
    raise ValueError(f"unknown workload {name!r}")
