"""Epoch loop wiring the neighbor schedule into the loss and optimizer.

Training is single threaded and bit-reproducible: the epoch shuffle is
derived from (seed, epoch), so a given configuration always visits the
same batches, and every numeric step is deterministic.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .encoder import Adam, Encoder, EncoderConfig, OptimConfig, init_encoder
from .errors import ConfigError, InputError, NumericalError, _check_int, _sequence
from .losses import LossConfig, LossVariant, loss_with_gradient
from .schedule import ScheduleConfig, neighbors_at_epoch


@dataclass(frozen=True)
class TrainConfig(LossConfig):
    """Full recipe for one training run: the loss settings plus the run's own."""

    epochs: int = 50
    batch_size: int = 32
    seed: int = 0
    nn_final: int = 14
    nn_step_size: int = 1
    export_epochs: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        # every variant checks the schedule fields, though only the localized
        # loss reads them, so a config is valid or not whatever its variant
        lows = {"epochs": 0, "batch_size": 4, "seed": 0, "nn_final": 1, "nn_step_size": 1}
        for name, low in lows.items():
            _check_int(name, getattr(self, name), low)
        exports = _sequence("export_epochs", self.export_epochs,  # 1-based
                            lambda epoch: _check_int("each export epoch", epoch, 1))
        object.__setattr__(self, "export_epochs", exports)
        if any(e > self.epochs for e in self.export_epochs):
            raise ConfigError(
                f"export epochs must be <= epochs = {self.epochs}, got {max(self.export_epochs)}"
            )
        super().__post_init__()  # LossConfig owns the loss fields

    def schedule_config(self) -> ScheduleConfig | None:
        """The neighbor schedule, or None where no epoch reads one: the
        global baselines ignore it, and zero epochs never step it."""
        if self.variant is not LossVariant.DYN_LOC_REP or self.epochs == 0:
            return None
        return ScheduleConfig(
            batch_size=self.batch_size,
            nn_final=self.nn_final,
            step_size=self.nn_step_size,
            max_epochs=self.epochs,
        )


@dataclass(frozen=True)
class TrainResult:
    """Trained encoder, per-epoch trace, and any exported embeddings.

    Each trace entry is a JSON-ready dict {epoch, lr, nn_count, mean_loss};
    nn_count is None for the global baselines, which ignore the schedule.
    exports maps a 1-based count of completed epochs to the unit embeddings
    of the full training set at that point; it is empty where train handed
    each export to its ``_on_export`` hook instead.
    """

    encoder: Encoder
    trace: list[dict] = field(repr=False)
    exports: dict[int, np.ndarray] = field(repr=False)


def _epoch_batches(n: int, batch_size: int, seed: int, epoch: int) -> list[np.ndarray]:
    """Seeded shuffle, then consecutive slices; a trailing singleton is dropped."""
    rng = np.random.default_rng([seed, epoch])
    perm = rng.permutation(n)
    batches = [perm[start : start + batch_size] for start in range(0, n, batch_size)]
    if len(batches[-1]) < 2:
        batches.pop()
    return batches


def train(
    dataset: Dataset,
    config: TrainConfig,
    optim: OptimConfig,
    encoder_config: EncoderConfig,
    *,
    _on_export: Callable[[int, np.ndarray], None] | None = None,
) -> TrainResult:
    """Train the encoder on the dataset with the configured loss.

    Per epoch: shuffle, split into batches, clamp the scheduled neighbor
    count to each batch's size minus one, take one Adam step per batch at
    the epoch's decayed learning rate. Labels with zero spread raise
    ConfigError before the first step, as does an epoch whose guards drop
    every pair weight (the kernel bandwidth does not fit the labels).
    Non-finite embeddings or losses raise NumericalError naming the epoch.
    Each export goes, as soon as its epoch ends, to one consumer: the hook
    ``_on_export(epoch, embeddings)`` where one is given, so that a caller
    can write it while the next epochs train and hold no more exports than
    it writes, and otherwise the result's ``exports``.
    """
    if dataset.feature_dim != encoder_config.input_dim:
        raise ConfigError(
            f"encoder expects {encoder_config.input_dim} features, "
            f"dataset has {dataset.feature_dim}"
        )
    if dataset.n < 2:
        raise InputError(f"need at least 2 samples to train, got {dataset.n}")

    spread = np.ptp(dataset.labels)
    unfit = (
        f"the kernel bandwidth {config.kernel.bandwidth:g} does not fit the label spread "
        f"{spread:g} (max - min of the training labels)"
    )
    if spread == 0.0:
        raise ConfigError(f"epoch 0: every training label is the same, nothing to learn; {unfit}")
    encoder = init_encoder(encoder_config, config.seed)
    adam = Adam(encoder.params, optim)
    schedule = config.schedule_config()

    trace: list[dict] = []
    exports: dict[int, np.ndarray] = {}
    on_export = exports.__setitem__ if _on_export is None else _on_export
    for epoch in range(config.epochs):
        lr = optim.learning_rate_at_epoch(epoch)
        nn_count = neighbors_at_epoch(schedule, epoch) if schedule is not None else None
        batch_losses = []
        weighted = False
        unit = None
        try:
            for rows in _epoch_batches(dataset.n, config.batch_size, config.seed, epoch):
                features = dataset.features[rows]
                out = loss_with_gradient(
                    config,
                    encoder.forward(features),
                    dataset.labels[rows],
                    neighbor_count=None if nn_count is None else min(nn_count, len(rows) - 1),
                    input_features=features,
                )
                adam.step(encoder.backward(out.grad_raw), lr)
                batch_losses.append(out.value)
                weighted = weighted or out.weighted
            if not weighted:
                raise ConfigError(
                    f"epoch {epoch}: every pair weight of the {config.variant.value} loss was "
                    f"dropped, so it would train on a loss of exactly 0; {unfit}"
                )
            if (epoch + 1) in config.export_epochs:
                unit = encoder.forward(dataset.features).unit
        except NumericalError as exc:
            raise NumericalError(f"epoch {epoch}: {exc}") from exc
        mean_loss = float(np.mean(batch_losses))
        trace.append({"epoch": epoch, "lr": lr, "nn_count": nn_count, "mean_loss": mean_loss})
        if unit is not None:
            on_export(epoch + 1, unit)
    return TrainResult(encoder=encoder, trace=trace, exports=exports)
