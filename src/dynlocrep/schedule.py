"""Epoch-dependent neighbor count for the localized repulsion loss.

The repulsion starts global (nearly the whole batch) and shrinks linearly
toward a configured final count, stepping every ``step_size`` epochs:

    steps_completed = floor(epoch / step_size)
    total_steps     = floor(max_epochs / step_size)
    decrement       = (batch_size - nn_final) / (total_steps - 1)
    count           = clamp(floor(batch_size - decrement * steps_completed),
                            nn_final, batch_size - 1)

The decrement is a real number; flooring after the subtraction means the
schedule reaches ``nn_final`` no later than the exact real-valued line.
The upper clamp at batch_size - 1 reflects that an anchor has only
batch_size - 1 possible neighbors, and the lower floor of 1 keeps the
repulsion denominator non-empty.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError


@dataclass(frozen=True)
class ScheduleConfig:
    """Parameters of the linear neighbor-count decay."""

    batch_size: int
    nn_final: int
    step_size: int
    max_epochs: int

    def __post_init__(self) -> None:
        if self.batch_size < 2:
            raise ConfigError(f"batch_size must be >= 2, got {self.batch_size}")
        if self.nn_final < 1:
            raise ConfigError(f"nn_final must be >= 1, got {self.nn_final}")
        if self.nn_final > self.batch_size - 1:
            raise ConfigError(
                f"nn_final must be <= batch_size - 1 = {self.batch_size - 1}, got {self.nn_final}"
            )
        if self.step_size < 1:
            raise ConfigError(f"step_size must be >= 1, got {self.step_size}")
        if self.max_epochs < 1:
            raise ConfigError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if self.max_epochs < 2 * self.step_size:
            # fewer than two decay steps leave the decrement undefined
            raise ConfigError(
                f"the localized loss needs epochs >= 2 * nn_step_size = {2 * self.step_size}, "
                f"got epochs={self.max_epochs} with nn_step_size={self.step_size}"
            )


def neighbors_at_epoch(config: ScheduleConfig, epoch: int) -> int:
    """Neighbor count used during ``epoch`` (0-indexed).

    Monotone non-increasing in the epoch and always within
    [nn_final, batch_size - 1].
    """
    if epoch < 0:
        raise ConfigError(f"epoch must be >= 0, got {epoch}")
    steps_completed = epoch // config.step_size
    total_steps = config.max_epochs // config.step_size
    decrement = (config.batch_size - config.nn_final) / (total_steps - 1)
    value = config.batch_size - decrement * steps_completed
    return max(min(math.floor(value), config.batch_size - 1), config.nn_final)
