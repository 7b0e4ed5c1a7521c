"""Neighbor-count schedule: reference values, bounds, and the grid sweep.

The full-grid sweep uses a vectorized mirror of the schedule arithmetic
(identical IEEE operations: divide, multiply, subtract, floor, clamp) so
that properties can be checked over every configuration in reasonable
time; the mirror is itself checked bit-for-bit against the public scalar
function on a dense sub-grid plus a random sample of the full grid.
"""

import numpy as np
import pytest

import oracles
from dynlocrep import ConfigError, ScheduleConfig, neighbors_at_epoch

REFERENCE = ScheduleConfig(batch_size=32, nn_final=14, step_size=1, max_epochs=50)


def test_reference_configuration_checkpoints():
    assert neighbors_at_epoch(REFERENCE, 0) == 31
    assert neighbors_at_epoch(REFERENCE, 25) == 22
    assert neighbors_at_epoch(REFERENCE, 49) == 14


def test_reference_configuration_matches_scalar_oracle():
    expected = oracles.schedule_trajectory(32, 14, 1, 50)
    got = [neighbors_at_epoch(REFERENCE, e) for e in range(50)]
    assert got == expected


def test_monotone_and_bounded_on_reference():
    counts = [neighbors_at_epoch(REFERENCE, e) for e in range(50)]
    assert all(a >= b for a, b in zip(counts, counts[1:]))
    assert all(14 <= c <= 31 for c in counts)


def test_invalid_configurations_rejected():
    with pytest.raises(ConfigError):
        ScheduleConfig(batch_size=32, nn_final=0, step_size=1, max_epochs=50)
    with pytest.raises(ConfigError):
        ScheduleConfig(batch_size=32, nn_final=32, step_size=1, max_epochs=50)
    with pytest.raises(ConfigError):
        ScheduleConfig(batch_size=32, nn_final=14, step_size=50, max_epochs=50)
    with pytest.raises(ConfigError):
        # floor(50 / 30) = 1 leaves the decrement undefined
        ScheduleConfig(batch_size=32, nn_final=14, step_size=30, max_epochs=50)
    with pytest.raises(ConfigError):
        ScheduleConfig(batch_size=1, nn_final=1, step_size=1, max_epochs=10)


@pytest.mark.parametrize("field", ["step_size", "max_epochs"])
def test_a_zero_step_size_or_epoch_count_is_rejected(field):
    settings = {**dict(batch_size=32, nn_final=14, step_size=1, max_epochs=50), field: 0}
    with pytest.raises(ConfigError, match=f"{field} must be >= 1, got 0"):
        ScheduleConfig(**settings)


def test_negative_epoch_rejected():
    with pytest.raises(ConfigError):
        neighbors_at_epoch(REFERENCE, -1)


def test_two_plateaus_when_step_is_max_epochs_minus_one():
    """step_size = max_epochs - 1 is only valid at max_epochs = 2 (otherwise
    there are fewer than two decay steps); there the schedule takes exactly
    the values {batch_size - 1, nn_final}."""
    for batch in (4, 8, 32):
        for nn_final in (1, batch // 2, batch - 1):
            config = ScheduleConfig(
                batch_size=batch, nn_final=nn_final, step_size=1, max_epochs=2
            )
            values = [neighbors_at_epoch(config, e) for e in range(2)]
            assert values == [batch - 1, nn_final]
            expected_plateaus = 2 if nn_final < batch - 1 else 1
            assert len(set(values)) == expected_plateaus
    for max_epochs in (3, 10, 50):
        with pytest.raises(ConfigError):
            ScheduleConfig(
                batch_size=8, nn_final=2, step_size=max_epochs - 1, max_epochs=max_epochs
            )


def mirrored_trajectories(batch_size: int, step_size: int, max_epochs: int) -> np.ndarray:
    """Counts for every (nn_final, epoch) pair of one (batch, step, max) cell.

    Row f-1 holds the trajectory for nn_final = f. Uses the same IEEE
    operation sequence as neighbors_at_epoch, just broadcast.
    """
    total_steps = max_epochs // step_size
    steps_completed = np.arange(max_epochs) // step_size
    finals = np.arange(1, batch_size)
    decrement = (batch_size - finals) / (total_steps - 1)
    value = batch_size - decrement[:, None] * steps_completed[None, :]
    floored = np.floor(value)
    return np.clip(floored, finals[:, None], batch_size - 1).astype(int)


def sweep_grid(max_batch: int, max_max_epochs: int, check) -> int:
    """Visit every valid (batch, nn_final, step, max_epochs) cell once."""
    visited = 0
    for max_epochs in range(2, max_max_epochs + 1):
        for step_size in range(1, max_epochs):
            if max_epochs // step_size <= 1:
                continue  # rejected by ScheduleConfig; covered separately
            for batch_size in range(2, max_batch + 1):
                check(batch_size, step_size, max_epochs)
                visited += batch_size - 1
    return visited


def test_full_grid_properties_hold():
    """The grid of batch <= 64, max_epochs <= 100 holds over a million configs.

    Monotonicity and the [nn_final, batch - 1] bounds on every one of them
    are checked by test_acceptance::test_criterion_5_schedule_conformance,
    which sweeps this same grid; sweeping it a second time here would check
    nothing new, so this test only counts the configs the sweep visits.
    """
    visited = sweep_grid(64, 100, lambda batch_size, step_size, max_epochs: None)
    assert visited > 1_000_000  # genuinely exhaustive


def test_mirror_matches_implementation_on_dense_subgrid():
    def check(batch_size, step_size, max_epochs):
        counts = mirrored_trajectories(batch_size, step_size, max_epochs)
        for nn_final in range(1, batch_size):
            config = ScheduleConfig(
                batch_size=batch_size,
                nn_final=nn_final,
                step_size=step_size,
                max_epochs=max_epochs,
            )
            direct = [neighbors_at_epoch(config, e) for e in range(max_epochs)]
            assert direct == counts[nn_final - 1].tolist()

    sweep_grid(10, 16, check)


def test_mirror_matches_implementation_on_random_sample_of_full_grid():
    rng = np.random.default_rng(123)
    checked = 0
    while checked < 300:
        max_epochs = int(rng.integers(2, 101))
        step_size = int(rng.integers(1, max_epochs))
        if max_epochs // step_size <= 1:
            continue
        batch_size = int(rng.integers(2, 65))
        nn_final = int(rng.integers(1, batch_size))
        config = ScheduleConfig(
            batch_size=batch_size, nn_final=nn_final, step_size=step_size, max_epochs=max_epochs
        )
        counts = mirrored_trajectories(batch_size, step_size, max_epochs)
        direct = [neighbors_at_epoch(config, e) for e in range(max_epochs)]
        assert direct == counts[nn_final - 1].tolist()
        checked += 1
