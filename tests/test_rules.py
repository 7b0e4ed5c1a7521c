"""The three rules for settings, one table per kind.

Every continuous setting passes the real rule (an int, a float or a NumPy
real, not a bool, finite and in its range), every count the integer rule
and every enum setting the member rule. A value that breaks its rule
raises ConfigError naming the setting; NumPy scalars keep working.
"""

import math

import numpy as np
import pytest

from dynlocrep import (
    ConfigError,
    EmbeddingBatch,
    KernelSpec,
    LossConfig,
    OptimConfig,
    RidgeConfig,
    ScheduleConfig,
    SyntheticSpec,
    baseline_forward,
    distance_matrix,
    generate_synthetic,
    l2_normalize,
    loss_with_gradient,
    neighbors_at_epoch,
    similarity_matrix,
    split,
)

DATA = generate_synthetic(SyntheticSpec(n=20), seed=0)
UNIT = l2_normalize(np.random.default_rng(0).normal(size=(4, 3)))
SCHEDULE = ScheduleConfig(batch_size=32, nn_final=14, step_size=1, max_epochs=50)

# name in the message, a call that takes the value, a valid value
REALS = {
    "LossConfig.temperature": ("temperature", lambda v: LossConfig(temperature=v), 0.5),
    "similarity_matrix": ("temperature", lambda v: similarity_matrix(UNIT, v), 0.5),
    "KernelSpec.bandwidth": ("kernel bandwidth", lambda v: KernelSpec(bandwidth=v), 6.0),
    "OptimConfig.learning_rate": ("learning_rate", lambda v: OptimConfig(learning_rate=v), 1e-4),
    "OptimConfig.decay_factor": ("decay_factor", lambda v: OptimConfig(decay_factor=v), 0.9),
    "OptimConfig.weight_decay": ("weight_decay", lambda v: OptimConfig(weight_decay=v), 5e-5),
    "RidgeConfig.regularization": ("ridge regularization", lambda v: RidgeConfig(v), 1.0),
    "SyntheticSpec.noise_std": ("noise_std", lambda v: SyntheticSpec(n=10, noise_std=v), 0.1),
    "SyntheticSpec.mixture_means": (
        "mixture_means", lambda v: SyntheticSpec(n=10, mixture_means=(v, 68.0)), 25.0
    ),
    "SyntheticSpec.mixture_stds": (
        "mixture_stds", lambda v: SyntheticSpec(n=10, mixture_stds=(v, 6.0)), 5.0
    ),
    "SyntheticSpec.mixture_weights": (
        "mixture_weights", lambda v: SyntheticSpec(n=10, mixture_weights=(v, 0.5)), 0.5
    ),
    "split.test_fraction": ("test_fraction", lambda v: split(DATA, v), 0.2),
}


def _train_step(count):
    rng = np.random.default_rng(1)
    batch = EmbeddingBatch.from_raw(rng.normal(size=(32, 3)))
    return loss_with_gradient(LossConfig(), batch, rng.uniform(20, 70, 32), neighbor_count=count)


INTEGERS = {
    "OptimConfig.decay_every": ("decay_every", lambda v: OptimConfig(decay_every=v), 10),
    "ScheduleConfig.batch_size": ("batch_size", lambda v: ScheduleConfig(v, 3, 1, 10), 32),
    "ScheduleConfig.nn_final": ("nn_final", lambda v: ScheduleConfig(32, v, 1, 10), 3),
    "ScheduleConfig.step_size": ("step_size", lambda v: ScheduleConfig(32, 3, v, 10), 1),
    "ScheduleConfig.max_epochs": ("max_epochs", lambda v: ScheduleConfig(32, 3, 1, v), 10),
    "neighbors_at_epoch": ("epoch", lambda v: neighbors_at_epoch(SCHEDULE, v), 3),
    "loss_with_gradient": ("neighbor count", _train_step, 14),
}

ENUMS = {
    "LossConfig.variant": ("variant", lambda v: LossConfig(variant=v)),
    "LossConfig.distance_norm": ("distance_norm", lambda v: LossConfig(distance_norm=v)),
    "LossConfig.nn_space": ("nn_space", lambda v: LossConfig(nn_space=v)),
    "LossConfig.reduction": ("reduction", lambda v: LossConfig(reduction=v)),
    "distance_matrix": ("distance norm", lambda v: distance_matrix(UNIT, v)),
    "baseline_forward": (
        "variant", lambda v: baseline_forward(v, similarity_matrix(UNIT, 0.5), np.eye(4))
    ),
}


@pytest.mark.parametrize("value", [None, "0.5", True, math.nan], ids=repr)
@pytest.mark.parametrize("where", list(REALS))
def test_a_real_setting_outside_the_rule_is_rejected(where, value):
    name, call, _ = REALS[where]
    with pytest.raises(ConfigError, match=f"^{name} must "):
        call(value)


@pytest.mark.parametrize("value", [2.5, 3.0, True], ids=repr)
@pytest.mark.parametrize("where", list(INTEGERS))
def test_an_integer_setting_outside_the_rule_is_rejected(where, value):
    name, call, _ = INTEGERS[where]
    with pytest.raises(ConfigError, match=f"^{name} must be an integer, got {value!r}$"):
        call(value)


@pytest.mark.parametrize("value", ["bogus", None, 3], ids=repr)
@pytest.mark.parametrize("where", list(ENUMS))
def test_an_enum_setting_outside_the_rule_is_rejected(where, value):
    name, call = ENUMS[where]
    with pytest.raises(ConfigError, match=f"^{name} must be one of .*, got {value!r}$"):
        call(value)


@pytest.mark.parametrize("kind", [np.float64, np.float32])
@pytest.mark.parametrize("where", list(REALS))
def test_a_numpy_real_keeps_working(where, kind):
    _, call, valid = REALS[where]
    call(kind(valid))


@pytest.mark.parametrize("where", list(INTEGERS))
def test_a_numpy_integer_keeps_working(where):
    _, call, valid = INTEGERS[where]
    call(np.int64(valid))


@pytest.mark.parametrize(
    ("call", "message"),
    [
        (lambda: OptimConfig(learning_rate=True), "learning_rate must be positive, got True"),
        (lambda: LossConfig(temperature=True), "temperature must be positive, got True"),
        (lambda: OptimConfig(decay_every=2.5), "decay_every must be an integer, got 2.5"),
        (lambda: ScheduleConfig(32.0, 3, 1.5, 10), "batch_size must be an integer, got 32.0"),
        (lambda: OptimConfig(weight_decay=None), "weight_decay must be finite and >= 0, got None"),
        (lambda: RidgeConfig("1"), "ridge regularization must be finite and >= 0, got '1'"),
        (lambda: KernelSpec(bandwidth="6"), r"kernel bandwidth must lie in .*, got '6'"),
        (lambda: split(DATA, "0.2"), r"test_fraction must lie in \(0, 1\), got '0.2'"),
        (lambda: similarity_matrix(UNIT, "0.5"), "temperature must be positive, got '0.5'"),
    ],
    ids=[
        "lr-true",
        "temperature-true",
        "decay-every-2.5",
        "schedule-floats",
        "weight-decay-none",
        "ridge-string",
        "bandwidth-string",
        "test-fraction-string",
        "similarity-string",
    ],
)
def test_values_that_used_to_run_or_escape_as_type_errors_are_config_errors(call, message):
    with pytest.raises(ConfigError, match=f"^{message}$"):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda out: similarity_matrix(UNIT, "0.5", out=out),
        lambda out: similarity_matrix(UNIT, math.inf, out=out),
        lambda out: distance_matrix(UNIT, "taxicab", out=out),
    ],
    ids=["similarity-type", "similarity-range", "distance-norm"],
)
def test_a_rejected_setting_leaves_out_untouched(call):
    out = np.full((4, 4), 7.0)
    with pytest.raises(ConfigError):
        call(out)
    assert (out == 7.0).all()
