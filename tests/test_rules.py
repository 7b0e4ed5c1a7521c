"""The rules for settings, one table per kind.

Every continuous setting passes the real rule (an int, a float or a NumPy
real, not a bool, finite as a double and in its range), every count the
integer rule, every enum setting the member rule and every setting that
holds several the sequence rule (a list or a tuple, held as a tuple). A
value that breaks its rule raises ConfigError naming the setting; NumPy
scalars keep working.
"""

import math
import re

import numpy as np
import pytest

from dynlocrep import (
    ConfigError,
    EmbeddingBatch,
    EncoderConfig,
    KernelSpec,
    LossConfig,
    OptimConfig,
    RidgeConfig,
    ScheduleConfig,
    SyntheticSpec,
    TrainConfig,
    ablate_norms,
    baseline_forward,
    benchmark,
    distance_matrix,
    generate_synthetic,
    l2_normalize,
    loss_with_gradient,
    neighbors_at_epoch,
    select_neighbors,
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


@pytest.mark.parametrize(
    "value",
    [None, "0.5", True, math.nan, pytest.param(10**400, id="10**400"), np.float32("inf")],
    ids=repr,
)
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
        lambda out: similarity_matrix(UNIT, "0.5", _out=out),
        lambda out: similarity_matrix(UNIT, math.inf, _out=out),
        lambda out: distance_matrix(UNIT, "taxicab", _out=out),
        lambda out: select_neighbors(distance_matrix(UNIT, "manhattan"), 4, _out=out),
    ],
    ids=["similarity-type", "similarity-range", "distance-norm", "neighbor-count"],
)
def test_a_rejected_setting_leaves_out_untouched(call):
    """Each setting is checked before the loss step's work array is written."""
    out = np.full((4, 4), 7.0)
    with pytest.raises(ConfigError):
        call(out)
    assert (out == 7.0).all()


def _grid(call, **change):
    """``call`` (benchmark or ablate_norms) on a tiny grid, with ``change``
    replacing its sweep values or seeds; every case here fails before a run."""
    grid = {"values": ["yaware"] if call is benchmark else ["cosine"], "seeds": [0], **change}
    return call(DATA, grid["values"], grid["seeds"], TrainConfig(epochs=2), OptimConfig(),
                EncoderConfig(input_dim=DATA.feature_dim), RidgeConfig())


# name in the message, a call that takes the value, a valid value as a list
SEQUENCES = {
    "SyntheticSpec.mixture_means": (
        "mixture_means", lambda v: SyntheticSpec(n=10, mixture_means=v), [25.0, 68.0]
    ),
    "SyntheticSpec.mixture_stds": (
        "mixture_stds", lambda v: SyntheticSpec(n=10, mixture_stds=v), [5.0, 6.0]
    ),
    "SyntheticSpec.mixture_weights": (
        "mixture_weights", lambda v: SyntheticSpec(n=10, mixture_weights=v), [0.5, 0.5]
    ),
    "EncoderConfig.hidden_dims": (
        "hidden_dims", lambda v: EncoderConfig(input_dim=4, hidden_dims=v), [8, 8]
    ),
    "TrainConfig.export_epochs": (
        "export_epochs", lambda v: TrainConfig(epochs=5, export_epochs=v), [2, 5]
    ),
    "benchmark.variants": ("variants", lambda v: _grid(benchmark, values=v), None),
    "ablate_norms.norms": ("norms", lambda v: _grid(ablate_norms, values=v), None),
    "benchmark.seeds": ("seeds", lambda v: _grid(benchmark, seeds=v), None),
}


@pytest.mark.parametrize("value", [5, 64.0, "yaware", None, {1: 2}], ids=repr)
@pytest.mark.parametrize("where", list(SEQUENCES))
def test_a_sequence_setting_that_is_not_a_list_or_tuple_is_rejected(where, value):
    """A scalar raised a raw TypeError, and a string was swept by character."""
    name, call, _ = SEQUENCES[where]
    message = f"{name} must be a list or tuple, got {value!r}"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        call(value)


@pytest.mark.parametrize("where", [where for where, row in SEQUENCES.items() if row[2]])
def test_a_sequence_setting_is_held_as_a_tuple(where):
    name, call, valid = SEQUENCES[where]
    config = call(valid)
    assert getattr(config, name) == tuple(valid)
    assert type(getattr(config, name)) is tuple
    assert config == call(tuple(valid))
    assert hash(config) == hash(call(tuple(valid)))


@pytest.mark.parametrize(
    ("call", "message"),
    [
        (lambda: SyntheticSpec(n=10, mixture_means=(25.0, "68")), "mixture_means must be finite"),
        (lambda: EncoderConfig(input_dim=4, hidden_dims=[8, 2.0]), "each layer width must be an"),
        (lambda: TrainConfig(epochs=5, export_epochs=[0]), "each export epoch must be >= 1"),
        (lambda: _grid(benchmark, values=["yaware", "bogus"]), "variant must be one of"),
        (lambda: _grid(benchmark, seeds=[0, 1.5]), "seeds must be an integer, got 1.5"),
        (lambda: _grid(benchmark, seeds=(0, -3)), "seeds must be >= 0, got -3"),
    ],
    ids=["mixture", "width", "export", "variant", "seed-float", "seed-below"],
)
def test_each_entry_of_a_sequence_passes_its_own_rule(call, message):
    with pytest.raises(ConfigError, match=f"^{message}"):
        call()


@pytest.mark.parametrize(
    ("change", "message"),
    [({"values": []}, "need at least one variant"), ({"seeds": ()}, "need at least one seed")],
    ids=["no-variant", "no-seed"],
)
def test_an_empty_grid_list_keeps_its_message(change, message):
    with pytest.raises(ConfigError, match=f"^{message}$"):
        _grid(benchmark, **change)
