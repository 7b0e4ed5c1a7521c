"""Training loop: determinism, trace contents, schedule wiring, progress."""

import dataclasses

import numpy as np
import pytest

from dynlocrep import (
    ConfigError,
    NumericalError,
    DistanceNorm,
    EmbeddingBatch,
    EncoderConfig,
    InputError,
    KernelSpec,
    LossConfig,
    LossVariant,
    NeighborSpace,
    OptimConfig,
    Reduction,
    ScheduleConfig,
    SyntheticSpec,
    TrainConfig,
    generate_synthetic,
    loss_with_gradient,
    neighbors_at_epoch,
    train,
    training,
)

ENC = EncoderConfig(input_dim=8, hidden_dims=(16, 16), output_dim=8)
OPT = OptimConfig()


def tiny_dataset(n=48, seed=0):
    return generate_synthetic(SyntheticSpec(n=n, feature_dim=8, informative_dims=4), seed)


def tiny_config(**overrides):
    defaults = dict(epochs=4, batch_size=8, seed=0, nn_final=3, nn_step_size=1)
    defaults.update(overrides)
    return TrainConfig(**defaults)


def test_training_is_bit_reproducible():
    dataset = tiny_dataset()
    runs = [train(dataset, tiny_config(), OPT, ENC) for _ in range(2)]
    assert runs[0].trace == runs[1].trace
    assert np.array_equal(runs[0].encoder.params, runs[1].encoder.params)


def test_zero_epochs_leaves_encoder_at_initialization():
    dataset = tiny_dataset()
    result = train(dataset, tiny_config(epochs=0), OPT, ENC)
    from dynlocrep import init_encoder

    fresh = init_encoder(ENC, seed=0)
    assert result.trace == []
    assert np.array_equal(result.encoder.params, fresh.params)


def test_trace_schema_and_learning_rate_decay():
    dataset = tiny_dataset()
    config = tiny_config(epochs=24, nn_final=3)
    result = train(dataset, config, OPT, ENC)
    assert len(result.trace) == 24
    for entry in result.trace:
        assert set(entry) == {"epoch", "lr", "nn_count", "mean_loss"}
    for epoch, entry in enumerate(result.trace):
        assert entry["epoch"] == epoch
        assert entry["lr"] == OPT.learning_rate * 0.9 ** (epoch // 10)
        assert np.isfinite(entry["mean_loss"])


def test_trace_nn_count_follows_schedule():
    dataset = tiny_dataset()
    config = tiny_config(epochs=12)
    result = train(dataset, config, OPT, ENC)
    schedule = ScheduleConfig(batch_size=8, nn_final=3, step_size=1, max_epochs=12)
    for epoch, entry in enumerate(result.trace):
        assert entry["nn_count"] == neighbors_at_epoch(schedule, epoch)
    counts = [e["nn_count"] for e in result.trace]
    assert all(a >= b for a, b in zip(counts, counts[1:]))
    assert counts[-1] == 3


def test_baseline_variants_skip_the_schedule():
    dataset = tiny_dataset()
    config = tiny_config(variant=LossVariant.Y_AWARE, epochs=1)
    # epochs=1 would be rejected by the schedule; baselines do not need it
    result = train(dataset, config, OPT, ENC)
    assert result.trace[0]["nn_count"] is None


def test_weights_actually_move():
    dataset = tiny_dataset()
    result = train(dataset, tiny_config(), OPT, ENC)
    from dynlocrep import init_encoder

    fresh = init_encoder(ENC, seed=0)
    assert np.max(np.abs(result.encoder.params - fresh.params)) > 0


def test_singleton_final_batch_is_dropped():
    dataset = tiny_dataset(n=17)  # 17 = 2 * 8 + 1
    result = train(dataset, tiny_config(epochs=2), OPT, ENC)
    assert len(result.trace) == 2  # runs despite the undersized remainder


def test_partial_final_batch_clamps_neighbor_count():
    # 12 = 8 + 4: the second batch has b - 1 = 3 < scheduled count at epoch 0
    dataset = tiny_dataset(n=12)
    result = train(dataset, tiny_config(epochs=4, nn_final=4), OPT, ENC)
    assert np.isfinite(result.trace[0]["mean_loss"])


def test_exports_at_requested_epochs():
    dataset = tiny_dataset()
    config = tiny_config(epochs=4, export_epochs=(1, 4))
    result = train(dataset, config, OPT, ENC)
    assert sorted(result.exports) == [1, 4]
    for embeddings in result.exports.values():
        assert embeddings.shape == (dataset.n, ENC.output_dim)
        assert np.all(np.abs(np.linalg.norm(embeddings, axis=1) - 1.0) < 1e-9)
    assert not np.array_equal(result.exports[1], result.exports[4])


def test_feature_width_mismatch_rejected():
    dataset = tiny_dataset()
    with pytest.raises(ConfigError):
        train(dataset, tiny_config(), OPT, EncoderConfig(input_dim=5))


def test_a_one_row_dataset_is_rejected():
    one_row = tiny_dataset().subset(np.array([0]))
    with pytest.raises(InputError, match="need at least 2 samples to train, got 1"):
        train(one_row, tiny_config(), OPT, ENC)


def test_config_validation():
    with pytest.raises(ConfigError):
        tiny_config(batch_size=3)
    with pytest.raises(ConfigError):
        tiny_config(epochs=-1)
    with pytest.raises(ConfigError):
        tiny_config(export_epochs=(0,))
    with pytest.raises(ConfigError):
        # nn_final must fit the batch
        train(tiny_dataset(), tiny_config(nn_final=8), OPT, ENC)


@pytest.mark.parametrize(
    ("overrides", "message"),
    [
        (dict(seed=-1), "seed must be >= 0, got -1"),
        (dict(variant=LossVariant.RANK_N_CONTRAST, nn_final=0), "nn_final must be >= 1, got 0"),
        (dict(variant=LossVariant.Y_AWARE, nn_step_size=0), "nn_step_size must be >= 1, got 0"),
        (dict(variant=LossVariant.THRESHOLD, temperature=0.0), "temperature must be positive"),
    ],
)
def test_config_bounds_hold_for_every_variant(overrides, message):
    """Checked when the config is built, not when a loss first reads them."""
    with pytest.raises(ConfigError, match=message):
        tiny_config(**overrides)


@pytest.mark.parametrize("value", [2.5, 4.0, True, np.float64(3.0)], ids=repr)
@pytest.mark.parametrize("field", ["epochs", "batch_size", "seed", "nn_final", "nn_step_size"])
def test_run_counts_and_the_seed_must_be_integers(field, value):
    """A float such as 3.5 used to train epoch 0 before numpy refused it,
    and 1.5 or True ran; each is refused when the config is built."""
    with pytest.raises(ConfigError, match=f"^{field} must be an integer, got"):
        tiny_config(**{field: value})


@pytest.mark.parametrize("value", [1.0, True], ids=repr)
def test_export_epochs_must_be_integers(value):
    with pytest.raises(ConfigError, match="^each export epoch must be an integer, got"):
        tiny_config(export_epochs=(2, value))


def test_numpy_integers_are_counts_and_seeds():
    config = tiny_config(epochs=np.int64(4), seed=np.uint32(0), export_epochs=(np.int32(2),))
    assert train(tiny_dataset(), config, OPT, ENC).trace == train(
        tiny_dataset(), tiny_config(export_epochs=(2,)), OPT, ENC
    ).trace


def test_train_config_is_the_loss_config_plus_the_run_fields():
    loss_fields = [f.name for f in dataclasses.fields(LossConfig)]
    run_fields = ["epochs", "batch_size", "seed", "nn_final", "nn_step_size", "export_epochs"]
    assert [f.name for f in dataclasses.fields(TrainConfig)] == loss_fields + run_fields
    assert isinstance(TrainConfig(), LossConfig)


def test_train_config_checks_its_run_fields_before_the_loss_fields():
    with pytest.raises(ConfigError, match="epochs must be >= 0, got -1"):
        tiny_config(epochs=-1, temperature=0.0)


def test_train_config_checks_its_run_fields_before_an_unknown_loss_field():
    with pytest.raises(ConfigError, match="epochs must be >= 0, got -1"):
        tiny_config(epochs=-1, variant="bogus")


def test_a_string_variant_trains_the_localized_loss():
    """The loss and the schedule compare variants by identity: the string
    must reach the localized loss and its neighbor counts, bit for bit."""
    by_string, by_member = (
        train(tiny_dataset(), tiny_config(variant=variant), OPT, ENC)
        for variant in ("dynlocrep", LossVariant.DYN_LOC_REP)
    )
    counts = [entry["nn_count"] for entry in by_string.trace]
    assert counts == [entry["nn_count"] for entry in by_member.trace]
    assert None not in counts
    assert [entry["mean_loss"].hex() for entry in by_string.trace] == [
        entry["mean_loss"].hex() for entry in by_member.trace
    ]
    assert by_string.encoder.params.tobytes() == by_member.encoder.params.tobytes()


@pytest.mark.parametrize("variant", list(LossVariant))
def test_a_train_config_evaluates_like_its_loss_config(variant):
    """loss_with_gradient reads a TrainConfig through its six loss fields
    alone: value and gradient are bit-identical to the equal LossConfig."""
    settings = dict(
        variant=variant,
        kernel=KernelSpec(bandwidth=4.0),
        temperature=0.3,
        distance_norm=DistanceNorm.EUCLIDEAN,
        nn_space=NeighborSpace.INPUT,
        reduction=Reduction.MEAN,
    )
    rng = np.random.default_rng(5)
    batch = EmbeddingBatch.from_raw(rng.normal(size=(12, 8)))
    labels, features = rng.uniform(20, 80, size=12), rng.normal(size=(12, 5))
    loss, run = (
        loss_with_gradient(config, batch, labels, neighbor_count=5, input_features=features)
        for config in (LossConfig(**settings), tiny_config(**settings))
    )
    assert (run.value.hex(), run.weighted) == (loss.value.hex(), loss.weighted)
    assert run.grad_raw.tobytes() == loss.grad_raw.tobytes()


def test_localized_schedule_too_short_names_epochs_and_step_size():
    """The localized loss needs at least two decay steps; a baseline does not."""
    with pytest.raises(ConfigError, match=r"epochs >= 2 \* nn_step_size = 4, got epochs=3"):
        train(tiny_dataset(), tiny_config(epochs=3, nn_step_size=2), OPT, ENC)
    baseline = tiny_config(epochs=1, variant=LossVariant.Y_AWARE)
    assert len(train(tiny_dataset(), baseline, OPT, ENC).trace) == 1


@pytest.mark.parametrize("variant", list(LossVariant))
def test_every_variant_trains(variant):
    dataset = tiny_dataset()
    config = tiny_config(variant=variant)
    result = train(dataset, config, OPT, ENC)
    assert len(result.trace) == 4
    assert all(np.isfinite(e["mean_loss"]) for e in result.trace)


@pytest.mark.parametrize(
    "variant, scale",
    [
        (LossVariant.DYN_LOC_REP, 1e6),
        (LossVariant.Y_AWARE, 1e6),
        (LossVariant.THRESHOLD, 1e6),
        (LossVariant.EXPONENTIAL, 1e6),
        (LossVariant.THRESHOLD, 0.0),
    ],
)
def test_degenerate_supervision_fails_loudly(variant, scale):
    """Labels x 1e6 underflow every gaussian weight at bandwidth 6, and
    constant labels leave threshold no lighter candidate: the guards drop
    every pair weight, so training would run on a loss of exactly 0."""
    dataset = tiny_dataset()
    dataset = dataclasses.replace(dataset, labels=dataset.labels * scale + 3.0)
    spread = np.ptp(dataset.labels)
    config = tiny_config(variant=variant, kernel=KernelSpec(bandwidth=6.0))
    with pytest.raises(ConfigError, match="epoch 0") as failure:
        train(dataset, config, OPT, ENC)
    assert f"kernel bandwidth 6 does not fit the label spread {spread:g}" in str(failure.value)


@pytest.mark.parametrize("variant", list(LossVariant))
def test_constant_labels_are_rejected_before_the_first_step(variant, monkeypatch):
    """Labels with zero spread give no pair anything to learn from; every
    variant refuses them before a single loss is evaluated."""
    def no_step(*args, **kwargs):
        raise AssertionError("a training step ran on constant labels")

    monkeypatch.setattr(training, "loss_with_gradient", no_step)
    dataset = dataclasses.replace(tiny_dataset(), labels=np.full(48, 42.0))
    with pytest.raises(ConfigError, match="epoch 0: every training label is the same") as failure:
        train(dataset, tiny_config(variant=variant), OPT, ENC)
    assert "does not fit the label spread 0 (max - min" in str(failure.value)


@pytest.mark.parametrize("variant", list(LossVariant))
def test_overflowing_embeddings_fail_naming_the_epoch(variant):
    """Features x 1e200 square past the float range in the row norms: the
    run stops with NumericalError instead of training on zero rows."""
    dataset = tiny_dataset()
    dataset = dataclasses.replace(dataset, features=dataset.features * 1e200)
    with pytest.raises(NumericalError, match="epoch 0: .* have non-finite norms"):
        train(dataset, tiny_config(variant=variant), OPT, ENC)


def test_rank_n_contrast_trains_on_labels_the_kernel_cannot_resolve():
    dataset = tiny_dataset()
    dataset = dataclasses.replace(dataset, labels=dataset.labels * 1e6)
    result = train(dataset, tiny_config(variant=LossVariant.RANK_N_CONTRAST), OPT, ENC)
    assert all(e["mean_loss"] > 0.0 for e in result.trace)


def test_loss_trends_down_on_separable_clusters():
    """Two well-separated label clusters, 200 samples: the final epoch's
    mean loss beats the first epoch's in at least 4 of 5 seeds. The long
    horizon matters at lr = 1e-4, so this uses the full 50-epoch recipe
    at a reduced width."""
    spec = SyntheticSpec(n=200, feature_dim=8, informative_dims=6, noise_std=0.05)
    wins = 0
    for seed in range(5):
        dataset = generate_synthetic(spec, seed)
        config = TrainConfig(
            epochs=50, batch_size=32, seed=seed, nn_final=14, nn_step_size=1
        )
        result = train(dataset, config, OPT, ENC)
        if result.trace[-1]["mean_loss"] < result.trace[0]["mean_loss"]:
            wins += 1
    assert wins >= 4
