"""Evaluation: ridge readout, MAE, and the benchmark/ablation reports."""

import dataclasses
import json
import re

import numpy as np
import pytest

import oracles
from dynlocrep import (
    ConfigError,
    EncoderConfig,
    InputError,
    KernelSpec,
    LossVariant,
    NumericalError,
    OptimConfig,
    Reduction,
    RidgeConfig,
    SyntheticSpec,
    TrainConfig,
    ablate_norms,
    benchmark,
    generate_synthetic,
    mae,
    ridge_fit,
)
from dynlocrep.evaluation import strip_timing
from dynlocrep.geometry import DistanceNorm


def test_two_point_line_is_fit_exactly():
    readout = ridge_fit(np.array([[1.0], [2.0]]), np.array([1.0, 2.0]), RidgeConfig(0.0))
    assert readout.coef[0] == pytest.approx(1.0, abs=1e-12)
    assert readout.intercept == pytest.approx(0.0, abs=1e-12)
    assert readout.predict(np.array([[3.0]]))[0] == pytest.approx(3.0, abs=1e-12)


def test_huge_regularization_shrinks_to_label_mean():
    readout = ridge_fit(np.array([[1.0], [2.0]]), np.array([1.0, 2.0]), RidgeConfig(1e12))
    predictions = readout.predict(np.array([[1.0], [2.0]]))
    assert np.allclose(predictions, 1.5, atol=1e-3)


def test_ridge_matches_normal_equation_oracle():
    """100 random instances against an explicit augmented-design inverse."""
    rng = np.random.default_rng(17)
    lambdas = [0.0, 0.1, 1.0, 10.0]
    for trial in range(100):
        d = int(rng.integers(1, 11))
        n = int(rng.integers(d + 2, 51))
        x = rng.normal(size=(n, d))
        y = rng.normal(size=n)
        lam = lambdas[trial % 4]
        readout = ridge_fit(x, y, RidgeConfig(lam))
        coef, intercept = oracles.ridge_augmented_inverse(x, y, lam)
        assert np.max(np.abs(readout.coef - coef)) < 1e-8
        assert abs(readout.intercept - intercept) < 1e-8


def test_unregularized_residual_is_orthogonal_to_columns():
    rng = np.random.default_rng(18)
    x = rng.normal(size=(40, 6))
    y = rng.normal(size=40)
    readout = ridge_fit(x, y, RidgeConfig(0.0))
    residual = y - readout.predict(x)
    centered = x - x.mean(axis=0)
    assert np.max(np.abs(centered.T @ residual)) < 1e-8


def test_singular_unregularized_solve_is_surfaced():
    x = np.ones((5, 3))  # rank 0 after centering
    with pytest.raises(NumericalError):
        ridge_fit(x, np.arange(5.0), RidgeConfig(0.0))


@pytest.mark.parametrize(
    ("x", "y", "message"),
    [
        (np.zeros(3), np.zeros(3), "embeddings must have shape (n, d), got (3,)"),
        (np.zeros((3, 2)), np.zeros(2), "labels must have shape (3,), got (2,)"),
        (np.zeros((0, 2)), np.zeros(0), "cannot fit a readout on zero rows"),
    ],
    ids=["1-d-embeddings", "short-labels", "zero-rows"],
)
def test_ridge_rejects_inconsistent_inputs(x, y, message):
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        ridge_fit(x, y, RidgeConfig(1.0))


def test_non_finite_ridge_coefficients_are_surfaced():
    rng = np.random.default_rng(20)
    x = rng.normal(size=(10, 3)) * 1e160  # the gram matrix overflows
    with np.errstate(all="ignore"), pytest.raises(NumericalError, match="non-finite coeff"):
        ridge_fit(x, rng.normal(size=10), RidgeConfig(1.0))


def test_ridge_config_validation():
    with pytest.raises(ConfigError):
        RidgeConfig(-1.0)
    with pytest.raises(ConfigError):
        RidgeConfig(float("nan"))


def test_mae_examples():
    assert mae(np.array([1.0, 2.0]), np.array([1.0, 2.0])) == 0.0
    assert mae(np.array([1.0, 2.0]), np.array([2.0, 4.0])) == 1.5


def test_mae_permutation_invariance():
    rng = np.random.default_rng(19)
    pred = rng.normal(size=30)
    truth = rng.normal(size=30)
    perm = rng.permutation(30)
    assert mae(pred, truth) == pytest.approx(mae(pred[perm], truth[perm]), rel=1e-15)


def test_mae_shape_mismatch_rejected():
    with pytest.raises(InputError):
        mae(np.array([1.0]), np.array([1.0, 2.0]))


def test_mae_of_nothing_rejected():
    with pytest.raises(InputError, match="^mae needs at least one prediction$"):
        mae(np.array([]), np.array([]))


# ---------------------------------------------------------------------------
# benchmark and ablation (reduced protocol for speed)
# ---------------------------------------------------------------------------

ENC = EncoderConfig(input_dim=8, hidden_dims=(16, 16), output_dim=8)
SMALL = dict(
    base=TrainConfig(epochs=4, batch_size=8, nn_final=3, nn_step_size=1),
    optim=OptimConfig(),
    encoder_config=ENC,
    ridge=RidgeConfig(1.0),
)


def small_dataset(n=60, seed=0):
    return generate_synthetic(SyntheticSpec(n=n, feature_dim=8, informative_dims=4), seed)


def test_benchmark_report_shape():
    report = benchmark(
        small_dataset(),
        [LossVariant.DYN_LOC_REP, LossVariant.Y_AWARE],
        [0, 1],
        **SMALL,
        dataset_source="test",
    )
    assert report["schema_version"] == 1
    assert list(report) == [
        "schema_version", "kind", "protocol", "dataset", "variants", "baselines", "timing"
    ]
    assert sorted(report["variants"]) == ["dynlocrep", "yaware"]
    for entry in report["variants"].values():
        assert len(entry["maes"]) == 2
        assert [run["seed"] for run in entry["runs"]] == [0, 1]
        assert entry["mean_mae"] == pytest.approx(np.mean(entry["maes"]))
        assert entry["std_mae"] == pytest.approx(np.std(entry["maes"]))  # population
        for run in entry["runs"]:
            histogram = run["test_labels"]["histogram"]
            assert sum(histogram["counts"]) == 12  # round(60 * 0.2)
    assert sorted(report["baselines"]) == ["raw_features", "untrained_encoder"]
    assert "per_run_seconds" in report["timing"]


def test_single_seed_reports_zero_std():
    report = benchmark(
        small_dataset(), [LossVariant.RANK_N_CONTRAST], [3], **SMALL, dataset_source="test"
    )
    assert report["variants"]["rnc"]["std_mae"] == 0.0


def test_benchmark_is_deterministic_excluding_timing():
    runs = [
        benchmark(
            small_dataset(),
            [LossVariant.DYN_LOC_REP],
            [0, 1],
            **SMALL,
            dataset_source="test",
        )
        for _ in range(2)
    ]
    a, b = (json.dumps(strip_timing(r), sort_keys=True) for r in runs)
    assert a == b


def test_failing_run_is_identified():
    # an encoder narrower than the data fails inside the run, not upfront
    bad = dict(SMALL)
    bad["encoder_config"] = EncoderConfig(input_dim=5, hidden_dims=(8,), output_dim=4)
    with pytest.raises(ConfigError, match=r"\(dynlocrep, seed 0\)"):
        benchmark(
            small_dataset(), [LossVariant.DYN_LOC_REP], [0], **bad, dataset_source="test"
        )


def test_empty_variant_or_seed_lists_rejected():
    with pytest.raises(ConfigError):
        benchmark(small_dataset(), [], [0], **SMALL, dataset_source="test")
    with pytest.raises(ConfigError):
        benchmark(small_dataset(), [LossVariant.Y_AWARE], [], **SMALL, dataset_source="test")
    with pytest.raises(ConfigError, match="duplicate seeds"):
        benchmark(small_dataset(), [LossVariant.Y_AWARE], [0, 0], **SMALL, dataset_source="test")
    with pytest.raises(ConfigError, match="duplicate variants"):
        benchmark(small_dataset(), [LossVariant.RANK_N_CONTRAST] * 2, [0], **SMALL, dataset_source="test")
    with pytest.raises(ConfigError, match="duplicate norms"):
        ablate_norms(
            small_dataset(), [DistanceNorm.MANHATTAN] * 2, [0], **SMALL, dataset_source="test"
        )
    # a member and its string value name one cell
    with pytest.raises(ConfigError, match="duplicate variants"):
        benchmark(
            small_dataset(), [LossVariant.Y_AWARE, "yaware"], [0], **SMALL, dataset_source="test"
        )
    with pytest.raises(ConfigError, match="duplicate norms"):
        ablate_norms(
            small_dataset(), ["cosine", DistanceNorm.COSINE], [0], **SMALL, dataset_source="test"
        )


def must_not_train(*args, **kwargs):
    pytest.fail("a run started although the grid is invalid")


def test_negative_seed_rejected_before_any_run(monkeypatch):
    import dynlocrep.evaluation as evaluation_module

    monkeypatch.setattr(evaluation_module, "train", must_not_train)
    with pytest.raises(ConfigError, match="seeds must be >= 0, got -3"):
        benchmark(small_dataset(), [LossVariant.Y_AWARE], [0, -3], **SMALL, dataset_source="test")


def test_string_and_member_cells_give_equal_reports():
    variants = [LossVariant.DYN_LOC_REP, LossVariant.RANK_N_CONTRAST]
    norms = [DistanceNorm.COSINE, DistanceNorm.MANHATTAN]
    for runner, cells in ((benchmark, variants), (ablate_norms, norms)):
        by_member, by_string = (
            json.dumps(strip_timing(
                runner(small_dataset(), spelled, [0], **SMALL, dataset_source="test")
            ))
            for spelled in (cells, [cell.value for cell in cells])
        )
        assert by_string == by_member, runner.__name__


def test_unknown_cell_name_rejected_before_any_run(monkeypatch):
    import dynlocrep.evaluation as evaluation_module

    monkeypatch.setattr(evaluation_module, "train", must_not_train)
    with pytest.raises(ConfigError, match="variant must be one of .*, got 'bogus'"):
        benchmark(small_dataset(), ["yaware", "bogus"], [0], **SMALL, dataset_source="test")
    with pytest.raises(ConfigError, match="distance_norm must be one of .*, got 'taxicab'"):
        ablate_norms(small_dataset(), ["taxicab"], [0], **SMALL, dataset_source="test")


def test_protocol_block_is_read_from_the_base_config():
    """The protocol lists the shared settings in report order; the
    benchmark appends its distance norm, which the ablation sweeps."""
    base = TrainConfig(
        epochs=4, batch_size=8, nn_final=3, nn_step_size=2, temperature=0.25,
        kernel=KernelSpec(bandwidth=3.0), distance_norm=DistanceNorm.COSINE,
        reduction=Reduction.MEAN,
    )
    protocol = {
        "seeds": [1],
        "test_fraction": 0.25,
        "resplit_per_seed": True,
        "readout_embeddings": "unit",
        "epochs": 4,
        "batch_size": 8,
        "temperature": 0.25,
        "kernel": {"kind": "gaussian", "bandwidth": 3.0},
        "nn_final": 3,
        "nn_step_size": 2,
        "nn_space": "embedding",
        "reduction": "mean",
        "learning_rate": 1e-4,
        "decay_factor": 0.9,
        "decay_every": 10,
        "weight_decay": 5e-5,
        "encoder": {"input_dim": 8, "hidden_dims": [16, 16], "output_dim": 8},
        "ridge_lambda": 2.0,
    }
    settings = dict(SMALL, base=base, ridge=RidgeConfig(2.0))
    reports = {
        "benchmark": benchmark(
            small_dataset(), [LossVariant.Y_AWARE], [1], **settings, test_fraction=0.25
        ),
        "ablation": ablate_norms(
            small_dataset(), [DistanceNorm.EUCLIDEAN], [1], **settings, test_fraction=0.25
        ),
    }
    expected = {"benchmark": {**protocol, "distance_norm": "cosine"}, "ablation": protocol}
    for kind, report in reports.items():
        # json keeps the key order, which a dict comparison ignores
        assert json.dumps(report["protocol"]) == json.dumps(expected[kind]), kind


# Settings that shape a run but that the protocol block does not list, and why.
NOT_IN_PROTOCOL = {
    "variant": "the benchmark sweeps it: each entry under 'variants' is one",
    "distance_norm": "the ablation sweeps it; the benchmark adds it as its own last key",
    "seed": "each run record carries its own seed",
    "export_epochs": "exports read the encoder between epochs and change no training",
}


def test_protocol_records_every_setting_that_shapes_a_run():
    """A report explains its numbers: every config field appears in the
    protocol under its report name, the encoder's in its own block."""
    settings = dict(SMALL, base=TrainConfig(epochs=2, batch_size=8, nn_final=3))
    reports = [
        benchmark(small_dataset(40), [LossVariant.Y_AWARE], [0], **settings),
        ablate_norms(small_dataset(40), [DistanceNorm.COSINE], [0], **settings),
    ]
    report_names = {"regularization": "ridge_lambda"}
    configs = (TrainConfig, OptimConfig, EncoderConfig, RidgeConfig)
    every_field = {f.name for config in configs for f in dataclasses.fields(config)}
    assert NOT_IN_PROTOCOL.keys() <= every_field
    for report in reports:
        protocol = report["protocol"]
        for config in configs:
            block = protocol["encoder"] if config is EncoderConfig else protocol
            for f in dataclasses.fields(config):
                if f.name not in NOT_IN_PROTOCOL:
                    assert report_names.get(f.name, f.name) in block, (report["kind"], f.name)


def test_ablation_report_structure_and_reference_values():
    report = ablate_norms(
        small_dataset(),
        [DistanceNorm.MANHATTAN, DistanceNorm.COSINE],
        [0],
        **SMALL,
        dataset_source="test",
    )
    assert list(report) == [
        "schema_version", "kind", "protocol", "dataset", "norms", "baselines", "timing"
    ]
    assert sorted(report["norms"]) == ["cosine", "manhattan"]
    manhattan = report["norms"]["manhattan"]
    assert manhattan["reference"]["paper_reference"] is True
    assert manhattan["reference"]["mae_mean"] == 3.724
    assert manhattan["reference"]["mae_std"] == 0.220
    assert report["norms"]["cosine"]["reference"]["mae_mean"] == 3.748
    assert len(manhattan["maes"]) == 1
