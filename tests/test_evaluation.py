"""Evaluation: ridge readout, MAE, and the benchmark/ablation reports."""

import json

import numpy as np
import pytest

import oracles
from dynlocrep import (
    ConfigError,
    EncoderConfig,
    InputError,
    LossVariant,
    NumericalError,
    OptimConfig,
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
