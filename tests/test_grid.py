"""The benchmark grid: one split per seed, one scoring path, settings
checked before the first run."""

import dataclasses

import pytest

from dynlocrep import (
    ConfigError,
    EncoderConfig,
    InputError,
    LossVariant,
    OptimConfig,
    RidgeConfig,
    ScheduleConfig,
    SyntheticSpec,
    TrainConfig,
    benchmark,
    generate_synthetic,
    init_encoder,
    mae,
    ridge_fit,
    split,
    train,
    write_csv,
)
from dynlocrep.cli import EXIT_OK, EXIT_USAGE, main

ENC = EncoderConfig(input_dim=8, hidden_dims=(16, 16), output_dim=8)
BASE = TrainConfig(epochs=4, batch_size=8, nn_final=3, nn_step_size=1)
RIDGE = RidgeConfig(1.0)


def small_dataset(n=60, seed=0):
    return generate_synthetic(SyntheticSpec(n=n, feature_dim=8, informative_dims=4), seed)


def run_grid(dataset, variants, seeds, base=BASE, **kwargs):
    return benchmark(
        dataset, variants, seeds, base, OptimConfig(), ENC, RIDGE, dataset_source="test",
        **kwargs,
    )


@pytest.fixture
def no_training(monkeypatch):
    import dynlocrep.evaluation as evaluation_module

    def must_not_train(*args, **kwargs):
        pytest.fail("a run started although a setting is invalid")

    monkeypatch.setattr(evaluation_module, "train", must_not_train)


def test_each_seed_is_split_once(monkeypatch):
    """Every cell and both baselines of a seed share one split."""
    import dynlocrep.evaluation as evaluation_module

    calls = []

    def counting_split(dataset, test_fraction, seed):
        calls.append(seed)
        return split(dataset, test_fraction, seed)

    monkeypatch.setattr(evaluation_module, "split", counting_split)
    run_grid(small_dataset(), [LossVariant.RANK_N_CONTRAST, LossVariant.Y_AWARE], [0, 1])
    assert calls == [0, 1]


def test_bad_test_fraction_rejected_before_any_run(no_training):
    with pytest.raises(ConfigError, match=r"^test_fraction must lie in \(0, 1\), got 1.0$"):
        run_grid(small_dataset(), [LossVariant.Y_AWARE], [0], test_fraction=1.0)


def test_dataset_too_small_to_split_rejected_before_any_run(no_training):
    with pytest.raises(InputError, match=r"^split of 6 rows at 0.2 leaves sides \(5, 1\)"):
        run_grid(small_dataset(n=6), [LossVariant.Y_AWARE], [0])


def test_bad_schedule_of_a_later_cell_rejected_before_any_run(no_training):
    """nn_final 9 cannot fit batch 8. Only the localized loss reads it, and
    it comes last, yet no earlier cell trains first."""
    base = dataclasses.replace(BASE, nn_final=9)
    with pytest.raises(ConfigError, match=r"^nn_final must be <= batch_size - 1 = 7, got 9$"):
        run_grid(
            small_dataset(), [LossVariant.RANK_N_CONTRAST, LossVariant.DYN_LOC_REP], [0], base
        )


def test_schedule_config_exists_only_where_the_loss_reads_it():
    assert BASE.schedule_config() == ScheduleConfig(
        batch_size=8, nn_final=3, step_size=1, max_epochs=4
    )
    assert dataclasses.replace(BASE, epochs=0).schedule_config() is None
    short = dataclasses.replace(BASE, epochs=1, nn_final=9, variant=LossVariant.Y_AWARE)
    assert short.schedule_config() is None
    report = run_grid(small_dataset(), [LossVariant.Y_AWARE], [0], short)
    assert report["variants"]["yaware"]["runs"][0]["final_mean_loss"] is not None


def test_grid_runs_match_their_direct_computation():
    """Each record equals split, train, ridge_fit and mae applied by hand."""
    dataset = small_dataset()
    seed = 2
    report = run_grid(dataset, [LossVariant.EXPONENTIAL], [seed])
    train_ds, test_ds = split(dataset, 0.2, seed)
    config = dataclasses.replace(BASE, variant=LossVariant.EXPONENTIAL, seed=seed)
    result = train(train_ds, config, OptimConfig(), ENC)

    def scored(embed):
        readout = ridge_fit(embed(train_ds), train_ds.labels, RIDGE)
        return mae(readout.predict(embed(test_ds)), test_ds.labels)

    run = report["variants"]["exponential"]["runs"][0]
    assert list(run) == ["seed", "mae", "final_mean_loss", "test_labels"]
    assert run["mae"] == scored(lambda ds: result.encoder.forward(ds.features).unit)
    assert run["final_mean_loss"] == result.trace[-1]["mean_loss"]
    raw = report["baselines"]["raw_features"]["runs"][0]
    assert list(raw) == ["seed", "mae", "test_labels"]
    assert raw["mae"] == scored(lambda ds: ds.features)
    frozen = init_encoder(ENC, seed)
    untrained = report["baselines"]["untrained_encoder"]["runs"][0]
    assert untrained["mae"] == scored(lambda ds: frozen.forward(ds.features).unit)
    assert run["test_labels"] == raw["test_labels"] == untrained["test_labels"]
    assert run["test_labels"]["mean"] == float(test_ds.labels.mean())


def test_export_epochs_beyond_the_run_rejected():
    with pytest.raises(ConfigError, match="export epochs must be <= epochs = 4, got 9"):
        dataclasses.replace(BASE, export_epochs=(2, 9))


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_nn_final_too_large_exits_64_before_training(tmp_path, capsys, no_training):
    out = tmp_path / "report.json"
    argv = ["benchmark", "--variants", "rnc,yaware,threshold,exponential,dynlocrep",
            "--nn-final", "40", "--synthetic-n", "60", "--seeds", "0", "--out", str(out)]
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "error: nn_final must be <= batch_size - 1 = 31, got 40" in err
    assert "run (" not in err
    assert not out.exists()


def test_cli_one_epoch_baseline_benchmark_runs(tmp_path):
    out = tmp_path / "report.json"
    argv = ["benchmark", "--variants", "rnc", "--epochs", "1", "--synthetic-n", "60",
            "--seeds", "0", "--batch-size", "8", "--hidden-dims", "8,8", "--embed-dim", "4",
            "--out", str(out)]
    assert main(argv) == EXIT_OK
    assert out.exists()


def test_cli_export_epoch_beyond_the_run_exits_64_without_artifact(tmp_path, capsys):
    data = tmp_path / "data.csv"
    ds = generate_synthetic(SyntheticSpec(n=40, feature_dim=6, informative_dims=3), 0)
    write_csv(ds, data)
    out_dir = tmp_path / "run"
    argv = ["train", "--data", str(data), "--out-dir", str(out_dir), "--epochs", "4",
            "--export-epochs", "2,9", "--batch-size", "8", "--nn-final", "3"]
    assert main(argv) == EXIT_USAGE
    assert "export epochs must be <= epochs = 4, got 9" in capsys.readouterr().err
    assert not out_dir.exists()
