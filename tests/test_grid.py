"""The benchmark grid: one split per seed, one scoring path, settings
checked before the first run, trains in forked workers."""

import dataclasses
import multiprocessing
import os
import pickle
import re
import signal
import time

import pytest

from dynlocrep import (
    ConfigError,
    EncoderConfig,
    InputError,
    LossVariant,
    NumericalError,
    OptimConfig,
    RidgeConfig,
    ScheduleConfig,
    SyntheticSpec,
    TrainConfig,
    ablate_norms,
    benchmark,
    generate_synthetic,
    init_encoder,
    mae,
    ridge_fit,
    split,
    train,
    write_csv,
)
from dynlocrep.cli import EXIT_CANT_CREATE, EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, main

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
# Workers
# ---------------------------------------------------------------------------

SEEDS = [0, 1, 2]


@pytest.fixture
def train_pids(monkeypatch, tmp_path):
    """The grid's trains run as usual, and each appends its process id to a
    file, which the returned function reads back as a set."""
    import dynlocrep.evaluation as evaluation_module

    pids = tmp_path / "pids"
    pids.touch()

    def recording_train(*args, **kwargs):
        with pids.open("a") as out:
            out.write(f"{os.getpid()}\n")
        return train(*args, **kwargs)

    monkeypatch.setattr(evaluation_module, "train", recording_train)
    return lambda: set(map(int, pids.read_text().split()))


def ablate_grid(dataset, norms, seeds):
    return ablate_norms(
        dataset, norms, seeds, BASE, OptimConfig(), ENC, RIDGE, dataset_source="test"
    )


@pytest.mark.parametrize(
    ("grid", "entries", "cells"),
    [(run_grid, "variants", ["rnc", "yaware"]), (ablate_grid, "norms", ["cosine", "chebyshev"])],
    ids=["benchmark", "ablate_norms"],
)
def test_worker_runs_equal_runs_made_one_seed_at_a_time(
    grid, entries, cells, cpus, train_pids, no_worker_left
):
    cpus(2)
    dataset = small_dataset()
    report = grid(dataset, cells, SEEDS)
    workers = train_pids()
    assert workers and os.getpid() not in workers
    for cell in cells:
        alone = [grid(dataset, [cell], [seed])[entries][cell]["runs"][0] for seed in SEEDS]
        assert report[entries][cell]["runs"] == alone
        assert len(report["timing"]["per_run_seconds"][cell]) == len(SEEDS)
    assert train_pids() - workers == {os.getpid()}  # a one-run grid stays in this process


@pytest.mark.parametrize(
    "no_workers",
    [
        lambda monkeypatch: monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                                                raising=False),
        lambda monkeypatch: (monkeypatch.delattr(os, "sched_getaffinity", raising=False),
                             monkeypatch.setattr(os, "cpu_count", lambda: None)),
        lambda monkeypatch: monkeypatch.delattr(os, "fork"),
        lambda monkeypatch: monkeypatch.setattr(
            multiprocessing, "current_process", lambda: multiprocessing.Process(daemon=True)
        ),
    ],
    ids=["one-cpu", "cpu-count-unknown", "no-fork", "daemon"],
)
def test_grid_runs_in_this_process_where_it_cannot_fork_workers(
    no_workers, cpus, train_pids, monkeypatch, no_worker_left
):
    cpus(2)
    no_workers(monkeypatch)
    report = run_grid(small_dataset(), [LossVariant.Y_AWARE], SEEDS)
    assert len(report["variants"]["yaware"]["runs"]) == len(SEEDS)
    assert train_pids() == {os.getpid()}


@pytest.fixture
def yaware_fails(monkeypatch):
    """Every yaware train fails; the other losses train as usual."""
    import dynlocrep.evaluation as evaluation_module

    def train_or_fail(dataset, config, *args):
        if config.variant is LossVariant.Y_AWARE:
            raise NumericalError(f"made to fail at seed {config.seed}")
        return train(dataset, config, *args)

    monkeypatch.setattr(evaluation_module, "train", train_or_fail)


@pytest.mark.parametrize("count", [1, 2], ids=["in-process", "workers"])
def test_the_first_failing_run_in_grid_order_is_reported(count, cpus, yaware_fails, no_worker_left):
    cpus(count)
    message = "run (yaware, seed 0) failed: made to fail at seed 0"
    with pytest.raises(NumericalError, match=f"^{re.escape(message)}$") as raised:
        run_grid(small_dataset(), [LossVariant.RANK_N_CONTRAST, LossVariant.Y_AWARE], SEEDS)
    assert "made to fail at seed 0" in str(raised.value.__cause__)  # a worker sends its traceback


@pytest.mark.parametrize("count", [1, 2], ids=["in-process", "workers"])
def test_cli_exit_code_of_a_failing_grid_is_unchanged(
    count, cpus, yaware_fails, tmp_path, capsys, no_worker_left
):
    cpus(count)
    out = tmp_path / "report.json"
    argv = ["benchmark", "--variants", "rnc,yaware", "--epochs", "1", "--synthetic-n", "60",
            "--seeds", "0,1,2", "--batch-size", "8", "--hidden-dims", "8,8", "--embed-dim", "4",
            "--out", str(out)]
    assert main(argv) == EXIT_NUMERICAL
    assert capsys.readouterr().err == (
        "dynlocrep: error: numerical failure: run (yaware, seed 0) failed: made to fail at seed 0\n"
    )
    assert not out.exists()


@pytest.fixture
def dying_train(monkeypatch):
    """Every train ends its process at once, and fails the test if it runs
    in this process."""
    import dynlocrep.evaluation as evaluation_module

    parent = os.getpid()

    def train_and_die(*args, **kwargs):
        if os.getpid() == parent:
            pytest.fail("the run was not sent to a worker")
        os._exit(3)

    monkeypatch.setattr(evaluation_module, "train", train_and_die)


def test_a_dead_worker_makes_the_grid_raise_within_seconds(cpus, dying_train, no_worker_left):
    cpus(2)
    started = time.perf_counter()
    with pytest.raises(ChildProcessError, match="^the worker of run 0 of the grid died$"):
        run_grid(small_dataset(), [LossVariant.Y_AWARE], SEEDS)
    assert time.perf_counter() - started < 10


def test_cli_exit_code_of_a_dead_grid_worker_is_73(cpus, dying_train, tmp_path, capsys,
                                                   no_worker_left):
    """ChildProcessError is an OSError, and the CLI maps those to 73."""
    cpus(2)
    out = tmp_path / "report.json"
    argv = ["benchmark", "--variants", "yaware", "--epochs", "1", "--synthetic-n", "60",
            "--seeds", "0,1", "--batch-size", "8", "--hidden-dims", "8,8", "--embed-dim", "4",
            "--out", str(out)]
    assert main(argv) == EXIT_CANT_CREATE
    assert capsys.readouterr().err == "dynlocrep: error: the worker of run 0 of the grid died\n"
    assert not out.exists()


def test_a_worker_sends_each_result_then_the_first_error_and_exits(monkeypatch, exit_here):
    """A worker's life, run here."""
    import dynlocrep.data as data_module
    import dynlocrep.evaluation as evaluation_module

    def timed_record(job):
        if job == "bad":
            raise NumericalError("made to fail")
        return {"job": job}, 0.5

    monkeypatch.setattr(evaluation_module, "_timed_record", timed_record)
    read_fd, write_fd = os.pipe()
    work = lambda worker, pipe: evaluation_module._work(["a", "b", "bad", "c"], pipe)  # noqa: E731
    with pytest.raises(exit_here) as exited:
        data_module._child(work, 0, write_fd)
    assert signal.getsignal(signal.SIGINT) is signal.SIG_IGN  # Ctrl-C is the parent's
    assert exited.value.args == (0,)
    with os.fdopen(read_fd, "rb") as pipe:
        sent = [pickle.load(pipe) for _ in range(3)]
        assert pipe.read() == b""
    assert sent[:2] == [(({"job": "a"}, 0.5), None), (({"job": "b"}, 0.5), None)]
    error, text = sent[2]
    assert type(error) is NumericalError and str(error) == "made to fail"
    assert text.endswith("dynlocrep.errors.NumericalError: made to fail\n")


def test_worker_w_of_w_workers_is_dealt_jobs_w_w_plus_w_and_so_on(monkeypatch, cpus, exit_here):
    """The child's side of the fork, run here: os.fork returns 0."""
    import dynlocrep.evaluation as evaluation_module

    read_fd, write_fd = os.pipe()
    dealt = []
    cpus(2)
    monkeypatch.setattr(os, "pipe", lambda: (read_fd, write_fd))
    monkeypatch.setattr(os, "fork", lambda: 0)
    monkeypatch.setattr(evaluation_module, "_work", lambda jobs, pipe: dealt.append(jobs))
    try:
        with pytest.raises(exit_here) as exited:
            evaluation_module._run_jobs(["a", "b", "c"])
    finally:
        os.close(read_fd)
    assert exited.value.args == (0,)
    assert dealt == [["a", "c"]]


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
