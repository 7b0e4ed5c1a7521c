"""CLI: exit codes, artifacts, config files, and golden help texts.

The help goldens pin flag names and defaults; regenerate after an
intentional interface change with UPDATE_GOLDEN=1 pytest tests/test_cli.py.
"""

import contextlib
import dataclasses
import io
import json
import math
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dynlocrep import (
    EncoderConfig,
    LossVariant,
    OptimConfig,
    RidgeConfig,
    SyntheticSpec,
    TrainConfig,
    benchmark,
    generate_synthetic,
    load_checkpoint,
    load_csv,
    save_checkpoint,
    train,
    write_csv,
)
from dynlocrep.cli import (
    EXIT_CANT_CREATE,
    EXIT_MISSING_INPUT,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_OVERWRITE,
    EXIT_USAGE,
    build_parser,
    main,
)
from dynlocrep.evaluation import strip_timing

GOLDEN_DIR = Path(__file__).parent / "golden"

FAST_TRAIN = [
    "--epochs", "4", "--batch-size", "8", "--nn-final", "3",
    "--hidden-dims", "8,8", "--embed-dim", "4",
]


def write_small_csv(path, n=40, seed=0):
    ds = generate_synthetic(SyntheticSpec(n=n, feature_dim=6, informative_dims=3), seed)
    write_csv(ds, path)
    return ds


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------


def test_generate_writes_header_plus_n_lines(tmp_path):
    out = tmp_path / "data.csv"
    assert main(["generate", "--n", "500", "--seed", "7", "--out", str(out)]) == EXIT_OK
    assert len(out.read_text().splitlines()) == 501


def test_generate_refuses_overwrite_without_force(tmp_path, capsys):
    out = tmp_path / "data.csv"
    main(["generate", "--n", "10", "--out", str(out)])
    before = out.read_text()
    assert main(["generate", "--n", "12", "--out", str(out)]) == EXIT_OVERWRITE
    assert out.read_text() == before  # no write happened
    assert "refusing to overwrite" in capsys.readouterr().err
    assert main(["generate", "--n", "12", "--out", str(out), "--force"]) == EXIT_OK
    assert len(out.read_text().splitlines()) == 13


def test_generate_rejects_zero_n(tmp_path):
    out = tmp_path / "data.csv"
    assert main(["generate", "--n", "0", "--out", str(out)]) == EXIT_USAGE
    assert not out.exists()


def test_generate_requires_out():
    assert main(["generate", "--n", "5"]) == EXIT_USAGE


def test_generated_csv_loads_back(tmp_path):
    out = tmp_path / "data.csv"
    main(["generate", "--n", "25", "--seed", "3", "--out", str(out)])
    ds = load_csv(out)
    assert ds.n == 25
    assert ds.feature_dim == 16


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def test_train_writes_trace_checkpoint_and_exports(tmp_path):
    data = tmp_path / "data.csv"
    ds = write_small_csv(data)
    out_dir = tmp_path / "run"
    code = main(
        ["train", "--data", str(data), "--out-dir", str(out_dir), "--seed", "1",
         "--export-epochs", "1,4", *FAST_TRAIN]
    )
    assert code == EXIT_OK
    trace_lines = (out_dir / "trace.jsonl").read_text().splitlines()
    assert len(trace_lines) == 4
    first = json.loads(trace_lines[0])
    assert set(first) == {"epoch", "lr", "nn_count", "mean_loss"}
    assert (out_dir / "encoder.txt").exists()
    for epoch in (1, 4):
        export = (out_dir / f"embeddings_epoch{epoch}.csv").read_text().splitlines()
        assert export[0] == "epoch,id,y," + ",".join(f"z{j}" for j in range(4))
        assert len(export) == ds.n + 1
        assert export[1].startswith(f"{epoch},{ds.ids[0]},")
    # the last export is the final encoder's output, and its text reads back bit for bit
    rows = [line.split(",") for line in export[1:]]
    assert [row[1] for row in rows] == list(ds.ids)
    assert np.array_equal([float(row[2]) for row in rows], ds.labels)
    z = np.array([[float(cell) for cell in row[3:]] for row in rows])
    assert np.array_equal(z, load_checkpoint(out_dir / "encoder.txt").forward(ds.features).unit)


def test_train_accepts_reference_configuration(tmp_path):
    """The published best recipe (manhattan, nn_final 14, step 1) parses and
    runs; epochs stay at the default 50 so the schedule is valid."""
    data = tmp_path / "data.csv"
    write_small_csv(data, n=70)
    out_dir = tmp_path / "run"
    code = main(
        ["train", "--data", str(data), "--out-dir", str(out_dir),
         "--loss", "dynlocrep", "--nn-final", "14", "--nn-step-size", "1",
         "--distance-norm", "manhattan", "--epochs", "12", "--batch-size", "16",
         "--hidden-dims", "8,8", "--embed-dim", "4"]
    )
    assert code == EXIT_OK
    assert len((out_dir / "trace.jsonl").read_text().splitlines()) == 12


def test_train_rejects_zero_nn_final(tmp_path):
    data = tmp_path / "data.csv"
    write_small_csv(data)
    assert (
        main(["train", "--data", str(data), "--out-dir", str(tmp_path / "r"),
              "--nn-final", "0", *FAST_TRAIN[:-4]])
        == EXIT_USAGE
    )


def test_train_missing_csv_exits_66(tmp_path):
    code = main(
        ["train", "--data", str(tmp_path / "nope.csv"), "--out-dir", str(tmp_path / "r")]
    )
    assert code == EXIT_MISSING_INPUT


def test_train_numerical_failure_exits_70(tmp_path, monkeypatch, capsys):
    import dynlocrep.cli as cli_module
    from dynlocrep import NumericalError

    def explode(*args, **kwargs):
        raise NumericalError("epoch 3: dynlocrep loss produced non-finite output")

    monkeypatch.setattr(cli_module, "train", explode)
    data = tmp_path / "data.csv"
    write_small_csv(data)
    code = main(["train", "--data", str(data), "--out-dir", str(tmp_path / "r"), *FAST_TRAIN])
    assert code == EXIT_NUMERICAL
    assert "epoch 3" in capsys.readouterr().err


def test_train_on_non_finite_embeddings_exits_70_naming_the_epoch(tmp_path, monkeypatch, capsys):
    """From epoch 1 on the neighbor count is below the batch, so selection
    would run on the NaN embeddings; the loss rejects them first."""
    from dynlocrep import EmbeddingBatch
    from dynlocrep.encoder import Encoder

    forward, calls = Encoder.forward, []

    def nan_after_the_first_epoch(self, features):
        batch = forward(self, features)
        calls.append(None)
        if len(calls) <= 5:  # 40 rows in batches of 8
            return batch
        nan = np.full_like(batch.raw, np.nan)
        return EmbeddingBatch(raw=nan, unit=nan)

    monkeypatch.setattr(Encoder, "forward", nan_after_the_first_epoch)
    data = tmp_path / "data.csv"
    write_small_csv(data)
    code = main(["train", "--data", str(data), "--out-dir", str(tmp_path / "r"), *FAST_TRAIN])
    assert code == EXIT_NUMERICAL
    assert "epoch 1: embeddings contain non-finite values" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


def test_train_malformed_csv_exits_64(tmp_path):
    data = tmp_path / "bad.csv"
    data.write_text("id,y,f0\na,30.0,NaN\n")
    code = main(["train", "--data", str(data), "--out-dir", str(tmp_path / "r")])
    assert code == EXIT_USAGE


def test_unknown_loss_rejected(tmp_path):
    data = tmp_path / "data.csv"
    write_small_csv(data)
    code = main(
        ["train", "--data", str(data), "--out-dir", str(tmp_path / "r"), "--loss", "bogus"]
    )
    assert code == EXIT_USAGE


def test_train_single_epoch_localized_names_the_flags(tmp_path, capsys):
    data = tmp_path / "data.csv"
    write_small_csv(data)
    code = main(
        ["train", "--data", str(data), "--out-dir", str(tmp_path / "r"), "--epochs", "1"]
    )
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert "epochs >= 2 * nn_step_size" in err
    assert "got epochs=1 with nn_step_size=1" in err


def test_train_on_labels_the_kernel_cannot_resolve_exits_64(tmp_path, capsys):
    data = tmp_path / "data.csv"
    ds = generate_synthetic(SyntheticSpec(n=40, feature_dim=6, informative_dims=3), 0)
    write_csv(dataclasses.replace(ds, labels=ds.labels * 1e6), data)
    out_dir = tmp_path / "r"
    code = main(["train", "--data", str(data), "--out-dir", str(out_dir), *FAST_TRAIN])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert "every pair weight of the dynlocrep loss was dropped" in err
    assert "kernel bandwidth 6 does not fit the label spread" in err
    assert not out_dir.exists()


def test_train_on_constant_labels_exits_64_without_artifact(tmp_path, capsys):
    data = tmp_path / "data.csv"
    ds = generate_synthetic(SyntheticSpec(n=40, feature_dim=6, informative_dims=3), 0)
    write_csv(dataclasses.replace(ds, labels=np.full(40, 30.0)), data)
    out_dir = tmp_path / "r"
    code = main(["train", "--data", str(data), "--out-dir", str(out_dir), *FAST_TRAIN])
    assert code == EXIT_USAGE
    assert "epoch 0: every training label is the same" in capsys.readouterr().err
    assert not out_dir.exists()


def test_train_on_overflowing_features_exits_70_naming_the_epoch(tmp_path, capsys):
    data = tmp_path / "data.csv"
    ds = generate_synthetic(SyntheticSpec(n=40, feature_dim=6, informative_dims=3), 0)
    write_csv(dataclasses.replace(ds, features=ds.features * 1e200), data)
    out_dir = tmp_path / "r"
    code = main(["train", "--data", str(data), "--out-dir", str(out_dir), *FAST_TRAIN])
    assert code == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert "numerical failure: epoch 0: 8 embedding rows" in err
    assert "have non-finite norms" in err
    assert not out_dir.exists()


@st.composite
def adversarial_rows(draw):
    """2, 3 or 5 rows of (label, features): labels tied to a few values,
    zero, constant or varied columns at scale 1e-200, 1 or 1e200, and
    maybe a duplicate row."""
    n = draw(st.sampled_from([2, 3, 5]))
    scale = draw(st.sampled_from([1e-200, 1.0, 1e200]))
    values = st.sampled_from([0.0, 1.0, 2.5, 40.0])
    ties = draw(st.lists(values, min_size=2, max_size=3, unique=True))
    labels = draw(st.lists(st.sampled_from(ties), min_size=n, max_size=n))
    columns = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["zero", "constant", "varied"]))
        if kind == "zero":
            columns.append([0.0] * n)
        elif kind == "constant":
            columns.append([draw(st.sampled_from([-1.0, 0.5, 3.0]))] * n)
        else:
            cells = st.sampled_from([-2.0, -1.0, 0.0, 0.5, 1.0, 3.0])
            columns.append(draw(st.lists(cells, min_size=n, max_size=n)))
    rows = [[labels[i], *(column[i] * scale for column in columns)] for i in range(n)]
    if draw(st.booleans()):
        rows[-1] = list(rows[0])
    return rows


@settings(max_examples=25, deadline=None)
@given(
    rows=adversarial_rows(),
    loss=st.sampled_from(list(LossVariant)),
    epochs=st.integers(2, 4),
)
def test_train_on_small_adversarial_data_exits_cleanly(rows, loss, epochs):
    """Degenerate data ends in success, a usage error or a numerical
    failure, never a crash; a success traces one finite loss per epoch,
    and some pair kept a weight in each, as train exits 64 otherwise.
    RuntimeWarnings are errors in this suite, so none may be emitted."""
    header = "id,y," + ",".join(f"f{j}" for j in range(len(rows[0]) - 1))
    lines = [header, *(f"r{i}," + ",".join(map(repr, row)) for i, row in enumerate(rows))]
    with tempfile.TemporaryDirectory() as tmp:
        data, out_dir = Path(tmp) / "data.csv", Path(tmp) / "run"
        data.write_text("\n".join(lines) + "\n")
        argv = [
            "train", "--data", str(data), "--out-dir", str(out_dir), "--loss", loss.value,
            "--epochs", str(epochs), "--batch-size", "4", "--nn-final", "1",
            "--hidden-dims", "4", "--embed-dim", "2",
        ]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (EXIT_OK, EXIT_USAGE, EXIT_NUMERICAL), err.getvalue()
        assert "Traceback" not in err.getvalue()
        if code == EXIT_OK:
            lines = (out_dir / "trace.jsonl").read_text().splitlines()
            trace = [json.loads(line) for line in lines]
            assert [entry["epoch"] for entry in trace] == list(range(epochs))
            assert all(math.isfinite(entry["mean_loss"]) for entry in trace)
        else:
            assert not out_dir.exists()


# ---------------------------------------------------------------------------
# benchmark / ablate
# ---------------------------------------------------------------------------

FAST_PROTOCOL = [
    "--synthetic-n", "60", "--seeds", "0,1", *FAST_TRAIN,
]


def test_benchmark_single_variant_report(tmp_path):
    out = tmp_path / "report.json"
    code = main(
        ["benchmark", "--variants", "dynlocrep", "--out", str(out), *FAST_PROTOCOL]
    )
    assert code == EXIT_OK
    report = json.loads(out.read_text())
    assert list(report["variants"]) == ["dynlocrep"]
    assert len(report["variants"]["dynlocrep"]["maes"]) == 2
    assert sorted(report["baselines"]) == ["raw_features", "untrained_encoder"]


def test_benchmark_empty_variants_rejected(tmp_path):
    code = main(["benchmark", "--variants", "", "--out", str(tmp_path / "r.json")])
    assert code == EXIT_USAGE


@pytest.mark.parametrize("flags", [["--variants", "rnc,rnc"], ["--seeds", "0,0"]])
def test_benchmark_duplicate_variants_or_seeds_exit_64_without_a_report(tmp_path, capsys, flags):
    out = tmp_path / "r.json"
    # flags go last: argparse keeps the last --seeds, and FAST_PROTOCOL sets one
    assert main(["benchmark", "--out", str(out), *FAST_PROTOCOL, *flags]) == EXIT_USAGE
    assert "duplicate" in capsys.readouterr().err
    assert not out.exists()


def test_benchmark_missing_data_exits_66(tmp_path):
    code = main(
        ["benchmark", "--data", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "r.json")]
    )
    assert code == EXIT_MISSING_INPUT


@pytest.mark.parametrize(
    "argv",
    [
        ["train", "--data", "{dir}", "--out-dir", "{tmp}/r"],
        ["benchmark", "--data", "{dir}", "--out", "{tmp}/r.json"],
        ["train", "--config", "{dir}", "--data", "{tmp}/data.csv", "--out-dir", "{tmp}/r"],
    ],
)
def test_unreadable_input_exits_66(tmp_path, capsys, argv):
    """An input that exists but cannot be read is a missing input, not an
    output-location failure."""
    directory = tmp_path / "somedir"
    directory.mkdir()
    write_small_csv(tmp_path / "data.csv")
    code = main([a.format(dir=directory, tmp=tmp_path) for a in argv])
    err = capsys.readouterr().err
    assert code == EXIT_MISSING_INPUT
    assert err.startswith("dynlocrep: error: cannot read ")
    assert "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv", "somedir"]


@pytest.mark.parametrize(
    "command, flags",
    [
        ("train", ["--out-dir", "{blocker}"]),
        ("train", ["--out-dir", "{blocker}/run"]),
        ("benchmark", ["--out", "{blocker}/r.json", "--variants", "rnc", "--seeds", "0"]),
        ("ablate", ["--out", "{blocker}/r.json", "--norms", "cosine", "--seeds", "0"]),
        ("generate", ["--out", "{blocker}/x.csv"]),
    ],
)
def test_unwritable_output_exits_73_before_any_work(tmp_path, capsys, monkeypatch, command, flags):
    """A regular file where the output directory should be fails at once,
    not after training, and without a traceback."""
    import dynlocrep.cli as cli_module
    import dynlocrep.evaluation as evaluation_module

    def must_not_run(*args, **kwargs):
        pytest.fail("work started although the output location cannot be created")

    for module, name in ((cli_module, "train"), (evaluation_module, "train"),
                         (cli_module, "generate_synthetic")):
        monkeypatch.setattr(module, name, must_not_run)
    blocker = tmp_path / "blocker"
    blocker.write_text("a regular file\n")
    data = tmp_path / "data.csv"
    write_small_csv(data)
    inputs = [] if command == "generate" else ["--data", str(data), *FAST_TRAIN]
    code = main([command, *inputs, *(f.format(blocker=blocker) for f in flags)])
    err = capsys.readouterr().err
    assert code == EXIT_CANT_CREATE
    assert err.startswith("dynlocrep: error: ")
    assert "Traceback" not in err
    assert blocker.read_text() == "a regular file\n"


def test_benchmark_is_byte_identical_excluding_timing(tmp_path):
    """Two identical invocations agree on every byte outside "timing"."""
    reports = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        assert (
            main(["benchmark", "--variants", "dynlocrep,yaware", "--out", str(out),
                  *FAST_PROTOCOL])
            == EXIT_OK
        )
        data = json.loads(out.read_text())
        data.pop("timing")
        reports.append(json.dumps(data, sort_keys=True))
    assert reports[0] == reports[1]


def test_ablate_default_covers_four_norms(tmp_path):
    out = tmp_path / "ablation.json"
    code = main(
        ["ablate", "--out", str(out), "--synthetic-n", "60", "--seeds", "0", *FAST_TRAIN]
    )
    assert code == EXIT_OK
    report = json.loads(out.read_text())
    assert sorted(report["norms"]) == ["chebyshev", "cosine", "euclidean", "manhattan"]
    for name, entry in report["norms"].items():
        assert entry["reference"]["paper_reference"] is True
        assert len(entry["maes"]) == 1


def test_ablate_single_norm_subset(tmp_path):
    out = tmp_path / "ablation.json"
    code = main(["ablate", "--norms", "manhattan", "--out", str(out), *FAST_PROTOCOL])
    assert code == EXIT_OK
    report = json.loads(out.read_text())
    assert list(report["norms"]) == ["manhattan"]


def test_ablate_unknown_norm_rejected(tmp_path):
    assert main(["ablate", "--norms", "hamming", "--out", str(tmp_path / "r.json")]) == EXIT_USAGE


@pytest.mark.parametrize("command", ["benchmark", "ablate"])
@pytest.mark.parametrize("seeds", ["-1", "0,-3"])
def test_negative_seeds_rejected_at_the_flag(tmp_path, capsys, command, seeds):
    out = tmp_path / "r.json"
    assert main([command, "--seeds", seeds, "--out", str(out), *FAST_TRAIN]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "argument --seeds: must be >= 0" in err
    assert "Traceback" not in err
    assert not out.exists()


# ---------------------------------------------------------------------------
# range checks: argparse parses, the library configs check the effective value
# ---------------------------------------------------------------------------

# One bad value for every flag that once had its own range-checking type
# function, including NaN and inf where they reach a range. The flag under
# test appears exactly once on the command line, so no later occurrence
# can mask it.
BAD_VALUES = [
    ("generate", "--n", "0"),
    ("generate", "--seed", "-1"),
    ("generate", "--feature-dim", "0"),
    ("generate", "--informative-dims", "-1"),
    ("generate", "--noise-std", "-0.1"),
    ("generate", "--noise-std", "nan"),
    ("generate", "--mix-means", ""),
    ("generate", "--mix-means", "nan,68"),
    ("generate", "--mix-stds", "5,x"),
    ("generate", "--mix-weights", "0.5,-0.5"),
    ("train", "--epochs", "0"),
    ("train", "--batch-size", "0"),
    ("train", "--lr", "0"),
    ("train", "--lr", "inf"),
    ("train", "--lr-decay", "0"),
    ("train", "--lr-decay", "nan"),
    ("train", "--lr-decay-every", "0"),
    ("train", "--weight-decay", "-1"),
    ("train", "--kernel-sigma", "-6"),
    ("train", "--kernel-sigma", "1e-170"),
    ("train", "--kernel-sigma", "1e160"),
    ("train", "--temperature", "0"),
    ("train", "--temperature", "nan"),
    ("train", "--nn-final", "0"),
    ("train", "--nn-step-size", "0"),
    ("train", "--hidden-dims", ""),
    ("train", "--hidden-dims", "8,0"),
    ("train", "--embed-dim", "0"),
    ("train", "--seed", "-1"),
    ("train", "--export-epochs", "0,4"),
    ("train", "--export-epochs", "1,x"),
    ("benchmark", "--synthetic-n", "0"),
    ("benchmark", "--data-seed", "-1"),
    ("benchmark", "--seeds", "0,x"),
    ("benchmark", "--seeds", ""),
    ("benchmark", "--test-fraction", "1"),
    ("benchmark", "--ridge-lambda", "-1"),
    ("benchmark", "--variants", "bogus"),
    ("benchmark", "--batch-size", "2"),
    ("ablate", "--norms", "hamming"),
    ("ablate", "--norms", ""),
    ("ablate", "--test-fraction", "nan"),
    ("ablate", "--ridge-lambda", "inf"),
]


@pytest.mark.parametrize(("command", "flag", "value"), BAD_VALUES)
def test_bad_value_exits_64_without_artifact(tmp_path, capsys, command, flag, value):
    fast = dict(zip(FAST_TRAIN[::2], FAST_TRAIN[1::2]))
    if command == "generate":
        artifact = tmp_path / "data.csv"
        flags = {"--n": "30", "--out": str(artifact)}
    elif command == "train":
        write_small_csv(tmp_path / "data.csv")
        artifact = tmp_path / "run"
        flags = {"--data": str(tmp_path / "data.csv"), "--out-dir": str(artifact), **fast}
    else:
        artifact = tmp_path / "report.json"
        flags = {"--synthetic-n": "60", "--seeds": "0", "--out": str(artifact), **fast}
    flags[flag] = value
    argv = [command, *(token for pair in flags.items() for token in pair)]
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "error:" in err
    assert "Traceback" not in err
    assert not artifact.exists()


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_weight_decay_exits_64_before_training(tmp_path, capsys, monkeypatch, value):
    import dynlocrep.cli as cli_module

    def must_not_train(*args, **kwargs):
        pytest.fail("training started with a non-finite weight decay")

    monkeypatch.setattr(cli_module, "train", must_not_train)
    data = tmp_path / "data.csv"
    write_small_csv(data)
    out_dir = tmp_path / "run"
    argv = ["train", "--data", str(data), "--out-dir", str(out_dir), "--weight-decay", value]
    assert main([*argv, *FAST_TRAIN]) == EXIT_USAGE
    assert f"weight_decay must be finite and >= 0, got {value}" in capsys.readouterr().err
    assert not out_dir.exists()


def test_non_finite_mixture_weights_exit_64(tmp_path, capsys):
    out = tmp_path / "data.csv"
    assert main(["generate", "--mix-weights", "nan,nan", "--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "mixture_weights must be finite" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_unknown_names_list_the_choices(tmp_path, capsys):
    out = tmp_path / "r.json"
    assert main(["benchmark", "--variants", "rnc,bogus", "--out", str(out)]) == EXIT_USAGE
    assert "'bogus'; choose from dynlocrep, yaware, threshold, exponential, rnc" in (
        capsys.readouterr().err
    )
    assert main(["ablate", "--norms", "hamming", "--out", str(out)]) == EXIT_USAGE
    assert "'hamming'; choose from manhattan, euclidean, chebyshev, cosine" in (
        capsys.readouterr().err
    )


def test_only_the_effective_value_is_checked(tmp_path):
    """Explicit flags override file values and the last flag wins; a value
    that is overridden is never used, so it is not checked. Nor are the
    synthetic-data flags when --data makes them unused."""
    data = tmp_path / "data.csv"
    write_small_csv(data)
    config = tmp_path / "run.conf"
    config.write_text("lr = 0\n")
    argv = ["train", "--config", str(config), "--data", str(data), "--out-dir",
            str(tmp_path / "run"), "--lr", "1e-3", "--batch-size", "0", *FAST_TRAIN]
    assert main(argv) == EXIT_OK
    out = tmp_path / "r.json"
    argv = ["benchmark", "--data", str(data), "--data-seed", "-1", "--synthetic-n", "0",
            "--variants", "yaware", "--seeds", "0", "--out", str(out), *FAST_TRAIN]
    assert main(argv) == EXIT_OK
    assert out.exists()


# ---------------------------------------------------------------------------
# config file
# ---------------------------------------------------------------------------


def test_config_file_supplies_values_and_flags_override(tmp_path):
    config = tmp_path / "run.conf"
    config.write_text(
        "# generation settings\n"
        "n = 30\n"
        "seed = 5   # inline comment\n"
        "feature-dim = 6\n"
        "informative-dims = 3\n"
        "mix-means = -10,40\n"
    )
    out = tmp_path / "data.csv"
    assert main(["generate", "--config", str(config), "--out", str(out)]) == EXIT_OK
    assert load_csv(out).n == 30
    assert load_csv(out).labels.min() < 0  # a leading minus stays with its key
    out2 = tmp_path / "data2.csv"
    assert (
        main(["generate", "--config", str(config), "--out", str(out2), "--n", "11"]) == EXIT_OK
    )
    assert load_csv(out2).n == 11  # explicit flag beats the file
    for switch, code in (("false", EXIT_OVERWRITE), ("true", EXIT_OK)):
        config.write_text(f"n = 12\nforce = {switch}\n")
        assert main(["generate", "--config", str(config), "--out", str(out)]) == code
    assert load_csv(out).n == 12  # force = true overwrote the file


def test_config_file_unknown_key_rejected(tmp_path, monkeypatch):
    """Keys are exact long-flag names: an abbreviation such as 'epoch' for
    'epochs' is refused, and a file cannot name another config file."""
    monkeypatch.chdir(tmp_path)
    write_small_csv(tmp_path / "data.csv")
    train_args = ["--data", "data.csv", "--out-dir", "r", *FAST_TRAIN[2:]]
    config = tmp_path / "run.conf"
    for command, line, args in (
        ("generate", "zebra = 1", ["--out", "x.csv"]),
        ("generate", "config = other.conf", ["--out", "x.csv"]),
        ("train", "epoch = 3", train_args),
        ("train", "handler = x", train_args),
        ("train", "command = train", train_args),
    ):
        config.write_text(line + "\n")
        assert main([command, "--config", str(config), *args]) == EXIT_USAGE, line


def test_config_file_bad_value_rejected(tmp_path):
    config = tmp_path / "run.conf"
    config.write_text("n = minus-four\n")
    assert main(["generate", "--config", str(config), "--out", "x.csv"]) == EXIT_USAGE


def test_config_file_choice_validated(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    data = tmp_path / "data.csv"
    write_small_csv(data)
    config = tmp_path / "run.conf"
    config.write_text("loss = bogus\n")
    code = main(
        ["train", "--config", str(config), "--data", str(data), "--out-dir", "r"]
    )
    assert code == EXIT_USAGE


def test_config_file_missing_exits_66(tmp_path):
    code = main(["generate", "--config", str(tmp_path / "nope.conf"), "--out", "x.csv"])
    assert code == EXIT_MISSING_INPUT


def test_config_flag_prefix_applies_the_file(tmp_path):
    """argparse resolves --config, so its unambiguous prefix --conf, spelled
    either way, applies the file exactly as --config does."""
    data = tmp_path / "data.csv"
    write_small_csv(data)
    config = tmp_path / "run.conf"
    config.write_text("epochs = 2\nseed = 3\n")
    artifacts = []
    for index, spelling in enumerate(
        (["--config", str(config)], ["--conf", str(config)], [f"--conf={config}"])
    ):
        out_dir = tmp_path / f"run{index}"
        argv = ["train", *spelling, "--data", str(data), "--out-dir", str(out_dir),
                *FAST_TRAIN[2:]]
        assert main(argv) == EXIT_OK, spelling
        artifacts.append(
            ((out_dir / "trace.jsonl").read_bytes(), (out_dir / "encoder.txt").read_bytes())
        )
    assert len(artifacts[0][0].splitlines()) == 2  # the file's epochs, not the default 50
    assert artifacts[1] == artifacts[0]
    assert artifacts[2] == artifacts[0]


def test_config_flag_prefix_missing_file_exits_66(tmp_path):
    """A missing file named through --conf is reported, and nothing is
    written. argv is parsed before the file is read, so a bad flag next to
    it is reported first."""
    data = tmp_path / "data.csv"
    write_small_csv(data)
    argv = ["train", "--conf", str(tmp_path / "missing.conf"), "--data", str(data),
            "--out-dir", str(tmp_path / "run"), *FAST_TRAIN[2:]]
    assert main(argv) == EXIT_MISSING_INPUT
    assert main([*argv, "--epochs", "0"]) == EXIT_USAGE
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv"]


def test_config_file_malformed_line_rejected(tmp_path):
    config = tmp_path / "run.conf"
    config.write_text("this line has no equals sign\n")
    assert main(["generate", "--config", str(config), "--out", "x.csv"]) == EXIT_USAGE


@pytest.mark.parametrize(
    ("text", "message"),
    [
        ("n = 30\n = 5\n", "line 2: empty key"),
        ("n = 30\nseed = 1\nn = 31\n", "line 3: duplicate key 'n'"),
        ("force = maybe\n", "config key 'force' expects a boolean, got 'maybe'"),
    ],
    ids=["empty-key", "duplicate-key", "non-boolean-switch"],
)
def test_config_file_bad_entry_exits_64_naming_it(tmp_path, capsys, text, message):
    config = tmp_path / "run.conf"
    config.write_text(text)
    out = tmp_path / "data.csv"
    assert main(["generate", "--config", str(config), "--out", str(out)]) == EXIT_USAGE
    assert message in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# flag defaults are the library defaults
# ---------------------------------------------------------------------------


def test_train_defaults_are_the_library_defaults(tmp_path):
    """Bare `train` writes what the library writes with default configs."""
    data = tmp_path / "data.csv"
    ds = write_small_csv(data)
    out_dir = tmp_path / "run"
    argv = ["train", "--data", str(data), "--out-dir", str(out_dir), "--epochs", "2"]
    assert main(argv) == EXIT_OK
    encoder_config = EncoderConfig(input_dim=ds.feature_dim)
    result = train(load_csv(data), TrainConfig(epochs=2), OptimConfig(), encoder_config)
    save_checkpoint(result.encoder, tmp_path / "library.txt")
    trace = "".join(json.dumps(entry) + "\n" for entry in result.trace)
    assert (out_dir / "trace.jsonl").read_text() == trace
    assert (out_dir / "encoder.txt").read_bytes() == (tmp_path / "library.txt").read_bytes()


def test_generate_defaults_are_the_library_defaults(tmp_path):
    argv = ["generate", "--n", "40", "--seed", "3", "--out", str(tmp_path / "cli.csv")]
    assert main(argv) == EXIT_OK
    write_csv(generate_synthetic(SyntheticSpec(n=40), 3), tmp_path / "library.csv")
    assert (tmp_path / "cli.csv").read_bytes() == (tmp_path / "library.csv").read_bytes()


def test_benchmark_defaults_are_the_library_defaults(tmp_path):
    """A one-seed `benchmark` agrees with the library outside "timing"."""
    out = tmp_path / "report.json"
    argv = ["benchmark", "--synthetic-n", "60", "--seeds", "0", "--epochs", "2", "--out", str(out)]
    assert main(argv) == EXIT_OK
    report = benchmark(
        generate_synthetic(SyntheticSpec(n=60), 0),
        list(LossVariant),
        [0],
        TrainConfig(epochs=2),
        OptimConfig(),
        EncoderConfig(input_dim=SyntheticSpec.feature_dim),
        RidgeConfig(),
        dataset_source="synthetic(n=60, seed=0)",
    )
    expected = json.dumps(strip_timing(report), indent=2)
    assert json.dumps(strip_timing(json.loads(out.read_text())), indent=2) == expected


# ---------------------------------------------------------------------------
# help goldens
# ---------------------------------------------------------------------------


def collect_help_texts() -> dict[str, str]:
    parser, commands = build_parser()
    texts = {"root": parser.format_help()}
    for name, sub in commands.items():
        texts[name] = sub.format_help()
    return texts


def test_help_texts_match_goldens():
    texts = collect_help_texts()
    if os.environ.get("UPDATE_GOLDEN"):
        GOLDEN_DIR.mkdir(exist_ok=True)
        for name, text in texts.items():
            (GOLDEN_DIR / f"help_{name}.txt").write_text(text)
        pytest.skip("golden files regenerated")
    for name, text in texts.items():
        golden = (GOLDEN_DIR / f"help_{name}.txt").read_text()
        assert text == golden, f"--help for {name!r} drifted from its golden file"


def test_every_flag_documents_its_default():
    """Every optional flag shows a default in the help text."""
    _, commands = build_parser()
    for name, sub in commands.items():
        text = sub.format_help()
        for action in sub._actions:
            if not action.option_strings or action.dest in ("help",):
                continue
            assert "(default:" in text
            assert action.option_strings[0] in text, (name, action.dest)


def test_help_exits_zero(capsys):
    assert main(["--help"]) == EXIT_OK
    assert "generate" in capsys.readouterr().out
    assert main(["train", "--help"]) == EXIT_OK
    capsys.readouterr()


def test_no_command_prints_help_and_exits_usage(capsys):
    assert main([]) == EXIT_USAGE
    assert "COMMAND" in capsys.readouterr().out
