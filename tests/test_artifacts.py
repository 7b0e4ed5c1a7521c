"""Artifact I/O: streamed writes pinned to the joined-text bytes, atomic
failure, loader equivalence, and memory bounds measured with tracemalloc."""

import json
import tracemalloc

import numpy as np
import pytest

import dynlocrep.data as data_module
from dynlocrep import (
    Dataset,
    EncoderConfig,
    SyntheticSpec,
    generate_synthetic,
    init_encoder,
    load_csv,
    save_checkpoint,
    write_csv,
)
from dynlocrep.cli import EXIT_OK, _write_embedding_export, main

MB = 1 << 20


def joined(lines):
    """The reference text: every line, each ended by a newline."""
    return "\n".join(lines) + "\n"


def repr_row(values):
    return ",".join(map(repr, values.tolist()))


def csv_reference(dataset):
    header = "id,y," + ",".join(f"f{j}" for j in range(dataset.feature_dim))
    values = np.column_stack((dataset.labels, dataset.features))
    return joined([header, *(f"{i},{repr_row(row)}" for i, row in zip(dataset.ids, values))])


def export_reference(epoch, ids, labels, embeddings):
    header = "epoch,id,y," + ",".join(f"z{j}" for j in range(embeddings.shape[1]))
    values = np.column_stack((labels, embeddings))
    return joined([header, *(f"{epoch},{i},{repr_row(row)}" for i, row in zip(ids, values))])


def random_dataset(rng, n, p):
    scales = rng.choice([1e-300, 1e-3, 1.0, 1e3, 1e300], size=(n, p + 1))
    values = rng.standard_normal((n, p + 1)) * scales
    values[rng.random((n, p + 1)) < 0.05] = -0.0
    ids = tuple(f"r{i}" for i in range(n))
    return Dataset(features=values[:, 1:].copy(), labels=values[:, 0].copy(), ids=ids)


def peak_bytes(call):
    """The peak of traced allocations while ``call()`` runs, above what was
    traced when it started."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


# ---------------------------------------------------------------------------
# every writer gives the bytes of the joined text
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(("n", "p"), [(1, 1), (7, 1), (23, 5), (4, 0), (1, 0)])
def test_write_csv_bytes_equal_the_joined_text(tmp_path, n, p):
    dataset = random_dataset(np.random.default_rng(n * 10 + p), n, p)
    write_csv(dataset, tmp_path / "data.csv")
    assert (tmp_path / "data.csv").read_bytes() == csv_reference(dataset).encode()


@pytest.mark.parametrize(("n", "d"), [(1, 1), (9, 4), (30, 32)])
def test_embedding_export_bytes_equal_the_joined_text(tmp_path, n, d):
    rng = np.random.default_rng(n + d)
    ids = tuple(f"s{i:05d}" for i in range(n))
    labels, embeddings = rng.normal(40.0, 15.0, size=n), rng.standard_normal((n, d))
    _write_embedding_export(tmp_path / "export.csv", 7, ids, labels, embeddings)
    expected = export_reference(7, ids, labels, embeddings)
    assert (tmp_path / "export.csv").read_bytes() == expected.encode()


def test_checkpoint_bytes_equal_the_joined_text(tmp_path):
    encoder = init_encoder(EncoderConfig(input_dim=5, hidden_dims=(7, 3), output_dim=2), seed=4)
    lines = ["dynlocrep-encoder-checkpoint v1", "layer_dims 5 7 3 2"]
    for idx, (w, b) in enumerate(zip(encoder.weights, encoder.biases)):
        lines.append(f"layer {idx} weight {w.shape[0]} {w.shape[1]}")
        lines.extend(" ".join(map(repr, row.tolist())) for row in w)
        lines.append(f"layer {idx} bias {b.shape[0]}")
        lines.append(" ".join(map(repr, b.tolist())))
    save_checkpoint(encoder, tmp_path / "encoder.txt")
    assert (tmp_path / "encoder.txt").read_bytes() == joined(lines).encode()


def test_report_bytes_equal_the_joined_text(tmp_path):
    # the trace is pinned to its joined text by
    # test_cli.py::test_train_defaults_are_the_library_defaults
    data = tmp_path / "data.csv"
    write_csv(generate_synthetic(SyntheticSpec(n=40, feature_dim=6, informative_dims=3), 0), data)
    report = tmp_path / "report.json"
    argv = [
        "benchmark", "--data", str(data), "--seeds", "0", "--variants", "rnc", "--epochs", "3",
        "--batch-size", "8", "--hidden-dims", "8", "--embed-dim", "4", "--out", str(report),
    ]
    assert main(argv) == EXIT_OK
    text = report.read_text()
    assert text == joined([json.dumps(json.loads(text), indent=2)])


# ---------------------------------------------------------------------------
# a failed write leaves the previous file
# ---------------------------------------------------------------------------


def test_line_iterator_that_raises_keeps_the_previous_file_and_no_temp_file(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("previous\n")

    def lines():
        for i in range(1000):
            yield f"line {i}"
        raise RuntimeError("source failed")

    with pytest.raises(RuntimeError, match="source failed"):
        data_module._write_lines_atomic(path, lines())
    assert path.read_text() == "previous\n"
    assert [p.name for p in tmp_path.iterdir()] == ["data.csv"]


# ---------------------------------------------------------------------------
# the loader gives the doubles of a plain list-of-rows parse
# ---------------------------------------------------------------------------


def reference_load(path):
    """The rows parsed cell by cell into lists, then one np.array each."""
    ids, labels, rows = [], [], []
    for line in path.read_text().splitlines()[1:]:
        row_id, *cells = line.split(",")
        ids.append(row_id)
        labels.append(float(cells[0]))
        rows.append([float(cell) for cell in cells[1:]])
    return np.array(rows, dtype=np.float64), np.array(labels, dtype=np.float64), tuple(ids)


@pytest.mark.parametrize("seed", range(12))
def test_load_csv_matches_a_list_of_rows_parse_bit_for_bit(tmp_path, seed):
    rng = np.random.default_rng(seed)
    n = [1, 2, 1, 40][seed % 4] if seed < 4 else int(rng.integers(1, 60))
    p = 1 if seed % 3 == 0 else int(rng.integers(1, 20))
    path = tmp_path / "data.csv"
    write_csv(random_dataset(rng, n, p), path)
    if seed % 2:  # cells in other spellings than repr
        text = path.read_text().replace("e-", "E-").replace(".0,", ".000,")
        path.write_text(text)
    features, labels, ids = reference_load(path)
    dataset = load_csv(path)
    assert dataset.ids == ids
    for got, want in ((dataset.features, features), (dataset.labels, labels)):
        assert got.dtype == np.float64 and got.shape == want.shape
        assert got.flags.c_contiguous and got.flags.owndata
        assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# memory: writers hold one row, the loader one buffer of doubles
# ---------------------------------------------------------------------------


def test_embedding_export_of_10000_rows_peaks_below_1_mb(tmp_path):
    # joining the whole file into one string peaked at about 16 MB here
    rng = np.random.default_rng(0)
    ids = tuple(f"s{i:05d}" for i in range(10_000))
    labels, embeddings = rng.normal(40.0, 15.0, size=10_000), rng.standard_normal((10_000, 32))
    peak = peak_bytes(
        lambda: _write_embedding_export(tmp_path / "export.csv", 1, ids, labels, embeddings)
    )
    assert peak < 1 * MB


def test_write_csv_of_10000_rows_peaks_below_1_mb(tmp_path):
    # joining the whole file into one string peaked at about 8.3 MB here
    dataset = generate_synthetic(SyntheticSpec(n=10_000), 0)
    assert peak_bytes(lambda: write_csv(dataset, tmp_path / "data.csv")) < 1 * MB


def test_load_csv_peaks_below_two_and_a_half_times_the_file_size(tmp_path):
    # a Python float per cell, held in one list per row, peaked at about
    # 3.7 times the file size here
    path = tmp_path / "data.csv"
    write_csv(generate_synthetic(SyntheticSpec(n=10_000), 0), path)
    assert peak_bytes(lambda: load_csv(path)) < 2.5 * path.stat().st_size
