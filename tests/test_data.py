"""Datasets: synthetic generation, CSV round trips, splitting."""

import re

import numpy as np
import pytest

import dynlocrep.data as data_module
from dynlocrep import (
    ConfigError,
    Dataset,
    Encoder,
    InputError,
    ParseError,
    SyntheticSpec,
    generate_synthetic,
    load_checkpoint,
    load_csv,
    save_checkpoint,
    split,
    write_csv,
)

DEFAULT = SyntheticSpec(n=100)


def test_generation_is_deterministic():
    a = generate_synthetic(DEFAULT, seed=7)
    b = generate_synthetic(DEFAULT, seed=7)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)
    assert a.ids == b.ids


def test_generation_shape_contract():
    ds = generate_synthetic(SyntheticSpec(n=37, feature_dim=9, informative_dims=4), seed=1)
    assert ds.features.shape == (37, 9)
    assert ds.labels.shape == (37,)
    assert len(ds.ids) == 37
    assert len(set(ds.ids)) == 37


def test_large_sample_is_bimodal_around_mixture_mean():
    spec = SyntheticSpec(n=10_000)
    ds = generate_synthetic(spec, seed=3)
    mixture_mean = sum(w * m for w, m in zip(spec.mixture_weights, spec.mixture_means))
    assert abs(ds.labels.mean() - mixture_mean) < 1.0  # mixture mean 46.5
    counts, edges = np.histogram(ds.labels, bins=30)
    centers = 0.5 * (edges[:-1] + edges[1:])
    left_peak = counts[(centers > 15) & (centers < 35)].max()
    right_peak = counts[(centers > 58) & (centers < 80)].max()
    valley = counts[(centers > 38) & (centers < 55)].min()
    assert valley < left_peak
    assert valley < right_peak


def test_informative_features_track_labels():
    spec = SyntheticSpec(n=2000, feature_dim=6, informative_dims=3, noise_std=0.0)
    ds = generate_synthetic(spec, seed=5)
    # noise-free informative columns are deterministic functions of the label
    order = np.argsort(ds.labels)
    same = np.abs(np.diff(ds.labels[order])) < 1e-9
    for j in range(3):
        col = ds.features[order, j]
        assert np.all(np.abs(np.diff(col))[same] < 1e-6)
    # pure-noise columns are uncorrelated with the label
    for j in range(3, 6):
        corr = np.corrcoef(ds.features[:, j], ds.labels)[0, 1]
        assert abs(corr) < 0.1


def test_spec_validation():
    with pytest.raises(ConfigError):
        SyntheticSpec(n=0)
    with pytest.raises(ConfigError):
        SyntheticSpec(n=10, mixture_weights=(0.7, 0.7))
    with pytest.raises(ConfigError):
        SyntheticSpec(n=10, mixture_stds=(0.0, 1.0))
    with pytest.raises(ConfigError):
        SyntheticSpec(n=10, feature_dim=4, informative_dims=5)
    with pytest.raises(ConfigError):
        SyntheticSpec(n=10, noise_std=-0.1)


@pytest.mark.parametrize(
    ("features", "labels", "ids", "message"),
    [
        (np.zeros(3), np.zeros(3), ("a", "b", "c"), "features must have shape (n, d), got (3,)"),
        (np.zeros((3, 2)), np.zeros(2), ("a", "b", "c"), "labels must have shape (3,), got (2,)"),
        (np.zeros((3, 2)), np.zeros(3), ("a", "b"),
         "ids must be a list or tuple of 3 distinct strings"),
        (np.zeros((0, 2)), np.zeros(0), (), "dataset is empty"),
        (np.array([[0.0], [np.nan]]), np.zeros(2), ("a", "b"),
         "features contains non-finite values"),
        (np.zeros((2, 1)), np.array([0.0, np.inf]), ("a", "b"),
         "labels contains non-finite values"),
        (np.zeros((2, 1)), np.zeros(2), ("a", "a"),
         "ids must be a list or tuple of 2 distinct strings"),
    ],
    ids=["1-d-features", "short-labels", "short-ids", "empty", "nan-feature", "inf-label", "dup-id"],
)
def test_dataset_rejects_inconsistent_columns(features, labels, ids, message):
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        Dataset(features=features, labels=labels, ids=ids)


@pytest.mark.parametrize("ids", [(1, 2), ("a", None), "ab", None], ids=repr)
def test_dataset_ids_must_be_strings(tmp_path, ids):
    """(1, 2) was accepted, and write_csv then raised a raw TypeError."""
    with pytest.raises(InputError, match="^ids must be a list or tuple of 2 distinct strings$"):
        Dataset(features=np.ones((2, 1)), labels=np.ones(2), ids=ids)
    dataset = Dataset(features=np.ones((2, 1)), labels=np.ones(2), ids=["a", "b"])
    assert dataset.ids == ("a", "b")
    write_csv(dataset, tmp_path / "ids.csv")
    assert load_csv(tmp_path / "ids.csv").ids == ("a", "b")


@pytest.mark.parametrize(
    ("field", "value"),
    [
        ("mixture_means", (float("nan"), 68.0)),
        ("mixture_stds", (5.0, float("inf"))),
        ("mixture_weights", (float("nan"), float("nan"))),
        ("noise_std", float("nan")),
        ("noise_std", float("inf")),
    ],
)
def test_spec_rejects_non_finite_values(field, value):
    with pytest.raises(ConfigError, match=f"{field} must be finite"):
        SyntheticSpec(n=10, **{field: value})


@pytest.mark.parametrize("value", [10.5, 12.0, True], ids=repr)
@pytest.mark.parametrize("field", ["n", "feature_dim", "informative_dims"])
def test_spec_sizes_must_be_integers(field, value):
    with pytest.raises(ConfigError, match=f"^{field} must be an integer, got"):
        SyntheticSpec(**{"n": 10, "feature_dim": 16, "informative_dims": 8, field: value})


@pytest.mark.parametrize("seed", [1.5, 1.0, True], ids=repr)
def test_seeds_must_be_integers(seed):
    with pytest.raises(ConfigError, match="^seed must be an integer, got"):
        generate_synthetic(DEFAULT, seed=seed)
    with pytest.raises(ConfigError, match="^seed must be an integer, got"):
        split(generate_synthetic(DEFAULT, seed=0), 0.2, seed)


def test_numpy_integer_sizes_and_seeds_are_accepted():
    spec = SyntheticSpec(n=np.int64(100), feature_dim=np.int32(16), informative_dims=np.uint8(8))
    dataset = generate_synthetic(spec, np.int64(0))
    assert dataset.features.tobytes() == generate_synthetic(DEFAULT, 0).features.tobytes()
    assert split(dataset, 0.2, np.int64(1))[1].ids == split(dataset, 0.2, 1)[1].ids


def test_negative_seeds_rejected():
    with pytest.raises(ConfigError, match="seed must be >= 0, got -1"):
        generate_synthetic(DEFAULT, seed=-1)
    with pytest.raises(ConfigError, match="seed must be >= 0, got -2"):
        split(generate_synthetic(DEFAULT, seed=0), seed=-2)


def test_csv_round_trip_is_exact(tmp_path):
    ds = generate_synthetic(SyntheticSpec(n=23, feature_dim=5, informative_dims=3), seed=11)
    path = tmp_path / "data.csv"
    write_csv(ds, path)
    back = load_csv(path)
    assert np.array_equal(back.features, ds.features)
    assert np.array_equal(back.labels, ds.labels)
    assert back.ids == ds.ids


def test_csv_file_shape(tmp_path):
    ds = generate_synthetic(SyntheticSpec(n=8, feature_dim=3, informative_dims=2), seed=0)
    path = tmp_path / "data.csv"
    write_csv(ds, path)
    lines = path.read_text().splitlines()
    assert len(lines) == 9
    assert lines[0] == "id,y,f0,f1,f2"


def test_three_row_file_loads(tmp_path):
    path = tmp_path / "tiny.csv"
    path.write_text("id,y,f0,f1\na,30.0,0.1,0.2\nb,40.0,0.3,0.4\nc,50.0,0.5,0.6\n")
    ds = load_csv(path)
    assert ds.n == 3
    assert ds.feature_dim == 2
    assert ds.ids == ("a", "b", "c")


def test_nan_cell_is_rejected_with_line_number(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("id,y,f0\na,30.0,0.1\nb,NaN,0.2\n")
    with pytest.raises(ParseError, match="line 3"):
        load_csv(path)


@pytest.mark.parametrize(
    ("cells", "finite"),
    [("1e308,1e308", True), ("-1e308,-1e308", True), ("1e308,inf", False), ("-inf,inf", False),
     ("1.0,nan", False)],
)
def test_a_row_is_finite_by_its_cells_not_by_their_sum(tmp_path, cells, finite):
    """A row of finite cells whose sum overflows loads; a non-finite cell
    does not, whatever the other cells sum to."""
    path = tmp_path / "data.csv"
    path.write_text(f"id,y,f0\na,{cells}\n")
    if finite:
        assert load_csv(path).labels.tolist() == [float(cells.split(",")[0])]
    else:
        with pytest.raises(ParseError, match=r"line 2: non-finite cell$"):
            load_csv(path)


def test_non_numeric_cell_is_rejected_with_line_number(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("id,y,f0\na,30.0,zebra\n")
    with pytest.raises(ParseError, match="line 2"):
        load_csv(path)


@pytest.mark.parametrize("row", ["a,1_0,0.1", "a,10.0,0_1", "a,10.0,1e1_0"])
def test_digit_separators_are_non_numeric(tmp_path, row):
    """float() accepts PEP 515 separators ("1_0" is 10.0); the loader must not."""
    path = tmp_path / "bad.csv"
    path.write_text(f"id,y,f0\nok_1,30.0,0.1\n{row}\n")
    with pytest.raises(ParseError, match=r"line 3: non-numeric cell$"):
        load_csv(path)
    path.write_text("id,y,f0\nok_1,30.0,0.1\n")
    assert load_csv(path).ids == ("ok_1",)


def test_duplicate_id_is_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("id,y,f0\na,30.0,0.1\na,40.0,0.2\n")
    with pytest.raises(ParseError, match="duplicate id"):
        load_csv(path)


def test_missing_column_is_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("id,y,f0,f1\na,30.0,0.1\n")
    with pytest.raises(ParseError, match="line 2"):
        load_csv(path)


def test_bad_header_is_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("idx,y,f0\na,30.0,0.1\n")
    with pytest.raises(ParseError, match="line 1"):
        load_csv(path)


@pytest.mark.parametrize(
    ("text", "message"),
    [
        ("", "line 1: empty file"),
        ("id,y,f1,f0\na,30.0,0.1,0.2\n", "line 1: feature columns must be f0..f1"),
        ("id,y,f0\n", "line 2: no data rows"),
    ],
    ids=["empty", "feature-names", "header-only"],
)
def test_file_level_defects_are_rejected_with_line_number(tmp_path, text, message):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ParseError, match="^" + re.escape(f"{path}: {message}") + "$"):
        load_csv(path)


def test_artifact_float_text_is_pinned(tmp_path):
    """Datasets and checkpoints write every float as its repr: the shortest
    text that reads back to the same double, signed zero and subnormals
    included."""
    dataset = Dataset(
        features=np.array([[1e-300, 5e-324], [0.1, -0.0], [123456789.125, 1e-300]]),
        labels=np.array([0.1, -0.0, 123456789.125]),
        ids=("a", "b", "c"),
    )
    write_csv(dataset, tmp_path / "data.csv")
    assert (tmp_path / "data.csv").read_text() == (
        "id,y,f0,f1\n"
        "a,0.1,1e-300,5e-324\n"
        "b,-0.0,0.1,-0.0\n"
        "c,123456789.125,123456789.125,1e-300\n"
    )
    encoder = Encoder(
        weights=[np.array([[0.1], [-0.0]]), np.array([[5e-324, 123456789.125]])],
        biases=[np.array([1e-300]), np.array([-0.0, 0.1])],
    )
    save_checkpoint(encoder, tmp_path / "encoder.txt")
    assert (tmp_path / "encoder.txt").read_text() == (
        "dynlocrep-encoder-checkpoint v1\n"
        "layer_dims 2 1 2\n"
        "layer 0 weight 2 1\n"
        "0.1\n"
        "-0.0\n"
        "layer 0 bias 1\n"
        "1e-300\n"
        "layer 1 weight 1 2\n"
        "5e-324 123456789.125\n"
        "layer 1 bias 2\n"
        "-0.0 0.1\n"
    )
    back = load_csv(tmp_path / "data.csv")
    assert np.array_equal(np.signbit(back.labels), np.signbit(dataset.labels))
    assert np.array_equal(np.signbit(back.features), np.signbit(dataset.features))
    params = load_checkpoint(tmp_path / "encoder.txt").params
    assert np.array_equal(params, encoder.params)
    assert np.array_equal(np.signbit(params), np.signbit(encoder.params))


def test_written_csv_matches_a_plain_text_write(tmp_path):
    ds = generate_synthetic(SyntheticSpec(n=5, feature_dim=3, informative_dims=2), seed=2)
    path = tmp_path / "data.csv"
    write_csv(ds, path)
    plain = tmp_path / "plain.csv"
    plain.write_text(path.read_text())
    assert path.read_bytes() == plain.read_bytes()
    assert path.stat().st_mode == plain.stat().st_mode
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv", "plain.csv"]


def test_failed_write_keeps_the_previous_file_and_leaves_no_temp_file(tmp_path):
    path = tmp_path / "report.json"
    path.write_text("previous\n")
    # a lone surrogate cannot be encoded, so the write raises after the
    # temp file was opened
    with pytest.raises(UnicodeEncodeError):
        data_module._write_lines_atomic(path, ["x" * 100_000 + "\udc80"])
    assert path.read_text() == "previous\n"
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]


def test_failed_replace_keeps_the_previous_file_and_leaves_no_temp_file(tmp_path, monkeypatch):
    path = tmp_path / "data.csv"
    path.write_text("previous\n")

    def refuse(source, target):
        raise OSError("disk full")

    monkeypatch.setattr(data_module.os, "replace", refuse)
    ds = generate_synthetic(SyntheticSpec(n=5, feature_dim=3, informative_dims=2), seed=2)
    with pytest.raises(OSError, match="disk full"):
        write_csv(ds, path)
    assert path.read_text() == "previous\n"
    assert [p.name for p in tmp_path.iterdir()] == ["data.csv"]


# a comma ends a cell; each of the rest ends a line for str.splitlines
CELL_BREAKS = [
    ",", "\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"
]


@pytest.mark.parametrize("bad", CELL_BREAKS, ids=repr)
def test_write_csv_rejects_an_id_its_reader_would_split(tmp_path, bad):
    path = tmp_path / "data.csv"
    path.write_text("previous\n")
    ds = generate_synthetic(SyntheticSpec(n=5, feature_dim=3, informative_dims=2), seed=2)
    ids = list(ds.ids)
    ids[3] = f"s{bad}3"
    with pytest.raises(InputError, match="row 3: id"):
        write_csv(Dataset(features=ds.features, labels=ds.labels, ids=tuple(ids)), path)
    assert path.read_text() == "previous\n"
    assert [p.name for p in tmp_path.iterdir()] == ["data.csv"]


def test_csv_round_trips_an_empty_id(tmp_path):
    ds = generate_synthetic(SyntheticSpec(n=3, feature_dim=2, informative_dims=1), seed=4)
    ds = Dataset(features=ds.features, labels=ds.labels, ids=("", "a b", "\tc"))
    write_csv(ds, tmp_path / "data.csv")
    loaded = load_csv(tmp_path / "data.csv")
    assert loaded.ids == ds.ids
    assert loaded.features.tobytes() == ds.features.tobytes()


def test_split_sizes_and_partition():
    ds = generate_synthetic(SyntheticSpec(n=10), seed=2)
    train_ds, test_ds = split(ds, test_fraction=0.2, seed=0)
    assert (train_ds.n, test_ds.n) == (8, 2)
    assert set(train_ds.ids) | set(test_ds.ids) == set(ds.ids)
    assert set(train_ds.ids) & set(test_ds.ids) == set()


def test_split_is_deterministic_and_seed_sensitive():
    ds = generate_synthetic(SyntheticSpec(n=50), seed=2)
    a1, _ = split(ds, seed=9)
    a2, _ = split(ds, seed=9)
    b1, _ = split(ds, seed=10)
    assert a1.ids == a2.ids
    assert a1.ids != b1.ids


def test_split_rejects_undersized_sides():
    ds = generate_synthetic(SyntheticSpec(n=6), seed=2)
    with pytest.raises(InputError):
        split(ds, test_fraction=0.1, seed=0)  # test side would have 1 row
    with pytest.raises(ConfigError):
        split(ds, test_fraction=0.0, seed=0)
    with pytest.raises(ConfigError):
        split(ds, test_fraction=1.0, seed=0)
