"""Datasets: synthetic generation, CSV round trips, splitting."""

import numpy as np
import pytest

import dynlocrep.data as data_module
from dynlocrep import (
    ConfigError,
    InputError,
    ParseError,
    SyntheticSpec,
    generate_synthetic,
    load_csv,
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
    assert abs(ds.labels.mean() - spec.mixture_mean) < 1.0  # mixture mean 46.5
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
        data_module._write_text_atomic(path, "x" * 100_000 + "\udc80")
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
