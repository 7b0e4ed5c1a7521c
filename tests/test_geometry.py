"""Geometry: normalization, similarities, the four distance norms, neighbors."""

import inspect
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

import dynlocrep.geometry as geometry_module
import dynlocrep.losses as losses_module
from dynlocrep import (
    ConfigError,
    DistanceNorm,
    EmbeddingBatch,
    EncoderConfig,
    InputError,
    KernelSpec,
    NeighborSpace,
    NumericalError,
    OptimConfig,
    SyntheticSpec,
    TrainConfig,
    distance_matrix,
    generate_synthetic,
    l2_normalize,
    positiveness_matrix,
    select_neighbors,
    similarity_matrix,
    train,
)

COORDINATE_NORMS = (DistanceNorm.MANHATTAN, DistanceNorm.EUCLIDEAN, DistanceNorm.CHEBYSHEV)

small_matrices = arrays(
    np.float64,
    st.tuples(st.integers(2, 8), st.integers(1, 5)),
    elements=st.floats(min_value=-10, max_value=10, allow_nan=False),
)


def test_normalize_three_four_row():
    out = l2_normalize(np.array([[3.0, 4.0]]))
    assert np.allclose(out, [[0.6, 0.8]], atol=1e-15)


def test_normalize_is_idempotent_on_unit_rows():
    out = l2_normalize(np.array([[1.0, 0.0]]))
    assert np.array_equal(out, np.array([[1.0, 0.0]]))


def test_normalize_leaves_zero_rows_zero():
    out = l2_normalize(np.zeros((2, 3)))
    assert np.array_equal(out, np.zeros((2, 3)))


@given(small_matrices)
def test_normalize_produces_unit_rows(raw):
    """Rows above the epsilon guard come out unit; guarded rows only shrink."""
    unit = l2_normalize(raw)
    norms = np.linalg.norm(unit, axis=1)
    above_guard = np.linalg.norm(raw, axis=1) > 1e-12
    assert np.all(np.abs(norms[above_guard] - 1.0) < 1e-9)
    assert np.all(norms[~above_guard] <= 1.0 + 1e-9)


def test_normalize_matches_linalg_norm_bit_for_bit():
    """The norms come from linalg.norm's own formula without its wrapper."""
    raw = np.random.default_rng(8).normal(size=(40, 7))
    raw[1] = 0.0
    raw[2] *= 1e-13 / np.linalg.norm(raw[2])
    raw[3] *= 1e150
    raw[4] *= 1e-150
    expected = raw / np.maximum(np.linalg.norm(raw, axis=-1, keepdims=True), 1e-12)
    assert l2_normalize(raw).tobytes() == expected.tobytes()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [1e200, math.inf, math.nan])
def test_normalize_rejects_non_finite_norms_without_a_warning(bad):
    raw = np.ones((5, 3))
    raw[3, 1] = bad
    with pytest.raises(NumericalError, match="1 embedding rows, the first row 3, have non-finite"):
        l2_normalize(raw)


def test_similarity_identical_rows():
    unit = np.array([[1.0, 0.0], [1.0, 0.0]])
    s = similarity_matrix(unit, 0.1)
    assert s[0, 1] == pytest.approx(10.0, abs=1e-12)


def test_similarity_orthogonal_rows():
    unit = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert similarity_matrix(unit, 0.1)[0, 1] == 0.0


def test_similarity_antipodal_rows():
    unit = np.array([[1.0, 0.0], [-1.0, 0.0]])
    assert similarity_matrix(unit, 0.1)[0, 1] == pytest.approx(-10.0, abs=1e-12)


def test_similarity_rejects_bad_temperature():
    with pytest.raises(ConfigError):
        similarity_matrix(np.eye(2), 0.0)
    with pytest.raises(ConfigError):
        similarity_matrix(np.eye(2), -0.5)


def test_similarity_symmetric_and_bounded():
    rng = np.random.default_rng(5)
    unit = l2_normalize(rng.normal(size=(12, 6)))
    sim = similarity_matrix(unit, 0.1)
    assert np.array_equal(sim, sim.T)
    assert np.all(np.abs(sim) <= 10.0 + 1e-9)
    assert np.allclose(np.diag(sim), 10.0, atol=1e-9)


def test_distance_hand_computed_pair():
    points = np.array([[0.0, 0.0], [1.0, 1.0]])
    assert distance_matrix(points, DistanceNorm.MANHATTAN)[0, 1] == 2.0
    assert distance_matrix(points, DistanceNorm.EUCLIDEAN)[0, 1] == pytest.approx(
        math.sqrt(2.0), rel=1e-15
    )
    assert distance_matrix(points, DistanceNorm.CHEBYSHEV)[0, 1] == 1.0


def test_cosine_distance_of_parallel_vectors_is_zero():
    points = np.array([[1.0, 0.0], [2.0, 0.0]])
    assert distance_matrix(points, DistanceNorm.COSINE)[0, 1] == 0.0


def test_distance_diagonal_is_exactly_zero():
    rng = np.random.default_rng(6)
    points = rng.normal(size=(9, 4))
    for norm in DistanceNorm:
        assert np.array_equal(np.diag(distance_matrix(points, norm)), np.zeros(9))


def test_distance_symmetric_and_nonnegative():
    rng = np.random.default_rng(7)
    points = rng.normal(size=(11, 5))
    for norm in DistanceNorm:
        d = distance_matrix(points, norm)
        assert np.array_equal(d, d.T)
        assert np.all(d >= 0.0)


def test_cosine_distance_range():
    rng = np.random.default_rng(8)
    d = distance_matrix(rng.normal(size=(30, 4)), DistanceNorm.COSINE)
    assert np.all(d <= 2.0 + 1e-12)


@pytest.mark.parametrize("norm", list(DistanceNorm))
def test_distance_takes_a_norm_or_its_string_value(norm):
    points = np.random.default_rng(12).normal(size=(7, 3))
    by_string = distance_matrix(points, norm.value)
    assert by_string.tobytes() == distance_matrix(points, norm).tobytes()


def test_an_unknown_distance_norm_lists_the_choices():
    allowed = ", ".join(norm.value for norm in DistanceNorm)
    with pytest.raises(ConfigError, match=f"^distance norm must be one of {allowed}, got 'bogus'$"):
        distance_matrix(np.eye(3), "bogus")


@pytest.mark.parametrize(
    ("call", "message"),
    [
        (lambda: EmbeddingBatch.from_raw(np.ones(3)),
         "embeddings must have shape (n, d), got (3,)"),
        (lambda: distance_matrix(np.ones((1, 3)), "manhattan"),
         "need a batch of at least 2 samples, got 1"),
        (lambda: select_neighbors(np.zeros((3, 4)), 1),
         "distances must have shape (n, n), got (3, 4)"),
        (lambda: similarity_matrix(np.ones(3), 0.5),
         "unit embeddings must have shape (n, d), got (3,)"),
    ],
    ids=["1-d-embeddings", "one-row-distance", "non-square-distances", "1-d-unit"],
)
def test_geometry_rejects_misshapen_inputs(call, message):
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        call()


def out_cases():
    """Each function that takes the step's private ``_out``, as (function,
    input, the other arguments), on an n = 256 batch at d = 32."""
    rng = np.random.default_rng(19)
    points = rng.normal(size=(256, 32))
    return {
        "similarity_matrix": (similarity_matrix, l2_normalize(points), (0.5,)),
        "positiveness_matrix": (
            positiveness_matrix, rng.uniform(0.0, 60.0, size=256), (KernelSpec(),)
        ),
        "distance_matrix": (distance_matrix, points, ("manhattan",)),
        "select_neighbors": (
            select_neighbors, distance_matrix(points, DistanceNorm.MANHATTAN), (5,)
        ),
    }


@pytest.mark.parametrize("name", list(out_cases()))
def test_a_given_out_receives_the_result(name):
    """A given ``_out`` holds the bytes of a call without one, and is the
    result, except for select_neighbors, whose indices are always new. No
    public signature has an ``out``."""
    function, given, args = out_cases()[name]
    assert "out" not in inspect.signature(function).parameters
    out = np.full((256, 256), np.nan)
    result = function(given, *args, _out=out)
    assert result.tobytes() == function(given, *args).tobytes()
    assert (result is out) == (name != "select_neighbors")


def test_full_neighborhood_is_all_other_indices():
    rng = np.random.default_rng(9)
    d = distance_matrix(rng.normal(size=(6, 3)), DistanceNorm.EUCLIDEAN)
    sets = select_neighbors(d, 5)
    for i in range(6):
        assert sorted(sets[i]) == [j for j in range(6) if j != i]


def test_one_dimensional_nearest_neighbors():
    d = distance_matrix(np.array([[0.0], [1.0], [3.0]]), DistanceNorm.EUCLIDEAN)
    sets = select_neighbors(d, 1)
    assert sets.tolist() == [[1], [0], [1]]


def test_tie_breaks_to_smaller_index():
    # anchor 0 sits exactly between the points at indices 2 and 5
    points = np.array([[0.0], [40.0], [1.0], [50.0], [60.0], [-1.0]])
    d = distance_matrix(points, DistanceNorm.EUCLIDEAN)
    assert d[0, 2] == d[0, 5]
    sets = select_neighbors(d, 1)
    assert sets[0].tolist() == [2]


def test_neighbor_count_bounds_enforced():
    d = distance_matrix(np.eye(4), DistanceNorm.EUCLIDEAN)
    with pytest.raises(ConfigError):
        select_neighbors(d, 0)
    with pytest.raises(ConfigError):
        select_neighbors(d, 4)


@pytest.mark.parametrize("count", [2.0, 2.5, True, np.float64(2.0)], ids=repr)
def test_a_neighbor_count_must_be_an_integer(count):
    d = distance_matrix(np.eye(4), DistanceNorm.EUCLIDEAN)
    with pytest.raises(ConfigError, match="^neighbor count must be an integer, got"):
        select_neighbors(d, count)
    assert select_neighbors(d, np.int64(2)).tolist() == select_neighbors(d, 2).tolist()


def test_neighbors_never_contain_anchor_and_share_cardinality():
    rng = np.random.default_rng(10)
    d = distance_matrix(rng.normal(size=(13, 4)), DistanceNorm.MANHATTAN)
    for count in (1, 4, 12):
        sets = select_neighbors(d, count)
        assert sets.shape == (13, count)
        for i in range(13):
            assert i not in sets[i]


def test_euclidean_and_cosine_agree_on_unit_rows():
    """On the unit sphere, squared euclidean distance is twice the cosine
    distance, so both orderings pick identical neighbor sets."""
    rng = np.random.default_rng(11)
    unit = l2_normalize(rng.normal(size=(20, 6)))
    d_euc = distance_matrix(unit, DistanceNorm.EUCLIDEAN)
    d_cos = distance_matrix(unit, DistanceNorm.COSINE)
    off = ~np.eye(20, dtype=bool)
    assert np.allclose(d_euc[off] ** 2, 2.0 * d_cos[off], atol=1e-9)
    for count in (1, 5, 19):
        assert np.array_equal(
            select_neighbors(d_euc, count), select_neighbors(d_cos, count)
        )


# ---------------------------------------------------------------------------
# the folded coordinate distances give the bytes of the full difference tensor
# ---------------------------------------------------------------------------


def repeat_reference(points, norm):
    """The full (n, n, d) difference-tensor formula, kept verbatim as the
    bit-for-bit reference for the folded coordinate distances; cosine, which
    builds no difference tensor, goes to distance_matrix itself."""
    if norm is DistanceNorm.COSINE:
        return distance_matrix(points, norm)
    points = np.asarray(points, dtype=np.float64)
    n, d = points.shape
    diff = np.repeat(points, n, axis=0).reshape(n, n, d)
    diff -= points
    np.abs(diff, out=diff)
    if norm is DistanceNorm.MANHATTAN:
        return diff.sum(axis=-1)
    if norm is DistanceNorm.EUCLIDEAN:
        diff *= diff
        return np.sqrt(diff.sum(axis=-1))
    return diff.max(axis=-1)


def reference_cases():
    """(points, label) over n in [2, 70], d in [1, 130] (past NumPy's
    128-element pairwise block), scales 1e-3 to 1e3, and C-ordered,
    F-ordered and row-strided layouts; then shapes whose offsets the fold
    splits into 512 KB blocks: 16 blocks of 8 at (256, 32), 18 of 7 and
    one of 1 at (255, 33), exactly one at (91, 16), 50 of 2 at (200, 130),
    and at (130, 32) four of 15 and a last one of 5 that holds offset
    n / 2."""
    rng = np.random.default_rng(17)
    shapes = [(2, 1), (3, 1), (2, 130), (3, 129), (70, 130), (69, 128), (64, 8), (65, 9)]
    shapes += [(int(rng.integers(2, 71)), int(rng.integers(1, 131))) for _ in range(100)]
    shapes += [(256, 32), (255, 33), (91, 16), (200, 130), (130, 32)]
    for case, (n, d) in enumerate(shapes):
        scale = 10.0 ** rng.uniform(-3.0, 3.0)
        layout = ("C", "F", "strided")[case % 3]
        if layout == "strided":
            points = (rng.normal(size=(2 * n, d)) * scale)[::2]
        else:
            points = np.asarray(rng.normal(size=(n, d)) * scale, order=layout)
        yield points, f"n={n} d={d} scale={scale:.3g} {layout}"


def test_coordinate_distances_equal_the_full_tensor_bit_for_bit():
    for points, label in reference_cases():
        for norm in COORDINATE_NORMS:
            got = distance_matrix(points, norm)
            assert got.tobytes() == repeat_reference(points, norm).tobytes(), (label, norm)


@pytest.mark.parametrize("batch_size", [7, 32])
def test_training_through_the_reference_distance_gives_the_same_bits(monkeypatch, batch_size):
    """45 rows leave trailing batches of 3 and 13 rows. nn_final 3 takes the
    count below n - 1, so the 7-, 13- and 32-row batches compute distances."""
    dataset = generate_synthetic(SyntheticSpec(n=45, feature_dim=8, informative_dims=4), 3)
    encoder_config = EncoderConfig(input_dim=8, hidden_dims=(16,), output_dim=8)
    configs = [
        TrainConfig(
            epochs=4, batch_size=batch_size, nn_final=3, distance_norm=norm, nn_space=space
        )
        for norm in DistanceNorm
        for space in NeighborSpace
    ]
    shipped = [train(dataset, config, OptimConfig(), encoder_config) for config in configs]
    sizes = set()

    def reference(points, norm, *, _out=None):
        sizes.add(len(points))
        if _out is None:
            return repeat_reference(points, norm)
        np.copyto(_out, repeat_reference(points, norm))
        return _out

    monkeypatch.setattr(losses_module, "distance_matrix", reference)
    for config, ours in zip(configs, shipped):
        theirs = train(dataset, config, OptimConfig(), encoder_config)
        assert ours.encoder.params.tobytes() == theirs.encoder.params.tobytes(), config
        assert [e["mean_loss"] for e in ours.trace] == [e["mean_loss"] for e in theirs.trace]
    assert sizes == ({7} if batch_size == 7 else {13, 32})


def test_distance_transient_is_one_block():
    """Warm, a (256, 32) manhattan distance peaks at 1.08 MB (10^6 bytes):
    the 512 KB (n, n) result, one 512 KB block of 8 folded offsets and its
    (8, 256) sums. Folding all 128 offsets at once peaked at 8.65 MB, and
    the full (256, 256, 32) difference tensor at 17.3 MB."""
    points = np.random.default_rng(18).normal(size=(256, 32))
    distance_matrix(points, DistanceNorm.MANHATTAN)  # builds the cached layout
    tracemalloc.start()
    try:
        distance_matrix(points, DistanceNorm.MANHATTAN)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5e6


def test_cached_fold_layout_is_read_only():
    distance_matrix(np.eye(5), DistanceNorm.MANHATTAN)
    for array in geometry_module._fold_layout(5):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0, 0] = 0
