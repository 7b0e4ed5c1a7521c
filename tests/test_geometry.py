"""Geometry: normalization, similarities, the four distance norms, neighbors."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from dynlocrep import (
    ConfigError,
    DistanceNorm,
    NumericalError,
    distance_matrix,
    l2_normalize,
    select_neighbors,
    similarity_matrix,
)

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
