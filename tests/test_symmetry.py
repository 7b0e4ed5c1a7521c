"""Exact symmetry of the similarity and cosine-distance matrices.

Both are built from an array times its own transpose, which NumPy
evaluates so that the two triangles agree bit for bit; these properties
pin that over shapes and memory layouts.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from dynlocrep import DistanceNorm, distance_matrix, l2_normalize, similarity_matrix

LAYOUTS = ("C", "F", "strided")


def laid_out(values: np.ndarray, layout: str) -> np.ndarray:
    if layout == "F":
        return np.asfortranarray(values)
    if layout == "strided":
        # every other column of a wider array: a non-contiguous view
        return np.repeat(values, 2, axis=1)[:, ::2]
    return np.ascontiguousarray(values)


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(2, 300),
    d=st.integers(1, 64),
    layout=st.sampled_from(LAYOUTS),
    temperature=st.floats(0.07, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_exactly_symmetric_over_shapes_and_layouts(n, d, layout, temperature, seed):
    values = np.random.default_rng(seed).normal(size=(n, d))
    points = laid_out(values, layout)
    assert np.array_equal(points, values)
    s = similarity_matrix(laid_out(l2_normalize(values), layout), temperature)
    assert np.array_equal(s, s.T)
    c = distance_matrix(points, DistanceNorm.COSINE)
    assert np.array_equal(c, c.T)
    assert np.all(np.diag(c) == 0.0)
    assert np.all(c >= 0.0)
