"""The array rule, one table of every public function that takes an array.

Each array argument is converted to float64 (an array that is one already
is used as it is), must have the function's number of axes and fixed
lengths and, where the function asks, finite entries. A value that breaks
the rule raises InputError naming the argument, never a raw exception.
"""

import re

import numpy as np
import pytest

from dynlocrep import (
    Adam,
    Dataset,
    EmbeddingBatch,
    Encoder,
    EncoderConfig,
    InputError,
    KernelSpec,
    LossConfig,
    OptimConfig,
    RidgeConfig,
    baseline_forward,
    distance_matrix,
    dynlocrep_forward,
    init_encoder,
    l2_normalize,
    loss_with_gradient,
    mae,
    positiveness_matrix,
    ridge_fit,
    select_neighbors,
    similarity_matrix,
)

RNG = np.random.default_rng(0)
POINTS = RNG.normal(size=(5, 3))
LABELS = RNG.uniform(20.0, 70.0, size=5)
UNIT = l2_normalize(POINTS)
SIM = similarity_matrix(UNIT, 0.5)
WEIGHTS = positiveness_matrix(LABELS, KernelSpec())
DISTANCES = distance_matrix(POINTS, "manhattan")
NEIGHBORS = select_neighbors(DISTANCES, 2)
READOUT = ridge_fit(POINTS, LABELS, RidgeConfig())


def _encoder():
    """An encoder of widths 3 -> 4 -> 2 that has run one forward pass on POINTS."""
    encoder = init_encoder(EncoderConfig(input_dim=3, hidden_dims=(4,), output_dim=2), 0)
    encoder.forward(POINTS)
    return encoder


def _adam_step(grad):
    encoder = _encoder()
    Adam(encoder.params, OptimConfig()).step(grad, 1e-3)


# the argument under test, a call that takes it in place of a valid value, that valid value
ARRAYS = {
    "Dataset.features": (lambda v: Dataset(features=v, labels=LABELS, ids=tuple("abcde")), POINTS),
    "Dataset.labels": (lambda v: Dataset(features=POINTS, labels=v, ids=list("abcde")), LABELS),
    "EmbeddingBatch.from_raw": (EmbeddingBatch.from_raw, POINTS),
    "l2_normalize": (l2_normalize, POINTS),
    "similarity_matrix": (lambda v: similarity_matrix(v, 0.5), UNIT),
    "distance_matrix": (lambda v: distance_matrix(v, "cosine"), POINTS),
    "select_neighbors": (lambda v: select_neighbors(v, 2), DISTANCES),
    "positiveness_matrix": (lambda v: positiveness_matrix(v, KernelSpec()), LABELS),
    "Encoder.weights": (
        lambda v: Encoder([v, np.ones((2, 1))], [np.zeros(2), np.zeros(1)]), POINTS[:3, :2]
    ),
    "Encoder.biases": (
        lambda v: Encoder([np.ones((3, 5)), np.ones((5, 1))], [v, np.zeros(1)]), LABELS
    ),
    "Encoder.forward": (lambda v: _encoder().forward(v), POINTS),
    "Encoder.backward": (lambda v: _encoder().backward(v), np.ones((5, 2))),
    "Adam.params": (lambda v: Adam(v, OptimConfig()), LABELS),
    "Adam.step": (_adam_step, np.zeros(3 * 4 + 4 + 4 * 2 + 2)),
    "ridge_fit.embeddings": (lambda v: ridge_fit(v, LABELS, RidgeConfig()), POINTS),
    "ridge_fit.labels": (lambda v: ridge_fit(POINTS, v, RidgeConfig()), LABELS),
    "RidgeReadout.predict": (READOUT.predict, POINTS),
    "mae.predictions": (lambda v: mae(v, LABELS), LABELS),
    "mae.truth": (lambda v: mae(LABELS, v), LABELS),
    "dynlocrep_forward.sim": (lambda v: dynlocrep_forward(v, WEIGHTS, NEIGHBORS), SIM),
    "dynlocrep_forward.weights": (lambda v: dynlocrep_forward(SIM, v, NEIGHBORS), WEIGHTS),
    "baseline_forward.sim": (lambda v: baseline_forward("yaware", v, WEIGHTS), SIM),
    "baseline_forward.weights": (lambda v: baseline_forward("threshold", SIM, v), WEIGHTS),
    "baseline_forward.labels": (lambda v: baseline_forward("rnc", SIM, labels=v), LABELS),
    "loss_with_gradient.labels": (
        lambda v: loss_with_gradient(LossConfig(variant="rnc"), EmbeddingBatch.from_raw(POINTS), v),
        LABELS,
    ),
    "loss_with_gradient.input_features": (
        lambda v: loss_with_gradient(
            LossConfig(nn_space="input"), EmbeddingBatch.from_raw(POINTS), LABELS, 2, v
        ),
        POINTS,
    ),
}


def _malformed(kind, valid):
    if kind == "non-numeric":
        return np.full(valid.shape, "x")
    if kind == "0-d":
        return np.float64(3.0)
    if kind == "ragged-list":
        return [[1.0, 2.0], [3.0]] if valid.ndim == 1 else [valid[0].tolist(), [1.0]]
    return valid[..., None]  # one axis too many


@pytest.mark.parametrize("kind", ["non-numeric", "0-d", "ragged-list", "wrong-shape"])
@pytest.mark.parametrize("where", list(ARRAYS))
def test_a_malformed_array_raises_input_error(where, kind):
    call, valid = ARRAYS[where]
    with pytest.raises(InputError):
        call(_malformed(kind, valid))


@pytest.mark.parametrize("where", list(ARRAYS))
def test_a_nested_list_is_taken_like_its_array(where):
    call, valid = ARRAYS[where]
    expected, got = call(valid), call(valid.tolist())
    # the array a result holds: EmbeddingBatch, Dataset, RidgeReadout, LossOutput, Encoder, Adam
    for name in ("unit", "features", "labels", "coef", "grad_raw", "params"):
        expected, got = getattr(expected, name, expected), getattr(got, name, got)
    assert np.asarray(got).tobytes() == np.asarray(expected).tobytes()


def test_a_float64_array_is_used_as_it_is():
    """No copy: the 10 000-row data a CLI train reads is held once."""
    dataset = Dataset(features=POINTS, labels=LABELS, ids=tuple("abcde"))
    assert dataset.features is POINTS and dataset.labels is LABELS
    assert EmbeddingBatch.from_raw(POINTS).raw is POINTS


@pytest.mark.parametrize(
    ("call", "message"),
    [
        (lambda: select_neighbors(np.float64(3), 1), "distances must have shape (n, n), got ()"),
        (
            lambda: baseline_forward("yaware", np.float64(1), WEIGHTS),
            "similarity matrix must have shape (n, n), got ()",
        ),
        (
            lambda: _encoder().backward(np.ones((5, 3))),
            "gradient must have shape (5, 2), got (5, 3)",
        ),
        (lambda: READOUT.predict(np.ones((4, 2))), "embeddings must have shape (n, 3), got (4, 2)"),
        (
            lambda: EmbeddingBatch.from_raw([["a", "b"]]),
            "embeddings must be an array of real numbers (could not convert string to float: 'a')",
        ),
        (
            lambda: similarity_matrix([["a", "b"]], 0.5),
            "unit embeddings must be an array of real numbers "
            "(could not convert string to float: 'a')",
        ),
        (
            lambda: positiveness_matrix(["a", "b"], KernelSpec()),
            "labels must be an array of real numbers (could not convert string to float: 'a')",
        ),
        (
            lambda: distance_matrix([["a", "b"]], "manhattan"),
            "points must be an array of real numbers (could not convert string to float: 'a')",
        ),
        (
            lambda: _encoder().forward([["a", "b", "c"]]),
            "features must be an array of real numbers (could not convert string to float: 'a')",
        ),
        (
            lambda: loss_with_gradient(LossConfig(), EmbeddingBatch.from_raw(POINTS), [*"abcde"]),
            "labels must be an array of real numbers (could not convert string to float: 'a')",
        ),
    ],
    ids=[
        "select-0-d",
        "baseline-0-d",
        "backward-width",
        "predict-width",
        "from-raw-text",
        "similarity-text",
        "positiveness-text",
        "distance-text",
        "forward-text",
        "loss-labels-text",
    ],
)
def test_arrays_that_used_to_escape_as_raw_exceptions(call, message):
    """Each raised a raw IndexError, AttributeError or ValueError."""
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        call()


def test_nested_lists_that_used_to_raise_attribute_errors_are_taken():
    listed = dynlocrep_forward(SIM.tolist(), WEIGHTS, NEIGHBORS)
    assert listed.hex() == dynlocrep_forward(SIM, WEIGHTS, NEIGHBORS).hex()
    dataset = Dataset(features=[[1.0]], labels=[1.0], ids=("a",))
    assert dataset.features.dtype == np.float64 and dataset.features.shape == (1, 1)
