"""Encoder: initialization, forward/backward, Adam, checkpoints."""

import re
import tracemalloc

import numpy as np
import pytest

from dynlocrep import (
    Adam,
    ConfigError,
    Encoder,
    EncoderConfig,
    InputError,
    OptimConfig,
    ParseError,
    init_encoder,
    load_checkpoint,
    save_checkpoint,
)

CONFIG = EncoderConfig(input_dim=6, hidden_dims=(16, 16), output_dim=8)


def test_init_is_deterministic():
    a = init_encoder(CONFIG, seed=42)
    b = init_encoder(CONFIG, seed=42)
    assert np.array_equal(a.params, b.params)


def test_init_seeds_differ():
    a = init_encoder(CONFIG, seed=1)
    b = init_encoder(CONFIG, seed=2)
    assert not np.array_equal(a.weights[0], b.weights[0])


def test_init_weight_bound_and_zero_biases():
    config = EncoderConfig(input_dim=64, hidden_dims=(32,), output_dim=8)
    encoder = init_encoder(config, seed=0)
    assert np.all(np.abs(encoder.weights[0]) <= np.sqrt(6.0 / 64))
    assert np.all(np.abs(encoder.weights[1]) <= np.sqrt(6.0 / 32))
    for b in encoder.biases:
        assert np.array_equal(b, np.zeros_like(b))


def test_zero_input_maps_to_zero_with_guarded_normalization():
    encoder = init_encoder(CONFIG, seed=3)
    batch = encoder.forward(np.zeros((2, 6)))
    assert np.array_equal(batch.raw, np.zeros((2, 8)))
    assert np.array_equal(batch.unit, np.zeros((2, 8)))


def test_identity_single_layer_passes_input_through():
    encoder = Encoder(weights=[np.eye(4)], biases=[np.zeros(4)])
    x = np.array([[1.0, -2.0, 3.0, 0.5]])
    assert np.array_equal(encoder.forward(x).raw, x)


def test_unit_rows_are_normalized():
    rng = np.random.default_rng(4)
    encoder = init_encoder(CONFIG, seed=4)
    batch = encoder.forward(rng.normal(size=(10, 6)))
    norms = np.linalg.norm(batch.unit, axis=1)
    assert np.all(np.abs(norms - 1.0) < 1e-9)


def test_duplicated_rows_give_duplicated_embeddings():
    rng = np.random.default_rng(5)
    encoder = init_encoder(CONFIG, seed=5)
    row = rng.normal(size=6)
    batch = encoder.forward(np.stack([row, row]))
    assert np.array_equal(batch.raw[0], batch.raw[1])


def test_feature_width_mismatch_rejected():
    encoder = init_encoder(CONFIG, seed=6)
    with pytest.raises(InputError):
        encoder.forward(np.zeros((2, 5)))


def test_invalid_widths_rejected():
    with pytest.raises(ConfigError):
        EncoderConfig(input_dim=0)
    with pytest.raises(ConfigError):
        EncoderConfig(input_dim=4, hidden_dims=(0,), output_dim=2)


@pytest.mark.parametrize(
    "widths",
    [
        dict(input_dim=64.0),
        dict(input_dim=True),
        dict(input_dim=4, hidden_dims=(8, 8.0)),
        dict(input_dim=4, output_dim=np.float64(2.0)),
    ],
    ids=["float-input", "bool-input", "float-hidden", "numpy-float-output"],
)
def test_layer_widths_must_be_integers(widths):
    """64.0 and True passed an int(v) == v check and then failed in
    init_encoder."""
    with pytest.raises(ConfigError, match="^each layer width must be an integer, got"):
        EncoderConfig(**widths)


def test_numpy_integer_widths_build_an_encoder():
    config = EncoderConfig(input_dim=np.int64(6), hidden_dims=(np.int32(16), 16), output_dim=8)
    assert init_encoder(config, 0).params.tobytes() == init_encoder(CONFIG, 0).params.tobytes()


def test_encoder_needs_a_hidden_layer():
    with pytest.raises(ConfigError, match="at least one hidden width"):
        EncoderConfig(input_dim=4, hidden_dims=(), output_dim=2)


def assert_gradient_of_output_sum(encoder, x, grad):
    """``grad`` is d(sum of raw outputs on x)/d(params) to 1e-5 relative
    error against central differences. Runs forward passes of its own."""
    assert grad.shape == encoder.params.shape
    step = 1e-6
    start = 0
    for param in [p for pair in zip(encoder.weights, encoder.biases) for p in pair]:
        numeric = np.zeros(param.size)
        for offset in range(param.size):
            idx = start + offset
            keep = encoder.params[idx]
            encoder.params[idx] = keep + step
            up = encoder.forward(x).raw.sum()
            encoder.params[idx] = keep - step
            down = encoder.forward(x).raw.sum()
            encoder.params[idx] = keep
            numeric[offset] = (up - down) / (2.0 * step)
        scale = max(np.max(np.abs(numeric)), 1e-12)
        assert np.max(np.abs(grad[start : start + param.size] - numeric)) / scale < 1e-5
        start += param.size


def test_backward_matches_finite_differences():
    """With loss = sum of raw outputs, parameter gradients check against
    central differences to 1e-5 relative error."""
    rng = np.random.default_rng(7)
    encoder = init_encoder(CONFIG, seed=7)
    x = rng.normal(size=(9, 6))
    batch = encoder.forward(x)
    assert_gradient_of_output_sum(encoder, x, encoder.backward(np.ones_like(batch.raw)))


def test_backward_differentiates_the_latest_pass_only():
    rng = np.random.default_rng(9)
    encoder = init_encoder(CONFIG, seed=9)
    encoder.forward(rng.normal(size=(7, 6)))
    x = rng.normal(size=(5, 6))
    grad = encoder.backward(np.ones_like(encoder.forward(x).raw))
    assert_gradient_of_output_sum(encoder, x, grad)
    with pytest.raises(ValueError):  # the 7-row pass is gone
        encoder.backward(np.ones((7, 8)))


def test_a_rejected_forward_keeps_the_previous_pass():
    rng = np.random.default_rng(10)
    encoder = init_encoder(CONFIG, seed=10)
    g = rng.normal(size=(5, 8))
    encoder.forward(rng.normal(size=(5, 6)))
    before = encoder.backward(g)
    with pytest.raises(InputError):
        encoder.forward(np.zeros((3, 5)))
    assert encoder.backward(g).tobytes() == before.tobytes()


def test_a_forward_frees_the_previous_pass_before_allocating_its_own():
    """Two back-to-back full-data passes, as the export and readout passes
    run them: the second may add at most 8 MiB to what the first left held.
    Freeing the old layer inputs first adds 5.1 MiB here (h1, h2 and raw
    outputs, then the unit rows, less the old h1 and h2); with the old
    inputs still cached while the new ones were built it was 12.3 MiB."""
    encoder = init_encoder(EncoderConfig(input_dim=16), seed=0)
    x = np.random.default_rng(11).normal(size=(10_000, 16))
    tracemalloc.start()
    try:
        first = encoder.forward(x)
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        second = encoder.forward(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert first.raw.tobytes() == second.raw.tobytes()
    assert peak - held < 8 * 2**20


def test_backward_before_forward_rejected():
    encoder = init_encoder(CONFIG, seed=8)
    with pytest.raises(InputError):
        encoder.backward(np.zeros((2, 8)))


def test_adam_zero_gradient_is_exact_noop_without_weight_decay():
    encoder = init_encoder(CONFIG, seed=9)
    before = encoder.params.copy()
    optim = Adam(encoder.params, OptimConfig(weight_decay=0.0))
    optim.step(np.zeros_like(encoder.params), 1e-3)
    assert np.array_equal(encoder.params, before)


def test_adam_zero_gradient_moves_weights_only_through_decay():
    encoder = init_encoder(CONFIG, seed=10)
    before = encoder.params.copy()
    optim = Adam(encoder.params, OptimConfig(weight_decay=5e-5))
    optim.step(np.zeros_like(encoder.params), 1e-3)
    p, q = encoder.params, before
    nonzero = q != 0
    assert np.all(p[nonzero] != q[nonzero])  # every nonzero weight shrinks
    assert np.array_equal(p[~nonzero], q[~nonzero])  # zeros stay put


def test_adam_step_reduces_a_quadratic():
    target = np.array([3.0, -2.0])
    param = np.zeros(2)
    optim = Adam(param, OptimConfig(weight_decay=0.0, learning_rate=0.1))
    for _ in range(500):
        grad = 2.0 * (param - target)
        optim.step(grad, 0.1)
    assert np.allclose(param, target, atol=1e-2)


def reference_adam_steps(params, grad_steps, lrs, config):
    """Adam as a loop over parameters, one moment pair each, with the
    published beta1 = 0.9, beta2 = 0.999 and eps = 1e-8."""
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    for t, (grads, lr) in enumerate(zip(grad_steps, lrs), start=1):
        bias1 = 1.0 - 0.9**t
        bias2 = 1.0 - 0.999**t
        for p, g, m_p, v_p in zip(params, grads, m, v):
            g = g + config.weight_decay * p
            m_p *= 0.9
            m_p += (1.0 - 0.9) * g
            v_p *= 0.999
            v_p += (1.0 - 0.999) * (g * g)
            p -= lr * (m_p / bias1) / (np.sqrt(v_p / bias2) + 1e-8)


def test_adam_matches_per_parameter_reference_bit_for_bit():
    rng = np.random.default_rng(12)
    shapes = [(3, 4), (4,), (2, 3, 2), (1,), (5, 1)]
    params = [rng.normal(size=shape) for shape in shapes]
    expected = [p.copy() for p in params]
    grad_steps = [[rng.normal(scale=0.1, size=shape) for shape in shapes] for _ in range(5)]
    lrs = [1e-2, 1e-2, 5e-3, 1e-3, 1e-3]
    config = OptimConfig(weight_decay=1e-2)
    flat = np.concatenate(params, axis=None)
    optim = Adam(flat, config)
    for grads, lr in zip(grad_steps, lrs):
        optim.step(np.concatenate(grads, axis=None), lr)
    reference_adam_steps(expected, grad_steps, lrs, config)
    bounds = np.cumsum([0, *(np.prod(shape) for shape in shapes)])
    for shape, start, stop, q in zip(shapes, bounds, bounds[1:], expected):
        p = flat[start:stop].reshape(shape)
        assert p.shape == q.shape
        assert p.tobytes() == q.tobytes()


def test_adam_rejects_a_gradient_shape_it_was_not_built_for():
    params = np.zeros(7)
    optim = Adam(params, OptimConfig())
    with pytest.raises(InputError):
        optim.step(np.zeros(3), 1e-3)
    with pytest.raises(InputError):
        optim.step(np.zeros((7, 1)), 1e-3)


def test_layers_are_views_of_the_flat_parameter_vector():
    rng = np.random.default_rng(14)
    encoder = init_encoder(CONFIG, seed=14)
    dims = CONFIG.layer_dims
    assert encoder.params.shape == (sum(a * b + b for a, b in zip(dims[:-1], dims[1:])),)
    for layer in (*encoder.weights, *encoder.biases):
        assert np.shares_memory(layer, encoder.params)
    x = rng.normal(size=(5, 6))
    before = encoder.forward(x).raw
    Adam(encoder.params, OptimConfig()).step(encoder.backward(np.ones_like(before)), 1e-2)
    assert not np.array_equal(encoder.forward(x).raw, before)


def test_encoder_copies_its_constructor_arrays():
    weight, bias = np.eye(3), np.zeros(3)
    encoder = Encoder([weight], [bias])
    encoder.params += 1.0
    assert np.array_equal(weight, np.eye(3))
    assert np.array_equal(bias, np.zeros(3))


@pytest.mark.parametrize(
    ("weights", "biases", "counts"),
    [
        ([np.ones((2, 3)), np.ones((3, 1))], [np.zeros(3)], "2 weights and 1 biases"),
        ([], [], "0 weights and 0 biases"),
    ],
    ids=["a-bias-short", "no-layers"],
)
def test_encoder_layer_counts_must_match_and_be_positive(weights, biases, counts):
    message = f"an encoder needs one bias per weight and at least one layer, got {counts}"
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        Encoder(weights, biases)


def test_learning_rate_decay_is_exact_power():
    optim = OptimConfig(learning_rate=1e-4, decay_factor=0.9, decay_every=10)
    for epoch in range(60):
        assert optim.learning_rate_at_epoch(epoch) == 1e-4 * 0.9 ** (epoch // 10)


def test_optimizer_config_validation():
    with pytest.raises(ConfigError):
        OptimConfig(learning_rate=0.0)
    with pytest.raises(ConfigError):
        OptimConfig(decay_factor=0.0)
    with pytest.raises(ConfigError):
        OptimConfig(decay_factor=1.5)
    with pytest.raises(ConfigError):
        OptimConfig(weight_decay=-1e-5)


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_non_finite_weight_decay_rejected(value):
    with pytest.raises(ConfigError, match="weight_decay must be finite and >= 0"):
        OptimConfig(weight_decay=value)


def test_checkpoint_round_trip_is_bit_exact(tmp_path):
    encoder = init_encoder(CONFIG, seed=11)
    path = tmp_path / "encoder.txt"
    save_checkpoint(encoder, path)
    loaded = load_checkpoint(path)
    assert loaded.layer_dims == encoder.layer_dims
    assert np.array_equal(encoder.params, loaded.params)


def test_checkpoint_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("something else entirely\n")
    with pytest.raises(ParseError):
        load_checkpoint(path)


def test_checkpoint_rejects_wrong_version(tmp_path):
    encoder = init_encoder(CONFIG, seed=12)
    path = tmp_path / "encoder.txt"
    save_checkpoint(encoder, path)
    text = path.read_text().replace("v1", "v9", 1)
    path.write_text(text)
    with pytest.raises(ParseError):
        load_checkpoint(path)


def test_checkpoint_rejects_truncation(tmp_path):
    encoder = init_encoder(CONFIG, seed=13)
    path = tmp_path / "encoder.txt"
    save_checkpoint(encoder, path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-3]) + "\n")
    with pytest.raises(ParseError):
        load_checkpoint(path)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_checkpoint_rejects_non_finite_values_naming_the_line(tmp_path, value):
    encoder = init_encoder(CONFIG, seed=15)
    path = tmp_path / "encoder.txt"
    save_checkpoint(encoder, path)
    lines = path.read_text().splitlines()
    row = lines[4].split()  # line 5: the second row of layer 0's weight
    row[2] = value
    lines[4] = " ".join(row)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match="line 5: non-finite"):
        load_checkpoint(path)


def checkpoint_text(dims):
    """A well-formed checkpoint body for the given layer widths, all values 0.5."""
    lines = ["dynlocrep-encoder-checkpoint v1", "layer_dims " + " ".join(map(str, dims))]
    for idx, (fan_in, fan_out) in enumerate(zip(dims[:-1], dims[1:])):
        lines.append(f"layer {idx} weight {fan_in} {fan_out}")
        lines.extend(" ".join(["0.5"] * fan_out) for _ in range(fan_in))
        lines.append(f"layer {idx} bias {fan_out}")
        lines.append(" ".join(["0.5"] * fan_out))
    return "\n".join(lines) + "\n"


def test_checkpoint_text_helper_loads_for_valid_widths(tmp_path):
    path = tmp_path / "encoder.txt"
    path.write_text(checkpoint_text((3, 2)))
    assert np.array_equal(load_checkpoint(path).forward(np.ones((1, 3))).raw, [[2.0, 2.0]])


# Defects of checkpoint_text((3, 2)), whose lines are: 1 magic, 2 layer_dims,
# 3 weight header, 4-6 weight rows, 7 bias header, 8 bias row. Each puts
# TEXT at 1-based LINE (None deletes that line, a line past the end appends).
CHECKPOINT_DEFECTS = {
    "no-layer-dims": (2, None, "line 2: expected a layer_dims line"),
    "non-integer-dim": (2, "layer_dims 3 two", "line 2: bad layer_dims entry"),
    "weight-header": (3, "layer 0 weight 2 3", "line 3: malformed weight header for layer 0"),
    "bias-header": (7, "layer 0 bias 3", "line 7: malformed bias header for layer 0"),
    "row-width": (5, "0.5 0.5 0.5", "line 5: expected 2 values, got 3"),
    "trailing": (9, "0.5 0.5", "line 9: trailing content after final layer"),
    "digit-separator": (5, "1_0 2_5", "line 5: non-numeric cell"),
    "non-numeric": (8, "0.5 zebra", "line 8: non-numeric cell"),
}


@pytest.mark.parametrize(("line", "text", "message"), CHECKPOINT_DEFECTS.values(),
                         ids=CHECKPOINT_DEFECTS.keys())
def test_checkpoint_defect_raises_naming_the_line(tmp_path, line, text, message):
    lines = checkpoint_text((3, 2)).splitlines()
    lines[line - 1 : line] = [] if text is None else [text]
    path = tmp_path / "encoder.txt"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match="^" + re.escape(f"{path}: {message}")):
        load_checkpoint(path)


@pytest.mark.parametrize("dims", [(2, 0), (0, 2), (3, 0, 2)], ids=["2-0", "0-2", "3-0-2"])
def test_checkpoint_rejects_layer_widths_below_one(tmp_path, dims):
    path = tmp_path / "encoder.txt"
    path.write_text(checkpoint_text(dims))
    with pytest.raises(ParseError, match="line 2: .*>= 1"):
        load_checkpoint(path)
