"""Encoder: initialization, forward/backward, Adam, checkpoints."""

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


def test_backward_matches_finite_differences():
    """With loss = sum of raw outputs, parameter gradients check against
    central differences to 1e-5 relative error."""
    rng = np.random.default_rng(7)
    encoder = init_encoder(CONFIG, seed=7)
    x = rng.normal(size=(9, 6))
    batch = encoder.forward(x)
    grad = encoder.backward(np.ones_like(batch.raw))
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
    """Adam as a loop over parameters, one moment pair each."""
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    for t, (grads, lr) in enumerate(zip(grad_steps, lrs), start=1):
        bias1 = 1.0 - config.beta1**t
        bias2 = 1.0 - config.beta2**t
        for p, g, m_p, v_p in zip(params, grads, m, v):
            g = g + config.weight_decay * p
            m_p *= config.beta1
            m_p += (1.0 - config.beta1) * g
            v_p *= config.beta2
            v_p += (1.0 - config.beta2) * (g * g)
            p -= lr * (m_p / bias1) / (np.sqrt(v_p / bias2) + config.eps)


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


@pytest.mark.parametrize("dims", [(2, 0), (0, 2), (3, 0, 2)], ids=["2-0", "0-2", "3-0-2"])
def test_checkpoint_rejects_layer_widths_below_one(tmp_path, dims):
    path = tmp_path / "encoder.txt"
    path.write_text(checkpoint_text(dims))
    with pytest.raises(ParseError, match="line 2: .*>= 1"):
        load_checkpoint(path)
