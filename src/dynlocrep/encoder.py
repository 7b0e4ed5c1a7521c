"""A small fully connected encoder with hand-written backpropagation.

The encoder is an affine/ReLU stack whose final layer is linear. Raw
outputs are what the optimizer differentiates through (the normalization
Jacobian lives in the loss module); the unit rows feed the similarities.
An encoder holds the layer inputs of its latest forward pass only, for
``backward``; a new pass frees them before it allocates its own, so two
full-data passes in a row never hold two sets of activations.

All parameters live in one flat float64 vector, ``Encoder.params``: for
each layer its weight matrix (row-major) and then its bias. The per-layer
``weights`` and ``biases`` are views into that vector, ``backward``
returns one gradient in the same layout, and ``Adam`` updates the vector
in place, so an optimizer step moves the layers without any copy.

Checkpoints use a versioned plain-text format so runs can be inspected
and reloaded without pickle; their values follow the float text rule
that ``data`` keeps for every artifact, so a reload is bit-exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import _format_rows, _parse_floats, _write_lines_atomic
from .errors import (ConfigError, InputError, ParseError, _check_array, _check_int, _check_real,
                     _sequence)
from .geometry import EmbeddingBatch

CHECKPOINT_MAGIC = "dynlocrep-encoder-checkpoint"
CHECKPOINT_VERSION = 1

# Adam's moment coefficients and epsilon, the defaults of Kingma & Ba (ICLR 2015)
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8


@dataclass(frozen=True)
class EncoderConfig:
    """Layer widths of the encoder, with at least one hidden layer; all layers
    are ReLU except the last."""

    input_dim: int
    hidden_dims: tuple[int, ...] = (64, 64)
    output_dim: int = 32

    def __post_init__(self) -> None:
        hidden = _sequence("hidden_dims", self.hidden_dims,
                           lambda width: _check_int("each layer width", width, 1))
        object.__setattr__(self, "hidden_dims", hidden)
        if not hidden:
            raise ConfigError("the encoder needs at least one hidden width")
        for width in (self.input_dim, self.output_dim):
            _check_int("each layer width", width, 1)

    @property
    def layer_dims(self) -> tuple[int, ...]:
        return (self.input_dim, *self.hidden_dims, self.output_dim)


@dataclass(frozen=True)
class OptimConfig:
    """The learning rate, its step decay and the weight decay of Adam.

    Weight decay is a classic L2 term added to the gradient before the
    moment updates, applied to every parameter. Adam's moment coefficients
    and epsilon are not settings: every run uses the published defaults.
    """

    learning_rate: float = 1e-4
    decay_factor: float = 0.9
    decay_every: int = 10
    weight_decay: float = 5e-5

    def __post_init__(self) -> None:
        _check_real("learning_rate", self.learning_rate, "be positive", lambda lr: lr > 0)
        _check_real("decay_factor", self.decay_factor, "lie in (0, 1]", lambda f: 0 < f <= 1)
        _check_int("decay_every", self.decay_every, 1)
        _check_real("weight_decay", self.weight_decay, "be finite and >= 0", lambda w: w >= 0)

    def learning_rate_at_epoch(self, epoch: int) -> float:
        """lr0 * decay_factor ** floor(epoch / decay_every), epochs 0-indexed."""
        return self.learning_rate * self.decay_factor ** (epoch // self.decay_every)


def _layer_views(vector: np.ndarray, dims) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """The per-layer weight and bias views of ``vector``, laid out like the
    ``params`` of an encoder whose layer widths are ``dims``."""
    weights, biases, start = [], [], 0
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        end = start + fan_in * fan_out
        weights.append(vector[start:end].reshape(fan_in, fan_out))
        biases.append(vector[end : end + fan_out])
        start = end + fan_out
    return weights, biases


class Encoder:
    """One flat parameter vector, per-layer views of it, and cached activations."""

    def __init__(self, weights: list[np.ndarray], biases: list[np.ndarray]):
        if len(weights) != len(biases) or not weights:
            raise InputError(
                "an encoder needs one bias per weight and at least one layer, "
                f"got {len(weights)} weights and {len(biases)} biases"
            )
        pieces: list[np.ndarray] = []
        for layer, (w, b) in enumerate(zip(weights, biases)):
            fan_in = len(pieces[-1]) if pieces else "d"  # the width of the bias below
            pieces.append(_check_array(f"layer {layer} weight", w, (fan_in, "m")))
            pieces.append(_check_array(f"layer {layer} bias", b, (pieces[-1].shape[1],)))
        self.params = np.concatenate(pieces, axis=None)
        dims = (pieces[0].shape[0], *(b.shape[0] for b in pieces[1::2]))
        self.weights, self.biases = _layer_views(self.params, dims)
        self._inputs: list[np.ndarray] | None = None

    @property
    def layer_dims(self) -> tuple[int, ...]:
        return (self.weights[0].shape[0], *(w.shape[1] for w in self.weights))

    def forward(self, features: np.ndarray) -> EmbeddingBatch:
        """Run the stack and cache every layer's input for ``backward``.

        Only this pass is cached: once the features pass the width check,
        the previous pass's inputs are freed before any layer runs. A
        rejected call leaves the previous pass in place.
        """
        x = _check_array("features", features, ("n", self.weights[0].shape[0]))
        self._inputs = None
        inputs: list[np.ndarray] = []
        h = x
        for w, b in zip(self.weights, self.biases):
            if inputs:  # every layer but the last is followed by a ReLU
                np.maximum(h, 0.0, out=h)
            inputs.append(h)
            h = h @ w
            h += b
        self._inputs = inputs
        return EmbeddingBatch.from_raw(h)

    def backward(self, grad_raw: np.ndarray) -> np.ndarray:
        """Gradient of the most recent forward pass, laid out like ``params``.

        The ReLU derivative at exactly 0 is taken as 0.
        """
        if self._inputs is None:
            raise InputError("backward called before forward")
        g = _check_array("gradient", grad_raw, (len(self._inputs[0]), self.weights[-1].shape[1]))
        grad = np.empty_like(self.params)
        grad_weights, grad_biases = _layer_views(grad, self.layer_dims)
        for layer in range(len(self.weights) - 1, -1, -1):
            np.add.reduce(g, axis=0, out=grad_biases[layer])
            np.matmul(self._inputs[layer].T, g, out=grad_weights[layer])
            if layer > 0:
                # a ReLU output is positive exactly where its input was
                g = g @ self.weights[layer].T
                g *= self._inputs[layer] > 0.0
        return grad


def init_encoder(config: EncoderConfig, seed: int) -> Encoder:
    """Uniform +-sqrt(6 / fan_in) weights, zero biases, deterministic in seed."""
    rng = np.random.default_rng(seed)
    weights: list[np.ndarray] = []
    biases: list[np.ndarray] = []
    dims = config.layer_dims
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        bound = np.sqrt(6.0 / fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return Encoder(weights, biases)


class Adam:
    """Adam with bias correction; the learning rate is supplied per step.

    It updates one parameter array in place and keeps its moments, and
    each step's intermediates, in buffers of the same shape.
    """

    def __init__(self, params: np.ndarray, config: OptimConfig):
        self.params = _check_array("params", params, ("p",))
        self.config = config
        self.step_count = 0
        self._m = np.zeros_like(self.params)
        self._v = np.zeros_like(self.params)
        self._scratch = np.empty_like(self.params), np.empty_like(self.params)

    def step(self, grad: np.ndarray, lr: float) -> None:
        """Update params in place from grad plus the L2 weight-decay term."""
        grad = _check_array("gradient", grad, self.params.shape)
        self.step_count += 1
        t = self.step_count
        bias1 = 1.0 - _BETA1**t
        bias2 = 1.0 - _BETA2**t
        m, v, (g, tmp) = self._m, self._v, self._scratch
        g = np.add(grad, np.multiply(self.params, self.config.weight_decay, out=g), out=g)
        m *= _BETA1
        m += np.multiply(g, 1.0 - _BETA1, out=tmp)
        v *= _BETA2
        v += np.multiply(np.multiply(g, g, out=g), 1.0 - _BETA2, out=g)
        denom = np.add(np.sqrt(np.divide(v, bias2, out=g), out=g), _EPS, out=g)
        update = np.multiply(np.divide(m, bias1, out=tmp), lr, out=tmp)
        self.params -= np.divide(update, denom, out=tmp)


def save_checkpoint(encoder: Encoder, path: str | Path) -> None:
    """Write a versioned plain-text dump of the encoder.

    Layout: a magic/version line, a ``layer_dims`` line, then for each
    layer a ``layer I weight ROWS COLS`` header followed by one line per
    row and a ``layer I bias COLS`` header followed by one line. Floats
    are written with repr, so a reload is bit-exact.
    """
    lines = [f"{CHECKPOINT_MAGIC} v{CHECKPOINT_VERSION}"]
    lines.append("layer_dims " + " ".join(str(d) for d in encoder.layer_dims))
    for idx, (w, b) in enumerate(zip(encoder.weights, encoder.biases)):
        lines.append(f"layer {idx} weight {w.shape[0]} {w.shape[1]}")
        lines.extend(_format_rows(w, " "))
        lines.append(f"layer {idx} bias {b.shape[0]}")
        lines.extend(_format_rows(b[np.newaxis], " "))
    _write_lines_atomic(path, lines)


def load_checkpoint(path: str | Path) -> Encoder:
    """Parse a checkpoint written by save_checkpoint. Values are read like
    dataset cells; any defect raises ParseError naming its 1-based line."""
    lines = Path(path).read_text().splitlines()
    if not lines or not lines[0].startswith(CHECKPOINT_MAGIC):
        raise ParseError(f"{path}: line 1: not an encoder checkpoint")
    version = lines[0].removeprefix(CHECKPOINT_MAGIC).strip()
    if version != f"v{CHECKPOINT_VERSION}":
        raise ParseError(f"{path}: line 1: unsupported checkpoint version {version!r}")
    if len(lines) < 2 or not lines[1].startswith("layer_dims "):
        raise ParseError(f"{path}: line 2: expected a layer_dims line")
    try:
        dims = [int(tok) for tok in lines[1].split()[1:]]
    except ValueError as exc:
        raise ParseError(f"{path}: line 2: bad layer_dims entry: {exc}") from exc
    if len(dims) < 2 or min(dims) < 1:
        raise ParseError(f"{path}: line 2: need at least two layer dims, each >= 1, got {dims}")

    weights: list[np.ndarray] = []
    biases: list[np.ndarray] = []
    cursor = 2

    def _take(expected: str) -> str:
        nonlocal cursor
        if cursor >= len(lines):
            raise ParseError(f"{path}: line {cursor + 1}: expected {expected}, found end of file")
        cursor += 1
        return lines[cursor - 1]

    def _floats(expected: str, width: int) -> list[float]:
        line = _take(expected)
        values = _parse_floats(line, None, path, cursor)
        if len(values) != width:
            raise ParseError(f"{path}: line {cursor}: expected {width} values, got {len(values)}")
        return values

    for idx, (fan_in, fan_out) in enumerate(zip(dims[:-1], dims[1:])):
        header = _take("a weight header").split()
        if header != ["layer", str(idx), "weight", str(fan_in), str(fan_out)]:
            raise ParseError(f"{path}: line {cursor}: malformed weight header for layer {idx}")
        weights.append(np.array([_floats("a weight row", fan_out) for _ in range(fan_in)]))
        header = _take("a bias header").split()
        if header != ["layer", str(idx), "bias", str(fan_out)]:
            raise ParseError(f"{path}: line {cursor}: malformed bias header for layer {idx}")
        biases.append(np.array(_floats("a bias row", fan_out)))
    if cursor != len(lines):
        raise ParseError(f"{path}: line {cursor + 1}: trailing content after final layer")
    return Encoder(weights, biases)
