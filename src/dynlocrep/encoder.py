"""A small fully connected encoder with hand-written backpropagation.

The encoder is an affine/ReLU stack whose final layer is linear. Raw
outputs are what the optimizer differentiates through (the normalization
Jacobian lives in the loss module); the unit rows feed the similarities.

All parameters live in one flat float64 vector, ``Encoder.params``: for
each layer its weight matrix (row-major) and then its bias. The per-layer
``weights`` and ``biases`` are views into that vector, ``backward``
returns one gradient in the same layout, and ``Adam`` updates the vector
in place, so an optimizer step moves the layers without any copy.

Checkpoints use a versioned plain-text format so runs can be inspected
and reloaded without pickle.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import _write_text_atomic
from .errors import ConfigError, InputError, ParseError
from .geometry import EmbeddingBatch

CHECKPOINT_MAGIC = "dynlocrep-encoder-checkpoint"
CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class EncoderConfig:
    """Layer widths of the encoder; all layers are ReLU except the last."""

    input_dim: int
    hidden_dims: tuple[int, ...] = (64, 64)
    output_dim: int = 32

    def __post_init__(self) -> None:
        widths = (self.input_dim, *self.hidden_dims, self.output_dim)
        if any(int(v) != v or v < 1 for v in widths):
            raise ConfigError(f"all layer widths must be integers >= 1, got {widths}")

    @property
    def layer_dims(self) -> tuple[int, ...]:
        return (self.input_dim, *self.hidden_dims, self.output_dim)


@dataclass(frozen=True)
class OptimConfig:
    """Adam hyperparameters with a step-decayed learning rate.

    Weight decay is a classic L2 term added to the gradient before the
    moment updates, applied to every parameter.
    """

    learning_rate: float = 1e-4
    decay_factor: float = 0.9
    decay_every: int = 10
    weight_decay: float = 5e-5
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self) -> None:
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ConfigError(f"learning_rate must be positive, got {self.learning_rate}")
        if not (0 < self.decay_factor <= 1):
            raise ConfigError(f"decay_factor must lie in (0, 1], got {self.decay_factor}")
        if self.decay_every < 1:
            raise ConfigError(f"decay_every must be >= 1, got {self.decay_every}")
        if self.weight_decay < 0:
            raise ConfigError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ConfigError("moment coefficients must lie in [0, 1)")
        if self.eps <= 0:
            raise ConfigError(f"eps must be positive, got {self.eps}")

    def learning_rate_at_epoch(self, epoch: int) -> float:
        """lr0 * decay_factor ** floor(epoch / decay_every), epochs 0-indexed."""
        return self.learning_rate * self.decay_factor ** (epoch // self.decay_every)


class Encoder:
    """One flat parameter vector, per-layer views of it, and cached activations."""

    def __init__(self, weights: list[np.ndarray], biases: list[np.ndarray]):
        pieces = [p for pair in zip(weights, biases) for p in pair]
        self.params = np.concatenate(pieces, axis=None, dtype=np.float64)
        flat = np.split(self.params, np.cumsum([np.size(p) for p in pieces])[:-1])
        views = [view.reshape(np.shape(p)) for view, p in zip(flat, pieces)]
        self.weights, self.biases = views[0::2], views[1::2]
        self._inputs: list[np.ndarray] | None = None
        self._pre_activations: list[np.ndarray] | None = None

    @property
    def layer_dims(self) -> tuple[int, ...]:
        return (self.weights[0].shape[0], *(w.shape[1] for w in self.weights))

    @property
    def input_dim(self) -> int:
        return self.weights[0].shape[0]

    def forward(self, features: np.ndarray) -> EmbeddingBatch:
        """Run the stack and cache every layer input and pre-activation."""
        x = np.asarray(features, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.input_dim:
            raise InputError(
                f"features must be (n, {self.input_dim}), got shape {x.shape}"
            )
        inputs: list[np.ndarray] = []
        pre: list[np.ndarray] = []
        h = x
        last = len(self.weights) - 1
        for layer, (w, b) in enumerate(zip(self.weights, self.biases)):
            inputs.append(h)
            z = h @ w + b
            pre.append(z)
            h = z if layer == last else np.maximum(z, 0.0)
        self._inputs = inputs
        self._pre_activations = pre
        return EmbeddingBatch.from_raw(h)

    def backward(self, grad_raw: np.ndarray) -> np.ndarray:
        """Gradient of the most recent forward pass, laid out like ``params``.

        The ReLU derivative at exactly 0 is taken as 0.
        """
        if self._inputs is None:
            raise InputError("backward called before forward")
        grads: list[np.ndarray] = []
        g = np.asarray(grad_raw, dtype=np.float64)
        last = len(self.weights) - 1
        for layer in range(last, -1, -1):
            if layer != last:
                g = g * (self._pre_activations[layer] > 0.0)
            grads.append(g.sum(axis=0))
            grads.append(self._inputs[layer].T @ g)
            if layer > 0:
                g = g @ self.weights[layer].T
        # collected (bias, weight) from the top layer down; reversed it is params order
        return np.concatenate(grads[::-1], axis=None)


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

    It updates one parameter array in place and keeps its moments in two
    buffers of the same shape.
    """

    def __init__(self, params: np.ndarray, config: OptimConfig):
        self.params = params
        self.config = config
        self.step_count = 0
        self._m = np.zeros_like(params)
        self._v = np.zeros_like(params)

    def step(self, grad: np.ndarray, lr: float) -> None:
        """Update params in place from grad plus the L2 weight-decay term."""
        if np.shape(grad) != self.params.shape:
            raise InputError(f"gradient shape {np.shape(grad)} != parameters {self.params.shape}")
        cfg = self.config
        self.step_count += 1
        t = self.step_count
        bias1 = 1.0 - cfg.beta1**t
        bias2 = 1.0 - cfg.beta2**t
        g = grad + cfg.weight_decay * self.params
        m, v = self._m, self._v
        m *= cfg.beta1
        m += (1.0 - cfg.beta1) * g
        v *= cfg.beta2
        v += (1.0 - cfg.beta2) * (g * g)
        self.params -= lr * (m / bias1) / (np.sqrt(v / bias2) + cfg.eps)


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
        lines.extend(" ".join(repr(float(x)) for x in row) for row in w)
        lines.append(f"layer {idx} bias {b.shape[0]}")
        lines.append(" ".join(repr(float(x)) for x in b))
    _write_text_atomic(path, "\n".join(lines) + "\n")


def load_checkpoint(path: str | Path) -> Encoder:
    """Parse a checkpoint written by save_checkpoint."""
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

    def _take(expected: str) -> list[str]:
        nonlocal cursor
        if cursor >= len(lines):
            raise ParseError(f"{path}: line {cursor + 1}: expected {expected}, found end of file")
        toks = lines[cursor].split()
        cursor += 1
        return toks

    def _floats(tokens: list[str], width: int) -> np.ndarray:
        if len(tokens) != width:
            raise ParseError(f"{path}: line {cursor}: expected {width} values, got {len(tokens)}")
        try:
            values = np.array([float(tok) for tok in tokens])
        except ValueError as exc:
            raise ParseError(f"{path}: line {cursor}: bad value: {exc}") from exc
        if not np.isfinite(values).all():
            raise ParseError(f"{path}: line {cursor}: non-finite value")
        return values

    for idx, (fan_in, fan_out) in enumerate(zip(dims[:-1], dims[1:])):
        header = _take("a weight header")
        if header != ["layer", str(idx), "weight", str(fan_in), str(fan_out)]:
            raise ParseError(f"{path}: line {cursor}: malformed weight header for layer {idx}")
        rows = [_floats(_take("a weight row"), fan_out) for _ in range(fan_in)]
        weights.append(np.vstack(rows))
        header = _take("a bias header")
        if header != ["layer", str(idx), "bias", str(fan_out)]:
            raise ParseError(f"{path}: line {cursor}: malformed bias header for layer {idx}")
        biases.append(_floats(_take("a bias row"), fan_out))
    if cursor != len(lines):
        raise ParseError(f"{path}: line {cursor + 1}: trailing content after final layer")
    return Encoder(weights, biases)
