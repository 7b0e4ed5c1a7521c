"""Frozen-encoder evaluation: ridge readout, MAE, and multi-seed reports.

A benchmark run trains one encoder per (loss variant, seed) pair on a
fresh 80:20 split, fits a ridge regressor on the frozen unit embeddings
of the training side, and scores mean absolute error on the test side.
Two non-contrastive baselines anchor the numbers: ridge on the raw
features and ridge on the embeddings of an untrained encoder. All
aggregation uses the population standard deviation over seeds.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from .data import Dataset, split
from .encoder import EncoderConfig, OptimConfig, init_encoder
from .errors import ConfigError, DynLocRepError, InputError, NumericalError
from .geometry import DistanceNorm
from .losses import LossVariant
from .training import TrainConfig, train

SCHEMA_VERSION = 1

# Published reference results for the distance-norm sweep, reported next to
# measured values as non-binding context and flagged so downstream consumers
# cannot mistake them for measurements.
ABLATION_REFERENCE_MAE = {
    "manhattan": (3.724, 0.220),
    "cosine": (3.748, 0.142),
    "euclidean": (3.806, 0.154),
    "chebyshev": (3.842, 0.196),
}


@dataclass(frozen=True)
class RidgeConfig:
    """L2-regularized linear readout; embeddings and labels are centered."""

    regularization: float = 1.0

    def __post_init__(self) -> None:
        if not (np.isfinite(self.regularization) and self.regularization >= 0):
            raise ConfigError(
                f"ridge regularization must be finite and >= 0, got {self.regularization}"
            )


@dataclass(frozen=True)
class RidgeReadout:
    """Fitted readout: prediction is x @ coef + intercept."""

    coef: np.ndarray
    intercept: float

    def predict(self, embeddings: np.ndarray) -> np.ndarray:
        return np.asarray(embeddings, dtype=np.float64) @ self.coef + self.intercept


def ridge_fit(embeddings: np.ndarray, labels: np.ndarray, config: RidgeConfig) -> RidgeReadout:
    """Solve (Xc^T Xc + lambda I) beta = Xc^T yc on centered data.

    The intercept restores the label mean at the column means. A singular
    or non-finite solve raises NumericalError rather than being masked.
    """
    x = np.asarray(embeddings, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    if x.ndim != 2 or y.shape != (x.shape[0],):
        raise InputError(f"shapes disagree: embeddings {x.shape}, labels {y.shape}")
    if x.shape[0] < 1:
        raise InputError("cannot fit a readout on zero rows")
    col_means = x.mean(axis=0)
    y_mean = y.mean()
    xc = x - col_means
    yc = y - y_mean
    gram = xc.T @ xc + config.regularization * np.eye(x.shape[1])
    try:
        coef = np.linalg.solve(gram, xc.T @ yc)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"ridge solve failed: {exc}") from exc
    if not np.all(np.isfinite(coef)):
        raise NumericalError("ridge solve produced non-finite coefficients")
    return RidgeReadout(coef=coef, intercept=float(y_mean - col_means @ coef))


def mae(predictions: np.ndarray, truth: np.ndarray) -> float:
    """Mean absolute error."""
    predictions = np.asarray(predictions, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if predictions.shape != truth.shape or predictions.ndim != 1 or predictions.size < 1:
        raise InputError(
            f"prediction/truth shapes disagree: {predictions.shape} vs {truth.shape}"
        )
    return float(np.mean(np.abs(predictions - truth)))


def _label_summary(labels: np.ndarray, bin_range: tuple[float, float]) -> dict:
    counts, edges = np.histogram(labels, bins=10, range=bin_range)
    return {
        "mean": float(labels.mean()),
        "std": float(labels.std()),
        "min": float(labels.min()),
        "max": float(labels.max()),
        "histogram": {"bin_edges": [float(e) for e in edges], "counts": [int(c) for c in counts]},
    }


def _readout_mae(
    train_x: np.ndarray,
    train_y: np.ndarray,
    test_x: np.ndarray,
    test_y: np.ndarray,
    ridge: RidgeConfig,
) -> float:
    readout = ridge_fit(train_x, train_y, ridge)
    return mae(readout.predict(test_x), test_y)


def _aggregate(runs: list[dict]) -> dict:
    maes = [run["mae"] for run in runs]
    return {
        "maes": maes,
        "mean_mae": float(np.mean(maes)),
        "std_mae": float(np.std(maes)),  # population std over seeds
        "runs": runs,
    }


def _contrastive_run(
    dataset: Dataset,
    seed: int,
    base: TrainConfig,
    optim: OptimConfig,
    encoder_config: EncoderConfig,
    ridge: RidgeConfig,
    test_fraction: float,
) -> tuple[dict, float]:
    started = time.perf_counter()
    train_ds, test_ds = split(dataset, test_fraction, seed)
    config = replace(base, seed=seed)
    result = train(train_ds, config, optim, encoder_config)
    train_emb = result.encoder.forward(train_ds.features).unit
    test_emb = result.encoder.forward(test_ds.features).unit
    run_mae = _readout_mae(train_emb, train_ds.labels, test_emb, test_ds.labels, ridge)
    label_range = (float(dataset.labels.min()), float(dataset.labels.max()))
    record = {
        "seed": seed,
        "mae": run_mae,
        "final_mean_loss": result.trace[-1]["mean_loss"] if result.trace else None,
        "test_labels": _label_summary(test_ds.labels, label_range),
    }
    return record, time.perf_counter() - started


def _baseline_runs(
    dataset: Dataset,
    seeds: list[int],
    encoder_config: EncoderConfig,
    ridge: RidgeConfig,
    test_fraction: float,
) -> dict:
    label_range = (float(dataset.labels.min()), float(dataset.labels.max()))
    raw_runs = []
    untrained_runs = []
    for seed in seeds:
        train_ds, test_ds = split(dataset, test_fraction, seed)
        summary = _label_summary(test_ds.labels, label_range)
        raw_runs.append(
            {
                "seed": seed,
                "mae": _readout_mae(
                    train_ds.features, train_ds.labels, test_ds.features, test_ds.labels, ridge
                ),
                "test_labels": summary,
            }
        )
        frozen = init_encoder(encoder_config, seed)
        untrained_runs.append(
            {
                "seed": seed,
                "mae": _readout_mae(
                    frozen.forward(train_ds.features).unit,
                    train_ds.labels,
                    frozen.forward(test_ds.features).unit,
                    test_ds.labels,
                    ridge,
                ),
                "test_labels": summary,
            }
        )
    return {
        "raw_features": _aggregate(raw_runs),
        "untrained_encoder": _aggregate(untrained_runs),
    }


def _dataset_summary(dataset: Dataset, source: str) -> dict:
    return {
        "source": source,
        "n": dataset.n,
        "feature_dim": dataset.feature_dim,
        "label_mean": float(dataset.labels.mean()),
        "label_std": float(dataset.labels.std()),
    }


def _protocol_summary(
    base: TrainConfig,
    optim: OptimConfig,
    encoder_config: EncoderConfig,
    ridge: RidgeConfig,
    seeds: list[int],
    test_fraction: float,
) -> dict:
    return {
        "seeds": list(seeds),
        "test_fraction": test_fraction,
        "resplit_per_seed": True,
        "readout_embeddings": "unit",
        "epochs": base.epochs,
        "batch_size": base.batch_size,
        "temperature": base.temperature,
        "kernel": {"kind": "gaussian", "bandwidth": base.kernel.bandwidth},
        "nn_final": base.nn_final,
        "nn_step_size": base.nn_step_size,
        "nn_space": base.nn_space.value,
        "reduction": base.reduction.value,
        "learning_rate": optim.learning_rate,
        "decay_factor": optim.decay_factor,
        "decay_every": optim.decay_every,
        "weight_decay": optim.weight_decay,
        "encoder": {
            "input_dim": encoder_config.input_dim,
            "hidden_dims": list(encoder_config.hidden_dims),
            "output_dim": encoder_config.output_dim,
        },
        "ridge_lambda": ridge.regularization,
    }


def _run_grid(
    kind: str,
    entries_key: str,
    cells: list[tuple[str, TrainConfig]],
    dataset: Dataset,
    seeds: list[int],
    base: TrainConfig,
    optim: OptimConfig,
    encoder_config: EncoderConfig,
    ridge: RidgeConfig,
    test_fraction: float,
    dataset_source: str,
) -> dict:
    """Train and score every (cell, seed) pair in order; returns the report.

    Each cell is a named training config; entries are grouped per cell name
    in (cell, seed) order, and a failing run aborts with its identity
    attached. Repeated seeds or cell names are rejected: they would enter
    one run's result into the aggregates twice.
    """
    if not seeds:
        raise ConfigError("need at least one seed")
    names = [name for name, _ in cells]
    for what, values in (("seeds", seeds), (entries_key, names)):
        if len(set(values)) != len(values):
            raise ConfigError(f"duplicate {what} in {values}: each would count one run twice")
    started = time.perf_counter()
    grouped: dict[str, list[dict]] = {name: [] for name in names}
    seconds: dict[str, list[float]] = {name: [] for name in names}
    for name, config in cells:
        for seed in seeds:
            try:
                record, elapsed = _contrastive_run(
                    dataset, seed, config, optim, encoder_config, ridge, test_fraction
                )
            except DynLocRepError as exc:
                # keep the subtype so callers can still map it to an exit code
                raise type(exc)(f"run ({name}, seed {seed}) failed: {exc}") from exc
            grouped[name].append(record)
            seconds[name].append(round(elapsed, 3))
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": kind,
        "protocol": _protocol_summary(base, optim, encoder_config, ridge, seeds, test_fraction),
        "dataset": _dataset_summary(dataset, dataset_source),
        entries_key: {name: _aggregate(records) for name, records in grouped.items()},
        "baselines": _baseline_runs(dataset, seeds, encoder_config, ridge, test_fraction),
        "timing": {
            "per_run_seconds": seconds,
            "total_seconds": round(time.perf_counter() - started, 3),
        },
    }


def benchmark(
    dataset: Dataset,
    variants: list[LossVariant],
    seeds: list[int],
    base: TrainConfig,
    optim: OptimConfig,
    encoder_config: EncoderConfig,
    ridge: RidgeConfig,
    test_fraction: float = 0.2,
    dataset_source: str = "user",
) -> dict:
    """Compare loss variants over seeds; returns the JSON-ready report.

    Everything outside the "timing" subtree is a pure function of the
    configuration, so two identical invocations serialize identically.
    """
    if not variants:
        raise ConfigError("need at least one loss variant")
    cells = [(variant.value, replace(base, variant=variant)) for variant in variants]
    report = _run_grid(
        "benchmark", "variants", cells, dataset, seeds, base, optim, encoder_config, ridge,
        test_fraction, dataset_source,
    )
    report["protocol"]["distance_norm"] = base.distance_norm.value
    return report


def ablate_norms(
    dataset: Dataset,
    norms: list[DistanceNorm],
    seeds: list[int],
    base: TrainConfig,
    optim: OptimConfig,
    encoder_config: EncoderConfig,
    ridge: RidgeConfig,
    test_fraction: float = 0.2,
    dataset_source: str = "user",
) -> dict:
    """Sweep the neighbor-selection distance norm for the localized loss.

    Each norm entry carries the published reference MAE for context,
    flagged with "paper_reference": true so it cannot be mistaken for a
    measured value.
    """
    if not norms:
        raise ConfigError("need at least one distance norm")
    cells = [
        (norm.value, replace(base, variant=LossVariant.DYN_LOC_REP, distance_norm=norm))
        for norm in norms
    ]
    report = _run_grid(
        "ablation", "norms", cells, dataset, seeds, base, optim, encoder_config, ridge,
        test_fraction, dataset_source,
    )
    for name, entry in report["norms"].items():
        reference = ABLATION_REFERENCE_MAE.get(name)
        if reference is not None:
            entry["reference"] = {
                "paper_reference": True,
                "mae_mean": reference[0],
                "mae_std": reference[1],
            }
    return report


def strip_timing(report: dict) -> dict:
    """The deterministic part of a report (everything except "timing")."""
    return {key: value for key, value in report.items() if key != "timing"}
