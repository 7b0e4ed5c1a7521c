"""Frozen-encoder evaluation: ridge readout, MAE, and multi-seed reports.

A benchmark run trains one encoder per (loss variant, seed) pair on the
seed's 80:20 split, fits a ridge regressor on the frozen unit embeddings
of the training side, and scores mean absolute error on the test side.
Two non-contrastive baselines anchor the numbers: ridge on the raw
features and ridge on the embeddings of an untrained encoder. All
aggregation uses the population standard deviation over seeds.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from .data import Dataset, _forked, _receive, _send, _worker_count, split
from .encoder import Encoder, EncoderConfig, OptimConfig, init_encoder
from .errors import (ConfigError, DynLocRepError, InputError, NumericalError, _check_array,
                     _check_int, _check_real, _sequence)
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
        _check_real("ridge regularization", self.regularization, "be finite and >= 0",
                    lambda r: r >= 0)


@dataclass(frozen=True)
class RidgeReadout:
    """Fitted readout: prediction is x @ coef + intercept."""

    coef: np.ndarray
    intercept: float

    def predict(self, embeddings: np.ndarray) -> np.ndarray:
        x = _check_array("embeddings", embeddings, ("n", len(self.coef)))
        return x @ self.coef + self.intercept


def ridge_fit(embeddings: np.ndarray, labels: np.ndarray, config: RidgeConfig) -> RidgeReadout:
    """Solve (Xc^T Xc + lambda I) beta = Xc^T yc on centered data.

    The intercept restores the label mean at the column means. A singular
    or non-finite solve raises NumericalError rather than being masked.
    """
    x = _check_array("embeddings", embeddings, ("n", "d"))
    y = _check_array("labels", labels, (len(x),))
    if len(x) < 1:
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
    predictions = _check_array("predictions", predictions, ("n",))
    truth = _check_array("truth", truth, (len(predictions),))
    if len(predictions) < 1:
        raise InputError("mae needs at least one prediction")
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


def _aggregate(runs: list[dict]) -> dict:
    maes = [run["mae"] for run in runs]
    return {
        "maes": maes,
        "mean_mae": float(np.mean(maes)),
        "std_mae": float(np.std(maes)),  # population std over seeds
        "runs": runs,
    }


def _run_record(
    name: str,
    seed: int,
    train_ds: Dataset,
    test_ds: Dataset,
    test_labels: dict,
    ridge: RidgeConfig,
    encoder: Encoder | None = None,
    training: tuple[TrainConfig, OptimConfig, EncoderConfig] | None = None,
) -> dict:
    """Score one run: ridge on the training side's unit embeddings (its raw
    features when there is no encoder), MAE on the test side. With
    ``training``, the encoder is trained first and its final mean loss is
    recorded. An error is re-raised with the run's identity attached.
    """
    trace = None
    try:
        if training is not None:
            result = train(train_ds, *training)
            encoder, trace = result.encoder, result.trace
        train_x, test_x = (
            ds.features if encoder is None else encoder.forward(ds.features).unit
            for ds in (train_ds, test_ds)
        )
        readout = ridge_fit(train_x, train_ds.labels, ridge)
        record = {"seed": seed, "mae": mae(readout.predict(test_x), test_ds.labels)}
    except DynLocRepError as exc:
        # keep the subtype so callers can still map it to an exit code
        raise type(exc)(f"run ({name}, seed {seed}) failed: {exc}") from exc
    if trace is not None:
        record["final_mean_loss"] = trace[-1]["mean_loss"] if trace else None
    record["test_labels"] = test_labels
    return record


def _timed_record(job: tuple) -> tuple[dict, float]:
    """``_run_record(*job)`` and the seconds it took, to the millisecond."""
    started = time.perf_counter()
    record = _run_record(*job)
    return record, round(time.perf_counter() - started, 3)


def _work(jobs: list[tuple], pipe) -> None:
    """A forked worker's share of the grid: ``_timed_record`` of each job,
    sent in order. The first error ends the list; ``_child`` sends it."""
    for job in jobs:
        _send(pipe, _timed_record(job))


def _run_jobs(jobs: list[tuple]) -> list[tuple[dict, float]]:
    """``_timed_record`` of each job, in job order.

    The jobs are independent runs, so they are dealt round-robin to
    ``_worker_count(len(jobs))`` forked workers; each worker sends its
    results back through a pipe. They run in this process instead when that
    count is 1. Either way the first failing job in job order raises its own
    error; a worker that dies raises ChildProcessError. No worker is left
    when this returns or raises: the rest are killed once a job fails.
    """
    workers = _worker_count(len(jobs))
    if workers < 2:
        return [_timed_record(job) for job in jobs]
    with _forked(lambda worker, pipe: _work(jobs[worker::workers], pipe), workers) as pipes:
        return [
            _receive(pipes[index % workers], f"run {index} of the grid")
            for index in range(len(jobs))
        ]


def _run_grid(
    kind: str,
    entries_key: str,
    field: str,
    values: list,
    dataset: Dataset,
    seeds: list[int],
    base: TrainConfig,
    optim: OptimConfig,
    encoder_config: EncoderConfig,
    ridge: RidgeConfig,
    test_fraction: float,
    dataset_source: str,
) -> dict:
    """Sweep ``base`` over one config field; returns the report.

    Each value of ``field`` gives one cell, ``replace(base, field=value)``,
    so the config checks and converts it before any run, and the cell is
    named by the member it holds: a member and its string value are one
    name. The trains run through ``_run_jobs``; entries are grouped per cell
    in (cell, seed) order, and the first failing run in that order aborts
    with its identity attached. Splits and schedules are checked in this
    process before any run: each seed is split once, for every cell and both
    baselines, which are scored here after the trains. Repeated seeds or
    cell names are rejected: they would count one run's result twice.
    """
    configs = _sequence(entries_key, values, lambda value: replace(base, **{field: value}))
    seeds = _sequence("seeds", seeds, lambda seed: _check_int("seeds", seed, 0))
    if not configs:
        raise ConfigError(f"need at least one {field.replace('_', ' ')}")
    if not seeds:
        raise ConfigError("need at least one seed")
    names = [getattr(config, field).value for config in configs]
    for what, items in (("seeds", seeds), (entries_key, names)):
        if len(set(items)) != len(items):
            raise ConfigError(f"duplicate {what} in {list(items)}: each would count one run twice")
    cells = dict(zip(names, configs))
    started = time.perf_counter()
    for config in cells.values():
        config.schedule_config()  # its range errors surface before any run
    label_range = (float(dataset.labels.min()), float(dataset.labels.max()))
    sides = {}
    for seed in seeds:
        train_ds, test_ds = split(dataset, test_fraction, seed)
        sides[seed] = (train_ds, test_ds, _label_summary(test_ds.labels, label_range))
    jobs = [
        (name, seed, *sides[seed], ridge, None, (replace(config, seed=seed), optim, encoder_config))
        for name, config in cells.items()
        for seed in seeds
    ]
    grouped: dict[str, list[dict]] = {name: [] for name in cells}
    seconds: dict[str, list[float]] = {name: [] for name in cells}
    for (name, *_), (record, run_seconds) in zip(jobs, _run_jobs(jobs)):
        grouped[name].append(record)
        seconds[name].append(run_seconds)
    baselines: dict[str, list[dict]] = {"raw_features": [], "untrained_encoder": []}
    for seed in seeds:
        frozen = init_encoder(encoder_config, seed)
        for name, encoder in (("raw_features", None), ("untrained_encoder", frozen)):
            baselines[name].append(_run_record(name, seed, *sides[seed], ridge, encoder))
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": kind,
        "protocol": {
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
        },
        "dataset": {
            "source": dataset_source,
            "n": dataset.n,
            "feature_dim": dataset.feature_dim,
            "label_mean": float(dataset.labels.mean()),
            "label_std": float(dataset.labels.std()),
        },
        entries_key: {name: _aggregate(records) for name, records in grouped.items()},
        "baselines": {name: _aggregate(records) for name, records in baselines.items()},
        "timing": {
            "per_run_seconds": seconds,
            "total_seconds": round(time.perf_counter() - started, 3),
        },
    }


def benchmark(
    dataset: Dataset,
    variants: list[LossVariant | str],
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
    report = _run_grid(
        "benchmark", "variants", "variant", variants, dataset, seeds, base, optim,
        encoder_config, ridge, test_fraction, dataset_source,
    )
    report["protocol"]["distance_norm"] = base.distance_norm.value
    return report


def ablate_norms(
    dataset: Dataset,
    norms: list[DistanceNorm | str],
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
    report = _run_grid(
        "ablation", "norms", "distance_norm", norms, dataset, seeds,
        replace(base, variant=LossVariant.DYN_LOC_REP), optim, encoder_config, ridge,
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
