"""Acceptance suite: ten binding criteria, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Every tolerance is pinned here, not in helper code.
"""

import json
import math
import time

import numpy as np
import pytest

import oracles
import test_schedule
from dynlocrep import (
    EmbeddingBatch,
    EncoderConfig,
    KernelSpec,
    LossConfig,
    LossVariant,
    OptimConfig,
    RidgeConfig,
    ScheduleConfig,
    SyntheticSpec,
    TrainConfig,
    benchmark,
    baseline_forward,
    distance_matrix,
    dynlocrep_forward,
    generate_synthetic,
    loss_with_gradient,
    neighbors_at_epoch,
    positiveness_matrix,
    ridge_fit,
    select_neighbors,
    similarity_matrix,
)
from dynlocrep.cli import main
from dynlocrep.geometry import DistanceNorm
from dynlocrep.losses import _normalized_pair_weights

KERNEL = KernelSpec(bandwidth=2.0)
TAU = 0.1


def _passed(num: int, text: str) -> None:
    print(f"[criterion {num:2d}] PASS  {text}")


def _random_batch(seed: int, n: int, d: int):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, d)), rng.uniform(20.0, 80.0, size=n)


def test_criterion_1_gradient_correctness():
    """Analytic gradients vs central finite differences, all five variants."""
    started = time.perf_counter()
    step = 1e-5
    worst = 0.0
    for variant in LossVariant:
        config = LossConfig(variant=variant, kernel=KERNEL, temperature=TAU)
        count = 3 if variant is LossVariant.DYN_LOC_REP else None
        for trial in range(20):
            raw, labels = _random_batch(1000 + trial, n=8, d=4)
            out = loss_with_gradient(
                config, EmbeddingBatch.from_raw(raw), labels, neighbor_count=count
            )
            numeric = np.zeros_like(raw)
            for i in range(8):
                for j in range(4):
                    up, down = raw.copy(), raw.copy()
                    up[i, j] += step
                    down[i, j] -= step
                    f_up = loss_with_gradient(
                        config, EmbeddingBatch.from_raw(up), labels, neighbor_count=count
                    ).value
                    f_down = loss_with_gradient(
                        config, EmbeddingBatch.from_raw(down), labels, neighbor_count=count
                    ).value
                    numeric[i, j] = (f_up - f_down) / (2.0 * step)
            error = np.max(np.abs(out.grad_raw - numeric)) / max(np.max(np.abs(numeric)), 1e-12)
            worst = max(worst, error)
            assert error < 1e-4, (variant, trial, error)
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"gradient check took {elapsed:.1f}s"
    _passed(1, f"5 variants x 20 batches, max rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_brute_force_oracle_equivalence():
    """Every forward matches an independent triple-loop evaluation to 1e-10."""
    checked = 0
    for n in (3, 4, 5):
        for trial in range(8):
            raw, labels = _random_batch(2000 + 10 * n + trial, n=n, d=3)
            batch = EmbeddingBatch.from_raw(raw)
            sim = similarity_matrix(batch.unit, TAU)
            weights = positiveness_matrix(labels, KERNEL)
            count = max(1, n - 2)
            neighbors = select_neighbors(
                distance_matrix(batch.unit, DistanceNorm.MANHATTAN), count
            )
            pairs = [
                (
                    dynlocrep_forward(sim, weights, neighbors),
                    oracles.dynlocrep_loss(
                        sim, weights, [list(r) for r in neighbors]
                    ),
                ),
                (
                    baseline_forward(LossVariant.Y_AWARE, sim, weights=weights),
                    oracles.yaware_loss(sim, weights),
                ),
                (
                    baseline_forward(LossVariant.THRESHOLD, sim, weights=weights),
                    oracles.threshold_loss(sim, weights),
                ),
                (
                    baseline_forward(LossVariant.EXPONENTIAL, sim, weights=weights),
                    oracles.exponential_loss(sim, weights),
                ),
                (
                    baseline_forward(LossVariant.RANK_N_CONTRAST, sim, labels=labels),
                    oracles.rank_n_contrast_loss(sim, labels),
                ),
            ]
            for got, expected in pairs:
                assert math.isclose(got, expected, rel_tol=1e-10, abs_tol=1e-10)
                checked += 1
    _passed(2, f"{checked} forward evaluations match loop oracles within 1e-10")


def test_criterion_3_degeneration_identity():
    """Full neighborhoods reduce the localized loss to the global one."""
    for trial in range(50):
        n = 3 + trial % 6
        raw, labels = _random_batch(3000 + trial, n=n, d=4)
        batch = EmbeddingBatch.from_raw(raw)
        sim = similarity_matrix(batch.unit, TAU)
        weights = positiveness_matrix(labels, KERNEL)
        neighbors = select_neighbors(
            distance_matrix(batch.unit, DistanceNorm.EUCLIDEAN), n - 1
        )
        got = dynlocrep_forward(sim, weights, neighbors)
        expected = oracles.exponential_full_denominator_loss(sim, weights)
        assert math.isclose(got, expected, rel_tol=1e-10, abs_tol=1e-10)
    _passed(3, "50 full-neighborhood batches match the global oracle within 1e-10")


def test_criterion_4_closed_form_spot_checks():
    """Hand-derived two-sample values at tau = 0.1."""
    batch = EmbeddingBatch.from_raw(np.array([[1.0, 0.0], [1.0, 0.0]]))
    sim = similarity_matrix(batch.unit, 0.1)
    weights = positiveness_matrix(np.array([30.0, 30.0]), KernelSpec(bandwidth=2.0))
    neighbors = select_neighbors(
        distance_matrix(batch.unit, DistanceNorm.MANHATTAN), 1
    )
    identical = dynlocrep_forward(sim, weights, neighbors)
    assert abs(identical - (-20.0)) <= 1e-9

    ortho = EmbeddingBatch.from_raw(np.array([[1.0, 0.0], [0.0, 1.0]]))
    sim_o = similarity_matrix(ortho.unit, 0.1)
    weights_o = positiveness_matrix(np.array([20.0, 75.0]), KernelSpec(bandwidth=2.0))
    neighbors_o = select_neighbors(
        distance_matrix(ortho.unit, DistanceNorm.MANHATTAN), 1
    )
    zero = dynlocrep_forward(sim_o, weights_o, neighbors_o)
    assert abs(zero) <= 1e-12
    _passed(4, f"identical pair {identical:+.12f} (+-1e-9), orthogonal pair {zero:+.1e} (+-1e-12)")


def test_criterion_5_schedule_conformance():
    """Reference checkpoints plus the exhaustive grid sweep."""
    config = ScheduleConfig(batch_size=32, nn_final=14, step_size=1, max_epochs=50)
    assert neighbors_at_epoch(config, 0) == 31
    assert neighbors_at_epoch(config, 25) == 22
    for epoch in (49,):
        assert neighbors_at_epoch(config, epoch) == 14
    counts = [neighbors_at_epoch(config, e) for e in range(50)]
    assert all(a >= b for a, b in zip(counts, counts[1:]))

    def check(batch_size, step_size, max_epochs):
        trajectories = test_schedule.mirrored_trajectories(batch_size, step_size, max_epochs)
        assert np.all(np.diff(trajectories, axis=1) <= 0)
        finals = np.arange(1, batch_size)
        assert np.all(trajectories >= finals[:, None])
        assert np.all(trajectories <= batch_size - 1)

    visited = test_schedule.sweep_grid(64, 100, check)
    test_schedule.test_mirror_matches_implementation_on_dense_subgrid()
    test_schedule.test_mirror_matches_implementation_on_random_sample_of_full_grid()
    _passed(5, f"31/22/14 checkpoints; {visited} grid configs monotone and bounded")


def test_criterion_6_ridge_oracle():
    """ridge_fit vs explicit normal-equation inverses, 100 instances."""
    rng = np.random.default_rng(6006)
    lambdas = [0.0, 0.1, 1.0, 10.0]
    worst = 0.0
    for trial in range(100):
        d = int(rng.integers(1, 11))
        n = int(rng.integers(d + 2, 51))
        x = rng.normal(size=(n, d))
        y = rng.normal(size=n)
        lam = lambdas[trial % 4]
        readout = ridge_fit(x, y, RidgeConfig(lam))
        coef, intercept = oracles.ridge_augmented_inverse(x, y, lam)
        gap = max(np.max(np.abs(readout.coef - coef)), abs(readout.intercept - intercept))
        worst = max(worst, gap)
        assert gap < 1e-8
    _passed(6, f"100 instances, worst coefficient gap {worst:.2e} < 1e-8")


def test_criterion_7_benchmark_determinism(tmp_path):
    """cmd_benchmark twice with one config: numeric sections byte-identical."""
    texts = []
    for name in ("first.json", "second.json"):
        out = tmp_path / name
        code = main(
            ["benchmark", "--variants", "dynlocrep,yaware", "--synthetic-n", "60",
             "--seeds", "0,1", "--epochs", "4", "--batch-size", "8", "--nn-final", "3",
             "--hidden-dims", "8,8", "--embed-dim", "4", "--out", str(out)]
        )
        assert code == 0
        report = json.loads(out.read_text())
        report.pop("timing")
        texts.append(json.dumps(report))
    assert texts[0] == texts[1]
    _passed(7, f"two runs, {len(texts[0])} identical bytes outside the timing section")


def test_criterion_8_synthetic_end_to_end_benchmark():
    """Default synthetic data, 5 seeds, 50 epochs, full variant grid."""
    started = time.perf_counter()
    dataset = generate_synthetic(SyntheticSpec(n=500), seed=0)
    report = benchmark(
        dataset,
        list(LossVariant),
        [0, 1, 2, 3, 4],
        TrainConfig(),  # 50 epochs, batch 32, manhattan, nn_final 14, step 1
        OptimConfig(),
        EncoderConfig(input_dim=dataset.feature_dim),
        RidgeConfig(1.0),
        dataset_source="synthetic(n=500, seed=0)",
    )
    elapsed = time.perf_counter() - started
    dyn = report["variants"]["dynlocrep"]["mean_mae"]
    raw = report["baselines"]["raw_features"]["mean_mae"]
    untrained = report["baselines"]["untrained_encoder"]["mean_mae"]
    others = [
        report["variants"][v.value]["mean_mae"]
        for v in LossVariant
        if v is not LossVariant.DYN_LOC_REP
    ]
    assert all(len(report["variants"][v.value]["maes"]) == 5 for v in LossVariant)
    assert dyn < raw, f"dynlocrep {dyn:.3f} vs raw-feature ridge {raw:.3f}"
    assert dyn < untrained, f"dynlocrep {dyn:.3f} vs untrained encoder {untrained:.3f}"
    assert dyn <= max(others), f"dynlocrep {dyn:.3f} vs worst baseline {max(others):.3f}"
    assert elapsed < 900.0, f"benchmark took {elapsed:.0f}s"
    _passed(
        8,
        f"dynlocrep {dyn:.3f} < raw ridge {raw:.3f}, < untrained {untrained:.3f}, "
        f"<= worst baseline {max(others):.3f}; {elapsed:.0f}s",
    )


def test_criterion_9_ablation_harness(tmp_path):
    """cmd_ablate covers all four norms and reports reference values."""
    out = tmp_path / "ablation.json"
    code = main(
        ["ablate", "--synthetic-n", "80", "--seeds", "0,1", "--epochs", "6",
         "--batch-size", "8", "--nn-final", "3", "--hidden-dims", "8,8",
         "--embed-dim", "4", "--out", str(out)]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["kind"] == "ablation"
    assert sorted(report["norms"]) == ["chebyshev", "cosine", "euclidean", "manhattan"]
    for entry in report["norms"].values():
        assert len(entry["maes"]) == 2
        assert entry["mean_mae"] == pytest.approx(np.mean(entry["maes"]))
        assert entry["reference"]["paper_reference"] is True
        assert {"mae_mean", "mae_std", "paper_reference"} == set(entry["reference"])
    assert report["norms"]["manhattan"]["reference"]["mae_mean"] == 3.724
    _passed(9, "four norms completed; reference values flagged paper_reference")


def test_criterion_10_weight_normalization():
    """Numerator weights sum to 1 per anchor when the guard is untriggered."""
    worst = 0.0
    for trial in range(50):
        rng = np.random.default_rng(7000 + trial)
        # a 14-year window keeps every anchor's weight mass above the guard
        labels = rng.uniform(30.0, 44.0, size=12)
        weights = positiveness_matrix(labels, KERNEL)
        sums = _normalized_pair_weights(weights, np.empty_like(weights)).sum(axis=1)
        worst = max(worst, float(np.max(np.abs(sums - 1.0))))
        assert np.all(np.abs(sums - 1.0) <= 1e-9)
    _passed(10, f"50 batches, worst deviation from 1 is {worst:.2e} <= 1e-9")
