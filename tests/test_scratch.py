"""The step's per-thread work arrays: no public function changes its inputs
or returns work memory, threads keep their own, and a warm batch-256 step
neither allocates nor faults in fresh memory."""

import json
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import dynlocrep
from dynlocrep import (
    DistanceNorm,
    EmbeddingBatch,
    EncoderConfig,
    KernelSpec,
    LossConfig,
    LossVariant,
    NeighborSpace,
    OptimConfig,
    SyntheticSpec,
    TrainConfig,
    baseline_forward,
    distance_matrix,
    dynlocrep_forward,
    generate_synthetic,
    loss_with_gradient,
    positiveness_matrix,
    select_neighbors,
    similarity_matrix,
    train,
)

N = 40
TAU = 0.5
KERNEL = KernelSpec(bandwidth=6.0)


def step_inputs(seed):
    """Embeddings, labels (tied in pairs, so the sorted losses take their
    tie branch) and input features of one N-row batch."""
    rng = np.random.default_rng(seed)
    batch = EmbeddingBatch.from_raw(rng.normal(size=(N, 6)))
    labels = np.repeat(rng.uniform(20.0, 80.0, size=N // 2), 2)
    return batch, labels, rng.normal(size=(N, 5))


def forward_inputs(seed):
    batch, labels, _ = step_inputs(seed)
    sim = similarity_matrix(batch.unit, TAU)
    neighbors = select_neighbors(distance_matrix(batch.unit, DistanceNorm.MANHATTAN), 7)
    return sim, positiveness_matrix(labels, KERNEL), neighbors, labels


def step_calls():
    """(name, make(seed) -> (inputs, call)) for every public function that
    computes an (n, n)-sized array."""
    calls = []
    for variant in LossVariant:
        spaces = list(NeighborSpace) if variant is LossVariant.DYN_LOC_REP else [None]
        for space in spaces:
            config = LossConfig(variant, KERNEL, TAU, nn_space=space or NeighborSpace.EMBEDDING)

            def make(seed, config=config):
                batch, labels, features = step_inputs(seed)
                inputs = [batch.raw, batch.unit, labels, features]
                return inputs, lambda: loss_with_gradient(
                    config, batch, labels, neighbor_count=7, input_features=features
                ).grad_raw

            calls.append((f"loss_with_gradient {variant.value} {space}", make))

    def forward(seed):
        sim, weights, neighbors, _ = forward_inputs(seed)
        return [sim, weights, neighbors], lambda: dynlocrep_forward(sim, weights, neighbors)

    calls.append(("dynlocrep_forward", forward))
    for variant in LossVariant:
        if variant is LossVariant.DYN_LOC_REP:
            continue

        def baseline(seed, variant=variant):
            sim, weights, _, labels = forward_inputs(seed)
            return [sim, weights, labels], lambda: baseline_forward(variant, sim, weights, labels)

        calls.append((f"baseline_forward {variant.value}", baseline))

    def geometry(seed):
        batch, labels, features = step_inputs(seed)
        distances = distance_matrix(features, DistanceNorm.EUCLIDEAN)
        return [batch.unit, labels, features, distances], lambda: (
            similarity_matrix(batch.unit, TAU),
            positiveness_matrix(labels, KERNEL),
            *(distance_matrix(features, norm) for norm in DistanceNorm),
            select_neighbors(distances, 5),
        )

    calls.append(("geometry and kernel", geometry))
    return calls


def as_bytes(result):
    if isinstance(result, tuple):
        return [np.asarray(part).tobytes() for part in result]
    return np.asarray(result).tobytes()


@pytest.mark.parametrize("make", [pytest.param(make, id=name) for name, make in step_calls()])
def test_public_functions_keep_their_inputs_and_return_no_work_memory(make):
    """Every input stays byte-equal, and a first result stays byte-equal
    after a second call at the same n with other inputs."""
    inputs, first_call = make(1)
    before = [x.tobytes() for x in inputs]
    first = first_call()
    first_bytes = as_bytes(first)
    assert [x.tobytes() for x in inputs] == before
    other_inputs, second_call = make(2)
    other_before = [x.tobytes() for x in other_inputs]
    second = second_call()
    assert as_bytes(first) == first_bytes
    assert as_bytes(second) != first_bytes
    assert [x.tobytes() for x in other_inputs] == other_before


def test_two_threads_train_like_sequential_runs():
    """dynlocrep at batch 256 and rnc at batch 32 train at the same time,
    each in its own thread, and give the parameters and every epoch's mean
    loss of a run on its own. 544 rows leave dynlocrep a last batch of 32,
    so both threads step at batch 32, each in its own work arrays."""
    dataset = generate_synthetic(SyntheticSpec(n=544, feature_dim=8, informative_dims=4), 5)
    encoder_config = EncoderConfig(input_dim=8, hidden_dims=(16,), output_dim=8)
    configs = [
        TrainConfig(epochs=3, batch_size=256, nn_final=20),
        TrainConfig(variant=LossVariant.RANK_N_CONTRAST, epochs=6, batch_size=32),
    ]

    def run(config):
        result = train(dataset, config, OptimConfig(), encoder_config)
        return result.encoder.params.tobytes(), [epoch["mean_loss"] for epoch in result.trace]

    alone = [run(config) for config in configs]
    together = [None] * len(configs)
    start = threading.Barrier(len(configs))

    def worker(index):
        start.wait()
        together[index] = [run(configs[index]) for _ in range(2)]

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(configs))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for expected, runs in zip(alone, together):
        assert runs == [expected, expected]


def warm_batch(n=256, seed=3):
    rng = np.random.default_rng(seed)
    return EmbeddingBatch.from_raw(rng.normal(size=(n, 32))), rng.uniform(0.0, 60.0, size=n)


@pytest.mark.parametrize("variant", list(LossVariant))
def test_a_warm_batch_256_step_allocates_under_one_mebibyte(variant):
    """After one call, every (n, n) intermediate comes from the thread's
    work arrays: a call peaks at 0.2-0.7 MiB (one argsort or selection
    result at most), where it peaked at 4-9.5 MB before they existed."""
    batch, labels = warm_batch()
    config = LossConfig(variant=variant)
    loss_with_gradient(config, batch, labels, neighbor_count=200)
    tracemalloc.start()
    try:
        loss_with_gradient(config, batch, labels, neighbor_count=200)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2**20


FAULTS_PER_CALL = """
import json, resource, sys
import numpy as np
from dynlocrep import EmbeddingBatch, LossConfig, loss_with_gradient
rng = np.random.default_rng(0)
batches = [EmbeddingBatch.from_raw(rng.normal(size=(256, 32))) for _ in range(4)]
labels = [rng.uniform(0.0, 60.0, size=256) for _ in range(4)]
config = LossConfig(variant=sys.argv[1])
faults = []
for call in range(20):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    loss_with_gradient(config, batches[call % 4], labels[call % 4], neighbor_count=200)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(json.dumps(faults))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="minor faults as Linux counts them")
@pytest.mark.parametrize("variant", list(LossVariant))
def test_a_fresh_process_runs_batch_256_steps_without_faulting_in_pages(variant):
    """In a new process, calls 2-20 average under 100 minor faults each:
    the work arrays are faulted in once, by the first call. Without them
    a call faulted 1000-2050 pages until some large block had been freed."""
    src = str(Path(dynlocrep.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-c", FAULTS_PER_CALL, variant.value],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    faults = json.loads(result.stdout)
    assert np.mean(faults[1:]) < 100, faults
