"""Tests for the benchmark's own code: span arithmetic, rebinding, metric catalog."""

import json
import re
import types

import numpy as np
import pytest

from perfbench import run, tracing, workloads
from perfbench.tracing import Span, Tracer, self_times, top_level_seconds

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span("a", 0.0, 10.0, -1),
        Span("b", 1.0, 4.0, 0),
        Span("c", 2.0, 3.0, 1),
        Span("b", 5.0, 7.0, 0),
        Span("d", 11.0, 12.5, -1),
    ]
    totals = self_times(spans)
    assert totals["a"] == (1, pytest.approx(5.0))  # 10 - (3 + 2)
    assert totals["b"] == (2, pytest.approx(4.0))  # (3 - 1) + 2
    assert totals["c"] == (1, pytest.approx(1.0))
    assert totals["d"] == (1, pytest.approx(1.5))
    assert top_level_seconds(spans) == pytest.approx(11.5)
    # self times of all spans add up to the time the top-level spans cover
    assert sum(s for _, s in totals.values()) == pytest.approx(top_level_seconds(spans))


def test_tracer_records_only_while_recording_and_restores():
    module = types.ModuleType("toy")

    def inner(x):
        if x < 0:
            raise ValueError(x)
        return x + 1

    def outer(x):
        return module.inner(x) * 2

    module.inner, module.outer = inner, outer
    tracer = Tracer()
    tracer.install([
        ("toy.inner", module, "inner", ("toy.items", lambda args, kwargs: args[0])),
        ("toy.outer", module, "outer", None),
    ])
    assert module.outer(1) == 4 and tracer.spans == []
    tracer.recording = True
    assert module.outer(3) == 8
    with pytest.raises(ValueError):
        module.inner(-1)
    tracer.recording = False
    assert [(s.name, s.parent) for s in tracer.spans] == [
        ("toy.outer", -1), ("toy.inner", 0), ("toy.inner", -1)
    ]
    assert tracer.errors["toy.inner"] == 1
    assert tracer.counts["toy.items"] == 3 - 1
    assert tracer.restore() == []
    assert module.inner is inner and module.outer is outer


def test_library_sites_cover_every_layer_and_exist():
    sites = tracing.library_sites()
    assert {name for name, *_ in sites} == set(run.LAYERS)
    for _, owner, attr, _ in sites:
        assert callable(vars(owner)[attr])


def test_metric_names_and_units_are_well_formed():
    names = [name for name, _, _ in run.END_TO_END + run.PER_LAYER]
    assert len(names) == len(set(names))
    for name, unit, better in run.END_TO_END + run.PER_LAYER:
        assert NAME.fullmatch(name), name
        assert UNIT.fullmatch(unit), unit
        assert better in ("lower", "higher")


def test_benchmark_file_matches_the_catalog():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == run.WORKLOADS
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.PER_LAYER
    assert workloads.VARIANTS == run.VARIANTS


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_seed_changes_the_inputs(name, tmp_path):
    labels = []
    for seed in (1, 2):
        workload = workloads.make(name)
        workload.setup(seed, tmp_path)
        labels.append(workload.dataset.labels)
    assert labels[0].shape == labels[1].shape
    assert not np.array_equal(labels[0], labels[1])


def _tiny(name):
    if name == "cli_export":
        workload = workloads.CliExportWorkload()
        workload.n_train = 200
        return workload
    return workloads.TrainWorkload(n=60, batch_size=16, epochs=3)


@pytest.mark.parametrize("name", ["train_b256", "cli_export"])
@pytest.mark.parametrize("trace", [False, True])
def test_seed_leaves_the_metric_set_alone(name, trace, tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "make", _tiny)
    catalog = run.PER_LAYER if trace else run.END_TO_END
    for seed in (1, 2):
        workdir = tmp_path / str(seed)
        workdir.mkdir()
        result, failures, _ = run.run(name, seed, 0.0, trace, workdir)
        assert failures == []
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
        assert list(result["metrics"]) == [m for m, _, _ in catalog]
        assert all(m["value"] is not None for m in result["metrics"].values())


def test_traced_run_restores_the_library_and_accounts_for_wall(tmp_path, monkeypatch):
    from dynlocrep import geometry, losses, training

    original = training.loss_with_gradient
    monkeypatch.setattr(workloads, "make", _tiny)
    result, _, _ = run.run("train_b256", 3, 0.0, True, tmp_path)
    assert training.loss_with_gradient is original
    assert losses.distance_matrix is geometry.distance_matrix
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    shares = sum(metrics[f"{layer}.share"] for layer in run.LAYERS)
    assert shares + metrics["unattributed.share"] == pytest.approx(1.0)
    assert metrics["losses.loss_with_gradient.calls"] > 0
    assert metrics["training.train.calls"] == len(run.VARIANTS)
