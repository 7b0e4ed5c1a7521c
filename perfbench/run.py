"""Benchmark entry point.

    python3 perfbench/run.py --workload grid_c8 --seed 1 --seconds 35 --trace 0

Builds the workload's inputs from ``--seed``, measures rounds of it for
about ``--seconds`` seconds, checks every output, and prints as its last
line one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
Timings are scaled to a nominal machine speed (see ``timing``).
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs half the
time untraced and half traced and reports the per-layer metrics plus the
tracing overhead. The library is imported from ``src/`` of the checkout
that holds this file; without it the benchmark exits 2 and prints no
result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_work"

SETUPS = 5  # set-ups per run; setup_s is their median
MIN_ROUNDS = 2  # untraced rounds per --trace 0 run, whatever --seconds says
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "DYNLOC_THREADS")
IMPORT_PROBE = "import sys; sys.path.insert(0, sys.argv[1]); import dynlocrep.cli"

WORKLOADS = ["train_b256", "grid_c8", "cli_export"]
VARIANTS = ["dynlocrep", "yaware", "threshold", "exponential", "rnc"]
LAYERS = [
    "losses.loss_with_gradient",
    "geometry.distance_matrix",
    "geometry.select_neighbors",
    "geometry.similarity_matrix",
    "geometry.l2_normalize",
    "kernels.positiveness_matrix",
    "encoder.forward",
    "encoder.backward",
    "encoder.adam_step",
    "training.train",
    "evaluation.benchmark",
    "evaluation.ridge_fit",
    "data.split",
    "cli.main",
    "data.load_csv",
    "encoder.save_checkpoint",
]

# (name, unit, better)
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("train_samples_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
]
PER_LAYER = [
    *(
        metric
        for layer in LAYERS
        for metric in (
            (f"{layer}.calls", "count", "lower"),
            (f"{layer}.self_s", "s", "lower"),
            (f"{layer}.share", "ratio", "lower"),
        )
    ),
    ("losses.loss_with_gradient.errors", "count", "lower"),
    ("losses.pairs", "count", "lower"),
    ("losses.ns_per_pair", "ns", "lower"),
    ("data.load_csv.bytes", "bytes", "lower"),
    ("cli.bytes_written", "bytes", "lower"),
    *((f"training.train_s.{v}", "s", "lower") for v in VARIANTS),
    ("evaluation.mae.dynlocrep", "label_units", "lower"),
    ("evaluation.mae.variant_mean", "label_units", "lower"),
    ("unattributed.self_s", "s", "lower"),
    ("unattributed.share", "ratio", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.untraced_wall_s", "s", "lower"),
    ("trace.overhead", "ratio", "lower"),
]


def _median(values: list[float]) -> float | None:
    return statistics.median(values) if values else None


def import_library() -> None:
    """Import the library in a fresh interpreter, as a user's process does."""
    subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)], check=True, timeout=120)


def provenance(dynlocrep, numpy) -> dict:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_text = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas_text = "unknown"
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_text,
        "dynlocrep": dynlocrep.__version__,
        "env": {name: os.environ.get(name) for name in THREAD_VARS},
    }


def run_rounds(workload, timer, budget: float, min_rounds: int) -> list:
    """Closed loop: start another round while it is expected to end within ``budget``."""
    rounds, elapsed = [], []
    started = time.perf_counter()
    while len(rounds) < min_rounds or (
        time.perf_counter() - started + statistics.median(elapsed) <= budget
    ):
        round_started = time.perf_counter()
        rounds.append(workload.round(timer))
        elapsed.append(time.perf_counter() - round_started)
    return rounds


def variant_seconds(rounds: list) -> dict:
    """Median scaled seconds per loss variant."""
    return {v: _median([r.train_s[v] for r in rounds if v in r.train_s]) for v in VARIANTS}


def end_to_end_metrics(rounds: list, setup_s: float) -> dict:
    """Medians over rounds of the timings scaled to the nominal machine speed."""
    values = {
        "setup_s": setup_s,
        "wall_s": _median([r.wall_s for r in rounds]),
        "train_samples_per_s": _median([r.rows / r.wall_s for r in rounds if r.wall_s > 0]),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in END_TO_END}


def per_layer_metrics(tracer, traced: list, traced_timer, untraced: list, untraced_timer) -> dict:
    """Per-round calls and unscaled self seconds per layer, from the traced rounds.

    Shares are self seconds over the unscaled time of the traced calls, so
    the shares and ``unattributed.share`` add up to 1. The overhead compares
    the scaled round times of the traced and untraced halves of the run.
    """
    from perfbench.tracing import self_times, top_level_seconds

    rounds = len(traced)
    wall = sum(traced_timer.raw_s)
    totals = self_times(tracer.spans)
    values = {}
    for layer in LAYERS:
        calls, self_s = totals.get(layer, (0, 0.0))
        values[f"{layer}.calls"] = calls / rounds
        values[f"{layer}.self_s"] = self_s / rounds
        values[f"{layer}.share"] = self_s / wall
    pairs = tracer.counts["losses.pairs"]
    core_s = totals.get("losses.loss_with_gradient", (0, 0.0))[1]
    unattributed = wall - top_level_seconds(tracer.spans)
    maes = traced[0].mae  # every round must repeat it; the checks enforce that
    values.update({f"training.train_s.{v}": s for v, s in variant_seconds(untraced).items()})
    values.update({
        "losses.loss_with_gradient.errors": tracer.errors["losses.loss_with_gradient"] / rounds,
        "losses.pairs": pairs / rounds,
        "losses.ns_per_pair": 1e9 * core_s / pairs if pairs else 0.0,
        "data.load_csv.bytes": tracer.counts["data.load_csv.bytes"] / rounds,
        "cli.bytes_written": sum(r.bytes_written for r in traced) / rounds,
        "evaluation.mae.dynlocrep": maes.get("dynlocrep"),
        "evaluation.mae.variant_mean": (
            statistics.fmean(maes.values()) if len(maes) == len(VARIANTS) else None
        ),
        "unattributed.self_s": unattributed / rounds,
        "unattributed.share": unattributed / wall,
        "trace.wall_s": wall / rounds,
        "trace.untraced_wall_s": sum(untraced_timer.raw_s) / len(untraced),
        "trace.overhead": (
            _median([r.wall_s for r in traced]) / _median([r.wall_s for r in untraced]) - 1.0
        ),
    })
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}


def run(name: str, seed: int, seconds: float, trace: bool, workdir: Path) -> tuple[dict, list[str], dict]:
    """One benchmark run; returns the result object, the check failures and details."""
    from perfbench import timing, tracing, workloads

    workload = workloads.make(name)

    def set_up() -> None:
        import_library()
        workload.setup(seed, workdir)

    setup_timer = timing.Timer()
    setups = [setup_timer(set_up)[1] for _ in range(SETUPS)]

    restore_failures = []
    timer = timing.Timer()
    if not trace:
        rounds = untraced = run_rounds(workload, timer, seconds, MIN_ROUNDS)
        metrics = end_to_end_metrics(rounds, statistics.median(setups))
    else:
        untraced = run_rounds(workload, timer, seconds / 2, 1)
        tracer = tracing.Tracer()
        tracer.install(tracing.library_sites())
        traced_timer = timing.Timer(tracer)
        try:
            traced = run_rounds(workload, traced_timer, seconds / 2, 1)
        finally:
            left = tracer.restore()
        restore_failures = [f"{site} still rebound after the traced run" for site in left]
        rounds = untraced + traced
        metrics = per_layer_metrics(tracer, traced, traced_timer, untraced, timer)

    failures = [msg for r in rounds for msg in r.failures] + restore_failures
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds) + len(restore_failures)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    detail = {
        "rounds": len(rounds),
        "failed_run_share": failed / attempted,
        "unscaled_untraced_s": sum(timer.raw_s),
        "reference_s_median": statistics.median(timer.reference_s),
        "train_s": variant_seconds(untraced),
        "mae": rounds[0].mae,
    }
    return result, failures, detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "dynlocrep" / "__init__.py").is_file():
        print(f"perfbench: no library sources at {SRC / 'dynlocrep'}", file=sys.stderr)
        return 2
    threads = os.environ.get("DYNLOC_THREADS")
    if threads not in (None, "1"):
        print(
            f"perfbench: refusing to run with DYNLOC_THREADS={threads}; seed-level threads "
            "measured 2x slower here, so unset it or set it to 1",
            file=sys.stderr,
        )
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    import numpy
    import dynlocrep

    if Path(dynlocrep.__file__).resolve().parent != SRC / "dynlocrep":
        print(f"perfbench: imported dynlocrep from {dynlocrep.__file__}, not {SRC}", file=sys.stderr)
        return 2

    print(json.dumps({"provenance": provenance(dynlocrep, numpy)}))
    workdir = WORKDIR / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result, failures, detail = run(
            args.workload, args.seed, args.seconds, bool(args.trace), workdir
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORKDIR.rmdir()
        except OSError:
            pass  # another run still uses it
    for message in failures:
        print(f"perfbench: check failed: {message}", file=sys.stderr)
    print(json.dumps({"detail": detail}))
    print(
        f"failed_run_share {detail['failed_run_share']} ratio "
        f"({result['failed']} of {result['attempted']} runs)"
    )
    for variant, seconds in detail["train_s"].items():
        print(f"train_s.{variant} {seconds} s")
    for variant, mae in detail["mae"].items():
        print(f"mae.{variant} {mae} label_units")
    for name, metric in result["metrics"].items():
        print(f"{name} {metric['value']} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
