"""Bit-identity of this tree's src/ against another revision's, from the
standard library and NumPy alone.

Exports the src/ of REV (``git archive``) under .bench_work/, then runs one
fixed list of cases twice, each time in a fresh interpreter that imports
one tree's src/: the parent's and this working tree's. Every case reduces
its results to exact text (float hex, digests of array bytes), so two trees
agree on a case only if they agree bit for bit:

- ``train/<loss>/b<batch>``: a 10-epoch library train of each of the five
  losses at batch 7, 32 and 256 on the 400-row training split of the
  n = 500 synthetic set, as its trained parameter bytes and every epoch's
  ``mean_loss``;
- ``loss/<loss>/n<n>/tau<tau>``: one ``loss_with_gradient`` call per loss at
  n = 2, 3, 7, 32 and 256 and temperature 0.5, 0.1 and 0.002, on a batch
  with one all-zero row and tied integer labels, as its value, gradient
  bytes and ``weighted``;
- ``criterion8``: acceptance criterion 8's benchmark report (five losses,
  five seeds, 50 epochs), outside ``timing``, with each entry's mean MAE.

It prints each case's verdict and the criterion-8 MAE deltas (this tree
minus REV), and exits 1 naming the first case that differs, else 0.

    python tools/identity.py --parent REV
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import shutil
import subprocess
import sys
import tarfile
from collections.abc import Callable
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"

LOSSES = ("dynlocrep", "yaware", "threshold", "exponential", "rnc")


def _digest(array) -> str:
    return hashlib.sha256(array.tobytes()).hexdigest()


def _train_case(loss: str, batch: int) -> Callable[[], dict]:
    def run() -> dict:
        from dynlocrep import (EncoderConfig, OptimConfig, SyntheticSpec, TrainConfig,
                               generate_synthetic, split, train)

        train_set, _ = split(generate_synthetic(SyntheticSpec(n=500), 0), 0.2, 0)
        config = TrainConfig(variant=loss, epochs=10, batch_size=batch, nn_final=min(14, batch - 1))
        result = train(train_set, config, OptimConfig(), EncoderConfig(train_set.feature_dim))
        return {
            "params": _digest(result.encoder.params),
            "mean_loss": " ".join(float(entry["mean_loss"]).hex() for entry in result.trace),
        }

    return run


def _loss_case(loss: str, n: int, tau: float) -> Callable[[], dict]:
    def run() -> dict:
        import numpy as np

        from dynlocrep import EmbeddingBatch, LossConfig, loss_with_gradient

        rng = np.random.default_rng(n)
        points = rng.normal(size=(n, 8))
        points[n // 2] = 0.0  # an all-zero embedding row
        labels = rng.integers(20, 20 + max(2, n // 4), size=n).astype(float)  # tied labels
        out = loss_with_gradient(
            LossConfig(variant=loss, temperature=tau),
            EmbeddingBatch.from_raw(points),
            labels,
            neighbor_count=max(1, n // 2),
            input_features=points,
        )
        return {
            "value": float(out.value).hex(),
            "grad_raw": _digest(out.grad_raw),
            "weighted": str(out.weighted),
        }

    return run


def _criterion_8() -> dict:
    from dynlocrep import (EncoderConfig, LossVariant, OptimConfig, RidgeConfig, SyntheticSpec,
                           TrainConfig, benchmark, generate_synthetic)
    from dynlocrep.evaluation import strip_timing

    dataset = generate_synthetic(SyntheticSpec(n=500), seed=0)
    report = benchmark(
        dataset, list(LossVariant), [0, 1, 2, 3, 4], TrainConfig(), OptimConfig(),
        EncoderConfig(input_dim=dataset.feature_dim), RidgeConfig(1.0),
        dataset_source="synthetic(n=500, seed=0)",
    )
    text = json.dumps(strip_timing(report), sort_keys=True)
    fields = {"report": hashlib.sha256(text.encode()).hexdigest()}
    for group in ("variants", "baselines"):
        for name, entry in report[group].items():
            fields[f"mae/{name}"] = float(entry["mean_mae"]).hex()
    return fields


def cases() -> dict[str, Callable[[], dict]]:
    """Every case by name, in the order they run."""
    found: dict[str, Callable[[], dict]] = {}
    for batch in (7, 32, 256):
        for loss in LOSSES:
            found[f"train/{loss}/b{batch}"] = _train_case(loss, batch)
    for n in (2, 3, 7, 32, 256):
        for tau in (0.5, 0.1, 0.002):
            for loss in LOSSES:
                found[f"loss/{loss}/n{n}/tau{tau}"] = _loss_case(loss, n, tau)
    found["criterion8"] = _criterion_8
    return found


def _emit(names: list[str]) -> None:
    """Run the named cases in this interpreter and print their fields as JSON."""
    import dynlocrep

    tree = str(Path(dynlocrep.__file__).parent.parent)
    every, results = cases(), {}
    for name in names:
        try:
            results[name] = every[name]()
        except Exception as exc:  # a case may fail, but both trees must fail alike
            results[name] = {"error": f"{type(exc).__name__}: {exc}".replace(tree, "src")}
    print(json.dumps(results))


def run_tree(src: Path, names: list[str]) -> dict[str, dict]:
    """The fields of each named case, run in a fresh interpreter on ``src``."""
    bootstrap = (
        f"import sys; sys.path[:0] = [{str(src)!r}, {str(Path(__file__).parent)!r}]; "
        "import dynlocrep, identity; "
        f"assert dynlocrep.__file__.startswith({str(src)!r}), dynlocrep.__file__; "
        f"identity._emit({names!r})"
    )
    done = subprocess.run([sys.executable, "-c", bootstrap], capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"cases failed on {src}:\n{done.stderr}")
    return json.loads(done.stdout)


def compare(parent_src: Path, change_src: Path, names: list[str]) -> tuple[str | None, list[str]]:
    """The first case whose fields differ between the two trees (None if
    none does), and one report line per case plus the criterion-8 deltas."""
    parent, change = run_tree(parent_src, names), run_tree(change_src, names)
    first, lines = None, []
    for name in names:
        differing = [key for key in parent[name] if parent[name][key] != change[name].get(key)]
        lines.append(f"{name}: " + (f"DIFFERS in {', '.join(differing)}" if differing else "same"))
        if differing and first is None:
            first = name
    if "criterion8" in names:
        for key, value in parent["criterion8"].items():
            if key.startswith("mae/"):
                mae = float.fromhex(value)
                delta = float.fromhex(change["criterion8"][key]) - mae
                lines.append(f"criterion 8 {key[4:]}: MAE {mae:.6f}, delta {delta:+.3g}")
    return first, lines


def export_src(rev: str) -> Path:
    """src/ of ``rev`` as committed, extracted under .bench_work/."""
    target = WORK / f"identity-{rev.replace('/', '_')}"
    shutil.rmtree(target, ignore_errors=True)
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"],
        capture_output=True, check=True,
    )
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(target, filter="data")
    return target / "src"


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, metavar="REV", help="revision to compare with")
    args = parser.parse_args(argv)
    parent_src = export_src(args.parent)
    try:
        first, lines = compare(parent_src, ROOT / "src", list(cases()))
    finally:
        shutil.rmtree(parent_src.parent, ignore_errors=True)
    print("\n".join(lines))
    if first is not None:
        print(f"not identical: first differing case {first}")
        return 1
    print(f"every case is identical to {args.parent}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
