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
- ``forward/<loss>/n<n>``: the ``dynlocrep_forward`` or ``baseline_forward``
  value of each loss, as float hex, at n = 2, 32 and 256 and temperature
  0.5 on the ``loss/`` batch, with half the other rows as neighbors;
- ``loss/<loss>/underflow`` and ``loss/<loss>/dropped``: the same for each
  kernel-weighted loss on 8 rows, at temperature 0.5, where one anchor's
  kernel weights to every other row fall below ``WEIGHT_SUM_EPS``, and
  where every anchor's do, so that no pair is weighted;
- ``encoder/n<n>``: one ``Encoder.forward`` of the first n of 10 000 fixed
  rows of 16 features, at n = 1, 2, 64, 65, 256, 257, 400, 1025 and 10 000,
  through one encoder at the default widths, and ``backward`` of fixed
  output gradients after it, as the digests of the unit rows and of the
  gradient;
- ``criterion8``: acceptance criterion 8's benchmark report (five losses,
  five seeds, 50 epochs), outside ``timing``, with each entry's mean MAE;
- ``criterion9``: acceptance criterion 9's ``dynlocrep ablate`` report (four
  norms, two seeds), outside ``timing``, with each entry's mean MAE, and the
  command's stdout with its temp directory read as ``{tmp}``;
- ``benchmark-report``: the same for a ``dynlocrep benchmark`` report (five
  losses, two seeds);
- ``grid-error``: the exit code and error text of a ``dynlocrep benchmark``
  whose every run diverges (learning rate 1e100, two losses, two seeds).
- ``generate``: the exit code and CSV bytes of ``dynlocrep generate`` at
  n = 10 000;
- ``train-export`` and ``train-export/<loss>``: the exit code and artifact
  bytes of ``dynlocrep train --export-epochs 1,2`` on a generated 2000-row
  CSV, for dynlocrep and for each other loss, whose 2000 x 33-cell exports
  are large enough to be formatted by forked workers: the first while the
  second epoch trains, the last in row blocks;
- ``train-export/epochs3``: the same for dynlocrep with ``--epochs 3
  --export-epochs 1,2,3``, whose second export is formatted while the first
  is written;
- ``train-export/sparse`` and ``train-export/final-only``: the same with
  ``--epochs 4 --export-epochs 1,3``, whose last export is formatted while
  the fourth epoch trains, and with ``--epochs 2 --export-epochs 2``;
- ``train-export/norm/<norm>/<space>``: the same as ``train-export`` with
  ``--distance-norm`` each of the four norms and ``--nn-space`` each of the
  two neighbor spaces;
- ``load-error/<defect>``: the exit code and stderr of ``dynlocrep train`` on
  a generated 2000-row CSV, parsed in two row blocks where two CPUs are
  usable, whose line 1901, in the last block, holds one defect: a short
  row, a copy of the first row's id, a non-numeric cell, a digit separator
  or a NaN;
- ``help/<command>``: the exit code and stdout of ``dynlocrep --help`` (``root``)
  and of each command's ``--help``.

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


def _loss_fields(loss: str, tau: float, points, labels) -> dict:
    """One ``loss_with_gradient`` call on ``points`` and ``labels``, with half
    the other rows as neighbors: its value, gradient bytes and ``weighted``."""
    from dynlocrep import EmbeddingBatch, LossConfig, loss_with_gradient

    n = len(points)
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


def _loss_batch(n: int):
    """The n-row points and labels of the ``loss/`` and ``forward/`` cases."""
    import numpy as np

    rng = np.random.default_rng(n)
    points = rng.normal(size=(n, 8))
    points[n // 2] = 0.0  # an all-zero embedding row
    labels = rng.integers(20, 20 + max(2, n // 4), size=n).astype(float)  # tied labels
    return points, labels


def _loss_case(loss: str, n: int, tau: float) -> Callable[[], dict]:
    def run() -> dict:
        return _loss_fields(loss, tau, *_loss_batch(n))

    return run


def _forward_case(loss: str, n: int) -> Callable[[], dict]:
    """``dynlocrep_forward`` or ``baseline_forward`` at temperature 0.5 on the
    ``loss/`` batch, its pieces built by the public functions as the step
    builds them: half the other rows as manhattan neighbors in embedding
    space, the default kernel, the labels for rnc."""

    def run() -> dict:
        from dynlocrep import (KernelSpec, baseline_forward, distance_matrix, dynlocrep_forward,
                               l2_normalize, positiveness_matrix, select_neighbors,
                               similarity_matrix)

        points, labels = _loss_batch(n)
        unit = l2_normalize(points)
        sim = similarity_matrix(unit, 0.5)
        if loss == "rnc":
            value = baseline_forward(loss, sim, labels=labels)
        elif loss == "dynlocrep":
            neighbors = select_neighbors(distance_matrix(unit, "manhattan"), max(1, n // 2))
            value = dynlocrep_forward(sim, positiveness_matrix(labels, KernelSpec()), neighbors)
        else:
            value = baseline_forward(loss, sim, positiveness_matrix(labels, KernelSpec()))
        return {"value": float(value).hex()}

    return run


def _light_case(loss: str, dropped: bool) -> Callable[[], dict]:
    """8 rows at temperature 0.5 where kernel weights (bandwidth 6) fall
    below WEIGHT_SUM_EPS without reaching 0: a label 60 units, 10
    bandwidths, from every other gives its anchor weights of at most
    exp(-50). Only the last row's label is that far (``underflow``), or
    every row's (``dropped``), which leaves no weighted pair."""

    def run() -> dict:
        import numpy as np

        points = np.random.default_rng(8).normal(size=(8, 8))
        labels = np.array([20.0, 21.0, 21.0, 22.0, 23.0, 23.0, 24.0, 84.0])
        return _loss_fields(loss, 0.5, points, 60.0 * np.arange(8.0) if dropped else labels)

    return run


def _encoder_case(n: int) -> Callable[[], dict]:
    def run() -> dict:
        import numpy as np

        from dynlocrep import EncoderConfig, init_encoder

        rng = np.random.default_rng(16)
        features, grad_raw = rng.normal(size=(10_000, 16)), rng.normal(size=(10_000, 32))
        encoder = init_encoder(EncoderConfig(input_dim=16), seed=0)
        unit = encoder.forward(features[:n]).unit
        return {"unit": _digest(unit), "grad": _digest(encoder.backward(grad_raw[:n]))}

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


def _cli(argv: list[str]) -> tuple[int, str, str, dict | None]:
    """``dynlocrep argv --out <file>``: its exit code, its stdout with the
    temp directory read as ``{tmp}`` (captured, since ``_emit`` owns this
    process's stdout), its stderr and the report it wrote, if any."""
    import contextlib
    import tempfile

    from dynlocrep.cli import main

    with tempfile.TemporaryDirectory() as tmp:
        out, stdout, err = Path(tmp) / "report.json", io.StringIO(), io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(stdout):
            code = main([*argv, "--out", str(out)])
        report = json.loads(out.read_text()) if out.exists() else None
        return code, stdout.getvalue().replace(tmp, "{tmp}"), err.getvalue(), report


def _report(command: str, entries: str) -> Callable[[], dict]:
    """``dynlocrep command`` on 80 synthetic rows, two seeds and 6 epochs:
    its exit code, its stdout, the digest of its report outside ``timing``,
    and the mean MAE of each of the report's ``entries``."""

    def run() -> dict:
        from dynlocrep.evaluation import strip_timing

        code, stdout, _, report = _cli(
            [command, "--synthetic-n", "80", "--seeds", "0,1", "--epochs", "6",
             "--batch-size", "8", "--nn-final", "3", "--hidden-dims", "8,8", "--embed-dim", "4"]
        )
        text = json.dumps(strip_timing(report), sort_keys=True)
        fields = {"exit": str(code), "stdout": stdout,
                  "report": hashlib.sha256(text.encode()).hexdigest()}
        for name, entry in report[entries].items():
            fields[f"mae/{name}"] = float(entry["mean_mae"]).hex()
        return fields

    return run


def _grid_error() -> dict:
    import warnings

    warnings.simplefilter("ignore")  # an overflow warning would name its tree's file
    code, _, err, report = _cli(
        ["benchmark", "--variants", "rnc,yaware", "--synthetic-n", "80", "--seeds", "0,1",
         "--epochs", "2", "--batch-size", "8", "--nn-final", "3", "--hidden-dims", "8,8",
         "--embed-dim", "4", "--lr", "1e100"]
    )
    return {"exit": str(code), "stderr": err, "wrote_report": str(report is not None)}


def _artifacts(*commands: list[str]) -> Callable[[], dict]:
    """``dynlocrep`` with each argv in turn, ``{tmp}`` naming one fresh
    directory: the last exit code, and the name and sha256 of every file
    left in that directory. Stdout is dropped: ``_emit`` owns stdout."""

    def run() -> dict:
        import contextlib
        import tempfile

        from dynlocrep.cli import main

        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
            for argv in commands:
                code = main([arg.format(tmp=tmp) for arg in argv])
            files = sorted(path for path in Path(tmp).rglob("*") if path.is_file())
            fields = {"exit": str(code), "files": " ".join(str(f.relative_to(tmp)) for f in files)}
            for path in files:
                fields[str(path.relative_to(tmp))] = hashlib.sha256(path.read_bytes()).hexdigest()
        return fields

    return run


# each edits a data row (``id,y,...``) into one holding a defect; ``first``
# is the first data row
DEFECTS: dict[str, Callable[[str, str], str]] = {
    "short-row": lambda row, first: row.rsplit(",", 1)[0],
    "first-block-id": lambda row, first: f"{first.partition(',')[0]},{row.partition(',')[2]}",
    "non-numeric": lambda row, first: row.replace(",", ",zebra", 1),
    "digit-separator": lambda row, first: row.replace(",", ",1_", 1),  # float() reads "1_25.3"
    "nan": lambda row, first: "{},nan,{}".format(*row.split(",", 2)[::2]),  # the label
}


def _load_error(defect: str) -> Callable[[], dict]:
    def run() -> dict:
        import contextlib
        import tempfile

        from dynlocrep.cli import main

        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
            data, err = Path(tmp) / "data.csv", io.StringIO()
            main(["generate", "--n", "2000", "--out", str(data)])
            lines = data.read_text().splitlines()
            lines[1900] = DEFECTS[defect](lines[1900], lines[1])
            data.write_text("\n".join(lines) + "\n")
            with contextlib.redirect_stderr(err):
                code = main(["train", "--data", str(data), "--out-dir", f"{tmp}/run"])
        return {"exit": str(code), "stderr": err.getvalue().replace(tmp, "{tmp}")}

    return run


def _help(argv: list[str]) -> Callable[[], dict]:
    def run() -> dict:
        import contextlib

        from dynlocrep.cli import main

        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main([*argv, "--help"])
        return {"exit": str(code), "stdout": out.getvalue()}

    return run


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
    for n in (2, 32, 256):
        for loss in LOSSES:
            found[f"forward/{loss}/n{n}"] = _forward_case(loss, n)
    for loss in LOSSES[:4]:  # the kernel-weighted losses
        found[f"loss/{loss}/underflow"] = _light_case(loss, False)
        found[f"loss/{loss}/dropped"] = _light_case(loss, True)
    for n in (1, 2, 64, 65, 256, 257, 400, 1025, 10_000):
        found[f"encoder/n{n}"] = _encoder_case(n)
    found["criterion8"] = _criterion_8
    found["criterion9"] = _report("ablate", "norms")
    found["benchmark-report"] = _report("benchmark", "variants")
    found["grid-error"] = _grid_error
    found["generate"] = _artifacts(["generate", "--n", "10000", "--out", "{tmp}/data.csv"])
    generate = ["generate", "--n", "2000", "--out", "{tmp}/data.csv"]
    train = ["train", "--data", "{tmp}/data.csv", "--out-dir", "{tmp}/run"]
    two = ["--epochs", "2", "--export-epochs", "1,2"]
    found["train-export"] = _artifacts(generate, [*train, *two])
    for loss in LOSSES[1:]:
        found[f"train-export/{loss}"] = _artifacts(generate, [*train, "--loss", loss, *two])
    found["train-export/epochs3"] = _artifacts(
        generate, [*train, "--epochs", "3", "--export-epochs", "1,2,3"]
    )
    found["train-export/sparse"] = _artifacts(
        generate, [*train, "--epochs", "4", "--export-epochs", "1,3"]
    )
    found["train-export/final-only"] = _artifacts(
        generate, [*train, "--epochs", "2", "--export-epochs", "2"]
    )
    for norm in ("manhattan", "euclidean", "chebyshev", "cosine"):
        for space in ("embedding", "input"):
            found[f"train-export/norm/{norm}/{space}"] = _artifacts(
                generate, [*train, *two, "--distance-norm", norm, "--nn-space", space]
            )
    for defect in DEFECTS:
        found[f"load-error/{defect}"] = _load_error(defect)
    found["help/root"] = _help([])
    for command in ("generate", "train", "benchmark", "ablate"):
        found[f"help/{command}"] = _help([command])
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
