"""The command line keeps every name that perfbench's tracer rebinds: a
`train` and a `benchmark` run through `cli.main` record a span of each, and
the tracer puts every original back. A name bound once at import, such as a
library function stored in a table, would run untraced and blind the traced
benchmark rounds without failing any other test."""

import importlib.util
import sys
from pathlib import Path

from dynlocrep import SyntheticSpec, generate_synthetic, write_csv
from dynlocrep import cli

ROOT = Path(__file__).resolve().parent.parent
SPEC = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
tracing = importlib.util.module_from_spec(SPEC)
sys.modules[SPEC.name] = tracing  # dataclass(slots=True) looks its module up there
SPEC.loader.exec_module(tracing)

TINY = ["--epochs", "2", "--batch-size", "8", "--nn-final", "3", "--hidden-dims", "8",
        "--embed-dim", "4"]


def test_train_and_benchmark_reach_every_name_the_tracer_rebinds(tmp_path, cpus, capsys):
    cpus(1)  # the grid's trains run in this process, where the tracer records
    data = tmp_path / "data.csv"
    write_csv(generate_synthetic(SyntheticSpec(n=40, feature_dim=6, informative_dims=3), 0), data)
    sites, tracer = tracing.library_sites(), tracing.Tracer()
    tracer.install(sites)
    try:
        tracer.recording = True
        codes = [
            cli.main(["train", "--data", str(data), "--out-dir", str(tmp_path / "run"), *TINY]),
            cli.main(["benchmark", "--data", str(data), "--variants", "dynlocrep", "--seeds", "0",
                      "--out", str(tmp_path / "report.json"), *TINY]),
        ]
    finally:
        tracer.recording = False
        left = tracer.restore()
    assert codes == [cli.EXIT_OK, cli.EXIT_OK], capsys.readouterr().err
    assert left == []
    recorded = {span.name for span in tracer.spans}
    assert [name for name, *_ in sites if name not in recorded] == []
