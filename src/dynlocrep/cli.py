"""Command-line entry point: ``generate``, ``train``, and one sweep over
seeds, of the loss variant (``benchmark``) or of the neighbor-selection
distance norm (``ablate``), each a row of ``_SWEEPS`` run by ``_cmd_sweep``.

Flags may also be supplied through a flat ``key = value`` config file
(``--config``); explicit flags override file values. argparse resolves
``--config`` like any other flag, so an unambiguous prefix such as
``--conf`` works, and argv errors are reported before the file is read.
File keys must still name a long flag exactly. Exit codes: 0
success, 2 refusal to overwrite, 64 usage or configuration error, 66
input file (dataset or ``--config``) missing or unreadable, 70 numerical
failure, 73 any other operating-system error, such as an output location
that cannot be created or written (an ``--out`` that names a directory
among them), or a worker process that died, the dataset reader's
included. The output directory, or the parent of ``--out``, is created
before anything is generated, trained or benchmarked, so such a location
fails at once; a command that fails removes the files it wrote, then the
directories it made.

argparse only parses: ints, floats and comma lists. The library configs
(``TrainConfig``, ``OptimConfig``, ``EncoderConfig``, ``SyntheticSpec``
and the rest) check every range, and they check the effective value, the
file's value overridden by flags with the last flag winning; a value that
is overridden or unused is not checked. Three flags keep a check of their
own, on every occurrence: ``--epochs`` >= 1 (the library accepts 0
epochs), ``--nn-final`` >= 1 and ``--seeds`` >= 0. Every flag default
that a library config declares comes from that config's class attribute:
such a flag is one row of ``_CONFIG_FLAGS``, which gives both its parser
entry and the config field it sets.
"""

from __future__ import annotations

import argparse
import collections
import configparser
import contextlib
import enum
import json
import os
import sys
from pathlib import Path

from .data import SyntheticSpec, generate_synthetic, load_csv, write_csv
from .data import _table_file, _temp_name, _write_lines_atomic
from .encoder import EncoderConfig, OptimConfig, save_checkpoint
from .errors import ConfigError, DynLocRepError, NumericalError, ParseError
from .evaluation import RidgeConfig, ablate_norms, benchmark  # noqa: F401 (see _Sweep)
from .geometry import DistanceNorm
from .kernels import KernelSpec
from .losses import LossVariant
from .training import TrainConfig, train

EXIT_OK = 0
EXIT_OVERWRITE = 2
EXIT_USAGE = 64
EXIT_MISSING_INPUT = 66
EXIT_NUMERICAL = 70
EXIT_CANT_CREATE = 73

PROG = "dynlocrep"

_VARIANT_NAMES = [v.value for v in LossVariant]
_NORM_NAMES = [n.value for n in DistanceNorm]


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped to exit code 64."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _formatter(prog):
    return argparse.ArgumentDefaultsHelpFormatter(prog, width=96)


def _positive_int(text: str) -> int:
    """An int >= 1, checked at the flag because the library accepts 0 epochs
    and because every --nn-final occurrence must be >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _list(convert):
    """Comma-separated values, each passed through ``convert``; an empty text
    gives []. An enum ``convert`` lists its valid names when one is unknown."""

    def parse(text: str) -> list:
        if not text.strip():
            return []
        values = []
        for token in (tok.strip() for tok in text.split(",")):
            try:
                values.append(convert(token))
            except ValueError:
                choices = ""
                if isinstance(convert, enum.EnumMeta):
                    choices = f"; choose from {', '.join(member.value for member in convert)}"
                raise argparse.ArgumentTypeError(
                    f"invalid {convert.__name__} {token!r}{choices}"
                ) from None
        return values

    return parse


def _seed_list(text: str) -> list[int]:
    seeds = _list(int)(text)
    if seeds and min(seeds) < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {min(seeds)}")
    return seeds


# Each flag that sets a field with a library default: (flag, config class,
# field, argparse type, help). The parser entry and the config's keyword
# argument both come from its row, so the default is the field's class
# default, an enum field takes its members' values and a tuple shows as a list.
_CONFIG_FLAGS = (
    ("--feature-dim", SyntheticSpec, "feature_dim", int, "feature count"),
    ("--informative-dims", SyntheticSpec, "informative_dims", int, "label-dependent feature count"),
    ("--noise-std", SyntheticSpec, "noise_std", float, "observation noise on informative features"),
    ("--mix-means", SyntheticSpec, "mixture_means", _list(float), "label component means"),
    ("--mix-stds", SyntheticSpec, "mixture_stds", _list(float), "label component stds"),
    ("--mix-weights", SyntheticSpec, "mixture_weights", _list(float),
     "label component weights (sum to 1)"),
    ("--ridge-lambda", RidgeConfig, "regularization", float, "ridge regularization"),
    ("--epochs", TrainConfig, "epochs", _positive_int, "training epochs"),
    ("--batch-size", TrainConfig, "batch_size", int, "samples per batch"),
    ("--lr", OptimConfig, "learning_rate", float, "initial learning rate"),
    ("--lr-decay", OptimConfig, "decay_factor", float, "learning-rate decay factor"),
    ("--lr-decay-every", OptimConfig, "decay_every", int, "epochs between decays"),
    ("--weight-decay", OptimConfig, "weight_decay", float, "L2 weight decay"),
    ("--kernel-sigma", KernelSpec, "bandwidth", float, "gaussian kernel bandwidth in label units"),
    ("--temperature", TrainConfig, "temperature", float, "similarity temperature"),
    ("--nn-final", TrainConfig, "nn_final", _positive_int, "final neighbor count of the schedule"),
    ("--nn-step-size", TrainConfig, "nn_step_size", int, "epochs between schedule steps"),
    ("--nn-space", TrainConfig, "nn_space", str, "space in which neighbors are selected"),
    ("--reduction", TrainConfig, "reduction", str, "loss reduction over anchors"),
    ("--hidden-dims", EncoderConfig, "hidden_dims", _list(int), "encoder hidden widths"),
    ("--embed-dim", EncoderConfig, "output_dim", int, "encoder output dimension"),
)
_TRAINING_CONFIGS = (TrainConfig, OptimConfig, KernelSpec, EncoderConfig)


def _add_config_flags(parser: argparse.ArgumentParser, *configs: type) -> None:
    """Add the table's flags of the ``configs`` classes, in table order."""
    for flag, config, field, kind, help in _CONFIG_FLAGS:
        if config not in configs:
            continue
        default, choices = getattr(config, field), None
        if isinstance(default, enum.Enum):
            default, choices = default.value, [member.value for member in type(default)]
        elif isinstance(default, tuple):
            default = list(default)
        parser.add_argument(flag, type=kind, choices=choices, default=default, help=help)


def _fields(args: argparse.Namespace, config: type) -> dict:
    """The keyword arguments of ``config`` that the table's flags set."""
    return {
        field: getattr(args, flag[2:].replace("-", "_"))
        for flag, owner, field, _, _ in _CONFIG_FLAGS
        if owner is config
    }


# What sets one sweep over seeds apart from the other. The swept flag's name
# is also its namespace field and the report's entry key. ``runner`` names the
# library function, looked up in this module's globals when the command runs,
# not bound here, so that a rebinding of that name (a tracer's) is seen.
_Sweep = collections.namedtuple(
    "_Sweep", "help description flag kind flag_help takes_distance_norm out title label runner"
)
_SWEEPS = {
    "benchmark": _Sweep(
        "compare loss variants across seeds",
        "Train every requested variant across seeds, score ridge-readout MAE on held-out "
        "splits, and write a JSON report including raw-feature and untrained-encoder baselines.",
        "--variants", LossVariant, "comma-separated loss variants", True,
        "benchmark_report.json", "benchmark", "variant", "benchmark",
    ),
    "ablate": _Sweep(
        "sweep neighbor-selection distance norms",
        "Fix the localized loss and sweep the neighbor-selection distance norm, "
        "reporting per-norm MAE next to published reference values.",
        "--norms", DistanceNorm, "comma-separated distance norms", False,
        "ablation_report.json", "distance-norm ablation", "norm", "ablate_norms",
    ),
}


def build_parser() -> tuple[_Parser, dict[str, _Parser]]:
    parser = _Parser(
        prog=PROG,
        description=(
            "Contrastive regression with dynamic localized repulsion: data generation, "
            "encoder training, benchmarking, and the distance-norm ablation."
        ),
        formatter_class=_formatter,
    )
    subparsers = parser.add_subparsers(dest="command", metavar="COMMAND")
    commands: dict[str, _Parser] = {}

    def command(name: str, handler, *, help: str, description: str) -> _Parser:
        """Register subcommand ``name``, run by ``handler``, with the
        ``--config`` flag that every command takes."""
        sub = subparsers.add_parser(
            name, help=help, description=description, formatter_class=_formatter
        )
        sub.add_argument(
            "--config",
            default=None,
            metavar="FILE",
            help="flat 'key = value' config file; explicit flags override it",
        )
        sub.set_defaults(handler=handler)
        commands[name] = sub
        return sub

    gen = command(
        "generate",
        _cmd_generate,
        help="write a synthetic dataset CSV",
        description="Generate a bimodal synthetic regression dataset and write it as CSV.",
    )
    gen.add_argument("--n", type=int, default=500, help="number of samples")
    gen.add_argument("--seed", type=int, default=0, help="generator seed")
    gen.add_argument("--out", default=None, metavar="CSV", help="output path (required)")
    gen.add_argument(
        "--force", action="store_true", help="overwrite an existing output file"
    )
    _add_config_flags(gen, SyntheticSpec)

    tr = command(
        "train",
        _cmd_train,
        help="train an encoder on a dataset CSV",
        description=(
            "Train the encoder with a contrastive regression loss; writes a checkpoint, "
            "a JSONL trace, and optional embedding exports under --out-dir."
        ),
    )
    tr.add_argument("--data", default=None, metavar="CSV", help="input dataset (required)")
    tr.add_argument("--out-dir", default=None, metavar="DIR", help="artifact directory (required)")
    tr.add_argument(
        "--loss", choices=_VARIANT_NAMES, default=TrainConfig.variant.value, help="loss variant"
    )
    tr.add_argument("--seed", type=int, default=TrainConfig.seed, help="run seed")
    tr.add_argument(
        "--distance-norm",
        choices=_NORM_NAMES,
        default=TrainConfig.distance_norm.value,
        help="neighbor-selection distance norm",
    )
    tr.add_argument(
        "--export-epochs",
        type=_list(int),
        default=list(TrainConfig.export_epochs),
        help="1-based epochs after which to export train-set embeddings (e.g. 1,6,21,30,40,50)",
    )
    _add_config_flags(tr, *_TRAINING_CONFIGS)

    for name, sweep in _SWEEPS.items():
        sw = command(name, _cmd_sweep, help=sweep.help, description=sweep.description)
        sw.add_argument("--data", metavar="CSV", help="input dataset; omit to use synthetic data")
        sw.add_argument(
            "--synthetic-n", type=int, default=500,
            help="synthetic dataset size when --data is omitted",
        )
        sw.add_argument("--data-seed", type=int, default=0, help="synthetic dataset seed")
        sw.add_argument(
            "--seeds", type=_seed_list, default=[0, 1, 2, 3, 4], help="comma-separated run seeds"
        )
        sw.add_argument(
            "--test-fraction", type=float, default=0.2, help="held-out fraction per split"
        )
        _add_config_flags(sw, RidgeConfig)
        names = [member.value for member in sweep.kind]
        sw.add_argument(sweep.flag, type=_list(sweep.kind), default=names, help=sweep.flag_help)
        if sweep.takes_distance_norm:
            sw.add_argument(
                "--distance-norm", choices=_NORM_NAMES, default=TrainConfig.distance_norm.value,
                help="neighbor-selection distance norm for the localized loss",
            )
        sw.add_argument("--out", default=sweep.out, metavar="JSON", help="report path")
        _add_config_flags(sw, *_TRAINING_CONFIGS)

    return parser, commands


class _UnreadableInput(Exception):
    """An input file that is missing or cannot be read (exit 66)."""


def _read_input(what: str, path: str | Path, read):
    """``read(path)``, with any OS error it raises reported as an
    unreadable input: every input is read before the first output is
    made, so the input side is known here. A worker of the read that died
    is no fault of the input: its ChildProcessError goes on (exit 73)."""
    try:
        return read(Path(path))
    except ChildProcessError:
        raise
    except OSError as exc:
        raise _UnreadableInput(f"cannot read {what} {path}: {exc.strerror or exc}") from None


def read_config_file(path: str | Path) -> dict[str, str]:
    """Parse a flat ``key = value`` file with ``#`` comments."""
    path = Path(path)
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"{path}: line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ParseError(f"{path}: line {lineno}: empty key")
        if key in entries:
            raise ParseError(f"{path}: line {lineno}: duplicate key {key!r}")
        entries[key] = value
    return entries


def _config_tokens(argv: list[str], args: argparse.Namespace) -> list[str]:
    """Return argv with the config file named by ``args.config`` spliced in.

    ``args`` is argv as argparse parsed it, which has already resolved
    ``--config`` like any other flag. Each ``key = value`` entry becomes a
    ``--key=value`` token right after the command name, so argparse parses
    file values like flags, and its last-wins rule lets explicit flags
    override them. Keys must name a long flag of the command exactly
    (argparse alone would accept 'epoch' for --epochs): the valid keys are
    the namespace's destinations with '_' read as '-'. A switch, whose
    value is a bool, takes a boolean and becomes the bare flag or nothing.
    """
    flags = {
        dest.replace("_", "-"): isinstance(value, bool)
        for dest, value in vars(args).items()
        if dest not in ("command", "handler", "config")
    }
    tokens = []
    for key, text in _read_input("config file", args.config, read_config_file).items():
        if key not in flags:
            raise ConfigError(f"unknown config key {key!r} for command {args.command!r}")
        if not flags[key]:
            tokens.append(f"--{key}={text}")
            continue
        switch = configparser.ConfigParser.BOOLEAN_STATES.get(text.lower())
        if switch is None:
            raise ConfigError(f"config key {key!r} expects a boolean, got {text!r}")
        if switch:
            tokens.append(f"--{key}")
    at = argv.index(args.command) + 1
    return [*argv[:at], *tokens, *argv[at:]]


def _require(parser_name: str, args: argparse.Namespace, attr: str, flag: str):
    value = getattr(args, attr)
    if value is None:
        raise ConfigError(f"{parser_name}: {flag} is required")
    return value


def _train_config(args: argparse.Namespace, **fields) -> TrainConfig:
    """The shared training flags; ``fields`` sets the command-specific rest."""
    kernel = KernelSpec(**_fields(args, KernelSpec))
    return TrainConfig(kernel=kernel, **_fields(args, TrainConfig), **fields)


def _out_file(text: str) -> Path:
    """``--out`` as the path of a file. One that names a directory (the empty
    path, ``.``, a trailing separator or an existing directory) is an output
    location that cannot be created, and fails before any work (exit 73)."""
    path = Path(text)
    if path.name in ("", "..") or text.endswith(os.sep) or path.is_dir():
        raise IsADirectoryError(f"--out {text!r} names a directory, not a file")
    return path


@contextlib.contextmanager
def _output_dir(path: Path):
    """Create directory ``path`` and its missing parents before the work
    that writes into it, so that an unusable location fails before any
    work, and yield ``stage``: ``stage(file)`` names the temp file that the
    work writes in place of ``file``. Once the work is done, every temp
    file is renamed to its file. If the work fails, the temp files are
    removed, then the directories made here that are then empty: a failed
    command leaves no artifact, and the files of an earlier run stay."""
    made = [p for p in (path, *path.parents) if not p.exists()]
    path.mkdir(parents=True, exist_ok=True)
    staged: dict[Path, Path] = {}

    def stage(file: Path) -> Path:
        staged[file] = _temp_name(file)
        return staged[file]

    try:
        yield stage
        for file, temp in staged.items():
            os.replace(temp, file)
    except BaseException:
        for temp in staged.values():
            with contextlib.suppress(OSError):
                temp.unlink()
        for directory in made:
            with contextlib.suppress(OSError):
                directory.rmdir()
        raise


def _cmd_generate(args: argparse.Namespace) -> int:
    out = _out_file(_require("generate", args, "out", "--out"))
    if out.exists() and not args.force:
        print(f"refusing to overwrite {out}; pass --force to replace it", file=sys.stderr)
        return EXIT_OVERWRITE
    spec = SyntheticSpec(n=args.n, **_fields(args, SyntheticSpec))
    with _output_dir(out.parent):
        dataset = generate_synthetic(spec, args.seed)
        write_csv(dataset, out)
    print(f"wrote {dataset.n} samples x {dataset.feature_dim} features to {out}")
    return EXIT_OK


def _export_table(epoch: int, ids, labels, embeddings) -> tuple:
    """The header, line prefix, ids, labels and matrix of an embedding export."""
    header = "epoch,id,y," + ",".join(f"z{j}" for j in range(embeddings.shape[1]))
    return header, f"{epoch},", ids, labels, embeddings


def _cmd_train(args: argparse.Namespace) -> int:
    data_path = _require("train", args, "data", "--data")
    out_dir = Path(_require("train", args, "out_dir", "--out-dir"))
    dataset = _read_input("dataset", data_path, load_csv)
    config = _train_config(
        args,
        seed=args.seed,
        variant=args.loss,
        distance_norm=args.distance_norm,
        export_epochs=args.export_epochs,
    )
    optim = OptimConfig(**_fields(args, OptimConfig))
    encoder_config = EncoderConfig(input_dim=dataset.feature_dim, **_fields(args, EncoderConfig))
    trace_path = out_dir / "trace.jsonl"
    checkpoint_path = out_dir / "encoder.txt"
    with _output_dir(out_dir) as stage, contextlib.ExitStack() as in_flight:

        def export(epoch: int, embeddings) -> None:
            """An export with epochs still to train is formatted by one
            worker while they train, once the export before it is written;
            one at the last epoch is written at once, in row blocks."""
            table = _export_table(epoch, dataset.ids, dataset.labels, embeddings)
            path = stage(out_dir / f"embeddings_epoch{epoch}.csv")
            if epoch < config.epochs:
                in_flight.close()
                in_flight.enter_context(_table_file(path, *table, overlapped=True))
            else:
                with _table_file(path, *table):
                    pass

        result = train(dataset, config, optim, encoder_config, _on_export=export)
        _write_lines_atomic(stage(trace_path), map(json.dumps, result.trace))
        save_checkpoint(result.encoder, stage(checkpoint_path))
    exports = len(set(config.export_epochs))
    final_loss = result.trace[-1]["mean_loss"] if result.trace else float("nan")
    print(f"trained {config.variant.value} for {config.epochs} epochs on {dataset.n} samples")
    print(f"final mean batch loss {final_loss:.6f}")
    print(f"artifacts: {checkpoint_path}, {trace_path}" + (
        f", {exports} embedding export(s)" if exports else ""
    ))
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    """Run the sweep over seeds of ``args.command``, write its report to
    --out and print each entry's MAE."""
    sweep = _SWEEPS[args.command]
    key = sweep.flag[2:]
    if args.data is not None:
        dataset, source = _read_input("dataset", args.data, load_csv), str(Path(args.data))
    else:
        dataset = generate_synthetic(SyntheticSpec(n=args.synthetic_n), args.data_seed)
        source = f"synthetic(n={args.synthetic_n}, seed={args.data_seed})"
    norm = {"distance_norm": args.distance_norm} if sweep.takes_distance_norm else {}
    config = _train_config(args, **norm)
    optim = OptimConfig(**_fields(args, OptimConfig))
    encoder_config = EncoderConfig(input_dim=dataset.feature_dim, **_fields(args, EncoderConfig))
    ridge = RidgeConfig(**_fields(args, RidgeConfig))
    out = _out_file(args.out)
    with _output_dir(out.parent):
        report = globals()[sweep.runner](
            dataset, getattr(args, key), args.seeds, config, optim, encoder_config, ridge,
            test_fraction=args.test_fraction, dataset_source=source,
        )
        _write_lines_atomic(out, [json.dumps(report, indent=2)])
    print(f"{sweep.title} over seeds {args.seeds} on {report['dataset']['source']}")
    for label, entries in ((sweep.label, report[key]), ("baseline", report["baselines"])):
        for name, entry in entries.items():
            print(f"  {label} {name}: MAE {entry['mean_mae']:.4f} +- {entry['std_mae']:.4f}")
    print(f"report written to {out}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        parser, _ = build_parser()
        args = parser.parse_args(argv)
        if getattr(args, "handler", None) is None:
            parser.print_help()
            return EXIT_USAGE
        if args.config is not None:
            args = parser.parse_args(_config_tokens(argv, args))
        return args.handler(args)
    except SystemExit as exc:  # argparse's exit: 0 after --help, EXIT_USAGE on an error
        return exc.code
    except _UnreadableInput as exc:
        print(f"{PROG}: error: {exc}", file=sys.stderr)
        return EXIT_MISSING_INPUT
    except OSError as exc:
        print(f"{PROG}: error: {exc}", file=sys.stderr)
        return EXIT_CANT_CREATE
    except NumericalError as exc:
        print(f"{PROG}: error: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except DynLocRepError as exc:
        print(f"{PROG}: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
