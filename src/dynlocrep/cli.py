"""Command-line entry point: generate, train, benchmark, ablate.

Flags may also be supplied through a flat ``key = value`` config file
(``--config``); explicit flags override file values. argparse resolves
``--config`` like any other flag, so an unambiguous prefix such as
``--conf`` works, and argv errors are reported before the file is read.
File keys must still name a long flag exactly. Exit codes: 0
success, 2 refusal to overwrite, 64 usage or configuration error, 66
input file (dataset or ``--config``) missing or unreadable, 70 numerical
failure, 73 any other operating-system error, such as an output location
that cannot be created or written. The
output directory, or the parent of ``--out``, is created before anything
is generated, trained or benchmarked, so such a location fails at once; a
command that fails removes the directories it made.

argparse only parses: ints, floats and comma lists. The library configs
(``TrainConfig``, ``OptimConfig``, ``EncoderConfig``, ``SyntheticSpec``
and the rest) check every range, and they check the effective value, the
file's value overridden by flags with the last flag winning; a value that
is overridden or unused is not checked. Three flags keep a check of their
own, on every occurrence: ``--epochs`` >= 1 (the library accepts 0
epochs), ``--nn-final`` >= 1 and ``--seeds`` >= 0. Every flag default
that a library config declares comes from that config's class attribute.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import enum
import json
import sys
from pathlib import Path

from .data import Dataset, SyntheticSpec, generate_synthetic, load_csv, write_csv
from .data import _table_lines, _write_lines_atomic
from .encoder import EncoderConfig, OptimConfig, save_checkpoint
from .errors import ConfigError, DynLocRepError, NumericalError, ParseError
from .evaluation import RidgeConfig, ablate_norms, benchmark
from .geometry import DistanceNorm
from .kernels import KernelSpec
from .losses import LossVariant, NeighborSpace, Reduction
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


def _add_training_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--epochs", type=_positive_int, default=TrainConfig.epochs,
                        help="training epochs")
    parser.add_argument("--batch-size", type=int, default=TrainConfig.batch_size,
                        help="samples per batch")
    parser.add_argument("--lr", type=float, default=OptimConfig.learning_rate,
                        help="initial learning rate")
    parser.add_argument("--lr-decay", type=float, default=OptimConfig.decay_factor,
                        help="learning-rate decay factor")
    parser.add_argument("--lr-decay-every", type=int, default=OptimConfig.decay_every,
                        help="epochs between decays")
    parser.add_argument("--weight-decay", type=float, default=OptimConfig.weight_decay,
                        help="L2 weight decay")
    parser.add_argument("--kernel-sigma", type=float, default=TrainConfig.kernel.bandwidth,
                        help="gaussian kernel bandwidth in label units")
    parser.add_argument("--temperature", type=float, default=TrainConfig.temperature,
                        help="similarity temperature")
    parser.add_argument("--nn-final", type=_positive_int, default=TrainConfig.nn_final,
                        help="final neighbor count of the schedule")
    parser.add_argument("--nn-step-size", type=int, default=TrainConfig.nn_step_size,
                        help="epochs between schedule steps")
    parser.add_argument("--nn-space", choices=[s.value for s in NeighborSpace],
                        default=TrainConfig.nn_space.value,
                        help="space in which neighbors are selected")
    parser.add_argument("--reduction", choices=[r.value for r in Reduction],
                        default=TrainConfig.reduction.value,
                        help="loss reduction over anchors")
    parser.add_argument("--hidden-dims", type=_list(int), default=list(EncoderConfig.hidden_dims),
                        help="encoder hidden widths")
    parser.add_argument("--embed-dim", type=int, default=EncoderConfig.output_dim,
                        help="encoder output dimension")


def _add_dataset_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--data", default=None, metavar="CSV", help="input dataset; omit to use synthetic data"
    )
    parser.add_argument(
        "--synthetic-n", type=int, default=500, help="synthetic dataset size when --data is omitted"
    )
    parser.add_argument("--data-seed", type=int, default=0, help="synthetic dataset seed")


def _add_protocol_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--seeds", type=_seed_list, default=[0, 1, 2, 3, 4], help="comma-separated run seeds"
    )
    parser.add_argument(
        "--test-fraction", type=float, default=0.2, help="held-out fraction per split"
    )
    parser.add_argument("--ridge-lambda", type=float, default=RidgeConfig.regularization,
                        help="ridge regularization")


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
    gen.add_argument("--feature-dim", type=int, default=SyntheticSpec.feature_dim,
                     help="feature count")
    gen.add_argument("--informative-dims", type=int, default=SyntheticSpec.informative_dims,
                     help="label-dependent feature count")
    gen.add_argument("--noise-std", type=float, default=SyntheticSpec.noise_std,
                     help="observation noise on informative features")
    gen.add_argument("--mix-means", type=_list(float), default=list(SyntheticSpec.mixture_means),
                     help="label component means")
    gen.add_argument("--mix-stds", type=_list(float), default=list(SyntheticSpec.mixture_stds),
                     help="label component stds")
    gen.add_argument("--mix-weights", type=_list(float),
                     default=list(SyntheticSpec.mixture_weights),
                     help="label component weights (sum to 1)")

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
    _add_training_flags(tr)

    bm = command(
        "benchmark",
        _cmd_benchmark,
        help="compare loss variants across seeds",
        description=(
            "Train every requested variant across seeds, score ridge-readout MAE on held-out "
            "splits, and write a JSON report including raw-feature and untrained-encoder "
            "baselines."
        ),
    )
    _add_dataset_flags(bm)
    _add_protocol_flags(bm)
    bm.add_argument(
        "--variants",
        type=_list(LossVariant),
        default=_VARIANT_NAMES,
        help="comma-separated loss variants",
    )
    bm.add_argument(
        "--distance-norm",
        choices=_NORM_NAMES,
        default=TrainConfig.distance_norm.value,
        help="neighbor-selection distance norm for the localized loss",
    )
    bm.add_argument(
        "--out", default="benchmark_report.json", metavar="JSON", help="report path"
    )
    _add_training_flags(bm)

    ab = command(
        "ablate",
        _cmd_ablate,
        help="sweep neighbor-selection distance norms",
        description=(
            "Fix the localized loss and sweep the neighbor-selection distance norm, "
            "reporting per-norm MAE next to published reference values."
        ),
    )
    _add_dataset_flags(ab)
    _add_protocol_flags(ab)
    ab.add_argument(
        "--norms",
        type=_list(DistanceNorm),
        default=_NORM_NAMES,
        help="comma-separated distance norms",
    )
    ab.add_argument(
        "--out", default="ablation_report.json", metavar="JSON", help="report path"
    )
    _add_training_flags(ab)

    return parser, commands


class _UnreadableInput(Exception):
    """An input file that is missing or cannot be read (exit 66)."""


def _read_input(what: str, path: str | Path, read):
    """``read(path)``, with any OS error it raises reported as an
    unreadable input: every input is read before the first output is
    made, so the input side is known here."""
    try:
        return read(Path(path))
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


def _load_dataset(args: argparse.Namespace) -> tuple:
    if args.data is not None:
        return _read_input("dataset", args.data, load_csv), str(Path(args.data))
    spec = SyntheticSpec(n=args.synthetic_n)
    return generate_synthetic(spec, args.data_seed), f"synthetic(n={spec.n}, seed={args.data_seed})"


def _train_config(args: argparse.Namespace, **fields) -> TrainConfig:
    """The shared training flags; ``fields`` sets the command-specific rest."""
    return TrainConfig(
        epochs=args.epochs,
        batch_size=args.batch_size,
        kernel=KernelSpec(bandwidth=args.kernel_sigma),
        nn_final=args.nn_final,
        nn_step_size=args.nn_step_size,
        temperature=args.temperature,
        nn_space=args.nn_space,
        reduction=args.reduction,
        **fields,
    )


def _optim_config(args: argparse.Namespace) -> OptimConfig:
    return OptimConfig(
        learning_rate=args.lr,
        decay_factor=args.lr_decay,
        decay_every=args.lr_decay_every,
        weight_decay=args.weight_decay,
    )


def _encoder_config(args: argparse.Namespace, input_dim: int) -> EncoderConfig:
    return EncoderConfig(
        input_dim=input_dim,
        hidden_dims=args.hidden_dims,
        output_dim=args.embed_dim,
    )


@contextlib.contextmanager
def _output_dir(path: Path):
    """Create directory ``path`` and its missing parents before the work
    that writes into it, so that an unusable location fails before any
    work. If the work fails, the directories made here that are still
    empty are removed again: a failed command leaves no artifact."""
    made = [p for p in (path, *path.parents) if not p.exists()]
    path.mkdir(parents=True, exist_ok=True)
    try:
        yield
    except BaseException:
        for directory in made:
            with contextlib.suppress(OSError):
                directory.rmdir()
        raise


def _cmd_generate(args: argparse.Namespace) -> int:
    out = Path(_require("generate", args, "out", "--out"))
    if out.exists() and not args.force:
        print(f"refusing to overwrite {out}; pass --force to replace it", file=sys.stderr)
        return EXIT_OVERWRITE
    spec = SyntheticSpec(
        n=args.n,
        feature_dim=args.feature_dim,
        mixture_means=args.mix_means,
        mixture_stds=args.mix_stds,
        mixture_weights=args.mix_weights,
        informative_dims=args.informative_dims,
        noise_std=args.noise_std,
    )
    with _output_dir(out.parent):
        dataset = generate_synthetic(spec, args.seed)
        write_csv(dataset, out)
    print(f"wrote {dataset.n} samples x {dataset.feature_dim} features to {out}")
    return EXIT_OK


def _write_embedding_export(path: Path, epoch: int, ids, labels, embeddings) -> None:
    header = "epoch,id,y," + ",".join(f"z{j}" for j in range(embeddings.shape[1]))
    lead = (f"{epoch},{i},{y!r}" for i, y in zip(ids, labels.tolist()))
    _write_lines_atomic(path, _table_lines(header, lead, embeddings))


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
    optim, encoder_config = _optim_config(args), _encoder_config(args, dataset.feature_dim)
    trace_path = out_dir / "trace.jsonl"
    checkpoint_path = out_dir / "encoder.txt"
    with _output_dir(out_dir):
        result = train(dataset, config, optim, encoder_config)
        _write_lines_atomic(trace_path, map(json.dumps, result.trace))
        save_checkpoint(result.encoder, checkpoint_path)
        for epoch, embeddings in sorted(result.exports.items()):
            export = out_dir / f"embeddings_epoch{epoch}.csv"
            _write_embedding_export(export, epoch, dataset.ids, dataset.labels, embeddings)
    final_loss = result.trace[-1]["mean_loss"] if result.trace else float("nan")
    print(f"trained {config.variant.value} for {config.epochs} epochs on {dataset.n} samples")
    print(f"final mean batch loss {final_loss:.6f}")
    print(f"artifacts: {checkpoint_path}, {trace_path}" + (
        f", {len(result.exports)} embedding export(s)" if result.exports else ""
    ))
    return EXIT_OK


def _protocol_configs(args: argparse.Namespace, dataset: Dataset, source: str) -> dict:
    """Keyword arguments shared by the benchmark and ablation runners."""
    return dict(
        optim=_optim_config(args),
        encoder_config=_encoder_config(args, dataset.feature_dim),
        ridge=RidgeConfig(regularization=args.ridge_lambda),
        test_fraction=args.test_fraction,
        dataset_source=source,
    )


def _summarize(entries: dict, label: str) -> None:
    for name, entry in entries.items():
        print(f"  {label} {name}: MAE {entry['mean_mae']:.4f} +- {entry['std_mae']:.4f}")


def _write_report(
    args: argparse.Namespace, report: dict, title: str, entries_key: str, label: str
) -> int:
    """Write the report to --out and print its per-entry MAE summary."""
    out = Path(args.out)
    _write_lines_atomic(out, [json.dumps(report, indent=2)])
    print(f"{title} over seeds {args.seeds} on {report['dataset']['source']}")
    _summarize(report[entries_key], label)
    _summarize(report["baselines"], "baseline")
    print(f"report written to {out}")
    return EXIT_OK


def _cmd_benchmark(args: argparse.Namespace) -> int:
    dataset, source = _load_dataset(args)
    config = _train_config(args, distance_norm=args.distance_norm)
    protocol = _protocol_configs(args, dataset, source)
    with _output_dir(Path(args.out).parent):
        report = benchmark(dataset, args.variants, args.seeds, config, **protocol)
        return _write_report(args, report, "benchmark", "variants", "variant")


def _cmd_ablate(args: argparse.Namespace) -> int:
    dataset, source = _load_dataset(args)
    config, protocol = _train_config(args), _protocol_configs(args, dataset, source)
    with _output_dir(Path(args.out).parent):
        report = ablate_norms(dataset, args.norms, args.seeds, config, **protocol)
        return _write_report(args, report, "distance-norm ablation", "norms", "norm")


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
