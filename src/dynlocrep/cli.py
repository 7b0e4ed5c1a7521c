"""Command-line entry point: generate, train, benchmark, ablate.

Flags may also be supplied through a flat ``key = value`` config file
(``--config``); explicit flags override file values. Exit codes: 0
success, 2 refusal to overwrite, 64 usage or configuration error, 66
missing input file, 70 numerical failure, 73 any other operating-system
error, such as an output location that cannot be created or written. The
output directory, or the parent of ``--out``, is created before anything
is generated, trained or benchmarked, so such a location fails at once; a
command that fails removes the directories it made.

argparse only parses: ints, floats and comma lists. The library configs
(``TrainConfig``, ``OptimConfig``, ``EncoderConfig``, ``SyntheticSpec``
and the rest) check every range, and they check the effective value, the
file's value overridden by flags with the last flag winning; a value that
is overridden or unused is not checked. Three flags keep a check of their
own, on every occurrence: ``--epochs`` >= 1 (the library accepts 0
epochs), ``--nn-final`` >= 1 and ``--seeds`` >= 0.
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
from .data import _write_text_atomic
from .encoder import EncoderConfig, OptimConfig, save_checkpoint
from .errors import (
    ConfigError,
    DynLocRepError,
    InputError,
    NumericalError,
    ParseError,
)
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
    """argparse with usage errors mapped to exit code 64.

    Each parser also records its long flags, mapped to whether the flag is
    a switch, so that config-file keys can be matched exactly.
    """

    def __init__(self, *args, **kwargs):
        # set first: the base constructor adds --help through add_argument
        self.long_flags: dict[str, bool] = {}
        super().__init__(*args, **kwargs)

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        for option in action.option_strings:
            if option.startswith("--"):
                self.long_flags[option[2:]] = action.nargs == 0
        return action

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


def _add_config_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--config",
        default=None,
        metavar="FILE",
        help="flat 'key = value' config file; explicit flags override it",
    )


def _add_training_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--epochs", type=_positive_int, default=50, help="training epochs")
    parser.add_argument("--batch-size", type=int, default=32, help="samples per batch")
    parser.add_argument("--lr", type=float, default=1e-4, help="initial learning rate")
    parser.add_argument("--lr-decay", type=float, default=0.9, help="learning-rate decay factor")
    parser.add_argument("--lr-decay-every", type=int, default=10, help="epochs between decays")
    parser.add_argument("--weight-decay", type=float, default=5e-5, help="L2 weight decay")
    parser.add_argument(
        "--kernel-sigma", type=float, default=6.0, help="gaussian kernel bandwidth in label units"
    )
    parser.add_argument("--temperature", type=float, default=0.5, help="similarity temperature")
    parser.add_argument(
        "--nn-final", type=_positive_int, default=14, help="final neighbor count of the schedule"
    )
    parser.add_argument(
        "--nn-step-size", type=int, default=1, help="epochs between schedule steps"
    )
    parser.add_argument(
        "--nn-space",
        choices=[s.value for s in NeighborSpace],
        default=NeighborSpace.EMBEDDING.value,
        help="space in which neighbors are selected",
    )
    parser.add_argument(
        "--reduction",
        choices=[r.value for r in Reduction],
        default=Reduction.SUM.value,
        help="loss reduction over anchors",
    )
    parser.add_argument(
        "--hidden-dims", type=_list(int), default=[64, 64], help="encoder hidden widths"
    )
    parser.add_argument("--embed-dim", type=int, default=32, help="encoder output dimension")


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
    parser.add_argument("--ridge-lambda", type=float, default=1.0, help="ridge regularization")


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

    gen = subparsers.add_parser(
        "generate",
        help="write a synthetic dataset CSV",
        description="Generate a bimodal synthetic regression dataset and write it as CSV.",
        formatter_class=_formatter,
    )
    _add_config_flag(gen)
    gen.add_argument("--n", type=int, default=500, help="number of samples")
    gen.add_argument("--seed", type=int, default=0, help="generator seed")
    gen.add_argument("--out", default=None, metavar="CSV", help="output path (required)")
    gen.add_argument(
        "--force", action="store_true", help="overwrite an existing output file"
    )
    gen.add_argument("--feature-dim", type=int, default=16, help="feature count")
    gen.add_argument(
        "--informative-dims", type=int, default=8, help="label-dependent feature count"
    )
    gen.add_argument(
        "--noise-std", type=float, default=0.1, help="observation noise on informative features"
    )
    gen.add_argument(
        "--mix-means", type=_list(float), default=[25.0, 68.0], help="label component means"
    )
    gen.add_argument(
        "--mix-stds", type=_list(float), default=[5.0, 6.0], help="label component stds"
    )
    gen.add_argument(
        "--mix-weights",
        type=_list(float),
        default=[0.5, 0.5],
        help="label component weights (sum to 1)",
    )
    gen.set_defaults(handler=_cmd_generate)
    commands["generate"] = gen

    tr = subparsers.add_parser(
        "train",
        help="train an encoder on a dataset CSV",
        description=(
            "Train the encoder with a contrastive regression loss; writes a checkpoint, "
            "a JSONL trace, and optional embedding exports under --out-dir."
        ),
        formatter_class=_formatter,
    )
    _add_config_flag(tr)
    tr.add_argument("--data", default=None, metavar="CSV", help="input dataset (required)")
    tr.add_argument("--out-dir", default=None, metavar="DIR", help="artifact directory (required)")
    tr.add_argument(
        "--loss", choices=_VARIANT_NAMES, default=LossVariant.DYN_LOC_REP.value, help="loss variant"
    )
    tr.add_argument("--seed", type=int, default=0, help="run seed")
    tr.add_argument(
        "--distance-norm",
        choices=_NORM_NAMES,
        default=DistanceNorm.MANHATTAN.value,
        help="neighbor-selection distance norm",
    )
    tr.add_argument(
        "--export-epochs",
        type=_list(int),
        default=[],
        help="1-based epochs after which to export train-set embeddings (e.g. 1,6,21,30,40,50)",
    )
    _add_training_flags(tr)
    tr.set_defaults(handler=_cmd_train)
    commands["train"] = tr

    bm = subparsers.add_parser(
        "benchmark",
        help="compare loss variants across seeds",
        description=(
            "Train every requested variant across seeds, score ridge-readout MAE on held-out "
            "splits, and write a JSON report including raw-feature and untrained-encoder "
            "baselines."
        ),
        formatter_class=_formatter,
    )
    _add_config_flag(bm)
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
        default=DistanceNorm.MANHATTAN.value,
        help="neighbor-selection distance norm for the localized loss",
    )
    bm.add_argument(
        "--out", default="benchmark_report.json", metavar="JSON", help="report path"
    )
    _add_training_flags(bm)
    bm.set_defaults(handler=_cmd_benchmark)
    commands["benchmark"] = bm

    ab = subparsers.add_parser(
        "ablate",
        help="sweep neighbor-selection distance norms",
        description=(
            "Fix the localized loss and sweep the neighbor-selection distance norm, "
            "reporting per-norm MAE next to published reference values."
        ),
        formatter_class=_formatter,
    )
    _add_config_flag(ab)
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
    ab.set_defaults(handler=_cmd_ablate)
    commands["ablate"] = ab

    return parser, commands


def read_config_file(path: str | Path) -> dict[str, str]:
    """Parse a flat ``key = value`` file with ``#`` comments."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"config file {path} does not exist")
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


def _config_tokens(argv: list[str], commands: dict[str, _Parser]) -> list[str]:
    """Return argv with the invoked command's config file spliced in.

    Each ``key = value`` entry becomes a ``--key=value`` token right after
    the command name, so argparse parses file values like flags, and its
    last-wins rule lets explicit flags override them. Keys
    must name a long flag exactly (argparse alone would accept 'epoch' for
    --epochs); a switch key takes a boolean and becomes the bare flag or
    nothing.
    """
    if not argv or argv[0] not in commands:
        return argv
    config_path = None
    for idx, token in enumerate(argv):
        if token == "--config":
            if idx + 1 >= len(argv):
                return argv  # parser will report the missing value
            config_path = argv[idx + 1]
        elif token.startswith("--config="):
            config_path = token.split("=", 1)[1]
    if config_path is None:
        return argv
    flags = commands[argv[0]].long_flags
    tokens = []
    for key, text in read_config_file(config_path).items():
        if key in ("config", "help") or key not in flags:
            raise ConfigError(f"unknown config key {key!r} for command {argv[0]!r}")
        if not flags[key]:
            tokens.append(f"--{key}={text}")
            continue
        switch = configparser.ConfigParser.BOOLEAN_STATES.get(text.lower())
        if switch is None:
            raise ConfigError(f"config key {key!r} expects a boolean, got {text!r}")
        if switch:
            tokens.append(f"--{key}")
    return [argv[0], *tokens, *argv[1:]]


def _require(parser_name: str, args: argparse.Namespace, attr: str, flag: str):
    value = getattr(args, attr)
    if value is None:
        raise ConfigError(f"{parser_name}: {flag} is required")
    return value


def _load_dataset(args: argparse.Namespace) -> tuple:
    if args.data is not None:
        path = Path(args.data)
        if not path.exists():
            raise FileNotFoundError(f"dataset {path} does not exist")
        return load_csv(path), str(path)
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
        nn_space=NeighborSpace(args.nn_space),
        reduction=Reduction(args.reduction),
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
        hidden_dims=tuple(args.hidden_dims),
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
        mixture_means=tuple(args.mix_means),
        mixture_stds=tuple(args.mix_stds),
        mixture_weights=tuple(args.mix_weights),
        informative_dims=args.informative_dims,
        noise_std=args.noise_std,
    )
    with _output_dir(out.parent):
        dataset = generate_synthetic(spec, args.seed)
        write_csv(dataset, out)
    print(f"wrote {dataset.n} samples x {dataset.feature_dim} features to {out}")
    return EXIT_OK


def _write_embedding_export(path: Path, epoch: int, ids, labels, embeddings) -> None:
    dim = embeddings.shape[1]
    lines = ["epoch,id,y," + ",".join(f"z{j}" for j in range(dim))]
    for i in range(embeddings.shape[0]):
        cells = [str(epoch), ids[i], repr(float(labels[i]))]
        cells.extend(repr(float(v)) for v in embeddings[i])
        lines.append(",".join(cells))
    _write_text_atomic(path, "\n".join(lines) + "\n")


def _cmd_train(args: argparse.Namespace) -> int:
    data_path = Path(_require("train", args, "data", "--data"))
    if not data_path.exists():
        raise FileNotFoundError(f"dataset {data_path} does not exist")
    out_dir = Path(_require("train", args, "out_dir", "--out-dir"))
    dataset = load_csv(data_path)
    config = _train_config(
        args,
        seed=args.seed,
        variant=LossVariant(args.loss),
        distance_norm=DistanceNorm(args.distance_norm),
        export_epochs=tuple(args.export_epochs),
    )
    optim, encoder_config = _optim_config(args), _encoder_config(args, dataset.feature_dim)
    trace_path = out_dir / "trace.jsonl"
    checkpoint_path = out_dir / "encoder.txt"
    with _output_dir(out_dir):
        result = train(dataset, config, optim, encoder_config)
        trace = "".join(json.dumps(entry) + "\n" for entry in result.trace)
        _write_text_atomic(trace_path, trace)
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
    _write_text_atomic(out, json.dumps(report, indent=2) + "\n")
    print(f"{title} over seeds {args.seeds} on {report['dataset']['source']}")
    _summarize(report[entries_key], label)
    _summarize(report["baselines"], "baseline")
    print(f"report written to {out}")
    return EXIT_OK


def _cmd_benchmark(args: argparse.Namespace) -> int:
    dataset, source = _load_dataset(args)
    config = _train_config(args, distance_norm=DistanceNorm(args.distance_norm))
    protocol = _protocol_configs(args, dataset, source)
    with _output_dir(Path(args.out).parent):
        report = benchmark(
            dataset, [LossVariant(name) for name in args.variants], args.seeds, config, **protocol
        )
        return _write_report(args, report, "benchmark", "variants", "variant")


def _cmd_ablate(args: argparse.Namespace) -> int:
    dataset, source = _load_dataset(args)
    config, protocol = _train_config(args), _protocol_configs(args, dataset, source)
    with _output_dir(Path(args.out).parent):
        report = ablate_norms(
            dataset, [DistanceNorm(name) for name in args.norms], args.seeds, config, **protocol
        )
        return _write_report(args, report, "distance-norm ablation", "norms", "norm")


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        parser, commands = build_parser()
        args = parser.parse_args(_config_tokens(argv, commands))
        if getattr(args, "handler", None) is None:
            parser.print_help()
            return EXIT_USAGE
        return args.handler(args)
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return EXIT_OK
        return code if isinstance(code, int) else EXIT_USAGE
    except (ConfigError, InputError, ParseError) as exc:
        print(f"{PROG}: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FileNotFoundError as exc:
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
