"""Command-line interface: generate / train / eval / probe / ablate / data-efficiency.

Exit codes: 0 on success, 1 on validation errors (bad config or data; a bad
argument, usage errors included, fails in the parser before any work), 2 on
runtime failures. Reports are byte-identical across reruns with the same
seed, config, and data.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import fields

from .data import (
    NOT_A_FILE, DataError, GeneratorConfig, Vocab, generate_cad, load_jsonl, read_dataset,
    read_groups, read_json_file, write_dataset,
)
from .evaluation import (
    EvalSet, config_fingerprint, evaluate, myopia_probe, run_ablation, run_data_efficiency,
    write_report,
)
from .model import load_checkpoint, save_checkpoint
from .training import NonFiniteLossError, TrainConfig, train


class CliError(Exception):
    """Validation failure surfaced as exit code 1."""


def _config(cls, args):
    """A config of class cls from the --config file, if any, with each given
    flag whose dest is a field of cls on top; CliError if it is bad."""
    payload = read_json_file(args.config, dict) if args.config else {}
    overrides = {f.name: getattr(args, f.name, None) for f in fields(cls)}
    payload.update((key, value) for key, value in overrides.items() if value is not None)
    try:
        return cls.from_dict(payload)
    except (ValueError, TypeError) as e:
        raise CliError(f"bad {cls.KIND} config: {e}")


def _path(text: str) -> str:
    """Type of every path flag: "" names no file."""
    if not text:
        raise argparse.ArgumentTypeError("an empty path names no file")
    return text


def _out_dir(path: str) -> str:
    """--out of a command that writes a directory: the path, or else its
    nearest existing ancestor, must be a directory."""
    ancestor = os.path.abspath(_path(path))
    while not os.path.exists(ancestor):
        ancestor = os.path.dirname(ancestor)
    if not os.path.isdir(ancestor):
        raise argparse.ArgumentTypeError(f"{path}: {ancestor} exists and is not a directory")
    return path


def _out_file(path: str) -> str:
    """--out of eval and probe: not a directory, and in an existing directory."""
    parent = os.path.dirname(os.path.abspath(_path(path)))
    if os.path.isdir(path):
        raise argparse.ArgumentTypeError(f"{path} is a directory")
    if not os.path.isdir(parent):
        raise argparse.ArgumentTypeError(f"{path}: no such directory {parent}")
    return path


def _int_list(text: str, what: str) -> list[int]:
    """Type of --seeds and --sizes: a comma-separated list of integers, not empty."""
    try:
        values = [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{what} must be a comma-separated integer list, got {text!r}")
    if not values:
        raise argparse.ArgumentTypeError(f"{what} list is empty")
    return values


def cmd_generate(args) -> int:
    cfg = _config(GeneratorConfig, args)
    dataset = generate_cad(cfg)
    paths = write_dataset(dataset, args.out)
    print(json.dumps({"out": args.out, "n_pairs": len(dataset.train_pairs),
                      "n_ood": len(dataset.ood), "files": sorted(paths)}, sort_keys=True))
    return 0


def cmd_train(args) -> int:
    config = _config(TrainConfig, args)
    try:
        dataset = read_dataset(args.data)
        vocab = Vocab.from_examples(dataset.train_examples())
        checkpoint, log = train(config, dataset.train_pairs, vocab=vocab)
    except (ValueError, *NOT_A_FILE) as e:  # a DataError, or data train cannot train on
        raise CliError(f"bad data directory {args.data}: {e}")
    os.makedirs(args.out, exist_ok=True)
    fingerprint = config_fingerprint({"train": config.to_dict(),
                                      "generator": dataset.config.to_dict()})
    ckpt_path = os.path.join(args.out, "checkpoint.json")
    save_checkpoint(ckpt_path, checkpoint.snapshot, vocab, extra={
        "epoch": checkpoint.epoch,
        "train_accuracy": checkpoint.train_accuracy,
        "fingerprint": fingerprint,
        "train_config": config.to_dict(),
    })
    with open(os.path.join(args.out, "train_log.csv"), "w", encoding="utf-8") as fh:
        fh.write(log.step_csv())
    with open(os.path.join(args.out, "epoch_summary.csv"), "w", encoding="utf-8") as fh:
        fh.write(log.epoch_csv())
    print(json.dumps({"checkpoint": ckpt_path, "epoch": checkpoint.epoch,
                      "train_accuracy": checkpoint.train_accuracy,
                      "fingerprint": fingerprint}, sort_keys=True))
    return 0


def _load_scoring_inputs(args):
    """The --checkpoint and --data of eval and probe: (snapshot, vocab,
    extra, examples), or CliError naming the bad file."""
    try:
        snapshot, vocab, extra = load_checkpoint(args.checkpoint)
    except (ValueError, KeyError, *NOT_A_FILE) as e:
        raise CliError(f"bad checkpoint {args.checkpoint}: {e}")
    try:
        examples = load_jsonl(args.data)
    except (DataError, *NOT_A_FILE) as e:
        raise CliError(f"bad data file {args.data}: {e}")
    if not examples:
        raise CliError(f"no examples in {args.data}")
    return snapshot, vocab, extra, examples


def _report(payload: dict, out_path) -> int:
    """Print the JSON report and, with --out, write the same text there."""
    out = json.dumps(payload, indent=2, sort_keys=True)
    print(out)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(out + "\n")
    return 0


def cmd_eval(args) -> int:
    snapshot, vocab, extra, examples = _load_scoring_inputs(args)
    try:
        report = evaluate(snapshot, examples, vocab, split=os.path.basename(args.data),
                          fingerprint=extra.get("fingerprint", ""))
    except DataError as e:  # a label outside the model's classes
        raise CliError(f"bad data file {args.data}: {e}")
    return _report(report.to_dict(), args.out)


def cmd_probe(args) -> int:
    snapshot, vocab, extra, examples = _load_scoring_inputs(args)
    groups_path = args.groups or os.path.join(os.path.dirname(args.data), "groups.json")
    try:
        groups = read_groups(groups_path)
    except DataError as e:
        raise CliError(f"bad groups file: {e}")
    try:
        probe = myopia_probe(snapshot, EvalSet.build(examples, vocab, groups))
    except DataError as e:  # a label outside the model's classes
        raise CliError(f"bad data file {args.data}: {e}")
    payload = probe.to_dict()
    payload["fingerprint"] = extra.get("fingerprint", "")
    return _report(payload, args.out)


def cmd_protocol(args) -> int:
    """ablate and data-efficiency: run the protocol on the --data directory
    and write its report to --out."""
    config = _config(TrainConfig, args)
    sweep = args.command == "data-efficiency"
    sizes = {"sizes": args.sizes} if sweep else {}
    try:
        dataset = read_dataset(args.data)
        result = (run_data_efficiency if sweep else run_ablation)(
            config, dataset, seeds=args.seeds, workers=args.workers, **sizes)
    except (ValueError, *NOT_A_FILE) as e:
        raise CliError(str(e))
    paths = write_report(result, args.out, "data_efficiency" if sweep else "ablation")
    shown = {"rows": len(result["rows"])} if sweep else {"summary": result["summary"]}
    print(json.dumps({"report": paths, **shown}, sort_keys=True))
    return 0


class _Parser(argparse.ArgumentParser):
    """Raises CliError on a usage error, so main exits 1 as for any bad argument."""

    def error(self, message):
        raise CliError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process. Each command stores the
    name of its function, which main looks up in this module when it runs,
    so a function replaced after the first call is the one that is called."""
    train_flags = argparse.ArgumentParser(add_help=False)    # each dest a TrainConfig field
    train_flags.add_argument("--config", type=_path, help="JSON train config file")
    train_flags.add_argument("--alpha", type=float, help="invariance penalty weight")
    train_flags.add_argument("--beta", type=float, help="pair-alignment penalty weight")
    train_flags.add_argument("--lr", type=float, dest="learning_rate", help="learning rate")
    train_flags.add_argument("--epochs", type=int)
    train_flags.add_argument("--batch-pairs", type=int)
    train_flags.add_argument("--env-mode", choices=("disjoint", "overlap"))
    train_flags.add_argument("--embed-dim", type=int)

    scoring = argparse.ArgumentParser(add_help=False)       # eval and probe
    scoring.add_argument("--checkpoint", type=_path, required=True)
    scoring.add_argument("--data", type=_path, required=True)
    scoring.add_argument("--out", type=_out_file)

    runner = argparse.ArgumentParser(add_help=False)        # ablate and data-efficiency
    runner.add_argument("--data", type=_path, required=True)
    runner.add_argument("--seeds", type=functools.partial(_int_list, what="seeds"),
                        required=True, help="comma-separated, e.g. 0,1,2")
    runner.add_argument("--out", type=_out_dir, required=True)
    runner.add_argument("--workers", type=int, default=1,
                        help="forked worker processes that share out the runs (default 1: "
                             "serial); the reports are the same at any count")

    parser = _Parser(
        prog="cadlab",
        description="Counterfactual-pair training laboratory: synthetic data, "
                    "constrained training, and reliance probes.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a synthetic paired dataset")
    p.add_argument("--config", type=_path, help="JSON generator config file")
    p.add_argument("--out", type=_out_dir, required=True)
    p.add_argument("--seed", type=int, help="override the config seed")
    p.set_defaults(func="cmd_generate")

    p = sub.add_parser("train", parents=[train_flags],
                       help="train one model on a dataset directory")
    p.add_argument("--seed", type=int, required=True,
                   help="training seed (required for reproducible runs)")
    p.add_argument("--data", type=_path, required=True, help="dataset directory from `generate`")
    p.add_argument("--out", type=_out_dir, required=True)
    p.set_defaults(func="cmd_train")

    p = sub.add_parser("eval", parents=[scoring], help="evaluate a checkpoint on a JSONL file")
    p.set_defaults(func="cmd_eval")

    p = sub.add_parser("probe", parents=[scoring],
                       help="feature-group reliance probe for a checkpoint")
    p.add_argument("--groups", type=_path, help="groups.json (default: next to the data file)")
    p.set_defaults(func="cmd_probe")

    p = sub.add_parser("ablate", parents=[train_flags, runner],
                       help="four-arm ablation over a seed list")
    p.set_defaults(func="cmd_protocol")

    p = sub.add_parser("data-efficiency", parents=[train_flags, runner],
                       help="train-size sweep across three arms")
    p.add_argument("--sizes", type=functools.partial(_int_list, what="sizes"), required=True,
                   help="comma-separated example counts")
    p.set_defaults(func="cmd_protocol")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return globals()[args.func](args)
    except (CliError, DataError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except NonFiniteLossError as e:
        print(f"runtime failure: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # noqa: BLE001 - the CLI boundary maps everything to exit 2
        print(f"runtime failure: {type(e).__name__}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
