"""Command-line interface: generate / train / eval / probe / ablate / data-efficiency.

Exit codes: 0 on success, 1 on validation errors (bad config, bad data,
bad arguments), 2 on runtime failures. Reports are byte-identical across
reruns with the same seed, config, and data.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

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


def _config(cls, args, overrides: dict):
    """A config of class cls from the --config file, if any, with each
    override that is not None on top; CliError if it is bad."""
    payload = read_json_file(args.config, dict) if args.config else {}
    payload.update((key, value) for key, value in overrides.items() if value is not None)
    try:
        return cls.from_dict(payload)
    except (ValueError, TypeError) as e:
        raise CliError(f"bad {cls.KIND} config: {e}")


def _train_config(args) -> TrainConfig:
    return _config(TrainConfig, args, {
        "alpha": args.alpha, "beta": args.beta, "learning_rate": args.lr,
        "epochs": args.epochs, "batch_pairs": args.batch_pairs,
        "env_mode": args.env_mode, "embed_dim": args.embed_dim,
        "seed": getattr(args, "seed", None),
    })


def _add_train_overrides(parser, with_seed: bool) -> None:
    parser.add_argument("--config", help="JSON train config file")
    parser.add_argument("--alpha", type=float, help="invariance penalty weight")
    parser.add_argument("--beta", type=float, help="pair-alignment penalty weight")
    parser.add_argument("--lr", type=float, help="learning rate")
    parser.add_argument("--epochs", type=int)
    parser.add_argument("--batch-pairs", type=int, dest="batch_pairs")
    parser.add_argument("--env-mode", choices=("disjoint", "overlap"), dest="env_mode")
    parser.add_argument("--embed-dim", type=int, dest="embed_dim")
    if with_seed:
        parser.add_argument("--seed", type=int, required=True,
                            help="training seed (required for reproducible runs)")


def _check_out_dir(path) -> None:
    """--out of a command that writes a directory: the path, or else its
    nearest existing ancestor, must be a directory. Checked before any work."""
    ancestor = os.path.abspath(path)
    while not os.path.exists(ancestor):
        ancestor = os.path.dirname(ancestor)
    if not os.path.isdir(ancestor):
        raise CliError(f"--out {path}: {ancestor} exists and is not a directory")


def _check_out_file(path) -> None:
    """--out of eval and probe, when given: not a directory, and in an
    existing directory. Checked before any work."""
    if path is None:
        return
    parent = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path):
        raise CliError(f"--out {path} is a directory")
    if not os.path.isdir(parent):
        raise CliError(f"--out {path}: no such directory {parent}")


def cmd_generate(args) -> int:
    _check_out_dir(args.out)
    cfg = _config(GeneratorConfig, args, {"seed": args.seed})
    dataset = generate_cad(cfg)
    paths = write_dataset(dataset, args.out)
    print(json.dumps({"out": args.out, "n_pairs": len(dataset.train_pairs),
                      "n_ood": len(dataset.ood), "files": sorted(paths)}, sort_keys=True))
    return 0


def cmd_train(args) -> int:
    _check_out_dir(args.out)
    config = _train_config(args)
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


def _load_eval_examples(path):
    try:
        examples = load_jsonl(path)
    except (DataError, *NOT_A_FILE) as e:
        raise CliError(f"bad data file {path}: {e}")
    if not examples:
        raise CliError(f"no examples in {path}")
    return examples


def _load_checkpoint(path):
    try:
        return load_checkpoint(path)
    except (ValueError, KeyError, *NOT_A_FILE) as e:
        raise CliError(f"bad checkpoint {path}: {e}")


def _report(payload: dict, out_path) -> int:
    """Print the JSON report and, with --out, write the same text there."""
    out = json.dumps(payload, indent=2, sort_keys=True)
    print(out)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(out + "\n")
    return 0


def cmd_eval(args) -> int:
    _check_out_file(args.out)
    snapshot, vocab, extra = _load_checkpoint(args.checkpoint)
    examples = _load_eval_examples(args.data)
    try:
        report = evaluate(snapshot, examples, vocab, split=os.path.basename(args.data),
                          fingerprint=extra.get("fingerprint", ""))
    except DataError as e:  # a label outside the model's classes
        raise CliError(f"bad data file {args.data}: {e}")
    return _report(report.to_dict(), args.out)


def cmd_probe(args) -> int:
    _check_out_file(args.out)
    snapshot, vocab, extra = _load_checkpoint(args.checkpoint)
    examples = _load_eval_examples(args.data)
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


def _parse_int_list(text, what) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise CliError(f"{what} must be a comma-separated integer list, got {text!r}")
    if not values:
        raise CliError(f"{what} list is empty")
    return values


def cmd_protocol(args) -> int:
    """ablate and data-efficiency: run the protocol on the --data directory
    and write its report to --out."""
    _check_out_dir(args.out)
    config = _train_config(args)
    sweep = args.command == "data-efficiency"
    sizes = {"sizes": _parse_int_list(args.sizes, "sizes")} if sweep else {}
    seeds = _parse_int_list(args.seeds, "seeds")
    try:
        dataset = read_dataset(args.data)
        result = (run_data_efficiency if sweep else run_ablation)(
            config, dataset, seeds=seeds, workers=args.workers, **sizes)
    except (ValueError, *NOT_A_FILE) as e:
        raise CliError(str(e))
    paths = write_report(result, args.out, "data_efficiency" if sweep else "ablation")
    shown = {"rows": len(result["rows"])} if sweep else {"summary": result["summary"]}
    print(json.dumps({"report": paths, **shown}, sort_keys=True))
    return 0


WORKERS_HELP = ("forked worker processes that share out the runs (default 1: serial); "
                "the reports are the same at any count")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process. Each command stores the
    name of its function, which main looks up in this module when it runs,
    so a function replaced after the first call is the one that is called."""
    parser = argparse.ArgumentParser(
        prog="cadlab",
        description="Counterfactual-pair training laboratory: synthetic data, "
                    "constrained training, and reliance probes.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a synthetic paired dataset")
    p.add_argument("--config", help="JSON generator config file")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, help="override the config seed")
    p.set_defaults(func="cmd_generate")

    p = sub.add_parser("train", help="train one model on a dataset directory")
    _add_train_overrides(p, with_seed=True)
    p.add_argument("--data", required=True, help="dataset directory from `generate`")
    p.add_argument("--out", required=True)
    p.set_defaults(func="cmd_train")

    p = sub.add_parser("eval", help="evaluate a checkpoint on a JSONL file")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out")
    p.set_defaults(func="cmd_eval")

    p = sub.add_parser("probe", help="feature-group reliance probe for a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--groups", help="groups.json (default: next to the data file)")
    p.add_argument("--out")
    p.set_defaults(func="cmd_probe")

    p = sub.add_parser("ablate", help="four-arm ablation over a seed list")
    _add_train_overrides(p, with_seed=False)
    p.add_argument("--data", required=True)
    p.add_argument("--seeds", required=True, help="comma-separated, e.g. 0,1,2")
    p.add_argument("--out", required=True)
    p.add_argument("--workers", type=int, default=1, help=WORKERS_HELP)
    p.set_defaults(func="cmd_protocol")

    p = sub.add_parser("data-efficiency", help="train-size sweep across three arms")
    _add_train_overrides(p, with_seed=False)
    p.add_argument("--data", required=True)
    p.add_argument("--sizes", required=True, help="comma-separated example counts")
    p.add_argument("--seeds", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--workers", type=int, default=1, help=WORKERS_HELP)
    p.set_defaults(func="cmd_protocol")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
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
