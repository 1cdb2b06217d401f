"""Command-line interface: build-corpus, augment, train, predict, evaluate,
stats and check-gradients subcommands.

Every artifact-producing run writes a run_config.json echoing its effective
options, a log that no command reads; identical inputs and seed give
byte-identical outputs. Exit codes: 0 success, 1 usage error, 2 data error.
"""

import argparse
import dataclasses
import functools
import json
import sys
from pathlib import Path

from . import __version__
from .augment import find_corpus_names, fraction_for_mode, rename_variables
from .corpus import LABELS, SPLITS, build_corpus, compute_stats, read_samples, read_source
from .corpus import write_json, write_jsonl
from .encode import DEFAULT_MAX_CODE, DEFAULT_MAX_DFG, DEFAULT_MIN_FREQ, Vocabulary
from .encode import build_vocabulary  # noqa: F401 -- a traced binding in perfbench/spans.py
from .metrics import evaluate, format_report, rows_to_csv
from .model import (
    ModelConfig, TrainingDiverged, check_gradients, load_model, predict_source,
    save_model, small_config, train,
)
from .syntax import ParseError


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _in_range(convert, low, high=float("inf")):
    """An argparse type: the converted value, which must lie in [low, high)."""
    def parse(text):
        value = convert(text)
        if not low <= value < high:
            raise argparse.ArgumentTypeError(f"{text} is outside [{low}, {high})")
        return value
    parse.__name__ = convert.__name__  # argparse names the type in its errors
    return parse


def _write_run_config(path, args, **extra):
    """The command's parsed options, and any extra derived ones."""
    write_json(path, {**vars(args), **extra}, sort_keys=True)


@functools.cache  # parse_args leaves the parser as it found it
def build_parser():
    parser = _Parser(prog="ompadvisor",
                     description="Loop parallelization advisor pipeline")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    positive, non_negative = _in_range(int, 1), _in_range(int, 0)

    p = sub.add_parser("build-corpus", help="extract a labeled loop corpus from .c files")
    p.add_argument("src_dir")
    p.add_argument("--with-scope", action="store_true")
    p.add_argument("--benchmarks", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--out", required=True)

    p = sub.add_parser("augment", help="apply renaming augmentation to a corpus file")
    p.add_argument("corpus")
    p.add_argument("--mode", choices=("none", "curriculum", "replaced"), required=True)
    p.add_argument("--epoch", type=positive, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--out", required=True)

    p = sub.add_parser("train", help="train the advisor on a built corpus")
    p.add_argument("corpus_dir")
    p.add_argument("--aug", choices=("none", "curriculum", "replaced"), default="none")
    p.add_argument("--epochs", type=positive, default=10)
    # model.bin stores the seed as a signed 64-bit integer
    p.add_argument("--seed", type=_in_range(int, 0, 2**63), default=0)
    p.add_argument("--batch-size", type=positive, default=32)
    p.add_argument("--lr", type=_in_range(float, 0.0), default=1e-3)
    p.add_argument("--d-model", type=positive, default=ModelConfig.d_model)
    p.add_argument("--n-heads", type=positive, default=ModelConfig.n_heads)
    p.add_argument("--n-layers", type=positive, default=ModelConfig.n_layers)
    p.add_argument("--d-ff", type=positive, default=ModelConfig.d_ff)
    p.add_argument("--dropout", type=_in_range(float, 0.0, 1.0),
                   default=ModelConfig.dropout_rate)
    p.add_argument("--min-freq", type=non_negative, default=DEFAULT_MIN_FREQ)
    p.add_argument("--max-code", type=non_negative, default=DEFAULT_MAX_CODE)
    p.add_argument("--max-dfg", type=non_negative, default=DEFAULT_MAX_DFG)
    p.add_argument("-o", "--out", required=True)

    p = sub.add_parser("predict", help="predict pragma needs for each loop in a file")
    p.add_argument("model_dir")
    p.add_argument("file")
    p.add_argument("--gate", action="store_true")
    p.add_argument("--json", dest="as_json", action="store_true")
    p.add_argument("--with-scope", action="store_true")

    p = sub.add_parser("evaluate", help="evaluate a model over a corpus or benchmark file")
    p.add_argument("model_dir")
    p.add_argument("corpus")
    p.add_argument("--gate", action="store_true")
    p.add_argument("--split", choices=(*SPLITS, "all"), default="test",
                   help="the split to score; none is every benchmarks.jsonl row and held-out "
                        "twin, all is every row")
    p.add_argument("-o", "--out", required=True)

    p = sub.add_parser("stats", help="print corpus distribution tables")
    p.add_argument("corpus")

    p = sub.add_parser("check-gradients", help="verify gradients against finite differences")
    p.add_argument("--seed", type=non_negative, default=0)

    return parser


# ---------------------------------------------------------------------------
# subcommand implementations

def _cmd_build_corpus(args):
    for directory in (args.src_dir, args.benchmarks):
        if directory is not None and not Path(directory).is_dir():
            raise FileNotFoundError(f"directory not found: {directory}")
    samples, rejects, stats = build_corpus(
        args.src_dir, args.out, with_scope=args.with_scope,
        benchmarks_dir=args.benchmarks, seed=args.seed,
    )
    _write_run_config(Path(args.out) / "run_config.json", args)
    print(f"corpus: {len(samples)} samples, {len(rejects)} rejects -> {args.out}")
    print("rejects: " + ", ".join(f"{reason} {n}" for reason, n in stats["rejects"].items()))
    return 0


def _cmd_augment(args):
    samples = read_samples(args.corpus)
    fraction = fraction_for_mode(args.mode, args.epoch)
    if fraction:  # else the rows are written as read, none parsed
        samples = [rename_variables(s, fraction, args.seed + args.epoch, tokens)
                   for s, tokens in zip(samples, find_corpus_names(samples))]
    write_jsonl(args.out, [s.to_json_dict() for s in samples])
    _write_run_config(f"{args.out}.run_config.json", args, fraction=fraction)
    print(f"augmented {len(samples)} samples at fraction {fraction} -> {args.out}")
    return 0


def _cmd_train(args):
    corpus_path = Path(args.corpus_dir) / "corpus.jsonl"
    if not corpus_path.exists():
        raise FileNotFoundError(f"no corpus.jsonl under {args.corpus_dir}")
    samples = read_samples(corpus_path)

    def log(record):
        print(f"epoch {record['epoch']:>2}  fraction {record['fraction']:.1f}  "
              f"train_loss {record['train_loss']:.4f}  "
              f"valid_loss {record['valid_loss']:.4f}  "
              f"valid_acc {record['valid_accuracy']:.3f}")

    arch = {"d_model": args.d_model, "n_heads": args.n_heads, "n_layers": args.n_layers,
            "d_ff": args.d_ff, "dropout_rate": args.dropout}
    result = train(
        samples, arch=arch, epochs=args.epochs, aug_mode=args.aug,
        seed=args.seed, min_freq=args.min_freq, max_code=args.max_code,
        max_dfg=args.max_dfg, batch_size=args.batch_size, lr=args.lr, log=log,
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_model(out / "model.bin", result.params, result.config)
    result.vocab.save(out / "vocab.json")
    write_json(out / "history.json", result.history)
    write_json(out / "encode_stats.json", result.encode_stats)
    _write_run_config(out / "run_config.json", args)
    print(f"model -> {out}")
    return 0


def _load_model_dir(model_dir):
    """(params, config, vocab) of a trained model directory, checked for
    consistency: the vocabulary's size is the model's, and its max_code and
    max_dfg fit the model's positions. run_config.json is not read."""
    model_path = Path(model_dir) / "model.bin"
    vocab_path = Path(model_dir) / "vocab.json"
    if not model_path.exists() or not vocab_path.exists():
        raise FileNotFoundError(f"{model_dir} does not hold model.bin + vocab.json")
    params, config = load_model(model_path)
    vocab = Vocabulary.load(vocab_path)
    if vocab.size != config.vocab_size:
        raise ValueError(f"{vocab_path}: the vocabulary holds {vocab.size} tokens, "
                         f"the model {config.vocab_size}")
    if vocab.max_code + vocab.max_dfg + 2 > config.max_len:
        raise ValueError(f"{vocab_path}: max_code + max_dfg + 2 exceeds the model's "
                         f"{config.max_len} positions")
    return params, config, vocab


def _cmd_predict(args):
    params, config, vocab = _load_model_dir(args.model_dir)
    results = predict_source(params, config, vocab, read_source(args.file), gate=args.gate,
                             with_scope=args.with_scope)
    if args.as_json:
        print(json.dumps(results, indent=2, allow_nan=False))
    else:
        for r in results:
            print(f"line {r['line']:>4}  " + "  ".join(
                f"{label}={r['labels'][label]} ({r['probs'][label]:.3f})" for label in LABELS))
        if not results:
            print("no loops found")
    return 0


def _cmd_evaluate(args):
    params, config, vocab = _load_model_dir(args.model_dir)
    samples = read_samples(args.corpus)
    if args.split != "all":
        samples = [s for s in samples if s.split == args.split]
        if not samples:
            raise ValueError(f"split {args.split!r} of {args.corpus} holds no samples")
    report, rows, stats = evaluate(params, config, vocab, samples)
    report["gate"] = args.gate
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_json(out / "report.json", report)
    write_json(out / "eval_stats.json", {"split": args.split, "n": stats.pop("samples"), **stats})
    with open(out / "report.txt", "w", encoding="utf-8") as fh:
        fh.write(format_report(report))
    with open(out / "per_sample.csv", "w", encoding="utf-8") as fh:
        fh.write(rows_to_csv(rows))
    _write_run_config(out / "run_config.json", args)
    mode = "gated" if args.gate else "raw"
    block = report[mode]
    print(f"scored split {args.split}: n={len(samples)}")
    print(format_report(report), end="")
    print(f"-> {out} ({mode} macro acc {block['macro']['accuracy']:.3f})")
    return 0


def _cmd_stats(args):
    samples = read_samples(args.corpus)
    stats = compute_stats(samples)
    lang = stats["languages"]["c"]
    print(f"total samples: {stats['total']}")
    print("language  with_pragma  without_pragma")
    print(f"c         {lang['with_pragma']:>11}  {lang['without_pragma']:>14}")
    print("clause     amount")
    for clause in LABELS[1:]:
        print(f"{clause:<10} {stats['clauses'][clause]:>6}")
    print("lines    amount")
    for bucket in ("<=15", "16-50", ">50"):
        print(f"{bucket:<8} {stats['length_buckets'][bucket]:>6}")
    return 0


def _cmd_check_gradients(args):
    # one sample, then a batch padded to its longest sample
    runs = [(small_config(), mask_mode, lengths)
            for mask_mode in ("open", "random") for lengths in ((6,), (3, 6, 9))]
    # two layers with dropout: a layer of every row under the last layer,
    # which computes its rows up to CLS only
    runs.append((dataclasses.replace(small_config(), n_layers=2, dropout_rate=0.3),
                 "random", (3, 6, 9)))
    worst = 0.0
    for config, mask_mode, lengths in runs:
        err, _ = check_gradients(config=config, mask_mode=mask_mode, seed=args.seed,
                                 lengths=lengths)
        worst = max(worst, err)
        print(f"layers={config.n_layers} dropout={config.dropout_rate:<3} mask={mask_mode:<7} "
              f"batch={len(lengths)} max_rel_err={err:.3e}")
    print(f"overall max relative error: {worst:.3e} "
          f"({'OK' if worst < 1e-3 else 'FAIL'})")
    return 0 if worst < 1e-3 else 2


_COMMANDS = {
    "build-corpus": _cmd_build_corpus,
    "augment": _cmd_augment,
    "train": _cmd_train,
    "predict": _cmd_predict,
    "evaluate": _cmd_evaluate,
    "stats": _cmd_stats,
    "check-gradients": _cmd_check_gradients,
}


def execute_command(argv):
    """Run one subcommand; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "train" and args.max_code + args.max_dfg + 2 > ModelConfig.max_len:
            parser.error(f"--max-code + --max-dfg + 2 must not exceed the model's "
                         f"{ModelConfig.max_len} positions")
        if args.command == "train" and args.d_model % args.n_heads:
            parser.error(f"--d-model {args.d_model} is not divisible by --n-heads {args.n_heads}")
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command](args)
    except (OSError, ParseError, TrainingDiverged, ValueError, KeyError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


def main():
    sys.exit(execute_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
