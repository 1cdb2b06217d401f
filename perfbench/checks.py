"""Output checks for each pipeline stage. Each returns a list of problems;
an empty list means the stage's outputs are correct."""

import json
import math

from ompadvisor.corpus import read_samples
from ompadvisor.metrics import report_from_rows, rows_from_csv


def _read_jsonl(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _label_rows(samples):
    return [(s.path, [s.label_pragma, s.label_private, s.label_reduction]) for s in samples]


def _first_difference(got, want, what):
    if got == want:
        return []
    if len(got) != len(want):
        return [f"{what}: {len(got)} entries, answer key has {len(want)}"]
    i = next(i for i, (a, b) in enumerate(zip(got, want)) if a != b)
    return [f"{what}: entry {i} is {got[i]}, answer key has {want[i]}"]


def _reject_rows(rejects):
    return sorted((r["path"], r["line"] if r["reason"] != "parse_error" else None,
                   r["reason"]) for r in rejects)


def check_build(corpus_dir, key):
    """Labels, rejects, holdout and split sizes against the answer key."""
    problems = []
    tree = key["dirs"]["tree"]
    samples = read_samples(corpus_dir / "corpus.jsonl")
    want = [(s["path"], s["labels"]) for s in tree["samples"]]
    problems += _first_difference(_label_rows(samples), want, "corpus labels")

    want_rejects = list(tree["rejects"])
    bench = key["dirs"].get("bench")
    if bench is not None:
        want_rejects += bench["rejects"]
        bench_samples = read_samples(corpus_dir / "benchmarks.jsonl")
        problems += _first_difference(
            _label_rows(bench_samples),
            [(s["path"], s["labels"]) for s in bench["samples"]], "benchmark labels")
        held = {s.id for s in bench_samples}
        in_holdout = [s for s in samples if s.id in held]
        if len(in_holdout) != key["holdout_samples"]:
            problems.append(f"{len(in_holdout)} corpus samples match the holdout, "
                            f"answer key has {key['holdout_samples']}")
        if any(s.split == "train" for s in in_holdout):
            problems.append("a holdout twin landed in train")
    problems += _first_difference(
        _reject_rows(_read_jsonl(corpus_dir / "rejects.jsonl")),
        _reject_rows(want_rejects), "rejects")

    n_test = sum(s.split == "test" for s in samples)
    if n_test != len(samples) // 10:
        problems.append(f"test split holds {n_test} of {len(samples)} samples")
    return problems


def check_train(model_dir, epochs):
    problems = []
    for name in ("model.bin", "vocab.json", "history.json", "run_config.json"):
        if not (model_dir / name).is_file():
            problems.append(f"train wrote no {name}")
    if not problems:
        with open(model_dir / "history.json", encoding="utf-8") as fh:
            history = json.load(fh)
        if len(history) != epochs:
            problems.append(f"history has {len(history)} epochs, ran {epochs}")
        elif not all(math.isfinite(r["train_loss"]) for r in history):
            problems.append("non-finite train loss")
    return problems


def check_evaluate(eval_dir, corpus_path):
    """report.json must equal the report recomputed from per_sample.csv, and
    score exactly the test split."""
    with open(eval_dir / "report.json", encoding="utf-8") as fh:
        report = json.load(fh)
    with open(eval_dir / "per_sample.csv", encoding="utf-8") as fh:
        rows = rows_from_csv(fh.read())
    samples = read_samples(corpus_path)
    test = [s for s in samples if s.split == "test"]
    problems = []
    if report["n"] != len(test):
        problems.append(f"evaluate scored {report['n']} samples, test split has {len(test)}")
    recomputed = report_from_rows(rows)
    path_of = {s.id: s.path for s in test}
    groups = sorted({path_of.get(r["id"], "?").split("/", 1)[0] for r in rows})
    if len(groups) > 1:
        recomputed["groups"] = {
            g: report_from_rows([r for r in rows
                                 if path_of.get(r["id"], "?").split("/", 1)[0] == g])
            for g in groups
        }
    recomputed["gate"] = report.get("gate")
    if json.loads(json.dumps(recomputed)) != report:
        problems.append("report.json differs from the report recomputed from per_sample.csv")
    return problems


def check_predict(stdout, loop_lines, validator):
    """predict --json output: schema-valid, finite, one result per loop."""
    try:
        results = json.loads(stdout)
    except json.JSONDecodeError as err:
        return [f"predict output is not JSON: {err}"]
    errors = [e.message for e in validator.iter_errors(results)]
    if errors:
        return [f"schema: {errors[0]}"]
    problems = []
    if [r["line"] for r in results] != loop_lines:
        problems.append(f"predicted loops at lines {[r['line'] for r in results]}, "
                        f"file has loops at {loop_lines}")
    if any(not math.isfinite(p) for r in results for p in r["probs"].values()):
        problems.append("non-finite probability")
    return problems
