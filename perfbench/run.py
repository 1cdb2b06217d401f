"""End-to-end and per-layer benchmark of the ompadvisor pipeline.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload short-curriculum --seed 1 --seconds 45 --trace 0

A run generates the workload's C tree from the seed (the set-up, repeated
SETUP_REPS times and timed), then drives the pipeline in this process, one
command at a time (a closed loop with one caller), through
`ompadvisor.cli.execute_command`:

    build-corpus -> train -> evaluate --split test -> predict --json per file

and, until --seconds have passed since the first build, keeps cycling
build-corpus, evaluate and a quarter of the predicts, so those metrics are
medians of samples spread over the whole run. Training runs once per run.
Predict percentiles run over files, each file's latency being the median
of its calls.

Every command's exit code and outputs are checked against the generator's
answer key; a non-zero exit, an exception or a failed check is a failed
operation. With --trace 1 the round above runs once untraced and once
traced, and the per-layer metrics come from the traced one.

The last line of stdout is the result as JSON. A record with the machine
facts and every measurement goes to .bench_work/records/.
"""

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import defaultdict
from functools import partial
from pathlib import Path

BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# short-curriculum: 4 epochs, so three of four epochs rename (0.1, 0.2, 0.3).
EPOCHS = {"short-curriculum": 4, "long-scoped": 1}
SETUP_REPS = 11
INTERLEAVE = 4

END_TO_END_UNITS = {
    "setup_s": "s",
    "build_files_per_s": "files/s",
    "train_samples_per_s": "samples/s",
    "evaluate_samples_per_s": "samples/s",
    "predict_file_p50_ms": "ms",
    "predict_file_p95_ms": "ms",
    "test_accuracy": "ratio",
    "peak_rss_mb": "MB",
}


def _pin_blas():
    """Pin BLAS threads before numpy loads; returns the pinned env."""
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    return {var: os.environ[var] for var in BLAS_ENV}


def _git_commit(root):
    """The checked-out commit, read from .git without leaving the checkout."""
    git = root / ".git"
    if not (git / "HEAD").is_file():
        return None
    ref = (git / "HEAD").read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[len("ref: "):]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    if (git / "packed-refs").is_file():
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def _source_digest(src):
    """sha256 over the program's sources; identifies the code when the
    checkout is not a git repository."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(src)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def machine_facts(root, blas_env):
    import numpy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": BLAS_THREADS,
        "blas_env": blas_env,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "commit": _git_commit(root),
        "src_sha256": _source_digest(root / "src"),
    }


class Pipeline:
    """Runs and checks the pipeline commands of one workload, collecting a
    sample list per measurement."""

    def __init__(self, workload, seed, key, gen_dir, work_dir, schema):
        import jsonschema
        from ompadvisor.cli import execute_command
        self.execute = execute_command
        self.key = key
        self.gen_dir = gen_dir
        self.long = workload == "long-scoped"
        self.epochs = EPOCHS[workload]
        self.seed = str(seed)
        self.corpus = work_dir / "corpus"
        self.model = work_dir / "model"
        self.eval_dir = work_dir / "eval"
        self.validator = jsonschema.Draft7Validator(schema)
        self.files = [(gen_dir / d / rel, info)
                      for d in sorted(key["dirs"])
                      for rel, info in key["dirs"][d]["files"].items()]
        self.attempted = 0
        self.failures = []
        self.samples = defaultdict(list)
        self.predict_s = defaultdict(list)  # per file: seconds of each call
        self.test_accuracy = None
        self.recorder = None

    def _op(self, argv, want_rc=0):
        """One command: (ok, seconds, stdout). Under a recorder the command
        is the root span of everything it calls."""
        self.attempted += 1
        out, err = io.StringIO(), io.StringIO()
        span = self.recorder.begin(f"cli.{argv[0]}") if self.recorder else None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.execute(argv)
        except Exception:  # a traceback is a failed operation, not a crash
            rc = "exception"
            err.write(traceback.format_exc())
        elapsed = time.perf_counter() - start
        if span is not None:
            self.recorder.end(span)
        if rc != want_rc:
            self._fail(argv, [f"exit {rc}, wanted {want_rc}: {err.getvalue()[-400:]}"])
            return False, elapsed, out.getvalue()
        return True, elapsed, out.getvalue()

    def _fail(self, argv, problems):
        """Record problems as one failed operation; True when there are none."""
        if problems:
            self.failures.append(f"{' '.join(argv[:2])}: {'; '.join(problems[:3])}")
        return not problems

    def _verify(self, argv, check, *args):
        """Run an output check; outputs it cannot read fail it too."""
        try:
            problems = check(*args)
        except (OSError, ValueError, KeyError, TypeError) as err:
            problems = [f"unreadable output: {err!r}"]
        return self._fail(argv, problems)

    def build(self):
        from checks import check_build
        argv = ["build-corpus", str(self.gen_dir / "tree"), "--seed", self.seed,
                "-o", str(self.corpus)]
        if self.long:
            argv += ["--with-scope", "--benchmarks", str(self.gen_dir / "bench")]
        ok, dt, _ = self._op(argv)
        if ok and self._verify(argv, check_build, self.corpus, self.key):
            self.samples["build_files_per_s"].append(len(self.files) / dt)
            return True
        return False

    def train(self):
        from checks import check_train
        argv = ["train", str(self.corpus), "--aug", "none" if self.long else "curriculum",
                "--epochs", str(self.epochs), "--seed", self.seed, "-o", str(self.model)]
        ok, dt, _ = self._op(argv)
        if ok and self._verify(argv, check_train, self.model, self.epochs):
            with open(self.corpus / "corpus.jsonl", encoding="utf-8") as fh:
                n_train = sum(json.loads(line)["split"] == "train" for line in fh)
            self.samples["train_samples_per_s"].append(n_train * self.epochs / dt)
            return True
        return False

    def evaluate(self):
        from checks import check_evaluate
        argv = ["evaluate", str(self.model), str(self.corpus / "corpus.jsonl"),
                "--split", "test", "-o", str(self.eval_dir)]
        ok, dt, _ = self._op(argv)
        if ok and self._verify(argv, check_evaluate, self.eval_dir,
                               self.corpus / "corpus.jsonl"):
            with open(self.eval_dir / "report.json", encoding="utf-8") as fh:
                report = json.load(fh)
            self.samples["evaluate_samples_per_s"].append(report["n"] / dt)
            self.test_accuracy = report["raw"]["macro"]["accuracy"]

    def predict(self, path, info):
        """An unparsable file must exit 2 (data error) with no output."""
        from checks import check_predict
        argv = ["predict", str(self.model), str(path), "--json"]
        if self.long:
            argv.append("--with-scope")
        ok, dt, out = self._op(argv, want_rc=0 if info["parses"] else 2)
        if not ok:
            return
        if not info["parses"]:
            self._fail(argv, ["output for an unparsable file"] if out else [])
        elif self._verify(argv, check_predict, out, info["loop_lines"], self.validator):
            self.predict_s[str(path)].append(dt)

    def predicts(self, files):
        return [partial(self.predict, path, info) for path, info in files]

    def repeatable_steps(self):
        """One cycle of the repeated commands: build-corpus, evaluate and a
        slice of the predicts, INTERLEAVE times, so each kind recurs across
        the whole measured window."""
        per = math.ceil(len(self.files) / INTERLEAVE)
        steps = []
        for start in range(0, len(self.files), per):
            steps += [self.build, self.evaluate] + self.predicts(self.files[start:start + per])
        return steps

    def round(self):
        """Every command once; False when there is no model to go on with."""
        if not (self.build() and self.train()):
            return False
        for step in [self.evaluate] + self.predicts(self.files):
            step()
        return True


def _percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def end_to_end(pipe, setup_times):
    """(values, sample counts) of the end-to-end metrics; None where no
    operation behind a metric succeeded."""
    s = pipe.samples
    med = {name: statistics.median(s[name]) if s[name] else None
           for name in ("build_files_per_s", "train_samples_per_s", "evaluate_samples_per_s")}
    # A file's latency is the median of its calls, which sheds transient
    # interference; the percentiles run over files.
    predict = [statistics.median(v) for v in pipe.predict_s.values()]
    values = {
        "setup_s": statistics.median(setup_times),
        **med,
        "predict_file_p50_ms": _percentile(predict, 50) * 1e3 if predict else None,
        "predict_file_p95_ms": _percentile(predict, 95) * 1e3 if predict else None,
        "test_accuracy": pipe.test_accuracy,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    counts = {name: len(s[name]) for name in med}
    counts.update(setup_s=len(setup_times), predict_file_p50_ms=len(predict),
                  predict_file_p95_ms=len(predict),
                  predict_calls=sum(len(v) for v in pipe.predict_s.values()))
    return values, counts


def measure(pipe, seconds):
    """One full round, then the repeatable commands in turn until `seconds`
    have passed since the round began."""
    deadline = time.perf_counter() + seconds
    if not pipe.round():
        return
    for step in itertools.cycle(pipe.repeatable_steps()):
        if time.perf_counter() >= deadline:
            return
        step()


def measure_traced(pipe):
    """An untraced round, then a traced one: (per-layer metrics, recorder)."""
    import spans
    start = time.perf_counter()
    pipe.round()
    untraced = time.perf_counter() - start
    rec = spans.Recorder()
    pipe.recorder = rec
    start = time.perf_counter()
    with spans.installed(rec):
        pipe.round()
    traced = time.perf_counter() - start
    pipe.recorder = None
    layers = spans.layer_metrics(rec)
    layers["trace.overhead_ratio"] = (traced / untraced, "ratio")
    return layers, rec


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("short-curriculum", "long-scoped"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    root = Path(__file__).resolve().parent.parent
    src = root / "src"
    if not (src / "ompadvisor" / "cli.py").is_file():
        print(f"error: no ompadvisor sources under {src}", file=sys.stderr)
        return 2
    blas_env = _pin_blas()
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(root / "perfbench"))
    import workload

    facts = machine_facts(root, blas_env)
    work_dir = root / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    gen_dir = work_dir / "gen"
    layers = rec = None
    try:
        setup_times, key = [], None
        for _ in range(SETUP_REPS):
            shutil.rmtree(gen_dir, ignore_errors=True)
            start = time.perf_counter()
            again = workload.generate(args.workload, args.seed, gen_dir)
            setup_times.append(time.perf_counter() - start)
            if key is not None and again != key:
                print("error: workload generation is not deterministic", file=sys.stderr)
                return 2
            key = again
        schema = json.loads((src / "ompadvisor" / "schemas" / "predict_schema.json")
                            .read_text(encoding="utf-8"))
        pipe = Pipeline(args.workload, args.seed, key, gen_dir, work_dir, schema)
        if args.trace:
            layers, rec = measure_traced(pipe)
        else:
            measure(pipe, args.seconds)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    values, counts = end_to_end(pipe, setup_times)
    if args.trace:
        metrics = {name: {"value": v, "unit": unit} for name, (v, unit) in layers.items()}
    else:
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items() if values[name] is not None}
    missing = [name for name, v in values.items() if v is None]

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"operations {pipe.attempted}  failed {len(pipe.failures)}")
    print("machine " + json.dumps(facts, sort_keys=True))
    for failure in pipe.failures[:20]:
        print(f"FAILED {failure}")
    for name in missing:
        print(f"MISSING {name}: no operation behind it succeeded")
    for name, m in metrics.items():
        n = f"(n={counts[name]})" if name in counts and not args.trace else ""
        if name.startswith("predict_file") and not args.trace:
            n = f"(n={counts[name]} files, {counts['predict_calls']} calls)"
        print(f"  {name:<46} {m['value']:>14.6g} {m['unit']:<10} {n}")

    record_dir = root / ".bench_work" / "records"
    record_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(record_dir / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "machine": facts, "end_to_end": values,
                   "sample_counts": counts, "samples": pipe.samples,
                   "predict_s": pipe.predict_s, "metrics": metrics,
                   "failures": pipe.failures}, fh, indent=1)
    if rec is not None:
        import spans
        spans.dump(record_dir / f"{stem}.spans.json", rec)

    failed = len(pipe.failures)
    print(json.dumps({"correct": failed == 0 and not missing, "attempted": pipe.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
