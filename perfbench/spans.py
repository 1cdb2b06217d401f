"""Span recorder for the traced benchmark run.

Wraps public functions of `ompadvisor` at the module attributes where their
callers look them up (the package imports with `from .x import y`, so
`ompadvisor.model.rename_variables` and `ompadvisor.cli.rename_variables`
are separate bindings), records one span per call with its parent, and
counts work at the same boundaries. Spans stay in memory until `dump`.
"""

import contextlib
import json
import time
from collections import defaultdict

import ompadvisor.augment
import ompadvisor.cli
import ompadvisor.corpus
import ompadvisor.encode
import ompadvisor.metrics
import ompadvisor.model
import ompadvisor.syntax

# Every layer the per-layer metrics report `calls` and `self_s` for.
LAYERS = (
    "syntax.tokenize", "syntax.parse", "pragmas.parse", "dfg.build",
    "corpus.extract", "augment.rename", "encode.vocab", "encode.encode_sample",
    "encode.mask", "model.pad_batch", "model.forward.train", "model.forward.eval",
    "model.softmax", "model.backward", "model.adam", "metrics.predict_rows",
    "corpus.extract_for_prediction", "model.forward_pass", "model.load",
)
COMMANDS = ("build-corpus", "train", "evaluate", "predict")
REJECT_REASONS = ("parse_error", "empty_loop", "barrier_critical_atomic",
                  "nested_duplicate")


class Recorder:
    """Spans as parallel lists (name, start, end, parent index; -1 for a
    root) plus named counters."""

    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.counts = defaultdict(int)
        self._stack = []

    def begin(self, name):
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(None)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def end(self, idx):
        self.ends[idx] = time.perf_counter()
        if self._stack.pop() != idx:
            raise RuntimeError("spans closed out of order")

    def wrap(self, name, fn, count=None):
        """fn wrapped in a span; count(recorder, args, kwargs, result) runs
        after the call. name may be a callable of (args, kwargs)."""
        def wrapper(*args, **kwargs):
            idx = self.begin(name(args, kwargs) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if count is not None:
                count(self, args, kwargs, result)
            return result
        return wrapper

    def summary(self):
        """{name: (calls, total self seconds)}."""
        out = defaultdict(lambda: [0, 0.0])
        own_times = self_times(self.starts, self.ends, self.parents)
        for name, own in zip(self.names, own_times):
            out[name][0] += 1
            out[name][1] += own
        return {name: tuple(v) for name, v in out.items()}

    def to_json(self):
        return {"spans": [list(s) for s in zip(self.names, self.starts, self.ends,
                                               self.parents)],
                "counts": dict(self.counts)}


def self_times(starts, ends, parents):
    """Per span: its duration minus the part of its interval covered by its
    children (overlapping children are counted once)."""
    children = defaultdict(list)
    for idx, parent in enumerate(parents):
        if parent >= 0:
            children[parent].append(idx)
    out = []
    for idx, (start, end) in enumerate(zip(starts, ends)):
        covered = 0.0
        reach = start
        for c in sorted(children.get(idx, ()), key=lambda c: starts[c]):
            lo, hi = max(starts[c], reach), min(ends[c], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


# ---------------------------------------------------------------------------
# counters at the wrapped boundaries

def _count_tokens(rec, args, kwargs, tokens):
    rec.counts["syntax.tokenize.tokens"] += len(tokens)


def _count_dfg(rec, args, kwargs, graph):
    rec.counts["dfg.build.nodes"] += len(graph.nodes)
    rec.counts["dfg.build.edges"] += len(graph.edges)


def _count_extract(rec, args, kwargs, result):
    samples, rejects = result
    rec.counts["corpus.extract.loops"] += len(samples)
    for r in rejects:
        rec.counts[f"corpus.extract.rejects.{r.reason}"] += 1


def _count_dedup(rec, args, kwargs, kept):
    rec.counts["corpus.dedup.in"] += len(args[0])
    rec.counts["corpus.dedup.kept"] += len(kept)


def _count_encoded(rec, args, kwargs, enc):
    rec.counts["encode.code_truncated"] += int(enc.code_truncated)
    rec.counts["encode.dfg_truncated"] += int(enc.dfg_truncated)


def _count_mask(rec, args, kwargs, mask):
    rec.counts["encode.mask_bytes"] += mask.nbytes


def _count_pad(rec, args, kwargs, result):
    ids = result[0]
    rec.counts["model.pad.real"] += sum(e.length for e in args[0])
    rec.counts["model.pad.padded"] += ids.size


def _count_scores(rec, args, kwargs, attn):
    rec.counts["model.attention_cells"] += attn.size


def _forward_name(args, kwargs):
    return "model.forward.train" if kwargs.get("train") else "model.forward.eval"


def _bindings():
    """(owner, attribute, span name, counter) for every traced binding."""
    syntax, corpus, encode = ompadvisor.syntax, ompadvisor.corpus, ompadvisor.encode
    model, metrics, augment = ompadvisor.model, ompadvisor.metrics, ompadvisor.augment
    cli = ompadvisor.cli
    return [
        (syntax, "tokenize", "syntax.tokenize", _count_tokens),
        (corpus, "tokenize", "syntax.tokenize", _count_tokens),
        (encode, "tokenize", "syntax.tokenize", _count_tokens),
        (corpus, "parse_source", "syntax.parse", None),
        (corpus, "parse_snippet", "syntax.parse", None),
        (augment, "parse_snippet", "syntax.parse", None),
        (corpus, "parse_omp_pragma", "pragmas.parse", None),
        (augment, "parse_omp_pragma", "pragmas.parse", None),
        (corpus, "build_dfg", "dfg.build", _count_dfg),
        (augment, "build_dfg", "dfg.build", _count_dfg),
        (corpus, "extract_from_source", "corpus.extract", _count_extract),
        (corpus, "deduplicate", "corpus.dedup", _count_dedup),
        (model, "rename_variables", "augment.rename", None),
        (cli, "rename_variables", "augment.rename", None),
        (model, "build_vocabulary", "encode.vocab", None),
        (cli, "build_vocabulary", "encode.vocab", None),
        (encode, "encode_sample", "encode.encode_sample", _count_encoded),
        (model, "encode_sample", "encode.encode_sample", _count_encoded),
        (encode, "build_attention_mask", "encode.mask", _count_mask),
        (model, "pad_batch", "model.pad_batch", _count_pad),
        (metrics, "pad_batch", "model.pad_batch", _count_pad),
        (model, "forward_batch", _forward_name, None),
        (metrics, "forward_batch", "model.forward.eval", None),
        (model, "masked_softmax", "model.softmax", _count_scores),
        (model, "backward_batch", "model.backward", None),
        (model.Adam, "step", "model.adam", None),
        (metrics, "predict_rows", "metrics.predict_rows", None),
        (model, "extract_for_prediction", "corpus.extract_for_prediction", None),
        (model, "forward_pass", "model.forward_pass", None),
        (cli, "load_model", "model.load", None),
    ]


@contextlib.contextmanager
def installed(recorder):
    """The recorder's wrappers replace the traced bindings; the originals
    come back on exit."""
    saved = []
    try:
        for owner, attr, name, count in _bindings():
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, recorder.wrap(name, original, count))
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def layer_metrics(rec):
    """The per-layer metrics of one traced round, by name."""
    summary = rec.summary()
    counts = rec.counts
    out = {}
    for layer in LAYERS:
        calls, own = summary.get(layer, (0, 0.0))
        out[f"{layer}.calls"] = (calls, "count")
        out[f"{layer}.self_s"] = (own, "s")
    for command in COMMANDS:
        out[f"cli.{command}.self_s"] = (summary.get(f"cli.{command}", (0, 0.0))[1], "s")
    for key in ("syntax.tokenize.tokens", "dfg.build.nodes", "dfg.build.edges",
                "corpus.extract.loops", "encode.code_truncated",
                "encode.dfg_truncated", "encode.mask_bytes", "model.attention_cells"):
        out[key] = (counts[key], "bytes" if key.endswith("bytes") else "count")
    for reason in REJECT_REASONS:
        out[f"corpus.extract.rejects.{reason}"] = (
            counts[f"corpus.extract.rejects.{reason}"], "count")
    out["corpus.extract.dedup_kept_ratio"] = (
        _ratio(counts["corpus.dedup.kept"], counts["corpus.dedup.in"]), "ratio")
    out["encode.mask.bytes_per_mask"] = (
        _ratio(counts["encode.mask_bytes"], summary.get("encode.mask", (0,))[0]), "bytes")
    out["model.pad_real_ratio"] = (
        _ratio(counts["model.pad.real"], counts["model.pad.padded"]), "ratio")
    return out


def _ratio(num, den):
    return num / den if den else 0.0


def dump(path, recorder):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(recorder.to_json(), fh)
