"""The benchmark's traced run wraps functions at the module attributes where
their callers look them up (perfbench/spans.py). These tests keep every such
binding resolvable, so a refactor that drops a traced name fails here."""

import importlib.util
from pathlib import Path

import numpy as np

import ompadvisor.model
from ompadvisor.encode import build_vocabulary, encode_corpus
from ompadvisor.synthetic import generate_synthetic_corpus

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_binding_is_wrapped_and_restored():
    spans = load_spans()
    bindings = [(owner, attr) for owner, attr, _, _ in spans._bindings()]
    missing = [f"{owner.__name__}.{attr}" for owner, attr in bindings
               if attr not in owner.__dict__]
    assert not missing
    before = [owner.__dict__[attr] for owner, attr in bindings]
    with spans.installed(spans.Recorder()):
        during = [owner.__dict__[attr] for owner, attr in bindings]
    after = [owner.__dict__[attr] for owner, attr in bindings]
    assert all(d is not b for d, b in zip(during, before))
    assert all(a is b for a, b in zip(after, before))


def test_batch_mask_is_traced_inside_pad_batch():
    """encode.mask counts one call and the bytes of one padded mask per batch."""
    spans = load_spans()
    samples = generate_synthetic_corpus(n=10, seed=2)
    encodings, _ = encode_corpus(samples, build_vocabulary(samples, min_freq=1))
    rec = spans.Recorder()
    with spans.installed(rec):
        _, _, mask = ompadvisor.model.pad_batch(encodings)
    length = max(e.length for e in encodings)
    assert mask.shape == (10, length, length) and mask.dtype == np.float32
    assert rec.names == ["model.pad_batch", "encode.mask"]
    assert rec.parents == [-1, 0]
    metrics = spans.layer_metrics(rec)
    assert metrics["encode.mask.calls"] == (1, "count")
    assert metrics["encode.mask_bytes"] == (mask.nbytes, "bytes")
