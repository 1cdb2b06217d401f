"""Length-sorted batches: coverage, the cell budget, row order, agreement of
batched probabilities with single-sample runs, and training steps whose
summed sub-batch gradients equal the one-padded-batch step."""

import dataclasses

import numpy as np
import pytest

import ompadvisor.encode
import ompadvisor.model
from ompadvisor.corpus import extract_from_source
from ompadvisor.encode import (
    BATCH_CELLS, build_vocabulary, encode_corpus, encode_sample, length_batches, pad_batch,
)
from ompadvisor.metrics import predict_rows
from ompadvisor.model import LABELS, Adam, ModelConfig, batch_gradients, forward_batch, init_params
from ompadvisor.synthetic import generate_synthetic_corpus

from oracles import reference_train_step


def long_loop_sample(n_terms):
    """One loop summing n_terms array reads: 5 code tokens and 2 data-flow
    nodes per term, so it truncates its code past 50 terms and its nodes
    past 16."""
    terms = " + ".join(f"v{k}[i]" for k in range(n_terms))
    source = ("void f(int n, double *a) {\nint i;\nfor (i = 0; i < n; i++) {\n"
              f"a[i] = {terms};\n}}\n}}\n")
    (sample,), _ = extract_from_source(source, f"long{n_terms}.c")
    return sample


@pytest.fixture(scope="module")
def mixed():
    """(samples, vocab, params, config): short synthetic loops mixed with
    long ones, some truncated, one longer alone than the cell budget."""
    samples = generate_synthetic_corpus(n=150, seed=21)
    samples += [long_loop_sample(n) for n in (3, 8, 12, 20, 30, 45, 60, 80)]
    vocab = build_vocabulary(samples, min_freq=1)
    config = ModelConfig(vocab_size=vocab.size, d_model=16, n_heads=2, n_layers=2,
                         d_ff=32, dropout_rate=0.0, seed=4)
    rng = np.random.default_rng(4)
    # O(1) weights, so that every row's probabilities differ visibly
    params = {k: (v + rng.normal(0.0, 0.3, size=v.shape)).astype(np.float32)
              for k, v in init_params(config).items()}
    return samples, vocab, params, config


def encodings_of(samples, vocab):
    return encode_corpus(samples, vocab)[0]


def test_mixed_set_covers_truncation_and_the_budget(mixed):
    samples, vocab, _, _ = mixed
    encodings = encodings_of(samples, vocab)
    assert any(e.code_truncated for e in encodings)
    assert any(e.dfg_truncated and not e.code_truncated for e in encodings)
    assert any(e.length ** 2 > BATCH_CELLS for e in encodings)


def shuffled_mixes(n_samples, seed=0):
    """Index lists of shuffled mixes of 1 sample up to all n_samples, the
    full set last."""
    rng = np.random.default_rng(seed)
    sizes = [1, 2, 7, 31, int(rng.integers(50, 150)), n_samples]
    return [list(rng.permutation(n_samples)[:size]) for size in sizes]


def test_length_batches_cover_once_within_budget(mixed):
    samples, vocab, _, _ = mixed
    encodings = encodings_of(samples, vocab)
    for mix in shuffled_mixes(len(encodings)):
        batch_input = [encodings[i] for i in mix]
        batches = length_batches(batch_input)
        assert sorted(i for b in batches for i in b) == list(range(len(mix)))
        for batch in batches:
            longest = max(batch_input[i].length for i in batch)
            assert len(batch) * longest ** 2 <= BATCH_CELLS or len(batch) == 1
        lengths = [batch_input[i].length for b in batches for i in b]
        assert lengths == sorted(lengths)


def test_length_batches_sort_stably():
    class Enc:
        def __init__(self, length):
            self.length = length

    encodings = [Enc(n) for n in (9, 3, 9, 3, 300, 9)]
    assert [i for b in length_batches(encodings) for i in b] == [1, 3, 0, 2, 5, 4]
    assert length_batches([]) == []


def test_predict_rows_match_single_sample_runs_in_input_order(mixed):
    samples, vocab, params, config = mixed
    single = {}
    for sample in samples:
        ids, positions, mask, _ = pad_batch([encode_sample(sample, vocab)])
        single[sample.id] = forward_batch(params, config, ids, positions, mask)[0][0]
    spread = np.ptp(np.array(list(single.values())), axis=0)
    assert spread.min() > 1e-2  # rows out of order could not pass unnoticed
    for mix in shuffled_mixes(len(samples), seed=1):
        chosen = [samples[i] for i in mix]
        rows, _ = predict_rows(params, config, vocab, chosen)
        assert [r["id"] for r in rows] == [s.id for s in chosen]
        for row, sample in zip(rows, chosen):
            got = [row[f"p_{label}"] for label in LABELS]
            np.testing.assert_allclose(got, single[sample.id], rtol=0, atol=2e-7)
            assert [row[f"label_{label}"] for label in LABELS] == [
                getattr(sample, f"label_{label}") for label in LABELS]


def test_predict_rows_pads_no_more_than_twice_the_real_cells(mixed, monkeypatch):
    """A guard without timing: the (B, L) shapes predict_rows pads hold at
    most twice the Σ L² of the real lengths. Corpus-order chunks pad every
    sample to its chunk's longest and exceed this many times over here."""
    samples, vocab, params, config = mixed
    short = [s for s in samples if not s.path.startswith("long")]
    long = [s for s in samples if s.path.startswith("long")]
    interleaved = [s for pair in zip(long * 19, short) for s in pair]  # long, short, ...
    padded = []

    def counting_pad_batch(encodings, *args, **kwargs):
        out = pad_batch(encodings, *args, **kwargs)
        padded.append(out[0].shape)
        return out

    monkeypatch.setattr(ompadvisor.model, "pad_batch", counting_pad_batch)
    predict_rows(params, config, vocab, interleaved)
    assert padded
    real = sum(e.length ** 2 for e in encodings_of(interleaved, vocab))
    assert sum(b * length ** 2 for b, length in padded) <= 2 * real


# ---------------------------------------------------------------------------
# training steps: length sub-batches, gradients summed


def training_chunks(encodings, n_chunks, size, seed):
    """Shuffled chunks of size encodings, each holding at least one of the
    long ones (the longest, over the cell budget alone, in the first)."""
    rng = np.random.default_rng(seed)
    by_length = sorted(range(len(encodings)), key=lambda i: encodings[i].length)
    chunks = []
    for c in range(n_chunks):
        long = by_length[-1 - c]
        rest = [i for i in rng.permutation(len(encodings)) if i != long][: size - 1]
        chunks.append([encodings[i] for i in rng.permutation([long] + rest)])
    return chunks


def step_both_ways(params, config, chunks, dropout_seed=0):
    """Run chunks through the length sub-batched step and through the
    one-padded-batch oracle from the same params and rng seed; returns, per
    step, (probs, grads) of each plus the params both end with."""
    new = {k: v.copy() for k, v in params.items()}
    old = {k: v.copy() for k, v in params.items()}
    new_adam, old_adam = Adam(new), Adam(old)
    new_rng, old_rng = (np.random.default_rng(dropout_seed) for _ in range(2))
    steps = []
    for chunk in chunks:
        probs, _, grads = batch_gradients(new, config, chunk, rng=new_rng)
        new_adam.step(new, grads)
        steps.append(((probs, grads), reference_train_step(old, config, old_adam, chunk, old_rng)))
    return steps, new, old


def test_a_budget_that_fits_the_batch_gives_the_one_padded_step(mixed, monkeypatch):
    """One sub-batch per step is the old step exactly, dropout included."""
    samples, vocab, params, config = mixed
    config = dataclasses.replace(config, dropout_rate=0.1)
    monkeypatch.setattr(ompadvisor.encode, "BATCH_CELLS", 10 ** 9)
    chunks = training_chunks(encodings_of(samples, vocab), n_chunks=3, size=16, seed=5)
    steps, new, old = step_both_ways(params, config, chunks)
    for (new_probs, _), (old_probs, _) in steps:
        assert np.array_equal(new_probs, old_probs)
    for key in params:
        assert new[key].dtype == old[key].dtype
        assert new[key].tobytes() == old[key].tobytes(), key


def test_summed_sub_batch_gradients_match_one_padded_batch(mixed):
    """At the default budget and dropout 0, summing the sub-batch gradients
    only reorders float sums: 1e-12 relative in float64, and within the
    2e-7 probability tolerance in float32, before and after the steps."""
    samples, vocab, params, config = mixed
    encodings = encodings_of(samples, vocab)
    chunks = training_chunks(encodings, n_chunks=2, size=24, seed=6)
    assert all(len(length_batches(chunk)) > 1 for chunk in chunks)
    assert any(e.length ** 2 > BATCH_CELLS for e in chunks[0])

    wide = {k: v.astype(np.float64) for k, v in params.items()}
    steps, _, _ = step_both_ways(wide, config, chunks)
    for (new_probs, new_grads), (old_probs, old_grads) in steps:
        np.testing.assert_allclose(new_probs, old_probs, rtol=1e-12, atol=0)
        # Some gradients are zero but for rounding (a key bias shifts every
        # score of a row alike), so the floor is the largest gradient's scale.
        scale = max(np.abs(grad).max() for grad in old_grads.values())
        for key, grad in old_grads.items():
            np.testing.assert_allclose(new_grads[key], grad, rtol=1e-12, atol=1e-12 * scale,
                                       err_msg=key)

    steps, new, old = step_both_ways(params, config, chunks)
    for (new_probs, _), (old_probs, _) in steps:
        np.testing.assert_allclose(new_probs, old_probs, rtol=0, atol=2e-7)
    for chunk in chunks:
        ids, positions, mask, _ = pad_batch(chunk)
        np.testing.assert_allclose(forward_batch(new, config, ids, positions, mask)[0],
                                   forward_batch(old, config, ids, positions, mask)[0],
                                   rtol=0, atol=2e-7)
