from dataclasses import replace

import numpy as np
import pytest

from ompadvisor.corpus import extract_from_source
from ompadvisor.encode import (
    CLS_ID, MASK_NEG, SEP_ID, UNK_ID, EncodedInput, Vocabulary, build_attention_mask,
    build_vocabulary, encode_corpus, encode_sample, pad_batch,
)
from ompadvisor.model import masked_softmax
from ompadvisor.synthetic import generate_synthetic_corpus
from oracles import reference_batch_mask


def snippet_sample(code, **label_overrides):
    """Wrap a bare statement snippet in a Sample-shaped record."""
    from ompadvisor.corpus import Sample, content_hash
    from ompadvisor.dfg import build_dfg, dfg_to_json
    from ompadvisor.syntax import parse_snippet

    snippet, _ = parse_snippet(code)
    fields = dict(label_pragma=0, label_private=0, label_reduction=0)
    fields.update(label_overrides)
    sample = Sample(
        id=content_hash(code), path="t.c", loop_code=code, context_code="",
        pragma_raw=None, dfg=dfg_to_json(build_dfg(snippet)),
        split="train", **fields,
    )
    return sample


def mask_of(enc):
    """One encoding's (L, L) mask, read through the batch builder."""
    return build_attention_mask([enc])[0]


@pytest.fixture(scope="module")
def random_encodings():
    samples = generate_synthetic_corpus(n=100, seed=123)
    vocab = build_vocabulary(samples, min_freq=2)
    encodings, _ = encode_corpus(samples, vocab)
    return encodings


# ---------------------------------------------------------------------------
# vocabulary

def test_vocabulary_spec_example():
    sample = snippet_sample("x = 1;")
    vocab = build_vocabulary([sample], min_freq=1)
    # x counts twice (code token + dfg node name); rest once, lexeme order
    assert vocab.token_to_id == {
        "[PAD]": 0, "[CLS]": 1, "[SEP]": 2, "[UNK]": 3,
        "x": 4, "1": 5, ";": 6, "=": 7,
    }


def test_vocabulary_min_freq_threshold():
    samples = [snippet_sample("x = 1;"), snippet_sample("x = 2;")]
    vocab = build_vocabulary(samples, min_freq=2)
    assert "x" in vocab.token_to_id and "=" in vocab.token_to_id
    assert "1" not in vocab.token_to_id  # appears once -> UNK
    assert vocab.lookup("1") == UNK_ID


def test_vocabulary_deterministic():
    samples = [snippet_sample("a = b + c;"), snippet_sample("b = a * 2;")]
    v1 = build_vocabulary(samples, min_freq=1)
    v2 = build_vocabulary(samples, min_freq=1)
    assert v1.token_to_id == v2.token_to_id


def test_vocabulary_requires_samples():
    with pytest.raises(ValueError):
        build_vocabulary([], min_freq=1)


def test_vocabulary_json_round_trip(tmp_path):
    vocab = build_vocabulary([snippet_sample("x = 1;")], min_freq=1, max_code=40, max_dfg=6)
    vocab.save(tmp_path / "vocab.json")
    again = Vocabulary.load(tmp_path / "vocab.json")
    assert again == vocab
    assert (again.min_freq, again.max_code, again.max_dfg) == (1, 40, 6)


@pytest.mark.parametrize("edit", [
    {"min_freq": None}, {"max_code": None}, {"max_dfg": None}, {"max_code": "40"},
    {"max_dfg": -1}, {"min_freq": 1.0}, {"max_code": True},
])
def test_vocabulary_needs_integer_limits(edit):
    """A vocabulary without max_code or max_dfg was written before they were
    stored: a ValueError that says to retrain, as for any other bad number."""
    data = build_vocabulary([snippet_sample("x = 1;")], min_freq=1).to_json()
    data.update(edit)
    data = {key: value for key, value in data.items() if value is not None}
    with pytest.raises(ValueError, match="min_freq, max_code and max_dfg.*retrain"):
        Vocabulary.from_json(data)


# ---------------------------------------------------------------------------
# masks

def test_hand_constructed_mask_for_two_token_graph():
    sample = snippet_sample("x = y;")
    vocab = build_vocabulary([sample], min_freq=1)
    enc = encode_sample(sample, vocab)
    assert enc.length == 8  # CLS + 4 code + SEP + 2 dfg
    assert enc.ids[0] == CLS_ID and enc.ids[5] == SEP_ID
    assert pad_batch([enc])[1].tolist() == [[0, 1, 2, 3, 4, 0, 0, 0]]
    assert enc.dfg_alignment == [1, 3]

    z, n = 0.0, MASK_NEG
    expected = np.array([
        [z, z, z, z, z, z, z, z],
        [z, z, z, z, z, z, z, n],
        [z, z, z, z, z, z, n, n],
        [z, z, z, z, z, z, n, z],
        [z, z, z, z, z, z, n, n],
        [z, z, z, z, z, z, z, z],
        [z, z, n, n, n, z, z, z],
        [z, n, n, z, n, z, z, z],
    ], dtype=np.float32)
    assert np.array_equal(mask_of(enc), expected)
    assert mask_of(enc).dtype == np.float32


def test_empty_dfg_mask_all_open():
    sample = snippet_sample("x = 1;")
    sample.dfg = {"nodes": [], "edges": []}
    vocab = build_vocabulary([snippet_sample("x = 1;")], min_freq=1)
    enc = encode_sample(sample, vocab)
    assert enc.length == 1 + 4 + 1
    assert np.array_equal(mask_of(enc), np.zeros((6, 6), dtype=np.float32))


def graph_encoding(n_code, dfg_alignment, edges):
    length = 1 + n_code + 1 + len(dfg_alignment)
    return EncodedInput(ids=[CLS_ID] * length, dfg_alignment=dfg_alignment, labels=(0, 0, 0),
                        edges=edges)


def test_mask_rejects_bad_alignment():
    """An alignment slot outside the code block or an edge outside the node
    range is an IndexError, alone or after a valid sample in the batch."""
    good = graph_encoding(3, [1, None], [(1, 0)])
    for alignment, edges in (([5], []), ([4], []), ([0], []), ([1, 2], [(0, 7)]),
                             ([1, 2], [(-1, 0)]), ([1, 2], [(1, 2)])):
        bad = graph_encoding(3, alignment, edges)
        for batch in ([bad], [good, bad]):
            with pytest.raises(IndexError):
                build_attention_mask(batch)
            with pytest.raises(IndexError):
                reference_batch_mask(batch)


def test_mask_properties_on_random_encodings(random_encodings):
    assert len(random_encodings) == 100
    for enc in random_encodings:
        mask = mask_of(enc)
        n_dfg = len(enc.dfg_alignment)
        n_code = enc.length - 2 - n_dfg
        sep = n_code + 1
        base = n_code + 2
        assert np.array_equal(mask, mask.T)
        assert np.all(mask[: sep + 1, : sep + 1] == 0.0)
        assert np.all((mask == 0.0) | (mask == np.float32(MASK_NEG)))
        connected = {(t, f) for t, f in enc.edges} | {(f, t) for t, f in enc.edges}
        for i in range(n_dfg):
            row = mask[base + i]
            assert row[0] == 0.0 and row[sep] == 0.0
            for j in range(n_dfg):
                allowed = i == j or (i, j) in connected
                assert (row[base + j] == 0.0) == allowed


def test_dfg_block_zeros_iff_edge_or_diagonal(random_encodings):
    for enc in random_encodings[:30]:
        n_dfg = len(enc.dfg_alignment)
        n_code = enc.length - 2 - n_dfg
        base = n_code + 2
        block = mask_of(enc)[base:, base:]
        # zeros must be symmetric and include the diagonal
        zero_pairs = {(i, j) for i in range(n_dfg) for j in range(n_dfg)
                      if block[i, j] == 0.0}
        assert all((j, i) in zero_pairs for i, j in zero_pairs)
        assert all((i, i) in zero_pairs for i in range(n_dfg))


def test_masked_softmax_is_exactly_zero(random_encodings):
    rng = np.random.default_rng(0)
    for enc in random_encodings[:50]:
        mask = mask_of(enc)
        logits = rng.normal(0, 1, size=mask.shape).astype(np.float32) + mask
        weights = masked_softmax(logits)
        assert np.all(weights[mask != 0.0] == 0.0)
        np.testing.assert_allclose(weights.sum(axis=-1), 1.0, atol=1e-6)


# ---------------------------------------------------------------------------
# batch masks against the per-sample reference builder

@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_batch_mask_equals_reference_on_random_encodings(random_encodings, dtype):
    for start in range(0, len(random_encodings), 32):
        batch = random_encodings[start : start + 32]
        mask = build_attention_mask(batch, dtype)
        assert mask.dtype == dtype
        assert np.array_equal(mask, reference_batch_mask(batch, dtype))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_padded_mask_equals_reference_on_shuffled_mixed_batches(dtype):
    samples = generate_synthetic_corpus(n=200, seed=8)
    vocab = build_vocabulary(samples, min_freq=2)
    encodings = []
    for max_code, max_dfg in ((256, 32), (16, 32), (256, 6), (16, 6)):
        encodings += encode_corpus(samples[:50], replace(vocab, max_code=max_code,
                                                         max_dfg=max_dfg))[0]
        samples = samples[50:]
    assert any(e.code_truncated and not e.dfg_truncated for e in encodings)
    assert any(e.dfg_truncated and not e.code_truncated for e in encodings)
    assert any(None in e.dfg_alignment for e in encodings)
    rng = np.random.default_rng(5)
    order = rng.permutation(len(encodings))
    start = 0
    while start < len(order):
        size = int(rng.integers(1, 33))
        batch = [encodings[i] for i in order[start : start + size]]
        start += size
        ids, positions, mask, labels = pad_batch(batch, dtype)
        assert mask.dtype == dtype and labels.dtype == dtype
        assert np.array_equal(mask, reference_batch_mask(batch, dtype))
        for row, enc in enumerate(batch):
            assert ids[row, : enc.length].tolist() == enc.ids
            assert positions[row].tolist() == expected_positions(enc, ids.shape[1])
            assert tuple(labels[row]) == enc.labels


def expected_positions(enc, length):
    """A code token's position is its slot; CLS, SEP, nodes and pads get 0."""
    n_code = enc.length - 2 - len(enc.dfg_alignment)
    return [0] + list(range(1, n_code + 1)) + [0] * (length - n_code - 1)


def test_positions_of_truncated_code_and_nodes():
    """Batches with a sample cut at max_code, at max_dfg and at both give each
    kept code token its slot as position, and every other slot 0."""
    terms = " + ".join(f"v{i}" for i in range(20))  # 42 code tokens, 21 nodes
    cut = snippet_sample(f"x = {terms};")
    short = snippet_sample("y = x + 1;")  # 6 code tokens, 2 nodes
    vocab = build_vocabulary([cut, short], min_freq=1)
    for max_code, max_dfg in ((16, 32), (256, 8), (16, 8)):
        limited = replace(vocab, max_code=max_code, max_dfg=max_dfg)
        batch = [encode_sample(cut, limited), encode_sample(short, limited)]
        assert (batch[0].code_truncated, batch[0].dfg_truncated) == (max_code < 42, max_dfg < 21)
        _, positions, _, _ = pad_batch(batch)
        n_code, n_nodes = min(max_code, 42), min(max_dfg, 21)
        assert positions[0].tolist() == [0] + list(range(1, n_code + 1)) + [0] * (1 + n_nodes)
        assert positions[1].tolist() == [0, 1, 2, 3, 4, 5, 6] + [0] * (n_code + n_nodes - 5)


# ---------------------------------------------------------------------------
# encoding

def test_truncation_head_keep():
    terms = " + ".join(f"v{i}" for i in range(150))  # 299 expression tokens
    sample = snippet_sample(f"x = {terms};")
    vocab = build_vocabulary([sample], min_freq=1)
    assert (vocab.max_code, vocab.max_dfg) == (256, 32)
    enc = encode_sample(sample, vocab)
    assert enc.code_truncated
    assert enc.dfg_truncated
    n_dfg = len(enc.dfg_alignment)
    assert n_dfg == 32
    assert enc.length == 1 + 256 + 1 + 32
    assert all(slot is None or 1 <= slot <= 256 for slot in enc.dfg_alignment)


def test_truncation_drops_edges_to_dropped_nodes():
    terms = " + ".join(f"v{i}" for i in range(40))
    sample = snippet_sample(f"x = {terms};\ny = x + v0;")
    vocab = build_vocabulary([sample], min_freq=1, max_dfg=8)
    enc = encode_sample(sample, vocab)
    base = enc.length - 8
    block = mask_of(enc)[base:, base:]
    assert block.shape == (8, 8)


def test_vocabulary_closure(random_encodings):
    samples = generate_synthetic_corpus(n=30, seed=9)
    vocab = build_vocabulary(samples, min_freq=2)
    encodings, _ = encode_corpus(samples, vocab)
    for enc in encodings:
        assert max(enc.ids) < vocab.size
        assert min(enc.ids) >= 0


def test_rename_robustness_hook():
    from ompadvisor.augment import rename_variables
    from ompadvisor.syntax import tokenize

    source = "void f(int n) { int i; for (i = 0; i < n; i++) { a[i] = b[i]; } }"
    sample = extract_from_source(source, "t.c")[0][0]
    renamed = rename_variables(sample, 1.0, seed=4)

    vocab = build_vocabulary([sample], min_freq=1)
    enc = encode_sample(sample, vocab)
    enc_renamed = encode_sample(renamed, vocab)

    assert enc_renamed.length == enc.length
    assert np.array_equal(mask_of(enc_renamed), mask_of(enc))
    assert np.array_equal(pad_batch([enc_renamed])[1], pad_batch([enc])[1])

    tokens = tokenize(sample.source_text())
    n_code = len(tokens)
    for slot in range(enc.length):
        if enc.ids[slot] == enc_renamed.ids[slot]:
            continue
        if 1 <= slot <= n_code:
            assert tokens[slot - 1].kind == "identifier"
        else:
            assert slot > n_code + 1  # a data-flow node slot (renamed name)


def test_encode_stats_counts():
    samples = [snippet_sample("x = y;"), snippet_sample("a = b + c;")]
    vocab = build_vocabulary(samples, min_freq=1, max_code=4, max_dfg=2)
    _, stats = encode_corpus(samples, vocab)
    assert stats["samples"] == 2
    assert stats["code_truncated"] == 1  # "x = y;" fits exactly
    assert stats["dfg_truncated"] == 1
    assert (stats["max_code"], stats["max_dfg"]) == (4, 2)
