import dataclasses
import itertools
import math
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ompadvisor.encode
import ompadvisor.model
from ompadvisor.corpus import extract_for_prediction
from ompadvisor.encode import (
    MASK_NEG, PAD_ID, build_vocabulary, encode_corpus, encode_sample, length_batches,
)
from ompadvisor.metrics import predict_rows
from ompadvisor.model import (
    LABELS, Adam, ModelConfig, TrainingDiverged, Workspace, _drop_scale, _dropped,
    _keep_pattern, _random_check_input, _weight_grad, backward_batch, batch_gradients,
    check_gradients, compute_loss, forward_batch, forward_pass, init_params, load_model,
    masked_softmax, pad_batch, param_layout, predict_source, relative_error, save_model,
    small_config, threshold_labels, train,
)
from ompadvisor.synthetic import generate_synthetic_corpus
from oracles import reference_forward_batch

SRC = Path(__file__).resolve().parent.parent / "src"


def tiny_inputs(config, length=4, seed=0, mask=None):
    rng = np.random.default_rng(seed)
    ids = rng.integers(1, config.vocab_size, size=(1, length))
    positions = np.arange(length).reshape(1, length)
    if mask is None:
        mask = np.zeros((1, length, length))
    labels = np.array([[1.0, 0.0, 1.0]])
    return ids, positions, mask, labels


# ---------------------------------------------------------------------------
# independent straight-line reimplementation of the forward arithmetic

def reference_forward(params, config, ids, positions, mask):
    """Pure-Python single-head, single-layer forward pass for cross-checking."""
    assert config.n_layers == 1 and config.n_heads == 1
    d = config.d_model
    length = len(ids)

    def rows(name):
        return [[float(v) for v in row] for row in params[name]]

    def vec(name):
        return [float(v) for v in params[name]]

    def matvec(m, x):
        return [sum(x[i] * m[i][j] for i in range(len(x))) for j in range(len(m[0]))]

    def layer_norm(x, g, b):
        mu = sum(x) / len(x)
        var = sum((v - mu) ** 2 for v in x) / len(x)
        inv = 1.0 / math.sqrt(var + 1e-5)
        return [(v - mu) * inv * g[i] + b[i] for i, v in enumerate(x)]

    tok_emb, pos_emb = rows("tok_emb"), rows("pos_emb")
    x = [[tok_emb[ids[t]][j] + pos_emb[positions[t]][j] for j in range(d)]
         for t in range(length)]

    wq, bq = rows("layer0.wq"), vec("layer0.bq")
    wk, bk = rows("layer0.wk"), vec("layer0.bk")
    wv, bv = rows("layer0.wv"), vec("layer0.bv")
    wo, bo = rows("layer0.wo"), vec("layer0.bo")
    q = [[matvec(wq, x[t])[j] + bq[j] for j in range(d)] for t in range(length)]
    k = [[matvec(wk, x[t])[j] + bk[j] for j in range(d)] for t in range(length)]
    v = [[matvec(wv, x[t])[j] + bv[j] for j in range(d)] for t in range(length)]

    scale = config.attn_scale
    context = []
    for t in range(length):
        scores = [sum(q[t][j] * k[u][j] for j in range(d)) / scale + mask[t][u]
                  for u in range(length)]
        peak = max(scores)
        exp = [math.exp(s - peak) for s in scores]
        norm = sum(exp)
        weights = [e / norm for e in exp]
        context.append([sum(weights[u] * v[u][j] for u in range(length))
                        for j in range(d)])

    g1, b1n = vec("layer0.ln1_g"), vec("layer0.ln1_b")
    g2, b2n = vec("layer0.ln2_g"), vec("layer0.ln2_b")
    w1, b1 = rows("layer0.w1"), vec("layer0.b1")
    w2, b2 = rows("layer0.w2"), vec("layer0.b2")

    hidden = []
    for t in range(length):
        proj = [matvec(wo, context[t])[j] + bo[j] for j in range(d)]
        x1 = layer_norm([x[t][j] + proj[j] for j in range(d)], g1, b1n)
        ff = [max(0.0, matvec(w1, x1)[j] + b1[j]) for j in range(len(b1))]
        ff_out = [matvec(w2, ff)[j] + b2[j] for j in range(d)]
        hidden.append(layer_norm([x1[j] + ff_out[j] for j in range(d)], g2, b2n))

    head_w, head_b = rows("head_w"), vec("head_b")
    logits = [matvec(head_w, hidden[0])[j] + head_b[j] for j in range(3)]
    return [1.0 / (1.0 + math.exp(-z)) for z in logits], hidden


def test_forward_matches_independent_reimplementation():
    config = ModelConfig(vocab_size=12, d_model=8, n_heads=1, n_layers=1,
                         d_ff=16, max_len=16, dropout_rate=0.0, seed=5)
    params = {k: v.astype(np.float64) for k, v in init_params(config).items()}
    rng = np.random.default_rng(2)
    for key in params:
        params[key] = params[key] + rng.normal(0, 0.3, size=params[key].shape)

    ids = np.array([[1, 4, 7, 2]])
    positions = np.array([[0, 1, 2, 3]])
    mask = np.zeros((1, 4, 4))
    mask[0, 1, 3] = mask[0, 3, 1] = MASK_NEG

    probs, cache = forward_batch(params, config, ids, positions, mask, train=True)
    ref_probs, ref_hidden = reference_forward(
        params, config, ids[0].tolist(), positions[0].tolist(), mask[0].tolist())

    np.testing.assert_allclose(probs[0], ref_probs, rtol=1e-10, atol=1e-12)
    # the last layer computes its rows up to CLS only
    np.testing.assert_allclose(cache["hidden"][0], ref_hidden[:2], rtol=1e-10, atol=1e-12)


# ---------------------------------------------------------------------------
# forward properties

def train_attention(n_layers, length, mask, seed):
    """The attention weights of each layer of a train forward of small_config
    at n_layers: every row of each layer but the last, the last layer's rows
    up to CLS."""
    config = dataclasses.replace(small_config(), n_layers=n_layers)
    ids, positions, _, _ = tiny_inputs(config, length, seed=seed)
    _, cache = forward_batch(init_params(config), config, ids, positions, mask, train=True)
    attns = [c["attn"] for c in cache["layers"]]
    assert [a.shape[2] for a in attns] == [length] * (n_layers - 1) + [2]
    return attns


def test_diagonal_mask_gives_identity_attention():
    length = 5
    mask = np.full((1, length, length), MASK_NEG)
    for i in range(length):
        mask[0, i, i] = 0.0
    for n_layers in (1, 2):
        for attn in train_attention(n_layers, length, mask, seed=0):
            for head in range(attn.shape[1]):
                np.testing.assert_allclose(attn[0, head], np.eye(length)[:attn.shape[2]],
                                           atol=1e-12)


def test_probabilities_in_open_interval():
    config = small_config()
    params = init_params(config)
    ids, positions, mask, _ = tiny_inputs(config, 6, seed=3)
    probs, _ = forward_batch(params, config, ids, positions, mask)
    assert np.all(np.isfinite(probs))
    assert np.all(probs > 0.0) and np.all(probs < 1.0)


def test_attention_rows_are_distributions():
    length = 6
    rng = np.random.default_rng(8)
    mask = np.zeros((1, length, length))
    closed = np.triu(rng.random((length, length)) < 0.4, 1)
    closed = closed | closed.T
    mask[0][closed] = MASK_NEG
    for attn in train_attention(1, length, mask, seed=4) + train_attention(2, length, mask, seed=4):
        assert np.all(attn >= 0.0)
        np.testing.assert_allclose(attn.sum(axis=-1), 1.0, atol=1e-6)
        assert np.all(attn[0, :, mask[0, :attn.shape[2]] != 0.0] == 0.0)


# ---------------------------------------------------------------------------
# eval mode: the last layer at the rows up to CLS only


def mixed_eval_batch(n_layers, dtype, seed):
    """Params at O(1) scale and a shuffled padded batch of mixed lengths:
    random samples with data-flow nodes, edges and truncated-away nodes,
    and synthetic loops cut short by max_code, padded to the longest."""
    samples = generate_synthetic_corpus(n=12, seed=seed)
    vocab = build_vocabulary(samples, min_freq=1)
    config = ModelConfig(vocab_size=vocab.size, d_model=8, n_heads=2, n_layers=n_layers,
                         d_ff=16, max_len=64, dropout_rate=0.1, seed=seed)
    rng = np.random.default_rng(seed)
    params = {k: (v + rng.normal(0.0, 0.5, size=v.shape)).astype(dtype)
              for k, v in init_params(config).items()}
    encodings = _random_check_input(config, rng, (3, 5, 9, 17, 30))
    limited = build_vocabulary(samples, min_freq=1, max_code=12, max_dfg=4)
    truncated = [encode_sample(s, limited) for s in samples[:6]]
    assert any(e.code_truncated for e in truncated)
    encodings += truncated
    ids, positions, mask, _ = pad_batch([encodings[i] for i in rng.permutation(len(encodings))],
                                        dtype=dtype)
    assert (ids == PAD_ID).any()
    return params, config, ids, positions, mask


@pytest.mark.parametrize("n_layers", [1, 2, 3])
@pytest.mark.parametrize("dtype, rtol, atol", [(np.float64, 1e-12, 0.0), (np.float32, 0.0, 2e-7)])
def test_eval_forward_matches_every_row_reference(n_layers, dtype, rtol, atol):
    """Computing only the rows up to CLS in the last layer changes no
    probability beyond float rounding: every op after its keys and values
    is row-wise."""
    for seed in (0, 1):
        params, config, ids, positions, mask = mixed_eval_batch(n_layers, dtype, seed)
        probs, cache = forward_batch(params, config, ids, positions, mask)
        ref, _ = reference_forward_batch(params, config, ids, positions, mask)
        assert cache is None and probs.dtype == dtype
        assert np.ptp(ref, axis=0).min() > 1e-3  # rows out of order would show
        np.testing.assert_allclose(probs, ref, rtol=rtol, atol=atol)


def test_train_forward_without_rng_is_the_reference_forward():
    """train=True keeps the cache, with the last layer at its rows up to CLS
    as in eval mode; without an rng it draws no dropout, so its
    probabilities, each layer's input and the last layer's computed rows
    are the reference every-row forward's."""
    params, config, ids, positions, mask = mixed_eval_batch(2, np.float64, 0)
    probs, cache = forward_batch(params, config, ids, positions, mask, train=True)
    ref, ref_cache = reference_forward_batch(params, config, ids, positions, mask)
    assert np.array_equal(probs, ref)
    assert np.array_equal(cache["hidden"], ref_cache["hidden"][:, :2])
    for layer, ref_layer in zip(cache["layers"], ref_cache["layers"]):
        assert np.array_equal(layer["x_in"], ref_layer["x_in"])
    assert all(c["attn_keep"] is None for c in cache["layers"])


def test_train_forward_runs_the_last_layer_at_the_cls_rows(monkeypatch):
    """A guard without timing: at n_layers = 2 a train forward takes one
    (B, H, L, L) softmax, then one (B, H, 2, L), as an eval forward does."""
    params, config, ids, positions, mask = mixed_eval_batch(2, np.float32, 0)
    shapes = []

    def recording_softmax(scores, out=None):
        shapes.append(scores.shape)
        return masked_softmax(scores, out=out)

    monkeypatch.setattr(ompadvisor.model, "masked_softmax", recording_softmax)
    _, cache = forward_batch(params, config, ids, positions, mask, train=True,
                             rng=np.random.default_rng(1))
    (b, length), h = ids.shape, config.n_heads
    assert shapes == [(b, h, length, length), (b, h, 2, length)]
    assert cache["hidden"].shape == (b, 2, config.d_model)


@pytest.mark.parametrize("n_layers", [1, 2, 3])
def test_train_forward_draws_every_row_keep_pattern(n_layers):
    """Each site's keep-pattern is drawn at its every-row shape, in site
    order: the generator ends the forward in the state those draws leave,
    and each cached keep-pattern is its full pattern's computed rows, so
    computing fewer rows changes no dropout decision of a computed cell."""
    params, config, ids, positions, mask = mixed_eval_batch(n_layers, np.float32, 0)
    (b, length), h, d = ids.shape, config.n_heads, config.d_model
    rng = np.random.default_rng(21)
    _, cache = forward_batch(params, config, ids, positions, mask, train=True, rng=rng)
    replay, workspace = np.random.default_rng(21), Workspace()
    for layer, c in enumerate(cache["layers"]):
        rows = 2 if layer == n_layers - 1 else length
        for site, shape in (("attn_keep", (b, h, length, length)),
                            ("proj_keep", (b, length, d)), ("ff_keep", (b, length, d))):
            full = _keep_pattern(replay, config.dropout_rate, shape, workspace, "keep")
            assert np.array_equal(c[site], full[..., :rows, :]), (layer, site)
    assert rng.bit_generator.state == replay.bit_generator.state


def test_eval_forward_runs_the_last_layer_at_the_cls_rows(monkeypatch):
    """A guard without timing: at n_layers = 2 an eval forward takes one
    (B, H, L, L) softmax, then one (B, H, 2, L) over the rows up to CLS
    (two, so that BLAS sums row 0 as in the full product), and keeps no
    cache. Each eval softmax writes its weights over its scores."""
    params, config, ids, positions, mask = mixed_eval_batch(2, np.float32, 0)
    shapes, in_place = [], []

    def recording_softmax(scores, out=None):
        shapes.append(scores.shape)
        in_place.append(out is scores)
        return masked_softmax(scores, out=out)

    monkeypatch.setattr(ompadvisor.model, "masked_softmax", recording_softmax)
    _, cache = forward_batch(params, config, ids, positions, mask)
    (b, length), h = ids.shape, config.n_heads
    assert shapes == [(b, h, length, length), (b, h, 2, length)]
    assert in_place == [True, True]
    assert cache is None


# ---------------------------------------------------------------------------
# dropout keep-patterns

LARGEST_BELOW_ONE = float(np.nextafter(1.0, 0.0))


@pytest.mark.parametrize("rate", [0.1, 0.5, 0.9, LARGEST_BELOW_ONE])
def test_keep_pattern_keeps_one_minus_rate(rate):
    """The kept fraction lies within six binomial standard deviations (and
    one cell) of 1 - rate. At the largest rate below 1 the threshold rounds
    to 2³², which must not wrap to 0 and keep every cell."""
    shape = (5, 7, 99, 101)  # an odd count: the last draw's high lane goes unused
    keep = _keep_pattern(np.random.default_rng(5), rate, shape, Workspace(), "keep")
    assert keep.dtype == bool and keep.shape == shape
    n, p = keep.size, 1.0 - rate
    assert abs(keep.mean() - p) <= 6 * math.sqrt(p * (1 - p) / n) + 1 / n


def test_keep_pattern_reads_two_lanes_of_each_raw_draw():
    """Draw i decides cells 2i and 2i + 1 by its low and its high 32 bits,
    however the draws are chunked."""
    n, rate = 4 * ompadvisor.model._DRAW_CHUNK + 3, 0.3
    keep = _keep_pattern(np.random.default_rng(9), rate, (n,), Workspace(), "keep")
    draws = [int(d) for d in np.random.default_rng(9).bit_generator.random_raw(-(-n // 2))]
    lanes = [lane for d in draws for lane in (d & 0xFFFFFFFF, d >> 32)]
    assert np.array_equal(keep, np.array(lanes[:n]) >= round(rate * 2**32))


@pytest.mark.parametrize("rate", [0.1, 0.15, 0.5, 0.9, LARGEST_BELOW_ONE])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_dropout_scales_kept_cells_and_zeroes_the_rest(rate, dtype):
    rng = np.random.default_rng(3)
    x = rng.normal(size=(4, 6, 8)).astype(dtype)
    keep = _keep_pattern(rng, rate, x.shape, Workspace(), "keep")
    out = _dropped(x, keep, _drop_scale(rate, x.dtype), np.empty_like(x))
    assert np.array_equal(out[keep], x[keep] * dtype(1 / (1 - rate)))
    assert np.all(out[~keep] == 0.0)


def test_dropout_rate_zero_draws_nothing():
    """Rate 0 (or no generator) makes no keep-pattern and leaves the
    generator's state alone, even through a train-mode forward, so a
    training run at rate 0 draws only its permutations."""
    rng = np.random.default_rng(4)
    state = rng.bit_generator.state
    assert _keep_pattern(rng, 0.0, (3, 4), Workspace(), "keep") is None
    assert _keep_pattern(None, 0.5, (3, 4), Workspace(), "keep") is None
    params, config, ids, positions, mask = mixed_eval_batch(2, np.float32, 0)
    config = dataclasses.replace(config, dropout_rate=0.0)
    _, cache = forward_batch(params, config, ids, positions, mask, train=True, rng=rng)
    assert all(c["attn_keep"] is None and c["ff_keep"] is None for c in cache["layers"])
    assert rng.bit_generator.state == state


# ---------------------------------------------------------------------------
# loss

def test_loss_analytic_values():
    assert compute_loss([0.5, 0.5, 0.5], [0, 1, 0]) == pytest.approx(math.log(2), rel=1e-12)
    assert compute_loss([0.0, 1.0, 0.0], [0, 1, 0]) <= 3e-7
    assert compute_loss([1.0, 0.0, 1.0], [1, 0, 1]) <= 3e-7


def test_loss_decreases_on_memorizable_sample():
    config = small_config()
    params = init_params(config)
    optimizer = Adam(params)
    ids, positions, mask, labels = tiny_inputs(config, 5, seed=1)
    losses = []
    for _ in range(50):
        probs, cache = forward_batch(params, config, ids, positions, mask, train=True)
        losses.append(compute_loss(probs, labels))
        grads = backward_batch(params, config, cache, probs, labels)
        optimizer.step(params, grads)
    assert losses[-1] < losses[0]


def test_memorization_drives_loss_below_threshold():
    config = small_config()
    params = init_params(config)
    optimizer = Adam(params, lr=1e-2)
    ids, positions, mask, labels = tiny_inputs(config, 6, seed=2)
    loss = None
    for _ in range(200):
        probs, cache = forward_batch(params, config, ids, positions, mask, train=True)
        loss = compute_loss(probs, labels)
        if loss < 0.01:
            break
        grads = backward_batch(params, config, cache, probs, labels)
        optimizer.step(params, grads)
    assert loss < 0.01


# ---------------------------------------------------------------------------
# gradients

def test_gradient_check_open_mask():
    err, _ = check_gradients(mask_mode="open", seed=11)
    assert err < 1e-3


def test_gradient_check_random_mask():
    err, _ = check_gradients(mask_mode="random", seed=11)
    assert err < 1e-3


def test_gradient_check_division_by_d_path():
    err, _ = check_gradients(config=small_config(scale_mode="d"),
                             mask_mode="random", seed=5)
    assert err < 1e-3


def test_gradient_check_padded_batch():
    """Three samples of different lengths padded to the longest: the weight
    gradients sum over every (sample, slot) row, pad rows included."""
    config = small_config()
    lengths = (3, 6, 9)
    ids, _, mask, _ = pad_batch(_random_check_input(config, np.random.default_rng(0), lengths),
                                dtype=np.float64)
    assert ids.shape == (3, 9)
    assert [int((row == PAD_ID).sum()) for row in ids] == [6, 3, 0]
    assert np.all(mask[0, 3:, 3:] == np.where(np.eye(6) == 1, 0.0, MASK_NEG))
    for mask_mode in ("open", "random"):
        err, _ = check_gradients(config=config, mask_mode=mask_mode, seed=11,
                                 lengths=lengths)
        assert err < 1e-3


@pytest.mark.parametrize("scale_mode", ["sqrt_d", "d"])
@pytest.mark.parametrize("mask_mode", ["open", "random"])
def test_gradient_check_length_sub_batches(monkeypatch, mask_mode, scale_mode):
    """With a cell budget that splits lengths (3, 6, 9) into separate
    sub-batches, the summed analytic gradient still matches finite
    differences of the loss of the batch padded once."""
    config, lengths = small_config(scale_mode=scale_mode), (3, 6, 9)
    monkeypatch.setattr(ompadvisor.encode, "BATCH_CELLS", 40)
    encodings = _random_check_input(config, np.random.default_rng(0), lengths)
    assert len(length_batches(encodings)) >= 2
    err, _ = check_gradients(config=config, mask_mode=mask_mode, seed=11, lengths=lengths)
    assert err < 1e-3


@pytest.mark.parametrize("mask_mode", ["open", "random"])
def test_gradient_check_with_dropout(mask_mode):
    """Dropout's backward re-applies the forward's keep-patterns: with
    dropout on, batch_gradients(..., rng=default_rng(s)) matches finite
    differences of train-mode losses that each draw from a fresh
    default_rng(s), over a padded batch that is one sub-batch."""
    config, lengths = dataclasses.replace(small_config(), dropout_rate=0.3), (3, 6, 9)
    encodings = _random_check_input(config, np.random.default_rng(0), lengths)
    assert len(length_batches(encodings)) == 1
    ids, positions, mask, labels = pad_batch(encodings, dtype=np.float64)
    params = {k: v.astype(np.float64) for k, v in init_params(config).items()}
    losses = {compute_loss(forward_batch(params, config, ids, positions, mask, train=True,
                                         rng=np.random.default_rng(seed))[0], labels)
              for seed in (11, 11, 12)}
    assert len(losses) == 2  # one seed replays its dropout, another draws a new one
    err, _ = check_gradients(config=config, mask_mode=mask_mode, seed=11, lengths=lengths)
    assert err < 1e-3


@pytest.mark.parametrize("n_layers", [2, 3])
@pytest.mark.parametrize("dropout_rate", [0.0, 0.3])
@pytest.mark.parametrize("mask_mode", ["open", "random"])
def test_gradient_check_full_row_layers_under_the_cls_rows(n_layers, dropout_rate, mask_mode):
    """The last layer computes its rows up to CLS over layers that compute
    every row: its backward takes dx for the layer below at every row from
    the key and value terms, and at the computed rows from the residual and
    query terms too, over a padded batch of lengths (3, 6, 9)."""
    config = dataclasses.replace(small_config(), n_layers=n_layers, dropout_rate=dropout_rate)
    err, _ = check_gradients(config=config, mask_mode=mask_mode, seed=11, lengths=(3, 6, 9))
    assert err < 1e-3


def test_gradient_check_masks_come_from_the_graph():
    """"open" draws no data-flow nodes, so every real pair attends; "random"
    draws nodes, alignments and edges, which close some pairs."""
    config, lengths = small_config(), (3, 6, 9)
    _, _, opened, _ = pad_batch(
        _random_check_input(config, np.random.default_rng(0), lengths, "open"), np.float64)
    _, _, graph, _ = pad_batch(
        _random_check_input(config, np.random.default_rng(0), lengths, "random"), np.float64)
    for row, n in enumerate(lengths):
        assert np.all(opened[row, :n, :n] == 0.0)
    assert np.any(graph[2] == MASK_NEG)


@pytest.mark.parametrize("dtype, rtol", [(np.float64, 1e-12), (np.float32, 1e-5)])
def test_weight_grad_equals_einsum(dtype, rtol):
    rng = np.random.default_rng(4)
    a = rng.normal(size=(3, 7, 5)).astype(dtype)
    b = rng.normal(size=(3, 7, 4)).astype(dtype)
    strided = rng.normal(size=(3, 14, 4)).astype(dtype)[:, ::2]  # not contiguous
    for right in (b, strided):
        got = _weight_grad(a, right)
        assert got.shape == (5, 4) and got.dtype == dtype
        np.testing.assert_allclose(got, np.einsum("bld,ble->de", a, right),
                                   rtol=rtol, atol=rtol * 10)


def test_masked_softmax_leaves_scores_untouched():
    scores = np.random.default_rng(1).normal(size=(2, 3, 4))
    scores[0, 1, 2] = MASK_NEG
    before = scores.copy()
    weights = masked_softmax(scores)
    assert np.array_equal(scores, before)
    assert weights[0, 1, 2] == 0.0
    np.testing.assert_allclose(weights.sum(axis=-1), 1.0, rtol=1e-12)


def test_wider_inputs_widen_attention_and_adam_moments():
    """float32 params with a float64 mask compute attention in float64, and
    float64 gradients widen Adam's moments; nothing narrows in place."""
    config = small_config()
    params = init_params(config)
    ids, positions, mask, labels = tiny_inputs(config, 5, seed=1)
    probs, cache = forward_batch(params, config, ids, positions, mask, train=True)
    assert cache["layers"][0]["attn"].dtype == np.float64
    grads = backward_batch(params, config, cache, probs, labels)
    assert grads["layer0.wq"].dtype == np.float64
    optimizer = Adam(params)
    optimizer.step(params, grads)
    assert optimizer.m["layer0.wq"].dtype == np.float64
    assert optimizer.v["layer0.wq"].dtype == np.float64
    assert params["layer0.wq"].dtype == np.float32


def test_relative_error_degenerate_rule():
    assert relative_error(0.0, 0.0) == 0.0
    assert relative_error(5e-11, -5e-11) == 0.0
    assert relative_error(1.0, 2.0) == pytest.approx(0.5)


def test_isolated_token_gets_zero_gradient():
    """A fully masked-off token cannot influence the loss in a 1-layer model,
    so its embedding gradient is exactly zero through K, V and everything."""
    config = ModelConfig(vocab_size=10, d_model=8, n_heads=2, n_layers=1,
                         d_ff=16, max_len=8, dropout_rate=0.0, seed=1)
    params = {k: v.astype(np.float64) for k, v in init_params(config).items()}
    length = 3
    isolated_slot, isolated_id = 2, 7
    ids = np.array([[1, 4, isolated_id]])
    positions = np.array([[0, 1, 2]])
    mask = np.zeros((1, length, length))
    for other in range(length):
        if other != isolated_slot:
            mask[0, other, isolated_slot] = MASK_NEG
            mask[0, isolated_slot, other] = MASK_NEG
    labels = np.array([[1.0, 1.0, 0.0]])
    probs, cache = forward_batch(params, config, ids, positions, mask, train=True)
    grads = backward_batch(params, config, cache, probs, labels)
    assert np.all(grads["tok_emb"][isolated_id] == 0.0)
    # open the pair back up: gradient becomes nonzero
    probs, cache = forward_batch(params, config, ids, positions,
                                 np.zeros((1, length, length)), train=True)
    grads = backward_batch(params, config, cache, probs, labels)
    assert np.any(grads["tok_emb"][isolated_id] != 0.0)


# ---------------------------------------------------------------------------
# gating / prediction

def test_threshold_and_gate_rules():
    assert threshold_labels((0.3, 0.9, 0.9), gate=True) == (0, 0, 0)
    assert threshold_labels((0.3, 0.9, 0.9), gate=False) == (0, 1, 1)
    assert threshold_labels((0.7, 0.2, 0.6), gate=True) == (1, 0, 1)
    assert threshold_labels((0.5, 0.5, 0.5), gate=False) == (1, 1, 1)


def test_forward_pass_returns_prediction():
    """forward_pass gives one row of 3 probabilities per encoding, in input
    order, each the train-mode forward's for that encoding alone."""
    samples = generate_synthetic_corpus(n=20, seed=3)
    vocab = build_vocabulary(samples, min_freq=1)
    config = ModelConfig(vocab_size=vocab.size, d_model=16, n_heads=2,
                         n_layers=1, d_ff=32, seed=0)
    params = init_params(config)
    encodings = [encode_sample(s, vocab) for s in samples]
    assert len({e.length for e in encodings}) > 1
    probs = forward_pass(params, config, encodings)
    assert probs.shape == (len(encodings), 3) and probs.dtype == np.float32
    assert np.all((0.0 < probs) & (probs < 1.0))
    for enc, row in zip(encodings, probs):
        ids, positions, mask, _ = pad_batch([enc])
        alone, cache = forward_batch(params, config, ids, positions, mask, train=True)
        assert cache["hidden"].shape == (1, 2, config.d_model)  # the rows up to CLS
        np.testing.assert_allclose(row, alone[0], rtol=0, atol=2e-7)
    assert forward_pass(params, config, []).shape == (0, 3)


def test_predict_source_runs_per_loop():
    samples = generate_synthetic_corpus(n=30, seed=5)
    vocab = build_vocabulary(samples, min_freq=1)
    config = ModelConfig(vocab_size=vocab.size, d_model=16, n_heads=2,
                         n_layers=1, d_ff=32, seed=0)
    params = init_params(config)

    assert predict_source(params, config, vocab, "int f(void) { return 0; }") == []

    source = """
void f(int n, double *a, double *b) {
  int i;
  for (i = 0; i < n; i++) {
    a[i] = b[i];
  }
  for (i = 1; i < n; i++) {
    a[i] = a[i - 1];
  }
}
"""
    results = predict_source(params, config, vocab, source, gate=True)
    assert len(results) == 2
    assert results[0]["line"] == 4 and results[1]["line"] == 7
    for r in results:
        assert set(r["probs"]) == {"pragma", "private", "reduction"}
        assert r["gated"] is True


@pytest.mark.parametrize("gate", [False, True])
def test_predict_source_matches_single_sample_runs_in_loop_order(gate):
    """predict_source runs a file's loops through one forward_pass; each
    loop's probabilities are its single-sample forward_batch run's, in loop
    order, and its labels are threshold_labels of them."""
    samples = generate_synthetic_corpus(n=30, seed=5)
    vocab = build_vocabulary(samples, min_freq=1)
    config = ModelConfig(vocab_size=vocab.size, d_model=16, n_heads=2,
                         n_layers=2, d_ff=32, seed=0)
    params = init_params(config)
    source = """
void f(int n, double *a, double *b, double s) {
  int i, j;
  for (i = 0; i < n; i++) {
    s += a[i] * b[i] + a[i] * a[i] - b[i] / (a[i] + 1.0) + s * 0.5;
  }
  for (i = 1; i < n; i++) a[i] = a[i - 1];
  for (i = 0; i < n; i++) {
    for (j = 0; j < n; j++) {
      a[i * n + j] = b[j * n + i] + s;
    }
  }
  for (j = 0; j < n; j++) b[j] = 0.0;
}
"""
    loops = extract_for_prediction(source)
    encodings = [encode_sample(info["sample"], vocab) for info in loops]
    assert len(encodings) == 5 and len({e.length for e in encodings}) == 5
    assert [e.length for e in encodings] != sorted(e.length for e in encodings)
    alone = []
    for enc in encodings:
        ids, positions, mask, _ = pad_batch([enc])
        alone.append(forward_batch(params, config, ids, positions, mask)[0][0])
    # rows out of loop order could not pass unnoticed
    assert min(np.abs(a - b).max() for a, b in itertools.combinations(alone, 2)) > 1e-6
    results = predict_source(params, config, vocab, source, gate=gate)
    assert [r["loop_index"] for r in results] == list(range(5))
    assert [r["line"] for r in results] == [info["line"] for info in loops]
    for r, expected in zip(results, alone):
        got = [r["probs"][label] for label in LABELS]
        np.testing.assert_allclose(got, expected, rtol=0, atol=2e-7)
        assert tuple(r["labels"][label] for label in LABELS) == threshold_labels(got, gate)
        assert r["gated"] is gate


# ---------------------------------------------------------------------------
# training

@pytest.fixture(scope="module")
def mini_corpus():
    return generate_synthetic_corpus(n=60, seed=17)


def test_training_is_deterministic(mini_corpus, tmp_path):
    config = dict(epochs=2, aug_mode="curriculum", seed=13, min_freq=1,
                  batch_size=16)
    r1 = train(mini_corpus, **config)
    r2 = train(mini_corpus, **config)
    for key in r1.params:
        assert np.array_equal(r1.params[key], r2.params[key]), key
    assert r1.history == r2.history

    save_model(tmp_path / "a.bin", r1.params, r1.config)
    save_model(tmp_path / "b.bin", r2.params, r2.config)
    assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()


_TRAIN_MINI_CORPUS = """
import sys
from ompadvisor.model import save_model, train
from ompadvisor.synthetic import generate_synthetic_corpus
result = train(generate_synthetic_corpus(n=60, seed=17), epochs=2, aug_mode="curriculum",
               seed=13, min_freq=1, batch_size=16)
save_model(sys.argv[1], result.params, result.config)
"""


def _train_with_blas_threads(path, threads):
    path_entries = [str(SRC), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path_entries))
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = str(threads)
    subprocess.run([sys.executable, "-c", _TRAIN_MINI_CORPUS, str(path)], env=env, check=True)
    return path.read_bytes()


def test_training_is_deterministic_across_processes_at_equal_blas_threads(tmp_path):
    """Determinism holds per machine and per BLAS thread count: the weight
    gradients are BLAS matmuls, whose sums a different thread count may
    split differently."""
    first = _train_with_blas_threads(tmp_path / "first.bin", 2)
    second = _train_with_blas_threads(tmp_path / "second.bin", 2)
    assert first == second


def test_training_history_shape(mini_corpus):
    result = train(mini_corpus, epochs=3, aug_mode="curriculum", seed=1, min_freq=1)
    assert [h["epoch"] for h in result.history] == [1, 2, 3]
    assert [h["fraction"] for h in result.history] == [0.0, 0.1, 0.2]
    for record in result.history:
        assert np.isfinite(record["train_loss"])
        assert np.isfinite(record["valid_loss"])
        assert 0.0 <= record["valid_accuracy"] <= 1.0


def test_validation_history_matches_batched_predictions(mini_corpus, monkeypatch):
    """Each epoch's valid fields equal the loss and per-label accuracy of
    predict_rows over the valid split, and the validation pass runs in
    batches within the cell budget (a small one here, so it must split)."""
    monkeypatch.setattr(ompadvisor.encode, "BATCH_CELLS", 4000)
    eval_shapes = []

    def recording_forward(params, config, ids, positions, mask, train=False, rng=None,
                          workspace=None):
        if not train:
            eval_shapes.append(ids.shape)
        return forward_batch(params, config, ids, positions, mask, train=train, rng=rng,
                             workspace=workspace)

    monkeypatch.setattr(ompadvisor.model, "forward_batch", recording_forward)
    settings = dict(aug_mode="curriculum", seed=13, min_freq=1, batch_size=16)
    full = train(mini_corpus, epochs=2, **settings)
    valid = [s for s in mini_corpus if s.split == "valid"]
    assert sum(b for b, _ in eval_shapes) == 2 * len(valid)
    assert len(eval_shapes) > 2
    assert all(b * length ** 2 <= 4000 or b == 1 for b, length in eval_shapes)

    for epochs in (1, 2):
        result = full if epochs == 2 else train(mini_corpus, epochs=epochs, **settings)
        rows, _ = predict_rows(result.params, result.config, result.vocab, valid)
        probs = np.array([[r[f"p_{label}"] for label in LABELS] for r in rows])
        labels = np.array([[r[f"label_{label}"] for label in LABELS] for r in rows])
        record = full.history[epochs - 1]
        assert abs(record["valid_loss"] - compute_loss(probs, labels)) < 1e-6
        accuracy = ((probs >= 0.5) == labels).mean(axis=0)
        np.testing.assert_allclose(record["valid_accuracy_per_label"], accuracy,
                                   rtol=0, atol=1e-6)


def test_training_steps_run_length_sub_batches_within_the_budget(mini_corpus, monkeypatch):
    """A guard without timing: every train-mode forward holds at most
    BATCH_CELLS padded cells (or one sample), each epoch makes
    ⌈n / batch_size⌉ Adam steps, and each step's samples are the slice of
    the seeded permutation it always took. The small budget splits most
    batches, so padding a batch whole fails the budget check."""
    monkeypatch.setattr(ompadvisor.encode, "BATCH_CELLS", 4000)
    seed, batch_size, epochs = 13, 16, 2
    encoded = []  # per encode_corpus call: its encodings
    padded, steps = [], []  # the encodings of each pad, and the pads before each step

    def recording_encode_corpus(*args):
        out = encode_corpus(*args)
        encoded.append(out[0])
        return out

    def recording_pad_batch(encodings, *args, **kwargs):
        padded.append(encodings)
        return pad_batch(encodings, *args, **kwargs)

    def recording_forward(params, config, ids, positions, mask, train=False, rng=None,
                          workspace=None):
        if train:
            assert ids.shape[0] * ids.shape[1] ** 2 <= 4000 or ids.shape[0] == 1
            steps[-1].append(padded[-1])
        return forward_batch(params, config, ids, positions, mask, train=train, rng=rng,
                             workspace=workspace)

    adam_step = Adam.step

    def recording_step(self, params, grads):
        steps.append([])
        return adam_step(self, params, grads)

    monkeypatch.setattr(ompadvisor.model, "encode_corpus", recording_encode_corpus)
    monkeypatch.setattr(ompadvisor.model, "pad_batch", recording_pad_batch)
    monkeypatch.setattr(ompadvisor.model, "forward_batch", recording_forward)
    monkeypatch.setattr(Adam, "step", recording_step)
    steps.append([])
    train(mini_corpus, arch={"dropout_rate": 0.0}, epochs=epochs, aug_mode="none", seed=seed, min_freq=1,
          batch_size=batch_size)
    steps.pop()  # opened by the last step; only eval-mode forwards follow it

    train_encodings = encoded[0]
    index_of = {id(e): i for i, e in enumerate(train_encodings)}
    n = len(train_encodings)
    per_epoch = -(-n // batch_size)
    assert len(steps) == epochs * per_epoch
    assert sum(len(step) > 1 for step in steps) > per_epoch  # the budget splits batches
    rng = np.random.default_rng(seed)
    for epoch in range(epochs):
        order = rng.permutation(n)  # dropout 0 draws nothing else from the rng
        for b in range(per_epoch):
            step = steps[epoch * per_epoch + b]
            got = sorted(index_of[id(e)] for sub_batch in step for e in sub_batch)
            assert got == sorted(order[b * batch_size : (b + 1) * batch_size])


def test_training_steps_fault_in_few_pages(monkeypatch):
    """A guard without timing: after the first epoch every batch-sized array
    of a training step lives in the run's workspace, so a step touches few
    pages the process has not touched before. Before the workspace, the
    allocator returned and refaulted its heap between sub-batch shapes, and
    this test measured a median of about 4,800 minor faults per step (2-core
    VM, one BLAS thread)."""
    faults, epoch_ends = [], []

    def counting(*args, **kwargs):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        out = batch_gradients(*args, **kwargs)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        return out

    monkeypatch.setattr(ompadvisor.model, "batch_gradients", counting)
    train(generate_synthetic_corpus(n=400, seed=0), epochs=3, aug_mode="none", seed=7,
          log=lambda record: epoch_ends.append(len(faults)))
    after_first_epoch = faults[epoch_ends[0]:]
    assert len(after_first_epoch) == 20
    assert statistics.median(after_first_epoch) <= 200, after_first_epoch


def test_training_requires_splits():
    samples = generate_synthetic_corpus(n=20, seed=2)
    for s in samples:
        s.split = "train"
    with pytest.raises(ValueError):
        train(samples, epochs=1)


@pytest.mark.filterwarnings("ignore:invalid value", "ignore:overflow")
def test_training_divergence_aborts(mini_corpus):
    with pytest.raises(TrainingDiverged):
        train(mini_corpus, epochs=3, aug_mode="none", seed=1, min_freq=1, lr=1e18)


# ---------------------------------------------------------------------------
# serialization

def test_model_save_load_round_trip(tmp_path):
    config = ModelConfig(vocab_size=23, d_model=16, n_heads=2, n_layers=2,
                         d_ff=24, max_len=64, dropout_rate=0.25, seed=9,
                         scale_mode="d")
    params = init_params(config)
    save_model(tmp_path / "model.bin", params, config)
    loaded, loaded_config = load_model(tmp_path / "model.bin")
    assert loaded_config == config
    for name, _ in param_layout(config):
        np.testing.assert_array_equal(loaded[name], params[name])


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_load_model_rejects_a_non_finite_parameter(tmp_path, value):
    config = small_config()
    params = init_params(config)
    params["head_b"][1] = value
    save_model(tmp_path / "model.bin", params, config)
    with pytest.raises(ValueError, match="model.bin: a model parameter is not a finite number"):
        load_model(tmp_path / "model.bin")


def test_model_file_magic_is_checked(tmp_path):
    (tmp_path / "bogus.bin").write_bytes(b"NOTME" + b"\x00" * 64)
    with pytest.raises(ValueError):
        load_model(tmp_path / "bogus.bin")


def test_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(vocab_size=10, d_model=10, n_heads=3)
    with pytest.raises(ValueError):
        ModelConfig(vocab_size=0)
    with pytest.raises(ValueError):
        ModelConfig(vocab_size=10, scale_mode="cube")
