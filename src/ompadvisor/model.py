"""From-scratch transformer encoder with masked self-attention and a
three-label sigmoid head.

Attention per head is softmax(Q·Kᵀ/√d_head + M)·V, with d_head =
d_model/n_heads and M the additive 0/-1e9 mask from the encoder. All
gradients are hand-derived so they can be verified against finite
differences. The head reads the last layer's CLS row only,
so in training and inference alike that layer runs at rows 0-1 after its
keys and values. forward_pass is the one eval-mode path: the validation
pass of train, metrics.predict_rows and predict_source all run their
encodings through it, and threshold_labels is the one gating rule. A
renaming epoch of train relabels the base encodings (encode.relabel_encoding).

Every batch-sized array of a forward and a backward is written through out=
into a Workspace: train owns one for the whole run and lends it to its
validation pass, and any other forward_pass makes one for its own batches.
The softmax, ReLU, bias adds, residual sums and layer norms run in place,
with the float operations they would run out of place. Dropout keeps a bool
keep-pattern per site, drawn from the raw bits of the seeded generator for
the rows the site computes (so the last layer's for rows 0-1 only), and one
scale 1/(1-rate) in the parameters' dtype; backward re-applies it with the
forward's operations. Backward sums the embeddings' gradients over the
sorted runs of each id and position, not by a scatter. A run is deterministic
for a given seed per machine and per BLAS thread count: the BLAS matmuls may
sum in another order on another machine or at another thread count.
"""

import math
import os
import struct
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from .augment import draw_mapping, find_corpus_names, fraction_for_mode
from .augment import rename_variables  # noqa: F401 -- a traced binding in perfbench/spans.py
from .corpus import LABELS, extract_for_prediction
from .encode import (
    DEFAULT_MAX_CODE, DEFAULT_MAX_DFG, DEFAULT_MIN_FREQ, EncodedInput, build_vocabulary,
    encode_corpus, encode_sample, length_batches, pad_batch, relabel_encoding, sample_lexemes,
)

MAGIC = b"OMPF1"
HEADER = "<6IqfB"

LAYER_KEYS = (
    "wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo",
    "ln1_g", "ln1_b", "w1", "b1", "w2", "b2", "ln2_g", "ln2_b",
)

_LN_EPS = 1e-5
_ADAM_BETA1, _ADAM_BETA2, _ADAM_EPS = 0.9, 0.999, 1e-8
_PROB_CLAMP = 1e-7
_INIT_SCALE = 0.02


class TrainingDiverged(RuntimeError):
    pass


@dataclass
class ModelConfig:
    vocab_size: int
    d_model: int = 64
    n_heads: int = 4
    n_layers: int = 2
    d_ff: int = 256
    max_len: int = 512
    dropout_rate: float = 0.1
    seed: int = 0

    def __post_init__(self):
        for name in ("vocab_size", "d_model", "n_heads", "n_layers", "d_ff", "max_len"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.d_model % self.n_heads != 0:
            raise ValueError("d_model must be divisible by n_heads")

    @property
    def d_head(self):
        return self.d_model // self.n_heads

    @property
    def attn_scale(self):
        return float(np.sqrt(self.d_head))


def _param_groups(config):
    """(embeddings, one layer's (key, shape) pairs, head) in serialization order."""
    d, f = config.d_model, config.d_ff
    embeddings = [("tok_emb", (config.vocab_size, d)), ("pos_emb", (config.max_len, d))]
    shapes = {
        "wq": (d, d), "bq": (d,), "wk": (d, d), "bk": (d,),
        "wv": (d, d), "bv": (d,), "wo": (d, d), "bo": (d,),
        "ln1_g": (d,), "ln1_b": (d,),
        "w1": (d, f), "b1": (f,), "w2": (f, d), "b2": (d,),
        "ln2_g": (d,), "ln2_b": (d,),
    }
    head = [("head_w", (d, 3)), ("head_b", (3,))]
    return embeddings, [(key, shapes[key]) for key in LAYER_KEYS], head


def param_layout(config):
    """Parameter names and shapes in declaration (serialization) order."""
    embeddings, layer, head = _param_groups(config)
    layers = [(f"layer{i}.{key}", shape)
              for i in range(config.n_layers) for key, shape in layer]
    return embeddings + layers + head


def param_bytes(config):
    """The float32 bytes of param_layout(config), worked out without
    building the layout (a header may claim billions of layers)."""
    embeddings, layer, head = (sum(math.prod(shape) for _, shape in group)
                               for group in _param_groups(config))
    return 4 * (embeddings + config.n_layers * layer + head)


def init_params(config):
    rng = np.random.default_rng(config.seed)
    params = {}
    for name, shape in param_layout(config):
        key = name.rsplit(".", 1)[-1]
        if key.startswith("ln") and key.endswith("_g"):
            params[name] = np.ones(shape, dtype=np.float32)
        elif key.startswith(("b", "ln")):
            params[name] = np.zeros(shape, dtype=np.float32)
        else:
            params[name] = rng.normal(0.0, _INIT_SCALE, size=shape).astype(np.float32)
    return params


# ---------------------------------------------------------------------------
# forward / backward


class Workspace:
    """Buffers reused from batch to batch, so that a run allocates its
    batch-sized arrays once rather than once per sub-batch. take(name, shape,
    dtype) returns a view of the named flat buffer, which grows to the largest
    request it has seen; the view is valid until the next take of that name."""

    def __init__(self):
        self._buffers = {}

    def take(self, name, shape, dtype):
        size = math.prod(shape)
        buffer = self._buffers.get(name)
        if buffer is None or buffer.size < size or buffer.dtype != dtype:
            buffer = self._buffers[name] = np.empty(size, dtype)
        return buffer[:size].reshape(shape)

    def matmul(self, name, a, b):
        """a @ b, written into the named buffer."""
        shape = a.shape[:-1] + b.shape[-1:]
        return np.matmul(a, b, out=self.take(name, shape, np.result_type(a, b)))

    def matmul_merged(self, name, a, b):
        """The (B, H, T, ·) @ (B, H, ·, dh) product with its heads merged, as
        (B, T, H·dh), written into the named buffer through a transposed view."""
        batch, heads, rows, _ = a.shape
        out = self.take(name, (batch, rows, heads * b.shape[-1]), np.result_type(a, b))
        np.matmul(a, b, out=out.reshape(batch, rows, heads, -1).transpose(0, 2, 1, 3))
        return out


def masked_softmax(scores, out=None):
    """Softmax over the last axis; entries pushed down by MASK_NEG come out
    exactly zero as their shifted exponent underflows; out=scores overwrites."""
    out = np.subtract(scores, scores.max(axis=-1, keepdims=True), out=out)
    np.exp(out, out=out)
    out /= out.sum(axis=-1, keepdims=True)
    return out


def _layer_norm(x, g, b, workspace, name):
    """(y in the named buffer, (xhat, inv)); xhat is written over x."""
    xhat = x
    xhat -= x.mean(axis=-1, keepdims=True)
    square = np.square(xhat, out=workspace.take("tmp", xhat.shape, xhat.dtype))
    inv = 1.0 / np.sqrt(square.mean(axis=-1, keepdims=True) + _LN_EPS)
    xhat *= inv
    y = np.multiply(xhat, g, out=workspace.take(name, xhat.shape, np.result_type(xhat, g)))
    y += b
    return y, (xhat, inv)


def _layer_norm_backward(dy, g, ln_cache, workspace):
    """(dx, dg, db) of _layer_norm; dx is written over dy."""
    xhat, inv = ln_cache
    tmp = workspace.take("tmp", dy.shape, np.result_type(dy, xhat))
    dg = np.multiply(dy, xhat, out=tmp).sum(axis=(0, 1))
    db = dy.sum(axis=(0, 1))
    dxhat = dy
    dxhat *= g
    mean_dxhat = dxhat.mean(axis=-1, keepdims=True)
    mean_dxhat_xhat = np.multiply(dxhat, xhat, out=tmp).mean(axis=-1, keepdims=True)
    dxhat -= mean_dxhat
    dxhat -= np.multiply(xhat, mean_dxhat_xhat, out=tmp)
    dxhat *= inv
    return dxhat, dg, db


def _weight_grad(a, b):
    """Σ over batch and position of the outer products a[i, t] ⊗ b[i, t]:
    the (d, e) gradient of a weight applied as a @ w, as one (B·L)-row matmul
    (np.einsum would not dispatch this contraction to BLAS)."""
    return a.reshape(-1, a.shape[-1]).T @ b.reshape(-1, b.shape[-1])


def _embedding_grad(table, index, dx, workspace):
    """The gradient of table from rows gathered at index and their gradient
    dx: each row sums the dx rows that gathered it. The index is sorted
    stably, the dx rows are gathered in that order into the workspace's
    "tmp" buffer (dx is not in it), and each run of one index is summed by
    np.add.reduceat (about half the cost of np.add.at's scatter; the sums
    may round in another order)."""
    flat = index.reshape(-1)
    order = np.argsort(flat, kind="stable")
    sorted_index = flat[order]
    starts = np.flatnonzero(np.diff(sorted_index, prepend=-1))
    rows = np.take(dx.reshape(-1, dx.shape[-1]), order, axis=0,
                   out=workspace.take("tmp", (flat.size, dx.shape[-1]), dx.dtype))
    grad = np.zeros_like(table)
    grad[sorted_index[starts]] = np.add.reduceat(
        rows, starts, axis=0,
        out=workspace.take("emb_sums", (starts.size, dx.shape[-1]), dx.dtype))
    return grad


def _affine(workspace, name, x, w, b):
    """x @ w + b in the named buffer, the bias added in place."""
    y = workspace.matmul(name, x, w)
    y += b
    return y


def _split_heads(x, n_heads):
    b, l, d = x.shape
    return x.reshape(b, l, n_heads, d // n_heads).transpose(0, 2, 1, 3)


# Raw draws per random_raw call (64 KiB). Drawing a whole keep-pattern at
# once would make its draws a step's largest transient array, which the
# allocator maps and unmaps, faulting it in afresh, on every call; chunks
# do not change which draw decides which cell.
_DRAW_CHUNK = 8192


def _drop_scale(rate, dtype):
    """The factor dropout multiplies kept cells by."""
    return dtype.type(1.0 / (1.0 - rate))


def _keep_pattern(rng, rate, shape, workspace, name):
    """Dropout's keep-pattern: a bool array in the named buffer, True where a
    cell is kept; None when nothing drops, and then nothing is drawn.

    Raw 64-bit draw i of rng's bit generator decides cells 2i and 2i + 1,
    in C order, by its low and its high 32 bits: the draws are read as
    little-endian uint64 and viewed as little-endian uint32 lanes, so lane
    2i is the low half of draw i on any byte order, and one compare covers
    both lanes. An odd count leaves the last high lane unread. A cell is
    kept when its lane is >= round(rate · 2³²), so with probability 1 - rate
    to within 2⁻³³. The threshold stays a Python int, which numpy compares
    with the uint32 lanes exactly: at rates that round it to 2³² no cell is
    kept, where a uint32 threshold would wrap to 0 and keep every one."""
    if rng is None or rate <= 0.0:
        return None
    keep = workspace.take(name, (math.prod(shape),), bool)
    threshold = round(rate * 2**32)
    for start in range(0, keep.size, 2 * _DRAW_CHUNK):
        cells = keep[start:start + 2 * _DRAW_CHUNK]
        draws = rng.bit_generator.random_raw(-(-cells.size // 2))
        lanes = draws.astype("<u8", copy=False).view("<u4")[:cells.size]
        np.greater_equal(lanes, threshold, out=cells)
    return keep.reshape(shape)


def _dropped(x, keep, scale, out):
    """x with dropout applied, written into out: x * keep, then * scale (x
    itself when keep is None). Cell for cell these are the products of x with
    a float mask of 0 and scale."""
    if keep is None:
        return x
    np.multiply(x, keep, out=out)
    out *= scale
    return out


def forward_batch(params, config, ids, positions, mask, train=False, rng=None, workspace=None):
    """Run the encoder on a padded batch.

    ids, positions: (B, L) int arrays; mask: (B, L, L) additive mask.
    Returns (probs (B, 3), cache). After its keys and values, which cover
    every row, the last layer runs at rows 0-1 only: the head reads row 0
    (CLS), every later op is row-wise, and two rows keep numpy's products on
    BLAS gemm, which sums row 0 as the full product does (gemv, which a
    one-row product gets, sums in another order). train=True keeps the cache
    backward_batch reads, with dropout when rng is given; its "hidden" is
    the last layer's (B, 2, d) output. Each site draws its keep-pattern at
    the shape of the rows it computes, in site order (attention, projection,
    FFN) layer by layer: (B, H, L, L) and (B, L, d) below the last layer,
    (B, H, 2, L) and (B, 2, d) in it, so no draw decides a cell that is not
    computed. Otherwise the cache is None.

    Every batch-sized array is written into a buffer of workspace (a new
    Workspace when none is given): the scores, softmaxed in place into the
    attention weights, the FFN activations, the residual sums, each layer norm
    over its input. So the cache lives in the workspace, valid until its next
    forward, and probs is the only new batch-sized array.
    """
    workspace = Workspace() if workspace is None else workspace
    drop_rng = rng if train else None
    dtype = params["tok_emb"].dtype
    scale = _drop_scale(config.dropout_rate, dtype)
    x = np.take(params["tok_emb"], ids, axis=0,
                out=workspace.take("x0", ids.shape + (config.d_model,), dtype))
    x += np.take(params["pos_emb"], positions, axis=0, out=workspace.take("tmp", x.shape, dtype))
    layers = []
    for layer in range(config.n_layers):
        p = {k: params[f"layer{layer}.{k}"] for k in LAYER_KEYS}
        # The cache keeps each layer's buffers; an eval forward keeps none, so
        # its layers share layer 0's (a layer reads its input x_in only
        # before it writes its output x2 over it).
        name = f"layer{layer if train else 0}.".__add__
        x_in = x
        rows = x_in if layer < config.n_layers - 1 else x_in[:, :2]

        q = _affine(workspace, name("q"), rows, p["wq"], p["bq"])
        k = _affine(workspace, name("k"), x_in, p["wk"], p["bk"])
        v = _affine(workspace, name("v"), x_in, p["wv"], p["bv"])
        qh, kh, vh = (_split_heads(t, config.n_heads) for t in (q, k, v))
        scores = workspace.matmul(name("attn"), qh, kh.transpose(0, 1, 3, 2))
        scores /= config.attn_scale
        # A wider mask widens the scores, as an out-of-place sum would.
        scores = scores.astype(np.result_type(scores, mask), copy=False)
        scores += mask[:, None, :rows.shape[1]]
        attn = masked_softmax(scores, out=scores)
        attn_keep = _keep_pattern(drop_rng, config.dropout_rate, attn.shape, workspace,
                                  name("attn_keep"))
        attn_dropped = _dropped(attn, attn_keep, scale,
                                workspace.take("attn_dropped", attn.shape, attn.dtype))
        context = workspace.matmul_merged(name("context"), attn_dropped, vh)
        res1 = _affine(workspace, name("ln1"), context, p["wo"], p["bo"])
        proj_keep = _keep_pattern(drop_rng, config.dropout_rate, rows.shape, workspace,
                                  name("proj_keep"))
        _dropped(res1, proj_keep, scale, res1)
        res1 += rows
        x1, ln1_cache = _layer_norm(res1, p["ln1_g"], p["ln1_b"], workspace, name("x1"))
        ff_hidden = _affine(workspace, name("ff_hidden"), x1, p["w1"], p["b1"])
        np.maximum(ff_hidden, 0.0, out=ff_hidden)
        res2 = _affine(workspace, name("ln2"), ff_hidden, p["w2"], p["b2"])
        ff_keep = _keep_pattern(drop_rng, config.dropout_rate, rows.shape, workspace,
                                name("ff_keep"))
        _dropped(res2, ff_keep, scale, res2)
        res2 += x1
        x2, ln2_cache = _layer_norm(res2, p["ln2_g"], p["ln2_b"], workspace, name("x2"))
        if train:
            layers.append({
                "x_in": x_in, "qh": qh, "kh": kh, "vh": vh,
                "attn": attn, "attn_keep": attn_keep, "context": context,
                "proj_keep": proj_keep, "x1": x1, "ln1": ln1_cache,
                "ff_hidden": ff_hidden, "ff_keep": ff_keep, "ln2": ln2_cache,
            })
        x = x2
    cls = x[:, 0, :]
    logits = cls @ params["head_w"] + params["head_b"]
    probs = 1.0 / (1.0 + np.exp(-logits))
    return probs, ({"ids": ids, "positions": positions, "layers": layers, "hidden": x,
                    "cls": cls} if train else None)


def compute_loss(probs, labels):
    """Mean binary cross-entropy over the three labels (and the batch)."""
    p = np.clip(np.asarray(probs, dtype=np.float64), _PROB_CLAMP, 1.0 - _PROB_CLAMP)
    y = np.asarray(labels, dtype=np.float64)
    return float(np.mean(-(y * np.log(p) + (1.0 - y) * np.log(1.0 - p))))


def backward_batch(params, config, cache, probs, labels, n_total=None, workspace=None):
    """Gradients of compute_loss w.r.t. every parameter. Returns a dict with
    the same keys as params.

    n_total: the size of the whole batch when this is one sub-batch of it;
    the loss is then the mean over n_total samples, so the gradients of the
    sub-batches sum to the whole batch's. Dropout is re-applied from the
    cache's keep-patterns with the forward's operations, and every
    batch-sized gradient is written into a workspace buffer. A layer that
    computed fewer rows than its input holds (the last) takes the query
    weights' gradient from those rows, and gives the layer below a gradient
    at every row, which past those rows holds only the key and value
    terms. The embeddings' gradients are sums over the sorted runs of each
    id and each position (_embedding_grad)."""
    workspace = Workspace() if workspace is None else workspace
    scale = _drop_scale(config.dropout_rate, params["tok_emb"].dtype)
    y = np.asarray(labels, dtype=probs.dtype)
    batch = probs.shape[0] if n_total is None else n_total
    dlogits = (probs - y) / (3.0 * batch)

    grads = {"head_w": cache["cls"].T @ dlogits}
    grads["head_b"] = dlogits.sum(axis=0)
    dx = workspace.take("dx", cache["hidden"].shape, cache["hidden"].dtype)
    dx.fill(0.0)
    dx[:, 0, :] = dlogits @ params["head_w"].T

    # dx is carried through each layer in place: dres2, dx1, dres1, then the
    # next layer's dx (from the last layer, a buffer of every row).
    for layer in range(config.n_layers - 1, -1, -1):
        p = {k: params[f"layer{layer}.{k}"] for k in LAYER_KEYS}
        c = cache["layers"][layer]
        dres2, dg2, db2 = _layer_norm_backward(dx, p["ln2_g"], c["ln2"], workspace)
        grads[f"layer{layer}.ln2_g"] = dg2
        grads[f"layer{layer}.ln2_b"] = db2

        dff_out = _dropped(dres2, c["ff_keep"], scale,
                           workspace.take("ddrop", dres2.shape, dres2.dtype))
        ff_hidden = c["ff_hidden"]
        grads[f"layer{layer}.w2"] = _weight_grad(ff_hidden, dff_out)
        grads[f"layer{layer}.b2"] = dff_out.sum(axis=(0, 1))
        dff = workspace.matmul("dff", dff_out, p["w2"].T)
        # ReLU passes the gradient where its input, so its output, is > 0
        dff *= np.greater(ff_hidden, 0, out=workspace.take("ff_on", ff_hidden.shape, bool))
        grads[f"layer{layer}.w1"] = _weight_grad(c["x1"], dff)
        grads[f"layer{layer}.b1"] = dff.sum(axis=(0, 1))
        dx1 = dres2
        dx1 += workspace.matmul("tmp", dff, p["w1"].T)

        dres1, dg1, db1 = _layer_norm_backward(dx1, p["ln1_g"], c["ln1"], workspace)
        grads[f"layer{layer}.ln1_g"] = dg1
        grads[f"layer{layer}.ln1_b"] = db1

        dproj = _dropped(dres1, c["proj_keep"], scale,
                         workspace.take("ddrop", dres1.shape, dres1.dtype))
        grads[f"layer{layer}.wo"] = _weight_grad(c["context"], dproj)
        grads[f"layer{layer}.bo"] = dproj.sum(axis=(0, 1))
        dcontext_h = _split_heads(workspace.matmul("dcontext", dproj, p["wo"].T), config.n_heads)

        attn, keep, vh = c["attn"], c["attn_keep"], c["vh"]
        dattn = workspace.matmul("dattn", dcontext_h, vh.transpose(0, 1, 3, 2))
        attn_dropped = _dropped(attn, keep, scale,
                                workspace.take("attn_dropped", attn.shape, attn.dtype))
        dv = workspace.matmul_merged("dv", attn_dropped.transpose(0, 1, 3, 2), dcontext_h)
        _dropped(dattn, keep, scale, dattn)
        # softmax backward, in dattn: dscores = (dattn - Σ_j dattn·attn)·attn
        product = np.multiply(dattn, attn, out=workspace.take(
            "attn_dropped", attn.shape, np.result_type(dattn, attn)))
        dattn -= product.sum(axis=-1, keepdims=True)
        dattn *= attn
        dattn /= config.attn_scale
        dq = workspace.matmul_merged("dq", dattn, c["kh"])
        dk = workspace.matmul_merged("dk", dattn.transpose(0, 1, 3, 2), c["qh"])

        x_in = c["x_in"]
        n = dq.shape[1]  # the rows this layer computed
        grads[f"layer{layer}.wq"] = _weight_grad(x_in[:, :n], dq)
        grads[f"layer{layer}.bq"] = dq.sum(axis=(0, 1))
        grads[f"layer{layer}.wk"] = _weight_grad(x_in, dk)
        grads[f"layer{layer}.bk"] = dk.sum(axis=(0, 1))
        grads[f"layer{layer}.wv"] = _weight_grad(x_in, dv)
        grads[f"layer{layer}.bv"] = dv.sum(axis=(0, 1))

        if n == x_in.shape[1]:
            dx = dres1
        else:
            # The rows past n get only the key and value terms; every cell
            # sums its terms in the order of the every-row layer, whose
            # dres1 and dq were 0 there.
            dx = workspace.take("dx_in", x_in.shape, dres1.dtype)
            dx.fill(0.0)
            dx[:, :n] = dres1
        dx[:, :n] += workspace.matmul("tmp", dq, p["wq"].T)
        for grad, w in ((dk, p["wk"]), (dv, p["wv"])):
            dx += workspace.matmul("tmp", grad, w.T)

    grads["tok_emb"] = _embedding_grad(params["tok_emb"], cache["ids"], dx, workspace)
    grads["pos_emb"] = _embedding_grad(params["pos_emb"], cache["positions"], dx, workspace)
    return grads


def threshold_labels(probs, gate):
    """0.5-threshold labels; with the gate on, clause labels are zeroed
    whenever the pragma label is 0."""
    labels = [int(p >= 0.5) for p in probs]
    if gate and labels[0] == 0:
        labels = [0, 0, 0]
    return tuple(labels)


def batch_gradients(params, config, encodings, dtype=np.float32, rng=None, workspace=None):
    """Forward and backward of one batch as length_batches sub-batches, each
    padded to its own longest member: (probs and labels in input order, the
    gradients of compute_loss over the whole batch summed over sub-batches).
    Each sub-batch keeps its samples in input order, so a budget that fits the
    whole batch pads it once, exactly as one pad_batch would. Every sub-batch
    reuses one workspace (a new one when none is given)."""
    workspace = Workspace() if workspace is None else workspace
    parts, order, grads = [], [], None
    for batch in length_batches(encodings):
        batch = sorted(batch)
        ids, positions, mask, labels = pad_batch([encodings[i] for i in batch], dtype=dtype)
        probs, cache = forward_batch(params, config, ids, positions, mask, train=True, rng=rng,
                                     workspace=workspace)
        sub_grads = backward_batch(params, config, cache, probs, labels, n_total=len(encodings),
                                   workspace=workspace)
        if grads is None:
            grads = sub_grads
        else:
            for key, grad in sub_grads.items():
                grads[key] += grad
        parts.append(probs)
        order.extend(batch)
    probs = np.concatenate(parts)[np.argsort(order)]
    return probs, np.array([e.labels for e in encodings], dtype=dtype), grads


def forward_pass(params, config, encodings, workspace=None):
    """The one eval-mode forward: the (N, 3) probabilities of encodings in
    input order, run as length_batches, each padded to its own longest
    member, through one workspace (a new one when none is given)."""
    workspace = Workspace() if workspace is None else workspace
    probs = np.empty((len(encodings), len(LABELS)), dtype=params["tok_emb"].dtype)
    for batch in length_batches(encodings):
        ids, positions, mask, _ = pad_batch([encodings[i] for i in batch], dtype=probs.dtype)
        probs[batch], _ = forward_batch(params, config, ids, positions, mask, workspace=workspace)
    return probs


# ---------------------------------------------------------------------------
# optimizer

class Adam:
    def __init__(self, params, lr=1e-3):
        self.lr = lr
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, params, grads):
        self.t += 1
        b1c = 1.0 - _ADAM_BETA1 ** self.t
        b2c = 1.0 - _ADAM_BETA2 ** self.t
        for key in params:
            g = grads[key]
            m, v = self.m[key], self.v[key]
            m *= _ADAM_BETA1
            v *= _ADAM_BETA2
            wide = np.result_type(m, g)
            if wide != m.dtype:
                # A wider gradient widens the moments, as an out-of-place
                # update would.
                self.m[key] = m = m.astype(wide)
                self.v[key] = v = v.astype(wide)
            m += (1.0 - _ADAM_BETA1) * g
            v += (1.0 - _ADAM_BETA2) * g * g
            m_hat = m / b1c
            v_hat = v / b2c
            params[key] -= (self.lr * m_hat / (np.sqrt(v_hat) + _ADAM_EPS)).astype(params[key].dtype)


# ---------------------------------------------------------------------------
# training

@dataclass
class TrainResult:
    params: dict
    config: "ModelConfig"
    vocab: object
    history: list
    encode_stats: dict = field(default_factory=dict)


def _accuracy_per_label(probs, labels):
    pred = (probs >= 0.5).astype(np.int64)
    ref = np.asarray(labels).astype(np.int64)
    return (pred == ref).mean(axis=0)


@np.errstate(over="ignore", invalid="ignore")  # TrainingDiverged reports a non-finite loss
def train(samples, arch=None, epochs=10, aug_mode="none", seed=0, min_freq=DEFAULT_MIN_FREQ,
          max_code=DEFAULT_MAX_CODE, max_dfg=DEFAULT_MAX_DFG, batch_size=32, lr=1e-3, log=None):
    """Train on the corpus train split with per-epoch renaming augmentation.

    arch: ModelConfig keyword arguments other than vocab_size and seed. The
    vocabulary built here sets vocab_size and carries min_freq and the
    encoding limits max_code and max_dfg; seed seeds the parameters, the
    batch order and dropout. Attention divides by √d_head, as GraphCodeBERT's
    does; no argument changes that.
    aug_mode: none (original data), curriculum (the epoch schedule), or
    replaced (every variable renamed every epoch). Each optimizer step takes
    the next batch_size samples of a seeded permutation and runs them as
    length sub-batches under encode.BATCH_CELLS (batch_gradients), with
    their gradients summed. Deterministic for a given seed per machine and
    per BLAS thread count.
    """
    train_samples = [s for s in samples if s.split == "train"]
    valid_samples = [s for s in samples if s.split == "valid"]
    if not train_samples or not valid_samples:
        raise ValueError("train and valid splits must both be non-empty")

    # Each train loop's front end runs once: parsed, which checks what a
    # rename trusts, when some epoch renames, else tokenized. The vocabulary
    # and the base encodings read the lexemes this gives.
    if any(fraction_for_mode(aug_mode, epoch) for epoch in range(1, epochs + 1)):
        lexemes = [[sys.intern(t.lexeme) for t in tokens]
                   for tokens in find_corpus_names(train_samples)]
        lexed = [replace(s, lexemes=lex) for s, lex in zip(train_samples, lexemes)]
    else:
        lexemes = None
        lexed = [replace(s, lexemes=sample_lexemes(s)) for s in train_samples]
    vocab = build_vocabulary(lexed, min_freq, max_code, max_dfg)
    config = ModelConfig(vocab_size=vocab.size, seed=seed, **(arch or {}))
    params = init_params(config)
    optimizer = Adam(params, lr=lr)
    rng = np.random.default_rng(seed)
    workspace = Workspace()  # every training step and validation pass reuses it

    base_encodings, encode_stats = encode_corpus(lexed, vocab)
    del lexed  # only a renaming run's lexemes, read by its draws, are kept
    valid_encodings, valid_stats = encode_corpus(valid_samples, vocab)
    encode_stats["valid"] = {key: valid_stats[key]
                             for key in ("samples", "code_truncated", "dfg_truncated")}
    valid_labels = np.array([e.labels for e in valid_encodings], dtype=np.float32)

    history = []
    for epoch in range(1, epochs + 1):
        fraction = fraction_for_mode(aug_mode, epoch)
        if fraction == 0.0:
            encodings = base_encodings
        else:
            encodings = []  # each base encoding relabeled at its data-flow nodes' slots
            for base, sample, lex in zip(base_encodings, train_samples, lexemes):
                mapping = draw_mapping(sample.dfg["nodes"], lex, fraction, seed + epoch)
                encodings.append(relabel_encoding(base, sample.dfg["nodes"], mapping, vocab))

        order = rng.permutation(len(encodings))
        total_loss = 0.0
        n_batches = 0
        for start in range(0, len(order), batch_size):
            chunk = [encodings[i] for i in order[start : start + batch_size]]
            probs, labels, grads = batch_gradients(params, config, chunk, rng=rng,
                                                   workspace=workspace)
            loss = compute_loss(probs, labels)
            if not np.isfinite(loss):
                raise TrainingDiverged(
                    f"non-finite loss {loss} at epoch {epoch}, batch {n_batches}"
                )
            optimizer.step(params, grads)
            total_loss += loss
            n_batches += 1

        valid_probs = forward_pass(params, config, valid_encodings, workspace)
        valid_loss = compute_loss(valid_probs, valid_labels)
        if not np.isfinite(valid_loss):
            # the last step's update is checked by no batch loss
            raise TrainingDiverged(f"non-finite validation loss {valid_loss} at epoch {epoch}")
        valid_acc = _accuracy_per_label(valid_probs, valid_labels)
        record = {
            "epoch": epoch,
            "fraction": fraction,
            "train_loss": total_loss / max(n_batches, 1),
            "valid_loss": valid_loss,
            "valid_accuracy": float(valid_acc.mean()),
            "valid_accuracy_per_label": [float(a) for a in valid_acc],
        }
        history.append(record)
        if log is not None:
            log(record)
    return TrainResult(params, config, vocab, history, encode_stats)


def predict_source(params, config, vocab, source_text, gate=False, with_scope=False):
    """Per-loop predictions for one source file's text: every loop is
    encoded, and the file's loops run through one forward_pass."""
    loops = extract_for_prediction(source_text, with_scope)
    probs = forward_pass(params, config, [encode_sample(info["sample"], vocab) for info in loops])
    return [{"loop_index": index, "line": info["line"], "probs": dict(zip(LABELS, p)),
             "labels": dict(zip(LABELS, threshold_labels(p, gate))), "gated": gate}
            for index, (info, p) in enumerate(zip(loops, probs.tolist()))]


# ---------------------------------------------------------------------------
# gradient verification

def small_config():
    return ModelConfig(vocab_size=16, d_model=8, n_heads=2, n_layers=1,
                       d_ff=16, max_len=32, dropout_rate=0.0, seed=3)


def _random_check_input(config, rng, lengths, mask_mode="random"):
    """One random encoded sample per length. mask_mode "open" has no
    data-flow nodes; "random" draws nodes, their alignment and their edges."""
    encodings = []
    for length in lengths:
        ids = rng.integers(1, config.vocab_size, size=length)
        positions = rng.integers(0, min(config.max_len, length + 1), size=length)
        n_dfg = 0 if mask_mode == "open" else int(rng.integers(0, length - 1))
        n_code = length - 2 - n_dfg
        slots = rng.integers(0, n_code + 1, size=n_dfg)  # 0: truncated away
        edges = np.argwhere(np.triu(rng.random((n_dfg, n_dfg)) < 0.5, 1))
        encodings.append(EncodedInput(
            ids=list(ids), positions=list(positions),
            dfg_alignment=[int(s) if s else None for s in slots],
            labels=tuple(rng.integers(0, 2, size=3)),
            edges=[tuple(e) for e in edges.tolist()]))
    return encodings


def relative_error(analytic, numeric):
    if abs(analytic) < 1e-10 and abs(numeric) < 1e-10:
        return 0.0
    return abs(analytic - numeric) / max(abs(analytic), abs(numeric))


def check_gradients(config=None, n_coords=20, h=1e-5, seed=0, mask_mode="random",
                    lengths=(6,)):
    """Compare analytic gradients with central finite differences in float64.

    The input is a batch with one random sample per entry of lengths. The
    analytic gradient comes from batch_gradients, as in training: length
    sub-batches under encode.BATCH_CELLS, summed. The numeric one perturbs
    the train-mode loss of the whole batch padded once to its longest. Every
    pass draws dropout from a fresh generator seeded with seed, so with
    config.dropout_rate > 0 each replays the analytic pass's keep-patterns
    as long as the batch is one sub-batch. Samples n_coords coordinates per
    parameter group; returns (max_relative_error, per-group dict).
    """
    config = config or small_config()
    params = {k: v.astype(np.float64) for k, v in init_params(config).items()}
    rng = np.random.default_rng(seed)
    # Perturb parameters to O(1) scale: with training-scale init the attention
    # logits are so small that Q/K gradients sink below the finite-difference
    # noise floor and the relative error becomes meaningless.
    for key in params:
        params[key] = params[key] + rng.normal(0.0, 0.5, size=params[key].shape)

    encodings = _random_check_input(config, rng, lengths, mask_mode)
    _, _, grads = batch_gradients(params, config, encodings, dtype=np.float64,
                                  rng=np.random.default_rng(seed))
    ids, positions, mask, labels = pad_batch(encodings, dtype=np.float64)

    def loss_at():
        p, _ = forward_batch(params, config, ids, positions, mask, train=True,
                             rng=np.random.default_rng(seed))
        return compute_loss(p, labels)

    per_group = {}
    for key, arr in params.items():
        flat = arr.reshape(-1)
        n = min(n_coords, flat.size)
        coords = rng.choice(flat.size, size=n, replace=False)
        worst = 0.0
        for coord in coords:
            original = flat[coord]
            flat[coord] = original + h
            up = loss_at()
            flat[coord] = original - h
            down = loss_at()
            flat[coord] = original
            numeric = (up - down) / (2.0 * h)
            analytic = grads[key].reshape(-1)[coord]
            worst = max(worst, relative_error(analytic, numeric))
        per_group[key] = worst
    return max(per_group.values()), per_group


# ---------------------------------------------------------------------------
# serialization

def save_model(path, params, config):
    header = struct.pack(
        HEADER,
        config.d_model, config.n_heads, config.n_layers, config.d_ff,
        config.max_len, config.vocab_size, config.seed,
        config.dropout_rate, 0,  # the attention-scale byte: 0, division by sqrt(d_head)
    )
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(header)
        for name, _ in param_layout(config):
            fh.write(np.ascontiguousarray(params[name], dtype="<f4").tobytes())


def load_model(path):
    try:
        with open(path, "rb") as fh:
            magic = fh.read(len(MAGIC))
            if magic != MAGIC:
                raise ValueError(f"not a model file (bad magic {magic!r})")
            header = fh.read(struct.calcsize(HEADER))
            if len(header) != struct.calcsize(HEADER):
                raise ValueError("model file truncated in its header")
            (d_model, n_heads, n_layers, d_ff, max_len, vocab_size,
             seed, dropout, scale_flag) = struct.unpack(HEADER, header)
            if scale_flag != 0:
                raise ValueError(f"model file has attention-scale byte {scale_flag}, not 0 "
                                 "(division by sqrt(d_head)): retrain the model")
            config = ModelConfig(vocab_size=vocab_size, d_model=d_model, n_heads=n_heads,
                                 n_layers=n_layers, d_ff=d_ff, max_len=max_len,
                                 dropout_rate=dropout, seed=seed)
            needed = param_bytes(config)
            held = os.fstat(fh.fileno()).st_size - fh.tell()
            if held != needed:
                raise ValueError(f"model file holds {held} parameter bytes, its header needs {needed}")
            values = np.fromfile(fh, dtype="<f4", count=needed // 4)
        if not np.isfinite(values).all():
            raise ValueError("a model parameter is not a finite number")
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None
    params, start = {}, 0
    for name, shape in param_layout(config):
        size = math.prod(shape)
        params[name] = values[start:start + size].reshape(shape)
        start += size
    return params, config
