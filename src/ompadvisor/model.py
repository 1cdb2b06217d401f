"""From-scratch transformer encoder with masked self-attention and a
three-label sigmoid head.

Attention per head is softmax(Q·Kᵀ/scale + M)·V where M is the additive
0/-1e9 mask from the encoder. The default scale is √(d_model/n_heads); the
literal division by the per-head dimension is available behind
scale_mode="d". All gradients are hand-derived so they can be verified
against finite differences. forward_pass is the one eval-mode path: the
validation pass of train, metrics.predict_rows and predict_source all run
their encodings through it, and threshold_labels is the one gating rule. The
eval softmax and ReLU run in place, as every bias add does: the same floats.
"""

import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .augment import fraction_for_mode, rename_variables
from .corpus import extract_for_prediction
from .encode import (
    DEFAULT_MAX_CODE, DEFAULT_MAX_DFG, DEFAULT_MIN_FREQ, EncodedInput, build_vocabulary,
    encode_corpus, encode_sample, length_batches, pad_batch,
)

MAGIC = b"OMPF1"
LABELS = ("pragma", "private", "reduction")
HEADER = "<6IqfB"

LAYER_KEYS = (
    "wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo",
    "ln1_g", "ln1_b", "w1", "b1", "w2", "b2", "ln2_g", "ln2_b",
)

_LN_EPS = 1e-5
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
    scale_mode: str = "sqrt_d"  # "sqrt_d" | "d"

    def __post_init__(self):
        for name in ("vocab_size", "d_model", "n_heads", "n_layers", "d_ff", "max_len"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.d_model % self.n_heads != 0:
            raise ValueError("d_model must be divisible by n_heads")
        if self.scale_mode not in ("sqrt_d", "d"):
            raise ValueError(f"bad scale_mode: {self.scale_mode!r}")

    @property
    def d_head(self):
        return self.d_model // self.n_heads

    @property
    def attn_scale(self):
        return float(np.sqrt(self.d_head)) if self.scale_mode == "sqrt_d" else float(self.d_head)


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


def init_params(config, dtype=np.float32):
    rng = np.random.default_rng(config.seed)
    params = {}
    for name, shape in param_layout(config):
        key = name.rsplit(".", 1)[-1]
        if key.startswith("ln") and key.endswith("_g"):
            params[name] = np.ones(shape, dtype=dtype)
        elif key.startswith(("b", "ln")):
            params[name] = np.zeros(shape, dtype=dtype)
        else:
            params[name] = rng.normal(0.0, _INIT_SCALE, size=shape).astype(dtype)
    return params


# ---------------------------------------------------------------------------
# forward / backward


def masked_softmax(scores, out=None):
    """Softmax over the last axis; entries pushed down by MASK_NEG come out
    exactly zero as their shifted exponent underflows; out=scores overwrites."""
    out = np.subtract(scores, scores.max(axis=-1, keepdims=True), out=out)
    np.exp(out, out=out)
    out /= out.sum(axis=-1, keepdims=True)
    return out


def _layer_norm(x, g, b):
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + _LN_EPS)
    xhat = (x - mu) * inv
    return xhat * g + b, (xhat, inv)


def _layer_norm_backward(dy, g, ln_cache):
    xhat, inv = ln_cache
    dg = (dy * xhat).sum(axis=(0, 1))
    db = dy.sum(axis=(0, 1))
    dxhat = dy * g
    mean_dxhat = dxhat.mean(axis=-1, keepdims=True)
    mean_dxhat_xhat = (dxhat * xhat).mean(axis=-1, keepdims=True)
    dx = (dxhat - mean_dxhat - xhat * mean_dxhat_xhat) * inv
    return dx, dg, db


def _weight_grad(a, b):
    """Σ over batch and position of the outer products a[i, t] ⊗ b[i, t]:
    the (d, e) gradient of a weight applied as a @ w, as one (B·L)-row matmul
    (np.einsum would not dispatch this contraction to BLAS)."""
    return a.reshape(-1, a.shape[-1]).T @ b.reshape(-1, b.shape[-1])


def _affine(x, w, b):
    """x @ w + b, the bias added in place."""
    y = x @ w
    y += b
    return y


def _split_heads(x, n_heads):
    b, l, d = x.shape
    return x.reshape(b, l, n_heads, d // n_heads).transpose(0, 2, 1, 3)


def _merge_heads(x):
    b, h, l, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, l, h * dh)


def _dropout_mask(rng, shape, rate, dtype):
    if rng is None or rate <= 0.0:
        return None
    keep = (rng.random(shape) >= rate).astype(dtype)
    keep /= 1.0 - rate
    return keep


def _apply_drop(x, mask):
    return x if mask is None else x * mask


def forward_batch(params, config, ids, positions, mask, train=False, rng=None):
    """Run the encoder on a padded batch.

    ids, positions: (B, L) int arrays; mask: (B, L, L) additive mask.
    Returns (probs (B, 3), cache). train=True keeps the cache backward_batch
    reads, with dropout when rng is given. Otherwise the cache is None and,
    after its keys and values, the last layer runs at rows 0-1 only: the head
    reads row 0 (CLS), every later op is row-wise, and two rows keep numpy's
    products on BLAS gemm, which sums row 0 as the full product does (gemv,
    which a one-row product gets, sums in another order). An eval forward
    writes the softmax weights over the scores and the ReLU over its input.
    """
    drop_rng = rng if train else None
    dtype = params["tok_emb"].dtype
    x = params["tok_emb"][ids] + params["pos_emb"][positions]
    layers = []
    for layer in range(config.n_layers):
        p = {k: params[f"layer{layer}.{k}"] for k in LAYER_KEYS}
        x_in = x
        rows = x_in if train or layer < config.n_layers - 1 else x_in[:, :2]
        q = _affine(rows, p["wq"], p["bq"])
        k = _affine(x_in, p["wk"], p["bk"])
        v = _affine(x_in, p["wv"], p["bv"])
        qh, kh, vh = (_split_heads(t, config.n_heads) for t in (q, k, v))
        scores = qh @ kh.transpose(0, 1, 3, 2)
        scores /= config.attn_scale
        # A wider mask widens the scores, as an out-of-place sum would.
        scores = scores.astype(np.result_type(scores, mask), copy=False)
        scores += mask[:, None, :rows.shape[1]]
        attn = masked_softmax(scores, out=None if train else scores)
        attn_drop_mask = _dropout_mask(drop_rng, attn.shape, config.dropout_rate, dtype)
        attn_dropped = _apply_drop(attn, attn_drop_mask)
        context = _merge_heads(attn_dropped @ vh)
        proj = _affine(context, p["wo"], p["bo"])
        proj_drop_mask = _dropout_mask(drop_rng, proj.shape, config.dropout_rate, dtype)
        res1 = rows + _apply_drop(proj, proj_drop_mask)
        x1, ln1_cache = _layer_norm(res1, p["ln1_g"], p["ln1_b"])
        ff_pre = _affine(x1, p["w1"], p["b1"])
        ff_hidden = np.maximum(ff_pre, 0.0, out=None if train else ff_pre)
        ff_out = _affine(ff_hidden, p["w2"], p["b2"])
        ff_drop_mask = _dropout_mask(drop_rng, ff_out.shape, config.dropout_rate, dtype)
        res2 = x1 + _apply_drop(ff_out, ff_drop_mask)
        x2, ln2_cache = _layer_norm(res2, p["ln2_g"], p["ln2_b"])
        if train:
            layers.append({
                "x_in": x_in, "qh": qh, "kh": kh, "vh": vh,
                "attn": attn, "attn_drop_mask": attn_drop_mask,
                "attn_dropped": attn_dropped,
                "context": context, "proj_drop_mask": proj_drop_mask,
                "x1": x1, "ln1": ln1_cache,
                "ff_pre": ff_pre, "ff_hidden": ff_hidden,
                "ff_drop_mask": ff_drop_mask, "ln2": ln2_cache,
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


def backward_batch(params, config, cache, probs, labels, n_total=None):
    """Gradients of compute_loss w.r.t. every parameter. Returns a dict with
    the same keys as params.

    n_total: the size of the whole batch when this is one sub-batch of it;
    the loss is then the mean over n_total samples, so the gradients of the
    sub-batches sum to the whole batch's."""
    # Only the embeddings accumulate (np.add.at); every other gradient is
    # assigned whole below.
    grads = {name: np.zeros_like(params[name]) for name in ("tok_emb", "pos_emb")}
    y = np.asarray(labels, dtype=probs.dtype)
    batch = probs.shape[0] if n_total is None else n_total
    dlogits = (probs - y) / (3.0 * batch)

    grads["head_w"] = cache["cls"].T @ dlogits
    grads["head_b"] = dlogits.sum(axis=0)
    dcls = dlogits @ params["head_w"].T
    dx = np.zeros_like(cache["hidden"])
    dx[:, 0, :] = dcls

    for layer in range(config.n_layers - 1, -1, -1):
        p = {k: params[f"layer{layer}.{k}"] for k in LAYER_KEYS}
        c = cache["layers"][layer]
        dres2, dg2, db2 = _layer_norm_backward(dx, p["ln2_g"], c["ln2"])
        grads[f"layer{layer}.ln2_g"] = dg2
        grads[f"layer{layer}.ln2_b"] = db2

        dff_out = _apply_drop(dres2, c["ff_drop_mask"])
        grads[f"layer{layer}.w2"] = _weight_grad(c["ff_hidden"], dff_out)
        grads[f"layer{layer}.b2"] = dff_out.sum(axis=(0, 1))
        dff_hidden = dff_out @ p["w2"].T
        dff_pre = dff_hidden * (c["ff_pre"] > 0)
        grads[f"layer{layer}.w1"] = _weight_grad(c["x1"], dff_pre)
        grads[f"layer{layer}.b1"] = dff_pre.sum(axis=(0, 1))
        dx1 = dres2 + dff_pre @ p["w1"].T

        dres1, dg1, db1 = _layer_norm_backward(dx1, p["ln1_g"], c["ln1"])
        grads[f"layer{layer}.ln1_g"] = dg1
        grads[f"layer{layer}.ln1_b"] = db1

        dproj = _apply_drop(dres1, c["proj_drop_mask"])
        grads[f"layer{layer}.wo"] = _weight_grad(c["context"], dproj)
        grads[f"layer{layer}.bo"] = dproj.sum(axis=(0, 1))
        dcontext = dproj @ p["wo"].T
        dcontext_h = _split_heads(dcontext, config.n_heads)

        dattn_dropped = dcontext_h @ c["vh"].transpose(0, 1, 3, 2)
        dvh = c["attn_dropped"].transpose(0, 1, 3, 2) @ dcontext_h
        dattn = _apply_drop(dattn_dropped, c["attn_drop_mask"])
        attn = c["attn"]
        dscores = dattn - (dattn * attn).sum(axis=-1, keepdims=True)
        dscores *= attn
        dscores /= config.attn_scale
        dqh = dscores @ c["kh"]
        dkh = dscores.transpose(0, 1, 3, 2) @ c["qh"]

        dq = _merge_heads(dqh)
        dk = _merge_heads(dkh)
        dv = _merge_heads(dvh)
        x_in = c["x_in"]
        grads[f"layer{layer}.wq"] = _weight_grad(x_in, dq)
        grads[f"layer{layer}.bq"] = dq.sum(axis=(0, 1))
        grads[f"layer{layer}.wk"] = _weight_grad(x_in, dk)
        grads[f"layer{layer}.bk"] = dk.sum(axis=(0, 1))
        grads[f"layer{layer}.wv"] = _weight_grad(x_in, dv)
        grads[f"layer{layer}.bv"] = dv.sum(axis=(0, 1))

        dx = dres1 + dq @ p["wq"].T + dk @ p["wk"].T + dv @ p["wv"].T

    np.add.at(grads["tok_emb"], cache["ids"], dx)
    np.add.at(grads["pos_emb"], cache["positions"], dx)
    return grads


def threshold_labels(probs, gate):
    """0.5-threshold labels; with the gate on, clause labels are zeroed
    whenever the pragma label is 0."""
    labels = [int(p >= 0.5) for p in probs]
    if gate and labels[0] == 0:
        labels = [0, 0, 0]
    return tuple(labels)


def batch_gradients(params, config, encodings, dtype=np.float32, rng=None):
    """Forward and backward of one batch as length_batches sub-batches, each
    padded to its own longest member: (probs and labels in input order, the
    gradients of compute_loss over the whole batch summed over sub-batches).
    Each sub-batch keeps its samples in input order, so a budget that fits the
    whole batch pads it once, exactly as one pad_batch would."""
    parts, order, grads = [], [], None
    for batch in length_batches(encodings):
        batch = sorted(batch)
        ids, positions, mask, labels = pad_batch([encodings[i] for i in batch], dtype=dtype)
        probs, cache = forward_batch(params, config, ids, positions, mask, train=True, rng=rng)
        sub_grads = backward_batch(params, config, cache, probs, labels, n_total=len(encodings))
        if grads is None:
            grads = sub_grads
        else:
            for key, grad in sub_grads.items():
                grads[key] += grad
        parts.append(probs)
        order.extend(batch)
    probs = np.concatenate(parts)[np.argsort(order)]
    return probs, np.array([e.labels for e in encodings], dtype=dtype), grads


def forward_pass(params, config, encodings):
    """The one eval-mode forward: the (N, 3) probabilities of encodings in
    input order, run as length_batches, each padded to its own longest
    member."""
    probs = np.empty((len(encodings), len(LABELS)), dtype=params["tok_emb"].dtype)
    for batch in length_batches(encodings):
        ids, positions, mask, _ = pad_batch([encodings[i] for i in batch], dtype=probs.dtype)
        probs[batch], _ = forward_batch(params, config, ids, positions, mask)
    return probs


# ---------------------------------------------------------------------------
# optimizer

class Adam:
    def __init__(self, params, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, params, grads):
        self.t += 1
        b1c = 1.0 - self.beta1 ** self.t
        b2c = 1.0 - self.beta2 ** self.t
        for key in params:
            g = grads[key]
            m, v = self.m[key], self.v[key]
            m *= self.beta1
            v *= self.beta2
            wide = np.result_type(m, g)
            if wide != m.dtype:
                # A wider gradient widens the moments, as an out-of-place
                # update would.
                self.m[key] = m = m.astype(wide)
                self.v[key] = v = v.astype(wide)
            m += (1.0 - self.beta1) * g
            v += (1.0 - self.beta2) * g * g
            m_hat = m / b1c
            v_hat = v / b2c
            params[key] -= (self.lr * m_hat / (np.sqrt(v_hat) + self.eps)).astype(params[key].dtype)


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


def train(samples, arch=None, epochs=10, aug_mode="none", seed=0, min_freq=DEFAULT_MIN_FREQ,
          max_code=DEFAULT_MAX_CODE, max_dfg=DEFAULT_MAX_DFG, batch_size=32, lr=1e-3, log=None):
    """Train on the corpus train split with per-epoch renaming augmentation.

    arch: ModelConfig keyword arguments other than vocab_size and seed, which
    come from seed and the vocabulary built here; it carries min_freq and the
    encoding limits max_code and max_dfg.
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

    vocab = build_vocabulary(train_samples, min_freq, max_code, max_dfg)
    config = ModelConfig(vocab_size=vocab.size, seed=seed, **(arch or {}))
    params = init_params(config)
    optimizer = Adam(params, lr=lr)
    rng = np.random.default_rng(seed)

    base_encodings, encode_stats = encode_corpus(train_samples, vocab)
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
            renamed = [rename_variables(s, fraction, seed + epoch) for s in train_samples]
            encodings, _ = encode_corpus(renamed, vocab)

        order = rng.permutation(len(encodings))
        total_loss = 0.0
        n_batches = 0
        for start in range(0, len(order), batch_size):
            chunk = [encodings[i] for i in order[start : start + batch_size]]
            probs, labels, grads = batch_gradients(params, config, chunk, rng=rng)
            loss = compute_loss(probs, labels)
            if not np.isfinite(loss):
                raise TrainingDiverged(
                    f"non-finite loss {loss} at epoch {epoch}, batch {n_batches}"
                )
            optimizer.step(params, grads)
            total_loss += loss
            n_batches += 1

        valid_probs = forward_pass(params, config, valid_encodings)
        valid_loss = compute_loss(valid_probs, valid_labels)
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
    return [{"loop_index": index, "line": info["line"], "loop_code": info["sample"].loop_code,
             "probs": dict(zip(LABELS, p)), "labels": dict(zip(LABELS, threshold_labels(p, gate))),
             "gated": gate}
            for index, (info, p) in enumerate(zip(loops, probs.tolist()))]


# ---------------------------------------------------------------------------
# gradient verification

def small_config(vocab_size=16, scale_mode="sqrt_d"):
    return ModelConfig(vocab_size=vocab_size, d_model=8, n_heads=2, n_layers=1,
                       d_ff=16, max_len=32, dropout_rate=0.0, seed=3, scale_mode=scale_mode)


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
    the loss of the whole batch padded once to its longest. Samples n_coords
    coordinates per parameter group; returns (max_relative_error, per-group
    dict).
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
    _, _, grads = batch_gradients(params, config, encodings, dtype=np.float64)
    ids, positions, mask, labels = pad_batch(encodings, dtype=np.float64)

    def loss_at():
        p, _ = forward_batch(params, config, ids, positions, mask)
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
        config.dropout_rate, 0 if config.scale_mode == "sqrt_d" else 1,
    )
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(header)
        for name, _ in param_layout(config):
            fh.write(np.ascontiguousarray(params[name], dtype="<f4").tobytes())


def load_model(path):
    with open(path, "rb") as fh:
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise ValueError(f"not a model file (bad magic {magic!r})")
        header = fh.read(struct.calcsize(HEADER))
        if len(header) != struct.calcsize(HEADER):
            raise ValueError("model file truncated in its header")
        (d_model, n_heads, n_layers, d_ff, max_len, vocab_size,
         seed, dropout, scale_flag) = struct.unpack(HEADER, header)
        if scale_flag not in (0, 1):
            raise ValueError(f"model file has scale-mode byte {scale_flag}, not 0 or 1")
        config = ModelConfig(
            vocab_size=vocab_size, d_model=d_model, n_heads=n_heads,
            n_layers=n_layers, d_ff=d_ff, max_len=max_len,
            dropout_rate=dropout, seed=seed, scale_mode=("sqrt_d", "d")[scale_flag],
        )
        needed = param_bytes(config)
        held = os.fstat(fh.fileno()).st_size - fh.tell()
        if held != needed:
            raise ValueError(f"model file holds {held} parameter bytes, its header needs {needed}")
        params = {name: np.frombuffer(fh.read(4 * math.prod(shape)), dtype="<f4")
                  .reshape(shape).copy() for name, shape in param_layout(config)}
    return params, config
