"""Vocabulary, model-input encoding and batch padding.

An encoded sample is [CLS] + code token ids + [SEP] + one id per data-flow
node; it keeps the node alignment and the graph edges, not a mask. Each
padded batch gets its additive attention mask from build_attention_mask:
code positions (and CLS/SEP) attend freely, data-flow nodes attend their
graph neighbours, themselves and their aligned code token, and a pad slot
attends only to itself. Masked pairs carry a large negative value that
underflows to an exact zero attention weight after softmax. A sample is cut
to the vocabulary's max_code code tokens and max_dfg nodes, so a model's
vocab.json carries its limits with its token ids. The code tokens' lexemes
are those a sample carries: from extraction (syntax.emit), from renaming, or
from train's one pass over each train loop, which parses it for its names
(augment.find_names) or, when no epoch renames, tokenizes it. A sample that
carries none, as one read from corpus.jsonl, has its text tokenized here.
A renaming epoch of train encodes no renamed sample: relabel_encoding writes
the new names' ids at the data-flow nodes' code slots and node positions.
"""

import json
import sys
from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np

from .syntax import tokenize

PAD_ID = 0
CLS_ID = 1
SEP_ID = 2
UNK_ID = 3
RESERVED = (("[PAD]", PAD_ID), ("[CLS]", CLS_ID), ("[SEP]", SEP_ID), ("[UNK]", UNK_ID))

MASK_NEG = -1e9  # stands in for -inf; underflows to weight 0 in float32 softmax

DEFAULT_MAX_CODE = 256
DEFAULT_MAX_DFG = 32
DEFAULT_MIN_FREQ = 2
_NUMBERS = ("min_freq", "max_code", "max_dfg")  # a Vocabulary's fields besides its tokens

# Padded cells B·L² one batch may hold, in training sub-batches and in
# inference alike: each float32 (B, H, L, L) attention tensor then stays
# near 1 MiB at the default 4 heads.
BATCH_CELLS = 65536


@dataclass
class Vocabulary:
    token_to_id: dict
    min_freq: int
    max_code: int
    max_dfg: int

    @property
    def size(self):
        return len(self.token_to_id)

    def lookup(self, token):
        return self.token_to_id.get(token, UNK_ID)

    def to_json(self):
        return {key: getattr(self, key) for key in _NUMBERS} | {"tokens": self.token_to_id}

    @classmethod
    def from_json(cls, data):
        tokens = data.get("tokens") if isinstance(data, dict) else None
        if not isinstance(tokens, dict) or sorted(
                i for i in tokens.values() if type(i) is int) != list(range(len(tokens))):
            raise ValueError("a vocabulary maps its tokens to the ids 0..n-1")
        numbers = [data.get(key) for key in _NUMBERS]
        if not all(type(n) is int and n >= 0 for n in numbers):
            raise ValueError("a vocabulary holds min_freq, max_code and max_dfg as integers "
                             ">= 0; one written without the limits predates them: retrain")
        return cls(dict(tokens), *numbers)

    def save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json(), fh, ensure_ascii=False, indent=2, allow_nan=False)
            fh.write("\n")

    @classmethod
    def load(cls, path):
        try:
            with open(path, encoding="utf-8") as fh:
                return cls.from_json(json.load(fh))
        except ValueError as err:  # not UTF-8, not JSON, or no vocabulary
            raise ValueError(f"{path}: {err}") from None


@dataclass
class EncodedInput:
    ids: list
    positions: list
    # The graph the attention mask is built from, per batch, by pad_batch:
    dfg_alignment: list  # per node: code slot index, or None if truncated away
    labels: tuple
    edges: list = field(default_factory=list)  # kept (to, from) node pairs
    code_truncated: bool = False
    dfg_truncated: bool = False

    @property
    def length(self):
        return len(self.ids)


def sample_lexemes(sample):
    """The lexemes the sample carries, else its text's, interned as train
    holds those of every train loop at once."""
    return sample.lexemes or [sys.intern(t.lexeme) for t in tokenize(sample.source_text())]


def build_vocabulary(train_samples, min_freq=DEFAULT_MIN_FREQ, max_code=DEFAULT_MAX_CODE,
                     max_dfg=DEFAULT_MAX_DFG):
    """Vocabulary over code-token lexemes and data-flow node names of the
    train split, ids dense from 4 in (frequency desc, lexeme asc) order."""
    if not train_samples:
        raise ValueError("cannot build a vocabulary from an empty corpus")
    counts = Counter()
    for sample in train_samples:
        counts.update(sample_lexemes(sample))
        counts.update(name for name, _ in sample.dfg.get("nodes", []))
    token_to_id = {tok: i for tok, i in RESERVED}
    kept = sorted(
        (tok for tok, c in counts.items() if c >= min_freq),
        key=lambda tok: (-counts[tok], tok),
    )
    for tok in kept:
        token_to_id[tok] = len(token_to_id)
    return Vocabulary(token_to_id, min_freq, max_code, max_dfg)


def build_attention_mask(encodings, dtype=np.float32):
    """The additive (B, L, L) mask of encodings padded to the longest: 0 where
    attention is allowed, MASK_NEG elsewhere. Symmetric; every row keeps its
    diagonal open, so a pad slot attends only to itself."""
    lengths = np.array([e.length for e in encodings])
    n_dfg = np.array([len(e.dfg_alignment) for e in encodings])
    sep = lengths - n_dfg - 1  # CLS at 0, code at 1..sep-1, nodes from sep+1
    slot = np.arange(lengths.max())
    code = slot <= sep[:, None]  # code block including CLS and SEP
    real = slot < lengths[:, None]
    allowed = code[:, :, None] & code[:, None, :]
    each = np.arange(len(encodings))
    for hub in (0, sep):  # CLS and SEP attend to and from every real slot
        allowed[each, hub, :] = real
        allowed[each, :, hub] = real
    allowed[:, slot, slot] = True

    # (sample, node, code slot) per alignment and (sample, node, node) per edge
    aligned = np.array([(b, k, s) for b, e in enumerate(encodings)
                        for k, s in enumerate(e.dfg_alignment) if s is not None],
                       dtype=np.int64).reshape(-1, 3).T
    edges = np.array([(b, to, frm) for b, e in enumerate(encodings) for to, frm in e.edges],
                     dtype=np.int64).reshape(-1, 3).T
    bad = (aligned[2] < 1) | (aligned[2] >= sep[aligned[0]])
    if bad.any():
        b, _, s = aligned[:, bad.argmax()]
        raise IndexError(f"alignment slot {s} outside code block 1..{sep[b] - 1}")
    bad = (edges[1:].min(axis=0) < 0) | (edges[1:].max(axis=0) >= n_dfg[edges[0]])
    if bad.any():
        b, to, frm = edges[:, bad.argmax()]
        raise IndexError(f"edge ({to}, {frm}) outside node range 0..{n_dfg[b] - 1}")
    base = sep + 1  # first node slot
    batch = np.concatenate([aligned[0], edges[0]])
    rows = np.concatenate([base[aligned[0]] + aligned[1], base[edges[0]] + edges[1]])
    cols = np.concatenate([aligned[2], base[edges[0]] + edges[2]])
    allowed[batch, rows, cols] = True
    allowed[batch, cols, rows] = True
    mask = allowed.astype(dtype)  # 1 open, 0 closed
    mask -= 1.0
    mask *= -MASK_NEG
    return mask


def pad_batch(encodings, dtype=np.float32):
    """Pad encodings to a common length: (ids, positions, mask, labels). Pad
    slots use PAD id and position 0, and their mask rows only allow
    self-attention, so they cannot influence any real slot."""
    length = max(e.length for e in encodings)
    ids = np.full((len(encodings), length), PAD_ID, dtype=np.int64)
    positions = np.zeros((len(encodings), length), dtype=np.int64)
    for i, enc in enumerate(encodings):
        ids[i, : enc.length] = enc.ids
        positions[i, : enc.length] = enc.positions
    labels = np.array([e.labels for e in encodings], dtype=dtype)
    return ids, positions, build_attention_mask(encodings, dtype), labels


def length_batches(encodings):
    """Index lists that cover encodings once, for running them in batches:
    indices sorted stably by length, each batch cut so that its padded cells
    B·L_max² stay within BATCH_CELLS. A sample over the budget alone gets a
    batch of its own."""
    order = sorted(range(len(encodings)), key=lambda i: encodings[i].length)
    batches = []
    for i in order:
        # Sorted ascending, so sample i is the longest of any batch it joins.
        if batches and (len(batches[-1]) + 1) * encodings[i].length ** 2 <= BATCH_CELLS:
            batches[-1].append(i)
        else:
            batches.append([i])
    return batches


def encode_sample(sample, vocab):
    """Encode one sample at vocab's limits: head-keep truncation for code,
    program-order truncation for data-flow nodes, edges to dropped nodes removed."""
    lexemes = sample_lexemes(sample)
    code_truncated = len(lexemes) > vocab.max_code
    lexemes = lexemes[:vocab.max_code]
    n_code = len(lexemes)

    nodes = sample.dfg.get("nodes", [])
    edges = sample.dfg.get("edges", [])
    dfg_truncated = len(nodes) > vocab.max_dfg
    nodes = nodes[:vocab.max_dfg]
    edges = [(t, f) for t, f in edges if t < len(nodes) and f < len(nodes)]

    alignment = [1 + tok_idx if tok_idx < n_code else None for _, tok_idx in nodes]
    ids = [CLS_ID] + [vocab.lookup(t) for t in lexemes] + [SEP_ID]
    ids += [vocab.lookup(name) for name, _ in nodes]
    positions = [0] + list(range(1, n_code + 1)) + [0] + [0] * len(nodes)
    return EncodedInput(
        ids=ids, positions=positions, dfg_alignment=alignment,
        labels=sample.labels,
        edges=edges, code_truncated=code_truncated, dfg_truncated=dfg_truncated,
    )


def relabel_encoding(encoding, nodes, mapping, vocab):
    """encode_sample of the sample that mapping renames, from encoding, its
    own: each renamed node's new id at its code slot below the code cut and
    at its node position below max_dfg."""
    ids = list(encoding.ids)
    first_node = len(ids) - len(encoding.dfg_alignment)  # after [SEP]
    for k, (name, slot) in enumerate(nodes):
        if name in mapping:
            new = vocab.lookup(mapping[name])
            if slot < first_node - 2:  # the code tokens kept
                ids[1 + slot] = new
            if first_node + k < len(ids):
                ids[first_node + k] = new
    return replace(encoding, ids=ids)


def encode_corpus(samples, vocab):
    """Encode a sample list; returns (encodings, truncation stats)."""
    encoded = [encode_sample(s, vocab) for s in samples]
    stats = {
        "samples": len(encoded),
        "code_truncated": sum(e.code_truncated for e in encoded),
        "dfg_truncated": sum(e.dfg_truncated for e in encoded),
        "max_code": vocab.max_code,
        "max_dfg": vocab.max_dfg,
    }
    return encoded, stats
