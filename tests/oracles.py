"""Shared independent oracles and random program generators for the tests.

The straight-line generator builds programs as plain statement tuples and
renders them to C text; the reaching-definitions oracle computes the expected
def/use graph from those tuples directly, never touching the parser or the
graph builder it is checking. For differential tests, the reference lexer
is the scanner the regex lexer replaced, the reference mask builder is the
per-sample builder and pad loop the batch mask builder replaced, the
reference training step is the one-padded-batch step that length
sub-batches replaced, the reference forward is the encoder forward that
ran the last layer at every row in eval mode, the reference data-flow
builder is the two-pass loop analysis the one-pass builder replaced, the
reference parser is the one-function-per-precedence-level parser that
precedence climbing replaced, the reference renderer and extraction are
the string renderer and the re-parsing sample builders that the
slot-emitting renderer replaced, and the reference renaming rebuilds a
renamed sample from scratch (render, re-parse, data flow, hash), which
the relabeling in augment.rename_variables replaced. The reference
extraction walks loops as the package did before its one-walk `_loops`:
this module keeps verbatim copies of that `_parent_map`,
`_attached_pragma`, `_loops`, `_has_blocking_pragma`, `_labels` and
`_context_statements`, so the differential tests check the one walk, the
parse-once pragma rule and the context walk against the old rules.
"""

import random
from dataclasses import replace

import numpy as np

from ompadvisor.augment import _rename_pragma
from ompadvisor.corpus import (
    BLOCKING_DIRECTIVES, POSITIVE_DIRECTIVES, Reject, Sample, _assign_target_name,
    _collect_candidates, _declared_name, _loop_is_empty, _span_contains, _used_variables,
    content_hash,
)
from ompadvisor.dfg import DataFlowGraph, DfgNode, _merge, build_dfg, dfg_to_json
from ompadvisor.encode import MASK_NEG
from ompadvisor.model import (
    _LN_EPS, LAYER_KEYS, TrainingDiverged, _split_heads, backward_batch, compute_loss, forward_batch, masked_softmax, pad_batch,
)
from ompadvisor.pragmas import PragmaError, parse_omp_pragma
from ompadvisor.syntax import (
    _EXPRESSION_FRAMES, _PRECEDENCE, _STATEMENT_FRAMES, ASSIGN_OPS, KEYWORDS,
    MAX_PARSE_FRAMES, TYPE_KEYWORDS, AstNode, ParseError, Token, emit, iter_nodes,
    parse_snippet, parse_source, tokenize,
)

VARS = ["a", "b", "c", "d", "e", "f"]
OPS = ["+", "-", "*"]


def gen_straight_line_program(rng, max_stmts=10, max_vars=6):
    """Random declaration/assignment sequence as (kind, target, operands).

    kind: decl | assign | compound; operands are variable names or integer
    literals, combined left to right with random operators.
    """
    names = VARS[: rng.randint(2, max_vars)]
    declared = []
    stmts = []
    for _ in range(rng.randint(1, max_stmts)):
        use_pool = declared if declared else names
        n_ops = rng.randint(1, 3)
        operands = []
        for _ in range(n_ops):
            if rng.random() < 0.6:
                operands.append(rng.choice(use_pool))
            else:
                operands.append(str(rng.randint(0, 99)))
        undeclared = [v for v in names if v not in declared]
        if undeclared and (not declared or rng.random() < 0.4):
            target = rng.choice(undeclared)
            declared.append(target)
            stmts.append(("decl", target, operands))
        else:
            target = rng.choice(declared) if declared else rng.choice(names)
            if target not in declared:
                declared.append(target)
                stmts.append(("decl", target, operands))
                continue
            kind = "compound" if rng.random() < 0.3 else "assign"
            stmts.append((kind, target, operands))
    return stmts


def render_straight_line(stmts):
    lines = []
    for kind, target, operands in stmts:
        rng_ops = OPS * 2
        expr = operands[0]
        for i, operand in enumerate(operands[1:]):
            expr += f" {rng_ops[i]} {operand}"
        if kind == "decl":
            lines.append(f"int {target} = {expr};")
        elif kind == "assign":
            lines.append(f"{target} = {expr};")
        else:
            lines.append(f"{target} += {expr};")
    return "\n".join(lines)


def straight_line_oracle(stmts):
    """Expected (nodes, edges) for a straight-line program.

    nodes: (var_name, kind) in textual order. edges: set of (to, from) node
    indices, built by a forward scan tracking each variable's last def.
    """
    nodes = []
    edges = set()
    last_def = {}
    for kind, target, operands in stmts:
        target_idx = len(nodes)
        nodes.append((target, "def"))
        use_indices = []
        for operand in operands:
            if operand.isdigit():
                continue
            idx = len(nodes)
            nodes.append((operand, "use"))
            use_indices.append(idx)
            if operand in last_def:
                edges.add((idx, last_def[operand]))
        for idx in use_indices:
            if idx != target_idx:
                edges.add((target_idx, idx))
        if kind == "compound" and target in last_def and last_def[target] != target_idx:
            edges.add((target_idx, last_def[target]))
        last_def[target] = target_idx
    return nodes, edges


def ast_equal(a, b):
    """Structural equality: kind, attrs and children, ignoring token spans."""
    if a.kind != b.kind or a.attrs != b.attrs or len(a.children) != len(b.children):
        return False
    return all(ast_equal(x, y) for x, y in zip(a.children, b.children))


# ---------------------------------------------------------------------------
# richer random programs for parser round-trip checks

_TYPES = ["int", "long", "float", "double"]


def _gen_expr(rng, names, depth=0):
    roll = rng.random()
    if depth >= 3 or roll < 0.3:
        if rng.random() < 0.5 and names:
            return rng.choice(names)
        return str(rng.randint(0, 999))
    if roll < 0.55:
        op = rng.choice(["+", "-", "*", "/", "%", "<", ">", "==", "!=", "&&", "||"])
        return f"{_gen_expr(rng, names, depth + 1)} {op} {_gen_expr(rng, names, depth + 1)}"
    if roll < 0.7 and names:
        return f"{rng.choice(names)}[{_gen_expr(rng, names, depth + 1)}]"
    if roll < 0.8:
        return f"{rng.choice(['-', '!'])}({_gen_expr(rng, names, depth + 1)})"
    if roll < 0.9 and names:
        args = ", ".join(_gen_expr(rng, names, depth + 1) for _ in range(rng.randint(0, 2)))
        return f"fn{rng.randint(0, 3)}({args})"
    return f"({_gen_expr(rng, names, depth + 1)})"


def _gen_stmt(rng, names, depth=0):
    roll = rng.random()
    if depth >= 2 or roll < 0.45:
        target = rng.choice(names)
        if rng.random() < 0.3:
            target = f"{target}[{_gen_expr(rng, names, depth + 1)}]"
        op = rng.choice(["=", "+=", "-=", "*="])
        return f"{target} {op} {_gen_expr(rng, names, depth)};"
    if roll < 0.6:
        body = _gen_stmt(rng, names, depth + 1)
        return f"if ({_gen_expr(rng, names, depth)}) {{ {body} }}"
    if roll < 0.75:
        i = rng.choice(names)
        body = _gen_stmt(rng, names, depth + 1)
        return f"for ({i} = 0; {i} < {rng.randint(1, 64)}; {i}++) {{ {body} }}"
    if roll < 0.85:
        body = _gen_stmt(rng, names, depth + 1)
        return f"while ({_gen_expr(rng, names, depth)}) {{ {body} }}"
    return f"{rng.choice(names)}++;"


def gen_source_program(seed):
    """A random multi-function program exercising the grammar."""
    rng = random.Random(seed)
    parts = []
    for f in range(rng.randint(1, 3)):
        names = rng.sample(["a", "b", "c", "i", "j", "n", "x", "y"], rng.randint(3, 6))
        decls = "\n".join(
            f"{rng.choice(_TYPES)} {name} = {rng.randint(0, 9)};" for name in names
        )
        body = "\n".join(_gen_stmt(rng, names) for _ in range(rng.randint(1, 5)))
        ret = "return 0;" if rng.random() < 0.5 else "return;"
        ret_type = "int" if "return 0" in ret else "void"
        parts.append(f"{ret_type} fn{f}(int n0) {{\n{decls}\n{body}\n{ret}\n}}")
    return "\n".join(parts)


# ---------------------------------------------------------------------------
# reference lexer: the character-at-a-time scanner the regex lexer in
# ompadvisor.syntax replaced, kept verbatim as its differential oracle

_OPERATORS = (
    "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
    "+=", "-=", "*=", "/=", "%=", "++", "--",
    "+", "-", "*", "/", "%", "<", ">", "=", "!", "&", "|", "^", "~",
)

_PUNCTUATION = "()[]{};,"


def reference_strip_comments(text):
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            if j < 0:
                j = n - 2
            for k in range(i, j + 2):
                if k < n:
                    out.append("\n" if text[k] == "\n" else " ")
            i = j + 2
        elif c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            if j < 0:
                j = n
            out.append(" " * (j - i))
            i = j
        elif c in "\"'":
            j = i + 1
            while j < n and text[j] != c:
                j += 2 if text[j] == "\\" else 1
            j = min(j, n - 1)
            out.append(text[i : j + 1])
            i = j + 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def _reference_preprocess(text):
    """Strip comments; keep `#pragma omp` logical lines, blank other `#` lines."""
    lines = reference_strip_comments(text).split("\n")
    out = []
    i = 0
    while i < len(lines):
        line = lines[i]
        stripped = line.lstrip()
        if stripped.startswith("#"):
            parts = [line]
            while parts[-1].rstrip().endswith("\\") and i + 1 < len(lines):
                i += 1
                parts.append(lines[i])
            logical = " ".join(p.rstrip().rstrip("\\").strip() for p in parts)
            words = logical.split()
            if len(words) >= 2 and words[0] == "#pragma" and words[1] == "omp":
                out.append(" ".join(words))
            else:
                out.append("")
            out.extend([""] * (len(parts) - 1))
        else:
            out.append(line)
        i += 1
    return "\n".join(out)


def reference_tokenize(source_text):
    """Lex preprocessed source into Tokens. Raises ParseError on bad chars."""
    text = _reference_preprocess(source_text)
    tokens = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "#":
            j = text.find("\n", i)
            if j < 0:
                j = n
            lexeme = text[i:j].rstrip()
            tokens.append(Token("pragma-line", lexeme, line, col))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            lexeme = text[i:j]
            kind = "keyword" if lexeme in KEYWORDS else "identifier"
            tokens.append(Token(kind, lexeme, line, col))
            col += j - i
            i = j
            continue
        if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            if text[j] == "0" and j + 1 < n and text[j + 1] in "xX":
                j += 2
                while j < n and (text[j].isdigit() or text[j].lower() in "abcdef"):
                    j += 1
            else:
                while j < n and text[j].isdigit():
                    j += 1
                if j < n and text[j] == ".":
                    j += 1
                    while j < n and text[j].isdigit():
                        j += 1
                if j < n and text[j] in "eE":
                    k = j + 1
                    if k < n and text[k] in "+-":
                        k += 1
                    if k < n and text[k].isdigit():
                        j = k
                        while j < n and text[j].isdigit():
                            j += 1
            while j < n and text[j] in "fFlLuU":
                j += 1
            tokens.append(Token("number", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if c in "\"'":
            j = i + 1
            while j < n and text[j] != c:
                if text[j] == "\n":
                    raise ParseError(line, col, "closing quote", "newline")
                j += 2 if text[j] == "\\" else 1
            if j >= n:
                raise ParseError(line, col, "closing quote", "end of input")
            kind = "string-literal" if c == '"' else "char-literal"
            lexeme = text[i : j + 1]
            tokens.append(Token(kind, lexeme, line, col))
            if "\n" in lexeme:  # continued by backslash-newline
                line += lexeme.count("\n")
                col = len(lexeme) - lexeme.rindex("\n")
            else:
                col += len(lexeme)
            i = j + 1
            continue
        for op in _OPERATORS:
            if text.startswith(op, i):
                tokens.append(Token("operator", op, line, col))
                col += len(op)
                i += len(op)
                break
        else:
            if c in _PUNCTUATION:
                tokens.append(Token("punctuation", c, line, col))
                col += 1
                i += 1
            else:
                raise ParseError(line, col, "a token", c)
    return tokens


# ---------------------------------------------------------------------------
# reference attention mask: one (L, L) mask per sample, copied into the batch


def reference_attention_mask(n_code, dfg_alignment, edges, dtype=np.float32):
    """The additive (L, L) mask: 0 where attention is allowed, MASK_NEG
    elsewhere. Symmetric; every row keeps its diagonal open."""
    n_dfg = len(dfg_alignment)
    length = 1 + n_code + 1 + n_dfg
    sep = n_code + 1
    base = n_code + 2
    mask = np.full((length, length), MASK_NEG, dtype=dtype)
    mask[: sep + 1, : sep + 1] = 0.0  # code block including CLS and SEP
    mask[0, :] = 0.0
    mask[:, 0] = 0.0
    mask[sep, :] = 0.0
    mask[:, sep] = 0.0
    np.fill_diagonal(mask, 0.0)
    for i, slot in enumerate(dfg_alignment):
        if slot is None:
            continue
        if not 1 <= slot <= n_code:
            raise IndexError(f"alignment slot {slot} outside code block 1..{n_code}")
        mask[base + i, slot] = 0.0
        mask[slot, base + i] = 0.0
    for to, frm in edges:
        if not (0 <= to < n_dfg and 0 <= frm < n_dfg):
            raise IndexError(f"edge ({to}, {frm}) outside node range 0..{n_dfg - 1}")
        mask[base + to, base + frm] = 0.0
        mask[base + frm, base + to] = 0.0
    return mask


def reference_batch_mask(encodings, dtype=np.float32):
    """The (B, L, L) mask the per-sample pad loop built: each sample's mask
    copied into a MASK_NEG batch, then every pad slot's diagonal opened."""
    batch = len(encodings)
    length = max(e.length for e in encodings)
    mask = np.full((batch, length, length), MASK_NEG, dtype=dtype)
    for i, enc in enumerate(encodings):
        n = enc.length
        n_code = n - 2 - len(enc.dfg_alignment)
        mask[i, :n, :n] = reference_attention_mask(n_code, enc.dfg_alignment, enc.edges)
    lengths = np.array([e.length for e in encodings])
    rows, slots = np.nonzero(np.arange(length) >= lengths[:, None])
    mask[rows, slots, slots] = 0.0
    return mask


# ---------------------------------------------------------------------------
# reference training step: the whole batch padded once to its longest member


def reference_train_step(params, config, optimizer, chunk, rng):
    """One optimizer step on chunk as one padded batch, as model.train ran
    it before length sub-batches. Returns (probs, grads)."""
    ids, positions, mask, labels = pad_batch(chunk)
    probs, cache = forward_batch(params, config, ids, positions, mask,
                                 train=True, rng=rng)
    loss = compute_loss(probs, labels)
    if not np.isfinite(loss):
        raise TrainingDiverged(f"non-finite loss {loss}")
    grads = backward_batch(params, config, cache, probs, labels)
    optimizer.step(params, grads)
    return probs, grads


# ---------------------------------------------------------------------------
# reference forward: every layer at every row, the cache always kept, with
# the float dropout masks and the layer norm it ran with


def _dropout_mask(rng, shape, rate, dtype):
    if rng is None or rate <= 0.0:
        return None
    keep = (rng.random(shape) >= rate).astype(dtype)
    keep /= 1.0 - rate
    return keep


def _apply_drop(x, mask):
    return x if mask is None else x * mask


def _merge_heads(x):
    b, h, l, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, l, h * dh)


def _layer_norm(x, g, b):
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + _LN_EPS)
    xhat = (x - mu) * inv
    return xhat * g + b, (xhat, inv)


def reference_forward_batch(params, config, ids, positions, mask, train=False, rng=None):
    """The encoder forward that computed every row of every layer in eval
    mode too and always returned its cache, kept verbatim.

    ids, positions: (B, L) int arrays; mask: (B, L, L) additive mask.
    Returns (probs (B, 3), cache). Deterministic whenever train is False.
    """
    drop_rng = rng if train else None
    dtype = params["tok_emb"].dtype
    x = params["tok_emb"][ids] + params["pos_emb"][positions]
    cache = {"ids": ids, "positions": positions, "mask": mask, "layers": [], "x0": x}
    for layer in range(config.n_layers):
        p = {k: params[f"layer{layer}.{k}"] for k in LAYER_KEYS}
        x_in = x
        q = x_in @ p["wq"] + p["bq"]
        k = x_in @ p["wk"] + p["bk"]
        v = x_in @ p["wv"] + p["bv"]
        qh, kh, vh = (_split_heads(t, config.n_heads) for t in (q, k, v))
        scores = qh @ kh.transpose(0, 1, 3, 2)
        scores /= config.attn_scale
        # A wider mask widens the scores, as an out-of-place sum would.
        scores = scores.astype(np.result_type(scores, mask), copy=False)
        scores += mask[:, None]
        attn = masked_softmax(scores)
        attn_drop_mask = _dropout_mask(drop_rng, attn.shape, config.dropout_rate, dtype)
        attn_dropped = _apply_drop(attn, attn_drop_mask)
        context = _merge_heads(attn_dropped @ vh)
        proj = context @ p["wo"] + p["bo"]
        proj_drop_mask = _dropout_mask(drop_rng, proj.shape, config.dropout_rate, dtype)
        res1 = x_in + _apply_drop(proj, proj_drop_mask)
        x1, ln1_cache = _layer_norm(res1, p["ln1_g"], p["ln1_b"])
        ff_pre = x1 @ p["w1"] + p["b1"]
        ff_hidden = np.maximum(ff_pre, 0.0)
        ff_out = ff_hidden @ p["w2"] + p["b2"]
        ff_drop_mask = _dropout_mask(drop_rng, ff_out.shape, config.dropout_rate, dtype)
        res2 = x1 + _apply_drop(ff_out, ff_drop_mask)
        x2, ln2_cache = _layer_norm(res2, p["ln2_g"], p["ln2_b"])
        cache["layers"].append({
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
    cache["hidden"] = x
    cache["cls"] = cls
    return probs, cache


# ---------------------------------------------------------------------------
# reference data-flow builder: the builder that analyzed every loop body twice
# (time exponential in nesting depth), kept verbatim as the one-pass
# builder's differential oracle


class ReferenceBuilder:
    def __init__(self):
        self.nodes = {}  # token_index -> (var_name, occurrence_kind)
        self.edges = set()  # (to_token, from_token)

    def occurrence(self, tok_idx, name, kind):
        if tok_idx not in self.nodes:
            self.nodes[tok_idx] = (name, kind)
        return tok_idx

    def link(self, to_tok, from_toks):
        for f in from_toks:
            if f != to_tok:
                self.edges.add((to_tok, f))

    # -- expressions: returns the occurrence tokens that act as value sources

    def visit_expr(self, node, env):
        kind = node.kind
        if kind == "Identifier":
            tok = self.occurrence(node.token_span[0], node.attrs["name"], "use")
            self.link(tok, env.get(node.attrs["name"], ()))
            return [tok]
        if kind == "Constant" or kind == "Empty":
            return []
        if kind == "BinaryOp":
            return self.visit_expr(node.children[0], env) + self.visit_expr(node.children[1], env)
        if kind == "UnaryOp":
            op = node.attrs["op"]
            if op in ("++", "--"):
                return self.visit_incdec(node.children[0], env)
            return self.visit_expr(node.children[0], env)
        if kind == "Call":
            sources = []
            for arg in node.children:
                sources.extend(self.visit_expr(arg, env))
            return sources
        if kind == "ArrayIndex":
            return self.visit_expr(node.children[0], env) + self.visit_expr(node.children[1], env)
        if kind == "Assign":
            return self.visit_assign(node, env)
        raise ValueError(f"unexpected expression node: {kind}")

    def visit_assign(self, node, env):
        target, value = node.children
        compound = node.attrs["op"] != "="
        value_sources = self.visit_expr(value, env)
        base = target
        subscript_sources = []
        while base.kind == "ArrayIndex":
            subscript_sources.extend(self.visit_expr(base.children[1], env))
            base = base.children[0]
        if base.kind == "UnaryOp" and base.attrs["op"] == "*":
            # Store through a pointer: address read, no tracked definition.
            return self.visit_expr(base.children[0], env) + subscript_sources + value_sources
        name = base.attrs["name"]
        tok = self.occurrence(base.token_span[0], name, "def")
        self.link(tok, value_sources)
        if compound:
            self.link(tok, env.get(name, ()))
        env[name] = frozenset([tok])
        return [tok]

    def visit_incdec(self, target, env):
        base = target
        subscript_sources = []
        while base.kind == "ArrayIndex":
            subscript_sources.extend(self.visit_expr(base.children[1], env))
            base = base.children[0]
        if base.kind != "Identifier":
            return self.visit_expr(target, env)
        name = base.attrs["name"]
        tok = self.occurrence(base.token_span[0], name, "def")
        self.link(tok, env.get(name, ()))
        env[name] = frozenset([tok])
        return [tok]

    # -- declarations and statements: env is mutated in place

    def visit_declaration(self, node, env):
        declarator = node.children[0]
        init_sources = []
        if declarator.kind == "Assign":
            init_sources = self.visit_expr(declarator.children[1], env)
            declarator = declarator.children[0]
        if declarator.kind == "ArrayIndex":
            self.visit_expr(declarator.children[1], env)
            declarator = declarator.children[0]
        name = declarator.attrs["name"]
        tok = self.occurrence(declarator.token_span[0], name, "def")
        self.link(tok, init_sources)
        env[name] = frozenset([tok])

    def visit_stmt(self, node, env):
        kind = node.kind
        if kind == "Declaration":
            self.visit_declaration(node, env)
        elif kind == "ExprStmt":
            self.visit_expr(node.children[0], env)
        elif kind == "ReturnStmt":
            if node.children:
                self.visit_expr(node.children[0], env)
        elif kind == "CompoundStmt":
            for child in node.children:
                self.visit_stmt(child, env)
        elif kind == "IfStmt":
            self.visit_expr(node.children[0], env)
            then_env = dict(env)
            self.visit_stmt(node.children[1], then_env)
            else_env = dict(env)
            if len(node.children) == 3:
                self.visit_stmt(node.children[2], else_env)
            merged = _merge(then_env, else_env)
            env.clear()
            env.update(merged)
        elif kind == "ForStmt":
            init, cond, inc, body = node.children
            self.visit_stmt(init, env)
            entry = dict(env)
            body_env = dict(entry)
            for _ in range(2):  # second pass folds the loop back-edge in
                if cond.kind != "Empty":
                    self.visit_expr(cond, body_env)
                self.visit_stmt(body, body_env)
                if inc.kind != "Empty":
                    self.visit_expr(inc, body_env)
                body_env = _merge(entry, body_env)
            merged = _merge(entry, body_env)
            env.clear()
            env.update(merged)
        elif kind == "WhileStmt":
            cond, body = node.children
            entry = dict(env)
            body_env = dict(entry)
            for _ in range(2):
                self.visit_expr(cond, body_env)
                self.visit_stmt(body, body_env)
                body_env = _merge(entry, body_env)
            merged = _merge(entry, body_env)
            env.clear()
            env.update(merged)
        elif kind in ("Empty", "PragmaDirective"):
            pass
        else:
            raise ValueError(f"unexpected statement node: {kind}")


def reference_build_dfg(unit, tokens):
    """Build the DataFlowGraph for a parsed unit or snippet.

    Functions see the file-level state at their definition point; parameters
    become definitions with no incoming edges. Deterministic for identical
    input.
    """
    builder = ReferenceBuilder()
    env = {}
    for item in unit.children:
        if item.kind == "FunctionDef":
            fn_env = dict(env)
            for param in item.children[:-1]:
                builder.visit_declaration(param, fn_env)
            builder.visit_stmt(item.children[-1], fn_env)
        else:
            builder.visit_stmt(item, env)

    ordered = sorted(builder.nodes)
    id_of = {tok: i for i, tok in enumerate(ordered)}
    nodes = [
        DfgNode(i, builder.nodes[tok][0], tok, builder.nodes[tok][1])
        for i, tok in enumerate(ordered)
    ]
    edges = sorted((id_of[t], id_of[f]) for t, f in builder.edges)
    return DataFlowGraph(nodes, edges)


# ---------------------------------------------------------------------------
# reference parser: the parser that recursed once per precedence level and
# handed extra declarators back through a side channel, kept verbatim as the
# precedence-climbing parser's differential oracle (it shares the lexer)


class ReferenceParser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
        self.frames = 0  # charged so far by the constructs open at pos
        # Extra Declarations split off a multi-declarator line, drained by
        # whichever caller requested the declaration.
        self._splice_pending = []

    # -- token helpers

    def peek(self, offset=0):
        p = self.pos + offset
        return self.tokens[p] if p < len(self.tokens) else None

    def at(self, kind, lexeme=None):
        t = self.peek()
        if t is None or t.kind != kind:
            return False
        return lexeme is None or t.lexeme == lexeme

    def advance(self):
        t = self.peek()
        self.pos += 1
        return t

    def expect(self, kind, lexeme=None):
        t = self.peek()
        if t is None:
            last = self.tokens[-1] if self.tokens else None
            line = last.line if last else 1
            col = last.col + len(last.lexeme) if last else 1
            raise ParseError(line, col, lexeme or kind, "end of input")
        if t.kind != kind or (lexeme is not None and t.lexeme != lexeme):
            raise ParseError(t.line, t.col, lexeme or kind, t.lexeme)
        return self.advance()

    def fail(self, expected):
        t = self.peek()
        if t is None:
            last = self.tokens[-1] if self.tokens else None
            raise ParseError(last.line if last else 1, 1, expected, "end of input")
        raise ParseError(t.line, t.col, expected, t.lexeme)

    def descend(self, frames):
        self.frames += frames
        if self.frames > MAX_PARSE_FRAMES:
            self.fail("less deeply nested code")

    def node(self, kind, children, start, attrs=None):
        return AstNode(kind, children, (start, self.pos - 1), attrs or {})

    # -- entry points

    def parse_unit(self):
        start = self.pos
        children = []
        while self.peek() is not None:
            if self.at("pragma-line"):
                t = self.peek()
                raise ParseError(t.line, t.col, "a declaration or function definition", "#pragma")
            children.append(self.parse_external())
            children.extend(self._splice_pending)
            self._splice_pending = []
        return AstNode("TranslationUnit", children, (start, self.pos - 1), {})

    def parse_snippet(self):
        start = self.pos
        children = self.parse_block_items(until_rbrace=False)
        return AstNode("TranslationUnit", children, (start, self.pos - 1), {})

    # -- declarations and functions

    def parse_external(self):
        start = self.pos
        if not (self.at("keyword") and self.peek().lexeme in TYPE_KEYWORDS):
            self.fail("a type keyword")
        type_name = self.advance().lexeme
        pointer = False
        if self.at("operator", "*"):
            self.advance()
            pointer = True
        name_tok = self.expect("identifier")
        if self.at("punctuation", "("):
            return self.parse_function_rest(start, type_name, pointer, name_tok)
        decls = [self.parse_declarator_rest(start, type_name, pointer, name_tok)]
        while self.at("punctuation", ","):
            self.advance()
            dstart = self.pos
            ptr = False
            if self.at("operator", "*"):
                self.advance()
                ptr = True
            tok = self.expect("identifier")
            decls.append(self.parse_declarator_rest(dstart, type_name, ptr, tok))
        self.expect("punctuation", ";")
        if len(decls) == 1:
            decls[0].token_span = (start, self.pos - 1)
            return decls[0]
        # Multi-declarator lines split into one Declaration per name; the
        # canonical renderer emits them on separate lines.
        self._splice_pending = decls[1:]
        return decls[0]

    def parse_declarator_rest(self, start, type_name, pointer, name_tok):
        name_idx = self.pos - 1
        ident = AstNode("Identifier", [], (name_idx, name_idx), {"name": name_tok.lexeme})
        declarator = ident
        if self.at("punctuation", "["):
            self.advance()
            if self.at("punctuation", "]"):
                size = AstNode("Empty", [], (self.pos, self.pos - 1), {})
            else:
                size = self.parse_expression()
            self.expect("punctuation", "]")
            declarator = self.node("ArrayIndex", [ident, size], name_idx)
        if self.at("operator", "="):
            self.advance()
            value = self.parse_assign()
            declarator = self.node("Assign", [declarator, value], name_idx, {"op": "="})
        return self.node("Declaration", [declarator], start,
                         {"type": type_name, "pointer": pointer})

    def parse_declaration(self):
        decl = self.parse_external()
        if decl.kind != "Declaration":
            self.fail("a declaration")
        return decl

    def parse_function_rest(self, start, type_name, pointer, name_tok):
        self.expect("punctuation", "(")
        params = []
        if self.at("keyword", "void") and self.peek(1) and self.peek(1).lexeme == ")":
            self.advance()
        elif not self.at("punctuation", ")"):
            params.append(self.parse_param())
            while self.at("punctuation", ","):
                self.advance()
                params.append(self.parse_param())
        self.expect("punctuation", ")")
        body = self.parse_compound()
        return self.node("FunctionDef", params + [body], start,
                         {"type": type_name, "pointer": pointer, "name": name_tok.lexeme})

    def parse_param(self):
        start = self.pos
        if not (self.at("keyword") and self.peek().lexeme in TYPE_KEYWORDS):
            self.fail("a parameter type")
        type_name = self.advance().lexeme
        pointer = False
        if self.at("operator", "*"):
            self.advance()
            pointer = True
        name_tok = self.expect("identifier")
        name_idx = self.pos - 1
        ident = AstNode("Identifier", [], (name_idx, name_idx), {"name": name_tok.lexeme})
        declarator = ident
        if self.at("punctuation", "["):
            self.advance()
            if self.at("punctuation", "]"):
                size = AstNode("Empty", [], (self.pos, self.pos - 1), {})
            else:
                size = self.parse_expression()
            self.expect("punctuation", "]")
            declarator = self.node("ArrayIndex", [ident, size], name_idx)
        return self.node("Declaration", [declarator], start,
                         {"type": type_name, "pointer": pointer})

    # -- statements

    def parse_block_items(self, until_rbrace):
        items = []
        while True:
            if until_rbrace and self.at("punctuation", "}"):
                break
            if not until_rbrace and self.peek() is None:
                break
            if until_rbrace and self.peek() is None:
                self.fail("}")
            if self.at("pragma-line"):
                t = self.advance()
                pragma = AstNode("PragmaDirective", [], (self.pos - 1, self.pos - 1),
                                 {"raw": t.lexeme})
                nxt = self.peek()
                if nxt is None or nxt.lexeme == "}" or nxt.kind == "pragma-line" or (
                    nxt.kind == "keyword" and nxt.lexeme in TYPE_KEYWORDS
                ):
                    raise ParseError(t.line, t.col, "a statement after the pragma",
                                     nxt.lexeme if nxt else "end of input")
                items.append(pragma)
                continue
            if self.at("keyword") and self.peek().lexeme in TYPE_KEYWORDS:
                items.append(self.parse_declaration())
                items.extend(self._splice_pending)
                self._splice_pending = []
            else:
                items.append(self.parse_statement())
        return items

    def parse_compound(self):
        start = self.pos
        self.expect("punctuation", "{")
        items = self.parse_block_items(until_rbrace=True)
        self.expect("punctuation", "}")
        return self.node("CompoundStmt", items, start)

    def parse_body(self):
        """Parse a loop/branch body, wrapping single statements in a block."""
        if self.at("punctuation", "{"):
            return self.parse_compound()
        start = self.pos
        stmt = self.parse_statement()
        return AstNode("CompoundStmt", [stmt], (start, self.pos - 1), {})

    def parse_statement(self):
        self.descend(_STATEMENT_FRAMES)
        stmt = self._statement()
        self.frames -= _STATEMENT_FRAMES
        return stmt

    def _statement(self):
        t = self.peek()
        if t is None:
            self.fail("a statement")
        if t.kind == "punctuation" and t.lexeme == "{":
            return self.parse_compound()
        if t.kind == "punctuation" and t.lexeme == ";":
            self.advance()
            return AstNode("Empty", [], (self.pos - 1, self.pos - 1), {})
        if t.kind == "keyword":
            if t.lexeme == "for":
                return self.parse_for()
            if t.lexeme == "while":
                return self.parse_while()
            if t.lexeme == "if":
                return self.parse_if()
            if t.lexeme == "return":
                return self.parse_return()
            if t.lexeme in TYPE_KEYWORDS:
                raise ParseError(t.line, t.col, "a statement", t.lexeme)
        start = self.pos
        expr = self.parse_expression()
        self.expect("punctuation", ";")
        return self.node("ExprStmt", [expr], start)

    def parse_for(self):
        start = self.pos
        self.expect("keyword", "for")
        self.expect("punctuation", "(")
        if self.at("punctuation", ";"):
            init = AstNode("Empty", [], (self.pos, self.pos - 1), {})
            self.advance()
        elif self.at("keyword") and self.peek().lexeme in TYPE_KEYWORDS:
            init = self.parse_declaration()
            if self._splice_pending:
                t = self.peek()
                raise ParseError(t.line, t.col, "a single declarator in for-init", ",")
        else:
            istart = self.pos
            expr = self.parse_expression()
            self.expect("punctuation", ";")
            init = AstNode("ExprStmt", [expr], (istart, self.pos - 2), {})
        if self.at("punctuation", ";"):
            cond = AstNode("Empty", [], (self.pos, self.pos - 1), {})
        else:
            cond = self.parse_expression()
        self.expect("punctuation", ";")
        if self.at("punctuation", ")"):
            inc = AstNode("Empty", [], (self.pos, self.pos - 1), {})
        else:
            inc = self.parse_expression()
        self.expect("punctuation", ")")
        body = self.parse_body()
        return self.node("ForStmt", [init, cond, inc, body], start)

    def parse_while(self):
        start = self.pos
        self.expect("keyword", "while")
        self.expect("punctuation", "(")
        cond = self.parse_expression()
        self.expect("punctuation", ")")
        body = self.parse_body()
        return self.node("WhileStmt", [cond, body], start)

    def parse_if(self):
        start = self.pos
        self.expect("keyword", "if")
        self.expect("punctuation", "(")
        cond = self.parse_expression()
        self.expect("punctuation", ")")
        then = self.parse_body()
        children = [cond, then]
        if self.at("keyword", "else"):
            self.advance()
            children.append(self.parse_body())
        return self.node("IfStmt", children, start)

    def parse_return(self):
        start = self.pos
        self.expect("keyword", "return")
        children = []
        if not self.at("punctuation", ";"):
            children.append(self.parse_expression())
        self.expect("punctuation", ";")
        return self.node("ReturnStmt", children, start)

    # -- expressions, lowest to highest precedence

    def parse_expression(self):
        return self.parse_assign()

    def parse_assign(self):
        self.descend(_EXPRESSION_FRAMES)
        start = self.pos
        left = self.parse_binary(0)
        t = self.peek()
        if t is not None and t.kind == "operator" and t.lexeme in ASSIGN_OPS:
            if left.kind not in ("Identifier", "ArrayIndex") and not (
                left.kind == "UnaryOp" and left.attrs.get("op") == "*"
            ):
                raise ParseError(t.line, t.col, "an assignable target", t.lexeme)
            op = self.advance().lexeme
            left = self.node("Assign", [left, self.parse_assign()], start, {"op": op})
        self.frames -= _EXPRESSION_FRAMES
        return left

    _BINARY_LEVELS = (
        ("||",),
        ("&&",),
        ("|",),
        ("^",),
        ("&",),
        ("==", "!="),
        ("<", ">", "<=", ">="),
        ("<<", ">>"),
        ("+", "-"),
        ("*", "/", "%"),
    )

    def parse_binary(self, level):
        if level >= len(self._BINARY_LEVELS):
            return self.parse_unary()
        ops = self._BINARY_LEVELS[level]
        start = self.pos
        left = self.parse_binary(level + 1)
        while True:
            t = self.peek()
            if t is None or t.kind != "operator" or t.lexeme not in ops:
                return left
            op = self.advance().lexeme
            right = self.parse_binary(level + 1)
            left = self.node("BinaryOp", [left, right], start, {"op": op})

    def parse_unary(self):
        t = self.peek()
        if t is not None and t.kind == "operator" and t.lexeme in (
            "!", "-", "+", "*", "&", "~", "++", "--"
        ):
            start = self.pos
            self.descend(1)
            op = self.advance().lexeme
            operand = self.parse_unary()
            self.frames -= 1
            if op in ("++", "--") and operand.kind != "Identifier":
                raise ParseError(t.line, t.col, "an identifier after " + op, operand.kind)
            return self.node("UnaryOp", [operand], start, {"op": op, "postfix": False})
        return self.parse_postfix()

    def parse_postfix(self):
        start = self.pos
        expr = self.parse_primary()
        while True:
            if self.at("punctuation", "(") and expr.kind == "Identifier":
                self.advance()
                args = []
                if not self.at("punctuation", ")"):
                    args.append(self.parse_assign())
                    while self.at("punctuation", ","):
                        self.advance()
                        args.append(self.parse_assign())
                self.expect("punctuation", ")")
                expr = self.node("Call", args, start, {"name": expr.attrs["name"]})
            elif self.at("punctuation", "["):
                self.advance()
                index = self.parse_expression()
                self.expect("punctuation", "]")
                expr = self.node("ArrayIndex", [expr, index], start)
            elif self.at("operator", "++") or self.at("operator", "--"):
                op = self.advance().lexeme
                expr = self.node("UnaryOp", [expr], start, {"op": op, "postfix": True})
            else:
                return expr

    def parse_primary(self):
        t = self.peek()
        if t is None:
            self.fail("an expression")
        if t.kind == "identifier":
            self.advance()
            return AstNode("Identifier", [], (self.pos - 1, self.pos - 1), {"name": t.lexeme})
        if t.kind == "number":
            self.advance()
            return AstNode("Constant", [], (self.pos - 1, self.pos - 1),
                           {"value": t.lexeme, "ctype": "number"})
        if t.kind == "string-literal":
            self.advance()
            return AstNode("Constant", [], (self.pos - 1, self.pos - 1),
                           {"value": t.lexeme, "ctype": "string"})
        if t.kind == "char-literal":
            self.advance()
            return AstNode("Constant", [], (self.pos - 1, self.pos - 1),
                           {"value": t.lexeme, "ctype": "char"})
        if t.kind == "punctuation" and t.lexeme == "(":
            self.advance()
            expr = self.parse_expression()
            self.expect("punctuation", ")")
            return expr
        raise ParseError(t.line, t.col, "an expression", t.lexeme)


def _reference_parse(source_text, entry):
    tokens = tokenize(source_text)
    parser = ReferenceParser(tokens)
    try:
        unit = entry(parser)
    except RecursionError:
        # Nesting deeper than the interpreter's stack: a data error at the
        # token where the descent stopped, not a crash.
        parser.fail("less deeply nested code")
    return unit, tokens


def reference_parse_source(source_text):
    """Parse a translation unit. Returns (TranslationUnit node, token list)."""
    return _reference_parse(source_text, ReferenceParser.parse_unit)


def reference_parse_snippet(source_text):
    """Parse a bare statement/declaration sequence (loop samples, contexts)."""
    return _reference_parse(source_text, ReferenceParser.parse_snippet)


def render(node):
    """One node's canonical text from the package's renderer, syntax.emit:
    single spaces, one statement per line, loop/branch bodies always braced.
    parse∘render is the identity on parser output."""
    return emit([node])[0][0]


# ---------------------------------------------------------------------------
# reference renderer, extraction and renaming: the string renderer and the
# sample builders that re-parsed each rendered snippet to build its data flow,
# kept verbatim as the differential oracle of the slot-emitting renderer (the
# parser they call is the package's)

def _reference_prec(node):
    if node.kind == "Assign":
        return 1
    if node.kind == "BinaryOp":
        return _PRECEDENCE[node.attrs["op"]]
    if node.kind == "UnaryOp":
        return 12
    return 13


def _reference_render_expr(node):
    kind = node.kind
    if kind == "Identifier":
        return node.attrs["name"]
    if kind == "Constant":
        return node.attrs["value"]
    if kind == "Assign":
        target = _reference_render_expr(node.children[0])
        value = _reference_render_expr(node.children[1])
        if _reference_prec(node.children[1]) < 1:
            value = "(" + value + ")"
        return f"{target} {node.attrs['op']} {value}"
    if kind == "BinaryOp":
        me = _reference_prec(node)
        left = _reference_render_expr(node.children[0])
        if _reference_prec(node.children[0]) < me:
            left = "(" + left + ")"
        right = _reference_render_expr(node.children[1])
        if _reference_prec(node.children[1]) <= me:
            right = "(" + right + ")"
        return f"{left} {node.attrs['op']} {right}"
    if kind == "UnaryOp":
        child = node.children[0]
        inner = _reference_render_expr(child)
        # Parenthesize nested prefix chains so "- -x" cannot re-lex as "--x".
        needs_parens = _reference_prec(child) < 12 or (
            not node.attrs.get("postfix")
            and child.kind == "UnaryOp"
            and not child.attrs.get("postfix")
        )
        if needs_parens:
            inner = "(" + inner + ")"
        if node.attrs.get("postfix"):
            return inner + node.attrs["op"]
        return node.attrs["op"] + inner
    if kind == "Call":
        args = ", ".join(_reference_render_expr(a) for a in node.children)
        return f"{node.attrs['name']}({args})"
    if kind == "ArrayIndex":
        base = _reference_render_expr(node.children[0])
        if _reference_prec(node.children[0]) < 13:
            base = "(" + base + ")"
        index = "" if node.children[1].kind == "Empty" else _reference_render_expr(node.children[1])
        return f"{base}[{index}]"
    if kind == "Empty":
        return ""
    raise ValueError(f"not an expression node: {kind}")


def _reference_render_declaration(node, with_semicolon=True):
    star = "*" if node.attrs.get("pointer") else ""
    body = f"{node.attrs['type']} {star}{_reference_render_expr(node.children[0])}"
    return body + ";" if with_semicolon else body


def reference_render(node):
    """Render an AST to canonical text: single spaces, one statement per
    line, loop/branch bodies always braced. parse∘render is the identity on
    parser output."""
    kind = node.kind
    if kind == "TranslationUnit":
        return "\n".join(reference_render(c) for c in node.children)
    if kind == "FunctionDef":
        params = ", ".join(
            _reference_render_declaration(p, with_semicolon=False) for p in node.children[:-1]
        )
        star = "*" if node.attrs.get("pointer") else ""
        head = f"{node.attrs['type']} {star}{node.attrs['name']}({params})"
        return head + " " + reference_render(node.children[-1])
    if kind == "Declaration":
        return _reference_render_declaration(node)
    if kind == "CompoundStmt":
        if not node.children:
            return "{\n}"
        return "{\n" + "\n".join(reference_render(c) for c in node.children) + "\n}"
    if kind == "ForStmt":
        init, cond, inc, body = node.children
        if init.kind == "Declaration":
            init_text = _reference_render_declaration(init, with_semicolon=False)
        elif init.kind == "ExprStmt":
            init_text = _reference_render_expr(init.children[0])
        else:
            init_text = ""
        cond_text = "" if cond.kind == "Empty" else _reference_render_expr(cond)
        inc_text = "" if inc.kind == "Empty" else _reference_render_expr(inc)
        return f"for ({init_text}; {cond_text}; {inc_text}) " + reference_render(body)
    if kind == "WhileStmt":
        return (f"while ({_reference_render_expr(node.children[0])}) "
                + reference_render(node.children[1]))
    if kind == "IfStmt":
        text = (f"if ({_reference_render_expr(node.children[0])}) "
                + reference_render(node.children[1]))
        if len(node.children) == 3:
            text += " else " + reference_render(node.children[2])
        return text
    if kind == "ExprStmt":
        return _reference_render_expr(node.children[0]) + ";"
    if kind == "ReturnStmt":
        if node.children:
            return f"return {_reference_render_expr(node.children[0])};"
        return "return;"
    if kind == "Empty":
        return ";"
    if kind == "PragmaDirective":
        return node.attrs["raw"]
    return _reference_render_expr(node)


def _reference_strip_pragmas(node):
    """Copy of the subtree with all pragma directives removed (serial form)."""
    children = [_reference_strip_pragmas(c) for c in node.children if c.kind != "PragmaDirective"]
    return AstNode(node.kind, children, node.token_span, dict(node.attrs))


# The extraction walk the one-walk _loops replaced: a parent map of every
# node, each loop's pragma found by scanning its siblings and parsed once
# for the blocking check and again for the labels, and the context walk
# with its own for-init rule.

def _parent_map(root):
    parents = {}
    for node in iter_nodes(root):
        for child in node.children:
            parents[id(child)] = node
    return parents


def _attached_pragma(loop, parents):
    parent = parents.get(id(loop))
    if parent is None:
        return None
    siblings = parent.children
    idx = next(i for i, c in enumerate(siblings) if c is loop)
    if idx > 0 and siblings[idx - 1].kind == "PragmaDirective":
        return siblings[idx - 1].attrs["raw"]
    return None


def _has_blocking_pragma(loop, attached_raw):
    raws = [attached_raw] if attached_raw else []
    raws += [n.attrs["raw"] for n in iter_nodes(loop) if n.kind == "PragmaDirective"]
    for raw in raws:
        try:
            if parse_omp_pragma(raw).directive in BLOCKING_DIRECTIVES:
                return True
        except PragmaError:
            continue
    return False


def _context_statements(container, loop, used, out):
    """Walk statements before `loop` inside `container`, collecting context."""
    for stmt in container.children:
        if stmt is loop:
            return True
        if _span_contains(stmt, loop):
            if stmt.kind == "ForStmt":
                init = stmt.children[0]
                if init.kind == "Declaration" and _declared_name(init) in used:
                    out.append(init)
                elif _assign_target_name(init) in used:
                    out.append(init)
                return _context_statements(stmt.children[3], loop, used, out)
            if stmt.kind == "WhileStmt":
                return _context_statements(stmt.children[1], loop, used, out)
            if stmt.kind == "IfStmt":
                for branch in stmt.children[1:]:
                    if _span_contains(branch, loop):
                        return _context_statements(branch, loop, used, out)
                return True
            if stmt.kind == "CompoundStmt":
                return _context_statements(stmt, loop, used, out)
            return True
        _collect_candidates(stmt, used, out)
    return False


def _loops(unit, tokens):
    """(function, loop, line) for every for-loop of every function, outermost
    first, in program order."""
    for func in unit.children:
        if func.kind == "FunctionDef":
            for loop in iter_nodes(func.children[-1]):
                if loop.kind == "ForStmt":
                    yield func, loop, tokens[loop.token_span[0]].line


def _labels(attached):
    """pragma_raw and the three labels a loop's attached pragma line gives."""
    pragma = None
    if attached:
        try:
            pragma = parse_omp_pragma(attached)
        except PragmaError:
            pass
    if pragma is None or pragma.directive not in POSITIVE_DIRECTIVES:
        return {"pragma_raw": None, "label_pragma": 0, "label_private": 0,
                "label_reduction": 0}
    return {"pragma_raw": attached, "label_pragma": 1,
            "label_private": int(pragma.has_clause("private")),
            "label_reduction": int(pragma.has_clause("reduction"))}


def _reference_render_context(statements):
    return "\n".join(reference_render(_reference_strip_pragmas(stmt)) for stmt in statements)


def _reference_loop_code(loop):
    return reference_render(_reference_strip_pragmas(loop))


def reference_build_sample(func, loop, loop_code, with_scope, **fields):
    """The sample for one loop: its scope context when asked for, and the
    data-flow graph of context plus loop."""
    context_code = ""
    if with_scope:
        used = _used_variables(loop)
        collected = [p for p in func.children[:-1] if _declared_name(p) in used]
        _context_statements(func.children[-1], loop, used, collected)
        context_code = _reference_render_context(collected)
    sample = Sample(loop_code=loop_code, context_code=context_code, dfg={},
                    offset=loop.token_span[0], **fields)
    snippet, _ = parse_snippet(sample.source_text())
    sample.dfg = dfg_to_json(build_dfg(snippet))
    return sample


def reference_extract_from_source(source_text, path, with_scope=False):
    """Extract labeled loop samples from one file's text.

    Returns (samples, rejects). A file that fails to parse yields a single
    parse_error reject; loops are otherwise judged independently, at every
    nesting depth.
    """
    try:
        unit, tokens = parse_source(source_text)
    except ParseError as err:
        return [], [Reject(path, err.line, "parse_error")]

    parents = _parent_map(unit)
    samples, rejects = [], []
    seen_hashes = set()
    for func, loop, line in _loops(unit, tokens):
        attached = _attached_pragma(loop, parents)
        if _loop_is_empty(loop):
            rejects.append(Reject(path, line, "empty_loop"))
            continue
        if _has_blocking_pragma(loop, attached):
            rejects.append(Reject(path, line, "barrier_critical_atomic"))
            continue
        try:
            loop_code = _reference_loop_code(loop)
            sample_id = content_hash(loop_code)
            if sample_id in seen_hashes:
                rejects.append(Reject(path, line, "nested_duplicate"))
                continue
            sample = reference_build_sample(func, loop, loop_code, with_scope, id=sample_id,
                                   path=path, **_labels(attached))
        except (ParseError, RecursionError):
            # The loop parsed, but its canonical text nests too deeply to
            # render or re-read (long prefix chains like !!!...x).
            rejects.append(Reject(path, line, "parse_error"))
            continue
        seen_hashes.add(sample_id)
        samples.append(sample)
    return samples, rejects


def reference_extract_for_prediction(source_text, with_scope=False):
    """Every loop in the file as an unlabeled sample, no exclusion rules.

    Returns a list of {"sample": Sample, "line": int}; raises ParseError if
    the file does not parse.
    """
    unit, tokens = parse_source(source_text)
    out = []
    for func, loop, line in _loops(unit, tokens):
        try:
            loop_code = _reference_loop_code(loop)
            sample = reference_build_sample(func, loop, loop_code, with_scope,
                                   id=content_hash(loop_code), path="<input>",
                                   **_labels(None))
        except (ParseError, RecursionError):
            start = tokens[loop.token_span[0]]
            raise ParseError(start.line, start.col, "less deeply nested code") from None
        out.append({"sample": sample, "line": line})
    return out


def _reference_rename_tree(node, mapping):
    attrs = dict(node.attrs)
    if node.kind == "Identifier" and attrs["name"] in mapping:
        attrs["name"] = mapping[attrs["name"]]
    return AstNode(node.kind, [_reference_rename_tree(c, mapping) for c in node.children],
                   node.token_span, attrs)


def _variable_names(snippet):
    return sorted({n.attrs["name"] for n in iter_nodes(snippet) if n.kind == "Identifier"})


def reference_rename_variables(sample, fraction, seed):
    """Rename ⌊fraction·|V|⌋ of the sample's distinct variables to var<k>.

    Selection is a seeded shuffle of the sorted name list; indices are drawn
    in [0, 9999] and redrawn until no identifier of the sample, call names
    included, has the name. Labels are unchanged; the text, the DFG and the
    id are rebuilt. fraction=0 returns the sample as-is.
    """
    snippet, tokens = parse_snippet(sample.source_text())
    names = _variable_names(snippet)
    count = int(fraction * len(names))
    if count == 0:
        return replace(sample)

    rng = random.Random(seed)
    order = list(names)
    rng.shuffle(order)
    chosen = order[:count]

    taken = {t.lexeme for t in tokens if t.kind == "identifier"}
    mapping = {}
    for name in chosen:
        while True:
            candidate = f"var{rng.randint(0, 9999)}"
            if candidate not in taken:
                break
        taken.add(candidate)
        mapping[name] = candidate

    renamed = _reference_rename_tree(snippet, mapping)
    loop = renamed.children[-1]
    if loop.kind != "ForStmt":
        raise ValueError("sample snippet does not end with a for-loop")
    context = renamed.children[:-1]

    loop_code = reference_render(loop)
    context_code = "\n".join(reference_render(stmt) for stmt in context)
    pragma_raw = sample.pragma_raw
    if pragma_raw is not None:
        pragma_raw = _rename_pragma(pragma_raw, mapping)

    new_sample = replace(
        sample,
        id=content_hash(loop_code),
        loop_code=loop_code,
        context_code=context_code,
        pragma_raw=pragma_raw,
        lexemes=None,  # the text changed; encoding re-tokenizes it
    )
    new_snippet, _ = parse_snippet(new_sample.source_text())
    new_sample.dfg = dfg_to_json(build_dfg(new_snippet))
    return new_sample


# ---------------------------------------------------------------------------
# reference pragma word splitter: the hand lexer the word regex replaced


def reference_split_words(raw):
    """Tokenize a pragma line into words, parens, commas and colons."""
    out = []
    i, n = 0, len(raw)
    while i < n:
        c = raw[i]
        if c in " \t":
            i += 1
        elif c in "(),:":
            out.append(c)
            i += 1
        elif c in "&|":
            if i + 1 < n and raw[i + 1] == c:
                out.append(c + c)
                i += 2
            else:
                out.append(c)
                i += 1
        elif c in "+*^" or (c == "-" and (i + 1 >= n or raw[i + 1] in " \t:,)")):
            out.append(c)
            i += 1
        else:
            j = i
            while j < n and raw[j] not in " \t(),:&|":
                j += 1
            out.append(raw[i:j])
            i = j
    return out
