"""Shared independent oracles and random program generators for the tests.

The straight-line generator builds programs as plain statement tuples and
renders them to C text; the reaching-definitions oracle computes the expected
def/use graph from those tuples directly, never touching the parser or the
graph builder it is checking. For differential tests, the reference lexer
is the scanner the regex lexer replaced, the reference mask builder is the
per-sample builder and pad loop the batch mask builder replaced, the
reference training step is the one-padded-batch step that length
sub-batches replaced, and the reference data-flow builder is the two-pass
loop analysis the one-pass builder replaced.
"""

import random

import numpy as np

from ompadvisor.dfg import DataFlowGraph, DfgNode, _merge
from ompadvisor.encode import MASK_NEG
from ompadvisor.model import (
    TrainingDiverged, backward_batch, compute_loss, forward_batch, pad_batch,
)
from ompadvisor.syntax import KEYWORDS, ParseError, Token

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
            tokens.append(Token(kind, text[i : j + 1], line, col))
            col += j + 1 - i
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
