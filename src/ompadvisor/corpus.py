"""Corpus construction: loop extraction, labeling, dedup, split, stats.

A corpus is a JSONL file of labeled loop samples extracted from a tree of
`.c` files. Loops keep their annotation labels (pragma / private /
reduction), are deduplicated by a rename-invariant content hash, and are
split 80/10/10 with optional benchmark holdout.
"""

import json
import random
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path

from .dfg import build_dfg, dfg_to_json
from .pragmas import PragmaError, parse_omp_pragma
from .syntax import AstNode, ParseError, emit, iter_nodes, parse_source, tokenize
from .syntax import parse_snippet  # noqa: F401 -- a traced binding in perfbench/spans.py

LABELS = ("pragma", "private", "reduction")  # the task: one 0/1 label each per loop
_LABEL_KEYS = tuple(f"label_{label}" for label in LABELS)
SAMPLE_KEYS = ("id", "path", "loop_code", "context_code", "pragma_raw", *_LABEL_KEYS,
               "dfg", "split")
_TEXT_KEYS = ("id", "path", "loop_code", "context_code", "split")

BLOCKING_DIRECTIVES = frozenset({"barrier", "critical", "atomic"})
POSITIVE_DIRECTIVES = frozenset({"parallel_for", "for"})


@dataclass
class Sample:
    id: str
    path: str
    loop_code: str
    context_code: str
    pragma_raw: str
    label_pragma: int
    label_private: int
    label_reduction: int
    dfg: dict
    split: str = "none"
    offset: int = field(default=0, repr=False, compare=False)  # not serialized
    lexemes: list = field(default=None, repr=False, compare=False)  # source_text()'s, ditto

    @property
    def labels(self):
        """The label values, in LABELS order."""
        return tuple(getattr(self, key) for key in _LABEL_KEYS)

    def source_text(self):
        """The model-facing snippet: context (when present) then the loop."""
        if self.context_code:
            return self.context_code + "\n" + self.loop_code
        return self.loop_code

    def to_json_dict(self):
        return {key: getattr(self, key) for key in SAMPLE_KEYS}

    @classmethod
    def from_json_dict(cls, data):
        return cls(**{key: data[key] for key in SAMPLE_KEYS})


REJECT_REASONS = ("parse_error", "empty_loop", "barrier_critical_atomic", "nested_duplicate")


@dataclass
class Reject:
    path: str
    line: int
    reason: str  # one of REJECT_REASONS


# ---------------------------------------------------------------------------
# rename-invariant content hash

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def fnv1a64(data: bytes) -> int:
    h = _FNV_OFFSET
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
    return h


def normalized_tokens(code_text):
    """Token sequence with identifiers rewritten to v0, v1, ... by first use."""
    out = []
    mapping = {}
    for tok in tokenize(code_text):
        if tok.kind == "identifier":
            if tok.lexeme not in mapping:
                mapping[tok.lexeme] = f"v{len(mapping)}"
            out.append(mapping[tok.lexeme])
        else:
            out.append(tok.lexeme)
    return out


def content_hash(code_text) -> str:
    normalized = " ".join(normalized_tokens(code_text))
    return format(fnv1a64(normalized.encode("utf-8")), "016x")


# ---------------------------------------------------------------------------
# extraction

def _loop_is_empty(loop):
    body = loop.children[3]
    return all(c.kind == "Empty" for c in body.children)


def _parsed_pragma(raw):
    """The directive a pragma line gives; None for no line or one that does
    not parse."""
    if not raw:
        return None
    try:
        return parse_omp_pragma(raw)
    except PragmaError:
        return None


def _has_blocking_pragma(loop, pragma):
    """Whether the loop's attached directive, or a pragma line inside it, is
    a barrier, critical or atomic; inner lines are parsed until one is."""
    inner = (_parsed_pragma(n.attrs["raw"]) for n in iter_nodes(loop)
             if n.kind == "PragmaDirective")
    return any(p is not None and p.directive in BLOCKING_DIRECTIVES for p in chain([pragma], inner))


def _used_variables(loop):
    return {n.attrs["name"] for n in iter_nodes(loop) if n.kind == "Identifier"}


def _assign_target_name(stmt):
    if stmt.kind != "ExprStmt" or not stmt.children:
        return None
    expr = stmt.children[0]
    if expr.kind != "Assign":
        return None
    base = expr.children[0]
    while base.kind == "ArrayIndex":
        base = base.children[0]
    return base.attrs["name"] if base.kind == "Identifier" else None


def _declared_name(decl):
    declarator = decl.children[0]
    if declarator.kind == "Assign":
        declarator = declarator.children[0]
    if declarator.kind == "ArrayIndex":
        declarator = declarator.children[0]
    return declarator.attrs["name"]


def _span_contains(outer, inner):
    return outer.token_span[0] <= inner.token_span[0] and inner.token_span[1] <= outer.token_span[1]


def _collect_candidates(stmt, used, out):
    """Collect declarations/assignments of loop-used variables, recursively."""
    if stmt.kind == "Declaration":
        if _declared_name(stmt) in used:
            out.append(stmt)
        return
    target = _assign_target_name(stmt)
    if target is not None:
        if target in used:
            out.append(stmt)
        return
    if stmt.kind == "CompoundStmt":
        for child in stmt.children:
            _collect_candidates(child, used, out)
    elif stmt.kind == "IfStmt":
        for child in stmt.children[1:]:
            _collect_candidates(child, used, out)
    elif stmt.kind in ("ForStmt", "WhileStmt"):
        if stmt.kind == "ForStmt":
            _collect_candidates(stmt.children[0], used, out)
        _collect_candidates(stmt.children[-1], used, out)


def _context_statements(container, loop, used, out):
    """Collect context from the statements before `loop` inside `container`,
    then from inside the statement that holds it: a for loop's init, and
    the block that holds the loop."""
    for stmt in container.children:
        if stmt is loop:
            return
        if _span_contains(stmt, loop):
            if stmt.kind == "ForStmt":
                _collect_candidates(stmt.children[0], used, out)
            if stmt.kind != "CompoundStmt":
                stmt = next(c for c in stmt.children
                            if c.kind == "CompoundStmt" and _span_contains(c, loop))
            _context_statements(stmt, loop, used, out)
            return
        _collect_candidates(stmt, used, out)


def _loops(unit, tokens):
    """(function, loop, line, attached) for every for-loop of every function,
    outermost first, in program order, in one walk; attached is the raw
    pragma line just before the loop among its siblings, or None."""
    for func in unit.children:
        if func.kind != "FunctionDef":
            continue
        stack = [(None, func.children[-1])]
        while stack:
            prev, node = stack.pop()
            if node.kind == "ForStmt":
                attached = prev.attrs["raw"] if prev and prev.kind == "PragmaDirective" else None
                yield func, node, tokens[node.token_span[0]].line, attached
            stack.extend(reversed(list(zip([None] + node.children, node.children))))


def _build_sample(func, loop, with_scope, path, pragma, seen=None):
    """The sample for one loop: its scope context when asked for, and the
    data-flow graph of context plus loop over the file's AST at the slots
    of one emitted text. Given seen, its id is the loop's content hash, and
    a hash in seen is None before any data flow or label is built."""
    context = []
    if with_scope:
        used = _used_variables(loop)
        context = [p for p in func.children[:-1] if _declared_name(p) in used]
        _context_statements(func.children[-1], loop, used, context)
    texts, slots, lexemes = emit(context + [loop], strip_pragmas=True)
    sample_id = "" if seen is None else content_hash(texts[-1])
    if seen is not None and sample_id in seen:
        return None
    snippet = AstNode("TranslationUnit", context + [loop])
    return Sample(id=sample_id, path=path, loop_code=texts[-1], context_code="\n".join(texts[:-1]),
                  dfg=dfg_to_json(build_dfg(snippet, slots)), **_labels(pragma),
                  offset=loop.token_span[0], lexemes=lexemes)


def _labels(pragma):
    """pragma_raw and the three labels a loop's attached directive gives;
    its raw is the pragma line, which the tokenizer has already stripped."""
    if pragma is None or pragma.directive not in POSITIVE_DIRECTIVES:
        return {"pragma_raw": None, **dict.fromkeys(_LABEL_KEYS, 0)}
    return {"pragma_raw": pragma.raw, "label_pragma": 1,
            **{f"label_{clause}": int(pragma.has_clause(clause)) for clause in LABELS[1:]}}


def extract_from_source(source_text, path, with_scope=False):
    """Extract labeled loop samples from one file's text.

    Returns (samples, rejects). A file that fails to parse yields a single
    parse_error reject; loops are otherwise judged independently, at every
    nesting depth.
    """
    try:
        unit, tokens = parse_source(source_text)
    except ParseError as err:
        return [], [Reject(path, err.line, "parse_error")]

    samples, rejects = [], []
    seen_hashes = set()
    for func, loop, line, attached in _loops(unit, tokens):
        if _loop_is_empty(loop):
            rejects.append(Reject(path, line, "empty_loop"))
            continue
        pragma = _parsed_pragma(attached)
        if _has_blocking_pragma(loop, pragma):
            rejects.append(Reject(path, line, "barrier_critical_atomic"))
            continue
        try:
            sample = _build_sample(func, loop, with_scope, path, pragma, seen_hashes)
        except (ParseError, RecursionError):
            # The loop parsed, but its canonical text nests too deeply to
            # read back (long prefix chains like !!!...x, written !(!(...))).
            rejects.append(Reject(path, line, "parse_error"))
            continue
        if sample is None:
            rejects.append(Reject(path, line, "nested_duplicate"))
            continue
        seen_hashes.add(sample.id)
        samples.append(sample)
    return samples, rejects


class NotUtf8Error(ValueError):
    """A source file that is not UTF-8, named with the line of its first bad byte."""

    def __init__(self, path, line, byte):
        super().__init__(f"{path}:{line}: byte 0x{byte:02x} is not UTF-8")
        self.line = line


def read_source(file_path):
    """A C file's text, with the universal newlines of open() in text mode;
    NotUtf8Error when the file is not UTF-8."""
    data = Path(file_path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as err:
        line = len((data[:err.start] + b".").splitlines())
        raise NotUtf8Error(file_path, line, data[err.start]) from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


def extract_samples(file_path, with_scope=False, rel_path=None):
    """File wrapper around extract_from_source. A file that is not UTF-8 is
    one parse_error reject, at the line of its first bad byte."""
    path = rel_path or str(file_path)
    try:
        text = read_source(file_path)
    except NotUtf8Error as err:
        return [], [Reject(path, err.line, "parse_error")]
    return extract_from_source(text, path, with_scope)


def extract_for_prediction(source_text, with_scope=False):
    """Every loop in the file as an unlabeled sample, no exclusion rules and
    no id, which nothing reads.

    Returns a list of {"sample": Sample, "line": int}; raises ParseError if
    the file does not parse.
    """
    unit, tokens = parse_source(source_text)
    out = []
    for func, loop, line, _ in _loops(unit, tokens):
        try:
            sample = _build_sample(func, loop, with_scope, "<input>", None)
        except (ParseError, RecursionError):
            start = tokens[loop.token_span[0]]
            raise ParseError(start.line, start.col, "less deeply nested code") from None
        out.append({"sample": sample, "line": line})
    return out


# ---------------------------------------------------------------------------
# dedup / split / stats

def deduplicate(samples):
    """Keep the first sample per content hash, in (path, offset) order."""
    ordered = sorted(samples, key=lambda s: (s.path, s.offset))
    seen = set()
    kept = []
    for sample in ordered:
        if sample.id in seen:
            continue
        seen.add(sample.id)
        kept.append(sample)
    return kept


def split_corpus(samples, seed, holdout_hashes=frozenset()):
    """Assign train/valid/test splits: seeded shuffle, 80/10/10 by position.

    Samples whose hash appears in holdout_hashes never land in train; they
    get split="none" instead.
    """
    n = len(samples)
    order = list(range(n))
    random.Random(seed).shuffle(order)
    n_valid = n // 10
    n_test = n // 10
    n_train = n - n_valid - n_test
    for rank, idx in enumerate(order):
        if rank < n_train:
            split = "train"
        elif rank < n_train + n_valid:
            split = "valid"
        else:
            split = "test"
        if split == "train" and samples[idx].id in holdout_hashes:
            split = "none"
        samples[idx].split = split
    return samples


def compute_stats(samples):
    with_pragma = sum(s.label_pragma for s in samples)
    short = mid = long_ = 0
    for s in samples:
        lines = len(s.loop_code.splitlines())
        if lines <= 15:
            short += 1
        elif lines <= 50:
            mid += 1
        else:
            long_ += 1
    return {
        "total": len(samples),
        "languages": {
            "c": {
                "with_pragma": with_pragma,
                "without_pragma": len(samples) - with_pragma,
            }
        },
        "clauses": {clause: sum(getattr(s, f"label_{clause}") for s in samples)
                    for clause in LABELS[1:]},
        "length_buckets": {
            "<=15": short,
            "16-50": mid,
            ">50": long_,
        },
    }


# ---------------------------------------------------------------------------
# corpus build orchestration

def _list_c_files(root):
    root = Path(root)
    return sorted(p for p in root.rglob("*.c") if p.is_file())


def _extract_tree(root, with_scope):
    samples, rejects = [], []
    for path in _list_c_files(root):
        s, r = extract_samples(path, with_scope, rel_path=str(path.relative_to(root)))
        samples.extend(s)
        rejects.extend(r)
    rejects.sort(key=lambda r: (r.path, r.line, r.reason))
    return samples, rejects


def write_jsonl(path, dicts):
    with open(path, "w", encoding="utf-8") as fh:
        for d in dicts:
            fh.write(json.dumps(d, ensure_ascii=False, allow_nan=False) + "\n")


def _check_row(row):
    """Raise ValueError unless a decoded corpus row has a sample's shape."""
    if not isinstance(row, dict) or not row.keys() >= set(SAMPLE_KEYS):
        raise ValueError("a row is an object with the keys " + ", ".join(SAMPLE_KEYS))
    if not (all(type(row[key]) is str for key in _TEXT_KEYS)
            and isinstance(row["pragma_raw"], (str, type(None)))
            and all(type(row[key]) is int and 0 <= row[key] <= 1 for key in _LABEL_KEYS)):
        raise ValueError("its text fields are strings (pragma_raw may be null), its labels 0 or 1")
    dfg = row["dfg"] if isinstance(row["dfg"], dict) else {}
    nodes, edges = dfg.get("nodes"), dfg.get("edges")
    if not (isinstance(nodes, list) and isinstance(edges, list) and all(
            type(n) is list and len(n) == 2 and type(n[0]) is str and type(n[1]) is int
            and n[1] >= 0 for n in nodes)):
        raise ValueError("its dfg holds nodes, [name, code slot >= 0] pairs, and edges")
    n_nodes = len(nodes)
    if not all(type(e) is list and len(e) == 2 and type(e[0]) is int and type(e[1]) is int
               and 0 <= e[0] < n_nodes and 0 <= e[1] < n_nodes for e in edges):
        raise ValueError("each data-flow edge is a pair of node indices")


def read_samples(path):
    samples = []
    # Lines end as in text mode; each is decoded in the try, so a row that is
    # not UTF-8 is named by its line like any row that is no sample.
    for number, line in enumerate(Path(path).read_bytes().splitlines(), 1):
        try:
            line = line.decode("utf-8").strip()
            if not line:
                continue
            row = json.loads(line)
            _check_row(row)
        except ValueError as err:
            raise ValueError(f"{path}:{number}: {err}") from None
        samples.append(Sample.from_json_dict(row))
    return samples


def build_corpus(src_dir, out_dir, with_scope=False, benchmarks_dir=None, seed=0):
    """Build corpus.jsonl, rejects.jsonl and stats.json under out_dir.

    When benchmarks_dir is given, its files are extracted with the same
    rules into benchmarks.jsonl and their hashes are held out of train.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    samples, rejects = _extract_tree(src_dir, with_scope)
    samples = deduplicate(samples)

    holdout = frozenset()
    if benchmarks_dir is not None:
        bench_samples, bench_rejects = _extract_tree(benchmarks_dir, with_scope)
        bench_samples = deduplicate(bench_samples)
        holdout = frozenset(s.id for s in bench_samples)
        rejects.extend(bench_rejects)
        write_jsonl(out / "benchmarks.jsonl", [s.to_json_dict() for s in bench_samples])

    split_corpus(samples, seed, holdout)
    write_jsonl(out / "corpus.jsonl", [s.to_json_dict() for s in samples])
    write_jsonl(out / "rejects.jsonl",
                [{"path": r.path, "line": r.line, "reason": r.reason} for r in rejects])
    stats = compute_stats(samples)
    stats["rejects"] = {k: sum(r.reason == k for r in rejects) for k in REJECT_REASONS}
    with open(out / "stats.json", "w", encoding="utf-8") as fh:
        json.dump(stats, fh, indent=2, allow_nan=False)
        fh.write("\n")
    return samples, rejects, stats
