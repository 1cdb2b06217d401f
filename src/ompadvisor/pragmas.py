"""Parsing and rendering of `#pragma omp` directive lines."""

import re
from dataclasses import dataclass, field

REDUCTION_OPS = frozenset({"+", "*", "-", "&", "|", "^", "&&", "||", "min", "max"})

# Clause names whose parenthesized arguments are a plain variable list.
VAR_LIST_CLAUSES = frozenset({
    "private", "firstprivate", "lastprivate", "shared", "copyin", "copyprivate",
})


class PragmaError(Exception):
    pass


@dataclass
class Clause:
    name: str
    args: list = field(default_factory=list)
    reduction_op: str = None


@dataclass
class OmpPragma:
    directive: str  # parallel_for | for | parallel | barrier | critical | atomic | other
    clauses: list = field(default_factory=list)
    raw: str = ""

    def has_clause(self, name):
        return any(c.name == name for c in self.clauses)


# A pragma line's words, parens, commas, colons and operators: "&&" and "||"
# whole, and "-" alone only where a separator or the end follows (\Z, since
# $ also matches before a final newline). Whitespace matches with no group.
_WORD_RE = re.compile(r"[ \t]+|(&&|\|\||[(),:&|+*^]|-(?=[ \t:,)]|\Z)|[^ \t(),:&|]+)")


def _split_words(raw):
    """Tokenize a pragma line into words, parens, commas and colons."""
    return [w for w in _WORD_RE.findall(raw) if w]


def parse_omp_pragma(raw):
    """Parse a `#pragma omp ...` line into directive and clause structure.

    Unknown clause names are preserved verbatim with their raw arguments.
    Raises PragmaError on unbalanced parentheses or a bad reduction clause.
    """
    words = _split_words(raw.strip())
    if len(words) < 2 or words[0] != "#pragma" or words[1] != "omp":
        raise PragmaError(f"not an omp pragma: {raw!r}")
    pos = 2

    directive = "other"
    if pos < len(words):
        head = words[pos]
        if head == "parallel":
            if pos + 1 < len(words) and words[pos + 1] == "for":
                directive = "parallel_for"
                pos += 2
            else:
                directive = "parallel"
                pos += 1
        elif head in ("for", "barrier", "critical", "atomic"):
            directive = head
            pos += 1
        else:
            directive = "other"
            pos += 1

    clauses = []
    while pos < len(words):
        name = words[pos]
        pos += 1
        if name in "(),:":
            raise PragmaError(f"unexpected {name!r} in clause list: {raw!r}")
        if pos < len(words) and words[pos] == "(":
            pos += 1
            body = []
            depth = 1
            while pos < len(words):
                w = words[pos]
                if w == "(":
                    depth += 1
                elif w == ")":
                    depth -= 1
                    if depth == 0:
                        break
                body.append(w)
                pos += 1
            if pos >= len(words):
                raise PragmaError(f"unbalanced parentheses in clause {name!r}: {raw!r}")
            pos += 1  # closing paren
            clauses.append(_build_clause(name, body, raw))
        else:
            clauses.append(Clause(name))

    pragma = OmpPragma(directive, clauses, raw.strip())
    return pragma


def _build_clause(name, body, raw):
    if name == "reduction":
        if ":" not in body:
            raise PragmaError(f"reduction clause missing ':' separator: {raw!r}")
        sep = body.index(":")
        op = "".join(body[:sep])
        args = [w for w in body[sep + 1 :] if w != ","]
        if not op or op not in REDUCTION_OPS:
            raise PragmaError(f"bad reduction operator {op!r}: {raw!r}")
        if not args:
            raise PragmaError(f"reduction clause lists no variables: {raw!r}")
        return Clause(name, args, reduction_op=op)
    if name in VAR_LIST_CLAUSES:
        args = [w for w in body if w != ","]
        if not args:
            raise PragmaError(f"clause {name!r} lists no variables: {raw!r}")
        return Clause(name, args)
    # schedule, collapse, num_threads, if, default and anything unknown:
    # keep the arguments as comma-separated groups of raw text.
    args = []
    current = []
    for w in body:
        if w == ",":
            args.append(" ".join(current))
            current = []
        else:
            current.append(w)
    if current:
        args.append(" ".join(current))
    return Clause(name, args)


def render_omp_pragma(pragma):
    """Canonical single-space text for a parsed pragma."""
    directive_words = {
        "parallel_for": "parallel for",
        "for": "for",
        "parallel": "parallel",
        "barrier": "barrier",
        "critical": "critical",
        "atomic": "atomic",
    }
    parts = ["#pragma omp"]
    if pragma.directive in directive_words:
        parts.append(directive_words[pragma.directive])
    else:
        head = pragma.raw.split()[2] if len(pragma.raw.split()) > 2 else "other"
        parts.append(head)
    for clause in pragma.clauses:
        if not clause.args and clause.reduction_op is None:
            parts.append(clause.name)
        elif clause.reduction_op is not None:
            parts.append(f"{clause.name}({clause.reduction_op}:{', '.join(clause.args)})")
        else:
            parts.append(f"{clause.name}({', '.join(clause.args)})")
    return " ".join(parts)
