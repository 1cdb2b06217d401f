"""Parsing of `#pragma omp` directive lines, and relabeling of their clause
variables in place."""

import re
from dataclasses import dataclass, field

REDUCTION_OPS = frozenset({"+", "*", "-", "&", "|", "^", "&&", "||", "min", "max"})

# Clause names whose parenthesized arguments are a plain variable list.
VAR_LIST_CLAUSES = frozenset({
    "private", "firstprivate", "lastprivate", "shared", "copyin", "copyprivate",
})

# Directives by their leading words; any other first word is "other".
_DIRECTIVES = {("parallel", "for"): "parallel_for",
               **{(word,): word for word in ("parallel", "for", "barrier", "critical", "atomic")}}


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
    head = tuple(words[2:4])
    if head not in _DIRECTIVES:
        head = head[:1]
    directive, pos = _DIRECTIVES.get(head, "other"), 2 + len(head)

    clauses = []
    while pos < len(words):
        name = words[pos]
        pos += 1
        if name in "(),:":
            raise PragmaError(f"unexpected {name!r} in clause list: {raw!r}")
        if pos < len(words) and words[pos] == "(":
            depth, end = 1, pos + 1
            while end < len(words) and depth:  # end: just past the closing paren
                depth += (words[end] == "(") - (words[end] == ")")
                end += 1
            if depth:
                raise PragmaError(f"unbalanced parentheses in clause {name!r}: {raw!r}")
            clauses.append(_build_clause(name, words[pos + 1:end - 1], raw))
            pos = end
        else:
            clauses.append(Clause(name))

    return OmpPragma(directive, clauses, raw.strip())


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


def relabel_clause_variables(raw, mapping):
    """raw with mapping's new names written over the words at depth 1 of a
    variable-list clause's parentheses and after a reduction's ':' (a clause
    name counts at depth 0). Every other character stays; never raises."""
    pieces, clause, depth, in_list = [], None, 0, False
    for match in _WORD_RE.finditer(raw):
        word = match.group(0)
        if word == "(":
            depth += 1
            if depth == 1:
                in_list = clause in VAR_LIST_CLAUSES
        elif word == ")":
            depth -= 1
        elif depth == 0 and match.group(1):
            clause = word
        elif depth == 1 and word == ":" and clause == "reduction":
            in_list = True
        elif depth == 1 and in_list:
            word = mapping.get(word, word)
        pieces.append(word)
    return "".join(pieces)
