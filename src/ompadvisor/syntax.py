"""Lexer, recursive-descent parser and canonical renderer for a C subset.

The grammar covers the loop kernels found in scientific C code: basic types,
one-level array/pointer declarators, function definitions, if/else, for,
while, compound and expression statements, and the usual expression operators.
`#pragma omp` lines survive preprocessing as single pragma-line tokens, and
the parser keeps them as nodes, which the renderer leaves out; every other
preprocessor line and all comments are stripped before lexing.
"""

import re
from dataclasses import dataclass, field
from functools import cache

KEYWORDS = frozenset({
    "void", "int", "long", "float", "double", "char",
    "if", "else", "for", "while", "return",
})

TYPE_KEYWORDS = frozenset({"void", "int", "long", "float", "double", "char"})

ASSIGN_OPS = frozenset({"=", "+=", "-=", "*=", "/=", "%="})

# Longest first so the scanner never splits a two-char operator.
_OPERATORS = (
    "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
    "+=", "-=", "*=", "/=", "%=", "++", "--",
    "+", "-", "*", "/", "%", "<", ">", "=", "!", "&", "|", "^", "~",
)


class ParseError(Exception):
    """Grammar violation, reported with position and the expected construct."""

    def __init__(self, line, col, expected, got=""):
        self.line = line
        self.col = col
        self.expected = expected
        self.got = got
        detail = f"expected {expected}"
        if got:
            detail += f", got {got!r}"
        super().__init__(f"{line}:{col}: {detail}")


@dataclass
class Token:
    kind: str  # identifier | keyword | number | string-literal | char-literal | operator | punctuation | pragma-line
    lexeme: str
    line: int
    col: int


@dataclass
class AstNode:
    kind: str
    children: list = field(default_factory=list)
    token_span: tuple = (0, -1)  # [first, last] token indices, inclusive
    attrs: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# preprocessing

# Block and line comments, and the quoted literals they cannot start inside.
# An unclosed block comment or literal runs to the end of the text.
_COMMENT_RE = re.compile(
    r"""/\*.*?(?:\*/|\Z)|//[^\n]*|"(?:[^"\\]|\\.?)*"?|'(?:[^'\\]|\\.?)*'?""", re.S)


def _blank_comment(match):
    text = match.group()
    if text[0] in "\"'":
        return text
    return "\n".join(" " * len(part) for part in text.split("\n"))


def _strip_comments(text):
    """Comments become spaces, keeping their newlines (and so every position)."""
    return _COMMENT_RE.sub(_blank_comment, text)


def _preprocess(text):
    """Strip comments; keep `#pragma omp` logical lines, blank other `#` lines."""
    lines = _strip_comments(text).split("\n")
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


# ---------------------------------------------------------------------------
# lexer


def _lexer(digit, start):
    """The token regex, given the contents of a digit class and of an
    identifier-start class. A literal's backslash escapes any character,
    a newline included; `close` is unset for an unclosed literal."""
    spec = (
        ("newline", r"\n"),
        ("space", r"[ \t\r]+"),
        ("pragma", r"#[^\n]*"),
        ("word", rf"[{start}]\w*"),
        ("number", rf"0[xX][{digit}a-fA-F]*[fFlLuU]*"
                   rf"|(?=\.?[{digit}])[{digit}]*(?:\.[{digit}]*)?(?:[eE][+-]?[{digit}]+)?"
                   r"[fFlLuU]*"),
        ("quote", r"""(?P<q>["'])(?:(?!(?P=q))[^\\\n]|\\[\s\S])*(?P<close>(?P=q))?"""),
        ("operator", "|".join(map(re.escape, _OPERATORS))),
        ("punctuation", r"[()\[\]{};,]"),
        ("other", r"."),
    )
    return re.compile("|".join(f"(?P<{name}>{pattern})" for name, pattern in spec))


# Digits are str.isdigit and identifiers start at str.isalpha or "_"; in
# ASCII text those are exactly \d and [^\W\d].
_ASCII_LEXER = _lexer(r"\d", r"^\W\d")


@cache
def _unicode_lexer():
    r"""Beyond ASCII, str.isdigit also holds for digits such as superscript
    two that \d misses, and [^\W\d] also admits numerals such as Roman ones
    that are not letters: name those code points in the classes."""
    chars = "".join(map(chr, range(0x80, 0x110000)))
    numerals = "".join(c for c in re.findall(r"[^\W\d_]", chars) if not c.isalpha())
    digits = "".join(c for c in numerals if c.isdigit())
    return _lexer(r"\d" + digits, r"^\W\d" + numerals)


def tokenize(source_text):
    """Lex preprocessed source into Tokens. Raises ParseError on bad chars."""
    text = _preprocess(source_text)
    lexer = _ASCII_LEXER if text.isascii() else _unicode_lexer()
    tokens = []
    line, line_start = 1, 0
    for match in lexer.finditer(text):
        kind, lexeme = match.lastgroup, match.group()
        col = match.start() - line_start + 1
        if kind == "newline":
            line += 1
            line_start = match.end()
        elif kind == "word":
            tokens.append(Token("keyword" if lexeme in KEYWORDS else "identifier",
                                lexeme, line, col))
        elif kind in ("number", "operator", "punctuation"):
            tokens.append(Token(kind, lexeme, line, col))
        elif kind == "pragma":
            tokens.append(Token("pragma-line", lexeme.rstrip(), line, col))
        elif kind == "quote":
            if match["close"] is None:
                got = "newline" if text.startswith("\n", match.end()) else "end of input"
                raise ParseError(line, col, "closing quote", got)
            tokens.append(Token("string-literal" if lexeme[0] == '"' else "char-literal",
                                lexeme, line, col))
            if "\n" in lexeme:  # continued by backslash-newline
                line += lexeme.count("\n")
                line_start = match.start() + lexeme.rindex("\n") + 1
        elif kind == "other":
            raise ParseError(line, col, "a token", lexeme)
    return tokens


# ---------------------------------------------------------------------------
# parser


# Binary operators by precedence, tighter binding higher. The parser climbs
# this table and the renderer parenthesizes by it, so parse∘render stays the
# identity. Assignment is 1 and unary and primary expressions 12 and 13 (_prec).
_PRECEDENCE = {
    "||": 2, "&&": 3, "|": 4, "^": 5, "&": 6,
    "==": 7, "!=": 7, "<": 8, ">": 8, "<=": 8, ">=": 8,
    "<<": 9, ">>": 9, "+": 10, "-": 10, "*": 11, "/": 11, "%": 11,
}

# The parser's stack use is bounded by its input alone: each construct that
# nests charges a fixed number of frames, at least the Python frames one level
# of it takes, and input that would take more than MAX_PARSE_FRAMES is a
# ParseError at the token where the bound is crossed. The bound sits well below
# the interpreter's default recursion limit (1000), which leaves room for a
# deep caller, such as a test runner or a tracer, and for the AST walks that
# follow a parse.
MAX_PARSE_FRAMES = 600
_STATEMENT_FRAMES = 6  # statement, _statement, for, body, compound, block items
_EXPRESSION_FRAMES = 16  # at most assign, 11 parse_binary, unary, postfix, primary

_LITERAL_TYPES = {"number": "number", "string-literal": "string", "char-literal": "char"}


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
        self.frames = 0  # charged so far by the constructs open at pos

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
        if t is None or t.kind != kind or (lexeme is not None and t.lexeme != lexeme):
            self.fail(lexeme or kind)
        return self.advance()

    def fail(self, expected):
        """Raise at the next token, or at end of input just past the last."""
        t = self.peek()
        if t is not None:
            raise ParseError(t.line, t.col, expected, t.lexeme)
        last = self.tokens[-1] if self.tokens else Token("", "", 1, 1)
        raise ParseError(last.line, last.col + len(last.lexeme), expected, "end of input")

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
            children.extend(self.parse_external())
        return AstNode("TranslationUnit", children, (start, self.pos - 1), {})

    def parse_snippet(self):
        start = self.pos
        children = self.parse_block_items(until_rbrace=False)
        return AstNode("TranslationUnit", children, (start, self.pos - 1), {})

    # -- declarations and functions

    def at_type(self):
        t = self.peek()
        return t is not None and t.kind == "keyword" and t.lexeme in TYPE_KEYWORDS

    def parse_type(self, expected):
        if not self.at_type():
            self.fail(expected)
        return self.advance().lexeme

    def parse_declarator(self):
        """`[*] name ['[' size? ']']`: (pointer, Identifier or ArrayIndex)."""
        pointer = self.at("operator", "*")
        if pointer:
            self.advance()
        name_tok = self.expect("identifier")
        name_idx = self.pos - 1
        declarator = AstNode("Identifier", [], (name_idx, name_idx), {"name": name_tok.lexeme})
        if self.at("punctuation", "["):
            self.advance()
            if self.at("punctuation", "]"):
                size = AstNode("Empty", [], (self.pos, self.pos - 1), {})
            else:
                size = self.parse_assign()
            self.expect("punctuation", "]")
            declarator = self.node("ArrayIndex", [declarator, size], name_idx)
        return pointer, declarator

    def parse_external(self):
        """A function definition as [FunctionDef], or a declaration line as
        one Declaration per declarator. A line of one declarator spans its
        `;`; the Declarations split off a longer line do not, and the
        canonical renderer emits them on separate lines."""
        start = self.pos
        type_name = self.parse_type("a type keyword")
        pointer, declarator = self.parse_declarator()
        if declarator.kind == "Identifier" and self.at("punctuation", "("):
            return [self.parse_function_rest(start, type_name, pointer,
                                             declarator.attrs["name"])]
        decls = []
        while True:
            if self.at("operator", "="):
                self.advance()
                declarator = self.node("Assign", [declarator, self.parse_assign()],
                                       declarator.token_span[0], {"op": "="})
            decls.append(self.node("Declaration", [declarator], start,
                                   {"type": type_name, "pointer": pointer}))
            if not self.at("punctuation", ","):
                break
            self.advance()
            start = self.pos
            pointer, declarator = self.parse_declarator()
        self.expect("punctuation", ";")
        if len(decls) == 1:
            decls[0].token_span = (decls[0].token_span[0], self.pos - 1)
        return decls

    def parse_declaration(self):
        decls = self.parse_external()
        if decls[0].kind != "Declaration":
            self.fail("a declaration")
        return decls

    def parse_function_rest(self, start, type_name, pointer, name):
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
                         {"type": type_name, "pointer": pointer, "name": name})

    def parse_param(self):
        start = self.pos
        type_name = self.parse_type("a parameter type")
        pointer, declarator = self.parse_declarator()
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
                items.append(self.parse_pragma())
            elif self.at_type():
                items.extend(self.parse_declaration())
            else:
                items.append(self.parse_statement())
        return items

    def parse_pragma(self):
        """A pragma line, which must be followed by a statement."""
        t = self.advance()
        nxt = self.peek()
        if nxt is None or nxt.lexeme == "}" or nxt.kind == "pragma-line" or self.at_type():
            raise ParseError(t.line, t.col, "a statement after the pragma",
                             nxt.lexeme if nxt else "end of input")
        return AstNode("PragmaDirective", [], (self.pos - 1, self.pos - 1), {"raw": t.lexeme})

    def parse_compound(self):
        start = self.pos
        self.expect("punctuation", "{")
        items = self.parse_block_items(until_rbrace=True)
        self.expect("punctuation", "}")
        return self.node("CompoundStmt", items, start)

    def parse_body(self):
        """Parse a loop/branch body, wrapping a statement (and any pragma
        line before it) in a block."""
        if self.at("punctuation", "{"):
            return self.parse_compound()
        start = self.pos
        items = [self.parse_pragma()] if self.at("pragma-line") else []
        items.append(self.parse_statement())
        return AstNode("CompoundStmt", items, (start, self.pos - 1), {})

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
        expr = self.parse_assign()
        self.expect("punctuation", ";")
        return self.node("ExprStmt", [expr], start)

    def parse_for(self):
        start = self.pos
        self.expect("keyword", "for")
        self.expect("punctuation", "(")
        if self.at("punctuation", ";"):
            init = AstNode("Empty", [], (self.pos, self.pos - 1), {})
            self.advance()
        elif self.at_type():
            init, *rest = self.parse_declaration()
            if rest:
                t = self.peek() or self.tokens[-1]
                raise ParseError(t.line, t.col, "a single declarator in for-init", ",")
        else:
            istart = self.pos
            expr = self.parse_assign()
            self.expect("punctuation", ";")
            init = AstNode("ExprStmt", [expr], (istart, self.pos - 2), {})
        if self.at("punctuation", ";"):
            cond = AstNode("Empty", [], (self.pos, self.pos - 1), {})
        else:
            cond = self.parse_assign()
        self.expect("punctuation", ";")
        if self.at("punctuation", ")"):
            inc = AstNode("Empty", [], (self.pos, self.pos - 1), {})
        else:
            inc = self.parse_assign()
        self.expect("punctuation", ")")
        body = self.parse_body()
        return self.node("ForStmt", [init, cond, inc, body], start)

    def parse_while(self):
        start = self.pos
        self.expect("keyword", "while")
        self.expect("punctuation", "(")
        cond = self.parse_assign()
        self.expect("punctuation", ")")
        body = self.parse_body()
        return self.node("WhileStmt", [cond, body], start)

    def parse_if(self):
        start = self.pos
        self.expect("keyword", "if")
        self.expect("punctuation", "(")
        cond = self.parse_assign()
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
            children.append(self.parse_assign())
        self.expect("punctuation", ";")
        return self.node("ReturnStmt", children, start)

    # -- expressions, lowest to highest precedence

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

    def parse_binary(self, min_prec):
        """Precedence climbing: a unary operand, then each operator binding at
        least min_prec with its right operand parsed one level tighter, so
        every binary operator associates to the left. Each operator folded in
        charges a frame until the chain ends, as walks down the chain take one."""
        start, frames = self.pos, self.frames
        left = self.parse_unary()
        while True:
            t = self.peek()
            prec = _PRECEDENCE.get(t.lexeme) if t is not None and t.kind == "operator" else None
            if prec is None or prec < min_prec:
                self.frames = frames
                return left
            self.descend(1)
            self.advance()
            right = self.parse_binary(prec + 1)
            left = self.node("BinaryOp", [left, right], start, {"op": t.lexeme})

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
                index = self.parse_assign()
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
        if t.kind in _LITERAL_TYPES:
            self.advance()
            return AstNode("Constant", [], (self.pos - 1, self.pos - 1),
                           {"value": t.lexeme, "ctype": _LITERAL_TYPES[t.kind]})
        if t.kind == "punctuation" and t.lexeme == "(":
            self.advance()
            expr = self.parse_assign()
            self.expect("punctuation", ")")
            return expr
        raise ParseError(t.line, t.col, "an expression", t.lexeme)


def _parse(source_text, entry):
    tokens = tokenize(source_text)
    parser = _Parser(tokens)
    try:
        unit = entry(parser)
    except RecursionError:
        # Nesting deeper than the interpreter's stack: a data error at the
        # token where the descent stopped, not a crash.
        parser.fail("less deeply nested code")
    return unit, tokens


def parse_source(source_text):
    """Parse a translation unit. Returns (TranslationUnit node, token list)."""
    return _parse(source_text, _Parser.parse_unit)


def parse_snippet(source_text):
    """Parse a bare statement/declaration sequence (loop samples, contexts)."""
    return _parse(source_text, _Parser.parse_snippet)


# ---------------------------------------------------------------------------
# canonical renderer


def _prec(node):
    if node.kind == "Assign":
        return 1
    if node.kind == "BinaryOp":
        return _PRECEDENCE[node.attrs["op"]]
    if node.kind == "UnaryOp":
        return 12
    return 13


# What the parser reads with parse_statement, which charges _STATEMENT_FRAMES.
_STATEMENT_KINDS = frozenset({"CompoundStmt", "ForStmt", "WhileStmt", "IfStmt", "ExprStmt",
                              "ReturnStmt", "Empty"})


class _Emitter:
    """The canonical renderer: one walk writing an AST's text token by token
    and noting the token index (slot) of each Identifier and Call name. It
    charges the frames _Parser charges reading the text back, so text too
    deeply nested to re-read is its ParseError, at the same token."""

    def __init__(self):
        self.parts = []  # tokens and the " " and "\n" between them
        self.lexemes = []  # the tokens alone
        self.slots = {}  # id(Identifier or Call node) -> its name's token index
        self.frames = 0

    def token(self, lexeme):
        if self.frames > MAX_PARSE_FRAMES:
            lines = [k for k, part in enumerate(self.parts) if part == "\n"]
            col = sum(map(len, self.parts[lines[-1] + 1 if lines else 0:])) + 1
            raise ParseError(len(lines) + 1, col, "less deeply nested code", lexeme)
        self.parts.append(lexeme)
        self.lexemes.append(lexeme)

    def put(self, *pieces):
        """Write pieces: " " and "\n" as they are, other non-empty strings as
        tokens, a list as its items separated by ", ", a CompoundStmt as a
        body, a Declaration without its ";" and any other node as an
        expression the parser reads with parse_assign."""
        for piece in pieces:
            if piece == " " or piece == "\n":
                self.parts.append(piece)
            elif isinstance(piece, str):
                if piece:
                    self.token(piece)
            elif isinstance(piece, list):
                self.put(*[p for node in piece for p in (",", " ", node)][2:])
            elif piece.kind == "CompoundStmt":
                self.stmt(piece)
            elif piece.kind == "Declaration":
                self.put(piece.attrs["type"], " ", "*" if piece.attrs.get("pointer") else "")
                self.expr(piece.children[0])
            else:
                self.expr(piece, _EXPRESSION_FRAMES)

    def items(self, nodes):
        """Block items but pragma lines, one per line; whether any was written."""
        nodes = [n for n in nodes if n.kind != "PragmaDirective"]
        for k, node in enumerate(nodes):
            frames = _STATEMENT_FRAMES if node.kind in _STATEMENT_KINDS else 0
            self.frames += frames
            self.put("\n" if k else "")
            self.stmt(node)
            self.frames -= frames
        return bool(nodes)

    def stmt(self, node):
        kind, c = node.kind, node.children
        if kind == "CompoundStmt":
            self.put("{", "\n")
            self.put("\n" if self.items(c) else "", "}")
        elif kind == "ForStmt":
            init = c[0].children[0] if c[0].kind == "ExprStmt" else c[0]
            self.put("for", " ", "(", init, ";", " ", c[1], ";", " ", c[2], ")", " ", c[3])
        elif kind == "WhileStmt":
            self.put("while", " ", "(", c[0], ")", " ", c[1])
        elif kind == "IfStmt":
            self.put("if", " ", "(", c[0], ")", " ", c[1])
            if len(c) == 3:
                self.put(" ", "else", " ", c[2])
        elif kind in ("ExprStmt", "Declaration"):
            self.put(c[0] if kind == "ExprStmt" else node, ";")
        elif kind == "ReturnStmt":
            self.put("return", " " if c else "", *c, ";")
        elif kind == "Empty":
            self.token(";")
        elif kind == "FunctionDef":
            self.put(node.attrs["type"], " ", "*" if node.attrs.get("pointer") else "",
                     node.attrs["name"], "(", c[:-1], ")", " ", c[-1])
        elif kind == "TranslationUnit":
            self.items(c)
        else:
            self.expr(node, _EXPRESSION_FRAMES)

    def expr(self, node, frames=0, parens=False, chained=False):
        """Write an expression, charged frames as a parse_assign entry is;
        parens wraps it in ( ), which the parser reads as such an entry. A
        binary operator charges a frame, held until its chain ends (chained:
        node is the left operand of the chain's next operator)."""
        if parens:
            self.token("(")
            frames = _EXPRESSION_FRAMES
        entry = self.frames
        self.frames += frames
        kind, c, attrs = node.kind, node.children, node.attrs
        if kind == "Identifier" or kind == "Call":
            self.slots[id(node)] = len(self.lexemes)
            self.token(attrs["name"])
            if kind == "Call":
                self.put("(", c, ")")
        elif kind == "Constant":
            self.token(attrs["value"])
        elif kind == "BinaryOp" or kind == "Assign":
            # Binary operators associate to the left, assignment to the
            # right, where the parser reads the value with parse_assign.
            prec = _prec(node)
            wrap = _prec(c[0]) < prec
            self.expr(c[0], parens=wrap, chained=kind == "BinaryOp" and not wrap)
            self.frames += kind == "BinaryOp"
            self.put(" ", attrs["op"], " ")
            if kind == "Assign":
                self.expr(c[1], _EXPRESSION_FRAMES)
            else:
                self.expr(c[1], parens=_prec(c[1]) <= prec)
        elif kind == "UnaryOp":
            # A prefix operand is parenthesized, so "- -x" cannot re-lex as
            # "--x" and "(*p)++" does not re-read as "*(p++)".
            wrap = _prec(c[0]) < 12 or (c[0].kind == "UnaryOp" and not c[0].attrs.get("postfix"))
            prefix = not attrs.get("postfix")  # charged 1 frame while its operand is read
            self.frames += prefix
            self.put(attrs["op"] if prefix else "")
            self.expr(c[0], parens=wrap)
            self.frames -= prefix
            self.put("" if prefix else attrs["op"])
        elif kind == "ArrayIndex":
            self.expr(c[0], parens=_prec(c[0]) < 13)
            self.put("[", c[1], "]")
        elif kind != "Empty":
            raise ValueError(f"not an expression node: {kind}")
        self.frames = self.frames if chained else entry  # a chain's end releases it
        if parens:
            self.token(")")


def emit(nodes):
    """Render nodes as the consecutive lines of one snippet, in one walk,
    leaving every pragma line out (a pragma node's text is empty).

    Returns (texts, slots, lexemes): each node's canonical text, the token
    index in "\n".join(texts) of every Identifier and Call name by id(node),
    and the lexemes tokenize reads in it. Raises the ParseError parse_snippet
    would raise reading the text back."""
    emitter = _Emitter()
    texts = []
    for node in nodes:
        start = len(emitter.parts)
        emitter.items([node])
        texts.append("".join(emitter.parts[start:]))
        emitter.parts.append("\n")
    return texts, emitter.slots, emitter.lexemes


def iter_nodes(node):
    """Yield node and all descendants in depth-first program order. An
    explicit stack, not nested generators, so each node costs O(1) however
    deep it sits."""
    stack = [node]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.children))
