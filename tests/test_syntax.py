import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ompadvisor import syntax
from ompadvisor.syntax import (
    AstNode, ParseError, _strip_comments, iter_nodes, parse_snippet, parse_source, tokenize,
)
from oracles import (
    ReferenceParser, ast_equal, gen_source_program, reference_parse_snippet,
    reference_parse_source, reference_strip_comments, reference_tokenize, render,
)
from test_cli import C_LIKE

# Pieces of lexer input: every operator and punctuator, both quote kinds,
# escapes and backslash-newline, comment delimiters, pragma and other
# preprocessor lines, number parts, and non-ASCII letters, digits and
# numerals (str.isalpha / str.isdigit are not \w / \d outside ASCII).
LEXER_PIECES = [
    "<<", ">>", "<=", ">=", "==", "!=", "&&", "||", "+=", "-=", "*=", "/=",
    "%=", "++", "--", "+", "-", "*", "/", "%", "<", ">", "=", "!", "&", "|",
    "^", "~", "(", ")", "[", "]", "{", "}", ";", ",", ".",
    '"', "'", "\\", "\\\n", "\n", " ", "\t", "\r", "\f",
    "/*", "*/", "//", "#pragma omp parallel for", "#pragma omp", "#define N 4", "#",
    "x", "_", "for", "int", "e", "E", "f", "L", "u", "0", "7", "0x", "1e", "a",
    "é", "²", "٣", "Ⅻ", "½", "@", "$",
]

lexer_inputs = st.lists(st.sampled_from(LEXER_PIECES), max_size=30).map("".join)


def _lex_outcome(lex, text):
    try:
        return [(t.kind, t.lexeme, t.line, t.col) for t in lex(text)]
    except ParseError as err:
        return ("error", err.line, err.col, err.expected, err.got)


def test_spec_example_parses_to_expected_shape():
    unit, tokens = parse_source("int main(){for(int i=0;i<n;i++) a[i]=b[i];}")
    assert unit.kind == "TranslationUnit"
    assert len(unit.children) == 1
    func = unit.children[0]
    assert func.kind == "FunctionDef"
    assert func.attrs["name"] == "main"
    loops = [n for n in iter_nodes(func) if n.kind == "ForStmt"]
    assert len(loops) == 1
    body = loops[0].children[3]
    assert body.kind == "CompoundStmt"
    assert body.children[0].kind == "ExprStmt"


def test_empty_input_is_empty_unit():
    unit, tokens = parse_source("")
    assert unit.kind == "TranslationUnit"
    assert unit.children == []
    assert tokens == []


def test_parse_is_deterministic():
    src = "int f(int n) { int i; for (i = 0; i < n; i++) { i = i + 1; } return i; }"
    u1, t1 = parse_source(src)
    u2, t2 = parse_source(src)
    assert ast_equal(u1, u2)
    assert t1 == t2


@pytest.mark.parametrize("seed", range(50))
def test_roundtrip_on_generated_programs(seed):
    source = gen_source_program(seed)
    unit, _ = parse_source(source)
    rendered = render(unit)
    unit2, _ = parse_source(rendered)
    assert ast_equal(unit, unit2)
    assert render(unit2) == rendered


@pytest.mark.parametrize("seed", range(0, 50, 7))
def test_token_coverage(seed):
    source = gen_source_program(seed)
    tokens = tokenize(source)
    squeezed = "".join(source.split())
    assert "".join(t.lexeme for t in tokens) == squeezed


@settings(max_examples=400, deadline=None)
@given(lexer_inputs)
@example("x = \"ab\\\n")  # unclosed literal: backslash-newline, then the end
@example("x = 'a\\\nb';\ny;")  # escaped newline inside a closed literal
@example("²x ٣y é1 Ⅻ")
@example("0x1fUL .5e+3f 1..2 1e+ 7.e2")
def test_lexer_matches_reference_scanner(text):
    assert _strip_comments(text) == reference_strip_comments(text)
    assert _lex_outcome(tokenize, text) == _lex_outcome(reference_tokenize, text)


def test_deep_nesting_is_a_parse_error():
    deep = "int f(void) { return " + "(" * 300 + "1" + ")" * 300 + "; }"
    with pytest.raises(ParseError) as err:
        parse_source(deep)
    assert (err.value.line, err.value.got) == (1, "(")
    with pytest.raises(ParseError):
        parse_snippet("x = " + "(" * 300 + "1" + ")" * 300 + ";")


def test_token_positions_are_one_based():
    tokens = tokenize("int x;\n  x = 1;")
    assert (tokens[0].line, tokens[0].col) == (1, 1)
    assert tokens[3].line == 2
    assert tokens[3].col == 3


def test_comments_and_other_preprocessor_lines_are_stripped():
    src = """
#include <stdio.h>
#define N 10
/* block
   comment */
int f(void) { // trailing
  return 0;
}
"""
    unit, tokens = parse_source(src)
    assert len(unit.children) == 1
    assert all(t.kind != "pragma-line" for t in tokens)


def test_pragma_line_token_spans_continuation():
    src = (
        "void f(int n, double *a) {\n"
        "int i;\n"
        "double s = 0.0;\n"
        "#pragma omp parallel for private(i) \\\n"
        "    reduction(+:s)\n"
        "for (i = 0; i < n; i++) {\ns += a[i];\n}\n"
        "}\n"
    )
    unit, tokens = parse_source(src)
    pragma_tokens = [t for t in tokens if t.kind == "pragma-line"]
    assert len(pragma_tokens) == 1
    assert pragma_tokens[0].lexeme == "#pragma omp parallel for private(i) reduction(+:s)"
    # line numbering after the continuation is preserved
    for_line = next(t.line for t in tokens if t.lexeme == "for")
    assert for_line == 6


def test_pragma_attachment_invariant():
    src = """
void f(int n, double *a) {
  int i;
  #pragma omp parallel for
  for (i = 0; i < n; i++) { a[i] = 0.0; }
}
"""
    unit, _ = parse_source(src)
    nodes = list(iter_nodes(unit))
    for node in nodes:
        for idx, child in enumerate(node.children):
            if child.kind == "PragmaDirective":
                assert idx + 1 < len(node.children)
                sibling = node.children[idx + 1]
                assert sibling.kind in (
                    "CompoundStmt", "ForStmt", "WhileStmt", "IfStmt",
                    "ExprStmt", "ReturnStmt",
                )


@pytest.mark.parametrize("src", [
    "void f(void) { #pragma omp parallel for\n }",  # dangling before }
    "#pragma omp parallel for\nint g(void) { return; }",  # top level
    "void f(void) {\n#pragma omp parallel for\nint x;\n}",  # before declaration
])
def test_dangling_pragma_is_rejected(src):
    with pytest.raises(ParseError):
        parse_source(src)


@pytest.mark.parametrize("src,expected_fragment", [
    ("int f( { return 0; }", "parameter type"),
    ("int f(void) { x = ; }", "expression"),
    ("int f(void) { for (i = 0) ; }", ";"),
    ("int f(void) { 3 = x; }", "assignable"),
    ("int ; ", "identifier"),
])
def test_parse_errors_carry_position_and_expectation(src, expected_fragment):
    with pytest.raises(ParseError) as err:
        parse_source(src)
    assert err.value.line >= 1
    assert err.value.col >= 1
    assert expected_fragment in str(err.value.expected)


def test_render_for_statement_canonical_form():
    snippet, _ = parse_snippet("for(i=0;i<10;i++) a[i]=0;")
    assert render(snippet.children[0]) == "for (i = 0; i < 10; i++) {\na[i] = 0;\n}"


def test_render_empty_compound():
    assert render(AstNode("CompoundStmt", [], (0, -1), {})) == "{\n}"


def test_render_idempotent_on_spec_like_snippets():
    src = "for (i = 0; i < 10; i++) {\na[i] = 0;\n}"
    snippet, _ = parse_snippet(src)
    assert render(snippet) == src


@pytest.mark.parametrize("expr,expect", [
    ("a - (b - c);", "a - (b - c);"),
    ("(a + b) * c;", "(a + b) * c;"),
    ("a + b * c;", "a + b * c;"),
    ("- -x;", "-(-x);"),
    ("a = b = c;", "a = b = c;"),
    ("!(a && b) || c;", "!(a && b) || c;"),
    ("p[i + 1] = f(x, y[2]);", "p[i + 1] = f(x, y[2]);"),
])
def test_expression_rendering_preserves_structure(expr, expect):
    snippet, _ = parse_snippet(expr)
    assert render(snippet) == expect
    again, _ = parse_snippet(render(snippet))
    assert ast_equal(snippet, again)


def test_multi_declarator_lines_split():
    unit, _ = parse_source("int f(void) { int i = 0, j; return i + j; }")
    body = unit.children[0].children[-1]
    decls = [c for c in body.children if c.kind == "Declaration"]
    assert len(decls) == 2
    assert render(decls[0]) == "int i = 0;"
    assert render(decls[1]) == "int j;"


def test_for_children_shape_with_empty_slots():
    snippet, _ = parse_snippet("for (;;) { x = 1; }")
    loop = snippet.children[0]
    assert [c.kind for c in loop.children] == ["Empty", "Empty", "Empty", "CompoundStmt"]
    rendered = render(loop)
    again, _ = parse_snippet(rendered)
    assert ast_equal(loop, again.children[0])


def test_single_statement_bodies_are_wrapped():
    snippet, _ = parse_snippet("if (x > 0) y = 1; else y = 2;")
    stmt = snippet.children[0]
    assert stmt.children[1].kind == "CompoundStmt"
    assert stmt.children[2].kind == "CompoundStmt"


def test_token_spans_nest_and_order():
    unit, tokens = parse_source("int f(int n) { int i; for (i = 0; i < n; i++) { n = n - 1; } return n; }")
    for node in iter_nodes(unit):
        lo, hi = node.token_span
        if node.kind == "Empty" and lo > hi:
            continue
        assert 0 <= lo <= hi < len(tokens)
        prev_end = lo - 1
        for child in node.children:
            clo, chi = child.token_span
            if child.kind == "Empty" and clo > chi:
                continue
            assert lo <= clo <= chi <= hi
            assert clo > prev_end
            prev_end = chi


# ---------------------------------------------------------------------------
# parser: differential tests against the reference parser

BINARY_OPERATORS = ["||", "&&", "|", "^", "&", "==", "!=", "<", ">", "<=", ">=",
                    "<<", ">>", "+", "-", "*", "/", "%"]
OPERANDS = ["a", "1", "(b)", "-c", "!d", "f(x, y)", "p[i]", "x++", "*q", "(a = b)"]
operator_chains = st.lists(
    st.tuples(st.sampled_from(BINARY_OPERATORS), st.sampled_from(OPERANDS)), max_size=12,
).map(lambda pairs: "y = a" + "".join(f" {op} {operand}" for op, operand in pairs) + ";")

TYPES = st.sampled_from(["int", "double", "char"])
POINTERS = st.sampled_from(["", "*"])
NAMES = st.sampled_from(["a", "b", "n"])
ARRAY_SUFFIXES = st.sampled_from(["", "[3]", "[]", "[n + 1]"])
declarators = st.builds("{}{}{}{}".format, POINTERS, NAMES, ARRAY_SUFFIXES,
                        st.sampled_from(["", " = 0", " = a * 2", " = p[1]"]))
declaration_lines = st.builds(
    "{} {}{}".format, TYPES, st.lists(declarators, min_size=1, max_size=4).map(", ".join),
    st.sampled_from([";", ",", ""]),
)
DECLARATION_CONTEXTS = ["{}", "void f(int n) {{\n{}\nreturn;\n}}", "for ({} i < n; i++) x = a;"]
declarations = st.builds(str.format, st.sampled_from(DECLARATION_CONTEXTS),
                         st.lists(declaration_lines, min_size=1, max_size=3).map("\n".join))
parameter_lists = st.lists(
    st.builds("{} {}{}{}".format, TYPES, POINTERS, NAMES, ARRAY_SUFFIXES), max_size=3,
).map(lambda params: "int g(" + ", ".join(params) + ") { return a; }")

parser_inputs = st.one_of(
    st.integers(0, 2**16).map(gen_source_program),
    C_LIKE,
    C_LIKE.map(lambda body: "void f(int n, double *a) {\n" + body + "\n}\n"),
    operator_chains,
    declarations,
    parameter_lists,
)


def _parse_outcome(parse, text):
    """Every node of the parse in preorder with its token span, or the
    ParseError's fields."""
    try:
        unit, _ = parse(text)
    except ParseError as err:
        return ("error", err.line, err.col, err.expected, err.got)
    return [(n.kind, n.token_span, n.attrs, len(n.children)) for n in iter_nodes(unit)]


def _reference_outcome(entry, tokens):
    """The reference parser's outcome on tokens, and the indices of the
    pragma lines it stopped at as a loop or branch body, right after a
    header's ")" or an "else". The parser reads such a pragma line and the
    statement after it as the body; the reference reads the tokens again
    with each such line left out."""
    removed = set()
    while True:
        kept = [k for k in range(len(tokens)) if k not in removed]
        parser = ReferenceParser([tokens[k] for k in kept])
        try:
            try:
                unit = entry(parser)
            except RecursionError:
                parser.fail("less deeply nested code")
        except ParseError as err:
            at = parser.pos
            if (err.expected == "an expression" and 0 < at < len(kept)
                    and tokens[kept[at]].kind == "pragma-line"
                    and tokens[kept[at - 1]].lexeme in (")", "else")):
                removed.add(kept[at])
                continue
            return ("error", err.line, err.col, err.expected, err.got), removed
        return [(n.kind, n.token_span, n.attrs, len(n.children)) for n in iter_nodes(unit)], removed


def _without_body_pragmas(outcome, removed):
    """The parser's node list with the removed pragma lines taken out, as
    the reference read the tokens; a ParseError's fields as they are."""
    if outcome[0] == "error":
        return outcome
    out = []
    for kind, (lo, hi), attrs, n_children in outcome:
        if kind == "PragmaDirective" and lo in removed:
            parent = out.pop()  # the block parse_body wraps the pragma line in
            out.append(parent[:3] + (parent[3] - 1,))
            continue
        span = tuple(k - sum(r < k for r in removed) for k in (lo, hi))
        out.append((kind, span, attrs, n_children))
    return out


def assert_parses_like_reference(text):
    """Equal outcomes, except where a pragma line starts a loop or branch
    body: the reference rejects that, and the parser reads it as the body."""
    try:
        tokens = tokenize(text)
    except ParseError:
        return  # both parsers share the lexer
    for parse, entry in ((parse_source, ReferenceParser.parse_unit),
                         (parse_snippet, ReferenceParser.parse_snippet)):
        outcome = _parse_outcome(parse, text)
        try:
            expected, removed = _reference_outcome(entry, tokens)
        except AttributeError:
            # The reference crashes on a multi-declarator for-init that ends
            # the input; the parser reports it as the for-init error.
            assert outcome[0] == "error" and outcome[3] == "a single declarator in for-init"
            continue
        if _without_body_pragmas(outcome, removed) != expected:
            # A body's pragma line must be followed by a statement, as in a block.
            assert outcome[3] == "a statement after the pragma"
            assert (outcome[1], outcome[2]) in {(tokens[k].line, tokens[k].col) for k in removed}


@settings(max_examples=500, deadline=None)
@given(parser_inputs)
@example("y = a - b - c;")
@example("y = a & b == c | d ^ e && f || g;")
@example("int i;")
@example("int i = 0, *p, a[3] = {};")
@example("for (int i = 0, j; i < n; i++) ;")
@example("for (int i, j;")
@example("int f(int a[], double *b, char c[n + 1]) { return a; }")
@example("for (j = 0; j < n; j++)\n#pragma omp parallel for\nfor (i = 0; i < n; i++) { x = 1; }")
@example("if (c)\n#pragma omp parallel for\nfor (;;) ; else\n#pragma omp for\nx = 1;")
@example("for (;;)\n#pragma omp parallel for\n}")
@example("while (c)\n#pragma omp parallel for\nint i;")
def test_parser_matches_reference_parser(text):
    assert_parses_like_reference(text)


# The deepest nest of each construct that parses; one level more crosses
# MAX_PARSE_FRAMES.
NESTS = {
    "parens": (35, lambda d: "y = " + "(" * d + "x" + ")" * d + ";"),
    "subscripts": (35, lambda d: "y = a" + "[x" * d + "]" * d + ";"),
    "call arguments": (35, lambda d: "y = " + "f(" * d + "x" + ")" * d + ";"),
    "prefix chain": (562, lambda d: "y = " + "!" * d + "x;"),
    "nested for": (93, lambda d: "for (;;) " * d + "y = x;"),
}


@pytest.mark.parametrize("name, depth", [
    (name, bound + side) for name, (bound, _) in NESTS.items() for side in (0, 1)
])
def test_nesting_bounds_match_the_reference_parser(name, depth):
    bound, nest = NESTS[name]
    text = nest(depth)
    for parse, reference, source in (
        (parse_snippet, reference_parse_snippet, text),
        (parse_source, reference_parse_source, "void g(void) {\n" + text + "\n}"),
    ):
        outcome = _parse_outcome(parse, source)
        assert outcome == _parse_outcome(reference, source)
        if depth > bound:
            assert outcome[0] == "error" and outcome[3] == "less deeply nested code"
        else:
            assert outcome[0][0] == "TranslationUnit"


def test_binary_expressions_take_one_call_per_operand(monkeypatch):
    """A guard without timing: a flat expression with n binary operators from
    all ten precedence levels takes at most 2n + 1 parse_binary calls, where
    a call per precedence level and operand would take over 10n."""
    levels = ["||", "&&", "|", "^", "&", "==", "<", "<<", "+", "*"]
    ops = levels + levels[::-1] + levels
    calls = []
    parse_binary = syntax._Parser.parse_binary

    def counting_parse_binary(self, *args):
        calls.append(args)
        return parse_binary(self, *args)

    monkeypatch.setattr(syntax._Parser, "parse_binary", counting_parse_binary)
    snippet, _ = parse_snippet("a" + "".join(f" {op} x{k}" for k, op in enumerate(ops)) + ";")
    assert [n.kind for n in snippet.children] == ["ExprStmt"]
    assert len(calls) <= 2 * len(ops) + 1
