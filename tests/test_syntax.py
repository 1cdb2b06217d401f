import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ompadvisor.syntax import (
    AstNode, ParseError, _strip_comments, iter_nodes, parse_snippet, parse_source,
    render, tokenize,
)
from oracles import (
    ast_equal, gen_source_program, reference_strip_comments, reference_tokenize,
)

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
