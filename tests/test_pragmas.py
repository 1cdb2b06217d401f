import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ompadvisor.pragmas import (
    REDUCTION_OPS, PragmaError, _split_words, parse_omp_pragma, render_omp_pragma,
)
from oracles import reference_split_words

# Pieces of pragma lines: every separator and operator, the characters the
# word pattern treats specially, words that hold operators, and newlines.
PRAGMA_PIECES = [
    " ", "\t", "\n", "\r", "(", ")", ",", ":", "&", "|", "&&", "||", "+", "*", "^", "-",
    "#pragma", "omp", "parallel", "for", "private", "reduction", "min", "x", "a-b",
    "b+1", "é", "1",
]
pragma_lines = st.one_of(
    st.lists(st.sampled_from(PRAGMA_PIECES), max_size=30).map("".join),
    st.text(alphabet=" \t\n()-,:&|+*^x", max_size=30),
    st.text(max_size=30),
)


def test_parallel_for_with_private_and_reduction():
    p = parse_omp_pragma("#pragma omp parallel for private(i,j) reduction(+:sum)")
    assert p.directive == "parallel_for"
    assert [(c.name, c.args, c.reduction_op) for c in p.clauses] == [
        ("private", ["i", "j"], None),
        ("reduction", ["sum"], "+"),
    ]


def test_bare_critical():
    p = parse_omp_pragma("#pragma omp critical")
    assert p.directive == "critical"
    assert p.clauses == []


def test_schedule_and_firstprivate():
    p = parse_omp_pragma("#pragma omp parallel for schedule(static, 4) firstprivate(x)")
    assert p.directive == "parallel_for"
    assert [(c.name, c.args) for c in p.clauses] == [
        ("schedule", ["static", "4"]),
        ("firstprivate", ["x"]),
    ]


def test_whitespace_is_flexible():
    p = parse_omp_pragma("#pragma   omp   parallel    for   private( i ,j )")
    assert p.directive == "parallel_for"
    assert p.clauses[0].args == ["i", "j"]


def test_fixture_set_parses_completely(pragma_fixture_lines):
    assert len(pragma_fixture_lines) == 30
    parsed = [parse_omp_pragma(line) for line in pragma_fixture_lines]

    clause_names = {c.name for p in parsed for c in p.clauses}
    assert {"private", "firstprivate", "lastprivate", "shared", "reduction",
            "schedule", "collapse", "num_threads", "nowait"} <= clause_names

    directives = {p.directive for p in parsed}
    assert {"parallel_for", "for", "parallel", "barrier", "critical", "atomic"} <= directives

    ops = {c.reduction_op for p in parsed for c in p.clauses if c.name == "reduction"}
    assert ops == set(REDUCTION_OPS)
    assert len(ops) == 10


def test_fixture_set_round_trips(pragma_fixture_lines):
    for line in pragma_fixture_lines:
        p = parse_omp_pragma(line)
        again = parse_omp_pragma(render_omp_pragma(p))
        assert again.directive == p.directive
        assert [(c.name, c.args, c.reduction_op) for c in again.clauses] == [
            (c.name, c.args, c.reduction_op) for c in p.clauses
        ]


def test_unknown_clause_preserved():
    p = parse_omp_pragma("#pragma omp parallel for ordered frobnicate(a, b + 1)")
    names = [c.name for c in p.clauses]
    assert names == ["ordered", "frobnicate"]
    assert p.clauses[1].args == ["a", "b + 1"]


def test_directive_word_order():
    assert parse_omp_pragma("#pragma omp for").directive == "for"
    assert parse_omp_pragma("#pragma omp parallel").directive == "parallel"
    assert parse_omp_pragma("#pragma omp parallel for").directive == "parallel_for"
    assert parse_omp_pragma("#pragma omp target teams").directive == "other"


@pytest.mark.parametrize("raw", [
    "#pragma omp parallel for private(i",
    "#pragma omp parallel for reduction(:x)",
    "#pragma omp parallel for reduction(foo:x)",
    "#pragma omp parallel for reduction(+:)",
    "#pragma omp parallel for private()",
    "#pragma once",
])
def test_malformed_pragmas_raise(raw):
    with pytest.raises(PragmaError):
        parse_omp_pragma(raw)


@settings(max_examples=500, deadline=None)
@given(pragma_lines)
@example("#pragma omp parallel for reduction(-:x)")
@example("reduction(-:s) -")
@example("x -\n")  # "-" before a final newline is part of a word
@example("a&&&b|||c")
def test_word_splitter_matches_reference(raw):
    assert _split_words(raw) == reference_split_words(raw)


def test_word_splitter_matches_reference_on_fixture_lines(pragma_fixture_lines):
    for line in pragma_fixture_lines:
        assert _split_words(line) == reference_split_words(line)
        assert _split_words(line.strip()) == reference_split_words(line.strip())
