import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ompadvisor.pragmas import (
    REDUCTION_OPS, VAR_LIST_CLAUSES, PragmaError, _split_words, parse_omp_pragma,
    relabel_clause_variables,
)
from oracles import (
    _rename_pragma, reference_parse_omp_pragma, reference_split_words, render_omp_pragma,
)

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
    assert p.clauses == ("private", "reduction")
    assert p.has_clause("private") and p.has_clause("reduction") and not p.has_clause("shared")


def test_bare_critical():
    p = parse_omp_pragma("#pragma omp critical")
    assert p.directive == "critical"
    assert p.clauses == ()


def test_schedule_and_firstprivate():
    p = parse_omp_pragma("#pragma omp parallel for schedule(static, 4) firstprivate(x)")
    assert p.directive == "parallel_for"
    assert p.clauses == ("schedule", "firstprivate")


def test_whitespace_is_flexible():
    p = parse_omp_pragma("#pragma   omp   parallel    for   private( i ,j )")
    assert p.directive == "parallel_for"
    assert p.clauses == ("private",)
    assert p.raw == "#pragma   omp   parallel    for   private( i ,j )"


def test_fixture_set_parses_completely(pragma_fixture_lines):
    assert len(pragma_fixture_lines) == 30
    parsed = [parse_omp_pragma(line) for line in pragma_fixture_lines]

    clause_names = {name for p in parsed for name in p.clauses}
    assert {"private", "firstprivate", "lastprivate", "shared", "reduction",
            "schedule", "collapse", "num_threads", "nowait"} <= clause_names

    directives = {p.directive for p in parsed}
    assert {"parallel_for", "for", "parallel", "barrier", "critical", "atomic"} <= directives

    # the operators, read by the reference parser, which keeps them
    ops = {c.reduction_op for line in pragma_fixture_lines
           for c in reference_parse_omp_pragma(line).clauses if c.name == "reduction"}
    assert ops == set(REDUCTION_OPS)
    assert len(ops) == 10


def test_fixture_set_round_trips(pragma_fixture_lines):
    for line in pragma_fixture_lines:
        p = parse_omp_pragma(line)
        again = parse_omp_pragma(render_omp_pragma(reference_parse_omp_pragma(line)))
        assert again.directive == p.directive
        assert again.clauses == p.clauses


def test_unknown_clause_preserved():
    p = parse_omp_pragma("#pragma omp parallel for ordered frobnicate(a, b + 1)")
    assert p.clauses == ("ordered", "frobnicate")


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


# ---------------------------------------------------------------------------
# the parser against the one it replaced, which read its directive with an
# if-ladder and collected each clause body word by word

# Directive lines: "#pragma omp" and then directive words, clause words and
# separators in any order.
directive_lines = st.lists(st.sampled_from([
    "parallel", "for", "barrier", "critical", "atomic", "target", "teams", "private",
    "nowait", "(", ")", ",", ":", "+", "i", "x", "(i)", "\t", "\n",
]), max_size=6).map(lambda words: "#pragma omp " + " ".join(words))


def _parsed(parse, raw):
    """What a parser makes of raw: the pragma's directive, clause names, raw
    and answers to the label clauses, or its error message. The reference's
    clauses are records with a name; the package's are names."""
    try:
        pragma = parse(raw)
    except PragmaError as err:
        return str(err)
    names = tuple(c if isinstance(c, str) else c.name for c in pragma.clauses)
    return (pragma.directive, names, pragma.raw, pragma.has_clause("private"),
            pragma.has_clause("reduction"))


@settings(max_examples=500, deadline=None)
@given(st.one_of(pragma_lines, directive_lines))
@example("#pragma omp")
@example("#pragma omp parallel")
@example("#pragma omp parallel for")
@example("#pragma omp parallel private(i)")
@example("#pragma omp target teams")
@example("#pragma omp ( private(i)")
def test_parser_matches_reference(raw):
    assert _parsed(parse_omp_pragma, raw) == _parsed(reference_parse_omp_pragma, raw)


def test_parser_matches_reference_on_fixture_lines(pragma_fixture_lines):
    for line in pragma_fixture_lines:
        assert _parsed(parse_omp_pragma, line) == _parsed(reference_parse_omp_pragma, line)


# ---------------------------------------------------------------------------
# relabeling clause variables in place, against the parse-edit-render path it
# replaced

# Variables: plain names, and names that are clause names or reduction
# operators elsewhere in the line.
NAMES = ["i", "j", "k", "sum", "x0", "a_b", "min", "private", "schedule"]
SPACES = st.sampled_from(["", " ", "  ", "\t", " \t"])
GAPS = st.sampled_from([" ", "  ", "\t"])


@st.composite
def well_formed_lines(draw):
    """A directive and clauses whose variable lists are comma-separated
    names, with random spacing around '(', ')', ',' and ':'."""
    def around(sep):
        return draw(SPACES) + sep + draw(SPACES)

    def names():
        listed = draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=4))
        return listed[0] + "".join(around(",") + name for name in listed[1:])

    clauses = []
    for kind in draw(st.lists(st.sampled_from(["var_list", "reduction", "other"]),
                              max_size=4)):
        if kind == "var_list":
            body = names()
            name = draw(st.sampled_from(sorted(VAR_LIST_CLAUSES)))
        elif kind == "reduction":
            body = draw(st.sampled_from(sorted(REDUCTION_OPS))) + around(":") + names()
            name = "reduction"
        else:
            name, body = draw(st.sampled_from([
                ("schedule", "static" + around(",") + "4"), ("schedule", "dynamic"),
                ("num_threads", "8"), ("collapse", "2"), ("nowait", None),
            ]))
        clauses.append(name if body is None else name + around("(") + body + around(")"))
    directive = draw(st.sampled_from(["parallel for", "for", "parallel"]))
    gap = draw(GAPS)
    return gap.join(["#pragma", "omp", directive, *clauses])


@st.composite
def relabelings(draw):
    """A mapping of some of NAMES to distinct var<k> names."""
    keys = draw(st.lists(st.sampled_from(NAMES), unique=True))
    ks = draw(st.lists(st.integers(0, 9999), min_size=len(keys), max_size=len(keys),
                       unique=True))
    return {key: f"var{k}" for key, k in zip(keys, ks)}


def _check_relabel(line, mapping):
    new = relabel_clause_variables(line, mapping)
    reference = _rename_pragma(line, mapping)
    assert _split_words(new) == _split_words(reference)
    if render_omp_pragma(reference_parse_omp_pragma(line)) == line:
        assert new == reference
    assert relabel_clause_variables(new, {v: k for k, v in mapping.items()}) == line


@settings(max_examples=500, deadline=None)
@given(well_formed_lines(), relabelings())
@example("#pragma omp parallel for private( i ,j )", {"i": "var1", "j": "var2"})
@example("#pragma omp parallel for reduction(min:min) private(private)",
         {"min": "var1", "private": "var2"})
def test_relabel_matches_reference_on_well_formed_lines(line, mapping):
    _check_relabel(line, mapping)


@settings(max_examples=50, deadline=None)
@given(relabelings())
def test_relabel_matches_reference_on_fixture_lines(pragma_fixture_lines, mapping):
    for line in pragma_fixture_lines:
        names = [a for c in reference_parse_omp_pragma(line).clauses
                 if c.name in VAR_LIST_CLAUSES | {"reduction"} for a in c.args]
        # the fixture's own variables, renamed as NAMES would be
        _check_relabel(line, dict(zip(names, mapping.values())))
        _check_relabel(line, mapping)


def test_relabel_keeps_a_lines_own_spacing():
    assert relabel_clause_variables("#pragma   omp parallel for private( i ,j )",
                                    {"i": "var1", "j": "var2"}) == \
        "#pragma   omp parallel for private( var1 ,var2 )"
    assert relabel_clause_variables("#pragma omp for reduction(max : m,n) schedule(static, n)",
                                    {"m": "var3", "n": "var4", "max": "var5"}) == \
        "#pragma omp for reduction(max : var3,var4) schedule(static, n)"


def test_relabel_reads_only_depth_one_of_a_variable_clause():
    assert relabel_clause_variables("#pragma omp parallel for private(f(i), i) if(i) i",
                                    {"i": "var1"}) == \
        "#pragma omp parallel for private(f(i), var1) if(i) i"


@settings(max_examples=500, deadline=None)
@given(pragma_lines, relabelings())
@example("#pragma omp parallel for private(", {"i": "var1"})
@example("not a pragma", {"not": "var1"})
@example("private(i)) (i) private((i), j", {"i": "var1", "j": "var2"})
def test_relabel_never_raises_and_keeps_every_other_character(raw, mapping):
    """Any text relabels: the empty mapping gives it back as it is, and a
    mapping changes only whole words."""
    assert relabel_clause_variables(raw, {}) == raw
    new = relabel_clause_variables(raw, mapping)
    old_words, new_words = _split_words(raw), _split_words(new)
    assert len(new_words) == len(old_words)
    assert all(n == o or mapping.get(o) == n for o, n in zip(old_words, new_words))
