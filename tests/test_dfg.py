import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ompadvisor import dfg
from ompadvisor.dfg import build_dfg, dfg_to_json
from ompadvisor.syntax import iter_nodes, parse_snippet
from oracles import (
    gen_straight_line_program, reference_build_dfg, render_straight_line, straight_line_oracle,
)


def graph_of(source):
    snippet, tokens = parse_snippet(source)
    return build_dfg(snippet), tokens


def serialize_dfg(graph):
    """Program-order serialization: (names, token alignment, edges)."""
    names = [n.var_name for n in graph.nodes]
    alignment = [n.code_token_index for n in graph.nodes]
    return names, alignment, list(graph.edges)


def test_spec_example_two_statements():
    g, _ = graph_of("a = b + c;\nd = a;")
    assert [(n.var_name, n.occurrence_kind) for n in g.nodes] == [
        ("a", "def"), ("b", "use"), ("c", "use"), ("d", "def"), ("a", "use"),
    ]
    assert set(g.edges) == {(0, 1), (0, 2), (4, 0), (3, 4)}


def test_constant_rhs_yields_no_edges():
    g, _ = graph_of("x = 1;")
    assert [(n.var_name, n.occurrence_kind) for n in g.nodes] == [("x", "def")]
    assert g.edges == []


def test_loop_fixpoint_back_edges():
    g, _ = graph_of("for (i = 0; i < n; i++) {\ns = s + a[i];\n}")
    nodes = [(n.var_name, n.occurrence_kind) for n in g.nodes]
    assert nodes == [
        ("i", "def"), ("i", "use"), ("n", "use"), ("i", "def"),
        ("s", "def"), ("s", "use"), ("a", "use"), ("i", "use"),
    ]
    edges = set(g.edges)
    # s use draws from the def of s inside the body (loop back-edge)
    assert (5, 4) in edges
    # i inside a[i] comes from both i = 0 and i++
    assert (7, 0) in edges and (7, 3) in edges
    # no self-edges
    assert all(t != f for t, f in edges)


def test_prior_def_reaches_into_loop():
    g, _ = graph_of("double s = 0.0;\nfor (i = 0; i < n; i++) {\ns = s + a[i];\n}")
    by_id = {n.node_id: (n.var_name, n.occurrence_kind) for n in g.nodes}
    s_use = next(i for i, v in by_id.items() if v == ("s", "use"))
    sources = {f for t, f in g.edges if t == s_use}
    kinds = {by_id[f] for f in sources}
    assert kinds == {("s", "def")}
    assert len(sources) == 2  # the outer def and the in-body def


def test_branch_union():
    g, _ = graph_of("x = 1;\nif (c > 0) {\nx = 2;\n}\ny = x;")
    by_id = {n.node_id: (n.var_name, n.occurrence_kind) for n in g.nodes}
    x_use = next(i for i, v in by_id.items() if v == ("x", "use"))
    sources = {f for t, f in g.edges if t == x_use}
    assert len(sources) == 2  # both branches reach the use


def test_compound_assignment_draws_prior_def():
    g, _ = graph_of("x = 1;\nx += y;")
    # nodes: x def, x def(compound), y use
    assert set(g.edges) == {(1, 0), (1, 2)}


def test_increment_through_a_pointer_reads_its_subscript_once():
    """++ and += 1 on a store through *p read the subscript once, so the use
    of i does not draw from the definition the subscript makes after it."""
    graphs = [graph_of(f"int i;\nint *p;\n(*p)[i = i + 1]{store};")[0]
              for store in ("++", " += 1")]
    assert graphs[0] == graphs[1]
    assert [(n.var_name, n.occurrence_kind) for n in graphs[0].nodes] == [
        ("i", "def"), ("p", "def"), ("p", "use"), ("i", "def"), ("i", "use"),
    ]
    assert graphs[0].edges == [(2, 1), (3, 4), (4, 0)]


def test_increments_of_named_stores_define_them():
    g, _ = graph_of("int i;\nint j;\nint a[3];\na[i++]++;\nj++;\nj = a[i] + j;")
    assert [(n.var_name, n.occurrence_kind) for n in g.nodes] == [
        ("i", "def"), ("j", "def"), ("a", "def"), ("a", "def"), ("i", "def"),
        ("j", "def"), ("j", "def"), ("a", "use"), ("i", "use"), ("j", "use"),
    ]
    assert g.edges == [(3, 2), (4, 0), (5, 1), (6, 7), (6, 8), (6, 9), (7, 3), (8, 4), (9, 5)]
    g, _ = graph_of("a[i++]++;\nj++;")
    assert [(n.var_name, n.occurrence_kind) for n in g.nodes] == [
        ("a", "def"), ("i", "def"), ("j", "def"),
    ]
    assert g.edges == []


def test_function_names_and_types_are_not_nodes():
    g, _ = graph_of("x = f(y) + g(1);")
    names = [n.var_name for n in g.nodes]
    assert names == ["x", "y"]


def test_declaration_without_initializer_anchors_uses():
    g, _ = graph_of("int x;\ny = x;")
    assert [(n.var_name, n.occurrence_kind) for n in g.nodes] == [
        ("x", "def"), ("y", "def"), ("x", "use"),
    ]
    assert set(g.edges) == {(2, 0), (1, 2)}


def test_array_store_defines_whole_array():
    g, _ = graph_of("a[i] = b[i];\nc = a[j];")
    by_id = {n.node_id: (n.var_name, n.occurrence_kind) for n in g.nodes}
    a_use = next(i for i, v in by_id.items() if v == ("a", "use"))
    a_def = next(i for i, v in by_id.items() if v == ("a", "def"))
    assert (a_use, a_def) in set(g.edges)


def test_alignment_points_at_identifier_tokens():
    source = "for (i = 0; i < n; i++) {\ns = s + a[i];\n}"
    snippet, tokens = parse_snippet(source)
    g = build_dfg(snippet)
    for node in g.nodes:
        tok = tokens[node.code_token_index]
        assert tok.kind == "identifier"
        assert tok.lexeme == node.var_name


def test_determinism():
    source = "for (i = 0; i < n; i++) {\ns += a[i] * b[i];\n}"
    g1, _ = graph_of(source)
    g2, _ = graph_of(source)
    assert [(n.var_name, n.code_token_index) for n in g1.nodes] == [
        (n.var_name, n.code_token_index) for n in g2.nodes
    ]
    assert g1.edges == g2.edges


@pytest.mark.parametrize("seed", range(200))
def test_oracle_equivalence_straight_line(seed):
    rng = random.Random(seed)
    stmts = gen_straight_line_program(rng)
    source = render_straight_line(stmts)
    expected_nodes, expected_edges = straight_line_oracle(stmts)
    g, _ = graph_of(source)
    assert [(n.var_name, n.occurrence_kind) for n in g.nodes] == expected_nodes
    assert set(g.edges) == expected_edges


def test_rename_isomorphism():
    source = "for (i = 0; i < n; i++) {\ns = s + a[i];\n}"
    renamed = source.replace("i", "iz").replace("n", "nz").replace("s", "sz").replace("a", "az")
    g1, _ = graph_of(source)
    g2, _ = graph_of(renamed)
    assert g1.edges == g2.edges
    assert [n.occurrence_kind for n in g1.nodes] == [n.occurrence_kind for n in g2.nodes]


def test_serialize_matches_build_example():
    g, tokens = graph_of("a = b + c;")
    names, alignment, edges = serialize_dfg(g)
    assert names == ["a", "b", "c"]
    assert [tokens[i].lexeme for i in alignment] == ["a", "b", "c"]
    assert edges == [(0, 1), (0, 2)]


def test_serialize_empty_graph():
    g, _ = graph_of("")
    assert serialize_dfg(g) == ([], [], [])


def test_serialization_injective_on_fixture_pairs():
    sources = [
        "a = b + c;",
        "a = b;\nc = a;",
        "x = 1;\nx += y;",
        "for (i = 0; i < n; i++) {\ns = s + a[i];\n}",
        "for (i = 0; i < n; i++) {\na[i] = a[i - 1];\n}",
    ]
    serialized = []
    for source in sources:
        g, _ = graph_of(source)
        serialized.append(serialize_dfg(g))
    assert len(set(map(repr, serialized))) == len(sources)


def test_json_wire_format_round_trip():
    g, _ = graph_of("a = b + c;\nd = a;")
    data = dfg_to_json(g)
    assert data["nodes"] == [["a", 0], ["b", 2], ["c", 4], ["d", 6], ["a", 8]]
    assert sorted(map(tuple, data["edges"])) == sorted(g.edges)
    # the wire format keeps names, alignment and edges; occurrence kinds are
    # only needed while building
    back = json.loads(json.dumps(data))
    assert back["nodes"] == [[n.var_name, n.code_token_index] for n in g.nodes]
    assert [tuple(e) for e in back["edges"]] == g.edges


# ---------------------------------------------------------------------------
# loops: one pass from the fixed-point head state, against the two-pass oracle

NEST_NAMES = ("a", "i", "j", "s", "t")


def random_loop_nest(rng, depth):
    """One or two random statements: assignments (plain, compound, increment
    and array store) and, while depth allows, for/while loops and if/else
    branches nested up to depth more, some of whose conditions define."""

    def expr():
        terms = [rng.choice([rng.choice(NEST_NAMES), f"a[{rng.choice(NEST_NAMES)}]", "1"])
                 for _ in range(rng.randint(1, 3))]
        return " + ".join(terms)

    def cond():
        return rng.choice([f"{rng.choice(NEST_NAMES)} < {expr()}",
                           f"({rng.choice(NEST_NAMES)} = {expr()}) > 0"])

    out = []
    for _ in range(rng.randint(1, 2)):
        kind = rng.choice(["assign", "for", "for_empty", "while", "if", "if_else"]
                          if depth else ["assign"])
        var = rng.choice(NEST_NAMES)
        if kind == "assign":
            out.append(rng.choice([f"{var} = {expr()};", f"{var} += {expr()};", f"{var}++;",
                                   f"a[{var}] = {expr()};"]))
            continue
        body = random_loop_nest(rng, depth - 1)
        if kind == "for":
            out.append(f"for ({var} = {expr()}; {cond()}; {var}++) {{\n{body}\n}}")
        elif kind == "for_empty":
            out.append(f"for (;;) {{\n{body}\n}}")
        elif kind == "while":
            out.append(f"while ({cond()}) {{\n{body}\n}}")
        else:
            other = ""
            if kind == "if_else":
                other = f" else {{\n{random_loop_nest(rng, depth - 1)}\n}}"
            out.append(f"if ({cond()}) {{\n{body}\n}}{other}")
    return "\n".join(out)


@settings(max_examples=100, deadline=None)
@given(st.randoms(use_true_random=False))
def test_one_pass_loops_match_the_two_pass_builder(rng):
    snippet, tokens = parse_snippet(random_loop_nest(rng, 6))
    assert build_dfg(snippet) == reference_build_dfg(snippet, tokens)


def nested_loops(depth):
    """depth nested for loops, each adding its counter into s."""
    return ("".join(f"for (i{k} = 0; i{k} < n; i{k}++) {{\ns = s + i{k};\n"
                    for k in range(depth)) + "}\n" * depth)


def test_nested_loops_match_the_two_pass_builder():
    snippet, tokens = parse_snippet(nested_loops(10))
    assert build_dfg(snippet) == reference_build_dfg(snippet, tokens)


def test_data_flow_work_is_linear_in_loop_nesting(monkeypatch):
    """A guard without timing: on a 60-deep nest, visit_stmt runs at most
    three times per statement. Analyzing each body twice would take about
    2^60 calls; the counter stops such a run at the bound."""
    snippet, _ = parse_snippet(nested_loops(60))
    statement_kinds = {"ForStmt", "CompoundStmt", "ExprStmt", "Empty"}
    n_statements = sum(n.kind in statement_kinds for n in iter_nodes(snippet))
    bound = 3 * n_statements
    calls = []
    visit_stmt = dfg._Builder.visit_stmt

    def counting_visit_stmt(self, node, env):
        calls.append(node.kind)
        assert len(calls) <= bound, "visit_stmt calls grow faster than the statements"
        return visit_stmt(self, node, env)

    monkeypatch.setattr(dfg._Builder, "visit_stmt", counting_visit_stmt)
    graph = build_dfg(snippet)
    assert calls.count("ForStmt") >= 60

    def occurrences(name, kind):
        return [n.node_id for n in graph.nodes if (n.var_name, n.occurrence_kind) == (name, kind)]

    def sources(node_id):
        return sorted(f for t, f in graph.edges if t == node_id)

    # the innermost counter's uses draw from its init and its increment, and
    # the outermost use of s from every def of s in the nest (back-edges)
    assert all(sources(u) == occurrences("i59", "def") for u in occurrences("i59", "use"))
    assert sources(occurrences("s", "use")[0]) == occurrences("s", "def")
