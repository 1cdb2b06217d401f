import re
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ompadvisor.augment import (
    curriculum_ratio, draw_mapping, find_names, fraction_for_mode, rename_variables,
)
from ompadvisor.corpus import content_hash, extract_from_source
from ompadvisor.dfg import build_dfg, dfg_to_json
from ompadvisor.encode import build_vocabulary, encode_sample, relabel_encoding
from ompadvisor.synthetic import generate_synthetic_corpus
from ompadvisor.syntax import iter_nodes, parse_snippet, tokenize
from oracles import reference_parse_omp_pragma


@pytest.fixture
def reduction_sample():
    source = """
void f(int n, double *a) {
  int i;
  double s = 0.0;
  #pragma omp parallel for private(i) reduction(+:s)
  for (i = 0; i < n; i++) {
    s += a[i] * 2.0;
  }
}
"""
    samples, rejects = extract_from_source(source, "t.c", with_scope=True)
    assert not rejects and len(samples) == 1
    return samples[0]


def variable_names(sample):
    snippet, _ = parse_snippet(sample.source_text())
    return {n.attrs["name"] for n in iter_nodes(snippet) if n.kind == "Identifier"}


@pytest.mark.parametrize("epoch,expected", [
    (1, 0.0), (2, 0.1), (3, 0.2), (4, 0.3), (5, 0.4), (6, 0.4), (9, 0.4), (100, 0.4),
])
def test_curriculum_schedule_values(epoch, expected):
    assert curriculum_ratio(epoch) == pytest.approx(expected)


@pytest.mark.parametrize("epoch", [0, -1])
def test_curriculum_rejects_bad_epochs(epoch):
    with pytest.raises(ValueError):
        curriculum_ratio(epoch)


@given(st.integers(min_value=1, max_value=500))
def test_curriculum_non_decreasing_and_capped(epoch):
    here = curriculum_ratio(epoch)
    assert 0.0 <= here <= 0.4
    assert here <= curriculum_ratio(epoch + 1)


def test_mode_fractions():
    assert fraction_for_mode("none", 5) == 0.0
    assert fraction_for_mode("curriculum", 3) == pytest.approx(0.2)
    assert fraction_for_mode("replaced", 1) == 1.0
    with pytest.raises(ValueError):
        fraction_for_mode("sometimes", 1)


def test_fraction_zero_is_identity(reduction_sample):
    out = rename_variables(reduction_sample, 0.0, seed=1)
    assert out.to_json_dict() == reduction_sample.to_json_dict()


@pytest.mark.parametrize("fraction", [0.0, 0.1, 0.2, 0.3, 0.4, 1.0])
def test_exact_rename_count(reduction_sample, fraction):
    before = variable_names(reduction_sample)
    out = rename_variables(reduction_sample, fraction, seed=3)
    after = variable_names(out)
    renamed = before - after
    assert len(renamed) == int(fraction * len(before))
    assert all(re.fullmatch(r"var\d{1,4}", name) for name in after - before)


def test_a_draw_needing_more_new_names_than_are_free_raises():
    """var<k> takes k in 0..9999: a draw that needs more of those names than
    are free raises rather than redrawing forever, and one that needs
    exactly as many as are free still draws them."""
    every = [f"var{k}" for k in range(10_000)]
    with pytest.raises(ValueError, match="renames 1 variables, but only 0 of the names"):
        draw_mapping([["x", 0]], ["x", *every], 1.0, seed=0)
    nodes = [[f"v{k}", k] for k in range(10_001)]
    with pytest.raises(ValueError, match="renames 10001 variables, but only 10000 of the names"):
        draw_mapping(nodes, [name for name, _ in nodes], 1.0, seed=0)
    mapping = draw_mapping([["x", 0], ["y", 2]], ["x", "+", "y", *every[:-2]], 1.0, seed=0)
    assert sorted(mapping.values()) == ["var9998", "var9999"]


def test_full_rename_example():
    source = "void f(int n) { int i; double s; for (i = 0; i < n; i++) s += a[i]; }"
    samples, _ = extract_from_source(source, "t.c")
    out = rename_variables(samples[0], 1.0, seed=1)
    names = variable_names(out)
    assert all(re.fullmatch(r"var\d{1,4}", name) for name in names)
    assert len(names) == len(variable_names(samples[0]))
    assert (out.label_pragma, out.label_private, out.label_reduction) == (
        samples[0].label_pragma, samples[0].label_private, samples[0].label_reduction)


def test_labels_never_change(reduction_sample):
    for fraction in (0.1, 0.4, 1.0):
        out = rename_variables(reduction_sample, fraction, seed=11)
        assert (out.label_pragma, out.label_private, out.label_reduction) == (1, 1, 1)


def test_structure_preserved(reduction_sample):
    out = rename_variables(reduction_sample, 1.0, seed=5)
    original_tokens = tokenize(reduction_sample.source_text())
    renamed_tokens = tokenize(out.source_text())
    assert len(original_tokens) == len(renamed_tokens)
    for a, b in zip(original_tokens, renamed_tokens):
        assert a.kind == b.kind
        if a.kind != "identifier":
            assert a.lexeme == b.lexeme

    s1, _ = parse_snippet(reduction_sample.source_text())
    s2, _ = parse_snippet(out.source_text())

    def shape(node):
        return (node.kind, [shape(c) for c in node.children])

    assert shape(s1) == shape(s2)


def test_dfg_isomorphic_after_rename(reduction_sample):
    out = rename_variables(reduction_sample, 1.0, seed=7)
    assert out.dfg["edges"] == reduction_sample.dfg["edges"]
    assert [t for _, t in out.dfg["nodes"]] == [t for _, t in reduction_sample.dfg["nodes"]]


def test_pragma_clauses_follow_renames(reduction_sample):
    out = rename_variables(reduction_sample, 1.0, seed=13)
    pragma = reference_parse_omp_pragma(out.pragma_raw)  # it keeps clause arguments
    names = variable_names(out)
    for clause in pragma.clauses:
        for arg in clause.args:
            assert arg in names
            assert re.fullmatch(r"var\d{1,4}", arg)


def test_deterministic_for_seed(reduction_sample):
    a = rename_variables(reduction_sample, 0.4, seed=21)
    b = rename_variables(reduction_sample, 0.4, seed=21)
    c = rename_variables(reduction_sample, 0.4, seed=22)
    assert a.to_json_dict() == b.to_json_dict()
    assert a.to_json_dict() != c.to_json_dict()


def test_new_names_unique_within_sample(reduction_sample):
    out = rename_variables(reduction_sample, 1.0, seed=2)
    names = [n.attrs["name"] for n in iter_nodes(parse_snippet(out.source_text())[0])
             if n.kind == "Identifier"]
    fresh = {n for n in names if n.startswith("var")}
    originals = variable_names(reduction_sample)
    assert not fresh & originals


def test_unparseable_sample_raises(reduction_sample):
    from ompadvisor.syntax import ParseError

    broken = replace(reduction_sample, loop_code="for (i = 0; i < n; i++ {")
    with pytest.raises(ParseError):
        rename_variables(broken, 0.5, seed=1)


@pytest.fixture(scope="module")
def synthetic_samples():
    return generate_synthetic_corpus(n=2000)


def identifiers(sample):
    return [t.lexeme for t in tokenize(sample.source_text()) if t.kind == "identifier"]


@pytest.mark.parametrize("fraction", [0.1, 0.4, 1.0])
def test_rename_is_a_relabeling(synthetic_samples, fraction):
    """A rename is a bijection on identifiers that keeps the id and the
    graph's edges and maps the graph's names as it maps the text's; the
    text, graph and id are also what deriving them anew gives."""
    for k, sample in enumerate(synthetic_samples):
        renamed = rename_variables(sample, fraction, seed=k)
        before, after = identifiers(sample), identifiers(renamed)
        mapping = dict(zip(before, after))
        assert [mapping[name] for name in before] == after
        assert len(set(mapping.values())) == len(mapping)
        assert renamed.id == sample.id == content_hash(renamed.loop_code)
        assert renamed.dfg == {
            "nodes": [[mapping[name], slot] for name, slot in sample.dfg["nodes"]],
            "edges": sample.dfg["edges"]}
        assert renamed.dfg == dfg_to_json(build_dfg(parse_snippet(renamed.source_text())[0]))


def test_no_variable_takes_a_call_name():
    """At seed 7, n's first draw is the called function's name; a redraw
    keeps the identifiers distinct, so the id does not change."""
    source = ("void f(int n, double *a) {\nint i;\nfor (i = 0; i < n; i++) {\n"
              "a[i] = var6468(i);\n}\n}\n")
    (sample,), _ = extract_from_source(source, "t.c")
    assert sample.id == "9a6f6a379b219687"
    for fraction in (0.4, 1.0):
        renamed = rename_variables(sample, fraction, seed=7)
        snippet, _ = parse_snippet(renamed.source_text())
        assert [n.attrs["name"] for n in iter_nodes(snippet) if n.kind == "Call"] == ["var6468"]
        assert "var6468" not in variable_names(renamed)
        assert renamed.id == sample.id
        assert "n" not in variable_names(renamed)


def test_relabeled_encodings_are_those_of_renamed_samples(synthetic_samples):
    """A renaming epoch of train relabels each base encoding at the
    data-flow nodes' slots: that gives the renamed sample's encoding, at
    three fractions, whole and cut to 8 code tokens and 4 nodes. The new
    names are in the vocabulary, so each has its own id."""
    tokens = [find_names(sample) for sample in synthetic_samples]
    renamed = {fraction: [rename_variables(sample, fraction, k, tokens[k])
                          for k, sample in enumerate(synthetic_samples)]
               for fraction in (0.1, 0.4, 1.0)}
    vocab = build_vocabulary(synthetic_samples + sum(renamed.values(), []), min_freq=1)
    for max_code, max_dfg in ((256, 32), (8, 4)):
        limited = replace(vocab, max_code=max_code, max_dfg=max_dfg)
        base = [encode_sample(sample, limited) for sample in synthetic_samples]
        changed = 0
        for fraction, samples in renamed.items():
            for k, (sample, out) in enumerate(zip(synthetic_samples, samples)):
                nodes = sample.dfg["nodes"]
                mapping = draw_mapping(nodes, [t.lexeme for t in tokens[k]], fraction, k)
                relabeled = relabel_encoding(base[k], nodes, mapping, limited)
                assert relabeled == encode_sample(out, limited)
                changed += relabeled.ids != base[k].ids
        assert changed > len(synthetic_samples)
