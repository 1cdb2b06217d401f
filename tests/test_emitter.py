"""The canonical renderer emits token slots and lexemes: extraction and
renaming build data flow from them without re-parsing, hand the encoder the
lexemes tokenize would read, and match the string renderer and re-parsing
sample builders they replaced (tests/oracles.py)."""

import importlib.util
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ompadvisor import augment, corpus, dfg, encode, model, syntax
from ompadvisor.augment import rename_variables
from ompadvisor.corpus import Sample, extract_for_prediction, extract_from_source
from ompadvisor.encode import build_vocabulary, encode_sample, relabel_encoding
from ompadvisor.model import ModelConfig, init_params, predict_source
from ompadvisor.synthetic import generate_synthetic_corpus
from ompadvisor.syntax import (
    _STATEMENT_KINDS, ParseError, iter_nodes, parse_snippet, parse_source, tokenize,
)
from oracles import (
    gen_source_program, reference_extract_for_prediction, reference_extract_from_source,
    reference_render, reference_rename_variables, render,
)
from test_cli import (
    C_LIKE, TERM_CHAIN_BOUND, nested_loops_source, prefix_chain_source, term_chain_source,
)

# Where a nested expression e sits: a loop body, an inner loop, a loop
# condition, and context statements that --with-scope copies before the loop.
PLACES = (
    "void g(int n, int *a, int x) {\nint i;\nfor (i = 0; i < n; i++) {\na[i] = E;\n}\n}\n",
    "void g(int n, int *a, int x) {\nint i, j;\nfor (j = 0; j < n; j++) {\n"
    "for (i = 0; i < n; i++) {\na[i] = E + j;\n}\n}\n}\n",
    "void g(int n, int *a, int x) {\nint i;\nfor (i = 0; i < E; i++) {\na[i] = x;\n}\n}\n",
    "void g(int n, int *a, int x) {\nint i, y;\ny = E;\nfor (i = 0; i < n; i++) {\na[i] = y;\n}\n}\n",
    "void g(int n, int *a, int x) {\nint i;\nint y = E;\nfor (i = 0; i < n; i++) {\na[i] = y;\n}\n}\n",
)
# Prefix operators, parentheses, subscripts and call arguments, outermost first.
WRAPPERS = {"!": ("! ", ""), "~": ("~ ", ""), "*": ("* ", ""), "-": ("- ", ""),
            "(": ("(", ")"), "[": ("a[", "]"), "f(": ("f(x, ", ")")}
PREFIXES = ["!", "~", "*", "-"]


def nest(kinds):
    expr = "x"
    for kind in reversed(kinds):
        opening, closing = WRAPPERS[kind]
        expr = opening + expr + closing
    return expr


# A prefix operator costs 1 frame in the source but 17 in canonical text,
# which parenthesizes each nested one: runs of 25 to 40 cross the bound on
# re-reading a loop or its context. Other wrappers cost 16 frames in both,
# and 30 to 52 of them, one in four a prefix, cross the bound on reading
# the file.
OTHERS = ["(", "[", "f("]
nestings = st.one_of(
    st.builds(lambda prefixes, others: prefixes + others,
              st.lists(st.sampled_from(PREFIXES), min_size=25, max_size=40),
              st.lists(st.sampled_from(OTHERS), max_size=3)).flatmap(st.permutations),
    st.lists(st.sampled_from(OTHERS + PREFIXES[:1]), min_size=30, max_size=52),
)
nested_sources = st.builds(lambda place, kinds: place.replace("E", nest(kinds)),
                           st.sampled_from(PLACES), nestings)

# A binary operator folded into a left-associated chain costs 1 frame in the
# source and in canonical text alike, and holds it to the chain's end; a
# prefix run on its last term costs 1 frame an operator in the source and 17
# in canonical text. Chains of 300 to 580 terms, some operators binding
# tighter, cross the bound on reading the file or on re-reading the loop.


def chain_expr(ops, prefixes):
    return "x" + "".join(f" {op} x" for op in ops[:-1]) + f" {ops[-1]} " + "!" * prefixes + "x"


chained_sources = st.builds(
    lambda place, ops, prefixes: place.replace("E", chain_expr(ops, prefixes)),
    st.sampled_from(PLACES),
    st.lists(st.sampled_from(["+", "-", "+", "-", "*", "<"]), min_size=300, max_size=580),
    st.integers(0, 16))

FIXTURE_SOURCES = [path.read_text() for path in sorted(
    (Path(__file__).parent / "fixtures").glob("**/*.c"))]

extraction_inputs = st.one_of(
    st.sampled_from(FIXTURE_SOURCES),
    st.integers(0, 2**16).map(gen_source_program),
    C_LIKE.map(lambda body: "void f(int n, double *a) {\nint i;\n" + body + "\n}\n"),
    nested_sources,
)


def _call(fn, *args):
    """fn's result, or the fields of the ParseError it raises."""
    try:
        return fn(*args)
    except ParseError as err:
        return ("error", err.line, err.col, err.expected, err.got)


def _samples(samples):
    return [(s.to_json_dict(), s.offset) for s in samples]


def assert_carries_its_lexemes(sample):
    """The lexemes a sample hands the encoder are its text's tokens."""
    assert sample.lexemes == [t.lexeme for t in tokenize(sample.source_text())]


def _extracted(extract, text, scope):
    samples, rejects = extract(text, "t.c", scope)
    return _samples(samples), [(r.path, r.line, r.reason) for r in rejects]


def _predicted(extract, text, scope):
    """Each loop's line and sample, without the id: prediction leaves it empty."""
    return [(p["line"], {k: v for k, v in p["sample"].to_json_dict().items() if k != "id"},
             p["sample"].offset) for p in extract(text, scope)]


def _postfix_on_prefix(text):
    """Whether the text holds a postfix operator on a prefix one, as in
    (*p)++: the reference renderer wrote that *p++, which re-reads as *(p++)."""
    try:
        unit, _ = parse_source(text)
    except ParseError:
        return False
    return any(n.kind == "UnaryOp" and n.attrs["postfix"] and n.children[0].kind == "UnaryOp"
               and not n.children[0].attrs["postfix"] for n in iter_nodes(unit))


def _read_back(node, text):
    """"ok" or the ParseError fields of reading a node's canonical text back;
    None for an expression or a pragma line, which are no snippet alone."""
    if node.kind in ("TranslationUnit", "FunctionDef"):
        parse = parse_source
    elif node.kind in _STATEMENT_KINDS or node.kind == "Declaration":
        parse = parse_snippet
    else:
        return None
    outcome = _call(parse, text)
    return outcome if outcome[0] == "error" else "ok"


def assert_renders_like_reference(text):
    """render(n) is the reference renderer's text for every node n, and
    raises exactly when, and where, the parser could not read that back."""
    try:
        unit, _ = parse_source(text)
    except ParseError:
        return
    for node in iter_nodes(unit):
        expected = reference_render(node)
        outcome = _call(render, node)
        if isinstance(outcome, str):
            assert outcome == expected
            assert _read_back(node, expected) in ("ok", None)
        else:
            read_back = _read_back(node, expected)
            assert read_back in (outcome, None)
            if read_back is None:
                assert _call(parse_snippet, expected + ";")[0] == "error"


def assert_extracts_like_reference(text):
    for scope in (False, True):
        assert _call(_extracted, extract_from_source, text, scope) == \
            _call(_extracted, reference_extract_from_source, text, scope)
        assert _call(_predicted, extract_for_prediction, text, scope) == \
            _call(_predicted, reference_extract_for_prediction, text, scope)
        predicted = _call(extract_for_prediction, text, scope)
        for info in predicted if isinstance(predicted, list) else ():
            assert_carries_its_lexemes(info["sample"])
        samples, _ = extract_from_source(text, "t.c", scope)
        for sample in samples:
            assert_carries_its_lexemes(sample)
            for fraction in (0.1, 0.4, 1.0):
                renamed = _call(rename_variables, sample, fraction, 7)
                expected = _call(reference_rename_variables, sample, fraction, 7)
                if isinstance(renamed, tuple):
                    assert renamed == expected
                else:
                    assert _samples([renamed]) == _samples([expected])
                    assert_carries_its_lexemes(renamed)


@settings(max_examples=150, deadline=None)
@given(extraction_inputs)
@example("void f(int n, double *a) {\nint i, j;\nfor (j = 0; j < n; j++)\n#pragma omp parallel for\n"
         "for (i = 0; i < n; i++) {\n#pragma omp critical\na[i] = j;\n}\n}\n")
@example(prefix_chain_source(33))
@example(prefix_chain_source(34))
@example("void f(int n, double *a, int *p) {\nint i;\nfor (i = 0; i < n; i++) {\n"
         "a[i] = f(x)[i] + -(-x) + !(!(x)) + (a = b)[i] + p[i]++;\nf(x)[i] = 1;\n}\n}\n")
@example("void f(int n, double *a, char *s) {\nint i;\ns = \"ab\\\ncd\";\n"
         "for (i = 0; i < n; i++) {\na[i] = g(s, \"x\\\ny\", i) + n;\n}\n}\n")
@example("void f(int n, double *a) {\nint i;\nfor (i = 0; i < n; i++) {\n"
         "a[i] = var6468(i);\n}\n}\n")
def test_extraction_matches_reference(text):
    assume(not _postfix_on_prefix(text))
    assert_extracts_like_reference(text)
    assert_renders_like_reference(text)


@settings(max_examples=10, deadline=None)
@given(chained_sources)
@example(term_chain_source(TERM_CHAIN_BOUND))
@example(term_chain_source(TERM_CHAIN_BOUND + 1))
@example(PLACES[0].replace("E", chain_expr(["+"] * 399, 10)))
@example(PLACES[0].replace("E", chain_expr(["+"] * 399, 11)))
def test_operator_chain_bound_matches_reference(text):
    """The renderer raises where re-reading its text would, at the same
    token, so extraction, prediction and renaming match the re-parsing
    reference builders around the chain bound."""
    assert_extracts_like_reference(text)


@pytest.mark.parametrize("depth", [93, 94])
def test_nested_for_bound_matches_reference(depth):
    """The deepest nest of unbraced for loops that parses, and one more."""
    text = "void g(int n, int *a) {\n" + "for (;;) " * depth + "a[0] = n;\n}\n"
    assert _call(_predicted, extract_for_prediction, text, False) == \
        _call(_predicted, reference_extract_for_prediction, text, False)
    assert _call(_extracted, extract_from_source, text, True) == \
        _call(_extracted, reference_extract_from_source, text, True)


def test_postfix_operator_keeps_a_prefix_operand_parenthesized():
    """(*p)++ increments what p points at. The string renderer wrote it
    *p++, which increments p, and built the data flow of that: a definition
    of p that the next read of p drew from."""
    source = ("void f(int n, int *p, int *a) {\nint i;\nfor (i = 0; i < n; i++) {\n"
              "(*p)++;\na[i] = *p;\n}\n}\n")
    (sample,), _ = extract_from_source(source, "t.c")
    assert sample.loop_code == "for (i = 0; i < n; i++) {\n(*p)++;\na[i] = *p;\n}"
    loop = parse_snippet(sample.loop_code)[0].children[0]
    increment = loop.children[3].children[0].children[0]
    assert increment.attrs["postfix"] and not increment.children[0].attrs["postfix"]
    p_nodes = [k for k, (name, _) in enumerate(sample.dfg["nodes"]) if name == "p"]
    assert len(p_nodes) == 2
    assert not any(t in p_nodes and f in p_nodes for t, f in sample.dfg["edges"])
    (old,), _ = reference_extract_from_source(source, "t.c")
    assert old.loop_code == "for (i = 0; i < n; i++) {\n*p++;\na[i] = *p;\n}"
    old_p_nodes = [k for k, (name, _) in enumerate(old.dfg["nodes"]) if name == "p"]
    assert any(t in old_p_nodes and f in old_p_nodes for t, f in old.dfg["edges"])


# ---------------------------------------------------------------------------
# work guards without timing


@pytest.fixture
def counted(monkeypatch):
    """Counts of parses, tokenizations (the encoder's included), renderings,
    data-flow builds and content hashes, wherever they are called from;
    corpus's parse_snippet binding fails if called."""
    counts = dict.fromkeys(("parse", "tokenize", "emit", "build_dfg", "content_hash"), 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(syntax, "_parse", counting("parse", syntax._parse))
    for module in (syntax, corpus, augment, dfg, encode):
        for name in ("tokenize", "emit", "build_dfg", "content_hash"):
            if name in vars(module):
                monkeypatch.setattr(module, name, counting(name, vars(module)[name]))

    def no_snippet_parse(text):
        raise AssertionError("extraction re-parsed a snippet")

    monkeypatch.setattr(corpus, "parse_snippet", no_snippet_parse)
    return counts


@pytest.mark.parametrize("scope", [False, True])
def test_extraction_parses_once_and_tokenizes_once_per_loop(counted, scope):
    text = nested_loops_source(4) + gen_source_program(13)
    n_loops = sum(n.kind == "ForStmt" for n in iter_nodes(parse_source(text)[0]))
    assert n_loops == 6
    counted.update(dict.fromkeys(counted, 0))
    samples, rejects = extract_from_source(text, "t.c", scope)
    assert len(samples) + len(rejects) == n_loops and not rejects
    assert counted == {"parse": 1, "tokenize": 1 + n_loops, "emit": n_loops,
                       "build_dfg": n_loops, "content_hash": n_loops}
    counted.update(dict.fromkeys(counted, 0))
    predicted = extract_for_prediction(text, scope)
    assert len(predicted) == n_loops and all(p["sample"].id == "" for p in predicted)
    assert counted == {"parse": 1, "tokenize": 1, "emit": n_loops, "build_dfg": n_loops,
                       "content_hash": 0}


def test_rename_parses_once(counted):
    """A rename relabels: one parse, and no rendering, data flow or hash."""
    (sample,), _ = extract_from_source(nested_loops_source(1), "t.c", with_scope=True)
    counted.update(dict.fromkeys(counted, 0))
    renamed = rename_variables(sample, 1.0, seed=3)
    assert renamed.loop_code != sample.loop_code
    assert counted == {"parse": 1, "tokenize": 1, "emit": 0, "build_dfg": 0, "content_hash": 0}


def small_model(samples):
    vocab = build_vocabulary(samples, min_freq=1)
    config = ModelConfig(vocab_size=vocab.size, d_model=8, n_heads=2, n_layers=2, d_ff=16)
    return init_params(config), config, vocab


@pytest.mark.parametrize("scope", [False, True])
def test_prediction_tokenizes_only_the_file(counted, scope):
    """Every predicted loop is encoded from the lexemes its emit wrote."""
    text = nested_loops_source(4) + gen_source_program(13)
    params, config, vocab = small_model(extract_from_source(text, "t.c", scope)[0])
    counted.update(dict.fromkeys(counted, 0))
    assert len(predict_source(params, config, vocab, text, with_scope=scope)) == 6
    assert counted == {"parse": 1, "tokenize": 1, "emit": 6, "build_dfg": 6, "content_hash": 0}


@pytest.mark.parametrize("fraction", [0.0, 0.4])
def test_encoding_a_renamed_sample_tokenizes_only_in_the_rename(counted, fraction):
    """A sample read back from corpus.jsonl carries no lexemes; its rename
    hands over those of its one parse, with the new names written in."""
    (sample,), _ = extract_from_source(nested_loops_source(1), "t.c", with_scope=True)
    stored = Sample.from_json_dict(sample.to_json_dict())
    assert stored.lexemes is None
    vocab = build_vocabulary([stored], min_freq=1)
    counted.update(dict.fromkeys(counted, 0))
    renamed = rename_variables(stored, fraction, 3)
    assert (renamed.loop_code != stored.loop_code) == (fraction > 0)
    encode_sample(renamed, vocab)
    assert counted["tokenize"] == 1


@pytest.mark.parametrize("aug_mode,epochs,renaming_epochs", [
    ("curriculum", 4, 3), ("none", 4, 0), ("curriculum", 1, 0),
])
def test_training_runs_each_loops_front_end_once(counted, monkeypatch, aug_mode, epochs,
                                                 renaming_epochs):
    """A training whose epochs rename parses each train loop once, before
    epoch 1; the vocabulary, the base encodings and every renamed epoch
    tokenize nothing more, and each epoch relabels each train loop's
    encoding once. A training that never renames parses nothing and
    tokenizes each train loop once. Either way each valid loop is tokenized
    once, for its encoding, and no sample is rendered, given data flow or
    hashed."""
    samples = [Sample.from_json_dict(s.to_json_dict())
               for s in generate_synthetic_corpus(60, seed=4)]
    n_train = sum(s.split == "train" for s in samples)
    n_valid = sum(s.split == "valid" for s in samples)
    renames = []
    monkeypatch.setattr(model, "relabel_encoding",
                        lambda *args: renames.append(args[0]) or relabel_encoding(*args))
    counted.update(dict.fromkeys(counted, 0))
    model.train(samples, arch={"d_model": 8, "n_heads": 2, "n_layers": 1, "d_ff": 16},
                epochs=epochs, aug_mode=aug_mode, min_freq=1)
    assert counted == {"parse": n_train if renaming_epochs else 0,
                       "tokenize": n_train + n_valid, "emit": 0, "build_dfg": 0,
                       "content_hash": 0}
    assert len(renames) == renaming_epochs * n_train


def test_nested_duplicates_are_rejected_before_their_data_flow(counted):
    """A loop whose hash the file already holds is rejected after its emit:
    one data-flow build per kept sample."""
    loop = "for ({0} = 0; {0} < n; {0}++) {{\n{1}[{0}] = {1}[{0}] + 1.0;\n}}\n"
    text = ("void f(int n, double *a, double *b) {\nint i, j;\n" + loop.format("i", "a")
            + loop.format("j", "b") + loop.format("i", "b") + "}\n")
    counted.update(dict.fromkeys(counted, 0))
    samples, rejects = extract_from_source(text, "t.c", with_scope=True)
    assert len(samples) == 1
    assert [r.reason for r in rejects] == ["nested_duplicate"] * 2
    assert counted == {"parse": 1, "tokenize": 4, "emit": 3, "build_dfg": 1, "content_hash": 3}


# ---------------------------------------------------------------------------
# carried lexemes against re-tokenizing


def benchmark_trees(out):
    """The .c files of both benchmark workloads' trees at seed 1."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workload.py"
    spec = importlib.util.spec_from_file_location("perfbench_workload", path)
    workload = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workload)
    for name in ("short-curriculum", "long-scoped"):
        workload.generate(name, 1, out / name)
    return sorted(out.glob("**/*.c"))


@pytest.fixture(scope="module")
def tree_texts(tmp_path_factory):
    """(path, text) of each .c file of the fixtures and of both benchmark
    workloads' trees at seed 1."""
    paths = sorted((Path(__file__).parent / "fixtures").glob("**/*.c"))
    paths += benchmark_trees(tmp_path_factory.mktemp("trees"))
    return [(path, path.read_text(encoding="utf-8")) for path in paths]


def test_extracted_and_predicted_samples_carry_their_lexemes(tree_texts):
    """Over the fixtures and both benchmark trees, with and without scope."""
    n_samples = 0
    for path, text in tree_texts:
        for scope in (False, True):
            samples, _ = extract_from_source(text, str(path), scope)
            try:
                predicted = [info["sample"] for info in extract_for_prediction(text, scope)]
            except ParseError:
                predicted = []
            for sample in samples + predicted:
                assert_carries_its_lexemes(sample)
            n_samples += len(samples) + len(predicted)
    assert n_samples > 3000


def test_renamed_samples_carry_their_lexemes():
    """Over the synthetic corpus at three fractions, and for a call named
    like a renamed variable, which keeps its name in text and lexemes."""
    samples = generate_synthetic_corpus(2000)
    for fraction in (0.1, 0.4, 1.0):
        for sample in samples:
            assert_carries_its_lexemes(rename_variables(sample, fraction, 5))
    source = ("void f(int n, double *a, double x) {\nint i;\n"
              "for (i = 0; i < n; i++) {\na[i] = x + x(i);\n}\n}\n")
    (sample,), _ = extract_from_source(source, "t.c")
    renamed = rename_variables(sample, 1.0, 5)
    assert_carries_its_lexemes(renamed)
    assert "+ x(" in renamed.loop_code and renamed.lexemes.count("x") == 1


# ---------------------------------------------------------------------------
# a sample's data-flow nodes are its variable sites

# (n, seed) of every synthetic corpus the tests build
SYNTHETIC_CORPORA = [(10, 2), (12, 0), (12, 1), (20, 2), (20, 3), (30, 5), (30, 9), (40, 3),
                     (40, 31), (60, 4), (60, 17), (80, 5), (100, 123), (150, 21), (200, 0),
                     (200, 8), (400, 0), (2000, 0), (2000, 42)]


def assert_nodes_are_the_variable_sites(sample):
    """Renaming writes at the data-flow nodes' code slots: they are the
    first tokens of the sample's Identifier nodes, and each node's name is
    the lexeme at its slot."""
    snippet, tokens = parse_snippet(sample.source_text())
    nodes = sample.dfg["nodes"]
    assert {slot for _, slot in nodes} == {
        node.token_span[0] for node in iter_nodes(snippet) if node.kind == "Identifier"}
    assert [name for name, _ in nodes] == [tokens[slot].lexeme for _, slot in nodes]


@settings(max_examples=100, deadline=None)
@given(extraction_inputs)
def test_data_flow_nodes_are_the_variable_sites_of_extracted_samples(text):
    for scope in (False, True):
        for sample in extract_from_source(text, "t.c", scope)[0]:
            assert_nodes_are_the_variable_sites(sample)


def test_data_flow_nodes_are_the_variable_sites_of_every_corpus(tree_texts):
    """Every synthetic corpus the tests build, and the fixtures and both
    benchmark trees with and without scope."""
    samples = [s for n, seed in SYNTHETIC_CORPORA for s in generate_synthetic_corpus(n, seed)]
    for path, text in tree_texts:
        for scope in (False, True):
            samples += extract_from_source(text, str(path), scope)[0]
    for sample in samples:
        assert_nodes_are_the_variable_sites(sample)
    assert len(samples) > 8000


def test_encoding_is_the_same_with_and_without_carried_lexemes():
    samples = generate_synthetic_corpus(200) + extract_from_source(
        nested_loops_source(4) + gen_source_program(13), "t.c", True)[0]
    vocab = build_vocabulary(samples, min_freq=1)
    for sample in samples:
        stored = Sample.from_json_dict(sample.to_json_dict())
        assert sample.lexemes is not None and stored.lexemes is None
        for max_code in (8, 256):
            limited = replace(vocab, max_code=max_code, max_dfg=4)
            assert encode_sample(sample, limited) == encode_sample(stored, limited)
