import json
import shutil
from collections import Counter
from pathlib import Path

import pytest

from ompadvisor import corpus
from ompadvisor.augment import rename_variables
from ompadvisor.corpus import (
    LABELS, SAMPLE_KEYS, Reject, Sample, build_corpus, compute_stats, content_hash,
    deduplicate, extract_for_prediction, extract_from_source, extract_samples,
    split_corpus,
)
from ompadvisor.syntax import ParseError, tokenize

FIXTURES = Path(__file__).parent / "fixtures"
FIXTURE_FILES = sorted(FIXTURES.glob("corpus_c/*.c")) + sorted(FIXTURES.glob("benchmarks/**/*.c"))


def make_sample(i, **overrides):
    fields = dict(
        id=f"{i:016x}", path=f"p{i:02d}.c", loop_code=f"for (i = 0; i < {i}; i++) {{\nx = {i};\n}}",
        context_code="", pragma_raw=None, label_pragma=0, label_private=0,
        label_reduction=0, dfg={"nodes": [], "edges": []}, split="none", offset=i,
    )
    fields.update(overrides)
    return Sample(**fields)


# ---------------------------------------------------------------------------
# extraction and labels

def test_label_rules_on_fixture_files(fixture_corpus_dir):
    samples, _ = extract_samples(fixture_corpus_dir / "f01.c", rel_path="f01.c")
    assert [s.label_pragma for s in samples] == [1]
    assert samples[0].pragma_raw == "#pragma omp parallel for"

    samples, _ = extract_samples(fixture_corpus_dir / "f02.c", rel_path="f02.c")
    assert (samples[0].label_pragma, samples[0].label_private, samples[0].label_reduction) == (1, 0, 1)

    # outer annotated with private(j); inner nested loop is its own sample
    samples, _ = extract_samples(fixture_corpus_dir / "f03.c", rel_path="f03.c")
    assert len(samples) == 2
    assert (samples[0].label_pragma, samples[0].label_private) == (1, 1)
    assert (samples[1].label_pragma, samples[1].label_private) == (0, 0)


def test_sample_labels_are_the_label_fields_in_label_order():
    assert LABELS == ("pragma", "private", "reduction")
    assert SAMPLE_KEYS == ("id", "path", "loop_code", "context_code", "pragma_raw", "label_pragma",
                           "label_private", "label_reduction", "dfg", "split")
    sample = make_sample(1, label_pragma=1, label_private=0, label_reduction=1)
    assert sample.labels == (1, 0, 1)
    assert sample.labels == tuple(getattr(sample, f"label_{label}") for label in LABELS)


def test_firstprivate_does_not_set_private_label(fixture_corpus_dir):
    samples, _ = extract_samples(fixture_corpus_dir / "f12.c", rel_path="f12.c")
    assert (samples[0].label_pragma, samples[0].label_private) == (1, 0)


def test_orphaned_for_pragma_counts_positive(fixture_corpus_dir):
    samples, _ = extract_samples(fixture_corpus_dir / "f05.c", rel_path="f05.c")
    assert [s.label_pragma for s in samples] == [1, 0]
    samples, _ = extract_samples(fixture_corpus_dir / "f18.c", rel_path="f18.c")
    assert [s.label_pragma for s in samples] == [1]


def test_empty_loop_rejected():
    samples, rejects = extract_from_source(
        "void f(int n) { int i; for (i = 0; i < n; i++); }", "t.c")
    assert samples == []
    assert [(r.reason, r.line) for r in rejects] == [("empty_loop", 1)]


def test_blocking_pragma_inside_loop_rejected(fixture_corpus_dir):
    samples, rejects = extract_samples(fixture_corpus_dir / "f07.c", rel_path="f07.c")
    assert len(samples) == 1  # the clean loop survives
    assert [r.reason for r in rejects] == ["barrier_critical_atomic"]


PRAGMA_BODIES = {
    "for": ("void f(int n, double *a) {\nint i, j;\nfor (j = 0; j < n; j++)\n"
            "#pragma omp parallel for private(i)\n"
            "for (i = 0; i < n; i++) {\na[i] = a[i] + j;\n}\n}\n"),
    "if": ("void f(int n, int c, double *a) {\nint i;\nif (c)\n"
           "#pragma omp parallel for private(i)\nfor (i = 0; i < n; i++) {\na[i] = 0.0;\n}\n}\n"),
}


@pytest.mark.parametrize("shape", sorted(PRAGMA_BODIES))
def test_pragma_line_may_start_an_unbraced_body(shape):
    """An OpenMP loop used as an unbraced loop or branch body keeps its file
    and its labels; the loop around it is unannotated."""
    samples, rejects = extract_from_source(PRAGMA_BODIES[shape], "t.c", with_scope=True)
    assert rejects == []
    inner = samples[-1]
    assert inner.loop_code == "for (i = 0; i < n; i++) {\na[i] = " + (
        "a[i] + j;\n}" if shape == "for" else "0.0;\n}")
    assert (inner.pragma_raw, inner.label_pragma, inner.label_private) == (
        "#pragma omp parallel for private(i)", 1, 1)
    if shape == "for":
        outer = samples[0]
        assert outer.label_pragma == 0 and "#pragma" not in outer.loop_code


# Attachment rules: a loop's pragma is the line just before it in its block.
# Each case is a function body, the (pragma_raw, label_pragma) of each
# extracted loop in program order, and the reject reasons.
ATTACHMENT_CASES = {
    "parallel for before an unbraced nest": (
        "#pragma omp parallel for private(j)\nfor (i = 0; i < n; i++)\n"
        "for (j = 0; j < n; j++) a[i * n + j] = 0.0;\n",
        [("#pragma omp parallel for private(j)", 1), (None, 0)], []),
    "parallel for on an unbraced nested loop": (
        "for (j = 0; j < n; j++)\n#pragma omp parallel for\n"
        "for (i = 0; i < n; i++) a[i] = a[i] + j;\n",
        [(None, 0), ("#pragma omp parallel for", 1)], []),
    "parallel without for": (
        "#pragma omp parallel\nfor (i = 0; i < n; i++) a[i] = 1.0;\n",
        [(None, 0)], []),
    "unparsable clause": (
        "#pragma omp for reduction(\nfor (i = 0; i < n; i++) a[i] = 2.0;\n",
        [(None, 0)], []),
    "pragma on another statement": (
        "#pragma omp parallel for\nj = 0;\nfor (i = 0; i < n; i++) a[i] = 3.0;\n",
        [(None, 0)], []),
    "critical on the loop": (
        "#pragma omp critical\nfor (i = 0; i < n; i++) a[i] = 4.0;\n",
        [], ["barrier_critical_atomic"]),
}


@pytest.mark.parametrize("with_scope", [False, True], ids=["loop", "scoped"])
@pytest.mark.parametrize("case", sorted(ATTACHMENT_CASES))
def test_pragma_attachment_rules(case, with_scope):
    body, labels, reasons = ATTACHMENT_CASES[case]
    text = "void f(int n, double *a) {\nint i, j;\n" + body + "}\n"
    samples, rejects = extract_from_source(text, "t.c", with_scope=with_scope)
    assert [(s.pragma_raw, s.label_pragma) for s in samples] == labels
    assert [r.reason for r in rejects] == reasons


def test_each_attached_pragma_is_parsed_once(monkeypatch):
    """A file of k loops, each with an attached parallel for and no pragma
    inside, parses k pragma lines to extract and none to predict."""
    k = 5
    text = "void f(int n, double *a) {\nint i;\n" + "".join(
        f"#pragma omp parallel for\nfor (i = 0; i < n; i++) a[i] = {v}.0;\n"
        for v in range(k)) + "}\n"
    raws = []
    parse = corpus.parse_omp_pragma
    monkeypatch.setattr(corpus, "parse_omp_pragma", lambda raw: raws.append(raw) or parse(raw))
    samples, rejects = extract_from_source(text, "t.c")
    assert [s.label_pragma for s in samples] == [1] * k and rejects == []
    assert raws == ["#pragma omp parallel for"] * k
    raws.clear()
    assert len(extract_for_prediction(text)) == k
    assert raws == []


def test_parse_error_rejects_whole_file(fixture_corpus_dir):
    samples, rejects = extract_samples(fixture_corpus_dir / "f10.c", rel_path="f10.c")
    assert samples == []
    assert [r.reason for r in rejects] == ["parse_error"]


LATIN1_KERNEL = ("void f(int n, double *a) {\nint i;\n/* caf\xe9 */\n"
                 "for (i = 0; i < n; i++) {\na[i] = 0.0;\n}\n}\n").encode("latin-1")


def test_file_that_is_not_utf8_is_one_parse_error_reject(tmp_path, fixture_corpus_dir):
    """A latin-1 byte rejects its file at the byte's line; the build goes on
    and writes the same corpus as without that file."""
    tree = tmp_path / "tree"
    shutil.copytree(fixture_corpus_dir, tree)
    (tree / "latin1.c").write_bytes(LATIN1_KERNEL)
    assert extract_samples(tree / "latin1.c", rel_path="latin1.c") == (
        [], [Reject("latin1.c", 3, "parse_error")])
    samples, rejects, stats = build_corpus(tree, tmp_path / "out", seed=0)
    assert Reject("latin1.c", 3, "parse_error") in rejects
    assert stats["rejects"]["parse_error"] == 2
    build_corpus(fixture_corpus_dir, tmp_path / "plain", seed=0)
    assert (tmp_path / "out" / "corpus.jsonl").read_bytes() == \
        (tmp_path / "plain" / "corpus.jsonl").read_bytes()


@pytest.mark.parametrize("newline", [b"\r\n", b"\r"])
def test_extract_samples_reads_every_newline_as_open_does(tmp_path, newline):
    """Lines end at CR LF and at a lone CR as at LF, as in a file opened in
    text mode: the same samples, at the same lines."""
    text = (FIXTURES / "corpus_c" / "f01.c").read_text(encoding="utf-8")
    path = tmp_path / "f01.c"
    path.write_bytes(text.encode("utf-8").replace(b"\n", newline))
    assert extract_samples(path, with_scope=True, rel_path="f01.c") == \
        extract_from_source(text, "f01.c", with_scope=True)
    path.write_bytes(path.read_bytes() + b"/* \xff */" + newline)
    assert extract_samples(path, rel_path="f01.c")[1] == [
        Reject("f01.c", text.count("\n") + 1, "parse_error")]


def test_within_file_duplicate_rejected(fixture_corpus_dir):
    samples, rejects = extract_samples(fixture_corpus_dir / "f09.c", rel_path="f09.c")
    assert len(samples) == 1
    assert [r.reason for r in rejects] == ["nested_duplicate"]


def test_inner_pragmas_are_stripped_from_loop_code(fixture_corpus_dir):
    samples, _ = extract_samples(fixture_corpus_dir / "f19.c", rel_path="f19.c")
    outer = samples[0]
    assert "#pragma" not in outer.loop_code
    assert outer.label_pragma == 0  # the outer loop itself is unannotated


def test_context_extraction_with_scope(fixture_corpus_dir):
    samples, _ = extract_samples(fixture_corpus_dir / "f16.c", rel_path="f16.c",
                                 with_scope=True)
    context = samples[0].context_code.splitlines()
    assert context == [
        "int n;",
        "double *grid;",
        "double *next;",
        "int i;",
        "double scale;",
        "scale = w * 2.0;",
    ]
    assert samples[0].source_text().endswith(samples[0].loop_code)


def test_context_empty_without_scope(fixture_corpus_dir):
    samples, _ = extract_samples(fixture_corpus_dir / "f16.c", rel_path="f16.c")
    assert samples[0].context_code == ""
    assert samples[0].source_text() == samples[0].loop_code


@pytest.mark.parametrize("with_scope", [False, True], ids=["loop", "scoped"])
@pytest.mark.parametrize("path", FIXTURE_FILES,
                         ids=[str(p.relative_to(FIXTURES)) for p in FIXTURE_FILES])
def test_prediction_walk_matches_corpus_walk(path, with_scope):
    """Every loop the corpus keeps is the prediction entry at the same offset;
    the corpus rules only reject, label and dedup."""
    text = path.read_text(encoding="utf-8")
    samples, rejects = extract_from_source(text, path.name, with_scope)
    if [r.reason for r in rejects] == ["parse_error"]:
        with pytest.raises(ParseError):
            extract_for_prediction(text, with_scope)
        return
    entries = {e["sample"].offset: e for e in extract_for_prediction(text, with_scope)}
    assert len(entries) == len(samples) + len(rejects)
    tokens = tokenize(text)
    for sample in samples:
        entry = entries[sample.offset]
        predicted = entry["sample"]
        assert predicted.loop_code == sample.loop_code
        assert predicted.context_code == sample.context_code
        assert predicted.dfg == sample.dfg
        assert entry["line"] == tokens[sample.offset].line


def test_dfg_alignment_matches_sample_text(built_corpus):
    from ompadvisor.syntax import tokenize

    samples = built_corpus[0]
    for sample in samples:
        tokens = tokenize(sample.source_text())
        for name, tok_idx in sample.dfg["nodes"]:
            assert tokens[tok_idx].lexeme == name


# ---------------------------------------------------------------------------
# dedup

def test_dedup_identical_loops_across_files():
    a = make_sample(1, id="aaaa", path="a.c")
    b = make_sample(2, id="aaaa", path="b.c")
    kept = deduplicate([b, a])
    assert len(kept) == 1
    assert kept[0].path == "a.c"  # stable (path, offset) order


def test_dedup_is_rename_invariant(built_corpus):
    samples = built_corpus[0]
    sample = next(s for s in samples if s.label_pragma == 1)
    renamed = rename_variables(sample, 1.0, seed=9)
    assert renamed.id == sample.id
    assert len(deduplicate([sample, renamed])) == 1


def test_dedup_distinguishes_constants():
    h1 = content_hash("for (i = 0; i < 10; i++) {\na[i] = 0;\n}")
    h2 = content_hash("for (i = 0; i < 20; i++) {\na[i] = 0;\n}")
    assert h1 != h2


def test_dedup_idempotent(built_corpus):
    samples = built_corpus[0]
    once = deduplicate(samples)
    assert deduplicate(once) == once


# ---------------------------------------------------------------------------
# split

def test_split_ten_samples_exact():
    samples = [make_sample(i) for i in range(10)]
    split_corpus(samples, seed=7)
    counts = Counter(s.split for s in samples)
    assert counts == {"train": 8, "valid": 1, "test": 1}


def test_split_sizes_within_one_of_ratio():
    for n in (31, 100, 54663 // 50):
        samples = [make_sample(i) for i in range(n)]
        split_corpus(samples, seed=3)
        counts = Counter(s.split for s in samples)
        assert counts["valid"] == n // 10
        assert counts["test"] == n // 10
        assert counts["train"] == n - 2 * (n // 10)


def test_split_large_corpus_matches_floor_rule():
    n = 54663
    n_valid = n // 10
    assert (n - 2 * n_valid, n_valid, n_valid) == (43731, 5466, 5466)


def test_holdout_never_lands_in_train():
    for seed in range(12):
        samples = [make_sample(i) for i in range(30)]
        held = {samples[4].id, samples[17].id}
        split_corpus(samples, seed=seed, holdout_hashes=held)
        for s in samples:
            if s.id in held:
                assert s.split != "train"


def test_split_deterministic():
    a = [make_sample(i) for i in range(25)]
    b = [make_sample(i) for i in range(25)]
    split_corpus(a, seed=11)
    split_corpus(b, seed=11)
    assert [s.split for s in a] == [s.split for s in b]


# ---------------------------------------------------------------------------
# stats

def test_stats_consistency(built_corpus):
    samples, _, stats, _ = built_corpus
    lang = stats["languages"]["c"]
    assert lang["with_pragma"] + lang["without_pragma"] == stats["total"] == len(samples)
    assert sum(stats["length_buckets"].values()) == stats["total"]
    assert stats["clauses"]["private"] <= lang["with_pragma"]
    assert stats["clauses"]["reduction"] <= lang["with_pragma"]


def test_stats_length_buckets():
    short = make_sample(1, loop_code="\n".join(["x;"] * 10))
    mid = make_sample(2, loop_code="\n".join(["x;"] * 30))
    long_ = make_sample(3, loop_code="\n".join(["x;"] * 60))
    stats = compute_stats([short, mid, long_])
    assert stats["length_buckets"] == {"<=15": 1, "16-50": 1, ">50": 1}


# ---------------------------------------------------------------------------
# full build

def test_fixture_corpus_counts(built_corpus):
    samples, rejects, _, _ = built_corpus
    assert len(samples) == 31
    expected = {
        ("f06.c", "empty_loop"),
        ("f07.c", "barrier_critical_atomic"),
        ("f08.c", "barrier_critical_atomic"),
        ("f09.c", "nested_duplicate"),
        ("f10.c", "parse_error"),
    }
    assert {(r.path, r.reason) for r in rejects} == expected


def test_label_implication_on_every_sample(built_corpus):
    for s in built_corpus[0]:
        if s.label_private or s.label_reduction:
            assert s.label_pragma == 1
        assert (s.pragma_raw is None) == (s.label_pragma == 0)


def test_corpus_jsonl_schema(built_corpus):
    out_dir = built_corpus[3]
    with open(out_dir / "corpus.jsonl", encoding="utf-8") as fh:
        lines = [json.loads(line) for line in fh if line.strip()]
    assert len(lines) == 31
    for record in lines:
        assert tuple(record.keys()) == SAMPLE_KEYS
        assert set(record["dfg"].keys()) == {"nodes", "edges"}
        assert record["split"] in ("train", "valid", "test", "none")


def test_rejects_jsonl_schema(built_corpus):
    out_dir = built_corpus[3]
    with open(out_dir / "rejects.jsonl", encoding="utf-8") as fh:
        lines = [json.loads(line) for line in fh if line.strip()]
    assert len(lines) == 5
    for record in lines:
        assert set(record.keys()) == {"path", "line", "reason"}


def test_build_is_deterministic(tmp_path, fixture_corpus_dir):
    build_corpus(fixture_corpus_dir, tmp_path / "one", seed=5)
    build_corpus(fixture_corpus_dir, tmp_path / "two", seed=5)
    for name in ("corpus.jsonl", "rejects.jsonl", "stats.json"):
        assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()


def test_benchmark_holdout(tmp_path, fixture_corpus_dir, fixture_benchmarks_dir):
    samples, rejects, _ = build_corpus(
        fixture_corpus_dir, tmp_path, seed=0, benchmarks_dir=fixture_benchmarks_dir)
    bench_path = tmp_path / "benchmarks.jsonl"
    assert bench_path.exists()
    with open(bench_path, encoding="utf-8") as fh:
        bench = [json.loads(line) for line in fh if line.strip()]
    bench_ids = {b["id"] for b in bench}
    overlapping = [s for s in samples if s.id in bench_ids]
    assert overlapping, "fixture should overlap the benchmarks"
    for s in overlapping:
        assert s.split != "train"
