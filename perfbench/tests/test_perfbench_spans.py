"""Self-time arithmetic and the traced bindings of the span recorder."""

import pytest

import ompadvisor.corpus
import spans


def test_self_time_of_hand_built_tree():
    #   0: root      [0, 10]
    #   1: a         [1, 4]   child of 0
    #   2: a.inner   [2, 3]   child of 1
    #   3: b         [5, 9]   child of 0
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 9.0]
    parents = [-1, 0, 1, 0]
    assert spans.self_times(starts, ends, parents) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_overlapping_and_overhanging_children_count_once():
    # children [1, 4] and [3, 6] cover [1, 6]; a child running past its
    # parent's end only counts inside the parent
    starts = [0.0, 1.0, 3.0, 8.0]
    ends = [10.0, 4.0, 6.0, 12.0]
    parents = [-1, 0, 0, 0]
    assert spans.self_times(starts, ends, parents)[0] == pytest.approx(10.0 - 5.0 - 2.0)


def test_recorder_nests_spans_and_restores_bindings():
    original = ompadvisor.corpus.extract_from_source
    rec = spans.Recorder()
    source = "void f(int n) {\nint i;\nfor (i = 0; i < n; i++) {\na[i] = 1.0;\n}\n}\n"
    with spans.installed(rec):
        samples, _ = ompadvisor.corpus.extract_from_source(source, "f.c")
    assert ompadvisor.corpus.extract_from_source is original
    assert len(samples) == 1
    root = rec.names.index("corpus.extract")
    assert rec.parents[root] == -1
    children = {rec.names[i] for i, p in enumerate(rec.parents) if p == root}
    assert {"syntax.parse", "syntax.tokenize", "dfg.build"} <= children
    metrics = spans.layer_metrics(rec)
    assert metrics["corpus.extract.calls"] == (1, "count")
    assert metrics["corpus.extract.loops"] == (1, "count")
    assert metrics["syntax.tokenize.tokens"][0] > 0
    own = metrics["corpus.extract.self_s"][0]
    assert 0.0 <= own <= rec.ends[root] - rec.starts[root]
