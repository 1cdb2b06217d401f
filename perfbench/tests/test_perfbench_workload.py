"""The workload generator is deterministic per seed and agrees with its own
answer key when the real extractor reads the tree. Run with
`python3 -m pytest perfbench/tests`."""

import pytest

import workload
from checks import check_build
from ompadvisor.corpus import build_corpus, extract_for_prediction


@pytest.fixture(autouse=True)
def tiny_sizes(monkeypatch):
    monkeypatch.setattr(workload, "SIZES", {"short-curriculum": 40, "long-scoped": 90})
    monkeypatch.setattr(workload, "BENCH_FILES", 2)


def _tree_bytes(root):
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("name", workload.WORKLOADS)
def test_same_seed_same_tree(tmp_path, name):
    key_a = workload.generate(name, 7, tmp_path / "a")
    key_b = workload.generate(name, 7, tmp_path / "b")
    assert key_a == key_b
    assert _tree_bytes(tmp_path / "a") == _tree_bytes(tmp_path / "b")
    workload.generate(name, 8, tmp_path / "c")
    assert _tree_bytes(tmp_path / "a") != _tree_bytes(tmp_path / "c")


@pytest.mark.parametrize("name", workload.WORKLOADS)
def test_extractor_agrees_with_answer_key(tmp_path, name):
    key = workload.generate(name, 3, tmp_path / "gen")
    long = name == "long-scoped"
    build_corpus(tmp_path / "gen" / "tree", tmp_path / "corpus", with_scope=long,
                 benchmarks_dir=tmp_path / "gen" / "bench" if long else None, seed=3)
    assert check_build(tmp_path / "corpus", key) == []

    for rel, info in key["dirs"]["tree"]["files"].items():
        text = (tmp_path / "gen" / "tree" / rel).read_text(encoding="utf-8")
        if info["parses"]:
            lines = [loop["line"] for loop in extract_for_prediction(text, long)]
            assert lines == info["loop_lines"], rel


def test_long_tree_injects_every_reject_reason(tmp_path):
    key = workload.generate("long-scoped", 5, tmp_path)
    counts = key["dirs"]["tree"]["reject_counts"]
    assert set(counts) == {"parse_error", "empty_loop", "barrier_critical_atomic",
                           "nested_duplicate"}
    assert key["holdout_samples"] > 0


def test_short_tree_has_no_rejects_or_duplicates(tmp_path):
    key = workload.generate("short-curriculum", 5, tmp_path)
    tree = key["dirs"]["tree"]
    assert tree["rejects"] == []
    assert len(tree["samples"]) == workload.SIZES["short-curriculum"]


def test_loop_key_ignores_names_and_pragmas():
    a = "for (i = 0; i < n; i++) {\n#pragma omp atomic\ns += x[i];\n}"
    b = workload.rename_identifiers(a, "w_")
    assert "w_s += w_x[w_i]" in b
    assert workload.loop_key(a) == workload.loop_key(b)
    assert workload.loop_key(a) != workload.loop_key(a.replace("s +=", "s -="))
