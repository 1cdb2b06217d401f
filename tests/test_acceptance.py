"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. The synthetic-corpus trainings are shared session
fixtures, so the whole suite stays within a desk-scale time budget.
"""

import json
import random
import time
from pathlib import Path

import numpy as np
import pytest

from ompadvisor.augment import curriculum_ratio, rename_variables
from ompadvisor.corpus import build_corpus
from ompadvisor.dfg import build_dfg
from ompadvisor.encode import MASK_NEG, build_attention_mask, build_vocabulary, encode_corpus
from ompadvisor.metrics import (
    Confusion, compute_metrics, report_from_rows, rows_from_csv, rows_to_csv,
)
from ompadvisor.model import check_gradients, masked_softmax, small_config, train
from ompadvisor.pragmas import REDUCTION_OPS, parse_omp_pragma
from ompadvisor.synthetic import generate_synthetic_corpus
from ompadvisor.syntax import iter_nodes, parse_snippet
from oracles import gen_straight_line_program, render_straight_line, straight_line_oracle

FIXTURES = Path(__file__).parent / "fixtures"


def report(num, ok, detail):
    marker = "PASS" if ok else "FAIL"
    print(f"\n[acceptance] criterion {num}: {marker}: {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="session")
def synthetic_corpus():
    return generate_synthetic_corpus(n=2000, seed=42)


@pytest.fixture(scope="session")
def trained_none(synthetic_corpus):
    start = time.monotonic()
    result = train(synthetic_corpus, epochs=10, aug_mode="none", seed=7)
    return result, time.monotonic() - start


@pytest.fixture(scope="session")
def trained_curriculum(synthetic_corpus):
    result = train(synthetic_corpus, epochs=10, aug_mode="curriculum", seed=7)
    return result, None


@pytest.fixture(scope="session")
def renamed_test_set(synthetic_corpus):
    test = [s for s in synthetic_corpus if s.split == "test"]
    return [rename_variables(s, 1.0, seed=50000 + i) for i, s in enumerate(test)]


def label_accuracies(result, samples):
    from ompadvisor.metrics import predict_rows

    rows, _ = predict_rows(result.params, result.config, result.vocab, samples)
    return tuple(
        sum(1 for r in rows if r[f"pred_{label}"] == r[f"label_{label}"]) / len(rows)
        for label in ("pragma", "private", "reduction")
    )


def test_criterion_1_synthetic_learnability(synthetic_corpus, trained_none):
    result, seconds = trained_none
    test = [s for s in synthetic_corpus if s.split == "test"]
    assert len(synthetic_corpus) == 2000
    assert len(test) == 200
    accs = label_accuracies(result, test)
    ok = all(a >= 0.90 for a in accs) and seconds < 300.0
    report(1, ok,
           f"held-out accuracy pragma={accs[0]:.3f} private={accs[1]:.3f} "
           f"reduction={accs[2]:.3f} (threshold 0.90 each), "
           f"10 epochs in {seconds:.0f}s (< 300s)")


def test_criterion_2_dfg_oracle_equivalence():
    mismatches = 0
    for seed in range(200):
        rng = random.Random(seed)
        stmts = gen_straight_line_program(rng)
        source = render_straight_line(stmts)
        expected_nodes, expected_edges = straight_line_oracle(stmts)
        snippet, _ = parse_snippet(source)
        g = build_dfg(snippet)
        got_nodes = [(n.var_name, n.occurrence_kind) for n in g.nodes]
        if got_nodes != expected_nodes or set(g.edges) != expected_edges:
            mismatches += 1
    report(2, mismatches == 0,
           f"{mismatches} mismatches over 200 random straight-line programs")


def test_criterion_3_gradient_verification():
    results = {}
    for mask_mode in ("open", "random"):
        err, _ = check_gradients(config=small_config(), seed=11, mask_mode=mask_mode)
        results[mask_mode] = err
    worst = max(results.values())
    report(3, worst < 1e-3,
           f"max relative error open={results['open']:.2e} "
           f"random={results['random']:.2e} (tolerance 1e-3, float64)")


def test_criterion_4_mask_properties(synthetic_corpus):
    samples = synthetic_corpus[:100]
    vocab = build_vocabulary(samples, min_freq=2)
    encodings, _ = encode_corpus(samples, vocab)
    rng = np.random.default_rng(4)
    failures = []
    for idx, enc in enumerate(encodings):
        mask = build_attention_mask([enc])[0]
        n_dfg = len(enc.dfg_alignment)
        n_code = enc.length - 2 - n_dfg
        sep = n_code + 1
        base = n_code + 2
        if not np.array_equal(mask, mask.T):
            failures.append((idx, "symmetry"))
        if not np.all(mask[: sep + 1, : sep + 1] == 0.0):
            failures.append((idx, "code block"))
        connected = {(t, f) for t, f in enc.edges} | {(f, t) for t, f in enc.edges}
        for i in range(n_dfg):
            for j in range(n_dfg):
                allowed = i == j or (i, j) in connected
                if (mask[base + i, base + j] == 0.0) != allowed:
                    failures.append((idx, "dfg block"))
        logits = rng.normal(0, 1, size=mask.shape).astype(np.float32) + mask
        weights = masked_softmax(logits)
        if not np.all(weights[mask != 0.0] == 0.0):
            failures.append((idx, "exact zeros"))
        if not np.allclose(weights.sum(axis=-1), 1.0, atol=1e-6):
            failures.append((idx, "row sums"))
    report(4, not failures,
           f"{len(failures)} violations over 100 encodings "
           "(symmetry, code block, dfg block, exact zeros, row sums ±1e-6)")


def test_criterion_5_curriculum_exactness(synthetic_corpus):
    expected_ratios = [0.0, 0.1, 0.2, 0.3, 0.4, 0.4, 0.4, 0.4]
    fixture = synthetic_corpus[:100]
    bad = 0
    for epoch in range(1, 9):
        ratio = curriculum_ratio(epoch)
        assert ratio == pytest.approx(expected_ratios[epoch - 1])
        for i, sample in enumerate(fixture):
            snippet, _ = parse_snippet(sample.source_text())
            names = {n.attrs["name"] for n in iter_nodes(snippet)
                     if n.kind == "Identifier"}
            renamed_sample = rename_variables(sample, ratio, seed=epoch * 1000 + i)
            new_snippet, _ = parse_snippet(renamed_sample.source_text())
            new_names = {n.attrs["name"] for n in iter_nodes(new_snippet)
                         if n.kind == "Identifier"}
            renamed = names - new_names
            if len(renamed) != int(ratio * len(names)):
                bad += 1
    report(5, bad == 0,
           f"{bad} samples off the ⌊ratio·|V|⌋ schedule across epochs 1-8 "
           "on a 100-sample fixture")


def test_criterion_6_corpus_determinism_and_rules(tmp_path):
    src = FIXTURES / "corpus_c"
    samples_a, rejects, _ = build_corpus(src, tmp_path / "a", seed=0)
    build_corpus(src, tmp_path / "b", seed=0)
    identical = (tmp_path / "a" / "corpus.jsonl").read_bytes() == \
        (tmp_path / "b" / "corpus.jsonl").read_bytes()

    expected_rejects = {
        ("f06.c", "empty_loop"),
        ("f07.c", "barrier_critical_atomic"),
        ("f08.c", "barrier_critical_atomic"),
        ("f09.c", "nested_duplicate"),
        ("f10.c", "parse_error"),
    }
    rejects_ok = {(r.path, r.reason) for r in rejects} == expected_rejects

    implication_ok = all(
        s.label_pragma == 1 for s in samples_a if s.label_private or s.label_reduction
    )

    n = len(samples_a)
    counts = {"train": 0, "valid": 0, "test": 0}
    for s in samples_a:
        counts[s.split] += 1
    split_ok = (
        abs(counts["train"] - 0.8 * n) <= 1
        and abs(counts["valid"] - 0.1 * n) <= 1
        and abs(counts["test"] - 0.1 * n) <= 1
    )
    ok = identical and rejects_ok and implication_ok and split_ok
    report(6, ok,
           f"byte-identical={identical}, rejects_ok={rejects_ok}, "
           f"implication_ok={implication_ok}, splits={counts} over {n} samples")


def test_criterion_7_pragma_parser_fixture(pragma_fixture_lines):
    assert len(pragma_fixture_lines) == 30
    errors = 0
    ops_seen = set()
    clauses_seen = set()
    for line in pragma_fixture_lines:
        try:
            pragma = parse_omp_pragma(line)
        except Exception:
            errors += 1
            continue
        clauses_seen.update(pragma.clauses)
    for op in REDUCTION_OPS:  # a fixture line reduces with each operator, and parses
        with_op = [line for line in pragma_fixture_lines if f"reduction({op}:" in line]
        if with_op and all(parse_omp_pragma(line).has_clause("reduction") for line in with_op):
            ops_seen.add(op)
    coverage_ok = (
        ops_seen == set(REDUCTION_OPS)
        and {"private", "firstprivate", "lastprivate", "shared", "reduction",
             "schedule", "collapse", "num_threads", "nowait"} <= clauses_seen
    )
    report(7, errors == 0 and coverage_ok,
           f"{30 - errors}/30 pragmas parsed, 10/10 reduction operators, "
           f"clause coverage ok={coverage_ok}")


def test_criterion_8_augmentation_direction(synthetic_corpus, trained_none,
                                            trained_curriculum, renamed_test_set):
    none_result, _ = trained_none
    curriculum_result, _ = trained_curriculum
    test = [s for s in synthetic_corpus if s.split == "test"]

    none_original = label_accuracies(none_result, test)[0]
    none_renamed = label_accuracies(none_result, renamed_test_set)[0]
    curriculum_renamed = label_accuracies(curriculum_result, renamed_test_set)[0]

    curriculum_holds = curriculum_renamed >= none_renamed
    degradation_holds = none_renamed < none_original
    report(8, curriculum_holds and degradation_holds,
           f"pragma accuracy: curriculum/renamed={curriculum_renamed:.3f} >= "
           f"none/renamed={none_renamed:.3f} is {curriculum_holds}; "
           f"none/renamed={none_renamed:.3f} < none/original={none_original:.3f} "
           f"is {degradation_holds}")


def test_criterion_9_metrics_arithmetic(synthetic_corpus, trained_none, tmp_path):
    fixtures = [
        ((3, 1, 1, 5), (0.75, 0.75, 0.8)),
        ((0, 0, 2, 8), (0.0, 0.0, 0.8)),
        ((10, 0, 0, 0), (1.0, 1.0, 1.0)),
        ((0, 0, 0, 10), (0.0, 0.0, 1.0)),
        ((5, 5, 5, 5), (0.5, 0.5, 0.5)),
        ((1, 0, 0, 0), (1.0, 1.0, 1.0)),
        ((0, 4, 0, 6), (0.0, 0.0, 0.6)),
        ((2, 3, 5, 0), (0.4, 2 / 7, 0.2)),
        ((7, 1, 2, 90), (0.875, 7 / 9, 0.97)),
        ((0, 0, 9, 1), (0.0, 0.0, 0.1)),
    ]
    arithmetic_ok = all(
        compute_metrics(Confusion(*cells)) == pytest.approx(expected, abs=1e-12)
        for cells, expected in fixtures
    )

    result, _ = trained_none
    from ompadvisor.metrics import predict_rows

    test = [s for s in synthetic_corpus if s.split == "test"]
    rows, _ = predict_rows(result.params, result.config, result.vocab, test)
    report_dict = report_from_rows(rows)
    (tmp_path / "per_sample.csv").write_text(rows_to_csv(rows))
    (tmp_path / "report.json").write_text(json.dumps(report_dict))

    recomputed = report_from_rows(rows_from_csv((tmp_path / "per_sample.csv").read_text()))
    stored = json.loads((tmp_path / "report.json").read_text())
    csv_ok = recomputed == stored and len(rows) == len(test)

    report(9, arithmetic_ok and csv_ok,
           f"10/10 confusion fixtures exact={arithmetic_ok}, "
           f"CSV-recomputed report identical={csv_ok}")
