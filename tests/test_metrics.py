import pytest
from hypothesis import given
from hypothesis import strategies as st

from ompadvisor.metrics import (
    CSV_COLUMNS, Confusion, compute_metrics, confusions_from_rows, format_report,
    report_from_rows, rows_from_csv, rows_to_csv,
)

# (tp, fp, fn, tn) -> hand-computed (precision, recall, accuracy)
CONFUSION_FIXTURES = [
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


@pytest.mark.parametrize("cells,expected", CONFUSION_FIXTURES)
def test_compute_metrics_hand_fixtures(cells, expected):
    confusion = Confusion(*cells)
    precision, recall, accuracy = compute_metrics(confusion)
    assert precision == pytest.approx(expected[0], abs=1e-12)
    assert recall == pytest.approx(expected[1], abs=1e-12)
    assert accuracy == pytest.approx(expected[2], abs=1e-12)


def test_zero_total_raises():
    with pytest.raises(ValueError):
        compute_metrics(Confusion())


@given(st.tuples(*(st.integers(0, 50) for _ in range(4))),
       st.integers(min_value=1, max_value=9))
def test_metrics_scale_free(cells, k):
    if sum(cells) == 0:
        return
    base = compute_metrics(Confusion(*cells))
    scaled = compute_metrics(Confusion(*(c * k for c in cells)))
    assert scaled == pytest.approx(base, abs=1e-12)


def make_row(i, probs, labels):
    return {
        "id": f"{i:016x}",
        "p_pragma": probs[0], "p_private": probs[1], "p_reduction": probs[2],
        "label_pragma": labels[0], "label_private": labels[1], "label_reduction": labels[2],
        "pred_pragma": int(probs[0] >= 0.5),
        "pred_private": int(probs[1] >= 0.5),
        "pred_reduction": int(probs[2] >= 0.5),
    }


@pytest.fixture
def mixed_rows():
    return [
        make_row(0, (0.9, 0.8, 0.1), (1, 1, 0)),
        make_row(1, (0.2, 0.9, 0.7), (0, 0, 0)),   # gate zeroes both clause fps
        make_row(2, (0.6, 0.2, 0.9), (1, 0, 1)),
        make_row(3, (0.4, 0.6, 0.6), (1, 1, 1)),   # gate turns clause tps into fns
        make_row(4, (0.8, 0.1, 0.2), (1, 0, 0)),
        make_row(5, (0.1, 0.1, 0.1), (0, 0, 0)),
    ]


def test_gating_never_adds_false_positives(mixed_rows):
    raw = confusions_from_rows(mixed_rows, gated=False)
    gated = confusions_from_rows(mixed_rows, gated=True)
    for label in ("private", "reduction"):
        assert gated[label].fp <= raw[label].fp
    assert gated["pragma"].fp == raw["pragma"].fp


def test_gated_counts_on_fixture(mixed_rows):
    raw = confusions_from_rows(mixed_rows, gated=False)
    gated = confusions_from_rows(mixed_rows, gated=True)
    assert raw["private"].fp == 1  # row 1
    assert gated["private"].fp == 0
    assert gated["private"].fn == raw["private"].fn + 1  # row 3 suppressed
    assert raw["reduction"].fp == 1
    assert gated["reduction"].fp == 0


def test_perfect_predictions_reach_accuracy_one():
    rows = [
        make_row(i, tuple(0.9 if b else 0.1 for b in labels), labels)
        for i, labels in enumerate([(1, 0, 0), (0, 0, 0), (1, 1, 0), (1, 0, 1)])
    ]
    report = report_from_rows(rows)
    for label in ("pragma", "private", "reduction"):
        assert report["raw"][label]["accuracy"] == 1.0
        assert report["gated"][label]["accuracy"] == 1.0


def test_csv_round_trip_exact(mixed_rows):
    text = rows_to_csv(mixed_rows)
    back = rows_from_csv(text)
    assert back == mixed_rows
    assert report_from_rows(back) == report_from_rows(mixed_rows)


def test_csv_columns_are_the_per_sample_header():
    assert CSV_COLUMNS == (
        "id", "p_pragma", "p_private", "p_reduction",
        "label_pragma", "label_private", "label_reduction",
        "pred_pragma", "pred_private", "pred_reduction",
    )
    assert rows_to_csv([]) == ",".join(CSV_COLUMNS) + "\n"


def test_csv_round_trip_keeps_each_columns_type(mixed_rows):
    """The id stays a string, probabilities read back as floats and 0/1
    labels and predictions as ints (1 == 1.0, so equality cannot tell)."""
    for row in rows_from_csv(rows_to_csv(mixed_rows)):
        assert tuple(row) == CSV_COLUMNS
        for column, value in row.items():
            want = str if column == "id" else float if column.startswith("p_") else int
            assert type(value) is want, column


def test_csv_row_count(mixed_rows):
    text = rows_to_csv(mixed_rows)
    assert len(text.strip().splitlines()) == len(mixed_rows) + 1


def test_report_structure_and_reference_footer(mixed_rows):
    report = report_from_rows(mixed_rows)
    assert report["n"] == len(mixed_rows)
    for mode in ("raw", "gated"):
        block = report[mode]
        for label in ("pragma", "private", "reduction"):
            entry = block[label]
            assert set(entry) == {"precision", "recall", "accuracy", "tp", "fp", "fn", "tn"}
            assert entry["tp"] + entry["fp"] + entry["fn"] + entry["tn"] == report["n"]
        assert set(block["macro"]) == {"precision", "recall", "accuracy"}
    text = format_report(report)
    assert "P=0.849 R=0.848 Acc=0.872" in text
    assert "not asserted" in text


def test_empty_rows_raise():
    with pytest.raises(ValueError):
        report_from_rows([])


def test_grouped_report_for_benchmark_paths():
    from ompadvisor.encode import build_vocabulary
    from ompadvisor.metrics import evaluate
    from ompadvisor.model import ModelConfig, init_params
    from ompadvisor.synthetic import generate_synthetic_corpus

    samples = generate_synthetic_corpus(n=40, seed=31)
    groups = ("nas", "polybench", "spec")
    for i, s in enumerate(samples):
        s.path = f"{groups[i % 3]}/kernel{i}.c"
    vocab = build_vocabulary(samples, min_freq=1)
    config = ModelConfig(vocab_size=vocab.size, d_model=16, n_heads=2,
                         n_layers=1, d_ff=32, seed=0)
    params = init_params(config)
    report, rows, _ = evaluate(params, config, vocab, samples)
    assert set(report["groups"]) == set(groups)
    assert sum(g["n"] for g in report["groups"].values()) == len(samples)
    assert len(rows) == len(samples)
    text = format_report(report)
    assert "-- nas" in text
