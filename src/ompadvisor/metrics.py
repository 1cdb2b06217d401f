"""Per-label precision/recall/accuracy, evaluation reports and CSV export.

Probabilities come from model.forward_pass and gated predictions from
model.threshold_labels, the paths predict uses too.
"""

import csv
import io
from collections import Counter
from dataclasses import dataclass

from .corpus import LABELS
from .encode import encode_corpus
from .encode import pad_batch  # noqa: F401 -- a traced binding in perfbench/spans.py
from .model import forward_pass, threshold_labels
from .model import forward_batch  # noqa: F401 -- a traced binding in perfbench/spans.py

# Full-scale reference point shown in report footers for context; never
# asserted by any test.
REFERENCE_POINT = {"pragma": {"precision": 0.849, "recall": 0.848, "accuracy": 0.872}}

# Each column's kind is its name's prefix; rows_from_csv reads the column as that type.
_KIND_TYPES = {"id": str, "p": float, "label": int, "pred": int}
CSV_COLUMNS = ("id", *(f"{kind}_{label}" for kind in ("p", "label", "pred") for label in LABELS))


@dataclass
class Confusion:
    tp: int = 0
    fp: int = 0
    fn: int = 0
    tn: int = 0

    @property
    def total(self):
        return self.tp + self.fp + self.fn + self.tn


def compute_metrics(confusion):
    """(precision, recall, accuracy); zero denominators yield 0.0."""
    total = confusion.total
    if total == 0:
        raise ValueError("cannot compute metrics over zero samples")
    tp, fp, fn = confusion.tp, confusion.fp, confusion.fn
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    accuracy = (tp + confusion.tn) / total
    return precision, recall, accuracy


def _kind_values(row, kind):
    """A row's values of one column kind, in LABELS order."""
    return [row[f"{kind}_{label}"] for label in LABELS]


def confusions_from_rows(rows, gated):
    """Per-label confusion matrices from per-sample rows; gated applies
    threshold_labels' gate to the rows' 0.5-threshold predictions."""
    cells = {label: Counter() for label in LABELS}
    for row in rows:
        preds = threshold_labels(_kind_values(row, "pred"), gated)
        for label, pred, truth in zip(LABELS, preds, _kind_values(row, "label")):
            cells[label][pred, truth] += 1
    return {label: Confusion(tp=c[1, 1], fp=c[1, 0], fn=c[0, 1], tn=c[0, 0])
            for label, c in cells.items()}


def _metric_block(confusions):
    block = {}
    macro = {"precision": 0.0, "recall": 0.0, "accuracy": 0.0}
    for label in LABELS:
        c = confusions[label]
        precision, recall, accuracy = compute_metrics(c)
        block[label] = {
            "precision": precision, "recall": recall, "accuracy": accuracy,
            "tp": c.tp, "fp": c.fp, "fn": c.fn, "tn": c.tn,
        }
        macro["precision"] += precision / len(LABELS)
        macro["recall"] += recall / len(LABELS)
        macro["accuracy"] += accuracy / len(LABELS)
    block["macro"] = macro
    return block


def report_from_rows(rows):
    """The metrics report (raw and gated) recomputable from CSV rows alone."""
    if not rows:
        raise ValueError("cannot evaluate an empty sample list")
    return {
        "n": len(rows),
        "raw": _metric_block(confusions_from_rows(rows, gated=False)),
        "gated": _metric_block(confusions_from_rows(rows, gated=True)),
        "reference": REFERENCE_POINT,
    }


def predict_rows(params, config, vocab, samples):
    """Per-sample probabilities and 0.5-threshold predictions, in sample
    order, from one forward_pass; and the encoding's truncation stats."""
    encodings, stats = encode_corpus(samples, vocab)
    probs = forward_pass(params, config, encodings)
    rows = []
    for sample, p in zip(samples, probs.tolist()):
        values = (sample.id, *p, *sample.labels, *threshold_labels(p, gate=False))
        rows.append(dict(zip(CSV_COLUMNS, values)))
    return rows, stats


def evaluate(params, config, vocab, samples):
    """Evaluate samples: (report dict, per-sample rows, encoding stats). The
    report carries both raw and gated metrics; per-benchmark blocks are added
    when the samples span several top-level directories."""
    rows, stats = predict_rows(params, config, vocab, samples)
    report = report_from_rows(rows)

    groups = sorted({s.path.split("/", 1)[0] for s in samples})
    if len(groups) > 1:
        report["groups"] = {
            name: report_from_rows([row for row, s in zip(rows, samples)
                                    if s.path.split("/", 1)[0] == name])
            for name in groups
        }
    return report, rows, stats


# ---------------------------------------------------------------------------
# rendering

def rows_to_csv(rows):
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: repr(row[k]) if isinstance(row[k], float) else row[k]
                         for k in CSV_COLUMNS})
    return buf.getvalue()


def rows_from_csv(text):
    return [{column: _KIND_TYPES[column.split("_", 1)[0]](record[column])
             for column in CSV_COLUMNS}
            for record in csv.DictReader(io.StringIO(text))]


def _format_block(name, block, out):
    for label in LABELS + ("macro",):
        entry = block[label]
        line = (f"{name:<6} {label:<10} "
                f"P={entry['precision']:.3f} R={entry['recall']:.3f} "
                f"Acc={entry['accuracy']:.3f}")
        if label != "macro":
            line += (f"  tp={entry['tp']} fp={entry['fp']} "
                     f"fn={entry['fn']} tn={entry['tn']}")
        out.append(line)


def format_report(report):
    out = [f"samples: {report['n']}"]
    _format_block("raw", report["raw"], out)
    _format_block("gated", report["gated"], out)
    for name, block in report.get("groups", {}).items():
        out.append(f"-- {name} ({block['n']} samples)")
        _format_block("raw", block["raw"], out)
    ref = report["reference"]["pragma"]
    out.append(
        "reference full-scale run (context only, not asserted): pragma "
        f"P={ref['precision']:.3f} R={ref['recall']:.3f} Acc={ref['accuracy']:.3f}"
    )
    return "\n".join(out) + "\n"
