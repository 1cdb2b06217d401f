"""Criterion 8 read over training seeds.

tests/test_acceptance.py::test_criterion_8_augmentation_direction trains one
`none` and one curriculum model at training seed 7 and compares their pragma
accuracy on renamed test loops. This script trains the same pair at each
given training seed (1-8 by default) on the same corpus, and prints one JSON
line per seed: each model's accuracy per label on the original and on the
renamed test loops, and the criterion's verdict. It imports only what the
acceptance test imports, so its seed-7 line holds the test's accuracies.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tools/criterion8_sweep.py [SEED ...]

Training is deterministic per machine and per BLAS thread count, so compare
lines taken at one thread count on one machine (CI runs one thread). A pair
of trainings takes under a minute on one core; split the seeds over
processes to use more cores.
"""

import json
import sys

from ompadvisor.augment import rename_variables
from ompadvisor.metrics import predict_rows
from ompadvisor.model import train
from ompadvisor.synthetic import generate_synthetic_corpus

LABELS = ("pragma", "private", "reduction")


def label_accuracies(result, samples):
    rows, _ = predict_rows(result.params, result.config, result.vocab, samples)
    return [sum(1 for r in rows if r[f"pred_{label}"] == r[f"label_{label}"]) / len(rows)
            for label in LABELS]


def sweep_line(seed, corpus, test, renamed):
    line = {"seed": seed}
    for mode in ("none", "curriculum"):
        result = train(corpus, epochs=10, aug_mode=mode, seed=seed)
        line[mode] = {"original": label_accuracies(result, test),
                      "renamed": label_accuracies(result, renamed)}
    none, curriculum = line["none"], line["curriculum"]
    line["criterion_8"] = (curriculum["renamed"][0] >= none["renamed"][0]
                           and none["renamed"][0] < none["original"][0])
    return line


def main(argv):
    seeds = [int(arg) for arg in argv] or list(range(1, 9))
    corpus = generate_synthetic_corpus(n=2000, seed=42)
    test = [s for s in corpus if s.split == "test"]
    renamed = [rename_variables(s, 1.0, seed=50000 + i) for i, s in enumerate(test)]
    for seed in seeds:
        print(json.dumps(sweep_line(seed, corpus, test, renamed)), flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
