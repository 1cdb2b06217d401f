"""Synthetic labeled corpus with injected, learnable rules.

Each generated function holds one loop whose labels follow fixed rules:

* pragma=0 iff the loop carries a dependence: the written array is re-read at
  an offset index through a scalar carrier (`t = p[i - 1] ...; p[i] = t ...`).
* private=1 iff a temporary is declared inside the loop body.
* reduction=1 iff a scalar accumulates via a compound assignment.

Identifier names correlate with the loop flavor (dependent loops write
`p/q/r/h`-style state arrays, parallel loops write `a/b/c/o`-style output
arrays), mirroring how naming conventions track loop roles in real code. A
small "twin" subset repeats the carried-dependence token shape on a
read-only array, so the shape alone does not settle the pragma label there:
under full variable renaming the twins become indistinguishable from the
dependent form at the token level, which is what drives the degradation
direction the augmentation comparison looks for.

Labels come from the real extractor run over the generated source, so every
corpus invariant holds by construction.
"""

import random

from .corpus import extract_from_source, split_corpus

DEP_TARGETS = ("p", "q", "r", "h")
INDEP_TARGETS = ("a", "b", "c", "o")
OPERANDS = ("x", "y", "z", "g", "d")
INDICES = ("i", "j")
CARRIERS = ("t", "tmp", "aux")
ACCUMULATORS = ("s", "acc", "total")
TEMPS = ("t", "tmp", "loc")
FLOATS = ("2.0", "0.5", "3.0", "1.5", "4.0", "0.25", "8.0", "0.125")
OPS = ("+", "-", "*")

# combo -> weight per 100 generated samples
COMBO_PLAN = (
    ("dep", 30),
    ("indep_offset", 8),
    ("indep_plain", 22),
    ("private", 15),
    ("reduction", 15),
    ("both", 10),
)

EXPECTED_LABELS = {
    "dep": (0, 0, 0),
    "indep_plain": (1, 0, 0),
    "indep_offset": (1, 0, 0),
    "private": (1, 1, 0),
    "reduction": (1, 0, 1),
    "both": (1, 1, 1),
}


def _combo_sequence(n, rng):
    combos = []
    total_weight = sum(w for _, w in COMBO_PLAN)
    for name, weight in COMBO_PLAN:
        combos.extend([name] * (n * weight // total_weight))
    while len(combos) < n:
        combos.append("indep_plain")
    rng.shuffle(combos)
    return combos[:n]


def _bound(rng):
    return "n" if rng.random() < 0.5 else str(rng.randint(8, 512))


def _carried_pair(rng, dependent):
    """Two-statement body: offset read through a scalar carrier, then a
    write. When `dependent`, the offset read hits the written array itself;
    the twin flavor reads an unrelated array and keeps the token shape."""
    if dependent:
        x = rng.choice(DEP_TARGETS)
        read = x
    else:
        x = rng.choice(INDEP_TARGETS)
        read = rng.choice(OPERANDS)
    y = rng.choice([m for m in OPERANDS if m != read])
    t = rng.choice(CARRIERS)
    i = rng.choice(INDICES)
    off = rng.randint(1, 2)
    op1, op2 = rng.choice(OPS), rng.choice(OPS)
    body = [
        f"{t} = {read}[{i} - {off}] {op1} {rng.choice(FLOATS)};",
        f"{x}[{i}] = {t} {op2} {y}[{i}];",
    ]
    decls = [f"double {t};"]
    return i, body, decls, ""


def _elementwise(rng):
    x = rng.choice(INDEP_TARGETS)
    y, z = rng.sample(OPERANDS, 2)
    i = rng.choice(INDICES)
    op = rng.choice(OPS)
    rhs = rng.choice([
        f"{y}[{i}] {op} {z}[{i}]",
        f"{rng.choice(FLOATS)} {op} {y}[{i}]",
        f"{y}[{i}] {op} {rng.choice(FLOATS)}",
    ])
    body = [f"{x}[{i}] = {rhs};"]
    if rng.random() < 0.4:
        w = rng.choice([m for m in INDEP_TARGETS if m != x])
        body.append(f"{w}[{i}] = {y}[{i}] {rng.choice(OPS)} {rng.choice(FLOATS)};")
    return i, body, [], ""


def _private_body(rng):
    x = rng.choice(INDEP_TARGETS)
    y, z = rng.sample(OPERANDS, 2)
    i = rng.choice(INDICES)
    t = rng.choice(TEMPS)
    op1, op2 = rng.choice(OPS), rng.choice(OPS)
    body = [
        f"double {t} = {y}[{i}] {op1} {rng.choice(FLOATS)};",
        f"{x}[{i}] = {t} {op2} {z}[{i}];",
    ]
    return i, body, [], f" private({t})"


def _reduction_body(rng):
    x, y = rng.sample(OPERANDS, 2)
    i = rng.choice(INDICES)
    s = rng.choice(ACCUMULATORS)
    rhs = rng.choice([
        f"{x}[{i}]",
        f"{x}[{i}] * {y}[{i}]",
        f"{x}[{i}] {rng.choice(OPS)} {rng.choice(FLOATS)}",
    ])
    body = [f"{s} += {rhs};"]
    decls = [f"double {s} = 0.0;"]
    return i, body, decls, f" reduction(+:{s})"


def _both_body(rng):
    x, y = rng.sample(OPERANDS, 2)
    i = rng.choice(INDICES)
    t = rng.choice(TEMPS)
    s = rng.choice(ACCUMULATORS)
    op = rng.choice(OPS)
    body = [
        f"double {t} = {x}[{i}] {op} {rng.choice(FLOATS)};",
        f"{s} += {t} {rng.choice(OPS)} {y}[{i}];",
    ]
    decls = [f"double {s} = 0.0;"]
    return i, body, decls, f" private({t}) reduction(+:{s})"


def generate_source(combo, rng):
    """One C function around one loop of the given flavor."""
    if combo == "dep":
        i, body, decls, clauses = _carried_pair(rng, dependent=True)
    elif combo == "indep_offset":
        i, body, decls, clauses = _carried_pair(rng, dependent=False)
    elif combo == "indep_plain":
        i, body, decls, clauses = _elementwise(rng)
    elif combo == "private":
        i, body, decls, clauses = _private_body(rng)
    elif combo == "reduction":
        i, body, decls, clauses = _reduction_body(rng)
    elif combo == "both":
        i, body, decls, clauses = _both_body(rng)
    else:
        raise ValueError(f"unknown combo {combo!r}")

    labels = EXPECTED_LABELS[combo]
    lines = ["void kernel(int n) {", f"int {i};"]
    lines.extend(decls)
    if labels[0] == 1:
        directive = "parallel for" if rng.random() < 0.9 else "for"
        lines.append(f"#pragma omp {directive}{clauses}")
    body_text = "\n".join(body)
    lines.append(f"for ({i} = 0; {i} < {_bound(rng)}; {i}++) {{\n{body_text}\n}}")
    lines.append("}")
    return "\n".join(lines)


def generate_synthetic_corpus(n=2000, seed=0, split_seed=None):
    """n unique labeled samples with an 80/10/10 split assigned."""
    rng = random.Random(seed)
    combos = _combo_sequence(n, rng)
    samples = []
    seen = set()
    attempts = 0
    idx = 0
    while len(samples) < n:
        attempts += 1
        if attempts > 80 * n:
            raise RuntimeError("synthetic generator ran out of variety")
        combo = combos[min(idx, n - 1)]
        source = generate_source(combo, rng)
        extracted, rejects = extract_from_source(source, f"synthetic/{combo}.c")
        if rejects or len(extracted) != 1:
            continue
        sample = extracted[0]
        want, got = EXPECTED_LABELS[combo], sample.labels
        if got != want:
            raise AssertionError(f"synthetic {combo} produced labels {got}, wanted {want}")
        if sample.id in seen:
            continue
        seen.add(sample.id)
        samples.append(sample)
        idx += 1
    split_corpus(samples, seed if split_seed is None else split_seed)
    return samples
