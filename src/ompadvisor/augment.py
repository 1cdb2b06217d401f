"""Variable-renaming augmentation and its epoch-indexed curriculum schedule.

Epoch 1 trains on original data; each later epoch renames a growing fraction
of each sample's distinct variables (10% more per epoch, capped at 40%).
Renamed variables become `var<k>` with a fresh random index, applied
consistently across the loop, its context, its data-flow nodes and the
variables of its pragma line's clauses. A rename only relabels: new names
are written over the old ones where they stand, in the code and in the
pragma line alike, and the id and the data-flow edges stay as they are.
"""

import random
from dataclasses import replace

from .dfg import build_dfg  # noqa: F401 -- a traced binding in perfbench/spans.py
from .pragmas import parse_omp_pragma  # noqa: F401 -- a traced binding in perfbench/spans.py
from .pragmas import relabel_clause_variables
from .syntax import iter_nodes, parse_snippet

CURRICULUM_CAP = 0.4


def curriculum_ratio(epoch):
    """Fraction of variables to rename at a 1-based epoch: 0, .1, .2, .3,
    then .4 from epoch 5 onward."""
    if epoch < 1:
        raise ValueError(f"epoch must be >= 1, got {epoch}")
    return min(0.1 * (epoch - 1), CURRICULUM_CAP)


def fraction_for_mode(mode, epoch):
    if mode == "none":
        return 0.0
    if mode == "curriculum":
        return curriculum_ratio(epoch)
    if mode == "replaced":
        return 1.0
    raise ValueError(f"unknown augmentation mode: {mode!r}")


def rename_variables(sample, fraction, seed):
    """Rename ⌊fraction·|V|⌋ of the sample's distinct variables to var<k>.

    Selection is a seeded shuffle of the sorted name list; indices are drawn
    in [0, 9999] and redrawn until no identifier of the sample, call names
    included, has the name. A rename is a relabeling: the new names are
    written over the old ones' tokens in the text, the data-flow nodes and
    the pragma line's clause variables, and the id, the labels and the
    graph's edges are unchanged. fraction=0 returns the sample as-is. Either
    way the result carries this parse's lexemes.
    """
    snippet, tokens = parse_snippet(sample.source_text())
    idents = [n for n in iter_nodes(snippet) if n.kind == "Identifier"]
    names = sorted({n.attrs["name"] for n in idents})
    count = int(fraction * len(names))
    lexemes = [t.lexeme for t in tokens]
    if count == 0:
        return replace(sample, lexemes=lexemes)

    rng = random.Random(seed)
    order = list(names)
    rng.shuffle(order)
    chosen = order[:count]

    taken = {t.lexeme for t in tokens if t.kind == "identifier"}
    mapping = {}
    for name in chosen:
        while True:
            candidate = f"var{rng.randint(0, 9999)}"
            if candidate not in taken:
                break
        taken.add(candidate)
        mapping[name] = candidate

    if snippet.children[-1].kind != "ForStmt":
        raise ValueError("sample snippet does not end with a for-loop")
    lines = sample.source_text().split("\n")
    for node in sorted(idents, key=lambda n: n.token_span[0], reverse=True):
        if node.attrs["name"] in mapping:  # right to left, so columns hold
            tok = tokens[node.token_span[0]]
            lexemes[node.token_span[0]] = mapping[tok.lexeme]
            text = lines[tok.line - 1]
            lines[tok.line - 1] = (text[:tok.col - 1] + mapping[tok.lexeme]
                                   + text[tok.col - 1 + len(tok.lexeme):])
    n_context = sample.context_code.count("\n") + 1 if sample.context_code else 0
    return replace(
        sample,
        loop_code="\n".join(lines[n_context:]),
        context_code="\n".join(lines[:n_context]),
        pragma_raw=sample.pragma_raw and relabel_clause_variables(sample.pragma_raw, mapping),
        lexemes=lexemes,
        dfg=dict(sample.dfg, nodes=[[mapping.get(name, name), slot]
                                    for name, slot in sample.dfg["nodes"]]),
    )
