"""Variable-renaming augmentation and its epoch-indexed curriculum schedule.

Epoch 1 trains on original data; each later epoch renames a growing fraction
of each sample's distinct variables (10% more per epoch, capped at 40%).
Renamed variables become `var<k>` with a fresh random index, applied
consistently across the loop, its context and any pragma clause arguments.
"""

import random
from dataclasses import replace

from .corpus import content_hash
from .dfg import build_dfg, dfg_to_json
from .pragmas import VAR_LIST_CLAUSES, parse_omp_pragma, render_omp_pragma
from .syntax import emit, iter_nodes, parse_snippet

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


def _variable_names(snippet):
    return sorted({n.attrs["name"] for n in iter_nodes(snippet) if n.kind == "Identifier"})


def _rename_pragma(raw, mapping):
    pragma = parse_omp_pragma(raw)
    touched = False
    for clause in pragma.clauses:
        if clause.name in VAR_LIST_CLAUSES or clause.name == "reduction":
            new_args = [mapping.get(a, a) for a in clause.args]
            if new_args != clause.args:
                clause.args = new_args
                touched = True
    return render_omp_pragma(pragma) if touched else raw


def rename_variables(sample, fraction, seed):
    """Rename ⌊fraction·|V|⌋ of the sample's distinct variables to var<k>.

    Selection is a seeded shuffle of the sorted name list; indices are drawn
    in [0, 9999] and redrawn until unique within the sample. Labels are
    unchanged and the DFG is rebuilt. fraction=0 returns the sample as-is.
    """
    snippet, _ = parse_snippet(sample.source_text())
    names = _variable_names(snippet)
    count = int(fraction * len(names))
    if count == 0:
        return replace(sample)

    rng = random.Random(seed)
    order = list(names)
    rng.shuffle(order)
    chosen = order[:count]

    taken = set(names)
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
    for node in iter_nodes(snippet):  # the snippet is this call's own parse
        if node.kind == "Identifier" and node.attrs["name"] in mapping:
            node.attrs["name"] = mapping[node.attrs["name"]]

    texts, slots, _ = emit(snippet.children)
    pragma_raw = sample.pragma_raw
    if pragma_raw is not None:
        pragma_raw = _rename_pragma(pragma_raw, mapping)

    return replace(
        sample,
        id=content_hash(texts[-1]),
        loop_code=texts[-1],
        context_code="\n".join(texts[:-1]),
        pragma_raw=pragma_raw,
        dfg=dfg_to_json(build_dfg(snippet, slots)),
    )
