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
from .syntax import AstNode, iter_nodes, parse_snippet, render

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


def _rename_tree(node, mapping):
    attrs = dict(node.attrs)
    if node.kind == "Identifier" and attrs["name"] in mapping:
        attrs["name"] = mapping[attrs["name"]]
    return AstNode(node.kind, [_rename_tree(c, mapping) for c in node.children],
                   node.token_span, attrs)


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

    renamed = _rename_tree(snippet, mapping)
    loop = renamed.children[-1]
    if loop.kind != "ForStmt":
        raise ValueError("sample snippet does not end with a for-loop")
    context = renamed.children[:-1]

    loop_code = render(loop)
    context_code = "\n".join(render(stmt) for stmt in context)
    pragma_raw = sample.pragma_raw
    if pragma_raw is not None:
        pragma_raw = _rename_pragma(pragma_raw, mapping)

    new_sample = replace(
        sample,
        id=content_hash(loop_code),
        loop_code=loop_code,
        context_code=context_code,
        pragma_raw=pragma_raw,
    )
    new_snippet, _ = parse_snippet(new_sample.source_text())
    new_sample.dfg = dfg_to_json(build_dfg(new_snippet))
    return new_sample
