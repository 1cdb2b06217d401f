"""Variable-renaming augmentation and its epoch-indexed curriculum schedule.

Epoch 1 trains on original data; each later epoch renames a growing fraction
of each sample's distinct variables (10% more per epoch, capped at 40%) to
`var<k>` with a fresh random index, consistently across the loop, its
context, its data-flow nodes and its pragma line's clause variables. A
rename only relabels: the id and the data-flow edges stay as they are.

A sample's data-flow nodes, [name, code slot], are the one source of its
variable sites. find_names parses a sample once and checks what a rename
trusts of it (find_corpus_names names a sample that fails); draw_mapping
draws the new names, after check_free_names finds enough of them free;
rename_variables writes them at the node slots of the text (augment), and
encode.relabel_encoding at those of an encoding's ids (train's renaming
epochs).
"""

import random
from dataclasses import replace

from .corpus import naming
from .dfg import build_dfg  # noqa: F401 -- a traced binding in perfbench/spans.py
from .pragmas import parse_omp_pragma  # noqa: F401 -- a traced binding in perfbench/spans.py
from .pragmas import relabel_clause_variables
from .syntax import parse_snippet

CURRICULUM_CAP = 0.4
_NEW_NAMES = 10_000  # draw_mapping's new names: var0 ... var9999


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


def find_names(sample):
    """The tokens of sample's text, from its one parse. Raises ParseError
    when the text does not parse, ValueError when it does not end with a
    for-loop or a data-flow node's name is not the lexeme at its code slot."""
    snippet, tokens = parse_snippet(sample.source_text())
    if not snippet.children or snippet.children[-1].kind != "ForStmt":
        raise ValueError("sample snippet does not end with a for-loop")
    for k, (name, slot) in enumerate(sample.dfg["nodes"]):
        if slot >= len(tokens) or tokens[slot].lexeme != name:
            raise ValueError(f"its data-flow node {k} is not {name!r} at code token {slot} "
                             f"of {len(tokens)}")
    return tokens


def find_corpus_names(samples):
    """find_names of each sample, in turn; a sample that fails it raises
    ValueError naming its id and source path."""
    for sample in samples:
        with naming(sample):
            tokens = find_names(sample)
        yield tokens


def check_free_names(count, taken):
    """Raise ValueError when fewer than count of the names var0 ... var9999
    are free, that is, not in the set taken."""
    if count + len(taken) > _NEW_NAMES:  # so few may be free: count them
        free = sum(f"var{k}" not in taken for k in range(_NEW_NAMES))
        if free < count:
            raise ValueError(f"it renames {count} variables, but only {free} of the names "
                             f"var0 ... var{_NEW_NAMES - 1} are free")


def rename_count(variables, fraction):
    """⌊fraction·|V|⌋, how many of the distinct node names V a rename at
    fraction draws; it never falls as fraction grows."""
    return int(fraction * len(variables))


def draw_mapping(nodes, lexemes, fraction, seed):
    """The seeded {old: new} names that rename rename_count of the node
    names: a shuffle of the sorted names picks them, and var<k> redraws k
    in [0, 9999] while a lexeme (only an identifier can read var<k>) or an
    earlier new name reads it. Raises ValueError when fewer of those names
    are free than it must draw (check_free_names)."""
    variables = sorted({name for name, _ in nodes})
    count = rename_count(variables, fraction)
    if count == 0:
        return {}
    rng = random.Random(seed)
    rng.shuffle(variables)
    taken = set(lexemes)
    check_free_names(count, taken)
    mapping = {}
    for name in variables[:count]:
        while True:
            candidate = f"var{rng.randint(0, _NEW_NAMES - 1)}"
            if candidate not in taken:
                break
        taken.add(candidate)
        mapping[name] = candidate
    return mapping


def rename_variables(sample, fraction, seed, tokens=None):
    """The sample with draw_mapping's names written over the old ones at the
    data-flow nodes' code slots of its text and lexemes, in the nodes and at
    the pragma line's clause variables; id, labels and edges are unchanged.
    tokens: its find_names, made here if not given. The result carries the
    lexemes; at fraction 0 it is otherwise the sample as-is."""
    tokens = find_names(sample) if tokens is None else tokens
    lexemes = [t.lexeme for t in tokens]
    nodes = sample.dfg["nodes"]
    with naming(sample):
        mapping = draw_mapping(nodes, lexemes, fraction, seed)
    if not mapping:
        return replace(sample, lexemes=lexemes)

    lines = sample.source_text().split("\n")
    for slot in sorted({slot for _, slot in nodes}, reverse=True):  # right to left: columns hold
        token = tokens[slot]
        new = mapping.get(token.lexeme)
        if new is not None:
            lexemes[slot] = new
            line, col = token.line - 1, token.col - 1
            lines[line] = lines[line][:col] + new + lines[line][col + len(token.lexeme):]
    n_context = sample.context_code.count("\n") + 1 if sample.context_code else 0
    return replace(
        sample,
        loop_code="\n".join(lines[n_context:]),
        context_code="\n".join(lines[:n_context]),
        pragma_raw=sample.pragma_raw and relabel_clause_variables(sample.pragma_raw, mapping),
        lexemes=lexemes,
        dfg=dict(sample.dfg, nodes=[[mapping.get(name, name), slot] for name, slot in nodes]),
    )
