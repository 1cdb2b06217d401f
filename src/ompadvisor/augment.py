"""Variable-renaming augmentation and its epoch-indexed curriculum schedule.

Epoch 1 trains on original data; each later epoch renames a growing fraction
of each sample's distinct variables (10% more per epoch, capped at 40%).
Renamed variables become `var<k>` with a fresh random index, applied
consistently across the loop, its context, its data-flow nodes and the
variables of its pragma line's clauses. A rename only relabels: new names
are written over the old ones where they stand, in the code and in the
pragma line alike, and the id and the data-flow edges stay as they are.

Renaming is two steps. find_names parses a sample's text once and keeps
what a rename reads of it as names and integers (NameSites); rename_variables
then draws a seeded mapping and writes it at those sites. train parses each
train loop once per run and relabels it per renaming epoch, and augment
parses each row once; a sample whose text does not parse stops either
before any renaming, with an error that names its id (find_corpus_names).
"""

import random
import sys
from array import array
from dataclasses import dataclass, replace

from .dfg import build_dfg  # noqa: F401 -- a traced binding in perfbench/spans.py
from .pragmas import parse_omp_pragma  # noqa: F401 -- a traced binding in perfbench/spans.py
from .pragmas import relabel_clause_variables
from .syntax import ParseError, iter_nodes, parse_snippet

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


@dataclass(frozen=True)
class NameSites:
    """What renaming reads of one parse of a sample's text: its lexemes
    (interned, so that a run holds one string per distinct lexeme), and
    each variable occurrence's token index, line and column as a flat array
    of triples, right to left; a variable's name is its token's lexeme.
    train keeps one per train loop for the whole run, so it holds integers
    and names, not tokens or syntax nodes."""
    lexemes: list
    sites: array


def find_names(sample):
    """The NameSites of sample's text: its one parse. Raises ParseError when
    the text does not parse, ValueError when it does not end with a
    for-loop."""
    snippet, tokens = parse_snippet(sample.source_text())
    if not snippet.children or snippet.children[-1].kind != "ForStmt":
        raise ValueError("sample snippet does not end with a for-loop")
    sites = array("i")
    for index in sorted((n.token_span[0] for n in iter_nodes(snippet)
                         if n.kind == "Identifier"), reverse=True):
        sites.extend((index, tokens[index].line, tokens[index].col))
    return NameSites([sys.intern(t.lexeme) for t in tokens], sites)


def find_corpus_names(samples):
    """find_names of each sample; a sample whose text does not parse, or
    does not end with a for-loop, raises ValueError naming its id and
    source path."""
    found = []
    for sample in samples:
        try:
            found.append(find_names(sample))
        except ParseError as err:
            raise ValueError(f"sample {sample.id} from {sample.path}: its code does not "
                             f"parse at {err}") from None
        except ValueError as err:
            raise ValueError(f"sample {sample.id} from {sample.path}: {err}") from None
    return found


def rename_variables(sample, fraction, seed, names=None):
    """Rename ⌊fraction·|V|⌋ of the sample's distinct variables to var<k>.

    names: the sample's NameSites (find_names, which runs here when none is
    given). Selection is a seeded shuffle of the sorted name list; indices
    are drawn in [0, 9999] and redrawn until no identifier of the sample,
    call names included, has the name. A rename is a relabeling: the new
    names are written over the old ones where they stand, in the text, the
    lexemes, the data-flow nodes and the pragma line's clause variables,
    and the id, the labels and the graph's edges are unchanged. fraction=0
    returns the sample as-is. Either way the result carries the lexemes.
    """
    names = find_names(sample) if names is None else names
    lexemes = names.lexemes
    sites = list(zip(*[iter(names.sites)] * 3))  # (token index, line, column)
    variables = sorted({lexemes[index] for index, _, _ in sites})
    count = int(fraction * len(variables))
    if count == 0:
        return replace(sample, lexemes=lexemes)

    rng = random.Random(seed)
    rng.shuffle(variables)
    chosen = variables[:count]

    # Of all tokens only an identifier can read var<k>, so the lexemes hold
    # every name a new one must avoid.
    taken = set(lexemes)
    mapping = {}
    for name in chosen:
        while True:
            candidate = f"var{rng.randint(0, 9999)}"
            if candidate not in taken:
                break
        taken.add(candidate)
        mapping[name] = candidate

    lexemes = list(lexemes)
    lines = sample.source_text().split("\n")
    for index, line, col in sites:  # right to left, so columns hold
        name = lexemes[index]
        if name in mapping:
            lexemes[index] = mapping[name]
            text = lines[line - 1]
            lines[line - 1] = text[:col - 1] + mapping[name] + text[col - 1 + len(name):]
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
