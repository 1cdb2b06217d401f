"""Seeded C-tree generator for the two benchmark workloads, with an answer key.

The loops come from `ompadvisor.synthetic.generate_source` (the six loop
shapes of the acceptance suite). Labels in the answer key come from the
pragmas this module writes, never from the program under test; the program
only ever sees the generated `.c` files.

Workloads:

* ``short-curriculum``: files of one to four single-loop kernels. No
  injected rejects, no duplicates, no holdout.
* ``long-scoped``: files of two functions, an outer loop nest wrapping 2-7
  generated inner loops and one single-loop function or injected input,
  plus a ``bench/`` holdout directory
  and injected inputs that take build-corpus's other paths: unparsable
  files, empty loops, loops holding ``critical``/``atomic``/``barrier``,
  within-file duplicates and renamed twins across files.

Run as a script, from the root of a checkout, to write a tree:
``PYTHONPATH=src python3 perfbench/workload.py long-scoped 3 out/``.
"""

import json
import random
import re
import sys
from pathlib import Path

from ompadvisor.synthetic import COMBO_PLAN, EXPECTED_LABELS, generate_source

WORKLOADS = ("short-curriculum", "long-scoped")

# Loops per tree. Sized so one pipeline round of either workload fits a
# 2-core machine in well under a minute.
SIZES = {"short-curriculum": 800, "long-scoped": 560}
BENCH_FILES = 6

_C_KEYWORDS = frozenset({
    "for", "while", "if", "else", "return", "int", "double", "float", "void",
    "char", "long", "short", "unsigned", "const",
})
_TOKEN_RE = re.compile(
    r"[A-Za-z_]\w*|\d+\.\d*|\d+|\+\+|--|[-+*/]=|[<>=!]=|&&|\|\||\S")
_IDENT_RE = re.compile(r"[A-Za-z_]\w*")

_COMBOS = [name for name, _ in COMBO_PLAN]
_WEIGHTS = [weight for _, weight in COMBO_PLAN]


def loop_key(loop_text):
    """Rename-invariant identity of a loop: its tokens with identifiers
    rewritten to v0, v1, ... by first use. Two generated loops with equal
    keys are duplicates to a rename-invariant dedup."""
    mapping = {}
    out = []
    code = "\n".join(line for line in loop_text.split("\n")
                     if not line.lstrip().startswith("#"))
    for tok in _TOKEN_RE.findall(code):
        if _IDENT_RE.fullmatch(tok) and tok not in _C_KEYWORDS:
            tok = mapping.setdefault(tok, f"v{len(mapping)}")
        out.append(tok)
    return " ".join(out)


def rename_identifiers(text, prefix):
    """Consistently rename every identifier (pragma clause arguments too) by
    prefixing it; keywords and pragma words stay."""
    def sub(match):
        tok = match.group(0)
        return tok if tok in _C_KEYWORDS else prefix + tok
    out = []
    for line in text.split("\n"):
        if line.lstrip().startswith("#pragma omp"):
            head, _, clauses = line.partition(" for")
            line = head + " for" + re.sub(r"(?<=[(,:])\s*([A-Za-z_]\w*)",
                                          lambda m: prefix + m.group(1), clauses)
        else:
            line = _IDENT_RE.sub(sub, line)
        out.append(line)
    return "\n".join(out)


class _Kernel:
    """One generated loop split into its parts."""

    def __init__(self, combo, rng):
        lines = generate_source(combo, rng).split("\n")
        for_at = next(i for i, line in enumerate(lines) if line.startswith("for ("))
        has_pragma = lines[for_at - 1].startswith("#pragma")
        self.index_decl = lines[1]  # "int i;" or "int j;"
        self.decls = lines[2 : for_at - 1 if has_pragma else for_at]
        self.pragma = lines[for_at - 1] if has_pragma else None
        self.loop = lines[for_at:-1]
        self.labels = list(EXPECTED_LABELS[combo])

    def key(self):
        return loop_key("\n".join(self.loop))

    def block(self):
        """Declarations, pragma and loop, ready to place in a body."""
        return self.decls + ([self.pragma] if self.pragma else []) + self.loop


class _Tree:
    """Collects files and per-loop expectations while a tree is generated."""

    def __init__(self, rng):
        self.rng = rng
        self.keys = set()
        self.files = {}  # rel path -> (text, [loop expectations], parses)

    def fresh_kernel(self):
        """A kernel whose loop key is new to the whole tree."""
        while True:
            kernel = _Kernel(self.rng.choices(_COMBOS, _WEIGHTS)[0], self.rng)
            key = kernel.key()
            if key not in self.keys:
                self.keys.add(key)
                return kernel

    def add_file(self, rel, funcs, parses=True):
        """funcs: list of (lines, [loop expectation per `for` line in order]);
        a file that does not parse carries no loop expectations."""
        lines, loops = [], []
        for func_lines, func_loops in funcs:
            start = len(lines)
            lines.extend(func_lines)
            lines.append("")
            for_lines = [start + i + 1 for i, line in enumerate(func_lines)
                         if line.lstrip().startswith("for (")]
            if parses and len(for_lines) != len(func_loops):
                raise AssertionError(f"{rel}: {len(for_lines)} loops written, "
                                     f"{len(func_loops)} expected")
            for line_no, loop in zip(for_lines, func_loops):
                loops.append(dict(loop, line=line_no))
        self.files[rel] = ("\n".join(lines), loops, parses)


def _sample(labels, key):
    return {"outcome": "sample", "labels": list(labels), "key": key}


def _reject(reason):
    return {"outcome": reason}


def _kernel_function(name, kernel):
    lines = [f"void {name}(int n) {{", kernel.index_decl] + kernel.block() + ["}"]
    return lines, [_sample(kernel.labels, kernel.key())]


# File shapes (kernels per file, inner loops per nest) cycle with the file
# number rather than being drawn, so every seed gives the same mix of sizes
# and only the loop contents change.
def _short_tree(rng, n_loops):
    tree = _Tree(rng)
    written = 0
    file_no = 0
    while written < n_loops:
        count = min(1 + file_no % 4, n_loops - written)
        funcs = [_kernel_function(f"kernel_{file_no}_{k}", tree.fresh_kernel())
                 for k in range(count)]
        tree.add_file(f"proj{file_no % 4}/k{file_no:04d}.c", funcs)
        written += count
        file_no += 1
    return tree


def _nest_function(name, inners):
    """An outer k-loop wrapping the inner kernels. The outer loop carries a
    plain `parallel for` exactly when none of its inner loops is dependent."""
    outer_parallel = all(kernel.labels[0] == 1 for kernel in inners)
    body = []
    for kernel in inners:
        body.extend(kernel.block())
    outer = [f"for (k = 0; k < m; k++) {{"] + body + ["}"]
    lines = [f"void {name}(int n, int m) {{", "int i;", "int j;", "int k;"]
    if outer_parallel:
        lines.append("#pragma omp parallel for private(i, j)")
    lines += outer + ["}"]
    outer_labels = (1, 1, 0) if outer_parallel else (0, 0, 0)
    loops = [_sample(outer_labels, loop_key("\n".join(outer)))]
    loops += [_sample(kernel.labels, kernel.key()) for kernel in inners]
    return lines, loops


_BLOCKING_BODIES = (
    ["#pragma omp critical", "{", "s += x[i];", "}"],
    ["#pragma omp atomic", "s += x[i];"],
    ["#pragma omp barrier", "s += x[i];"],
)


def _blocking_function(name, rng):
    body = rng.choice(_BLOCKING_BODIES)
    lines = [f"void {name}(int n) {{", "int i;", "double s = 0.0;",
             f"for (i = 0; i < {rng.randint(8, 512)}; i++) {{"] + body + ["}", "}"]
    return lines, [_reject("barrier_critical_atomic")]


def _empty_function(name, rng):
    bound = rng.randint(8, 512)
    loop = rng.choice([f"for (i = 0; i < {bound}; i++) {{ }}",
                       f"for (i = 0; i < {bound}; i++);"])
    return [f"void {name}(int n) {{", "int i;", loop, "}"], [_reject("empty_loop")]


def _twin_function(name, kernel, prefix):
    """The kernel with every identifier renamed: a rename-invariant
    duplicate of it."""
    text = "\n".join([kernel.index_decl] + kernel.block())
    lines = [f"void {name}(int n) {{"] + rename_identifiers(text, prefix).split("\n") + ["}"]
    return lines, [_sample(kernel.labels, kernel.key())]


def _duplicate_function(name, tree):
    """Two loops in one function, the second a renamed copy of the first:
    the second is a within-file (nested_duplicate) reject."""
    kernel = tree.fresh_kernel()
    twin, _ = _twin_function(name, kernel, "w_")
    lines = [f"void {name}(int n) {{", kernel.index_decl] + kernel.block() + twin[2:-1] + ["}"]
    return lines, [_sample(kernel.labels, kernel.key())] * 2


def _broken_function(name, rng):
    """Missing semicolon after the loop statement: a parse error."""
    return [f"void {name}(int n) {{", "int i;",
            f"for (i = 0; i < {rng.randint(8, 512)}; i++) {{", "a[i] = 1.0", "}", "}"], []


# The second function of each long-scoped file, by file number: every kind
# of injected input recurs at a fixed rate (a twin always has an earlier
# solo kernel to copy).
_EXTRAS = ("solo", "blocking", "solo", "twin", "empty", "solo", "dup", "twin",
           "solo", "solo")


def _long_tree(rng, n_loops):
    tree = _Tree(rng)
    singles = []  # single-loop kernels eligible for renamed twins
    written = 0
    file_no = 0
    while written < n_loops:
        inners = [tree.fresh_kernel() for _ in range(2 + file_no % 6)]
        funcs = [_nest_function(f"nest_{file_no}", inners)]
        written += 1 + len(inners)
        extra = _EXTRAS[file_no % len(_EXTRAS)]
        if extra == "blocking":
            funcs.append(_blocking_function(f"locked_{file_no}", rng))
        elif extra == "empty":
            funcs.append(_empty_function(f"idle_{file_no}", rng))
        elif extra == "dup":
            funcs.append(_duplicate_function(f"dup_{file_no}", tree))
            written += 1
        elif extra == "twin":
            funcs.append(_twin_function(f"twin_{file_no}", rng.choice(singles), "w_"))
        else:
            kernel = tree.fresh_kernel()
            singles.append(kernel)
            funcs.append(_kernel_function(f"solo_{file_no}", kernel))
            written += 1
        rng.shuffle(funcs)
        tree.add_file(f"proj{file_no % 4}/m{file_no:04d}.c", funcs)
        file_no += 1
    for b in range(2):
        tree.add_file(f"proj{b}/broken{b}.c", [_broken_function(f"broken_{b}", rng)],
                      parses=False)

    # Holdout directory: renamed twins of tree kernels (held out of train)
    # and fresh kernels of its own.
    bench = _Tree(rng)
    bench.keys = tree.keys
    for b in range(BENCH_FILES):
        funcs = []
        for k in range(3):
            if k % 2 == 0 and singles:
                funcs.append(_twin_function(f"bench_{b}_{k}", rng.choice(singles), "b_"))
            else:
                funcs.append(_kernel_function(f"bench_{b}_{k}", bench.fresh_kernel()))
        bench.add_file(f"suite/bench{b}.c", funcs)
    return tree, bench


def _expected_samples(files):
    """The samples build-corpus should keep, in (path, source) order, and the
    rejects it should record: a repeated key within one file is a
    nested_duplicate reject; across files the first in path order is kept
    and later ones are dropped without a record."""
    kept, rejects, seen = [], [], set()
    for rel in sorted(files):
        _, loops, parses = files[rel]
        if not parses:
            rejects.append({"path": rel, "line": None, "reason": "parse_error"})
            continue
        in_file = set()
        for loop in loops:
            reason = loop["outcome"]
            if reason == "sample" and loop["key"] in in_file:
                reason = "nested_duplicate"
            if reason != "sample":
                rejects.append({"path": rel, "line": loop["line"], "reason": reason})
                continue
            in_file.add(loop["key"])
            if loop["key"] not in seen:
                seen.add(loop["key"])
                kept.append({"path": rel, "line": loop["line"], "labels": loop["labels"],
                             "key": loop["key"]})
    return kept, rejects


def generate(workload, seed, out_dir):
    """Write the workload's tree (and holdout) under out_dir; return the
    answer key, also written to out_dir/answer_key.json."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    if workload == "short-curriculum":
        tree, bench = _short_tree(rng, SIZES[workload]), None
    else:
        tree, bench = _long_tree(rng, SIZES[workload])

    out = Path(out_dir)
    dirs = {"tree": tree}
    if bench is not None:
        dirs["bench"] = bench
    key = {"workload": workload, "seed": seed, "dirs": {}}
    kept_keys = {}
    for name, gen in dirs.items():
        for rel, (text, _, _) in gen.files.items():
            path = out / name / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text, encoding="utf-8")
        kept, rejects = _expected_samples(gen.files)
        kept_keys[name] = [sample.pop("key") for sample in kept]
        reasons = {}
        for r in rejects:
            reasons[r["reason"]] = reasons.get(r["reason"], 0) + 1
        key["dirs"][name] = {
            "files": {rel: {"parses": parses, "loop_lines": [l["line"] for l in loops]}
                      for rel, (_, loops, parses) in sorted(gen.files.items())},
            "samples": kept,
            "rejects": rejects,
            "reject_counts": reasons,
        }
    if bench is not None:
        # Tree samples whose twin sits in the holdout: never in train.
        held = set(kept_keys["bench"])
        key["holdout_samples"] = sum(k in held for k in kept_keys["tree"])
    with open(out / "answer_key.json", "w", encoding="utf-8") as fh:
        json.dump(key, fh, indent=1, sort_keys=True)
    return key


if __name__ == "__main__":
    if len(sys.argv) != 4:
        sys.exit("usage: workload.py <workload> <seed> <out_dir>")
    generate(sys.argv[1], int(sys.argv[2]), sys.argv[3])
