import argparse
import contextlib
import dataclasses
import inspect
import io
import json
import re
import shutil
import struct
import time
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ompadvisor.augment import rename_variables
from ompadvisor.cli import UsageError, build_parser, execute_command
from ompadvisor.corpus import (
    SAMPLE_KEYS, extract_for_prediction, extract_from_source, read_samples,
)
from ompadvisor.encode import Vocabulary, encode_corpus
from ompadvisor.metrics import report_from_rows, rows_from_csv
from ompadvisor.model import ModelConfig, load_model, train
from ompadvisor.synthetic import generate_synthetic_corpus
from ompadvisor.syntax import ParseError

SCHEMA_PATH = Path(__file__).parent.parent / "src" / "ompadvisor" / "schemas" / "predict_schema.json"
FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN_STATS = FIXTURES / "golden_stats.txt"


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_corpus")
    code = execute_command([
        "build-corpus", str(Path(__file__).parent / "fixtures" / "corpus_c"),
        "--seed", "3", "-o", str(out),
    ])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def model_dir(tmp_path_factory):
    """A tiny model trained over a small synthetic corpus via the CLI."""
    from ompadvisor.corpus import write_jsonl

    corpus = tmp_path_factory.mktemp("cli_syn_corpus")
    samples = generate_synthetic_corpus(n=80, seed=5)
    write_jsonl(corpus / "corpus.jsonl", [s.to_json_dict() for s in samples])

    out = tmp_path_factory.mktemp("cli_model")
    code = execute_command([
        "train", str(corpus), "--epochs", "2", "--seed", "1",
        "--d-model", "16", "--n-heads", "2", "--n-layers", "1", "--d-ff", "32",
        "--min-freq", "1", "-o", str(out),
    ])
    assert code == 0
    return corpus, out


def test_build_corpus_outputs_and_run_config(corpus_dir):
    for name in ("corpus.jsonl", "rejects.jsonl", "stats.json", "run_config.json"):
        assert (corpus_dir / name).exists()
    run_config = json.loads((corpus_dir / "run_config.json").read_text())
    assert run_config["command"] == "build-corpus"
    assert run_config["seed"] == 3


def test_build_corpus_deterministic(tmp_path):
    src = str(Path(__file__).parent / "fixtures" / "corpus_c")
    assert execute_command(["build-corpus", src, "--seed", "9", "-o", str(tmp_path / "a")]) == 0
    assert execute_command(["build-corpus", src, "--seed", "9", "-o", str(tmp_path / "b")]) == 0
    assert (tmp_path / "a" / "corpus.jsonl").read_bytes() == \
        (tmp_path / "b" / "corpus.jsonl").read_bytes()


def test_build_corpus_counts_rejects_by_reason(tmp_path, capsys):
    """stats.json and the command's output count every reject reason,
    zeros included."""
    fixtures = Path(__file__).parent / "fixtures"
    counts = {"parse_error": 1, "empty_loop": 1, "barrier_critical_atomic": 2,
              "nested_duplicate": 1}
    for name, src, expected in (("fixtures", fixtures / "corpus_c", counts),
                                ("clean", fixtures / "benchmarks", dict.fromkeys(counts, 0))):
        assert execute_command(["build-corpus", str(src), "-o", str(tmp_path / name)]) == 0
        stats = json.loads((tmp_path / name / "stats.json").read_text())
        assert stats["rejects"] == expected
        assert capsys.readouterr().out.splitlines()[-1] == "rejects: " + ", ".join(
            f"{reason} {n}" for reason, n in expected.items())


def test_stats_matches_golden(corpus_dir, capsys):
    code = execute_command(["stats", str(corpus_dir / "corpus.jsonl")])
    assert code == 0
    assert capsys.readouterr().out == GOLDEN_STATS.read_text()


def test_train_writes_artifacts(model_dir):
    _, out = model_dir
    for name in ("model.bin", "vocab.json", "history.json", "encode_stats.json",
                 "run_config.json"):
        assert (out / name).exists()
    history = json.loads((out / "history.json").read_text())
    assert len(history) == 2


def test_predict_json_validates_against_schema(model_dir, tmp_path, capsys):
    _, out = model_dir
    source = tmp_path / "kernel.c"
    source.write_text("""
void f(int n, double *a, double *b) {
  int i;
  for (i = 0; i < n; i++) {
    a[i] = b[i] * 2.0;
  }
}
""")
    code = execute_command(["predict", str(out), str(source), "--gate", "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    schema = json.loads(SCHEMA_PATH.read_text())
    jsonschema.validate(payload, schema)
    assert len(payload) == 1
    assert payload[0]["gated"] is True


def test_predict_reads_a_pragma_line_that_starts_a_loop_body(model_dir, tmp_path, capsys):
    _, out = model_dir
    source = tmp_path / "kernel.c"
    source.write_text("void f(int n, double *a) {\nint i, j;\nfor (j = 0; j < n; j++)\n"
                      "#pragma omp parallel for\nfor (i = 0; i < n; i++) {\na[i] = j;\n}\n}\n")
    assert execute_command(["predict", str(out), str(source), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    jsonschema.validate(payload, json.loads(SCHEMA_PATH.read_text()))
    assert [loop["line"] for loop in payload] == [3, 5]


COMPUTED_BASE_STORES = ["(a + b)[i] = 1;", "1[i] = 2;"]


@pytest.mark.parametrize("store", COMPUTED_BASE_STORES)
def test_build_corpus_keeps_a_loop_storing_through_a_computed_base(tmp_path, capsys, store):
    """A store whose base is no variable defines nothing; the loop is a
    sample and the rest of the tree is built."""
    src = tmp_path / "src"
    src.mkdir()
    (src / "store.c").write_text(
        f"void f(int n, int *a, int *b) {{\nint i;\nfor (i = 0; i < n; i++) {{\n{store}\n}}\n}}\n")
    (src / "ok.c").write_text(
        "void g(int n, double *a) {\nint i;\nfor (i = 0; i < n; i++) {\na[i] = 0.0;\n}\n}\n")
    out = tmp_path / "corpus"
    assert execute_command(["build-corpus", str(src), "-o", str(out)]) == 0
    corpus = [json.loads(line) for line in (out / "corpus.jsonl").read_text().splitlines()]
    assert sorted(s["path"] for s in corpus) == ["ok.c", "store.c"]
    assert (out / "rejects.jsonl").read_text() == ""


@pytest.mark.parametrize("store", COMPUTED_BASE_STORES)
def test_predict_a_loop_storing_through_a_computed_base(model_dir, tmp_path, capsys, store):
    _, out = model_dir
    source = tmp_path / "store.c"
    source.write_text(f"void f(int n, int *a, int *b) {{\nint i, j;\nfor (i = 0; i < n; i++) {{\n"
                      f"{store}\n}}\nfor (j = 0; j < n; j++) {{\na[j] = j;\n}}\n}}\n")
    assert execute_command(["predict", str(out), str(source), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [loop["line"] for loop in payload] == [3, 6]


# A string literal continued by backslash-newline spans lines 3 and 4.
CONTINUED_LITERAL = 'void f(int n, double *a, char *s) {\nint i;\ns = "ab\\\ncd";\n'


def test_predict_counts_lines_inside_a_continued_literal(model_dir, tmp_path, capsys):
    _, out = model_dir
    source = tmp_path / "kernel.c"
    source.write_text(CONTINUED_LITERAL + "for (i = 0; i < n; i++) {\na[i] = i;\n}\n}\n")
    assert execute_command(["predict", str(out), str(source), "--json"]) == 0
    assert [loop["line"] for loop in json.loads(capsys.readouterr().out)] == [5]


def test_build_corpus_counts_lines_inside_a_continued_literal(tmp_path, capsys):
    src = tmp_path / "src"
    src.mkdir()
    (src / "bad.c").write_text(CONTINUED_LITERAL + "n = n @ 1;\n}\n")
    assert execute_command(["build-corpus", str(src), "-o", str(tmp_path / "corpus")]) == 0
    rejects = (tmp_path / "corpus" / "rejects.jsonl").read_text().splitlines()
    assert [json.loads(line) for line in rejects] == [
        {"path": "bad.c", "line": 5, "reason": "parse_error"}]


def test_predict_plain_output(model_dir, tmp_path, capsys):
    _, out = model_dir
    source = tmp_path / "empty.c"
    source.write_text("int f(void) { return 0; }")
    assert execute_command(["predict", str(out), str(source)]) == 0
    assert "no loops found" in capsys.readouterr().out


@pytest.mark.parametrize("gate", [[], ["--gate"]])
def test_predict_text_lines_format_the_json_payload(model_dir, capsys, gate):
    """One text line per loop, formatted from what --json prints for the same
    model and file."""
    _, out = model_dir
    source = str(FIXTURES / "corpus_c" / "f20.c")
    assert execute_command(["predict", str(out), source, "--json", *gate]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload) > 1
    assert execute_command(["predict", str(out), source, *gate]) == 0
    want = [f"line {r['line']:>4}  "
            f"pragma={r['labels']['pragma']} ({r['probs']['pragma']:.3f})  "
            f"private={r['labels']['private']} ({r['probs']['private']:.3f})  "
            f"reduction={r['labels']['reduction']} ({r['probs']['reduction']:.3f})"
            for r in payload]
    assert capsys.readouterr().out.splitlines() == want


def test_evaluate_writes_reports_and_csv_recomputes(model_dir, tmp_path, capsys):
    corpus, out = model_dir
    eval_dir = tmp_path / "eval"
    code = execute_command([
        "evaluate", str(out), str(corpus / "corpus.jsonl"), "-o", str(eval_dir),
    ])
    assert code == 0
    report = json.loads((eval_dir / "report.json").read_text())
    rows = rows_from_csv((eval_dir / "per_sample.csv").read_text())
    recomputed = report_from_rows(rows)
    for key in ("n", "raw", "gated"):
        assert recomputed[key] == report[key]
    assert (eval_dir / "report.txt").read_text().startswith("samples:")
    assert (eval_dir / "run_config.json").exists()


def test_augment_command_round_trip(corpus_dir, tmp_path, capsys):
    out_file = tmp_path / "augmented.jsonl"
    code = execute_command([
        "augment", str(corpus_dir / "corpus.jsonl"), "--mode", "replaced",
        "--epoch", "1", "--seed", "4", "-o", str(out_file),
    ])
    assert code == 0
    assert out_file.exists()
    assert (tmp_path / "augmented.jsonl.run_config.json").exists()
    lines = [json.loads(line) for line in out_file.read_text().splitlines() if line]
    original = [json.loads(line) for line in (corpus_dir / "corpus.jsonl").read_text().splitlines() if line]
    assert len(lines) == len(original)
    assert all(a["id"] == b["id"] for a, b in zip(lines, original))
    assert any(a["loop_code"] != b["loop_code"] for a, b in zip(lines, original))


def test_augment_at_fraction_zero_writes_the_rows_as_read(corpus_dir, tmp_path):
    """augment --mode none renames nothing and parses nothing: every row is
    written as read, one whose code does not parse included."""
    rows = [json.loads(line) for line in (corpus_dir / "corpus.jsonl").read_text().splitlines()]
    rows[1]["loop_code"] = "for (i = 0; i < n; i++) {"
    (tmp_path / "corpus.jsonl").write_text("".join(json.dumps(row) + "\n" for row in rows))
    out_file = tmp_path / "augmented.jsonl"
    assert execute_command(["augment", str(tmp_path / "corpus.jsonl"), "--mode", "none",
                            "-o", str(out_file)]) == 0
    assert [json.loads(line) for line in out_file.read_text().splitlines()] == rows


def test_check_gradients_command(capsys):
    """Five runs: one layer on one sample and on a padded batch of three,
    each with an open and a random mask, then two layers with dropout."""
    code = execute_command(["check-gradients"])
    assert code == 0
    *runs, overall = capsys.readouterr().out.splitlines()
    assert len(runs) == 5 and overall.endswith("(OK)")
    assert all(float(line.rsplit("max_rel_err=", 1)[1]) < 1e-3 for line in runs)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_training_to_non_finite_parameters_exits_two(corpus_dir, tmp_path, capsys):
    """A learning rate that overflows the parameters within the one epoch:
    no batch loss sees the last step's update, but the validation loss does,
    so train exits 2, writes no model and prints its error line alone, with
    no NumPy warning on the way."""
    out = tmp_path / "model"
    assert execute_command(["train", str(corpus_dir), "--epochs", "1", "--lr", "1e300",
                            "-o", str(out)]) == 2
    assert not (out / "model.bin").exists()
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and err.endswith("\n")
    assert "non-finite validation loss" in err


# pragma lines a corpus row may carry that do not parse
UNPARSED_PRAGMAS = ("#pragma omp parallel for private(", "not a pragma")


def test_renaming_keeps_a_pragma_line_that_does_not_parse(corpus_dir, tmp_path, capsys):
    """augment and a renaming train relabel a pragma_raw that does not parse
    word by word, as any other: they exit 0, and the line, which holds no
    clause variable, is kept as it is."""
    rows = [json.loads(line) for line in (corpus_dir / "corpus.jsonl").read_text().splitlines()]
    lines = [n for n, row in enumerate(rows) if row["split"] == "train"][:len(UNPARSED_PRAGMAS)]
    for n, raw in zip(lines, UNPARSED_PRAGMAS):
        rows[n]["pragma_raw"] = raw
    (tmp_path / "corpus.jsonl").write_text("".join(json.dumps(row) + "\n" for row in rows))
    out_file = tmp_path / "augmented.jsonl"
    assert execute_command(["augment", str(tmp_path / "corpus.jsonl"), "--mode", "replaced",
                            "-o", str(out_file)]) == 0
    augmented = [json.loads(line) for line in out_file.read_text().splitlines()]
    assert [augmented[n]["pragma_raw"] for n in lines] == list(UNPARSED_PRAGMAS)
    assert [row["id"] for row in augmented] == [row["id"] for row in rows]
    assert all(augmented[n]["loop_code"] != rows[n]["loop_code"] for n in lines)
    assert execute_command(["train", str(tmp_path), "--epochs", "1", "--aug", "replaced",
                            "--d-model", "16", "--n-heads", "2", "--n-layers", "1",
                            "--d-ff", "32", "-o", str(tmp_path / "model")]) == 0
    assert (tmp_path / "model" / "model.bin").exists()


# the commands that parse each train row before they rename any
RENAMING_COMMANDS = [
    ["augment", "{corpus}", "--mode", "replaced", "-o", "{out}"],
    ["train", "{dir}", "--aug", "curriculum", "--epochs", "3", "--d-model", "16",
     "--n-heads", "2", "--n-layers", "1", "--d-ff", "32", "-o", "{out}"],
]


def named_before_any_work(corpus_dir, tmp_path, capsys, argv, edit):
    """The error line that argv prints when edit spoils a train row of the
    corpus, after checking that argv exits 2 before epoch 1 with that one
    line, which names the row's id and source path, and writes nothing."""
    rows = [json.loads(line) for line in (corpus_dir / "corpus.jsonl").read_text().splitlines()]
    bad = [row for row in rows if row["split"] == "train"][1]
    edit(bad)
    (tmp_path / "corpus.jsonl").write_text("".join(json.dumps(row) + "\n" for row in rows))
    out = tmp_path / "out"
    argv = [arg.format(corpus=tmp_path / "corpus.jsonl", dir=tmp_path, out=out) for arg in argv]
    assert execute_command(argv) == 2
    captured = capsys.readouterr()
    assert "epoch" not in captured.out
    assert captured.err.startswith(f"error: sample {bad['id']} from {bad['path']}: ")
    assert captured.err.count("\n") == 1
    assert not out.exists()
    return captured.err


@pytest.mark.parametrize("argv", RENAMING_COMMANDS)
def test_a_train_loop_that_does_not_parse_is_named_before_any_work(corpus_dir, tmp_path,
                                                                   capsys, argv):
    """A row whose loop code does not parse stops augment, and a renaming
    train, before epoch 1. The position is that of the end of the row's
    code, just past its last token."""
    err = named_before_any_work(corpus_dir, tmp_path, capsys, argv,
                                lambda row: row.update(loop_code="for (i = 0; i < n; i++) {"))
    assert err.endswith(":26: expected }, got 'end of input'\n")


@pytest.mark.parametrize("argv", RENAMING_COMMANDS)
def test_a_train_loop_short_of_new_names_is_named_before_any_work(corpus_dir, tmp_path,
                                                                  capsys, argv):
    """A loop whose lexemes hold var0 ... var9999 leaves a rename no free
    name: augment, and a renaming train, which checks each loop at its
    largest fraction (0.2 here, where the row's 5 names give 1 to rename),
    stop before epoch 1."""
    err = named_before_any_work(
        corpus_dir, tmp_path, capsys, argv,
        lambda row: row.update(loop_code=row["loop_code"][:-1]
                               + "".join(f"var{k};\n" for k in range(10_000)) + "}"))
    assert re.search(r": it renames [15] variables, but only 0 of the names var0 \.\.\. "
                     r"var9999 are free\n$", err)


def test_train_option_defaults_are_the_api_defaults():
    """Every train option's default is that of the ModelConfig field or the
    train() parameter it feeds, so training through the API trains the
    CLI's model."""
    subcommands = next(a for a in build_parser()._actions
                       if isinstance(a, argparse._SubParsersAction))
    options = {a.dest: a.default for a in subcommands.choices["train"]._actions
               if a.dest not in ("help", "corpus_dir", "out")}
    fields = {f.name: f.default for f in dataclasses.fields(ModelConfig)}
    parameters = {name: p.default for name, p in inspect.signature(train).parameters.items()}
    fed = {"aug": "aug_mode", "dropout": "dropout_rate"}
    api = {dest: fields.get(fed.get(dest, dest), parameters.get(fed.get(dest, dest)))
           for dest in options}
    assert options == api
    assert {"d_model", "n_heads", "n_layers", "d_ff", "dropout", "epochs", "batch_size", "lr",
            "seed", "min_freq", "max_code", "max_dfg", "aug"} == set(options)


def test_usage_errors_exit_one(capsys):
    assert execute_command([]) == 1
    assert execute_command(["train"]) == 1
    assert execute_command(["predict", "--bogus-flag"]) == 1
    assert execute_command(["no-such-command"]) == 1


def test_parser_is_built_once_and_keeps_no_state_between_calls(capsys):
    """execute_command reuses one parser; a run's options never leak into
    the next, and its errors are still usage errors."""
    parser = build_parser()
    assert parser.parse_args(["train", "c", "-o", "m", "--epochs", "3",
                              "--aug", "replaced"]).epochs == 3
    args = parser.parse_args(["train", "c", "-o", "m"])
    assert (args.epochs, args.aug) == (10, "none")
    with pytest.raises(UsageError):
        parser.parse_args(["train", "c", "-o", "m", "--epochs", "0"])
    assert execute_command(["train", "c", "-o", "m", "--epochs", "0"]) == 1
    assert execute_command(["stats", "missing.jsonl"]) == 2
    assert build_parser() is parser


def test_data_errors_exit_two(tmp_path, capsys):
    assert execute_command(["build-corpus", str(tmp_path / "missing"), "-o", str(tmp_path / "o")]) == 2
    assert execute_command(["stats", str(tmp_path / "missing.jsonl")]) == 2
    assert execute_command(["train", str(tmp_path), "-o", str(tmp_path / "m")]) == 2


@pytest.mark.parametrize("benchmarks", ["missing", "file.c"])
def test_build_corpus_benchmarks_must_be_a_directory(tmp_path, capsys, benchmarks):
    """A --benchmarks path that is missing or a file is a data error; it
    never yields an empty held-out set."""
    (tmp_path / "file.c").write_text("void g(int n) {\nint i;\nfor (i = 0; i < n; i++) ;\n}\n")
    out = tmp_path / "corpus"
    argv = ["build-corpus", str(FIXTURES / "corpus_c"), "--benchmarks",
            str(tmp_path / benchmarks), "-o", str(out)]
    assert execute_command(argv) == 2
    assert benchmarks in capsys.readouterr().err
    assert not (out / "benchmarks.jsonl").exists()


@pytest.mark.parametrize("argv", [
    ["augment", "c.jsonl", "--mode", "curriculum", "--epoch", "0", "-o", "o.jsonl"],
    ["augment", "c.jsonl", "--mode", "none", "--epoch", "0", "-o", "o.jsonl"],
    ["augment", "c.jsonl", "--mode", "replaced", "--epoch", "-1", "-o", "o.jsonl"],
    ["check-gradients", "--seed", "-1"],
    ["check-gradients", "--config", "small"],
    # attention always divides by sqrt(d_head): neither scale flag exists
    ["train", "c", "--scale-d", "-o", "m"],
    ["train", "c", "--scale-sqrt-d", "-o", "m"],
    # a split that no row can have
    ["evaluate", "m", "c.jsonl", "--split", "tset", "-o", "e"],
])
def test_bad_options_are_usage_errors(capsys, argv):
    assert execute_command(argv) == 1
    assert capsys.readouterr().err.startswith("usage error:")


def test_train_rejects_sequence_past_position_table(model_dir, tmp_path, capsys):
    corpus, _ = model_dir
    out = tmp_path / "m"
    code = execute_command(["train", str(corpus), "--max-code", "2000", "-o", str(out)])
    assert code == 1
    assert "512" in capsys.readouterr().err
    assert not out.exists()
    # 478 + 32 + 2 = 512 fills the table exactly and is accepted
    assert execute_command([
        "train", str(corpus), "--max-code", "478", "--epochs", "1",
        "--d-model", "16", "--n-heads", "2", "--n-layers", "1", "--d-ff", "32",
        "--min-freq", "1", "-o", str(out),
    ]) == 0


DEEP_SOURCE = "int f(int n) { return " + "(" * 300 + "n" + ")" * 300 + "; }\n"


def test_build_corpus_rejects_deeply_nested_file(tmp_path, capsys):
    src = tmp_path / "src"
    src.mkdir()
    (src / "deep.c").write_text(DEEP_SOURCE)
    (src / "ok.c").write_text(
        "void g(int n, double *a) {\nint i;\nfor (i = 0; i < n; i++) {\na[i] = 0.0;\n}\n}\n")
    out = tmp_path / "corpus"
    assert execute_command(["build-corpus", str(src), "-o", str(out)]) == 0
    rejects = [json.loads(line) for line in (out / "rejects.jsonl").read_text().splitlines()]
    assert rejects == [{"path": "deep.c", "line": 1, "reason": "parse_error"}]
    assert len((out / "corpus.jsonl").read_text().splitlines()) == 1


def test_multi_declarator_for_init_at_end_of_input_is_a_parse_error(model_dir, tmp_path, capsys):
    """The for-init check reports input that ends right after the
    declarators as a parse error, not a crash."""
    src = tmp_path / "src"
    src.mkdir()
    (src / "cut.c").write_text("void f(int n) {\nfor (int i, j;")
    out = tmp_path / "corpus"
    assert execute_command(["build-corpus", str(src), "-o", str(out)]) == 0
    rejects = [json.loads(line) for line in (out / "rejects.jsonl").read_text().splitlines()]
    assert rejects == [{"path": "cut.c", "line": 2, "reason": "parse_error"}]
    _, model = model_dir
    assert execute_command(["predict", str(model), str(src / "cut.c"), "--json"]) == 2
    assert "a single declarator in for-init" in capsys.readouterr().err


def test_predict_deeply_nested_file_exits_two(model_dir, tmp_path, capsys):
    _, out = model_dir
    source = tmp_path / "deep.c"
    source.write_text(DEEP_SOURCE)
    assert execute_command(["predict", str(out), str(source), "--json"]) == 2
    assert "nested" in capsys.readouterr().err


def nested_loops_source(depth):
    """A function holding depth nested for loops, the innermost summing."""
    head = "".join(f"for (i{k} = 0; i{k} < n; i{k}++) {{\n" for k in range(depth))
    decls = "".join(f"int i{k};\n" for k in range(depth))
    return ("void f(int n, double *a) {\n" + decls + "double s = 0.0;\n" + head
            + "s = s + a[i0];\n" + "}\n" * depth + "a[0] = s;\n}\n")


# At 90 levels the time goes to rendering each loop and tokenizing its text
# for the content hash (its nested loops included), which grows with depth²,
# not to data flow; no loop is parsed a second time.
@pytest.mark.parametrize("depth, seconds", [(30, 1.0), (90, 5.0)])
def test_deep_loop_nests_build_and_predict_in_time(model_dir, tmp_path, capsys, depth, seconds):
    """Data flow takes time linear in loop nesting: a file holding 30 nested
    loops, which analyzing each body twice would take 2^30 passes over, and
    one holding 90, are built and predicted at once."""
    _, model = model_dir
    src, out = tmp_path / "src", tmp_path / "out"
    src.mkdir()
    (src / "deep.c").write_text(nested_loops_source(depth))
    for scope in ([], ["--with-scope"]):
        began = time.perf_counter()
        assert execute_command(["build-corpus", str(src), "-o", str(out)] + scope) == 0
        assert time.perf_counter() - began < seconds
        assert len((out / "corpus.jsonl").read_text().splitlines()) == depth
        capsys.readouterr()
        began = time.perf_counter()
        assert execute_command(["predict", str(model), str(src / "deep.c"), "--json"] + scope) == 0
        assert time.perf_counter() - began < seconds
        assert len(json.loads(capsys.readouterr().out)) == depth


def test_predict_missing_model_exits_two(tmp_path, capsys):
    source = tmp_path / "k.c"
    source.write_text("int f(void) { return 0; }")
    assert execute_command(["predict", str(tmp_path / "nomodel"), str(source)]) == 2


def prefix_chain_source(n_ops):
    """A loop whose body holds x = !!...!x; with n_ops operators."""
    return ("void f(int n, int *a) {\nint i, x;\nx = 1;\nfor (i = 0; i < n; i++) {\n"
            "x = " + "!" * n_ops + "x;\na[i] = x;\n}\n}\n")


@pytest.mark.parametrize("n_ops", [59, 500])
def test_build_corpus_rejects_loop_with_long_prefix_chain(tmp_path, capsys, n_ops):
    src = tmp_path / "src"
    src.mkdir()
    (src / "chain.c").write_text(prefix_chain_source(n_ops))
    (src / "ok.c").write_text(
        "void g(int n, double *a) {\nint i;\nfor (i = 0; i < n; i++) {\na[i] = 0.0;\n}\n}\n")
    out = tmp_path / "corpus"
    assert execute_command(["build-corpus", str(src), "--with-scope", "-o", str(out)]) == 0
    rejects = [json.loads(line) for line in (out / "rejects.jsonl").read_text().splitlines()]
    assert rejects == [{"path": "chain.c", "line": 4, "reason": "parse_error"}]
    corpus = [json.loads(line) for line in (out / "corpus.jsonl").read_text().splitlines()]
    assert [s["path"] for s in corpus] == ["ok.c"]


@pytest.mark.parametrize("n_ops", [59, 500])
def test_predict_long_prefix_chain_exits_two(model_dir, tmp_path, capsys, n_ops):
    _, out = model_dir
    source = tmp_path / "chain.c"
    source.write_text(prefix_chain_source(n_ops))
    assert execute_command(["predict", str(out), str(source), "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: 4:1:") and "nested" in captured.err


def test_evaluate_reports_scored_split(model_dir, tmp_path, capsys):
    corpus, out = model_dir
    n_valid = sum(json.loads(line)["split"] == "valid"
                  for line in (corpus / "corpus.jsonl").read_text().splitlines())
    eval_dir = tmp_path / "eval"
    assert execute_command(["evaluate", str(out), str(corpus / "corpus.jsonl"),
                            "--split", "valid", "-o", str(eval_dir)]) == 0
    assert f"scored split valid: n={n_valid}\n" in capsys.readouterr().out
    assert json.loads((eval_dir / "report.json").read_text())["n"] == n_valid


def test_evaluate_scores_benchmarks_per_suite(model_dir, tmp_path, capsys):
    """Every benchmarks.jsonl row has split none, so the default --split test
    finds none of them; --split all scores all five, one group per suite."""
    _, out = model_dir
    corpus = tmp_path / "corpus_scoped"
    assert execute_command(["build-corpus", str(FIXTURES / "corpus_c"), "--seed", "0",
                            "--with-scope", "--benchmarks", str(FIXTURES / "benchmarks"),
                            "-o", str(corpus)]) == 0
    benchmarks = corpus / "benchmarks.jsonl"
    assert len(benchmarks.read_text().splitlines()) == 5
    assert execute_command(["evaluate", str(out), str(benchmarks),
                            "-o", str(tmp_path / "eval_test")]) == 2
    assert "holds no samples" in capsys.readouterr().err
    assert execute_command(["evaluate", str(out), str(benchmarks), "--split", "all",
                            "-o", str(tmp_path / "eval")]) == 0
    report = json.loads((tmp_path / "eval" / "report.json").read_text())
    assert report["n"] == 5
    assert sorted(report["groups"]) == ["nas", "polybench", "spec"]


def test_evaluate_writes_the_encodings_truncation_counts(model_dir, tmp_path):
    """eval_stats.json holds the split, its size and the truncation counts at
    the limits the model directory's vocab.json holds; report.json is as before."""
    corpus, out = model_dir
    limited = tmp_path / "model"
    shutil.copytree(out, limited)
    vocab = json.loads((out / "vocab.json").read_text())
    (limited / "vocab.json").write_text(json.dumps(dict(vocab, max_code=30, max_dfg=8)))
    eval_dir = tmp_path / "eval"
    assert execute_command(["evaluate", str(limited), str(corpus / "corpus.jsonl"),
                            "--split", "valid", "-o", str(eval_dir)]) == 0
    valid = [s for s in read_samples(corpus / "corpus.jsonl") if s.split == "valid"]
    _, stats = encode_corpus(valid, Vocabulary.load(limited / "vocab.json"))
    assert 0 < stats["code_truncated"] < len(valid) and 0 < stats["dfg_truncated"] < len(valid)
    assert json.loads((eval_dir / "eval_stats.json").read_text()) == {
        "split": "valid", "n": len(valid), "code_truncated": stats["code_truncated"],
        "dfg_truncated": stats["dfg_truncated"], "max_code": 30, "max_dfg": 8}
    report = json.loads((eval_dir / "report.json").read_text())
    assert set(report) == {"n", "raw", "gated", "reference", "gate"}


def test_model_directory_without_run_config_gives_the_same_outputs(model_dir, tmp_path, capsys):
    """The encoding limits live in vocab.json: at non-default limits, evaluate
    and predict give the same outputs once run_config.json is deleted."""
    corpus, _ = model_dir
    model = tmp_path / "model"
    assert execute_command(["train", str(corpus), "--epochs", "1", "--seed", "1",
                            "--d-model", "8", "--n-heads", "2", "--n-layers", "1",
                            "--d-ff", "16", "--min-freq", "1", "--max-code", "20",
                            "--max-dfg", "4", "-o", str(model)]) == 0
    source = FIXTURES / "corpus_c" / "f01.c"
    outputs = []
    for name in ("with", "without"):
        eval_dir = tmp_path / name
        assert execute_command(["evaluate", str(model), str(corpus / "corpus.jsonl"),
                                "--split", "all", "-o", str(eval_dir)]) == 0
        capsys.readouterr()
        assert execute_command(["predict", str(model), str(source), "--json"]) == 0
        outputs.append([capsys.readouterr().out] + [
            (eval_dir / file).read_text()
            for file in ("report.json", "eval_stats.json", "per_sample.csv")])
        (model / "run_config.json").unlink(missing_ok=True)
    assert outputs[0] == outputs[1]
    stats = json.loads(outputs[1][2])
    assert (stats["max_code"], stats["max_dfg"]) == (20, 4) and stats["code_truncated"] > 0


def test_evaluate_empty_split_is_a_data_error(model_dir, tmp_path, capsys):
    corpus, out = model_dir
    lines = [line for line in (corpus / "corpus.jsonl").read_text().splitlines()
             if json.loads(line)["split"] != "test"]
    no_test = tmp_path / "no_test.jsonl"
    no_test.write_text("\n".join(lines) + "\n")
    eval_dir = tmp_path / "eval"
    assert execute_command(["evaluate", str(out), str(no_test), "--split", "test",
                            "-o", str(eval_dir)]) == 2
    assert "split 'test'" in capsys.readouterr().err
    assert not eval_dir.exists()


def test_evaluate_on_an_empty_corpus_is_a_data_error(model_dir, tmp_path, capsys):
    _, out = model_dir
    empty = tmp_path / "corpus.jsonl"
    empty.write_text("")
    eval_dir = tmp_path / "eval"
    assert execute_command(["evaluate", str(out), str(empty), "--split", "all",
                            "-o", str(eval_dir)]) == 2
    assert "cannot evaluate an empty sample list" in capsys.readouterr().err
    assert not eval_dir.exists()


def _edit_row(edit):
    """A corpus.jsonl line made from a valid row's object by edit."""
    def line(row):
        edited = edit(row)
        return json.dumps(row if edited is None else edited)
    return line


# how the second row of a corpus is changed
MALFORMED_ROWS = {
    "row_list": _edit_row(lambda row: [1]),
    "row_number": _edit_row(lambda row: 5),
    "dfg_number": _edit_row(lambda row: row.update(dfg=5)),
    "loop_code_number": _edit_row(lambda row: row.update(loop_code=5)),
    "label_string": _edit_row(lambda row: row.update(label_pragma="1")),
    "dfg_slot_negative": _edit_row(lambda row: row["dfg"]["nodes"][0].__setitem__(1, -5)),
    "dfg_edge_past_the_nodes": _edit_row(
        lambda row: row["dfg"]["edges"].append([0, len(row["dfg"]["nodes"])])),
    "dfg_edge_negative": _edit_row(lambda row: row["dfg"]["edges"].append([-1, 0])),
    "dfg_edge_triple": _edit_row(lambda row: row["dfg"]["edges"].append([0, 0, 0])),
    "dfg_edge_bool": _edit_row(lambda row: row["dfg"]["edges"].append([True, 0])),
    "split_typo": _edit_row(lambda row: row.update(split="tset")),
}

# how a train row's first data-flow node is moved off its variable: a row of
# a sample's shape that only a parse of its code can tell apart
NODES_OFF_THEIR_NAMES = {
    "dfg_slot_past_the_code": lambda row: row["dfg"]["nodes"][0].__setitem__(1, 10_000),
    "dfg_name_not_at_its_slot": lambda row: row["dfg"]["nodes"][0].__setitem__(0, "zz"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_ROWS))
def test_malformed_corpus_row_is_a_data_error(model_dir, tmp_path, capsys, case):
    """A corpus.jsonl row that is no sample makes evaluate, augment and stats
    exit 2 with its path and line, never a traceback."""
    edit = MALFORMED_ROWS[case]
    corpus, model = model_dir
    lines = (corpus / "corpus.jsonl").read_text().splitlines()
    lines[1] = edit(json.loads(lines[1]))
    bad = tmp_path / "corpus.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    argv = {"evaluate": ["evaluate", str(model), str(bad), "--split", "all",
                         "-o", str(tmp_path / "eval")],
            "augment": ["augment", str(bad), "--mode", "replaced", "-o", str(tmp_path / "a.jsonl")],
            "stats": ["stats", str(bad)]}
    for command, args in argv.items():
        assert execute_command(args) == 2, command
        assert capsys.readouterr().err.startswith(f"error: {bad}:2: ")


@pytest.mark.parametrize("argv", RENAMING_COMMANDS)
@pytest.mark.parametrize("case", sorted(NODES_OFF_THEIR_NAMES))
def test_a_data_flow_node_off_its_variable_is_named_before_any_work(corpus_dir, tmp_path,
                                                                    capsys, case, argv):
    """Renaming trusts each data-flow node to be the lexeme at its code
    slot, so augment, and a renaming train, stop at a row whose node is not."""
    err = named_before_any_work(corpus_dir, tmp_path, capsys, argv, NODES_OFF_THEIR_NAMES[case])
    assert ": its data-flow node 0 is not " in err


def test_a_row_whose_code_does_not_tokenize_is_named_alike(corpus_dir, model_dir, tmp_path,
                                                          capsys):
    """evaluate, train without renaming and a renaming train all stop at a
    row whose code does not tokenize with one line, which names its id and
    source path and the position of the bad character."""
    _, model = model_dir
    commands = RENAMING_COMMANDS + [
        ["train", "{dir}", "--epochs", "1", "--d-model", "16", "--n-heads", "2",
         "--n-layers", "1", "--d-ff", "32", "-o", "{out}"],
        ["evaluate", str(model), "{corpus}", "--split", "all", "-o", "{out}"],
    ]
    errors = {named_before_any_work(corpus_dir, tmp_path, capsys, argv,
                                    lambda row: row.update(loop_code="@" + row["loop_code"]))
              for argv in commands}
    assert len(errors) == 1
    assert errors.pop().endswith(": its code does not parse at 1:1: expected a token, "
                                 "got '@'\n")


@pytest.mark.parametrize("path, shown", [
    ("f01.c\nwarning: spoofed", "f01.c\\nwarning: spoofed"),
    ("f\r\x1b[2K\u2028.c", "f\\r\\x1b[2K\\u2028.c"),
    ("proj/é ß\tx.c", "proj/é ß\\tx.c"),
])
def test_a_named_row_prints_one_error_line(corpus_dir, model_dir, tmp_path, capsys, path, shown):
    """An error that names a row writes its path's non-printable characters
    as escapes, so a path cannot split or forge the error line; printable
    ones, non-ASCII included, print as they are."""
    _, model = model_dir
    rows = [json.loads(line) for line in (corpus_dir / "corpus.jsonl").read_text().splitlines()]
    rows[0].update(path=path, loop_code="@" + rows[0]["loop_code"])
    (tmp_path / "corpus.jsonl").write_text("".join(json.dumps(row) + "\n" for row in rows))
    assert execute_command(["evaluate", str(model), str(tmp_path / "corpus.jsonl"),
                            "--split", "all", "-o", str(tmp_path / "eval")]) == 2
    assert capsys.readouterr().err == (f"error: sample {rows[0]['id']} from {shown}: its code "
                                       "does not parse at 1:1: expected a token, got '@'\n")


def test_data_flow_edge_outside_the_nodes_is_a_data_error(model_dir, tmp_path, capsys):
    """A train row with an edge to no node is caught as the corpus is read,
    so stats, augment and an evaluate of another split exit 2 naming its
    path and line."""
    corpus, model = model_dir
    rows = [json.loads(line) for line in (corpus / "corpus.jsonl").read_text().splitlines()]
    line = next(n for n, row in enumerate(rows, 1) if row["split"] == "train")
    rows[line - 1]["dfg"]["edges"].append([0, len(rows[line - 1]["dfg"]["nodes"])])
    bad = tmp_path / "corpus.jsonl"
    bad.write_text("".join(json.dumps(row) + "\n" for row in rows))
    for argv in (["stats", str(bad)],
                 ["augment", str(bad), "--mode", "replaced", "-o", str(tmp_path / "a.jsonl")],
                 ["evaluate", str(model), str(bad), "--split", "test",
                  "-o", str(tmp_path / "eval")]):
        assert execute_command(argv) == 2, argv[0]
        assert capsys.readouterr().err == (f"error: {bad}:{line}: "
                                           "each data-flow edge is a pair of node indices\n")


def test_vocabulary_without_limits_asks_to_retrain(model_dir, tmp_path, capsys):
    """A vocab.json from before the limits were stored in it is a data error,
    whatever run_config.json says."""
    corpus, trained = model_dir
    copy = tmp_path / "model"
    shutil.copytree(trained, copy)
    vocab = json.loads((copy / "vocab.json").read_text())
    (copy / "vocab.json").write_text(json.dumps(
        {"min_freq": vocab["min_freq"], "tokens": vocab["tokens"]}))
    assert execute_command(["evaluate", str(copy), str(corpus / "corpus.jsonl"),
                            "-o", str(tmp_path / "eval")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "retrain" in err


# ---------------------------------------------------------------------------
# argument checks and model directory checks

@pytest.mark.parametrize("option, value", [
    ("--n-heads", "0"), ("--d-model", "0"), ("--n-layers", "-1"), ("--d-ff", "0"),
    ("--batch-size", "-1"), ("--batch-size", "0"), ("--epochs", "-1"), ("--epochs", "0"),
    ("--max-code", "-5"), ("--max-dfg", "-1"), ("--dropout", "-0.5"), ("--dropout", "1"),
    ("--dropout", "nan"), ("--epochs", "two"), ("--lr", "-1"), ("--lr", "inf"),
    ("--min-freq", "-1"),
    ("--seed", "-1"), ("--seed", str(2**63)),
    # --d-model (64 by default) must be divisible by --n-heads (4 by default)
    ("--n-heads", "3"), ("--d-model", "6"),
])
def test_train_rejects_bad_numeric_option(model_dir, tmp_path, capsys, option, value):
    corpus, _ = model_dir
    out = tmp_path / "m"
    assert execute_command(["train", str(corpus), option, value, "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and option in err
    assert not out.exists()


def test_train_accepts_lower_bounds(model_dir, tmp_path, capsys):
    corpus, _ = model_dir
    assert execute_command([
        "train", str(corpus), "--epochs", "1", "--batch-size", "1", "--dropout", "0",
        "--max-dfg", "0", "--d-model", "2", "--n-heads", "1", "--n-layers", "1",
        "--d-ff", "1", "--seed", "0", "--lr", "0", "--min-freq", "1", "-o", str(tmp_path / "m"),
    ]) == 0


def test_train_accepts_largest_seed(model_dir, tmp_path):
    """model.bin stores the seed as a signed 64-bit integer: 2**63 - 1 is
    the largest train --seed and survives the round trip."""
    corpus, _ = model_dir
    out = tmp_path / "m"
    assert execute_command([
        "train", str(corpus), "--epochs", "1", "--d-model", "2", "--n-heads", "1",
        "--n-layers", "1", "--d-ff", "1", "--seed", str(2**63 - 1), "-o", str(out),
    ]) == 0
    assert load_model(out / "model.bin")[1].seed == 2**63 - 1


def _edit_vocab(edit):
    def mutate(raw):
        data = json.loads(raw)
        edit(data["tokens"])
        return json.dumps(data).encode()
    return mutate


def _set_vocab_fields(**fields):
    """vocab.json with each named field set, or removed where it is None."""
    def mutate(raw):
        data = json.loads(raw)
        data.update(fields)
        return json.dumps({k: v for k, v in data.items() if v is not None}).encode()
    return mutate


def _set_header_field(offset, value, fmt="<I"):
    def mutate(raw):
        data = bytearray(raw)
        struct.pack_into(fmt, data, offset, value)
        return bytes(data)
    return mutate


SCALE_BYTE = len(b"OMPF1") + struct.calcsize("<6Iqf")  # must be 0: division by sqrt(d_head)


# (file in the model directory, how it is changed, predict's exit code)
MODEL_DIR_EDITS = {
    "unchanged": ("vocab.json", lambda raw: raw, 0),
    "run_config_list": ("run_config.json", lambda raw: b"[]", 0),  # a log, never read
    "max_code_string": ("vocab.json", _set_vocab_fields(max_code="abc"), 2),
    "max_code_past_positions": ("vocab.json", _set_vocab_fields(max_code=2000), 2),
    "max_code_negative": ("vocab.json", _set_vocab_fields(max_code=-1), 2),
    "max_code_missing": ("vocab.json", _set_vocab_fields(max_code=None), 2),
    "min_freq_missing": ("vocab.json", _set_vocab_fields(min_freq=None), 2),
    "positions_filled": ("vocab.json", _set_vocab_fields(max_code=478, max_dfg=32), 0),
    "vocab_tokens_int": ("vocab.json", lambda raw: b'{"min_freq": 1, "tokens": 5}', 2),
    "vocab_list": ("vocab.json", lambda raw: b'["x"]', 2),
    "vocab_id_past_size": ("vocab.json", _edit_vocab(lambda t: t.update({"[UNK]": len(t)})), 2),
    "vocab_id_not_int": ("vocab.json", _edit_vocab(lambda t: t.update({"[UNK]": "3"})), 2),
    "vocab_one_short": ("vocab.json", _edit_vocab(lambda t: t.popitem()), 2),
    "vocab_not_json": ("vocab.json", lambda raw: b"{x", 2),
    "vocab_not_utf8": ("vocab.json", lambda raw: raw.replace(b"[UNK]", b"[\xe9]", 1), 2),
    "model_bad_magic": ("model.bin", lambda raw: b"XXXXX" + raw[5:], 2),
    "model_trailing_bytes": ("model.bin", lambda raw: raw + b"\0\0\0\0", 2),
    "model_truncated": ("model.bin", lambda raw: raw[:-4], 2),
    "model_header_truncated": ("model.bin", lambda raw: raw[:12], 2),
    "model_zero_heads": ("model.bin", _set_header_field(len(b"OMPF1") + 4, 0), 2),
    "model_scale_d": ("model.bin", _set_header_field(SCALE_BYTE, 1, "<B"), 2),
    "model_scale_byte_7": ("model.bin", _set_header_field(SCALE_BYTE, 7, "<B"), 2),
    # the parameters follow the header's scale byte
    "model_parameter_nan": ("model.bin", _set_header_field(SCALE_BYTE + 9, float("nan"), "<f"), 2),
}


@pytest.mark.parametrize("edit", sorted(MODEL_DIR_EDITS))
def test_predict_checks_model_directory(model_dir, tmp_path, capsys, edit):
    name, mutate, want = MODEL_DIR_EDITS[edit]
    _, trained = model_dir
    copy = tmp_path / "model"
    shutil.copytree(trained, copy)
    (copy / name).write_bytes(mutate((copy / name).read_bytes()))
    source = tmp_path / "kernel.c"
    source.write_text("void f(int n, double *a) {\nint i;\nfor (i = 0; i < n; i++) {\n"
                      "a[i] = 0.0;\n}\n}\n")
    assert execute_command(["predict", str(copy), str(source), "--json"]) == want
    captured = capsys.readouterr()
    if want == 2:  # the error names the file that was edited
        assert captured.out == "" and captured.err.startswith(f"error: {copy / name}: ")


@pytest.mark.parametrize("n_layers", [2000, 20000, 2**32 - 1])
def test_oversized_layer_count_exits_two_at_once(model_dir, tmp_path, capsys, n_layers):
    """The size a header implies is worked out before any per-layer work, so
    a header claiming billions of layers is rejected as fast as any other."""
    corpus, trained = model_dir
    copy = tmp_path / "model"
    shutil.copytree(trained, copy)
    model_bin = copy / "model.bin"
    model_bin.write_bytes(_set_header_field(len(b"OMPF1") + 8, n_layers)(model_bin.read_bytes()))
    source = tmp_path / "kernel.c"
    source.write_text("void f(int n, double *a) {\nint i;\nfor (i = 0; i < n; i++) {\n"
                      "a[i] = 0.0;\n}\n}\n")
    for argv in (["predict", str(copy), str(source), "--json"],
                 ["evaluate", str(copy), str(corpus / "corpus.jsonl"), "-o", str(tmp_path / "e")]):
        began = time.perf_counter()
        assert execute_command(argv) == 2
        assert time.perf_counter() - began < 1.0
        assert "parameter bytes" in capsys.readouterr().err


def call_at_depth(depth, fn, *args):
    """fn(*args) called from depth frames deeper than the caller."""
    return fn(*args) if depth == 0 else call_at_depth(depth - 1, fn, *args)


def _extraction_verdict(text):
    samples, rejects = extract_from_source(text, "t.c", with_scope=True)
    return [s.to_json_dict() for s in samples], [(r.line, r.reason) for r in rejects]


def _prediction_verdict(text):
    try:
        return [(p["line"], p["sample"].to_json_dict()) for p in extract_for_prediction(text)]
    except ParseError as err:
        return (err.line, err.col, err.expected)


def paren_source(depth):
    return ("void f(int n, int *a) {\nint i;\nfor (i = 0; i < n; i++) {\na[i] = "
            + "(" * depth + "i" + ")" * depth + ";\n}\n}\n")


def block_source(depth):
    return ("void f(int n, int *a) {\nint i;\nfor (i = 0; i < n; i++) "
            + "{" * depth + "\na[i] = i;\n" + "}" * depth + "\n}\n")


def term_chain_source(n_terms):
    """A loop whose body holds x = i + i + ... + i; with n_terms terms."""
    return ("void f(int n, int *a) {\nint i, x;\nfor (i = 0; i < n; i++) {\nx = "
            + " + ".join(["i"] * n_terms) + ";\na[i] = x;\n}\n}\n")


# The most terms a left-associated chain in a loop body may have: the parser
# and the renderer charge a frame per operator folded into the chain.
TERM_CHAIN_BOUND = 557

NESTED_SOURCES = {
    **{f"chain{n}": prefix_chain_source(n) for n in (20, 33, 34, 47, 52, 57, 500)},
    **{f"terms{n}": term_chain_source(n) for n in (TERM_CHAIN_BOUND, TERM_CHAIN_BOUND + 1, 900)},
    **{f"parens{n}": paren_source(n) for n in (30, 35, 36, 40)},
    **{f"blocks{n}": block_source(n) for n in (60, 95, 96, 120)},
}


@pytest.mark.parametrize("name", sorted(NESTED_SOURCES))
def test_nesting_verdict_does_not_depend_on_the_callers_stack(name):
    """The parser's fixed nesting bound decides how deep a loop may nest,
    not the interpreter stack left over by the caller."""
    source = NESTED_SOURCES[name]
    for verdict in (_extraction_verdict, _prediction_verdict):
        assert call_at_depth(200, verdict, source) == verdict(source)


def test_operator_chain_bound_is_set_by_the_input():
    """A chain at the bound is a sample, renamed alike from a deep stack;
    one more term is a parse_error reject and, for predict, a ParseError at
    the operator that crosses the bound."""
    fits, past = (term_chain_source(n) for n in (TERM_CHAIN_BOUND, TERM_CHAIN_BOUND + 1))
    (sample,), rejects = extract_from_source(fits, "t.c", with_scope=True)
    assert rejects == []
    renamed = rename_variables(sample, 1.0, 7).to_json_dict()
    assert call_at_depth(200, rename_variables, sample, 1.0, 7).to_json_dict() == renamed
    assert _extraction_verdict(past) == ([], [(4, "parse_error")])
    col = len("x = ") + len("i + ") * (TERM_CHAIN_BOUND - 1) + len("i ") + 1
    assert _prediction_verdict(past) == (4, col, "less deeply nested code")


def test_predict_on_a_file_that_is_not_utf8_is_a_data_error(model_dir, tmp_path, capsys):
    _, out = model_dir
    source = tmp_path / "latin1.c"
    source.write_bytes("void f(void) {\n/* caf\xe9 */\n}\n".encode("latin-1"))
    assert execute_command(["predict", str(out), str(source), "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {source}:2: byte 0xe9 is not UTF-8\n"


def test_corpus_that_is_not_utf8_is_a_data_error(corpus_dir, tmp_path, capsys):
    """A corpus.jsonl row holding a byte that is not UTF-8 exits 2, naming
    the file and the line, as any other row that is no sample."""
    lines = (corpus_dir / "corpus.jsonl").read_bytes().splitlines(keepends=True)
    lines[0] = lines[0].replace(b'.c"', b'\xe9.c"', 1)
    assert b"\xe9" in lines[0]
    bad = tmp_path / "corpus.jsonl"
    bad.write_bytes(b"".join(lines))
    for argv in (["stats", str(bad)],
                 ["augment", str(bad), "--mode", "replaced", "-o", str(tmp_path / "a.jsonl")]):
        assert execute_command(argv) == 2, argv[0]
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(f"error: {bad}:1: ")


def test_predict_on_a_directory_is_a_data_error(model_dir, tmp_path, capsys):
    _, trained = model_dir
    assert execute_command(["predict", str(trained), str(tmp_path), "--json"]) == 2


# ---------------------------------------------------------------------------
# predict on arbitrary text

C_FRAGMENTS = (
    "for", "while", "if", "else", "return", "int", "double", "i", "n", "x", "a[i]",
    "(", ")", "{", "}", "[", "]", ";", ",", "=", "+=", "<", "++", "+", "*", "!", "0",
    "1.0", "\n", "#pragma omp parallel for", "#pragma omp parallel for private(x)",
    "/*", "*/", "//", '"', "'", "\\", "#define N 4", "?", ":",
)
C_LIKE = st.lists(st.sampled_from(C_FRAGMENTS), max_size=40).map(" ".join)


@pytest.fixture(scope="module")
def fuzz_source(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input.c"


@settings(max_examples=100, deadline=None)
@given(text=st.one_of(st.text(), C_LIKE,
                      C_LIKE.map(lambda body: "void f(int n, double *a) {\n" + body + "\n}\n")),
       scope=st.booleans())
def test_predict_exits_zero_or_two_on_arbitrary_text(model_dir, fuzz_source, text, scope):
    _, trained = model_dir
    fuzz_source.write_text(text, encoding="utf-8")
    argv = ["predict", str(trained), str(fuzz_source), "--json"]
    assert execute_command(argv + ["--with-scope"] * scope) in (0, 2)


# One field of a valid row changed: to another JSON type, out of its range,
# removed, or to the NaN and Infinity literals json reads as floats.
ODD_VALUES = st.sampled_from([None, True, 0, 2, -1, 1.5, "", "tset", "Train", [], {}, [0, 0],
                              float("nan"), float("inf"), float("-inf")])
ROW_CHANGES = st.one_of(
    st.tuples(st.sampled_from(SAMPLE_KEYS), ODD_VALUES).map(
        lambda change: lambda row: row.__setitem__(*change)),
    st.sampled_from(SAMPLE_KEYS).map(lambda key: lambda row: row.pop(key)),
    st.tuples(st.sampled_from(("nodes", "edges")), ODD_VALUES).map(
        lambda change: lambda row: row["dfg"].__setitem__(*change)),
    st.sampled_from(("nodes", "edges")).map(lambda key: lambda row: row["dfg"].pop(key)),
    st.tuples(st.integers(0, 1), st.one_of(ODD_VALUES, st.integers(-3, 3))).map(
        lambda change: lambda row: row["dfg"]["nodes"][0].__setitem__(*change)),
    st.lists(st.one_of(ODD_VALUES, st.integers(-2, 40)), min_size=0, max_size=3).map(
        lambda edge: lambda row: row["dfg"]["edges"].append(edge)),
)


@pytest.fixture(scope="module")
def changed_corpus(tmp_path_factory):
    return tmp_path_factory.mktemp("changed") / "corpus.jsonl"


@settings(max_examples=100, deadline=None)
@given(index=st.integers(0, 999), change=ROW_CHANGES)
def test_a_changed_row_exits_zero_or_two_and_names_itself(corpus_dir, model_dir,
                                                          changed_corpus, index, change):
    """stats and evaluate --split all on a fixture corpus with one field of
    one row changed exit 0 or 2, never with a traceback; on 2 stderr is one
    error line that names the corpus path and the row's line, or its sample."""
    _, model = model_dir
    rows = [json.loads(text) for text in (corpus_dir / "corpus.jsonl").read_text().splitlines()]
    line = index % len(rows) + 1
    sample = f"sample {rows[line - 1]['id']} from {rows[line - 1]['path']}: "
    change(rows[line - 1])
    changed_corpus.write_text("".join(json.dumps(row) + "\n" for row in rows))
    for argv in (["stats", str(changed_corpus)],
                 ["evaluate", str(model), str(changed_corpus), "--split", "all",
                  "-o", str(changed_corpus.parent / "eval")]):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = execute_command(argv)
        assert code in (0, 2), argv[0]
        if code == 2:
            assert err.getvalue().count("\n") == 1
            assert err.getvalue().startswith((f"error: {changed_corpus}:{line}: ",
                                              f"error: {sample}"))
