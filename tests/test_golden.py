"""Golden digests of the corpus-side artifacts.

tests/golden/manifest.json holds the SHA-256 of each file that build-corpus
and augment write for fixed inputs and seeds: the fixture tree plain and
with --with-scope --benchmarks, both perfbench/workload.py trees at seed 1
under the benchmark's own options, and augment's curriculum (epochs 2 and 5)
and replaced outputs. These outputs are pure Python, so the digests are the
same on every machine. A digest changes only together with a CHANGES.md line
saying which one changed and why (a fix or a format change).

After such a change, rewrite the manifest with
PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import importlib.util
import json
import tempfile
from pathlib import Path

import pytest

from ompadvisor.cli import execute_command

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "fixtures"
MANIFEST = ROOT / "tests" / "golden" / "manifest.json"
CORPUS_FILES = ("corpus.jsonl", "rejects.jsonl", "stats.json", "benchmarks.jsonl")
AUGMENTS = {"curriculum-2": ["--mode", "curriculum", "--epoch", "2"],
            "curriculum-5": ["--mode", "curriculum", "--epoch", "5"],
            "replaced": ["--mode", "replaced"]}


def _workload_module():
    path = ROOT / "perfbench" / "workload.py"
    spec = importlib.util.spec_from_file_location("perfbench_workload", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(argv):
    assert execute_command([str(a) for a in argv]) == 0, argv


def derive_digests(work):
    """{artifact name: SHA-256 hex digest} of every golden artifact, built
    under the directory work."""
    work = Path(work)
    workload = _workload_module()
    for name in ("short-curriculum", "long-scoped"):
        workload.generate(name, 1, work / "gen" / name)
    builds = {
        "fixtures": [FIXTURES / "corpus_c", "--seed", 0],
        "fixtures-scoped": [FIXTURES / "corpus_c", "--seed", 0, "--with-scope",
                            "--benchmarks", FIXTURES / "benchmarks"],
        "short-curriculum": [work / "gen" / "short-curriculum" / "tree", "--seed", 1],
        "long-scoped": [work / "gen" / "long-scoped" / "tree", "--seed", 1, "--with-scope",
                        "--benchmarks", work / "gen" / "long-scoped" / "bench"],
    }
    digests = {}
    for name, argv in builds.items():
        out = work / name
        _run(["build-corpus", *argv, "-o", out])
        for file in CORPUS_FILES:
            if (out / file).exists():
                digests[f"{name}/{file}"] = hashlib.sha256((out / file).read_bytes()).hexdigest()
    for name, argv in AUGMENTS.items():
        out = work / f"augment-{name}.jsonl"
        _run(["augment", work / "long-scoped" / "corpus.jsonl", *argv, "-o", out])
        digests[f"augment/{name}.jsonl"] = hashlib.sha256(out.read_bytes()).hexdigest()
    return digests


GOLDEN = json.loads(MANIFEST.read_text(encoding="utf-8")) if MANIFEST.exists() else {}


@pytest.fixture(scope="module")
def derived(tmp_path_factory):
    return derive_digests(tmp_path_factory.mktemp("golden"))


def test_manifest_names_every_derived_artifact(derived):
    assert sorted(derived) == sorted(GOLDEN)


@pytest.mark.parametrize("artifact", sorted(GOLDEN))
def test_artifact_matches_its_golden_digest(derived, artifact):
    assert derived.get(artifact) == GOLDEN[artifact]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        digests = derive_digests(work)
    MANIFEST.write_text(json.dumps(dict(sorted(digests.items())), indent=2) + "\n",
                        encoding="utf-8")
