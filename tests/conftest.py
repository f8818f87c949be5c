"""Shared fixtures: the toy taxonomy, random instances, sparse vectors, their pairs and their conversion from reference vectors, vocabularies of any size, hand-packed model centroids, a strict JSON hook, synthetic runs, the modules of the benchmark and of scripts/, the in-process CLI runner and the runs the CLI tests share.

The reference the tests compare routecat against is ``reference.py`` beside this file.
"""

from __future__ import annotations

import base64
import contextlib
import hashlib
import importlib
import io
import random
import struct
import sys
from array import array
from pathlib import Path
from types import ModuleType
from typing import Iterator, NamedTuple

import pytest
from hypothesis import strategies as st

from routecat.cli import main
from routecat.corpus import Document, SparseVector, Vocabulary, load_corpus
from routecat.evaluation import TrainedRun, train_and_calibrate
from routecat.synthetic import SyntheticSpec, generate_synthetic
from routecat.taxonomy import Taxonomy, parse_taxonomy

T0_TEXT = "ROOT\tA\nROOT\tB\nA\tA1\nA\tA2\nB\tB1\n"

# characters str.splitlines breaks on besides LF and CR; in a TSV input they are part of the line
LINE_SEPARATORS = ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]

SMALLEST_NORMAL = 2.2250738585072014e-308
# Nonnegative weights: ordinary ones, and zero or subnormal ones whose products underflow.
weights = st.one_of(
    st.floats(min_value=0.0, max_value=1e3),
    st.floats(min_value=0.0, max_value=SMALLEST_NORMAL),
)


def vec(*pairs: tuple[int, float]) -> SparseVector:
    """The sparse vector of the given ``(index, weight)`` pairs, in the order given."""
    return SparseVector(array("I", [i for i, _ in pairs]), array("d", [w for _, w in pairs]))


def entries(v: SparseVector) -> tuple[tuple[int, float], ...]:
    """The ``(index, weight)`` pairs of ``v``, in index order."""
    return tuple(zip(v.indices, v.weights))


def sparse(weights: dict[int, float]) -> SparseVector:
    """The sparse vector of a reference vector, a dict of weights by term index; ``dict(entries(v))`` is the inverse."""
    return vec(*sorted(weights.items()))


# A small index space, so supports often overlap and sometimes are disjoint or empty.
sparse_vectors = st.dictionaries(st.integers(0, 24), weights, max_size=10).map(lambda m: vec(*sorted(m.items())))


def vocabulary_of_size(n: int) -> Vocabulary:
    """The n terms t0, t1, ... in one document: a vocabulary for centroids of term indices 0..n-1."""
    terms = [f"t{k}" for k in range(n)]
    return Vocabulary(terms=tuple(terms), doc_frequency=(1,) * n, n_docs=1)


def packed_centroid(*entries: tuple[int, float]) -> list[str]:
    """A model.json centroid made by hand: base64 of the indices as little-endian uint32 and of the weights as float64."""
    n = len(entries)
    return [
        base64.b64encode(struct.pack(f"<{n}I", *(i for i, _ in entries))).decode("ascii"),
        base64.b64encode(struct.pack(f"<{n}d", *(w for _, w in entries))).decode("ascii"),
    ]


@pytest.fixture
def t0() -> Taxonomy:
    return parse_taxonomy(T0_TEXT)


@pytest.fixture
def t0_docs() -> list[Document]:
    return [
        Document("d1", "A1", "alpha one"),
        Document("d2", "A1", "alpha uno"),
        Document("d3", "A2", "alpha two"),
        Document("d4", "B1", "beta bee"),
    ]


def random_edges(rng: random.Random, max_nodes: int = 20, max_depth: int = 4) -> list[tuple[str, str]]:
    """(parent, child) edges of a random depth-capped tree rooted at ``n0``, in file order."""
    n = rng.randint(2, max_nodes)
    depth = {0: 0}
    edges = []
    for i in range(1, n):
        candidates = [j for j in range(i) if depth[j] < max_depth]
        p = rng.choice(candidates)
        depth[i] = depth[p] + 1
        edges.append((f"n{p}", f"n{i}"))
    return edges


def random_taxonomy(rng: random.Random, max_nodes: int = 20, max_depth: int = 4) -> Taxonomy:
    """The tree of :func:`random_edges` as edge text, parsed through the real parser."""
    edges = random_edges(rng, max_nodes, max_depth)
    return parse_taxonomy("".join(f"{parent}\t{child}\n" for parent, child in edges))


def random_labeled_docs(rng: random.Random, t: Taxonomy, max_docs: int = 200) -> list[Document]:
    labels = [node for node in t.nodes if node != t.root]
    count = rng.randint(1, max_docs)
    return [
        Document(f"d{i}", rng.choice(labels), f"w{rng.randint(0, 20)} w{rng.randint(0, 20)}")
        for i in range(count)
    ]


def refuse_json_constant(name: str):
    """``parse_constant`` hook for ``json.loads`` that refuses NaN and the infinities (not RFC 8259)."""
    raise ValueError(f"non-standard JSON constant {name}")


def synthetic_run(spec: SyntheticSpec, val_fraction: float, test_fraction: float, **training) -> TrainedRun:
    """Generate the spec's corpus and run the shared pipeline on it, split by the spec's seed.

    ``training`` (mode, policy) is passed on to ``train_and_calibrate``.
    """
    taxonomy_text, corpus_text = generate_synthetic(spec)
    taxonomy = parse_taxonomy(taxonomy_text)
    docs = load_corpus(corpus_text, taxonomy)
    return train_and_calibrate(taxonomy, docs, val_fraction, test_fraction, spec.seed, **training)


ROOT = Path(__file__).resolve().parent.parent
PERFBENCH, SCRIPTS = ROOT / "perfbench", ROOT / "scripts"


def import_script(directory: Path, name: str) -> ModuleType:
    """The module ``<directory>/<name>.py`` of a directory of scripts, not a package: ``PERFBENCH`` or ``SCRIPTS``."""
    sys.path.insert(0, str(directory))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(directory))


def cli(*argv: object) -> tuple[int, str, str]:
    """``routecat argv`` in this process: its exit status, stdout and stderr.  A usage error is status 2.

    An exception that escapes the command's error policy escapes this call too, and fails the test.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = main([str(arg) for arg in argv])
        except SystemExit as exc:  # argparse's exit
            status = exc.code
    return status, out.getvalue(), err.getvalue()


# the split every CLI test trains on, and the flags of a corpus in which some validation documents are misrouted
SPLIT = ("--val-fraction", "0.2", "--test-fraction", "0.3", "--seed", "5")
NOISY = ("--noise", "0.6", "--tokens-per-doc", "8")


class CliRun(NamedTuple):
    """A corpus with the model and calibration ``routecat train`` wrote for it on :data:`SPLIT`."""

    taxonomy: Path
    corpus: Path
    model: Path
    calibration: Path
    train_err: str  # what train printed

    @property
    def train(self) -> tuple[object, ...]:
        """The argv that trains on the run's corpus, split by :data:`SPLIT`; ``--out-dir`` is the caller's to add."""
        return ("train", "--taxonomy", self.taxonomy, "--corpus", self.corpus, *SPLIT)

    @property
    def classify(self) -> tuple[object, ...]:
        """The argv that classifies the run's own corpus."""
        return ("classify", "--model", self.model, "--calibration", self.calibration, "--input", self.corpus)

    @property
    def evaluate(self) -> tuple[object, ...]:
        """The argv that evaluates the run on the split it was trained on; ``--out-dir`` is the caller's to add."""
        return ("evaluate", "--model", self.model, "--calibration", self.calibration, "--corpus", self.corpus, *SPLIT)


def generate_corpus(out: Path, *flags: object) -> Path:
    """``out``, into which ``routecat generate`` wrote the CLI tests' corpus; ``flags`` override its shape and seed."""
    status, _, err = cli(
        "generate", "--depth", "2", "--branching", "3", "--docs-per-leaf", "20", "--noise", "0.3", "--seed", "5",
        *flags, "--out-dir", out,
    )
    assert status == 0, err
    return out


def train_corpus(data: Path, out: Path, *flags: object) -> CliRun:
    """``routecat train`` on ``data``'s taxonomy.tsv and corpus.tsv, split by :data:`SPLIT`, into ``out``."""
    run = CliRun(data / "taxonomy.tsv", data / "corpus.tsv", out / "model.json", out / "calibration.json", "")
    status, _, err = cli(*run.train, *flags, "--out-dir", out)
    assert status == 0, err
    return run._replace(train_err=err)


def _file_digests(root: Path) -> dict[Path, str]:
    return {path: hashlib.sha256(path.read_bytes()).hexdigest() for path in root.rglob("*") if path.is_file()}


def _unedited(root: Path, run: CliRun) -> Iterator[CliRun]:
    """Yield ``run``, whose files lie under ``root``; at session end, no file there may have changed, come or gone.

    A test that edits an artifact of a shared run edits a copy in its own ``tmp_path``.
    """
    built = _file_digests(root)
    yield run
    assert _file_digests(root) == built, f"a test edited the shared run in {root}"


@pytest.fixture(scope="session")
def trained(tmp_path_factory) -> Iterator[CliRun]:
    """The default corpus of :func:`generate_corpus`, trained in positive-only mode."""
    root = tmp_path_factory.mktemp("trained")
    yield from _unedited(root, train_corpus(generate_corpus(root / "data"), root / "run"))


@pytest.fixture(scope="session")
def noisy(tmp_path_factory) -> Iterator[CliRun]:
    """The corpus of :data:`NOISY`, trained in positive-only mode."""
    root = tmp_path_factory.mktemp("noisy")
    yield from _unedited(root, train_corpus(generate_corpus(root / "data", *NOISY), root / "run"))


@pytest.fixture(scope="session")
def noisy_binary(tmp_path_factory, noisy) -> Iterator[CliRun]:
    """``noisy``'s corpus, trained in binary mode under the siblings policy."""
    root = tmp_path_factory.mktemp("noisy-binary")
    yield from _unedited(root, train_corpus(noisy.corpus.parent, root, "--mode", "binary", "--policy", "siblings"))
