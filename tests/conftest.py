"""Shared fixtures: the toy taxonomy, random instances, sparse vectors and their pairs, vocabularies of any size, hand-packed model centroids, a naive policy oracle, an exhaustive EER oracle, a strict JSON hook, synthetic runs, and the benchmark's modules."""

from __future__ import annotations

import base64
import importlib
import random
import struct
import sys
from array import array
from pathlib import Path
from types import ModuleType

import pytest
from hypothesis import strategies as st

from routecat.corpus import Document, SparseVector, Vocabulary, load_corpus
from routecat.evaluation import TrainedRun, train_and_calibrate
from routecat.policies import PolicyKind
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


def naive_training_set(train_docs, t: Taxonomy, node, policy: PolicyKind):
    """Independent oracle: evaluates each policy's membership predicate per document.

    Works off its own parent map, built from ``t.children_of``, instead of the
    library's relation queries, so it cannot share bugs with them.
    """
    parent_of = {child: parent for parent, kids in t.children_of.items() for child in kids}

    def chain_up(label):
        out = []
        while label != t.root:
            label = parent_of[label]
            out.append(label)
        return out

    node_parent = parent_of[node]
    positives, negatives = set(), set()
    for d in train_docs:
        lab = d.label
        ancestors_of_label = chain_up(lab)
        is_lam = lab == node
        is_below = node in ancestors_of_label
        is_above = lab in chain_up(node)
        is_sibling = lab != node and lab != t.root and parent_of.get(lab) == node_parent
        # walk up from the label; the first node sharing node's parent tells us
        # whether the label sits under node itself or under one of its siblings
        is_sibling_or_below = False
        for member in [lab] + ancestors_of_label:
            if member == t.root:
                break
            if parent_of.get(member) == node_parent:
                is_sibling_or_below = member != node
                break

        if policy is PolicyKind.EXCLUSIVE:
            pos, neg = is_lam, not is_lam
        elif policy is PolicyKind.LESS_EXCLUSIVE:
            pos, neg = is_lam, not (is_lam or is_below)
        elif policy is PolicyKind.LESS_INCLUSIVE:
            pos, neg = is_lam or is_below, not (is_lam or is_below)
        elif policy is PolicyKind.INCLUSIVE:
            pos, neg = is_lam or is_below, not (is_lam or is_below or is_above)
        elif policy is PolicyKind.SIBLINGS:
            pos, neg = is_lam or is_below, is_sibling_or_below
        else:
            assert policy is PolicyKind.EXCLUSIVE_SIBLINGS
            pos, neg = is_lam, is_sibling
        if pos:
            positives.add(d.doc_id)
        elif neg:
            negatives.add(d.doc_id)
    return frozenset(positives), frozenset(negatives)


def sweep_oracle(samples: list[tuple[float, bool]]) -> dict[float, float]:
    """|FA - FR| at every observed reliability, every midpoint between neighbours, and both infinities.

    Counts each rate from scratch under the classifier's accept rule: a
    sample is accepted iff its reliability is above the threshold.
    """
    correct = [r for r, ok in samples if ok]
    incorrect = [r for r, ok in samples if not ok]
    distinct = sorted({r for r, _ in samples})
    candidates = (
        [float("-inf"), float("inf")]
        + distinct
        + [(a + b) / 2 for a, b in zip(distinct, distinct[1:])]
    )
    gaps = {}
    for tau in candidates:
        fa = sum(r > tau for r in incorrect) / len(incorrect)
        fr = sum(r <= tau for r in correct) / len(correct)
        gaps[tau] = abs(fa - fr)
    return gaps


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


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def import_perfbench(name: str) -> ModuleType:
    """A module of the benchmark (``perfbench/<name>.py``), which is a directory of scripts, not a package."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(PERFBENCH))
