"""A plain transcription of the whole method: the one reference the tests compare routecat against.

It follows the method step by step with dicts, loops and ``math.fsum``:
TF-IDF vectors over the training vocabulary; each node's centroid, the
mean of its positive documents (and in binary mode of its negative ones,
as a policy selects them); top-down routing with ties to the first child
and a confidence per step; level weights from validation recognition
rates; the equal-error-rate threshold by an exhaustive sweep; the strict
accept rule; the summary counts and the flat nearest-leaf baseline.  A
vector is a dict of weights by term index.

It borrows from routecat only what fixes the input: the taxonomy, read
through ``root`` and ``children_of`` alone, ``tokenize`` and
``split_corpus``.  It imports nothing that trains, routes or evaluates,
so it cannot share a bug with that code; ``tests/test_dependencies.py``
checks its imports.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from routecat.corpus import Document, split_corpus, tokenize
from routecat.policies import Mode, PolicyKind
from routecat.taxonomy import Taxonomy

Vector = dict[int, float]


class Vocabulary(NamedTuple):
    """Each training term's index, in order of first appearance, and how many training documents hold it."""

    index_of: dict[str, int]
    doc_frequency: list[int]
    n_docs: int


def vocabulary(train: list[Document]) -> Vocabulary:
    index_of: dict[str, int] = {}
    doc_frequency: list[int] = []
    for doc in train:
        for term in tokenize(doc.text):
            if term not in index_of:
                index_of[term] = len(index_of)
                doc_frequency.append(0)
        for term in set(tokenize(doc.text)):
            doc_frequency[index_of[term]] += 1
    return Vocabulary(index_of, doc_frequency, len(train))


def idf(vocab: Vocabulary, index: int) -> float:
    """ln((N + 1) / (df + 1)) of the term at ``index``."""
    return math.log((vocab.n_docs + 1) / (vocab.doc_frequency[index] + 1))


def vectorize(text: str, vocab: Vocabulary) -> Vector:
    """tf * idf of each known term of positive idf, divided by the L2 norm of those weights."""
    counts: dict[str, int] = {}
    for term in tokenize(text):
        if term in vocab.index_of:
            counts[term] = counts.get(term, 0) + 1
    weights = {}
    for term, tf in counts.items():
        index = vocab.index_of[term]
        weight = tf * idf(vocab, index)
        if weight > 0.0:
            weights[index] = weight
    norm = math.sqrt(math.fsum(w * w for w in weights.values()))
    return {index: w / norm for index, w in weights.items()}


def paths(t: Taxonomy) -> dict[str, tuple[str, ...]]:
    """Each node's path from a child of the root down to it, read from ``children_of`` alone.

    The nodes come in depth-first pre-order, children in file order.
    """
    out = {}

    def walk(node, path):
        out[node] = path
        for child in t.children_of[node]:
            walk(child, path + (child,))

    walk(t.root, ())
    return out


def training_sets(train: list[Document], t: Taxonomy, node: str, policy: PolicyKind) -> tuple[frozenset, frozenset]:
    """T+ and T- of ``node`` under ``policy``: each document's label tested against the policy's predicate."""
    parent_of = {child: parent for parent, kids in t.children_of.items() for child in kids}

    def chain_up(label):
        out = []
        while label != t.root:
            label = parent_of[label]
            out.append(label)
        return out

    node_parent = parent_of[node]
    positives, negatives = set(), set()
    for d in train:
        lab = d.label
        ancestors_of_label = chain_up(lab)
        is_lam = lab == node
        is_below = node in ancestors_of_label
        is_above = lab in chain_up(node)
        is_sibling = lab != node and lab != t.root and parent_of.get(lab) == node_parent
        # walk up from the label; the first node sharing node's parent tells
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


def mean(vectors: list[Vector]) -> Vector:
    """Coordinate-wise mean: the fsum of each coordinate over the vectors, divided by their number."""
    columns: dict[int, list[float]] = {}
    for v in vectors:
        for index, w in v.items():
            columns.setdefault(index, []).append(w)
    return {index: math.fsum(ws) / len(vectors) for index, ws in columns.items()}


class Model(NamedTuple):
    """The taxonomy and each non-root node's centroid; binary mode also keeps each node's negative centroid."""

    taxonomy: Taxonomy
    centroids: dict[str, Vector]
    negatives: dict[str, Vector] | None


def train(train_docs: list[Document], t: Taxonomy, vocab: Vocabulary, mode: Mode, policy: PolicyKind | None) -> Model:
    """Positive-only: a node averages the documents labeled at it or below.  Binary: T+ and T- of the policy."""
    vectors = {d.doc_id: vectorize(d.text, vocab) for d in train_docs}
    path_of = paths(t)
    centroids, negatives = {}, {}
    for node in path_of:
        if node == t.root:
            continue
        if mode is Mode.POSITIVE_ONLY:
            centroids[node] = mean([vectors[d.doc_id] for d in train_docs if node in path_of[d.label]])
        else:
            positive, negative = training_sets(train_docs, t, node, policy)
            centroids[node] = mean([vectors[doc_id] for doc_id in positive])
            negatives[node] = mean([vectors[doc_id] for doc_id in negative])
    return Model(t, centroids, negatives if mode is Mode.BINARY else None)


def flat_centroids(train_docs: list[Document], t: Taxonomy, vocab: Vocabulary) -> dict[str, Vector]:
    """Each leaf's mean over the documents labeled exactly at it, leaves in depth-first pre-order."""
    return {
        leaf: mean([vectorize(d.text, vocab) for d in train_docs if d.label == leaf])
        for leaf in paths(t)
        if not t.children_of[leaf]
    }


def inner_product(a: Vector, b: Vector) -> float:
    """The fsum of the products of the weights the two vectors share a term on."""
    return math.fsum(w * b[index] for index, w in a.items() if index in b)


def score(d: Vector, centroid: Vector, negative: Vector | None = None) -> float:
    """A node's score: its centroid's inner product, less the negative centroid's in binary mode, clamped at zero."""
    value = inner_product(d, centroid)
    if negative is not None:
        value = max(0.0, value - inner_product(d, negative))
    return value


def decode(model: Model, d: Vector) -> tuple:
    """The route of ``d``: one ``(chosen, group, scores, confidence)`` step per level, root's children to a leaf.

    The highest score wins and a tie keeps the earlier child.  A step's
    confidence is the chosen score over the fsum of its group's scores, or
    1/|group| when they sum to zero.
    """
    t = model.taxonomy
    steps = []
    group = t.children_of[t.root]
    while group:
        scores = []
        for node in group:
            negative = None if model.negatives is None else model.negatives[node]
            scores.append(score(d, model.centroids[node], negative))
        best = 0
        for k in range(1, len(group)):
            if scores[k] > scores[best]:
                best = k
        total = math.fsum(scores)
        confidence = scores[best] / total if total > 0.0 else 1.0 / len(scores)
        steps.append((group[best], group, scores, confidence))
        group = t.children_of[group[best]]
    return tuple(steps)


def reliability(steps: tuple, level_weights) -> float:
    """The confidences weighed by their depth's weight, added one level after another."""
    total = 0.0
    for depth, (_, _, _, confidence) in enumerate(steps, start=1):
        total += level_weights[depth] * confidence
    return total


def decide(model: Model, level_weights, threshold: float, d: Vector) -> tuple[str, bool, float]:
    """The decoded leaf, whether its reliability is strictly above the threshold, and the reliability."""
    steps = decode(model, d)
    value = reliability(steps, level_weights)
    return steps[-1][0], value > threshold, value


def eer_sweep(samples: list[tuple[float, bool]]) -> dict[float, float]:
    """|FA - FR| at every observed reliability, every midpoint between neighbours, and both infinities.

    Counts each rate from scratch under the accept rule: a sample is
    accepted iff its reliability is above the threshold.
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


def eer_threshold(samples: list[tuple[float, bool]]) -> tuple[float, float]:
    """The largest of -inf and the observed reliabilities whose gap is the least of the sweep, and that gap."""
    gaps = eer_sweep(samples)
    least = min(gaps.values())
    return max(tau for tau in [float("-inf"), *(r for r, _ in samples)] if gaps[tau] == least), least


def calibrate(model: Model, vocab: Vocabulary, validation: list[Document]) -> tuple[dict, float, float, str]:
    """Level weights, threshold, gap and source of the validation pass.

    weight(L) is the share of the validation documents labeled at depth L
    or deeper whose route holds their label's ancestor at depth L, and 0
    where no label reaches depth L.  When every document, or none, is
    routed onto its label, the threshold accepts, or rejects, everything.
    """
    path_of = paths(model.taxonomy)
    deepest = max(len(path) for path in path_of.values())
    eligible = dict.fromkeys(range(1, deepest + 1), 0)
    correct = dict.fromkeys(range(1, deepest + 1), 0)
    routed = []
    for doc in validation:
        steps = decode(model, vectorize(doc.text, vocab))
        route = [chosen for chosen, _, _, _ in steps]
        for depth, node in enumerate(path_of[doc.label], start=1):
            eligible[depth] += 1
            if depth <= len(route) and route[depth - 1] == node:
                correct[depth] += 1
        routed.append((steps, doc.label in route))
    weights = {depth: correct[depth] / eligible[depth] if eligible[depth] else 0.0 for depth in eligible}
    samples = [(reliability(steps, weights), ok) for steps, ok in routed]
    n_correct = sum(ok for _, ok in samples)
    if n_correct == len(samples):
        return weights, float("-inf"), 0.0, "eer-all-correct"
    if n_correct == 0:
        return weights, float("inf"), 0.0, "eer-all-incorrect"
    threshold, gap = eer_threshold(samples)
    return weights, threshold, gap, "eer"


class Run(NamedTuple):
    """The corpus split, the vocabulary and model of its training part, and the calibration of its validation part."""

    split: object
    vocabulary: Vocabulary
    model: Model
    level_weights: dict[int, float]
    threshold: float
    eer_gap: float
    source: str


def train_and_calibrate(
    t: Taxonomy,
    docs: list[Document],
    val_fraction: float,
    test_fraction: float,
    seed: int,
    mode: Mode = Mode.POSITIVE_ONLY,
    policy: PolicyKind | None = None,
) -> Run:
    """Split, build the vocabulary and centroids from the training part, and calibrate on the validation part."""
    split = split_corpus(docs, val_fraction, test_fraction, seed)
    if not split.train or not split.validation:
        raise ValueError("the split leaves no training or no validation document")
    vocab = vocabulary(split.train)
    model = train(split.train, t, vocab, mode, policy)
    return Run(split, vocab, model, *calibrate(model, vocab, split.validation))


def summary(outcomes: list[tuple[bool, bool]]) -> dict:
    """The counts and rates of (routed correctly, accepted) pairs, named as ``EvalSummary`` names them."""
    total = len(outcomes)
    accepted = sum(1 for _, ok in outcomes if ok)
    correct_total = sum(1 for correct, _ in outcomes if correct)
    correct_accepted = sum(1 for correct, ok in outcomes if correct and ok)
    overall = correct_total / total
    boosted = correct_accepted / accepted if accepted else 0.0
    return {
        "total": total,
        "accepted": accepted,
        "rejected": total - accepted,
        "true_rejections": sum(1 for correct, ok in outcomes if not correct and not ok),
        "false_rejections": sum(1 for correct, ok in outcomes if correct and not ok),
        "correct_total": correct_total,
        "correct_accepted": correct_accepted,
        "overall_accuracy": overall,
        "boosted_accuracy": boosted,
        "accuracy_boost": 100.0 * (boosted - overall),
    }


def flat_argmax(centroids: dict[str, Vector], d: Vector) -> str:
    """The leaf whose centroid has the largest inner product with ``d``; a tie keeps the earlier leaf."""
    best, best_score = None, None
    for leaf, centroid in centroids.items():
        value = inner_product(d, centroid)
        if best is None or value > best_score:
            best, best_score = leaf, value
    return best


def report(run: Run) -> tuple[dict, tuple[float, float, float]]:
    """The summary of the test part, and its flat, hierarchical and accepted-only recognition rates in percent."""
    test = run.split.test
    if not test:
        raise ValueError("the split leaves no test document")
    t = run.model.taxonomy
    path_of = paths(t)
    flat = flat_centroids(run.split.train, t, run.vocabulary)
    outcomes, flat_hits = [], 0
    for doc in test:
        d = vectorize(doc.text, run.vocabulary)
        leaf, accepted, _ = decide(run.model, run.level_weights, run.threshold, d)
        outcomes.append((doc.label in path_of[leaf], accepted))
        flat_hits += doc.label in path_of[flat_argmax(flat, d)]
    counts = summary(outcomes)
    rates = (100.0 * (flat_hits / len(test)), 100.0 * counts["overall_accuracy"], 100.0 * counts["boosted_accuracy"])
    return counts, rates
