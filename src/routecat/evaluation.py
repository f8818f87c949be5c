"""The train/calibrate/report pipeline, metrics, and the flat baseline.

A document counts as correctly routed when its true label lies on the
decoded route (:func:`~routecat.router.routed_correctly`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from routecat.centroid import CentroidModel, Mode, mean_vector, train
from routecat.corpus import (
    CorpusSplit,
    Document,
    SparseVector,
    Vocabulary,
    index_training,
    scorer,
    split_corpus,
    vectorize,
)
from routecat.policies import PolicyKind, most_specific_examples
from routecat.router import Calibration, build_calibration, classify_with_reject, first_max, routed_correctly
# the benchmark reads the generator through this module
from routecat.synthetic import SyntheticSpec, generate_synthetic
from routecat.taxonomy import NodeId, Taxonomy


@dataclass(frozen=True)
class EvalSummary:
    """Counts and rates for one evaluation run.

    true_rejections are rejected documents that were routed to the wrong
    label; false_rejections were routed correctly but rejected anyway.
    boosted_accuracy is the accuracy over accepted documents only, and
    accuracy_boost is its gain over overall_accuracy in percentage points.
    """

    total: int
    accepted: int
    rejected: int
    true_rejections: int
    false_rejections: int
    correct_total: int
    correct_accepted: int
    overall_accuracy: float
    boosted_accuracy: float
    accuracy_boost: float


def summarize(outcomes: Iterable[tuple[bool, bool]]) -> EvalSummary:
    """Aggregate per-document (correct, accepted) pairs into an EvalSummary."""
    total = accepted = correct_total = correct_accepted = tr = fr = 0
    for correct, was_accepted in outcomes:
        total += 1
        correct_total += correct
        if was_accepted:
            accepted += 1
            correct_accepted += correct
        elif correct:
            fr += 1
        else:
            tr += 1
    if total == 0:
        raise ValueError("empty test set")
    overall = correct_total / total
    boosted = correct_accepted / accepted if accepted else 0.0
    return EvalSummary(
        total=total,
        accepted=accepted,
        rejected=total - accepted,
        true_rejections=tr,
        false_rejections=fr,
        correct_total=correct_total,
        correct_accepted=correct_accepted,
        overall_accuracy=overall,
        boosted_accuracy=boosted,
        accuracy_boost=100.0 * (boosted - overall),
    )


def evaluate(model: CentroidModel, calibration: Calibration, test: Sequence[Document]) -> EvalSummary:
    """Classify every test document with the reject option and tabulate the outcome."""
    return _evaluate_vectors(model, calibration, test, [vectorize(doc, model.vocabulary) for doc in test])


def _evaluate_vectors(
    model: CentroidModel, calibration: Calibration, test: Sequence[Document], vectors: Sequence[SparseVector]
) -> EvalSummary:
    """:func:`evaluate` over the test documents' vectors, made once by the caller."""
    outcomes = []
    for doc, d in zip(test, vectors):
        decision = classify_with_reject(model, calibration, d)
        outcomes.append((routed_correctly(model.taxonomy, doc.label, decision.leaf), decision.accepted))
    return summarize(outcomes)


def leaf_centroids(
    train: Sequence[Document], taxonomy: Taxonomy, vocabulary: Vocabulary
) -> dict[NodeId, SparseVector]:
    """Each leaf's centroid retrained from scratch: the mean vector of the documents labeled at it.

    A leaf has no descendants, so under every mode and policy this equals
    the trained model's ``centroid_of[leaf]`` bit for bit; it is kept as the
    reference that equality is checked against.
    """
    if not train:
        raise ValueError("empty training set")
    vectors = {d.doc_id: vectorize(d, vocabulary) for d in train}
    return {leaf: mean_vector(most_specific_examples(train, taxonomy, leaf), vectors) for leaf in taxonomy.leaves}


def flat_predictions(
    centroid_of: Mapping[NodeId, SparseVector], vectors: Sequence[SparseVector], taxonomy: Taxonomy
) -> list[NodeId]:
    """Hierarchy-blind prediction for each document vector: nearest leaf centroid over all leaves at once.

    Ties go to the first leaf in ``taxonomy.leaves`` order.  The leaves are
    scored through the kernel :func:`~routecat.corpus.scorer` picks for them.
    """
    leaves = taxonomy.leaves
    index = scorer([centroid_of[leaf] for leaf in leaves])
    return [leaves[first_max(index.dots(d))] for d in vectors]


def flat_accuracy(
    centroid_of: Mapping[NodeId, SparseVector],
    test: Sequence[Document],
    vectors: Sequence[SparseVector],
    taxonomy: Taxonomy,
) -> float:
    """Exact-label accuracy of the flat nearest-centroid classifier over the given leaf centroids."""
    if not test:
        raise ValueError("empty test set")
    predictions = flat_predictions(centroid_of, vectors, taxonomy)
    return sum(p == doc.label for p, doc in zip(predictions, test)) / len(test)


def flat_baseline(
    train: Sequence[Document],
    test: Sequence[Document],
    taxonomy: Taxonomy,
    vocabulary: Vocabulary,
) -> float:
    """Exact-label accuracy of the flat nearest-centroid classifier retrained on ``train``."""
    vectors = [vectorize(doc, vocabulary) for doc in test]
    return flat_accuracy(leaf_centroids(train, taxonomy, vocabulary), test, vectors, taxonomy)


@dataclass(frozen=True)
class SummaryRow:
    problem: str
    summary: EvalSummary


@dataclass(frozen=True)
class ComparisonRow:
    """Recognition rates (percent) of the three compared methods on one problem."""

    problem: str
    flat: float
    lcn: float
    proposed: float


@dataclass(frozen=True)
class TrainedRun:
    """The corpus split, the model trained on its training part, and its calibration."""

    split: CorpusSplit
    model: CentroidModel
    calibration: Calibration


def train_and_calibrate(
    taxonomy: Taxonomy,
    docs: Sequence[Document],
    val_fraction: float,
    test_fraction: float,
    seed: int,
    mode: Mode = Mode.POSITIVE_ONLY,
    policy: PolicyKind | None = None,
) -> TrainedRun:
    """Split the corpus, train on the training part, and calibrate on the validation part.

    The vocabulary comes from the training part only, and one pass over its
    text (:func:`~routecat.corpus.index_training`) builds it and the
    training vectors together.
    """
    split = split_corpus(docs, val_fraction, test_fraction, seed)
    if not split.train:
        raise ValueError("split produced an empty training set")
    if not split.validation:
        raise ValueError("split produced an empty validation set; use a positive --val-fraction")
    vocabulary, vectors = index_training(split.train)
    model = train(split.train, taxonomy, vocabulary, mode=mode, policy=policy, vectors=vectors)
    del vectors  # the centroids hold what training needed; calibration must not keep every vector alive
    calibration = build_calibration(model, split.validation)
    return TrainedRun(split=split, model=model, calibration=calibration)


def report_rows(
    problem: str, model: CentroidModel, calibration: Calibration, split: CorpusSplit
) -> tuple[list[SummaryRow], list[ComparisonRow]]:
    """Score the test split with the reject option and the flat baseline; rates in percent.

    The flat baseline scores the model's own leaf centroids, so only the
    test split is read, and both methods score the same vectors, made once
    per test document.
    """
    if not split.test:
        raise ValueError("split produced an empty test set; use a positive --test-fraction")
    vectors = [vectorize(doc, model.vocabulary) for doc in split.test]
    summary = _evaluate_vectors(model, calibration, split.test, vectors)
    flat = flat_accuracy(model.centroid_of, split.test, vectors, model.taxonomy)
    comparison = ComparisonRow(
        problem=problem,
        flat=100.0 * flat,
        lcn=100.0 * summary.overall_accuracy,
        proposed=100.0 * summary.boosted_accuracy,
    )
    return [SummaryRow(problem=problem, summary=summary)], [comparison]


def _csv_text(header: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """RFC 4180 CSV with LF line ends; floats are written as ``str``, their shortest round-trip form.

    A field holding a comma, a quote, a CR or an LF is quoted and its quotes
    doubled.  The rule is spelled out because ``csv.writer`` before Python
    3.13 leaves a bare CR unquoted when the line end is LF.
    """
    lines = []
    for fields in (header, *rows):
        cells = []
        for value in fields:
            text = str(value)
            if any(c in text for c in ',"\r\n'):
                text = '"' + text.replace('"', '""') + '"'
            cells.append(text)
        lines.append(",".join(cells) + "\n")
    return "".join(lines)


def summary_csv(rows: Sequence[SummaryRow]) -> str:
    """Machine-readable rejection summary."""
    table = []
    for row in rows:
        s = row.summary
        table.append([row.problem, s.rejected, s.true_rejections, s.false_rejections, s.accuracy_boost])
    return _csv_text(["problem", "rejected", "TR", "FR", "accuracy_boost"], table)


def comparison_csv(rows: Sequence[ComparisonRow]) -> str:
    table = [[row.problem, row.flat, row.lcn, row.proposed] for row in rows]
    return _csv_text(["problem", "flat", "LCN", "proposed"], table)


def _table_name(problem: str) -> str:
    """``problem`` with each unprintable character, such as a newline, written as its Python escape."""
    return "".join(c if c.isprintable() else repr(c)[1:-1] for c in problem)


def render_report(summary_rows: Sequence[SummaryRow], comparison_rows: Sequence[ComparisonRow]) -> str:
    """Human-readable tables followed by their CSV equivalents.

    The tables escape control characters in a problem name, so that each row
    stays on one line; the CSV sections keep the name as it is, quoted as
    RFC 4180 requires.
    """
    out: list[str] = []
    out.append("Rejection summary")
    header = f"{'problem':<16}{'total':>8}{'accepted':>10}{'rejected':>10}{'TR':>7}{'FR':>7}{'overall':>10}{'boosted':>10}{'boost(pp)':>11}"
    out.append(header)
    for row in summary_rows:
        s = row.summary
        out.append(
            f"{_table_name(row.problem):<16}{s.total:>8}{s.accepted:>10}{s.rejected:>10}"
            f"{s.true_rejections:>7}{s.false_rejections:>7}"
            f"{s.overall_accuracy:>10.4f}{s.boosted_accuracy:>10.4f}{s.accuracy_boost:>11.2f}"
        )
    out.append("")
    out.append("summary.csv")
    out.append(summary_csv(summary_rows).rstrip("\n"))
    out.append("")
    out.append("Method comparison (recognition rate, %)")
    out.append(f"{'problem':<16}{'flat':>8}{'LCN':>8}{'proposed':>10}")
    for row in comparison_rows:
        out.append(f"{_table_name(row.problem):<16}{row.flat:>8.1f}{row.lcn:>8.1f}{row.proposed:>10.1f}")
    out.append("")
    out.append("comparison.csv")
    out.append(comparison_csv(comparison_rows).rstrip("\n"))
    return "\n".join(out) + "\n"
