"""In-process copies of the CLI commands, built from routecat's public functions.

Each function does the same work on the same files as its ``routecat``
subcommand, minus interpreter start-up and argument parsing, and writes
the same bytes.  Every call goes through a module attribute (``corpus.vectorize``,
not a name imported here) so that the tracer's wrappers see it.
"""

from __future__ import annotations

import time
from pathlib import Path

from routecat import centroid, corpus, evaluation, router, taxonomy
from routecat.centroid import Mode
from routecat.policies import PolicyKind

from workloads import TEST_FRACTION, VAL_FRACTION, Workload


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8", newline="\n")


def generate(workload: Workload, seed: int, out_dir: Path) -> None:
    spec = evaluation.SyntheticSpec(
        depth=workload.depth,
        branching=workload.branching,
        docs_per_leaf=workload.docs_per_leaf,
        noise_fraction=workload.noise,
        tokens_per_doc=workload.tokens_per_doc,
        seed=seed,
    )
    taxonomy_text, corpus_text = evaluation.generate_synthetic(spec)
    _write(out_dir / "taxonomy.tsv", taxonomy_text)
    _write(out_dir / "corpus.tsv", corpus_text)


def train(workload: Workload, seed: int, data_dir: Path, out_dir: Path) -> None:
    tax = taxonomy.parse_taxonomy((data_dir / "taxonomy.tsv").read_text(encoding="utf-8"))
    docs = corpus.load_corpus((data_dir / "corpus.tsv").read_text(encoding="utf-8"), tax)
    split = corpus.split_corpus(docs, VAL_FRACTION, TEST_FRACTION, seed)
    vocabulary = corpus.build_vocabulary(split.train)
    mode = Mode.BINARY if workload.binary else Mode.POSITIVE_ONLY
    policy = PolicyKind.SIBLINGS if workload.binary else None
    model = centroid.train(split.train, tax, vocabulary, mode=mode, policy=policy)
    calibration = router.build_calibration(model, split.validation)
    _write(out_dir / "model.json", centroid.dumps_model(model))
    _write(
        out_dir / "calibration.json",
        router.dumps_calibration(calibration, centroid.vocabulary_digest(vocabulary)),
    )


def load(model_dir: Path) -> tuple[centroid.CentroidModel, router.Calibration]:
    model = centroid.loads_model((model_dir / "model.json").read_text(encoding="utf-8"))
    calibration, digest = router.loads_calibration(
        (model_dir / "calibration.json").read_text(encoding="utf-8")
    )
    router.check_matching_vocabulary(model, digest)
    return model, calibration


def evaluate(seed: int, data_dir: Path, model_dir: Path, out_dir: Path) -> None:
    model, calibration = load(model_dir)
    docs = corpus.load_corpus((data_dir / "corpus.tsv").read_text(encoding="utf-8"), model.taxonomy)
    split = corpus.split_corpus(docs, VAL_FRACTION, TEST_FRACTION, seed)
    summary = evaluation.evaluate(model, calibration, split.test)
    flat = evaluation.flat_baseline(split.train, split.test, model.taxonomy, model.vocabulary)
    summary_rows = [evaluation.SummaryRow(problem="synthetic", summary=summary)]
    comparison_rows = [
        evaluation.ComparisonRow(
            problem="synthetic",
            flat=100.0 * flat,
            lcn=100.0 * summary.overall_accuracy,
            proposed=100.0 * summary.boosted_accuracy,
        )
    ]
    _write(out_dir / "summary.csv", evaluation.summary_csv(summary_rows))
    _write(out_dir / "comparison.csv", evaluation.comparison_csv(comparison_rows))
    evaluation.render_report(summary_rows, comparison_rows)


def classify_docs(
    model: centroid.CentroidModel,
    calibration: router.Calibration,
    docs: list[tuple[str, str]],
) -> tuple[list[str], list[router.Decision], list[float]]:
    """One closed-loop caller: decide each (doc_id, text) in order.

    Returns the lines ``routecat classify`` prints, the decisions, and the
    seconds each document took to vectorize and classify.
    """
    lines, decisions, latencies = [], [], []
    for doc_id, text in docs:
        start = time.perf_counter()
        vec = corpus.vectorize(corpus.Document(doc_id=doc_id, label="", text=text), model.vocabulary)
        decision = router.classify_with_reject(model, calibration, vec)
        latencies.append(time.perf_counter() - start)
        verdict = "ACCEPT" if decision.accepted else "REJECT"
        lines.append(f"{doc_id}\t{decision.leaf}\t{decision.reliability:.6f}\t{verdict}\n")
        decisions.append(decision)
    return lines, decisions, latencies


def read_unlabeled(path: Path) -> list[tuple[str, str]]:
    """(doc_id, text) pairs of a ``doc_id<TAB>text`` file."""
    pairs = []
    for line in path.read_text(encoding="utf-8").splitlines():
        doc_id, text = line.split("\t")
        pairs.append((doc_id, text))
    return pairs


def classify(model_dir: Path, input_path: Path, out_path: Path) -> None:
    model, calibration = load(model_dir)
    lines, _, _ = classify_docs(model, calibration, read_unlabeled(input_path))
    _write(out_path, "".join(lines))
