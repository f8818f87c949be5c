import dataclasses
import random
import re
import sys
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import reference
from conftest import random_labeled_docs, random_taxonomy, sparse, synthetic_run, vec
from routecat import corpus, evaluation
from routecat.corpus import Document, SparseVector, load_corpus, split_corpus, build_vocabulary, vectorize
from routecat.centroid import train
from routecat.evaluation import (
    ComparisonRow,
    EvalSummary,
    SummaryRow,
    comparison_csv,
    evaluate,
    flat_accuracy,
    flat_baseline,
    flat_predictions,
    leaf_centroids,
    render_report,
    report_rows,
    summarize,
    summary_csv,
    train_and_calibrate,
)
from routecat.policies import Mode, PolicyKind
from routecat.router import ACCEPT_ALL, build_calibration, classify_with_reject
from routecat.synthetic import SyntheticSpec, generate_synthetic
from routecat.taxonomy import parse_taxonomy


def test_summarize_boosted_accuracy():
    # 100 docs, 90 accepted of which 81 correct, 10 rejected (6 wrong, 4 right)
    outcomes = [(True, True)] * 81 + [(False, True)] * 9 + [(False, False)] * 6 + [(True, False)] * 4
    s = summarize(outcomes)
    assert s.total == 100 and s.accepted == 90 and s.rejected == 10
    assert s.true_rejections == 6 and s.false_rejections == 4
    assert s.boosted_accuracy == pytest.approx(0.9)
    assert s.overall_accuracy == pytest.approx(0.85)
    assert s.accuracy_boost == pytest.approx(5.0)


def test_summarize_counting_identities():
    outcomes = [(True, True)] * 7 + [(False, True)] * 2 + [(True, False)] * 3 + [(False, False)] * 5
    s = summarize(outcomes)
    assert s.accepted + s.rejected == s.total
    assert s.true_rejections + s.false_rejections == s.rejected
    assert s.boosted_accuracy * s.accepted == pytest.approx(s.correct_total - s.false_rejections, abs=1e-9)


def test_summarize_zero_rejections():
    s = summarize([(True, True)] * 3 + [(False, True)])
    assert s.rejected == 0
    assert s.boosted_accuracy == s.overall_accuracy
    assert s.accuracy_boost == 0.0


def test_summarize_zero_accepted():
    s = summarize([(True, False), (False, False)])
    assert s.accepted == 0
    assert s.boosted_accuracy == 0.0


def test_summarize_empty():
    with pytest.raises(ValueError, match="empty test set"):
        summarize([])


def _table2_topics_row():
    # the published rejection-report row this renderer must be able to reproduce
    return EvalSummary(
        total=781265,
        accepted=780525,
        rejected=740,
        true_rejections=652,
        false_rejections=88,
        correct_total=313826,
        correct_accepted=313738,
        overall_accuracy=0.401,
        boosted_accuracy=0.483,
        accuracy_boost=8.2,
    )


def test_summary_csv_table_row():
    text = summary_csv([SummaryRow("topics", _table2_topics_row())])
    lines = text.splitlines()
    assert lines[0] == "problem,rejected,TR,FR,accuracy_boost"
    assert lines[1] == "topics,740,652,88,8.2"


def test_summary_csv_zero_boost():
    s = summarize([(True, True)] * 4)
    assert summary_csv([SummaryRow("p", s)]).splitlines()[1] == "p,0,0,0,0.0"


def test_summary_csv_round_trip():
    s = summarize([(True, True)] * 13 + [(False, True)] * 4 + [(False, False)] * 2 + [(True, False)])
    line = summary_csv([SummaryRow("x", s)]).splitlines()[1]
    problem, rejected, tr, fr, boost = line.split(",")
    assert problem == "x"
    assert int(rejected) == s.rejected
    assert int(tr) == s.true_rejections
    assert int(fr) == s.false_rejections
    assert float(boost) == s.accuracy_boost


def test_comparison_csv_table_row():
    text = comparison_csv([ComparisonRow("topics", flat=41.2, lcn=40.1, proposed=47.5)])
    lines = text.splitlines()
    assert lines[0] == "problem,flat,LCN,proposed"
    assert lines[1] == "topics,41.2,40.1,47.5"


def test_render_report_sections():
    srow = SummaryRow("topics", _table2_topics_row())
    crow = ComparisonRow("topics", flat=41.2, lcn=40.1, proposed=47.5)
    full = render_report([srow], [crow])
    assert "Rejection summary" in full
    assert "topics,740,652,88,8.2" in full
    assert "Method comparison" in full
    assert "topics,41.2,40.1,47.5" in full


@pytest.mark.parametrize(
    "name, shown",
    [
        ("news\nwire", r"news\nwire"),
        ("news\r\nwire", r"news\r\nwire"),
        ("news\twire", r"news\twire"),
        ("news\x85wire", r"news\x85wire"),
        ("news\u2028wire", r"news\u2028wire"),
        ("nouvelles fraîches", "nouvelles fraîches"),
    ],
)
def test_render_report_escapes_control_characters_in_table_rows_only(name, shown):
    srow = SummaryRow(name, _table2_topics_row())
    crow = ComparisonRow(name, flat=41.2, lcn=40.1, proposed=47.5)
    lines = render_report([srow], [crow]).split("\n")
    summary_row = lines[lines.index("Rejection summary") + 2]
    comparison_row = lines[lines.index("Method comparison (recognition rate, %)") + 2]
    assert summary_row.startswith(shown) and summary_row.endswith("8.20")
    assert comparison_row.startswith(shown) and comparison_row.endswith("47.5")
    report = "\n".join(lines)
    assert summary_csv([srow]) in report and comparison_csv([crow]) in report


def test_evaluate_accept_all_matches_overall():
    run = synthetic_run(SyntheticSpec(depth=2, branching=3, docs_per_leaf=20, noise_fraction=0.4, seed=2), 0.2, 0.3)
    cal = dataclasses.replace(run.calibration, threshold=ACCEPT_ALL)
    s = evaluate(run.model, cal, run.split.test)
    assert s.rejected == 0
    assert s.boosted_accuracy == s.overall_accuracy
    assert s.accuracy_boost == 0.0


def test_evaluate_internal_label_counts_route_coverage(t0, t0_docs):
    # a document labeled at internal node A is correct whenever the route
    # passes through A, whichever of A's leaves it lands on
    from routecat.corpus import Document

    train_docs = t0_docs
    vocab = build_vocabulary(train_docs)
    model = train(train_docs, t0, vocab)
    cal = build_calibration(model, [Document("v", "A1", "alpha one")])
    s = evaluate(model, cal, [Document("q", "A", "alpha one")])
    assert s.correct_total == 1


def test_evaluate_empty():
    run = synthetic_run(SyntheticSpec(depth=1, branching=2, docs_per_leaf=5, seed=0), 0.2, 0.2)
    with pytest.raises(ValueError, match="empty test set"):
        evaluate(run.model, run.calibration, [])


def test_flat_baseline_counts_a_label_on_the_predicted_leafs_path():
    # the rule a route is scored by: d2, labeled at A, is right when the flat prediction is A's leaf A1
    tax = parse_taxonomy("R\tA\nA\tA1\n")
    docs = [Document("d1", "A1", "aa bb"), Document("d2", "A", "aa cc")]
    assert flat_baseline(docs, docs, tax, build_vocabulary(docs)) == 1.0


def test_flat_baseline_refuses_an_empty_test_set():
    run = synthetic_run(SyntheticSpec(depth=1, branching=2, docs_per_leaf=5, seed=0), 0.2, 0.2)
    with pytest.raises(ValueError, match="empty test set"):
        flat_baseline(run.split.train, [], run.model.taxonomy, run.model.vocabulary)


def test_generate_synthetic_counts():
    spec = SyntheticSpec(depth=1, branching=2, docs_per_leaf=5, seed=0)
    tax_text, corpus_text = generate_synthetic(spec)
    t = parse_taxonomy(tax_text)
    assert len(t.leaves) == 2
    docs = load_corpus(corpus_text, t)
    assert len(docs) == 10


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"depth": 0}, "^depth must be >= 1$"),
        ({"branching": 0}, "^branching must be >= 1$"),
        ({"docs_per_leaf": -1}, "^docs_per_leaf must be >= 1$"),
        ({"vocab_per_topic": 0}, "^vocab_per_topic must be >= 1$"),
        ({"noise_vocab_size": 0}, "^noise_vocab_size must be >= 1$"),
        ({"tokens_per_doc": 0}, "^tokens_per_doc must be >= 1$"),
        ({"noise_fraction": 1.0}, r"^noise_fraction must lie in \[0, 1\)$"),
        ({"noise_fraction": -0.1}, r"^noise_fraction must lie in \[0, 1\)$"),
        ({"seed": -1}, r"^seed must lie in 0\.\.2\*\*64-1, not -1$"),
        ({"seed": 2**64}, r"^seed must lie in 0\.\.2\*\*64-1, not 18446744073709551616$"),
        ({"depth": 2.0}, r"^depth must be an integer, not 2\.0$"),
        ({"tokens_per_doc": True}, "^tokens_per_doc must be an integer, not True$"),
        *(
            ({"noise_fraction": value}, f"^{re.escape(f'noise_fraction must be a number, not {value!r}')}$")
            for value in ("0.5", False, Fraction(1, 2), Decimal("0.5"))
        ),
    ],
)
def test_synthetic_spec_refuses_what_generate_synthetic_cannot_build(changes, message):
    # each constructed, and generate_synthetic refused it only once a corpus was asked for, or failed inside range();
    # a str failed in the range check with a bare TypeError, and False was noise 0
    with pytest.raises(ValueError, match=message):
        SyntheticSpec(**{"depth": 1, "branching": 2, "docs_per_leaf": 5, **changes})


@pytest.mark.parametrize("seed", [1.5, True])
def test_synthetic_spec_refuses_a_seed_that_is_not_an_int(seed):
    # 1.5 failed at the first draw, and True generated the corpus of seed 1
    with pytest.raises(TypeError, match=f"^seed must be an integer, not {seed}$"):
        SyntheticSpec(depth=1, branching=2, docs_per_leaf=5, seed=seed)


def test_noise_free_flat_accuracy_is_perfect():
    spec = SyntheticSpec(depth=2, branching=3, docs_per_leaf=10, noise_fraction=0.0, seed=6)
    tax_text, corpus_text = generate_synthetic(spec)
    t = parse_taxonomy(tax_text)
    docs = load_corpus(corpus_text, t)
    split = split_corpus(docs, 0.2, 0.3, seed=6)
    vocab = build_vocabulary(split.train)
    assert flat_baseline(split.train, split.test, t, vocab) == 1.0


def test_flat_argmax_returns_the_first_of_tied_leaves():
    tax = parse_taxonomy("R\tb\nR\ta\nR\tc\n")
    docs = [Document("d1", "b", "xx yy"), Document("d2", "a", "xx zz"), Document("d3", "c", "zz ww")]
    vocab = build_vocabulary(docs)
    xx, yy, zz, ww = map(vocab.terms.index, ("xx", "yy", "zz", "ww"))
    same = vec((xx, 0.5), (zz, 0.25))
    centroids = {"b": same, "a": same, "c": vec((ww, 1.0))}
    queries = [Document("q1", "b", "xx"), Document("q2", "b", "yy"), Document("q3", "c", "ww zz")]
    # q1 ties b and a, q2 scores 0 everywhere, q3 prefers c (1.0 + 0.25 against 0.25)
    assert flat_predictions(centroids, [vectorize(q, vocab) for q in queries], tax) == ["b", "b", "c"]


@pytest.mark.parametrize("policy", [None, *PolicyKind])
def test_model_leaf_centroids_equal_the_retrained_ones(policy):
    mode = Mode.POSITIVE_ONLY if policy is None else Mode.BINARY
    spec = SyntheticSpec(depth=2, branching=3, docs_per_leaf=12, noise_fraction=0.5, seed=7)
    tax_text, corpus_text = generate_synthetic(spec)
    synthetic = parse_taxonomy(tax_text)
    rng = random.Random(11)
    random_tax = random_taxonomy(rng)
    # the random corpus labels internal nodes too, which a leaf centroid must not average in
    for t, docs in ((synthetic, load_corpus(corpus_text, synthetic)), (random_tax, random_labeled_docs(rng, random_tax))):
        vocab = build_vocabulary(docs)
        model = train(docs, t, vocab, mode=mode, policy=policy)
        retrained = leaf_centroids(docs, t, vocab)
        expected = reference.flat_centroids(docs, t, reference.vocabulary(docs))
        assert list(retrained) == list(t.leaves) == list(expected)
        for leaf in t.leaves:
            assert model.centroid_of[leaf] == retrained[leaf] == sparse(expected[leaf])


def test_report_rows_reads_no_training_document(monkeypatch):
    run = synthetic_run(SyntheticSpec(depth=2, branching=3, docs_per_leaf=15, noise_fraction=0.6, seed=3), 0.2, 0.3)
    expected = report_rows("p", run.model, run.calibration, run.split)
    test_ids = {doc.doc_id for doc in run.split.test}
    vectorize = evaluation.vectorize

    def test_docs_only(doc, vocab):
        assert doc.doc_id in test_ids
        return vectorize(doc, vocab)

    def forbidden(*args):
        raise AssertionError("the flat baseline retrained or called SparseVector.dot")

    monkeypatch.setattr(evaluation, "vectorize", test_docs_only)
    monkeypatch.setattr(evaluation, "mean_vector", forbidden)
    without_train = dataclasses.replace(run.split, train=())
    assert report_rows("p", run.model, run.calibration, without_train) == expected
    monkeypatch.setattr(SparseVector, "dot", forbidden)
    vectors = [vectorize(doc, run.model.vocabulary) for doc in run.split.test]
    flat = flat_accuracy(run.model.centroid_of, run.split.test, vectors, run.model.taxonomy)
    assert 100.0 * flat == expected[1][0].flat


@pytest.mark.parametrize("training", [{}, {"mode": Mode.BINARY, "policy": PolicyKind.SIBLINGS}])
def test_train_and_calibrate_tokenizes_each_document_once(monkeypatch, training):
    spec = SyntheticSpec(depth=2, branching=3, docs_per_leaf=20, noise_fraction=0.3, seed=4)
    taxonomy_text, corpus_text = generate_synthetic(spec)
    taxonomy = parse_taxonomy(taxonomy_text)
    docs = load_corpus(corpus_text, taxonomy)
    expected = train_and_calibrate(taxonomy, docs, 0.2, 0.3, 4, **training)
    tokenized, vectorized = [], []
    tokenize_one, vectorize_one = corpus.tokenize, corpus.vectorize

    def counting_tokenize(text):
        tokenized.append(text)
        return tokenize_one(text)

    def counting_vectorize(doc, vocab):
        vectorized.append(doc.doc_id)
        return vectorize_one(doc, vocab)

    monkeypatch.setattr(corpus, "tokenize", counting_tokenize)
    # every routecat module that bound vectorize by name
    for module in [m for name, m in sys.modules.items() if name.startswith("routecat")]:
        if getattr(module, "vectorize", None) is vectorize_one:
            monkeypatch.setattr(module, "vectorize", counting_vectorize)
    run = train_and_calibrate(taxonomy, docs, 0.2, 0.3, 4, **training)
    assert (run.model, run.calibration) == (expected.model, expected.calibration)
    # one pass over the training text builds the vocabulary and the training vectors; only validation is vectorized
    assert len(tokenized) == len(run.split.train) + len(run.split.validation)
    assert sorted(vectorized) == sorted(doc.doc_id for doc in run.split.validation)


def test_report_rows_vectorizes_each_test_document_once(monkeypatch):
    run = synthetic_run(SyntheticSpec(depth=2, branching=3, docs_per_leaf=20, seed=1), 0.2, 0.3)
    expected = report_rows("p", run.model, run.calibration, run.split)
    calls = []
    vectorize_one = evaluation.vectorize

    def counting_vectorize(doc, vocab):
        calls.append(doc.doc_id)
        return vectorize_one(doc, vocab)

    monkeypatch.setattr(evaluation, "vectorize", counting_vectorize)
    # the hierarchical route and the flat baseline score the same vectors
    assert report_rows("p", run.model, run.calibration, run.split) == expected
    assert sorted(calls) == sorted(doc.doc_id for doc in run.split.test)


def reversing(names, prefix):
    """A bijection of ``names`` onto new names whose sorted order is the reverse of theirs."""
    ordered = sorted(set(names))
    return {name: f"{prefix}{len(ordered) - i:06d}" for i, name in enumerate(ordered)}


def renamed(taxonomy_text, corpus_text):
    """Both texts with every node id and doc id renamed by :func:`reversing`, in their own line order; and the node map."""
    edges = [line.split("\t") for line in taxonomy_text.splitlines()]
    rows = [line.split("\t") for line in corpus_text.splitlines()]
    node = reversing((name for edge in edges for name in edge), "n")
    doc = reversing((doc_id for doc_id, _, _ in rows), "d")
    return (
        "".join(f"{node[parent]}\t{node[child]}\n" for parent, child in edges),
        "".join(f"{doc[doc_id]}\t{node[label]}\t{text}\n" for doc_id, label, text in rows),
        node,
    )


def run_and_decide(taxonomy_text, corpus_text, seed, training):
    """The calibration, both report CSVs, and the decision on every document of the corpus and on one of no known term.

    The last one scores 0 in every group, so each of its steps is a tie that goes to the first child.
    """
    taxonomy = parse_taxonomy(taxonomy_text)
    docs = load_corpus(corpus_text, taxonomy)
    run = train_and_calibrate(taxonomy, docs, 0.2, 0.3, seed, **training)
    summary_rows, comparison_rows = report_rows("synthetic", run.model, run.calibration, run.split)
    unknown = Document("unknown", "", "no known term")
    decisions = [
        classify_with_reject(run.model, run.calibration, vectorize(doc, run.model.vocabulary)) for doc in [*docs, unknown]
    ]
    return run.calibration, summary_csv(summary_rows), comparison_csv(comparison_rows), decisions


@pytest.mark.parametrize("depth, branching", [(2, 3), (3, 4), (1, 40)])
@pytest.mark.parametrize("training", [
    {},
    {"mode": Mode.BINARY, "policy": PolicyKind.SIBLINGS},
    {"mode": Mode.BINARY, "policy": PolicyKind.INCLUSIVE},
], ids=["positive-only", "binary-siblings", "binary-inclusive"])
def test_node_and_document_names_steer_no_decision(depth, branching, training):
    # no oracle needed: a name that orders, breaks a tie or seeds anything would change some number below
    for seed in (0, 1):
        spec = SyntheticSpec(depth, branching, docs_per_leaf=8, tokens_per_doc=10, noise_fraction=0.6, seed=seed)
        taxonomy_text, corpus_text = generate_synthetic(spec)
        renamed_taxonomy, renamed_corpus, node = renamed(taxonomy_text, corpus_text)
        calibration, summary, comparison, decisions = run_and_decide(taxonomy_text, corpus_text, seed, training)
        calibration2, summary2, comparison2, decisions2 = run_and_decide(
            renamed_taxonomy, renamed_corpus, seed, training
        )
        assert (calibration2.level_weights, calibration2.threshold, calibration2.eer_gap) == (
            calibration.level_weights, calibration.threshold, calibration.eer_gap
        )
        assert (summary2, comparison2) == (summary, comparison)
        assert [(d.leaf, d.accepted, d.reliability) for d in decisions2] == [
            (node[d.leaf], d.accepted, d.reliability) for d in decisions
        ]


@pytest.mark.parametrize("policy", [pytest.param(None, id="positive-only"), *PolicyKind])
@settings(max_examples=20, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from([0.0, 0.1, 0.25, 0.4]),
    st.sampled_from([0.0, 0.1, 0.25, 0.4]),
)
@example(seed=0, val_fraction=0.25, test_fraction=0.25)  # seed 0's 14-node tree and 194 documents
def test_whole_runs_equal_the_reference_bit_for_bit(policy, seed, val_fraction, test_fraction):
    # uneven trees with documents labeled at internal nodes too
    rng = random.Random(seed)
    t = random_taxonomy(rng)
    docs = random_labeled_docs(rng, t)
    training = {} if policy is None else {"mode": Mode.BINARY, "policy": policy}
    split = (val_fraction, test_fraction, seed)
    try:
        expected = reference.train_and_calibrate(t, docs, *split, **training)
    except ValueError:  # no training or no validation document
        with pytest.raises(ValueError):
            train_and_calibrate(t, docs, *split, **training)
        return
    run = train_and_calibrate(t, docs, *split, **training)
    model, calibration = run.model, run.calibration

    assert model.centroid_of == {node: sparse(c) for node, c in expected.model.centroids.items()}
    negatives = expected.model.negatives
    assert model.negative_centroid_of == (None if negatives is None else {n: sparse(c) for n, c in negatives.items()})
    weights = dict(enumerate(calibration.level_weights, start=1))
    assert (weights, calibration.threshold, calibration.eer_gap, calibration.source) == (
        expected.level_weights, expected.threshold, expected.eer_gap, expected.source
    )

    try:
        expected_summary, expected_rates = reference.report(expected)
    except ValueError:  # no test document
        with pytest.raises(ValueError):
            report_rows("p", model, calibration, run.split)
    else:
        [summary_row], [comparison] = report_rows("p", model, calibration, run.split)
        assert dataclasses.asdict(summary_row.summary) == expected_summary
        assert (comparison.flat, comparison.lcn, comparison.proposed) == expected_rates

    # every step of the document of no known term is a tie among zero scores
    for doc in [*docs, Document("unknown", "", "no known term")]:
        decision = classify_with_reject(model, calibration, vectorize(doc, model.vocabulary))
        d = reference.vectorize(doc.text, expected.vocabulary)
        leaf, accepted, reliability = reference.decide(expected.model, expected.level_weights, expected.threshold, d)
        assert (decision.leaf, decision.accepted, decision.reliability.hex()) == (leaf, accepted, reliability.hex())
