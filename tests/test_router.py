import json
import math

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import import_perfbench, refuse_json_constant, synthetic_run, vec
from routecat import centroid
from routecat.centroid import CentroidModel, Mode, group_scores, model_identity, node_score, vocabulary_digest
from routecat.corpus import Document, InvertedIndex, SparseVector, TermTable, Vocabulary, load_corpus, scorer, vectorize
from routecat.evaluation import SyntheticSpec, flat_predictions, generate_synthetic, leaf_centroids
from routecat.policies import PolicyKind
from routecat.router import (
    ACCEPT_ALL,
    Calibration,
    CalibrationError,
    EerUndefinedError,
    LevelStep,
    RouteTrace,
    build_calibration,
    check_matching_vocabulary,
    check_pairing,
    classify_with_reject,
    confidence_score,
    decode,
    dumps_calibration,
    eer_threshold,
    loads_calibration,
    reliability,
    with_threshold,
)
from routecat.taxonomy import parse_taxonomy


def model_with_scores(taxonomy_text, centroids, vocab=None):
    """Hand-built model whose node scores are fully controlled by the test."""
    t = parse_taxonomy(taxonomy_text)
    if vocab is None:
        vocab = Vocabulary(index={}, doc_frequency={}, n_docs=1)
    full = {node: centroids.get(node, SparseVector()) for node in t.nodes if node != t.root}
    return CentroidModel(
        taxonomy=t, vocabulary=vocab, mode=Mode.POSITIVE_ONLY, policy=None, centroid_of=full
    )


def test_confidence_score_examples():
    assert confidence_score({"A": 0.6, "B": 0.3, "C": 0.1}, "A") == 0.6
    assert confidence_score({"X": 0.4}, "X") == 1.0
    assert confidence_score({"A": 0.0, "B": 0.0}, "A") == 0.5
    with pytest.raises(ValueError, match="not in its sibling group"):
        confidence_score({"A": 1.0}, "B")


def test_decode_worked_example(t0):
    model = model_with_scores(
        "ROOT\tA\nROOT\tB\nA\tA1\nA\tA2\nB\tB1\n",
        {"A": vec((0, 0.6)), "B": vec((0, 0.2)), "A1": vec((0, 0.5))},
    )
    trace = decode(model, vec((0, 1.0)))
    assert trace.route == ("A", "A1")
    assert [s.confidence for s in trace.steps] == [pytest.approx(0.75), pytest.approx(1.0)]
    assert trace.steps[0].group_scores == {"A": 0.6, "B": 0.2}
    assert trace.steps[1].group_scores == {"A1": 0.5, "A2": 0.0}
    assert [s.chosen for s in trace.steps] == list(trace.route)


def test_decode_zero_scores_fall_back_to_first_child():
    model = model_with_scores("R\ta\nR\tb\nR\tc\nR\td\n", {})
    trace = decode(model, vec((0, 1.0)))
    assert trace.route == ("a",)
    assert trace.steps[0].confidence == 0.25


def test_decode_depth_one_equals_flat_argmax():
    run = synthetic_run(SyntheticSpec(depth=1, branching=5, docs_per_leaf=20, noise_fraction=0.2, seed=3), 0.2, 0.3)
    t, vocab = run.model.taxonomy, run.model.vocabulary
    vectors = [vectorize(doc, vocab) for doc in run.split.test]
    flats = flat_predictions(leaf_centroids(run.split.train, t, vocab), vectors, t)
    for d, flat_leaf in zip(vectors, flats):
        trace = decode(run.model, d)
        assert len(trace.route) == 1
        assert trace.route[-1] == flat_leaf


def node_score_decode(model, d):
    """The specification of :func:`decode`: every group member scored by its own ``node_score`` call."""
    t = model.taxonomy
    group = t.children(t.root)
    route, steps = [], []
    while group:
        scores = {node: node_score(model, d, node) for node in group}
        chosen = group[0]
        for node in group[1:]:
            if scores[node] > scores[chosen]:
                chosen = node
        route.append(chosen)
        steps.append(LevelStep(chosen=chosen, group_scores=scores, confidence=confidence_score(scores, chosen)))
        group = t.children(chosen)
    return RouteTrace(route=tuple(route), steps=tuple(steps))


BINARY_SIBLINGS_SPEC = SyntheticSpec(depth=2, branching=4, docs_per_leaf=6, tokens_per_doc=12, noise_fraction=0.75, seed=5)


def test_decode_equals_the_node_score_reference_on_a_binary_siblings_corpus():
    run = synthetic_run(BINARY_SIBLINGS_SPEC, 0.2, 0.2, mode=Mode.BINARY, policy=PolicyKind.SIBLINGS)
    _, corpus_text = generate_synthetic(BINARY_SIBLINGS_SPEC)
    docs = load_corpus(corpus_text, run.model.taxonomy)
    for doc in docs:
        d = vectorize(doc, run.model.vocabulary)
        trace = decode(run.model, d)
        # traces hold every group score and confidence, so == compares each float
        assert trace == node_score_decode(run.model, d)


BENCH = import_perfbench("workloads")
# the kernel each benchmark workload's flat baseline gets
BENCH_LEAF_KERNEL = {"docs-heavy": TermTable, "node-heavy": InvertedIndex, "binary-siblings": InvertedIndex}


@pytest.mark.parametrize("workload", sorted(BENCH.WORKLOADS))
def test_scorer_gives_bench_leaves_their_kernel_and_every_sibling_group_dense_rows(workload):
    # the workload's corpus (seed 0), trained with its flags and split by the benchmark's fractions
    w = BENCH.WORKLOADS[workload]
    spec = SyntheticSpec(
        depth=w.depth, branching=w.branching, docs_per_leaf=w.docs_per_leaf, tokens_per_doc=w.tokens_per_doc,
        noise_fraction=w.noise,
    )
    flags = dict(zip(w.train_flags()[::2], w.train_flags()[1::2]))
    training = {"mode": Mode(flags["--mode"]), "policy": PolicyKind(flags["--policy"])} if flags else {}
    model = synthetic_run(spec, BENCH.VAL_FRACTION, BENCH.TEST_FRACTION, **training).model
    t = model.taxonomy
    # leaf fills: docs-heavy 0.28, binary-siblings 0.036, node-heavy 0.006
    assert type(scorer([model.centroid_of[leaf] for leaf in t.leaves])) is BENCH_LEAF_KERNEL[workload]
    for parent in t.nodes:
        if t.children(parent):
            group_scores(model, SparseVector(), parent)
    # the sparsest groups are the roots': 0.40, 0.52 and 0.14 full
    assert len(model.group_tables) == len(t.nodes) - len(t.leaves)
    assert {type(table) for table in model.group_tables.values()} == {TermTable}


def test_decode_over_a_wide_sparse_group_on_postings_equals_the_reference_and_the_flat_argmax():
    run = synthetic_run(SyntheticSpec(depth=1, branching=240, docs_per_leaf=3, tokens_per_doc=8, noise_fraction=0.6, seed=2), 0.2, 0.2)
    model, t = run.model, run.model.taxonomy
    vectors = [vectorize(doc, model.vocabulary) for doc in run.split.validation + run.split.test]
    traces = [decode(model, d) for d in vectors]
    assert type(model.group_tables[t.root]) is InvertedIndex
    # traces hold every group score and confidence, so == compares each float
    assert traces == [node_score_decode(model, d) for d in vectors]
    flats = flat_predictions(leaf_centroids(run.split.train, t, model.vocabulary), vectors, t)
    assert [trace.route[-1] for trace in traces] == flats


def test_decode_builds_each_group_table_once_per_model(monkeypatch):
    run = synthetic_run(BINARY_SIBLINGS_SPEC, 0.2, 0.2, mode=Mode.BINARY, policy=PolicyKind.SIBLINGS)
    built = []

    def counting_scorer(vectors):
        built.append(len(vectors))
        return build(vectors)

    build = centroid.scorer
    monkeypatch.setattr(centroid, "scorer", counting_scorer)
    model = centroid.loads_model(centroid.dumps_model(run.model))  # calibration filled run.model's cache
    assert not model.group_tables
    vectors = [vectorize(doc, model.vocabulary) for doc in run.split.test]
    for _ in range(2):
        for d in vectors:
            decode(model, d)
    # the root group and one group per internal node reached; 2 columns per child in binary mode
    assert len(built) == len(model.group_tables) <= 1 + BINARY_SIBLINGS_SPEC.branching
    assert set(built) == {2 * BINARY_SIBLINGS_SPEC.branching}
    assert model.taxonomy.root in model.group_tables


def test_decode_refuses_a_model_lacking_a_centroid():
    model = model_with_scores("R\ta\nR\tb\na\ta1\n", {"a": vec((0, 1.0))})
    # a node below the root group is missing too: the constructor refuses it before decode runs
    with pytest.raises(ValueError, match="no centroid for node 'a1'"):
        CentroidModel(
            taxonomy=model.taxonomy,
            vocabulary=model.vocabulary,
            mode=model.mode,
            policy=None,
            centroid_of={node: c for node, c in model.centroid_of.items() if node != "a1"},
        )


# vocabulary whose idf is positive for every term, so single-term documents
# vectorize to a unit coordinate vector
CAL_VOCAB = Vocabulary(
    index={"ta": 0, "tb": 1, "t1": 2, "t2": 3},
    doc_frequency={"ta": 1, "tb": 1, "t1": 1, "t2": 1},
    n_docs=2,
)

CAL_TAXONOMY = "ROOT\tA\nROOT\tB\nA\tA1\nA\tA2\nA1\tA1a\n"


def calibration_model():
    return model_with_scores(
        CAL_TAXONOMY,
        {
            "A": vec((0, 1.0)),
            "B": vec((1, 1.0)),
            "A1": vec((2, 1.0)),
            "A2": vec((3, 1.0)),
            "A1a": vec((2, 1.0)),
        },
        vocab=CAL_VOCAB,
    )


def test_calibrate_weights_examples():
    model = calibration_model()
    validation = [
        Document("v1", "A1", "ta t1"),
        Document("v2", "A1", "ta t1"),
        Document("v3", "A2", "ta t2"),
        Document("v4", "A1", "ta t2"),  # routed to A2 at depth 2: the one mistake
    ]
    weights = build_calibration(model, validation).level_weights
    assert weights[1] == 1.0
    assert weights[2] == 0.75
    assert weights[3] == 0.0  # nobody's true label reaches depth 3
    assert set(weights) == {1, 2, 3}


def test_calibrate_weights_empty():
    with pytest.raises(ValueError, match="empty validation set"):
        build_calibration(calibration_model(), []).level_weights


def test_reliability_examples():
    steps = decode(
        model_with_scores("R\ta\nR\tb\na\tc\na\td\n", {"a": vec((0, 0.6)), "c": vec((0, 0.5))}),
        vec((0, 1.0)),
    ).steps
    # confidences are (0.6/0.6, 0.5/0.5) = (1.0, 1.0); use crafted weights instead
    assert reliability(steps, {1: 1.0, 2: 0.8}) == pytest.approx(1.8)
    assert reliability(steps, {1: 0.0, 2: 0.0}) == 0.0
    with pytest.raises(CalibrationError, match="depth 2"):
        reliability(steps, {1: 1.0})


def test_reliability_weighted_sum():
    # weights (1.0, 0.8) against confidences (0.6, 0.5) -> 0.6 + 0.4 = 1.0
    from routecat.router import LevelStep

    steps = (
        LevelStep("x", {"x": 3.0, "y": 2.0}, 0.6),
        LevelStep("y", {"y": 1.0, "z": 1.0}, 0.5),
    )
    assert reliability(steps, {1: 1.0, 2: 0.8}) == pytest.approx(1.0)
    assert reliability((steps[0],), {1: 0.9}) == pytest.approx(0.9 * 0.6)


def test_eer_separated_groups():
    tau, gap = eer_threshold([(0.9, True), (0.8, True), (0.7, True), (0.4, False), (0.3, False)])
    assert tau == 0.4
    assert gap == 0.0


def test_eer_fully_overlapping():
    tau, gap = eer_threshold([(0.6, True), (0.6, False)])
    assert tau == 0.6
    assert gap == 1.0


def test_eer_separable_pair():
    tau, gap = eer_threshold([(1.0, True), (0.0, False)])
    assert tau == 0.0
    assert gap == 0.0


def test_eer_undefined():
    with pytest.raises(EerUndefinedError):
        eer_threshold([(0.5, True), (0.6, True)])
    with pytest.raises(EerUndefinedError):
        eer_threshold([(0.5, False)])


def _sweep_oracle(samples):
    """Exhaustive FA/FR sweep over observed scores, midpoints, and sentinels.

    Uses the classifier's accept rule: a sample is accepted iff r > tau.
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


@given(
    st.lists(
        st.tuples(st.floats(min_value=0.0, max_value=3.0), st.booleans()),
        min_size=2,
        max_size=80,
    )
)
# adjacent floats: their midpoint rounds onto the smaller one
@example([(0.0, True), (5e-324, False)])
@settings(max_examples=200)
def test_eer_matches_exhaustive_sweep(samples):
    if not any(ok for _, ok in samples) or all(ok for _, ok in samples):
        return
    tau, gap = eer_threshold(samples)
    gaps = _sweep_oracle(samples)
    assert gap == min(gaps.values())
    assert all(gaps[tau] <= g for g in gaps.values())


@given(
    st.dictionaries(
        st.sampled_from(["a", "b", "c", "d", "e"]),
        st.floats(min_value=0.0, max_value=10.0),
        min_size=1,
        max_size=5,
    )
)
def test_confidence_scores_sum_to_one(group):
    total = math.fsum(confidence_score(group, member) for member in group)
    assert total == pytest.approx(1.0, abs=1e-9)


@given(
    st.dictionaries(
        st.sampled_from(["a", "b", "c", "d"]),
        st.floats(min_value=0.0, max_value=10.0),
        min_size=1,
        max_size=4,
    ),
    st.floats(min_value=1e-6, max_value=1e6),
)
def test_confidence_argmax_invariant_under_scaling(group, factor):
    def argmax(scores):
        best = None
        for node, score in scores.items():
            if best is None or score > scores[best]:
                best = node
        return best

    scaled = {k: v * factor for k, v in group.items()}
    chosen = argmax(group)
    assert argmax(scaled) == chosen
    assert confidence_score(scaled, chosen) == pytest.approx(confidence_score(group, chosen), abs=1e-9)


def test_classify_accept_reject_boundary():
    model = model_with_scores("R\tA\nR\tB\n", {"A": vec((0, 0.9)), "B": vec((0, 0.1))})
    d = vec((0, 1.0))
    weights = {1: 1.0}

    accepted = classify_with_reject(model, Calibration(weights, 0.5, 0.0, 1), d)
    assert accepted.accepted and accepted.leaf == "A"
    assert accepted.reliability == pytest.approx(0.9)

    boundary = classify_with_reject(model, Calibration(weights, accepted.reliability, 0.0, 1), d)
    assert not boundary.accepted  # strictly-greater rule

    zero_weights = classify_with_reject(model, Calibration({1: 0.0}, ACCEPT_ALL, 0.0, 1), d)
    assert zero_weights.accepted
    assert zero_weights.reliability == 0.0


@given(st.lists(st.floats(min_value=0.0, max_value=2.0), min_size=1, max_size=20))
def test_raising_threshold_never_accepts_more(rels):
    taus = sorted({-math.inf, 0.0, 0.5, 1.0, math.inf} | set(rels))
    for lo, hi in zip(taus, taus[1:]):
        for rel in rels:
            if rel > hi:  # accepted at the higher threshold
                assert rel > lo  # must be accepted at the lower one too


def test_reliability_bounded_by_weight_sum():
    run = synthetic_run(SyntheticSpec(depth=3, branching=3, docs_per_leaf=10, noise_fraction=0.3, seed=5), 0.2, 0.2)
    weight_sum = math.fsum(run.calibration.level_weights.values())
    assert weight_sum <= run.model.taxonomy.max_depth
    for doc in run.split.test:
        decision = classify_with_reject(run.model, run.calibration, vectorize(doc, run.model.vocabulary))
        assert 0.0 <= decision.reliability <= weight_sum + 1e-9


def test_build_calibration_all_correct_accepts_everything():
    model = calibration_model()
    validation = [Document("v1", "A1", "ta t1"), Document("v2", "A2", "ta t2")]
    cal = build_calibration(model, validation)
    assert cal.source == "eer-all-correct"
    assert cal.threshold == -math.inf
    assert cal.validation_size == 2


def test_build_calibration_all_incorrect_rejects_everything():
    model = calibration_model()
    validation = [Document("v1", "A2", "ta t1"), Document("v2", "A1", "ta t2")]
    cal = build_calibration(model, validation)
    assert cal.source == "eer-all-incorrect"
    assert cal.threshold == math.inf


def test_build_calibration_manual_and_accept_all():
    model = calibration_model()
    validation = [Document("v1", "A1", "ta t1"), Document("v2", "A1", "ta t2")]
    manual = build_calibration(model, validation, 0.5)
    assert manual.source == "manual" and manual.threshold == 0.5
    everything = build_calibration(model, validation, ACCEPT_ALL)
    assert everything.source == "accept-all" and everything.threshold == -math.inf
    assert build_calibration(model, validation, math.inf).source == "manual"


def test_calibration_round_trip():
    cal = Calibration(level_weights={1: 1.0, 2: 0.75}, threshold=-math.inf, eer_gap=0.25, validation_size=9, source="manual")
    text = dumps_calibration(cal, "abc123")
    loaded, digest = loads_calibration(text)
    assert loaded == cal
    assert digest == "abc123"
    assert dumps_calibration(loaded, digest) == text


def test_calibration_version_and_digest_checks(t0, t0_docs):
    from routecat.corpus import build_vocabulary
    from routecat.centroid import train

    text = dumps_calibration(Calibration({1: 1.0}, 0.5, 0.0, 3), "bogus")
    for version in (7, 1):
        with pytest.raises(CalibrationError, match=f"unsupported calibration format version {version}, expected 2"):
            loads_calibration(text.replace('"format_version":2', f'"format_version":{version}'))
    model = train(t0_docs, t0, build_vocabulary(t0_docs))
    cal, digest = loads_calibration(text)
    with pytest.raises(CalibrationError, match="vocabulary mismatch"):
        check_matching_vocabulary(model, digest)
    check_matching_vocabulary(model, vocabulary_digest(model.vocabulary))


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("level_weights", None, "no field 'level_weights'"),
        ("level_weights", [], "malformed"),
        ("threshold", "high", "malformed"),
        ("validation_size", None, "no field 'validation_size'"),
        ("source", 1, "must be strings"),
        ("vocabulary_digest", None, "no field 'vocabulary_digest'"),
        ("vocabulary_digest", 7, "must be strings"),
        # values JSON has typed are checked, not converted
        ("level_weights", {"1": "0.5"}, "level weight 1 must be a finite float"),
        ("level_weights", {"1": True}, "level weight 1 must be a finite float"),
        ("level_weights", {"01": 1.0}, "'01' is not a depth"),
        ("eer_gap", "0.25", "eer_gap must be a finite float"),
        ("eer_gap", math.nan, "eer_gap must be a finite float"),
        ("validation_size", 3.7, "validation_size must be an integer"),
        ("validation_size", True, "validation_size must be an integer"),
        # values build_calibration never writes: weights and the gap are rates, the size counts documents
        ("level_weights", {"1": 5.0}, r"level weight 1 must lie in \[0, 1\]"),
        ("level_weights", {"1": -3.0}, r"level weight 1 must lie in \[0, 1\]"),
        ("eer_gap", -7.5, r"eer_gap must lie in \[0, 1\]"),
        ("eer_gap", 1.5, r"eer_gap must lie in \[0, 1\]"),
        ("validation_size", -2, "validation_size must be at least 1"),
        ("validation_size", 0, "validation_size must be at least 1"),
        ("model_identity", None, "no field 'model_identity'"),
        ("model_identity", 7, "must be strings"),
    ],
)
def test_calibration_fields_are_validated(field, value, message):
    payload = json.loads(dumps_calibration(Calibration({1: 1.0}, 0.5, 0.0, 3), "abc123"))
    if value is None:
        del payload[field]
    else:
        payload[field] = value
    with pytest.raises(CalibrationError, match=message):
        loads_calibration(json.dumps(payload))


def test_calibration_records_the_identity_of_its_model():
    model = calibration_model()
    validation = [Document("v1", "A1", "ta t1"), Document("v2", "B", "tb")]
    cal = build_calibration(model, validation)
    assert cal.model_identity == model_identity(model)
    assert with_threshold(cal, 0.5).model_identity == cal.model_identity
    loaded, digest = loads_calibration(dumps_calibration(cal, vocabulary_digest(model.vocabulary)))
    assert loaded == cal
    check_pairing(model, loaded, digest)


def _variant(model, **fields):
    kept = dict(
        taxonomy=model.taxonomy,
        vocabulary=model.vocabulary,
        mode=model.mode,
        policy=model.policy,
        centroid_of=model.centroid_of,
        negative_centroid_of=model.negative_centroid_of,
        training_digest=model.training_digest,
    )
    return CentroidModel(**(kept | fields))


def test_model_identity_covers_training_documents_taxonomy_mode_and_policy():
    model = calibration_model()
    binary = _variant(
        model, mode=Mode.BINARY, policy=PolicyKind.SIBLINGS, negative_centroid_of=dict.fromkeys(model.centroid_of, vec())
    )
    variants = [
        model,
        _variant(model, training_digest="0" * 64),
        _variant(
            model, taxonomy=parse_taxonomy(CAL_TAXONOMY + "B\tB1\n"), centroid_of=model.centroid_of | {"B1": vec()}
        ),
        binary,
        _variant(binary, policy=PolicyKind.EXCLUSIVE),
    ]
    assert len({model_identity(m) for m in variants}) == len(variants)
    # the centroids follow from those four, so other centroid vectors on the same nodes are not hashed again
    assert model_identity(_variant(model, centroid_of=dict.fromkeys(model.centroid_of, vec()))) == model_identity(model)


def test_check_pairing_refuses_another_model():
    model = calibration_model()
    digest = vocabulary_digest(model.vocabulary)
    cal = build_calibration(model, [Document("v1", "A1", "ta t1"), Document("v2", "B", "tb")])
    other = _variant(model, training_digest="0" * 64)  # same vocabulary, other training documents
    with pytest.raises(CalibrationError, match="model mismatch"):
        check_pairing(other, cal, digest)
    with pytest.raises(CalibrationError, match="vocabulary mismatch"):
        check_pairing(model, cal, "bogus")


def test_check_pairing_refuses_a_calibration_lacking_a_depth():
    model = calibration_model()  # max depth 3
    digest = vocabulary_digest(model.vocabulary)
    cal = build_calibration(model, [Document("v1", "A1", "ta t1"), Document("v2", "B", "tb")])
    assert set(cal.level_weights) == {1, 2, 3}
    for depth in (1, 3):
        weights = {d: w for d, w in cal.level_weights.items() if d != depth}
        with pytest.raises(CalibrationError, match=f"no weight calibrated for depth {depth}"):
            check_pairing(model, Calibration(weights, cal.threshold, cal.eer_gap, 2, model_identity=cal.model_identity), digest)


def test_with_threshold_replaces_only_threshold():
    cal = Calibration({1: 1.0}, 0.5, 0.1, 4)
    out = with_threshold(cal, 0.9)
    assert out.threshold == 0.9 and out.source == "manual"
    assert out.level_weights == cal.level_weights and out.eer_gap == cal.eer_gap
    everything = with_threshold(cal, -math.inf)
    assert everything.threshold == ACCEPT_ALL and everything.source == "accept-all"


@pytest.mark.parametrize(
    "threshold, source, written",
    [
        (-math.inf, "accept-all", '"threshold":"-inf"'),
        (-math.inf, "eer-all-correct", '"threshold":"-inf"'),
        (math.inf, "eer-all-incorrect", '"threshold":"inf"'),
        (0.7331760453985413, "eer", '"threshold":0.7331760453985413'),
    ],
)
def test_calibration_json_is_standard_and_round_trips(threshold, source, written):
    cal = Calibration({1: 1.0, 2: 0.5}, threshold, 0.0, 3, source)
    text = dumps_calibration(cal, "abc123")
    json.loads(text, parse_constant=refuse_json_constant)
    assert written in text
    assert loads_calibration(text) == (cal, "abc123")


@pytest.mark.parametrize(
    "value", ["NaN", "-Infinity", "Infinity", '"nan"', '"0.5"', "true", pytest.param("1" + "0" * 400, id="1e400-int")]
)
def test_calibration_refuses_a_nan_or_non_numeric_threshold(value):
    text = dumps_calibration(Calibration({1: 1.0}, 0.5, 0.0, 3), "abc123")
    with pytest.raises(CalibrationError, match="malformed"):
        loads_calibration(text.replace('"threshold":0.5', f'"threshold":{value}'))


def test_nan_threshold_is_refused():
    model = calibration_model()
    validation = [Document("v1", "A1", "ta t1"), Document("v2", "A2", "ta t1")]
    with pytest.raises(ValueError, match="NaN"):
        build_calibration(model, validation, math.nan)
    with pytest.raises(ValueError, match="NaN"):
        with_threshold(build_calibration(model, validation), math.nan)
