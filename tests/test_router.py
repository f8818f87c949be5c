import json
import math
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

import reference
from conftest import (
    PERFBENCH, entries, import_script, refuse_json_constant, sparse, synthetic_run, vec, vocabulary_of_size,
)
from routecat import centroid
from routecat.centroid import CentroidModel, group_scores, model_identity, vocabulary_digest
from routecat.corpus import Document, InvertedIndex, SparseVector, TermTable, Vocabulary, scorer, vectorize
from routecat.evaluation import flat_predictions
from routecat.policies import Mode, PolicyKind
from routecat.router import (
    ACCEPT_ALL,
    Calibration,
    CalibrationError,
    LevelStep,
    build_calibration,
    check_matching_vocabulary,
    check_pairing,
    classify_with_reject,
    confidence,
    decode,
    dumps_calibration,
    eer_threshold,
    loads_calibration,
    reliability,
)
from routecat.synthetic import SyntheticSpec
from routecat.taxonomy import parse_taxonomy


def model_with_scores(taxonomy_text, centroids, vocab=None, negatives=None):
    """Hand-built model whose node scores are fully controlled by the test; binary when ``negatives`` is given."""
    t = parse_taxonomy(taxonomy_text)
    if vocab is None:
        vocab = vocabulary_of_size(1)
    nodes = [node for node in t.nodes if node != t.root]
    full = {node: centroids.get(node, SparseVector()) for node in nodes}
    if negatives is None:
        return CentroidModel(taxonomy=t, vocabulary=vocab, mode=Mode.POSITIVE_ONLY, policy=None, centroid_of=full)
    return CentroidModel(
        taxonomy=t, vocabulary=vocab, mode=Mode.BINARY, policy=PolicyKind.SIBLINGS, centroid_of=full,
        negative_centroid_of={node: negatives.get(node, SparseVector()) for node in nodes},
    )


def reference_model(model):
    """The reference's model of the same taxonomy and centroids, each centroid a dict of weights."""
    negatives = model.negative_centroid_of
    return reference.Model(
        model.taxonomy,
        {node: dict(entries(v)) for node, v in model.centroid_of.items()},
        None if negatives is None else {node: dict(entries(v)) for node, v in negatives.items()},
    )


def test_confidence_examples():
    assert confidence([0.6, 0.3, 0.1], 0.6) == 0.6
    assert confidence([0.4], 0.4) == 1.0
    assert confidence([0.0, 0.0], 0.0) == 0.5


def test_decode_worked_example(t0):
    model = model_with_scores(
        "ROOT\tA\nROOT\tB\nA\tA1\nA\tA2\nB\tB1\n",
        {"A": vec((0, 0.6)), "B": vec((0, 0.2)), "A1": vec((0, 0.5))},
    )
    steps = decode(model, vec((0, 1.0)))
    assert tuple(s.chosen for s in steps) == ("A", "A1") == model.taxonomy.path("A1")
    assert [s.confidence for s in steps] == [pytest.approx(0.75), pytest.approx(1.0)]
    assert (steps[0].group, steps[0].scores) == (("A", "B"), [0.6, 0.2])
    assert (steps[1].group, steps[1].scores) == (("A1", "A2"), [0.5, 0.0])


def test_decode_zero_scores_fall_back_to_first_child():
    model = model_with_scores("R\ta\nR\tb\nR\tc\nR\td\n", {})
    steps = decode(model, vec((0, 1.0)))
    assert [s.chosen for s in steps] == ["a"]
    assert steps[0].confidence == 0.25


# leaves at depths 1 (b), 2 (a2) and 3 (x, y)
UNEVEN_TAXONOMY = "R\ta\nR\tb\na\ta1\na\ta2\na1\tx\na1\ty\n"
UNEVEN_CENTROIDS = {
    "a": vec((0, 0.6), (1, 0.8)), "b": vec((2, 1.0)),
    "a1": vec((0, 1.0)), "a2": vec((1, 0.5), (2, 0.5)),
    "x": vec((1, 1.0)), "y": vec((0, 0.3), (2, 0.9)),
}
UNEVEN_VECTORS = [
    vec((0, 1.0)), vec((1, 1.0)), vec((2, 1.0)), vec((0, 0.6), (2, 0.8)), vec((0, 0.5), (1, 0.5), (2, 0.7)),
    SparseVector(),
]
UNEVEN_CALIBRATION = Calibration(level_weights=(0.9, 0.6, 0.3), threshold=0.8, eer_gap=0.1, validation_size=6)


def uneven_binary_model():
    """The uneven tree in binary mode; the negatives of ``x`` and ``y`` outweigh their centroids, so ``a1``'s group always scores 0."""
    return model_with_scores(
        UNEVEN_TAXONOMY, UNEVEN_CENTROIDS, vocabulary_of_size(3),
        negatives={"b": vec((0, 0.5)), "a2": vec((0, 0.4)), "x": vec((0, 1.0), (1, 1.0), (2, 1.0)),
                   "y": vec((0, 1.0), (1, 1.0), (2, 1.0))},
    )


@pytest.mark.parametrize("case", ["uneven", "uneven-binary"])
def test_classify_with_reject_equals_the_reference_decision(case):
    model = (
        uneven_binary_model() if case == "uneven-binary"
        else model_with_scores(UNEVEN_TAXONOMY, UNEVEN_CENTROIDS, vocabulary_of_size(3))
    )
    expected = reference_model(model)
    weights, threshold = dict(enumerate(UNEVEN_CALIBRATION.level_weights, start=1)), UNEVEN_CALIBRATION.threshold
    verdicts = set()
    for d in UNEVEN_VECTORS:
        decision = classify_with_reject(model, UNEVEN_CALIBRATION, d)
        leaf, accepted, rel = reference.decide(expected, weights, threshold, dict(entries(d)))
        assert (decision.leaf, decision.accepted, decision.reliability.hex()) == (leaf, accepted, rel.hex())
        verdicts.add(accepted)
        # steps hold every group score and confidence, so == compares each float
        assert decode(model, d) == reference.decode(expected, dict(entries(d)))
    assert verdicts == {True, False}


def test_a_binary_group_scoring_all_zero_takes_its_first_child_with_the_uniform_confidence():
    model = uneven_binary_model()
    steps = decode(model, vec((0, 1.0)))
    assert [step.chosen for step in steps] == ["a", "a1", "x"]
    assert (steps[2].group, steps[2].scores) == (("x", "y"), [0.0, 0.0])
    assert steps[2].confidence == 0.5
    assert steps == reference.decode(reference_model(model), {0: 1.0})


BENCH = import_script(PERFBENCH, "workloads")
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
    model, t, train = run.model, run.model.taxonomy, run.split.train
    vectors = [vectorize(doc, model.vocabulary) for doc in run.split.validation + run.split.test]
    decoded = [decode(model, d) for d in vectors]
    assert type(model.group_tables[t.root]) is InvertedIndex
    # steps hold every group score and confidence, so == compares each float
    assert decoded == [reference.decode(reference_model(model), dict(entries(d))) for d in vectors]
    leaf_means = reference.flat_centroids(train, t, reference.vocabulary(train))
    flats = flat_predictions({leaf: sparse(c) for leaf, c in leaf_means.items()}, vectors, t)
    assert [steps[-1].chosen for steps in decoded] == flats
    assert all(tuple(s.chosen for s in steps) == t.path(steps[-1].chosen) for steps in decoded)


BINARY_SIBLINGS_SPEC = SyntheticSpec(depth=2, branching=4, docs_per_leaf=6, tokens_per_doc=12, noise_fraction=0.75, seed=5)


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


# vocabulary whose idf is positive for every term, so single-term documents
# vectorize to a unit coordinate vector
CAL_VOCAB = Vocabulary(
    terms=("ta", "tb", "t1", "t2"),
    doc_frequency=(1, 1, 1, 1),
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
    # depth 2 has the one mistake, and nobody's true label reaches depth 3
    assert build_calibration(model, validation).level_weights == (1.0, 0.75, 0.0)


def test_calibrate_weights_on_an_uneven_tree():
    # A1a lies a level deeper than the leaf A2, so a document labeled A1a can be routed to a leaf above its depth
    model = calibration_model()
    validation = [
        Document("v1", "A1a", "ta t1"),  # routed A, A1, A1a
        Document("v2", "A1a", "ta t2"),  # routed A, A2: its route stops at depth 2
        Document("v3", "A2", "ta t2"),
    ]
    # at depth 3, A1a is reached by v1 only, the decoded leaf A2 of v2 has no depth 3
    assert build_calibration(model, validation).level_weights == (1.0, 2 / 3, 0.5)


def test_calibrate_weights_empty():
    with pytest.raises(ValueError, match="empty validation set"):
        build_calibration(calibration_model(), []).level_weights


def test_reliability_examples():
    steps = decode(
        model_with_scores("R\ta\nR\tb\na\tc\na\td\n", {"a": vec((0, 0.6)), "c": vec((0, 0.5))}),
        vec((0, 1.0)),
    )
    # confidences are (0.6/0.6, 0.5/0.5) = (1.0, 1.0); use crafted weights instead
    assert reliability(steps, (1.0, 0.8)) == pytest.approx(1.8)
    assert reliability(steps, (0.0, 0.0)) == 0.0
    with pytest.raises(CalibrationError, match="depth 2"):
        reliability(steps, (1.0,))


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
    with pytest.raises(ValueError, match="both correct and incorrect"):
        eer_threshold([(0.5, True), (0.6, True)])
    with pytest.raises(ValueError, match="both correct and incorrect"):
        eer_threshold([(0.5, False)])


def test_classify_accept_reject_boundary():
    model = model_with_scores("R\tA\nR\tB\n", {"A": vec((0, 0.9)), "B": vec((0, 0.1))})
    d = vec((0, 1.0))
    weights = (1.0,)

    accepted = classify_with_reject(model, Calibration(weights, 0.5, 0.0, 1), d)
    assert accepted.accepted and accepted.leaf == "A"
    assert accepted.reliability == pytest.approx(0.9)

    boundary = classify_with_reject(model, Calibration(weights, accepted.reliability, 0.0, 1), d)
    assert not boundary.accepted  # strictly-greater rule

    zero_weights = classify_with_reject(model, Calibration((0.0,), ACCEPT_ALL, 0.0, 1), d)
    assert zero_weights.accepted
    assert zero_weights.reliability == 0.0


def test_reliability_bounded_by_weight_sum():
    run = synthetic_run(SyntheticSpec(depth=3, branching=3, docs_per_leaf=10, noise_fraction=0.3, seed=5), 0.2, 0.2)
    weight_sum = math.fsum(run.calibration.level_weights)
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


def test_calibration_keeps_the_weights_it_checked():
    weights = [1.0, 0.5]
    cal = Calibration(level_weights=weights, threshold=0.5, eer_gap=0.0, validation_size=3)
    weights[0] = 7.0  # outside [0, 1], which the constructor refuses
    assert cal.level_weights == (1.0, 0.5)
    assert reliability((LevelStep("x", ("x",), [1.0], 1.0),), cal.level_weights) == 1.0
    with pytest.raises(TypeError):
        cal.level_weights[0] = 7.0


def test_calibration_round_trip():
    cal = Calibration(level_weights=(1.0, 0.75), threshold=-math.inf, eer_gap=0.25, validation_size=9, source="manual")
    text = dumps_calibration(cal, "abc123")
    loaded, digest = loads_calibration(text)
    assert loaded == cal
    assert digest == "abc123"
    assert dumps_calibration(loaded, digest) == text


def test_calibration_version_and_digest_checks(t0, t0_docs):
    from routecat.corpus import build_vocabulary
    from routecat.centroid import train

    text = dumps_calibration(Calibration((1.0,), 0.5, 0.0, 3), "bogus")
    for version in (7, 1, 2):
        with pytest.raises(CalibrationError, match=f"unsupported calibration format version {version}, expected 3"):
            loads_calibration(text.replace('"format_version":3', f'"format_version":{version}'))
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
        ("source", 1, "source must be a string, not 1"),
        ("vocabulary_digest", None, "no field 'vocabulary_digest'"),
        ("vocabulary_digest", 7, "vocabulary_digest must be a string, not 7"),
        # values JSON has typed are checked, not converted
        ("level_weights", ["0.5"], "level weight 1 must be a finite float"),
        ("level_weights", [True], "level weight 1 must be a finite float"),
        # an object, the map format 2 wrote, a string and a number are refused by their type
        ("level_weights", {"1": 0.5}, "^malformed calibration file: level_weights must be a list of floats, not dict$"),
        ("level_weights", "0.5", "^malformed calibration file: level_weights must be a list of floats, not str$"),
        ("level_weights", [None], "level weight 1 must be a finite float, not None"),
        ("level_weights", 0.5, "^malformed calibration file: level_weights must be a list of floats, not float$"),
        ("eer_gap", "0.25", "eer_gap must be a finite float"),
        ("eer_gap", math.nan, "eer_gap must be a finite float"),
        ("validation_size", 3.7, "validation_size must be an integer"),
        ("validation_size", True, "validation_size must be an integer"),
        # values build_calibration never writes: weights and the gap are rates, the size counts documents
        ("level_weights", [5.0], r"level weight 1 must lie in \[0, 1\]"),
        ("level_weights", [1.0, -3.0], r"level weight 2 must lie in \[0, 1\]"),
        ("eer_gap", -7.5, r"eer_gap must lie in \[0, 1\]"),
        ("eer_gap", 1.5, r"eer_gap must lie in \[0, 1\]"),
        ("validation_size", -2, "validation_size must be at least 1"),
        ("validation_size", 0, "validation_size must be at least 1"),
        ("model_identity", None, "no field 'model_identity'"),
        ("model_identity", 7, "model_identity must be a string, not 7"),
    ],
)
def test_calibration_fields_are_validated(field, value, message):
    payload = json.loads(dumps_calibration(Calibration((1.0,), 0.5, 0.0, 3), "abc123"))
    if value is None:
        del payload[field]
    else:
        payload[field] = value
    with pytest.raises(CalibrationError, match=message):
        loads_calibration(json.dumps(payload))


@pytest.mark.parametrize(
    "changes, message",
    [
        # each constructed and dumped, and loads_calibration refused the file
        ({"level_weights": (2.0,)}, r"^level weight 1 must lie in \[0, 1\], not 2.0$"),
        ({"validation_size": 0}, "^validation_size must be at least 1, not 0$"),
        ({"level_weights": (-0.5,)}, r"^level weight 1 must lie in \[0, 1\], not -0.5$"),
        ({"level_weights": (math.nan,)}, "^level weight 1 must be a finite float, not nan$"),
        ({"level_weights": (1,)}, "^level weight 1 must be a finite float, not 1$"),
        # every taxonomy has depth 1, and reliability would weigh its steps by nothing
        ({"level_weights": ()}, "^level_weights must hold a weight for depth 1 at least$"),
        # the map shape format 2 wrote, which tuple() would read as the weights 1 and 2
        ({"level_weights": {1: 0.9, 2: 0.6}}, "^level_weights must be a list of floats, not dict$"),
        ({"eer_gap": 1.5}, r"^eer_gap must lie in \[0, 1\], not 1.5$"),
        ({"eer_gap": 0}, "^eer_gap must be a finite float, not 0$"),
        ({"validation_size": 2.0}, "^validation_size must be an integer, not 2.0$"),
        ({"validation_size": True}, "^validation_size must be an integer, not True$"),
        # "0.5" failed in the NaN check, naming no field, and 1 loaded back as the float 1.0
        ({"threshold": "0.5"}, "^threshold must be a float, not str$"),
        ({"threshold": 1}, "^threshold must be a float, not int$"),
        ({"threshold": None}, "^threshold must be a float, not NoneType$"),
    ],
)
def test_calibration_refuses_what_build_calibration_never_makes(changes, message):
    fields = dict(level_weights=(1.0,), threshold=0.5, eer_gap=0.0, validation_size=3)
    with pytest.raises(ValueError, match=message):
        Calibration(**{**fields, **changes})


@pytest.mark.parametrize(
    "field, value",
    [("source", 3), ("source", None), ("source", b"eer"), ("model_identity", 7), ("model_identity", ["ab"])],
)
def test_calibration_refuses_a_source_or_model_identity_that_is_not_a_string(field, value):
    # each constructed, and loads_calibration then refused its own dumped file as malformed
    with pytest.raises(TypeError, match=f"^{field} must be a string, not "):
        Calibration((1.0,), 0.5, 0.0, 3, **{field: value})


strings_or_not = st.one_of(st.text(max_size=3), st.integers(), st.none(), st.binary(max_size=2))


@given(
    st.lists(st.one_of(st.floats(), st.integers(0, 1)), max_size=4),
    st.one_of(st.floats(), st.just(0)),
    st.one_of(st.integers(-1, 3), st.just(2.0)),
    strings_or_not,
    strings_or_not,
)
def test_every_calibration_the_constructor_accepts_loads_back(
    level_weights, eer_gap, validation_size, source, model_identity
):
    def rate(value):
        return type(value) is float and 0.0 <= value <= 1.0

    fields = dict(
        level_weights=level_weights, threshold=0.5, eer_gap=eer_gap, validation_size=validation_size,
        source=source, model_identity=model_identity,
    )
    keeps_rules = (
        level_weights
        and all(rate(w) for w in level_weights)
        and rate(eer_gap)
        and type(validation_size) is int
        and validation_size >= 1
        and isinstance(source, str)
        and isinstance(model_identity, str)
    )
    if not keeps_rules:
        with pytest.raises((ValueError, TypeError)):
            Calibration(**fields)
        return
    calibration = Calibration(**fields)
    assert loads_calibration(dumps_calibration(calibration, "abc123")) == (calibration, "abc123")


def test_calibration_records_the_identity_of_its_model():
    model = calibration_model()
    validation = [Document("v1", "A1", "ta t1"), Document("v2", "B", "tb")]
    cal = build_calibration(model, validation)
    assert cal.model_identity == model_identity(model)
    assert replace(cal, threshold=0.5).model_identity == cal.model_identity
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


def test_check_pairing_refuses_a_calibration_of_another_depth():
    model = calibration_model()  # max depth 3
    digest = vocabulary_digest(model.vocabulary)
    cal = build_calibration(model, [Document("v1", "A1", "ta t1"), Document("v2", "B", "tb")])
    assert len(cal.level_weights) == 3
    for weights in (cal.level_weights[:2], cal.level_weights + (0.5,)):
        with pytest.raises(
            CalibrationError, match=f"^level weights are calibrated to depth {len(weights)}, the taxonomy's depth is 3$"
        ):
            check_pairing(model, replace(cal, level_weights=weights), digest)


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
    cal = Calibration((1.0, 0.5), threshold, 0.0, 3, source)
    text = dumps_calibration(cal, "abc123")
    json.loads(text, parse_constant=refuse_json_constant)
    assert written in text
    assert loads_calibration(text) == (cal, "abc123")


@pytest.mark.parametrize(
    "value", ["NaN", "-Infinity", "Infinity", '"nan"', '"0.5"', "true", pytest.param("1" + "0" * 400, id="1e400-int")]
)
def test_calibration_refuses_a_nan_or_non_numeric_threshold(value):
    text = dumps_calibration(Calibration((1.0,), 0.5, 0.0, 3), "abc123")
    with pytest.raises(CalibrationError, match="malformed"):
        loads_calibration(text.replace('"threshold":0.5', f'"threshold":{value}'))


def test_nan_threshold_is_refused():
    model = calibration_model()
    validation = [Document("v1", "A1", "ta t1"), Document("v2", "A2", "ta t1")]
    with pytest.raises(ValueError, match="NaN"):
        replace(build_calibration(model, validation), threshold=math.nan)
