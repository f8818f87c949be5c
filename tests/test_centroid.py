import hashlib
import json
import random
import sys

import pytest
from hypothesis import example, given, strategies as st

from conftest import SMALLEST_NORMAL, T0_TEXT, entries, packed_centroid, random_taxonomy, sparse_vectors, vec
from routecat.centroid import (
    CentroidModel,
    Mode,
    ModelFormatError,
    documents_digest,
    dumps_model,
    group_scores,
    loads_model,
    mean_vector,
    node_score,
    train,
)
from routecat.corpus import SparseVector, Vocabulary, build_vocabulary
from routecat.policies import PolicyKind
from routecat.taxonomy import Taxonomy, TaxonomyError, UnknownNodeError, parse_taxonomy


def test_mean_of_two_unit_axes():
    vectors = {"a": vec((0, 1.0)), "b": vec((1, 1.0))}
    assert mean_vector(frozenset(vectors), vectors) == vec((0, 0.5), (1, 0.5))


def test_mean_of_single_vector_is_identity():
    vectors = {"a": vec((0, 0.6), (1, 0.8))}
    assert mean_vector(frozenset({"a"}), vectors) == vec((0, 0.6), (1, 0.8))


def test_mean_of_nothing_is_empty():
    assert mean_vector(frozenset(), {}) == SparseVector()


@pytest.mark.parametrize("k", [1, 2, 4, 8])
def test_mean_of_identical_copies_exact_for_binary_counts(k):
    v = vec((0, 0.3), (2, 0.7), (5, 0.123456789))
    vectors = {f"d{i}": v for i in range(k)}
    assert mean_vector(frozenset(vectors), vectors) == v


@pytest.mark.parametrize("k", [3, 5, 7])
def test_mean_of_identical_copies_near_exact_otherwise(k):
    v = vec((0, 0.3), (2, 0.7))
    vectors = {f"d{i}": v for i in range(k)}
    mean = mean_vector(frozenset(vectors), vectors)
    for (i, w), (j, u) in zip(entries(mean), entries(v)):
        assert i == j
        assert w == pytest.approx(u, rel=1e-15)


def test_similarity_examples():
    assert vec((0, 1.0)).dot(vec((0, 0.5), (1, 0.5))) == 0.5
    d = vec((0, 0.6), (1, 0.8))
    assert d.dot(d) == pytest.approx(1.0, abs=1e-12)
    assert vec((0, 1.0)).dot(vec((1, 1.0))) == 0.0
    assert vec((0, 1.0)).dot(SparseVector()) == 0.0


def test_similarity_symmetric_exactly():
    a = vec((0, 0.1), (3, 0.2), (7, 0.7))
    b = vec((0, 0.4), (7, 0.3), (9, 0.5))
    assert a.dot(b) == b.dot(a)


@given(st.floats(min_value=0.0, max_value=100.0))
def test_similarity_scales_linearly(factor):
    a = vec((0, 0.5), (1, 0.5))
    b = vec((0, 0.25), (1, 0.75))
    scaled = vec(*((i, w * factor) for i, w in entries(b)))
    assert a.dot(scaled) == pytest.approx(factor * a.dot(b), rel=1e-12)


def _toy_model(t0, t0_docs, **kwargs):
    vocab = build_vocabulary(t0_docs)
    return train(t0_docs, t0, vocab, **kwargs)


def test_train_covers_all_non_root_nodes(t0, t0_docs):
    model = _toy_model(t0, t0_docs)
    assert set(model.centroid_of) == {"A", "B", "A1", "A2", "B1"}
    assert model.mode is Mode.POSITIVE_ONLY
    assert model.policy is None


def test_train_empty_positive_set_gives_empty_centroid(t0, t0_docs):
    # drop B1's only document: node B and B1 end up with no members
    docs = [d for d in t0_docs if d.label != "B1"]
    model = train(docs, t0, build_vocabulary(docs))
    assert model.centroid_of["B"] == SparseVector()
    assert model.centroid_of["B1"] == SparseVector()
    assert node_score(model, vec((0, 1.0)), "B") == 0.0


def test_train_requires_documents(t0):
    with pytest.raises(ValueError, match="empty training set"):
        train([], t0, Vocabulary(index={}, doc_frequency={}, n_docs=1))


def test_binary_mode_requires_policy(t0, t0_docs):
    with pytest.raises(ValueError, match="policy"):
        _toy_model(t0, t0_docs, mode=Mode.BINARY)


def test_positive_only_mode_refuses_a_policy(t0, t0_docs):
    with pytest.raises(ValueError, match="'siblings' applies only in binary mode"):
        _toy_model(t0, t0_docs, policy=PolicyKind.SIBLINGS)


def test_binary_mode_clamps_at_zero(t0, t0_docs):
    model = _toy_model(t0, t0_docs, mode=Mode.BINARY, policy=PolicyKind.SIBLINGS)
    assert model.negative_centroid_of is not None
    for node in model.centroid_of:
        d = model.negative_centroid_of[node]
        assert node_score(model, d, node) >= 0.0


def test_binary_score_is_contrast_of_similarities(t0):
    leaves = dict.fromkeys(("A1", "A2", "B1"), SparseVector())
    model = CentroidModel(
        taxonomy=t0,
        vocabulary=Vocabulary(index={}, doc_frequency={}, n_docs=1),
        mode=Mode.BINARY,
        policy=PolicyKind.EXCLUSIVE,
        centroid_of={"A": vec((0, 0.4)), "B": vec((0, 0.9))} | leaves,
        negative_centroid_of={"A": vec((0, 0.7)), "B": vec((0, 0.1))} | leaves,
    )
    d = vec((0, 1.0))
    assert node_score(model, d, "A") == 0.0  # 0.4 - 0.7 clamps to zero
    assert node_score(model, d, "B") == pytest.approx(0.8)


def test_node_score_positive_only(t0, t0_docs):
    model = _toy_model(t0, t0_docs)
    patched = model.centroid_of | {"A": vec((0, 0.5), (1, 0.5))}
    model = type(model)(
        taxonomy=model.taxonomy,
        vocabulary=model.vocabulary,
        mode=model.mode,
        policy=None,
        centroid_of=patched,
    )
    assert node_score(model, vec((0, 1.0)), "A") == 0.5
    with pytest.raises(UnknownNodeError):
        node_score(model, vec((0, 1.0)), "ZZ")
    with pytest.raises(UnknownNodeError):
        node_score(model, vec((0, 1.0)), "ROOT")


def test_train_is_deterministic(t0, t0_docs):
    a = _toy_model(t0, t0_docs)
    b = _toy_model(t0, t0_docs)
    assert a.centroid_of == b.centroid_of
    assert dumps_model(a) == dumps_model(b)


def test_model_records_its_training_documents(t0, t0_docs):
    model = _toy_model(t0, t0_docs)
    assert model.training_digest == documents_digest(t0_docs)
    assert loads_model(dumps_model(model)).training_digest == model.training_digest
    assert documents_digest(t0_docs[::-1]) != model.training_digest
    assert documents_digest(t0_docs[:-1]) != model.training_digest
    lines = "".join(f"{d.doc_id}\t{d.label}\t{d.text}\n" for d in t0_docs)
    assert model.training_digest == hashlib.sha256(lines.encode("utf-8")).hexdigest()


def test_model_round_trip(t0, t0_docs):
    # every shape train writes loads, and loads back to the same text
    for policy in [None, *PolicyKind]:
        mode = Mode.POSITIVE_ONLY if policy is None else Mode.BINARY
        model = _toy_model(t0, t0_docs, mode=mode, policy=policy)
        text = dumps_model(model)
        loaded = loads_model(text)
        assert loaded.taxonomy == model.taxonomy
        assert loaded.vocabulary == model.vocabulary
        assert loaded.mode is mode
        assert loaded.policy is policy
        assert loaded.centroid_of == model.centroid_of
        assert loaded.negative_centroid_of == model.negative_centroid_of
        assert dumps_model(loaded) == text


def vocabulary_of_size(n):
    terms = [f"t{k}" for k in range(n)]
    return Vocabulary(index={t: k for k, t in enumerate(terms)}, doc_frequency=dict.fromkeys(terms, 1), n_docs=1)


# every finite nonnegative weight, the extremes included, and empty vectors
any_weight_vectors = st.dictionaries(
    st.integers(0, 24), st.floats(min_value=0.0, allow_infinity=False), max_size=10
).map(lambda m: vec(*sorted(m.items())))


@given(
    st.lists(st.tuples(any_weight_vectors, any_weight_vectors), min_size=5, max_size=5),
    st.sampled_from([None, *PolicyKind]),
)
@example([(vec((0, 0.0), (1, 5e-324), (24, sys.float_info.max)), SparseVector())] * 5, None)
@example([(SparseVector(), vec((0, 0.0), (1, 5e-324), (24, sys.float_info.max)))] * 5, PolicyKind.SIBLINGS)
def test_model_centroids_load_back_bit_for_bit(pairs, policy):
    t = parse_taxonomy(T0_TEXT)
    nodes = [n for n in t.nodes if n != t.root]
    positives, negatives = zip(*pairs)
    model = CentroidModel(
        taxonomy=t,
        vocabulary=vocabulary_of_size(25),
        mode=Mode.POSITIVE_ONLY if policy is None else Mode.BINARY,
        policy=policy,
        centroid_of=dict(zip(nodes, positives)),
        negative_centroid_of=None if policy is None else dict(zip(nodes, negatives)),
    )
    text = dumps_model(model)
    loaded = loads_model(text)
    assert loaded.centroid_of == model.centroid_of
    assert loaded.negative_centroid_of == model.negative_centroid_of
    assert dumps_model(loaded) == text


@given(st.integers(min_value=0, max_value=10_000), st.sampled_from([None, *PolicyKind]), st.data())
def test_every_model_the_constructor_accepts_loads_back(seed, policy, data):
    t = random_taxonomy(random.Random(seed))
    nodes = [n for n in t.nodes if n != t.root]

    def vectors():
        return dict(zip(nodes, data.draw(st.lists(sparse_vectors, min_size=len(nodes), max_size=len(nodes)))))

    model = CentroidModel(
        taxonomy=t,
        vocabulary=vocabulary_of_size(25),
        mode=Mode.POSITIVE_ONLY if policy is None else Mode.BINARY,
        policy=policy,
        centroid_of=vectors(),
        negative_centroid_of=None if policy is None else vectors(),
    )
    loaded = loads_model(dumps_model(model))
    assert loaded.taxonomy == model.taxonomy
    assert loaded.mode is model.mode
    assert loaded.policy is model.policy
    assert loaded.centroid_of == model.centroid_of
    assert loaded.negative_centroid_of == model.negative_centroid_of


T0_NODES = ("A", "B", "A1", "A2", "B1")


def empty_vectors(*nodes):
    return dict.fromkeys(nodes, SparseVector())


@pytest.mark.parametrize(
    "changes, error, message",
    [
        pytest.param(
            {"mode": Mode.POSITIVE_ONLY, "negative_centroid_of": None},
            ValueError,
            "policy 'siblings' applies only in binary mode",
            id="policy-in-positive-only-mode",
        ),
        pytest.param(
            {"policy": None}, ValueError, "binary mode requires a training policy", id="binary-without-policy"
        ),
        pytest.param(
            {"mode": Mode.POSITIVE_ONLY, "policy": None},
            ValueError,
            "a positive-only model takes no negative centroids",
            id="positive-only-with-negatives",
        ),
        # decode ended in "TypeError: 'NoneType' object is not subscriptable"
        pytest.param(
            {"negative_centroid_of": None},
            ValueError,
            "a binary model needs negative centroids",
            id="binary-without-negatives",
        ),
        # decode routed "alpha one" without error, and loads_model refused what dumps_model wrote
        pytest.param(
            {"centroid_of": empty_vectors("A", "B", "A1", "A2")},
            ValueError,
            "no centroid for node 'B1'",
            id="missing-centroid",
        ),
        # decode ended in a bare KeyError: 'A'
        pytest.param(
            {"negative_centroid_of": empty_vectors("B", "A1", "A2", "B1")},
            ValueError,
            "no negative centroid for node 'A'",
            id="missing-negative-centroid",
        ),
        pytest.param(
            {"centroid_of": empty_vectors("ROOT", *T0_NODES)},
            ValueError,
            "a centroid for 'ROOT', which is the root",
            id="centroid-of-the-root",
        ),
        # decode routed "alpha one" without error, and loads_model refused what dumps_model wrote
        pytest.param(
            {"centroid_of": empty_vectors(*T0_NODES, "Z")},
            ValueError,
            "a centroid for 'Z', which is the root or not in the taxonomy",
            id="centroid-of-an-unknown-node",
        ),
        pytest.param(
            {"negative_centroid_of": empty_vectors("ROOT", *T0_NODES)},
            ValueError,
            "a negative centroid for 'ROOT', which is the root",
            id="negative-centroid-of-the-root",
        ),
        pytest.param(
            {"negative_centroid_of": empty_vectors(*T0_NODES, "Z")},
            ValueError,
            "a negative centroid for 'Z', which is the root or not in the taxonomy",
            id="negative-centroid-of-an-unknown-node",
        ),
        pytest.param(
            {"taxonomy": Taxonomy(root="R", children_of={"R": ()}), "centroid_of": {}, "negative_centroid_of": {}},
            TaxonomyError,
            "taxonomy root has no children",
            id="childless-root",
        ),
        # built, scored as positive-only, and dumps_model ended in "AttributeError: 'str' object has no attribute 'value'"
        pytest.param(
            {"mode": "binary", "policy": None, "negative_centroid_of": None},
            TypeError,
            "mode must be a Mode, not 'binary'",
            id="mode-as-a-string",
        ),
        # the constructor itself ended in "AttributeError: 'str' object has no attribute 'value'"
        pytest.param(
            {"mode": Mode.POSITIVE_ONLY, "policy": "siblings", "negative_centroid_of": None},
            TypeError,
            "policy must be a PolicyKind or None, not 'siblings'",
            id="policy-as-a-string",
        ),
    ],
)
def test_a_model_of_the_wrong_shape_is_refused_when_built(t0, changes, error, message):
    fields = dict(
        taxonomy=t0,
        vocabulary=vocabulary_of_size(1),
        mode=Mode.BINARY,
        policy=PolicyKind.SIBLINGS,
        centroid_of=empty_vectors(*T0_NODES),
        negative_centroid_of=empty_vectors(*T0_NODES),
    )
    CentroidModel(**fields)
    with pytest.raises(error, match=message):
        CentroidModel(**(fields | changes))


def test_model_centroid_encoding_is_pinned():
    # index 258 packs to 02 01 00 00 only little-endian; 0.01 and 0.07 need both '+' and '/' of the standard alphabet
    model = CentroidModel(
        taxonomy=parse_taxonomy("R\tA\n"),
        vocabulary=vocabulary_of_size(259),
        mode=Mode.POSITIVE_ONLY,
        policy=None,
        centroid_of={"A": vec((1, 0.01), (258, 0.07))},
    )
    text = dumps_model(model)
    assert json.loads(text)["centroids"] == {"A": ["AQAAAAIBAAA=", "exSuR+F6hD/sUbgeheuxPw=="]}
    assert loads_model(text).centroid_of == model.centroid_of


def test_model_version_check(t0, t0_docs):
    text = dumps_model(_toy_model(t0, t0_docs))
    tampered = text.replace('"format_version":3', '"format_version":99')
    with pytest.raises(ModelFormatError, match="version"):
        loads_model(tampered)
    with pytest.raises(ModelFormatError):
        loads_model('{"format":"something-else"}')
    with pytest.raises(ModelFormatError):
        loads_model("not json at all")
    for old in (1, 2):
        with pytest.raises(ModelFormatError, match=f"unsupported model format version {old}, expected 3"):
            loads_model(text.replace('"format_version":3', f'"format_version":{old}'))


EMPTY = packed_centroid()  # ["", ""]


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("taxonomy", None, "no field 'taxonomy'"),
        ("taxonomy", 5, "malformed"),
        ("mode", "ternary", "malformed"),
        ("vocabulary", {"n_docs": "many", "terms": []}, "malformed"),
        ("vocabulary", {"n_docs": 1, "terms": [["x"]]}, "malformed"),
        ("centroids", [], "malformed"),
        ("centroids", {"A": EMPTY}, "no centroid for node"),
        ("negative_centroids", None, "negative centroid"),
        ("vocabulary", {"n_docs": 4.0, "terms": []}, "n_docs must be an integer, not 4.0"),
        ("vocabulary", {"n_docs": True, "terms": []}, "n_docs must be an integer, not True"),
        # ln((n_docs + 1) / (df + 1)) raised "math domain error" at n_docs = -1
        ("vocabulary", {"n_docs": -1, "terms": []}, "n_docs must be at least 1, not -1"),
        ("vocabulary", {"n_docs": 0, "terms": []}, "n_docs must be at least 1, not 0"),
        ("training_digest", None, "no field 'training_digest'"),
        ("training_digest", 7, "training_digest must be a string"),
        ("policy", None, "no field 'policy'"),
        # a positive-only model carrying the binary model's policy and negatives
        ("mode", "positive-only", "malformed model file: policy 'siblings' applies only in binary mode"),
        ("centroids", {n: EMPTY for n in ("ROOT", "A", "B", "A1", "A2", "B1")}, "centroid for 'ROOT', which is the root"),
        ("centroids", {n: EMPTY for n in ("A", "B", "A1", "A2", "B1", "Z")}, "centroid for 'Z', which is the root or not in"),
    ],
)
def test_model_fields_are_validated(t0, t0_docs, field, value, message):
    payload = json.loads(dumps_model(_toy_model(t0, t0_docs, mode=Mode.BINARY, policy=PolicyKind.SIBLINGS)))
    if value is None and field != "negative_centroids":
        del payload[field]
    else:
        payload[field] = value
    with pytest.raises(ModelFormatError, match=message):
        loads_model(json.dumps(payload))


@pytest.mark.parametrize("field", ["policy", "negative_centroids"])
def test_positive_only_model_file_with_a_policy_or_negatives_is_refused(t0, t0_docs, field):
    payload = json.loads(dumps_model(_toy_model(t0, t0_docs)))
    payload[field] = {"policy": "siblings", "negative_centroids": payload["centroids"]}[field]
    message = {
        "policy": "policy 'siblings' applies only in binary mode",
        "negative_centroids": "a positive-only model takes no negative centroids",
    }[field]
    with pytest.raises(ModelFormatError, match=f"malformed model file: {message}"):
        loads_model(json.dumps(payload))


@pytest.mark.parametrize("field", ["centroids", "negative_centroids"])
@pytest.mark.parametrize(
    "entries, message",
    [
        # a repeated index: d = [[0, 1.0]] scored 0.25 by SparseVector.dot but 0.75 by InvertedIndex
        (packed_centroid((0, 0.5), (0, 0.25), (1, 1.0)), "must increase"),
        (packed_centroid((1, 0.5), (0, 0.25)), "must increase"),
        (packed_centroid((2**32 - 1, 0.5)), "must increase"),  # -1 as a uint32
        (packed_centroid((6, 0.5)), "must increase below 6, got 6 after -1"),
        (packed_centroid((0, float("nan"))), "not finite"),
        (packed_centroid((0, 0.5), (1, float("-inf"))), "not finite"),
        ([[0, 0.5]], "not a list of two base64 strings"),  # a format-2 centroid
        ([EMPTY[0], "AAAA*AAA"], "not base64"),
        (["AAAA", packed_centroid((0, 0.5))[1]], "3 index bytes and 8 weight bytes are not 4n and 8n"),
        (packed_centroid((0, 0.5), (1, -0.25)), "negative"),
        ([packed_centroid((0, 0.5))[0], "AAAAAAAAAAAAAAAA"], "4 index bytes and 12 weight bytes are not 4n and 8n"),
        ([packed_centroid((0, 0.5), (1, 0.5))[0], packed_centroid((0, 0.5))[1]], "8 index bytes and 8 weight bytes"),
        (EMPTY[:1], "not a list of two base64 strings"),
        ([EMPTY[0], 0.5], "not a list of two base64 strings"),
        ([EMPTY[0], "\u00e9"], "not base64"),
        # the bad entry after a good one: min and max skip a NaN or not depending on where it sits
        (packed_centroid((0, 0.5), (1, float("nan"))), "not finite"),
        (packed_centroid((0, 0.5), (1, float("inf"))), "not finite"),
        (packed_centroid((0, 0.5), (6, 0.5)), "got 6 after 0"),
        (packed_centroid((0, 0.5), (1, 0.5), (1, 0.5)), "must increase"),
    ],
)
def test_model_centroid_entries_are_validated(t0, t0_docs, field, entries, message):
    payload = json.loads(dumps_model(_toy_model(t0, t0_docs, mode=Mode.BINARY, policy=PolicyKind.SIBLINGS)))
    assert len(payload["vocabulary"]["terms"]) == 6
    payload[field]["A1"] = entries
    with pytest.raises(ModelFormatError, match=f"malformed model file: centroid of 'A1': .*{message}"):
        loads_model(json.dumps(payload))


@pytest.mark.parametrize(
    "position, column, value, message",
    [
        (3, 1, 2.7, "'two' has index 2.7 at position 3"),  # int() made it 2, the index of 'uno'
        (1, 1, 0, "'one' has index 0 at position 1"),  # two terms on one index: vectorize("alpha one") lost one
        (1, 1, True, "'one' has index True at position 1"),
        (1, 0, "alpha", "'alpha' is not a string or repeats"),
        (0, 0, 7, "7 is not a string"),
        (2, 2, 1.0, "document frequency of 'uno' must be an integer, not 1.0"),
        (2, 2, "1", "document frequency of 'uno' must be an integer"),
        # idf divided by df + 1 = 0 and ended classify in a ZeroDivisionError
        (0, 2, -1, "document frequency -1 of 'alpha' lies outside 1..4"),
        (0, 2, 0, "document frequency 0 of 'alpha' lies outside 1..4"),
        (1, 2, 5, "document frequency 5 of 'one' lies outside 1..4"),
    ],
)
def test_model_vocabulary_is_validated(t0, t0_docs, position, column, value, message):
    payload = json.loads(dumps_model(_toy_model(t0, t0_docs)))
    payload["vocabulary"]["terms"][position][column] = value
    with pytest.raises(ModelFormatError, match=f"malformed model file: .*{message}"):
        loads_model(json.dumps(payload))


def test_unit_vectors_give_unit_bounded_similarity(t0, t0_docs):
    # every document vector is unit; centroids average unit vectors, so norms
    # stay <= 1 and inner products stay in [0, 1]
    model = _toy_model(t0, t0_docs)
    vocab = model.vocabulary
    from routecat.corpus import vectorize

    for doc in t0_docs:
        d = vectorize(doc, vocab)
        for node, centroid in model.centroid_of.items():
            assert -1e-12 <= d.dot(centroid) <= 1.0 + 1e-12


def group_model(mode, centroids, negatives):
    """A one-level model whose root children c0, c1, ... have the given centroids (and negatives in binary mode)."""
    children = [f"c{k}" for k in range(len(centroids))]
    return CentroidModel(
        taxonomy=parse_taxonomy("".join(f"R\t{c}\n" for c in children)),
        vocabulary=Vocabulary(index={}, doc_frequency={}, n_docs=1),
        mode=mode,
        policy=PolicyKind.SIBLINGS if mode is Mode.BINARY else None,
        centroid_of=dict(zip(children, centroids)),
        negative_centroid_of=dict(zip(children, negatives)) if mode is Mode.BINARY else None,
    )


@given(
    sparse_vectors,
    st.lists(st.tuples(sparse_vectors, sparse_vectors), min_size=1, max_size=6),
    st.sampled_from(Mode),
)
@example(SparseVector(), [(vec((0, 1.0)), vec((1, 1.0))), (SparseVector(), SparseVector())], Mode.BINARY)
@example(vec((0, 1.0)), [(vec((1, 1.0)), vec((2, 1.0)))], Mode.POSITIVE_ONLY)
@example(
    vec((0, 5e-324), (1, 0.1), (2, 1e3)),
    [(vec((0, SMALLEST_NORMAL), (1, 0.7), (2, 1e-3)), vec((0, 5e-324), (2, 5e-324)))],
    Mode.BINARY,
)
# a plain left-to-right sum gives 1.0 for c0; the correctly rounded sum is 1.0000000000000002
@example(vec((0, 1.0), (1, 1.0), (2, 1.0)), [(vec((0, 1.0), (1, 1e-16), (2, 1e-16)), SparseVector())], Mode.BINARY)
# c0 scores 0.25 - 0.5, which clamps to 0.0
@example(vec((0, 1.0)), [(vec((0, 0.25)), vec((0, 0.5))), (vec((0, 0.5)), vec((0, 0.25)))], Mode.BINARY)
def test_group_scores_equal_node_score_bit_for_bit(d, children, mode):
    model = group_model(mode, *zip(*children))
    group = model.taxonomy.children("R")
    assert group_scores(model, d, "R") == [node_score(model, d, node) for node in group]


def test_group_scores_clamp_binary_contrast_at_zero():
    model = group_model(Mode.BINARY, [vec((0, 0.25)), vec((0, 0.5))], [vec((0, 0.5)), vec((0, 0.25))])
    assert group_scores(model, vec((0, 1.0)), "R") == [0.0, 0.25]


def test_group_scores_need_a_centroid_for_every_child():
    model = group_model(Mode.POSITIVE_ONLY, [vec((0, 1.0)), vec((0, 0.5))], [])
    # the constructor refuses the model, so no group can be scored without c1's centroid
    with pytest.raises(ValueError, match="no centroid for node 'c1'"):
        CentroidModel(
            taxonomy=model.taxonomy,
            vocabulary=model.vocabulary,
            mode=model.mode,
            policy=None,
            centroid_of={"c0": model.centroid_of["c0"]},
        )


def test_model_with_another_vocabulary_digest_is_refused(t0, t0_docs):
    payload = json.loads(dumps_model(_toy_model(t0, t0_docs)))
    payload["vocabulary_digest"] = "0" * 64
    with pytest.raises(ModelFormatError, match="malformed model file: vocabulary_digest '0+' is not the digest"):
        loads_model(json.dumps(payload))
    payload["vocabulary"]["n_docs"] += 1  # an edited vocabulary no longer matches the stored digest
    payload["vocabulary_digest"] = json.loads(dumps_model(_toy_model(t0, t0_docs)))["vocabulary_digest"]
    with pytest.raises(ModelFormatError, match="is not the digest of the vocabulary"):
        loads_model(json.dumps(payload))
