import dataclasses
import hashlib
import itertools
import json
import random
import struct
import sys
from array import array

import pytest
from hypothesis import example, given, settings, strategies as st

import reference
from conftest import (
    SMALLEST_NORMAL,
    entries,
    packed_centroid,
    random_taxonomy,
    sparse,
    sparse_vectors,
    vec,
    vocabulary_of_size,
)
from routecat.centroid import (
    CentroidModel,
    LabelSums,
    ModelFormatError,
    _from_little_endian,
    _little_endian,
    documents_digest,
    dumps_model,
    group_scores,
    loads_model,
    mean_vector,
    node_score,
    train,
)
from routecat.corpus import Document, SparseVector, Vocabulary, build_vocabulary, index_training, load_corpus, vectorize
from routecat.policies import Mode, PolicyKind
from routecat.synthetic import SyntheticSpec, generate_synthetic
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
    assert group_scores(model, vec((0, 1.0)), "ROOT")[1] == 0.0  # B


LABEL_SUM_WEIGHTS = [
    # weights whose float sums round differently in different orders
    [0.1, 0.2, 0.3, 1 / 3, 0.7, 1.0, 1e-5, 0.1],
    # the smallest weight summed (shift 970); weights of 1.0 make sums near n * 2**shift, which a float must hold
    [2.0**-918, 1.0, 1.0, 1.0, 2.0**-918 * 5, 1.0, 1e-270, 1.0],
]


@pytest.mark.parametrize("weights", LABEL_SUM_WEIGHTS)
def test_label_sums_are_rounded_once(t0, weights):
    labels = ["A1", "A2", "B1", "A", "B"]
    docs = [Document(f"d{k}", labels[k % len(labels)], "") for k in range(len(weights))]
    # terms 0-4 in every document with the weights in turn, and term 5 in the documents labeled B only: a union of
    # three or more labels takes the total minus the labels outside it, and term 5's sum is 0 once B is subtracted
    vectors = [
        vec(*((j, weights[(k + j) % len(weights)]) for j in range(5)), *[(5, weights[k])] * (d.label == "B"))
        for k, d in enumerate(docs)
    ]
    by_id = {d.doc_id: dict(entries(v)) for d, v in zip(docs, vectors)}
    sums = LabelSums(docs, vectors)
    for r in range(len(labels) + 1):
        for chosen in itertools.combinations(labels, r):
            ids = frozenset(d.doc_id for d in docs if d.label in chosen)
            mean = sums.mean_of(ids)
            assert mean == sparse(reference.mean([by_id[doc_id] for doc_id in ids]))
            assert set(mean.indices) == ({*range(5), *[5] * ("B" in chosen)} if ids else set())
    subtree = sums.subtree_means(t0)
    path_of = reference.paths(t0)
    for node in ("A", "B", "A1", "A2", "B1"):
        assert subtree[node] == sparse(reference.mean([by_id[d.doc_id] for d in docs if node in path_of[d.label]]))


@pytest.mark.parametrize("smallest", [2.0**-919, SMALLEST_NORMAL, 5e-324])
def test_label_sums_refuse_weights_below_the_exact_range(smallest):
    docs = [Document("d1", "A1", ""), Document("d2", "A2", "")]
    with pytest.raises(ValueError, match=r"is below 2\*\*-918"):
        LabelSums(docs, [vec((0, 1.0)), vec((0, smallest), (1, 1.0))])


def test_a_set_that_splits_a_label_is_refused(t0_docs):
    vocab = build_vocabulary(t0_docs)
    sums = LabelSums(t0_docs, [vectorize(d, vocab) for d in t0_docs])
    with pytest.raises(ValueError, match="every document of each of its labels"):
        sums.mean_of(frozenset({"d1"}))  # d2 is labeled A1 too


def test_train_refuses_repeated_document_ids(t0, t0_docs):
    docs = [*t0_docs, Document("d1", "B1", "beta")]
    with pytest.raises(ValueError, match="distinct ids"):
        train(docs, t0, build_vocabulary(docs))


def test_train_refuses_a_vector_count_that_is_not_the_document_count(t0, t0_docs):
    vocab, vectors = index_training(t0_docs)
    with pytest.raises(ValueError, match="^3 vectors for 4 training documents$"):
        train(t0_docs, t0, vocab, vectors=vectors[:-1])


def test_train_requires_documents(t0):
    with pytest.raises(ValueError, match="empty training set"):
        train([], t0, Vocabulary(terms=(), doc_frequency=(), n_docs=1))


def test_binary_mode_requires_policy(t0, t0_docs):
    with pytest.raises(ValueError, match="policy"):
        _toy_model(t0, t0_docs, mode=Mode.BINARY)


def test_positive_only_mode_refuses_a_policy(t0, t0_docs):
    with pytest.raises(ValueError, match="'siblings' applies only in binary mode"):
        _toy_model(t0, t0_docs, policy=PolicyKind.SIBLINGS)


def test_binary_score_is_contrast_of_similarities(t0):
    leaves = dict.fromkeys(("A1", "A2", "B1"), SparseVector())
    model = CentroidModel(
        taxonomy=t0,
        vocabulary=vocabulary_of_size(1),
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


def test_model_records_its_training_documents(t0, t0_docs):
    model = _toy_model(t0, t0_docs)
    assert model.training_digest == documents_digest(t0_docs)
    assert loads_model(dumps_model(model)).training_digest == model.training_digest
    assert documents_digest(t0_docs[::-1]) != model.training_digest
    assert documents_digest(t0_docs[:-1]) != model.training_digest
    lines = "".join(f"{d.doc_id}\t{d.label}\t{d.text}\n" for d in t0_docs)
    assert model.training_digest == hashlib.sha256(lines.encode("utf-8")).hexdigest()


# every weight a trained model holds, which lies in [0, 1] (CentroidModel refuses any other), the extremes included,
# and empty vectors
unit_weight_vectors = st.dictionaries(
    st.integers(0, 24), st.floats(min_value=0.0, max_value=1.0), max_size=10
).map(lambda m: vec(*sorted(m.items())))
# entries in any order, repeated or not, some beyond a 25-term vocabulary, with any float as weight
any_entry_vectors = st.lists(st.tuples(st.integers(0, 30), st.floats()), max_size=10).map(lambda pairs: vec(*pairs))


def keeps_entry_rule(v, n_terms):
    """Whether ``v``'s term indices increase below ``n_terms`` and its weights lie in [0, 1]."""
    indices = list(v.indices)
    increasing = indices == sorted(set(indices)) and all(i < n_terms for i in indices)
    return increasing and all(0.0 <= w <= 1.0 for w in v.weights)


@given(
    st.integers(min_value=0, max_value=10_000),
    st.sampled_from([None, *PolicyKind]),
    # half the lists keep the entry rule throughout; in the others any vector may break it
    st.sampled_from([unit_weight_vectors, st.one_of(unit_weight_vectors, any_entry_vectors)]).flatmap(
        lambda vectors: st.lists(vectors, min_size=1, max_size=40)
    ),
)
# a trained weight's extremes, 0, 5e-324 and 1.0, and empty vectors, as centroids and as negatives
@example(0, None, [vec((0, 0.0), (1, 5e-324), (24, 1.0)), SparseVector()])
@example(0, PolicyKind.SIBLINGS, [SparseVector(), vec((0, 0.0), (1, 5e-324), (24, 1.0))])
def test_every_model_the_constructor_accepts_loads_back(seed, policy, drawn):
    t = random_taxonomy(random.Random(seed))
    nodes = [n for n in t.nodes if n != t.root]
    vectors = itertools.cycle(drawn)  # the drawn vectors in turn: every centroid, then every negative
    fields = dict(
        taxonomy=t,
        vocabulary=vocabulary_of_size(25),
        mode=Mode.POSITIVE_ONLY if policy is None else Mode.BINARY,
        policy=policy,
        centroid_of={node: next(vectors) for node in nodes},
        negative_centroid_of=None if policy is None else {node: next(vectors) for node in nodes},
    )
    every_vector = [*fields["centroid_of"].values(), *(fields["negative_centroid_of"] or {}).values()]
    if not all(keeps_entry_rule(v, 25) for v in every_vector):
        with pytest.raises(ValueError, match="^centroid of "):
            CentroidModel(**fields)
        return
    model = CentroidModel(**fields)
    text = dumps_model(model)
    loaded = loads_model(text)
    assert loaded.taxonomy == model.taxonomy
    assert loaded.vocabulary == model.vocabulary
    assert loaded.mode is model.mode
    assert loaded.policy is model.policy
    assert loaded.centroid_of == model.centroid_of
    assert loaded.negative_centroid_of == model.negative_centroid_of
    assert dumps_model(loaded) == text


# every shape train writes
@pytest.mark.parametrize("policy", [pytest.param(None, id="positive-only"), *PolicyKind])
@settings(max_examples=6, deadline=None)
@given(
    st.builds(
        SyntheticSpec,
        depth=st.integers(1, 3),
        branching=st.integers(1, 3),
        docs_per_leaf=st.integers(1, 3),
        vocab_per_topic=st.integers(1, 5),
        noise_vocab_size=st.integers(1, 5),
        noise_fraction=st.sampled_from([0.0, 0.5, 0.9]),
        tokens_per_doc=st.integers(1, 8),
        seed=st.integers(0, 2**64 - 1),
    ),
)
# one single-term document per leaf: each leaf centroid is a unit coordinate, weight exactly 1.0
@example(SyntheticSpec(depth=1, branching=2, docs_per_leaf=1, tokens_per_doc=1))
def test_every_model_train_builds_loads_back(policy, spec):
    taxonomy_text, corpus_text = generate_synthetic(spec)
    taxonomy = parse_taxonomy(taxonomy_text)
    docs = load_corpus(corpus_text, taxonomy)
    mode = Mode.POSITIVE_ONLY if policy is None else Mode.BINARY
    model = train(docs, taxonomy, build_vocabulary(docs), mode=mode, policy=policy)
    text = dumps_model(model)
    loaded = loads_model(text)
    assert loaded.taxonomy == model.taxonomy
    assert loaded.vocabulary == model.vocabulary
    assert loaded.mode is mode
    assert loaded.policy is policy
    assert loaded.centroid_of == model.centroid_of
    assert loaded.negative_centroid_of == model.negative_centroid_of
    assert dumps_model(loaded) == text


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


@pytest.mark.skipif(sys.byteorder != "little", reason="on a big-endian host every model test runs the swap")
@pytest.mark.parametrize(
    "typecode, values, stored",
    [("I", [1, 2], b"\x00\x00\x00\x01\x00\x00\x00\x02"), ("d", [0.01, -2.5], struct.pack(">2d", 0.01, -2.5))],
    ids=["I", "d"],
)
def test_the_big_endian_branches_swap_a_copy(monkeypatch, typecode, values, stored):
    # told it runs big-endian, this little-endian host swaps its native bytes as a big-endian one swaps its own
    items = array(typecode, values)
    monkeypatch.setattr(sys, "byteorder", "big")
    assert _little_endian(items) == stored
    assert items.tolist() == values  # swapped in a copy, not in the caller's array
    assert _from_little_endian(typecode, stored).tolist() == values


def test_model_version_check(t0, t0_docs):
    text = dumps_model(_toy_model(t0, t0_docs))
    tampered = text.replace('"format_version":4', '"format_version":99')
    with pytest.raises(ModelFormatError, match="version"):
        loads_model(tampered)
    with pytest.raises(ModelFormatError):
        loads_model('{"format":"something-else"}')
    with pytest.raises(ModelFormatError):
        loads_model("not json at all")
    for old in (1, 2, 3):
        with pytest.raises(ModelFormatError, match=f"unsupported model format version {old}, expected 4"):
            loads_model(text.replace('"format_version":4', f'"format_version":{old}'))


EMPTY = packed_centroid()  # ["", ""]


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("taxonomy", None, "no field 'taxonomy'"),
        ("taxonomy", 5, "malformed model file: taxonomy must be a string, not int$"),
        ("mode", "ternary", "malformed"),
        ("vocabulary", {"n_docs": "many", "terms": [], "doc_frequency": []}, "malformed"),
        ("vocabulary", {"n_docs": 1, "terms": ["x"], "doc_frequency": []}, "malformed"),
        ("centroids", [], "malformed model file: centroids must be an object, not list$"),
        ("centroids", {"A": EMPTY}, "no centroid for node"),
        ("negative_centroids", None, "negative centroid"),
        ("vocabulary", {"n_docs": 4.0, "terms": [], "doc_frequency": []}, "n_docs must be an integer, not 4.0"),
        ("vocabulary", {"n_docs": True, "terms": [], "doc_frequency": []}, "n_docs must be an integer, not True"),
        # ln((n_docs + 1) / (df + 1)) raised "math domain error" at n_docs = -1
        ("vocabulary", {"n_docs": -1, "terms": [], "doc_frequency": []}, "n_docs must be at least 1, not -1"),
        ("vocabulary", {"n_docs": 0, "terms": [], "doc_frequency": []}, "n_docs must be at least 1, not 0"),
        ("training_digest", None, "no field 'training_digest'"),
        ("training_digest", 7, "training_digest must be a string"),
        ("policy", None, "no field 'policy'"),
        # a positive-only model carrying the binary model's policy and negatives
        ("mode", "positive-only", "malformed model file: policy 'siblings' applies only in binary mode"),
        ("centroids", {n: EMPTY for n in ("ROOT", "A", "B", "A1", "A2", "B1")}, "centroid for 'ROOT', which is the root"),
        ("centroids", {n: EMPTY for n in ("A", "B", "A1", "A2", "B1", "Z")}, "centroid for 'Z', which is the root or not in"),
        ("negative_centroids", [], "malformed model file: negative_centroids must be an object, not list$"),
        ("vocabulary", [], "malformed model file: vocabulary must be an object, not list$"),
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


# a centroid that decodes to arrays is given as its vector, which the constructor sees too; the others as JSON values
CENTROID_ENTRY_ROWS = [
    # a repeated index: d = [[0, 1.0]] scored 0.25 by SparseVector.dot but 0.75 by InvertedIndex
    (vec((0, 0.5), (0, 0.25), (1, 1.0)), "must increase"),
    (vec((1, 0.5), (0, 0.25)), "must increase"),
    (vec((2**32 - 1, 0.5)), "must increase"),  # -1 as a uint32
    (vec((6, 0.5)), "must increase below 6, got 6 after -1"),
    (vec((0, float("nan"))), "not finite"),
    (vec((0, 0.5), (1, float("-inf"))), "not finite"),
    ([[0, 0.5]], "not a list of two base64 strings"),  # a format-2 centroid
    ([EMPTY[0], "AAAA*AAA"], "not base64"),
    (["AAAA", packed_centroid((0, 0.5))[1]], "3 index bytes and 8 weight bytes are not 4n and 8n"),
    (vec((0, 0.5), (1, -0.25)), "negative"),
    ([packed_centroid((0, 0.5))[0], "AAAAAAAAAAAAAAAA"], "4 index bytes and 12 weight bytes are not 4n and 8n"),
    ([packed_centroid((0, 0.5), (1, 0.5))[0], packed_centroid((0, 0.5))[1]], "8 index bytes and 8 weight bytes"),
    (EMPTY[:1], "not a list of two base64 strings"),
    ([EMPTY[0], 0.5], "not a list of two base64 strings"),
    ([EMPTY[0], "\u00e9"], "not base64"),
    # the bad entry after a good one: min and max skip a NaN or not depending on where it sits
    (vec((0, 0.5), (1, float("nan"))), "not finite"),
    (vec((0, 0.5), (1, float("inf"))), "not finite"),
    (vec((0, 0.5), (6, 0.5)), "got 6 after 0"),
    (vec((0, 0.5), (1, 0.5), (1, 0.5)), "must increase"),
    # a trained weight lies in [0, 1]; 1.7e308 loaded, and classify overflowed in the exact sums
    (vec((0, 0.5), (1, 1.0000000000000002)), "weight 1.0000000000000002 of term 1 is negative, above 1"),
    (vec((0, 1.7e308)), "above 1"),
    # built by hand, this centroid constructed, and decode ended in "OverflowError: intermediate overflow in fsum"
    (vec((0, 1.7e308), (1, 1.7e308)), r"weight 1\.7e\+308 of term 0"),
    # built by hand, decreasing indices constructed too
    (vec((0, 0.5), (2, 0.5), (1, 0.5)), "got 1 after 2"),
]


@pytest.mark.parametrize("field", ["centroids", "negative_centroids"])
@pytest.mark.parametrize("entries, message", CENTROID_ENTRY_ROWS)
def test_model_centroid_entries_are_validated(t0, t0_docs, field, entries, message):
    payload = json.loads(dumps_model(_toy_model(t0, t0_docs, mode=Mode.BINARY, policy=PolicyKind.SIBLINGS)))
    assert len(payload["vocabulary"]["terms"]) == 6
    if isinstance(entries, SparseVector):
        entries = packed_centroid(*zip(entries.indices, entries.weights))
    payload[field]["A1"] = entries
    with pytest.raises(ModelFormatError, match=f"malformed model file: centroid of 'A1': .*{message}"):
        loads_model(json.dumps(payload))


@pytest.mark.parametrize("field", ["centroid_of", "negative_centroid_of"])
@pytest.mark.parametrize("vector, message", [row for row in CENTROID_ENTRY_ROWS if isinstance(row[0], SparseVector)])
def test_model_centroid_entries_are_refused_when_built(t0, t0_docs, field, vector, message):
    model = _toy_model(t0, t0_docs, mode=Mode.BINARY, policy=PolicyKind.SIBLINGS)
    assert len(model.vocabulary) == 6
    with pytest.raises(ValueError, match=f"^centroid of 'A1': .*{message}"):
        dataclasses.replace(model, **{field: getattr(model, field) | {"A1": vector}})


@pytest.mark.parametrize("field", ["centroid_of", "negative_centroid_of"])
@pytest.mark.parametrize(
    "vector, message",
    [
        # dot with ((0, 0.6), (1, 0.8)) gave 0.3 and decode routed on it: zip stopped at the shorter array
        (SparseVector(array("I", [0, 1]), array("d", [0.5])), "2 term indices and 1 weights differ in number"),
        (SparseVector(array("I", [0]), array("d", [0.5, 0.25])), "1 term indices and 2 weights differ in number"),
        (SparseVector(array("I"), array("d", [0.5])), "0 term indices and 1 weights differ in number"),
    ],
)
def test_model_refuses_centroid_arrays_of_different_lengths(t0, t0_docs, field, vector, message):
    model = _toy_model(t0, t0_docs, mode=Mode.BINARY, policy=PolicyKind.SIBLINGS)
    with pytest.raises(ValueError, match=f"^centroid of 'A1': {message}$"):
        dataclasses.replace(model, **{field: getattr(model, field) | {"A1": vector}})


@pytest.mark.parametrize(
    "field, position, value, message",
    [
        ("terms", 1, "alpha", "'alpha' is not a string or repeats"),
        ("terms", 0, 7, "7 is not a string"),
        ("doc_frequency", 2, 1.0, "document frequency of 'uno' must be an integer, not 1.0"),
        ("doc_frequency", 2, "1", "document frequency of 'uno' must be an integer"),
        # idf divided by df + 1 = 0 and ended classify in a ZeroDivisionError
        ("doc_frequency", 0, -1, "document frequency -1 of 'alpha' lies outside 1..4"),
        ("doc_frequency", 0, 0, "document frequency 0 of 'alpha' lies outside 1..4"),
        ("doc_frequency", 1, 5, "document frequency 5 of 'one' lies outside 1..4"),
        # a whole list replaced: tuple() reads a string as its characters and an object as its keys, and the six
        # one-letter terms would fit the digest, the document frequencies and every centroid
        ("terms", None, "abcdef", "vocabulary terms must be a list, not str"),
        ("terms", None, dict.fromkeys("abcdef", 1), "vocabulary terms must be a list, not dict"),
        ("doc_frequency", None, "311111", "document frequency of 'alpha' must be an integer, not '3'"),
    ],
)
def test_model_vocabulary_is_validated(t0, t0_docs, field, position, value, message):
    payload = json.loads(dumps_model(_toy_model(t0, t0_docs)))
    vocab = payload["vocabulary"]
    if position is None:
        vocab[field] = value
    else:
        vocab[field][position] = value
    # the stored digest is the edited vocabulary's, read as tuple() reads it, so that only a vocabulary rule refuses it
    lines = (f"{term}\t{index}\t{df}\n" for index, (term, df) in enumerate(zip(vocab["terms"], vocab["doc_frequency"])))
    payload["vocabulary_digest"] = hashlib.sha256(("".join(lines) + str(vocab["n_docs"])).encode("utf-8")).hexdigest()
    with pytest.raises(ModelFormatError, match=f"malformed model file: .*{message}"):
        loads_model(json.dumps(payload))


def test_unit_vectors_give_unit_bounded_similarity(t0, t0_docs):
    # every document vector is unit; centroids average unit vectors, so norms
    # stay <= 1 and inner products stay in [0, 1]
    model = _toy_model(t0, t0_docs)
    for doc in t0_docs:
        d = vectorize(doc, model.vocabulary)
        for parent in ("ROOT", "A", "B"):  # every centroid's group
            assert all(-1e-12 <= score <= 1.0 + 1e-12 for score in group_scores(model, d, parent))


def group_model(mode, centroids, negatives):
    """A one-level model whose root children c0, c1, ... have the given centroids (and negatives in binary mode)."""
    children = [f"c{k}" for k in range(len(centroids))]
    return CentroidModel(
        taxonomy=parse_taxonomy("".join(f"R\t{c}\n" for c in children)),
        vocabulary=vocabulary_of_size(25),
        mode=mode,
        policy=PolicyKind.SIBLINGS if mode is Mode.BINARY else None,
        centroid_of=dict(zip(children, centroids)),
        negative_centroid_of=dict(zip(children, negatives)) if mode is Mode.BINARY else None,
    )


@given(
    sparse_vectors,
    st.lists(st.tuples(unit_weight_vectors, unit_weight_vectors), min_size=1, max_size=6),
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
def test_group_scores_equal_the_reference_scores_bit_for_bit(d, children, mode):
    model = group_model(mode, *zip(*children))
    binary = mode is Mode.BINARY
    expected = [
        reference.score(dict(entries(d)), dict(entries(positive)), dict(entries(negative)) if binary else None)
        for positive, negative in children
    ]
    assert group_scores(model, d, "R") == expected


def test_model_with_another_vocabulary_digest_is_refused(t0, t0_docs):
    payload = json.loads(dumps_model(_toy_model(t0, t0_docs)))
    payload["vocabulary_digest"] = "0" * 64
    with pytest.raises(ModelFormatError, match="malformed model file: vocabulary_digest '0+' is not the digest"):
        loads_model(json.dumps(payload))
    payload["vocabulary"]["n_docs"] += 1  # an edited vocabulary no longer matches the stored digest
    payload["vocabulary_digest"] = json.loads(dumps_model(_toy_model(t0, t0_docs)))["vocabulary_digest"]
    with pytest.raises(ModelFormatError, match="is not the digest of the vocabulary"):
        loads_model(json.dumps(payload))
