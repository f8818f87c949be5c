import json
import math
import re

import pytest
from hypothesis import example, given, strategies as st

import reference
from conftest import (
    LINE_SEPARATORS, SMALLEST_NORMAL, T0_TEXT, entries, sparse, sparse_vectors, vec,
)
from routecat.centroid import ModelFormatError, dumps_model, loads_model, train
from routecat.corpus import (
    DENSE_MIN_FILL,
    CorpusError,
    Document,
    InvertedIndex,
    SparseVector,
    TermTable,
    Vocabulary,
    build_vocabulary,
    index_training,
    load_corpus,
    scorer,
    split_corpus,
    table_fill,
    tokenize,
    vectorize,
)
from routecat.policies import Mode, PolicyKind
from routecat.taxonomy import parse_taxonomy


def test_load_corpus_ok(t0):
    docs = load_corpus("d1\tA1\tcat cat dog\n", t0)
    assert docs == [Document("d1", "A1", "cat cat dog")]


def test_load_corpus_drops_a_leading_byte_order_mark(t0):
    docs = load_corpus("\ufeffd1\tA1\tx\nd2\tB1\ty\n", t0)
    assert [d.doc_id for d in docs] == ["d1", "d2"]


def test_load_corpus_comments_and_order(t0):
    docs = load_corpus("# hdr\nd1\tA1\tx\n\nd2\tB1\ty\n", t0)
    assert [d.doc_id for d in docs] == ["d1", "d2"]


def test_load_corpus_root_label(t0):
    with pytest.raises(CorpusError, match="root"):
        load_corpus("d1\tROOT\tx\n", t0)


def test_load_corpus_unknown_label(t0):
    with pytest.raises(CorpusError, match="unknown label"):
        load_corpus("d1\tZZ\tx\n", t0)


def test_load_corpus_duplicate_id(t0):
    with pytest.raises(CorpusError, match="duplicate"):
        load_corpus("d1\tA1\tx\nd1\tA2\ty\n", t0)


def test_load_corpus_malformed(t0):
    with pytest.raises(CorpusError, match="expected"):
        load_corpus("d1\tA1\n", t0)
    with pytest.raises(CorpusError, match="expected"):
        load_corpus("d1\tA1\ttext\textra\n", t0)


@pytest.mark.parametrize("newline", ["\n", "\r\n"])
@pytest.mark.parametrize("sep", LINE_SEPARATORS)
def test_load_corpus_keeps_line_separators_in_text(t0, sep, newline):
    docs = load_corpus(f"d1\tA1\tcat{sep}dog{newline}d2\tB1\tbee{newline}", t0)
    assert docs == [Document("d1", "A1", f"cat{sep}dog"), Document("d2", "B1", "bee")]


def test_load_corpus_refuses_a_line_that_nel_would_split(t0):
    # read with str.splitlines, this line became document d1 ("cat") plus a phantom d2 labelled B1
    with pytest.raises(CorpusError, match="line 2: expected"):
        load_corpus("d0\tA2\tx\nd1\tA1\tcat\x85d2\tB1\tbee\n", t0)


def test_tokenize():
    assert tokenize("Cat, cat; DOG!") == ["cat", "cat", "dog"]
    assert tokenize("") == []
    assert tokenize("a b2b a") == ["b2b"]


def test_tokenize_underscore_splits():
    assert tokenize("foo_bar") == ["foo", "bar"]


@given(st.text(max_size=200))
def test_tokenize_join_idempotent(text):
    tokens = tokenize(text)
    assert tokenize(" ".join(tokens)) == tokens


# underscores, one-character runs, combining marks and a letter whose lowercase is two characters
TOKENIZER_TEXT = st.text(
    alphabet=st.one_of(st.sampled_from("aZ9_ \u0301\u0308\u0130\u00df\u4e2d-"), st.characters()), max_size=60
)


@given(TOKENIZER_TEXT)
@example("a_bc d\u0301ef _x_ \u0130i")
def test_tokenize_keeps_the_runs_of_two_or_more_alphanumerics(text):
    runs = re.findall(r"[^\W_]+", text.lower())
    assert tokenize(text) == [t for t in runs if len(t) >= 2]


ASCII = [chr(c) for c in range(128)]


@given(st.text(alphabet=st.sampled_from("aZq09_ -.,;!?'\t\x00\x7f"), max_size=60) | st.text(alphabet=st.sampled_from(ASCII)))
@example("Foo_BAR9 x1 __a9b__ 12,34")
def test_tokenize_agrees_with_the_unicode_pattern_on_ascii_text(text):
    assert tokenize(text) == re.findall(r"[^\W_]{2,}", text.lower())


def test_tokenize_keeps_unicode_alphanumerics_in_non_ascii_text():
    assert tokenize("Ünïcode_naïve ÇA x1") == ["ünïcode", "naïve", "ça", "x1"]


def _vocab_two_docs():
    return build_vocabulary(
        [Document("d1", "A1", "cat"), Document("d2", "A1", "cat dog")]
    )


def test_build_vocabulary():
    v = build_vocabulary([Document("d1", "A1", "cat cat dog")])
    assert v.terms == ("cat", "dog")
    assert v.doc_frequency == (1, 1)
    assert v.n_docs == 1

    v2 = _vocab_two_docs()
    assert v2.doc_frequency == (2, 1)
    assert v2.n_docs == 2


def test_build_vocabulary_empty():
    with pytest.raises(ValueError):
        build_vocabulary([])


VOCABULARY_ROWS = [
    # each constructed, and vectorize then raised ZeroDivisionError and ValueError
    (("aa",), (-1,), 1, "^document frequency -1 of 'aa' lies outside 1..1$"),
    (("aa",), (1,), -1, "^n_docs must be at least 1, not -1$"),
    # idf would be 0 or negative, or divide by zero
    (("aa",), (0,), 1, "^document frequency 0 of 'aa' lies outside 1..1$"),
    (("aa",), (3,), 2, "^document frequency 3 of 'aa' lies outside 1..2$"),
    ((), (), 0, "^n_docs must be at least 1, not 0$"),
    (("aa",), (1,), 1.0, "^n_docs must be an integer, not 1.0$"),
    (("aa",), (1,), True, "^n_docs must be an integer, not True$"),
    (("aa",), (1.0,), 1, "^document frequency of 'aa' must be an integer, not 1.0$"),
    ((7,), (1,), 1, "^vocabulary term 7 is not a string or repeats$"),
    # a term's index is its position: a repeated term would sit on two indices
    (("aa", "bb", "aa"), (1, 1, 1), 1, "^vocabulary term 'aa' is not a string or repeats$"),
    # a term without a frequency, and a frequency without a term
    (("aa", "bb"), (1,), 1, "^2 terms but 1 document frequencies$"),
    (("aa",), (1, 1), 1, "^1 terms but 2 document frequencies$"),
    ((), (1,), 1, "^0 terms but 1 document frequencies$"),
    # values JSON has typed are checked, not converted
    (("aa",), (1,), "many", "^n_docs must be an integer, not 'many'$"),
    (("aa",), ("1",), 1, "^document frequency of 'aa' must be an integer, not '1'$"),
]


@pytest.mark.parametrize("terms, doc_frequency, n_docs, message", VOCABULARY_ROWS)
def test_vocabulary_refuses_what_idf_fails_on(terms, doc_frequency, n_docs, message):
    with pytest.raises(ValueError, match=message):
        Vocabulary(terms=terms, doc_frequency=doc_frequency, n_docs=n_docs)


# the constructor's rows, written into a model file: the loader hands the vocabulary on as JSON typed it
@pytest.mark.parametrize("terms, doc_frequency, n_docs, message", VOCABULARY_ROWS)
def test_a_stored_vocabulary_the_constructor_refuses_is_malformed(t0, t0_docs, terms, doc_frequency, n_docs, message):
    payload = json.loads(dumps_model(train(t0_docs, t0, build_vocabulary(t0_docs))))
    payload["vocabulary"] = {"n_docs": n_docs, "terms": terms, "doc_frequency": doc_frequency}
    with pytest.raises(ModelFormatError, match=f"^malformed model file: {message[1:]}"):
        loads_model(json.dumps(payload))


def test_vocabulary_keeps_the_terms_it_checked():
    terms, doc_frequency = ["aa", "bb"], [1, 1]
    v = Vocabulary(terms=terms, doc_frequency=doc_frequency, n_docs=2)
    terms.append("cc")
    doc_frequency[0] = 5  # outside 1..n_docs, which the constructor refuses
    assert v.terms == ("aa", "bb") and v.doc_frequency == (1, 1) and len(v) == 2
    assert v.index_and_idf.keys() == {"aa", "bb"}
    kept = ("aa", "bb")
    assert Vocabulary(terms=kept, doc_frequency=(1, 1), n_docs=2).terms is kept  # a tuple is not copied


@given(st.integers(-1, 4), st.lists(st.one_of(st.integers(-1, 5), st.none(), st.just(1.0)), min_size=1, max_size=4))
def test_every_vocabulary_the_constructor_accepts_vectorizes(n_docs, frequencies):
    terms = [f"t{k}" for k in range(len(frequencies))]
    # None stands for a missing frequency, which leaves the two tuples of different lengths
    doc_frequency = tuple(df for df in frequencies if df is not None)
    fields = dict(terms=tuple(terms), doc_frequency=doc_frequency, n_docs=n_docs)
    keeps_rule = n_docs >= 1 and all(type(df) is int and 1 <= df <= n_docs for df in frequencies)
    if not keeps_rule:
        with pytest.raises(ValueError):
            Vocabulary(**fields)
        return
    v = vectorize(Document("q", "A1", " ".join(terms)), Vocabulary(**fields))
    assert all(0.0 < w <= 1.0 for w in v.weights)


def test_vectorize_term_in_every_doc_vanishes():
    # idf of "cat" is ln(3/3) = 0, so the only weight is zero and the vector is empty
    v = _vocab_two_docs()
    assert vectorize(Document("q", "A1", "cat"), v) == SparseVector()


def test_vectorize_single_term_normalizes_to_one():
    v = _vocab_two_docs()
    vec = vectorize(Document("q", "A1", "dog dog"), v)
    assert entries(vec) == ((v.terms.index("dog"), 1.0),)


def test_vectorize_out_of_vocabulary():
    v = _vocab_two_docs()
    assert vectorize(Document("q", "A1", "zebra"), v) == SparseVector()


def test_vectorize_weights_match_hand_computation():
    train = [
        Document("d1", "A1", "cat dog"),
        Document("d2", "A1", "cat fish"),
        Document("d3", "A1", "cat dog fish fish"),
    ]
    v = build_vocabulary(train)
    vec = vectorize(Document("q", "A1", "dog fish fish"), v)
    w_dog = math.log(4 / 3)
    w_fish = 2 * math.log(4 / 3)
    norm = math.sqrt(w_dog**2 + w_fish**2)
    entries = dict(zip(vec.indices, vec.weights))
    # "cat" sits in every training doc, so its idf is 0 and it drops out
    dog, fish = v.terms.index("dog"), v.terms.index("fish")
    assert set(entries) == {dog, fish}
    assert entries[dog] == pytest.approx(w_dog / norm, abs=1e-12)
    assert entries[fish] == pytest.approx(w_fish / norm, abs=1e-12)


words = st.sampled_from(["cat", "dog", "fish", "bird", "ant", "bee", "cow", "owl"])
texts = st.lists(words, min_size=1, max_size=12).map(" ".join)


@given(st.lists(texts, min_size=1, max_size=8), texts)
def test_vectorize_norm_is_unit_or_empty(train_texts, query):
    train = [Document(f"d{i}", "A1", t) for i, t in enumerate(train_texts)]
    v = build_vocabulary(train)
    vec = vectorize(Document("q", "A1", query), v)
    if vec.indices:
        assert abs(math.sqrt(math.fsum(w * w for w in vec.weights)) - 1.0) <= 1e-9


@given(st.lists(texts, min_size=1, max_size=8), texts)
def test_vectorize_with_precomputed_idf_equals_the_formula(train_texts, query):
    docs = [Document(f"d{i}", "A", text) for i, text in enumerate(train_texts)]
    vocab = build_vocabulary(docs)
    expected = reference.vocabulary(docs)
    # every term of positive idf, on its position and with the formula's idf; a term in every document is absent
    idf = [reference.idf(expected, k) for k in expected.index_of.values()]
    assert vocab.idf_by_index == tuple(idf)
    assert vocab.index_and_idf == {term: (k, idf[k]) for term, k in expected.index_of.items() if idf[k] > 0.0}
    for doc in [*docs, Document("q", "A", query)]:
        assert vectorize(doc, vocab) == sparse(reference.vectorize(doc.text, expected))


@given(st.lists(texts, min_size=1, max_size=8))
@example(["cat dog cat", "dog bird dog", "bird cat cat bird"])
def test_build_vocabulary_numbers_terms_by_first_appearance_and_counts_each_document_once(train_texts):
    docs = [Document(f"d{i}", "A", text) for i, text in enumerate(train_texts)]
    vocab = build_vocabulary(docs)
    expected = reference.vocabulary(docs)
    # a term's index is its position in terms
    assert (vocab.terms, vocab.doc_frequency, vocab.n_docs) == (
        tuple(expected.index_of), tuple(expected.doc_frequency), expected.n_docs
    )


# repeated tokens, non-ASCII letters and digits, and words that are no token, so a text may have none
index_words = st.sampled_from([
    "cat", "dog", "fish", "a", "_", "--",
    "\u00fcber", "\u00f1and\u00fa", "\u03b4\u03ad\u03bb\u03c4\u03b1", "\u65e5\u672c",  # letters
    "\u0663\u0664", "x\u00b2",  # Arabic-Indic digits, a superscript digit
])
index_texts = st.lists(index_words, max_size=12).map(" ".join)


@given(
    st.lists(index_texts, min_size=1, max_size=8),
    st.booleans(),
    st.sampled_from([(Mode.POSITIVE_ONLY, None), (Mode.BINARY, PolicyKind.SIBLINGS)]),
)
@example(["cat cat dog", "", "dog \u00fcber \u00fcber"], False, (Mode.POSITIVE_ONLY, None))
@example(["cat cat dog", "_ a", "dog"], True, (Mode.BINARY, PolicyKind.SIBLINGS))
def test_index_training_is_build_vocabulary_and_vectorize_bit_for_bit(train_texts, shared, training):
    # with shared, one term is in every document: idf 0, so the vocabulary keeps it and no vector does
    texts = [f"{text} everywhere" if shared else text for text in train_texts]
    labels = ["A", "A1", "A2", "B", "B1"]  # internal nodes and leaves
    docs = [Document(f"d{i}", labels[i % len(labels)], text) for i, text in enumerate(texts)]
    vocab, vectors = index_training(docs)
    expected = reference.vocabulary(docs)
    assert (vocab.terms, vocab.doc_frequency, vocab.n_docs) == (
        tuple(expected.index_of), tuple(expected.doc_frequency), expected.n_docs
    )
    if shared:
        assert vocab.doc_frequency[vocab.terms.index("everywhere")] == len(docs)
    bits = [(v.indices.tobytes(), v.weights.tobytes()) for v in vectors]
    expected_vectors = [sparse(reference.vectorize(d.text, expected)) for d in docs]
    assert bits == [(v.indices.tobytes(), v.weights.tobytes()) for v in expected_vectors]
    mode, policy = training
    t0 = parse_taxonomy(T0_TEXT)
    one_pass = train(docs, t0, vocab, mode=mode, policy=policy, vectors=vectors)
    assert dumps_model(one_pass) == dumps_model(train(docs, t0, build_vocabulary(docs), mode=mode, policy=policy))


def test_index_training_empty():
    with pytest.raises(ValueError, match="empty training set"):
        index_training([])


@given(st.lists(texts, min_size=1, max_size=8))
def test_vocabulary_only_from_train(train_texts):
    train = [Document(f"d{i}", "A1", t) for i, t in enumerate(train_texts)]
    v = build_vocabulary(train)
    seen = set()
    for d in train:
        seen.update(tokenize(d.text))
    assert set(v.terms) == seen
    assert all(1 <= df <= v.n_docs for df in v.doc_frequency)


def _docs(n):
    return [Document(f"d{i}", "A1", f"word{i}") for i in range(n)]


def test_split_sizes():
    split = split_corpus(_docs(10), 0.2, 0.3, seed=7)
    assert (len(split.train), len(split.validation), len(split.test)) == (5, 2, 3)


def test_split_zero_fractions():
    split = split_corpus(_docs(10), 0.0, 0.0, seed=7)
    assert len(split.train) == 10
    assert split.validation == () and split.test == ()


def test_split_bad_fractions():
    with pytest.raises(ValueError):
        split_corpus(_docs(10), 0.6, 0.5, seed=7)
    with pytest.raises(ValueError):
        split_corpus(_docs(10), -0.1, 0.2, seed=7)


def test_split_partitions_corpus():
    docs = _docs(23)
    split = split_corpus(docs, 0.25, 0.3, seed=11)
    ids = [d.doc_id for part in (split.train, split.validation, split.test) for d in part]
    assert sorted(ids) == sorted(d.doc_id for d in docs)
    assert len(set(ids)) == len(ids)


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_split_seed_must_fit_64_bits(seed):
    # masked to 64 bits, -1 and 2**64 - 1 shuffled alike
    with pytest.raises(ValueError, match=r"seed must lie in 0\.\.2\*\*64-1"):
        split_corpus(_docs(10), 0.2, 0.2, seed)
    assert split_corpus(_docs(10), 0.2, 0.2, 2**64 - 1) != split_corpus(_docs(10), 0.2, 0.2, 0)


@given(st.integers(min_value=0, max_value=2**63), st.integers(min_value=1, max_value=40))
def test_split_deterministic_and_seed_sensitive(seed, n):
    docs = _docs(n)
    a = split_corpus(docs, 0.2, 0.2, seed)
    b = split_corpus(docs, 0.2, 0.2, seed)
    assert a == b
    c = split_corpus(docs, 0.2, 0.2, seed + 1)
    assert len(c.train) == len(a.train)
    assert len(c.validation) == len(a.validation)
    assert len(c.test) == len(a.test)


def dot_examples(test):
    """The explicit (document, vectors) cases every dot kernel must score as the reference's inner product does."""
    cases = [
        # an empty document, and an empty vector
        (SparseVector(), [SparseVector(), vec((0, 1.0))]),
        # no shared term
        (vec((0, 1.0)), [vec((1, 1.0)), SparseVector()]),
        # subnormal weights and products that underflow
        (
            vec((0, 5e-324), (1, 0.1), (2, 1e3)),
            [vec((0, SMALLEST_NORMAL), (1, 0.7), (2, 1e-3)), vec((0, 5e-324), (2, 5e-324))],
        ),
        # a plain left-to-right sum gives 1.0 here; the correctly rounded sum is 1.0000000000000002
        (vec((0, 1.0), (1, 1.0), (2, 1.0)), [vec((0, 1.0), (1, 1e-16), (2, 1e-16))]),
    ]
    for d, vectors in cases:
        test = example(d, vectors)(test)
    return test


@given(sparse_vectors, st.lists(sparse_vectors, max_size=8))
@dot_examples
def test_inverted_index_scores_equal_dot_bit_for_bit(d, vectors):
    weights = dict(entries(d))
    assert InvertedIndex(vectors).dots(d) == [reference.inner_product(weights, dict(entries(v))) for v in vectors]


@given(sparse_vectors, st.lists(sparse_vectors, max_size=8))
@dot_examples
def test_term_table_scores_equal_dot_bit_for_bit(d, vectors):
    weights = dict(entries(d))
    assert TermTable(vectors).dots(d) == [reference.inner_product(weights, dict(entries(v))) for v in vectors]


def test_scorer_gives_dense_rows_from_the_threshold_fill():
    # one entry in one term: the table is 1 / len(vectors) full
    n = round(1 / DENSE_MIN_FILL)
    one_entry = [vec((7, 0.5))]
    assert table_fill(one_entry + [SparseVector()] * (n - 1)) == DENSE_MIN_FILL
    assert type(scorer(one_entry + [SparseVector()] * (n - 1))) is TermTable
    assert type(scorer(one_entry + [SparseVector()] * n)) is InvertedIndex
    assert table_fill([vec((0, 0.5), (1, 0.5)), vec((1, 0.5))]) == 0.75


@pytest.mark.parametrize("n", [0, 1, 3])
def test_scorer_gives_a_set_with_no_rows_postings(n):
    # every document term misses, so postings cost one lookup per term and dense rows a zero row per term
    index = scorer([SparseVector()] * n)
    assert table_fill([SparseVector()] * n) == 0.0
    assert type(index) is InvertedIndex
    assert index.dots(vec((0, 0.6), (4, 0.8))) == [0.0] * n
