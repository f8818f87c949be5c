import math
import re

import pytest
from hypothesis import example, given, strategies as st

from conftest import LINE_SEPARATORS, SMALLEST_NORMAL, entries, sparse_vectors, vec
from routecat.corpus import (
    DENSE_MIN_FILL,
    CorpusError,
    Document,
    InvertedIndex,
    SparseVector,
    TermTable,
    build_vocabulary,
    load_corpus,
    scorer,
    split_corpus,
    table_fill,
    tokenize,
    vectorize,
)


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


def _vocab_two_docs():
    return build_vocabulary(
        [Document("d1", "A1", "cat"), Document("d2", "A1", "cat dog")]
    )


def test_build_vocabulary():
    v = build_vocabulary([Document("d1", "A1", "cat cat dog")])
    assert v.index == {"cat": 0, "dog": 1}
    assert v.doc_frequency == {"cat": 1, "dog": 1}
    assert v.n_docs == 1

    v2 = _vocab_two_docs()
    assert v2.doc_frequency == {"cat": 2, "dog": 1}
    assert v2.n_docs == 2


def test_build_vocabulary_empty():
    with pytest.raises(ValueError):
        build_vocabulary([])


def test_vectorize_term_in_every_doc_vanishes():
    # idf of "cat" is ln(3/3) = 0, so the only weight is zero and the vector is empty
    v = _vocab_two_docs()
    assert vectorize(Document("q", "A1", "cat"), v) == SparseVector()


def test_vectorize_single_term_normalizes_to_one():
    v = _vocab_two_docs()
    vec = vectorize(Document("q", "A1", "dog dog"), v)
    assert entries(vec) == ((v.index["dog"], 1.0),)


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
    assert set(entries) == {v.index["dog"], v.index["fish"]}
    assert entries[v.index["dog"]] == pytest.approx(w_dog / norm, abs=1e-12)
    assert entries[v.index["fish"]] == pytest.approx(w_fish / norm, abs=1e-12)


words = st.sampled_from(["cat", "dog", "fish", "bird", "ant", "bee", "cow", "owl"])
texts = st.lists(words, min_size=1, max_size=12).map(" ".join)


@given(st.lists(texts, min_size=1, max_size=8), texts)
def test_vectorize_norm_is_unit_or_empty(train_texts, query):
    train = [Document(f"d{i}", "A1", t) for i, t in enumerate(train_texts)]
    v = build_vocabulary(train)
    vec = vectorize(Document("q", "A1", query), v)
    if vec.indices:
        assert abs(math.sqrt(math.fsum(w * w for w in vec.weights)) - 1.0) <= 1e-9


def vectorize_by_the_formula(doc, vocab):
    """vectorize with ln((N + 1) / (df + 1)) computed for every term of the document."""
    counts = {}
    for term in tokenize(doc.text):
        if term in vocab.index:
            counts[term] = counts.get(term, 0) + 1
    weights = {}
    for term, tf in counts.items():
        w = tf * math.log((vocab.n_docs + 1) / (vocab.doc_frequency[term] + 1))
        if w > 0.0:
            weights[vocab.index[term]] = w
    norm = math.sqrt(math.fsum(w * w for w in weights.values()))
    return vec(*((i, weights[i] / norm) for i in sorted(weights)))


@given(st.lists(texts, min_size=1, max_size=8), texts)
def test_vectorize_with_precomputed_idf_equals_the_formula(train_texts, query):
    docs = [Document(f"d{i}", "A", text) for i, text in enumerate(train_texts)]
    vocab = build_vocabulary(docs)
    for term in vocab.index:
        assert vocab.idf_of[term] == math.log((vocab.n_docs + 1) / (vocab.doc_frequency[term] + 1))
    for doc in [*docs, Document("q", "A", query)]:
        assert vectorize(doc, vocab) == vectorize_by_the_formula(doc, vocab)


@given(st.lists(texts, min_size=1, max_size=8))
@example(["cat dog cat", "dog bird dog", "bird cat cat bird"])
def test_build_vocabulary_numbers_terms_by_first_appearance_and_counts_each_document_once(train_texts):
    docs = [Document(f"d{i}", "A", text) for i, text in enumerate(train_texts)]
    vocab = build_vocabulary(docs)
    stream = [term for doc in docs for term in tokenize(doc.text)]
    first_appearance = sorted(set(stream), key=stream.index)
    assert vocab.index == {term: k for k, term in enumerate(first_appearance)}
    assert vocab.doc_frequency == {term: sum(term in tokenize(doc.text) for doc in docs) for term in first_appearance}
    assert vocab.n_docs == len(docs)


@given(st.lists(texts, min_size=1, max_size=8))
def test_vocabulary_only_from_train(train_texts):
    train = [Document(f"d{i}", "A1", t) for i, t in enumerate(train_texts)]
    v = build_vocabulary(train)
    seen = set()
    for d in train:
        seen.update(tokenize(d.text))
    assert set(v.index) == seen
    assert all(1 <= v.doc_frequency[t] <= v.n_docs for t in v.index)


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
    """The explicit (document, vectors) cases every dot kernel must score as ``SparseVector.dot`` does."""
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
    scores = InvertedIndex(vectors).dots(d)
    assert len(scores) == len(vectors)
    for score, v in zip(scores, vectors):
        assert score == d.dot(v)


@given(sparse_vectors, st.lists(sparse_vectors, max_size=8))
@dot_examples
def test_term_table_scores_equal_dot_bit_for_bit(d, vectors):
    scores = TermTable(vectors).dots(d)
    assert len(scores) == len(vectors)
    for score, v in zip(scores, vectors):
        assert score == d.dot(v)


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
