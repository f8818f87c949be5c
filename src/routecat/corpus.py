"""Labeled documents, TF-IDF sparse vectors, and deterministic corpus splits.

Corpus files hold one ``doc_id<TAB>label<TAB>text`` line per document,
read by :func:`routecat.taxonomy.tsv_lines`.  Every document carries
exactly one label: the most specific category it belongs to, which may be
an internal node of the taxonomy.
"""

from __future__ import annotations

import hashlib
import math
import re
from array import array
from collections import Counter, defaultdict, deque
from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import chain, repeat
from operator import mul, truediv
from typing import Sequence

from routecat.prng import SplitMix64, checked_int
from routecat.taxonomy import NodeId, Taxonomy, tsv_lines

# maximal runs of two or more Unicode alphanumerics; underscore is not a word character here
_TOKEN = re.compile(r"[^\W_]{2,}", re.UNICODE)
# the same runs in lowercased ASCII text, where the alphanumerics are exactly a-z and 0-9
_ASCII_TOKEN = re.compile(r"[a-z0-9]{2,}")


class CorpusError(ValueError):
    """Malformed corpus input."""


@dataclass(frozen=True)
class Document:
    doc_id: str
    label: NodeId
    text: str


def tokenize(text: str) -> list[str]:
    """Lowercase, split on non-alphanumeric runs, drop tokens shorter than 2.

    No stemming and no stopword removal, so the same bytes always produce
    the same token sequence.  ASCII text, almost every input, skips the
    Unicode character class and gets the same tokens.
    """
    text = text.lower()
    return (_ASCII_TOKEN if text.isascii() else _TOKEN).findall(text)


@dataclass(frozen=True)
class Vocabulary:
    """Term index built from training documents only.

    ``terms`` lists each term once, in first-appearance order, so a term's
    index is its position; ``doc_frequency[k]`` counts the training
    documents containing ``terms[k]``.  Both are kept as tuples, so editing
    a list passed in changes nothing.
    """

    terms: tuple[str, ...]
    doc_frequency: tuple[int, ...]
    n_docs: int

    def __post_init__(self) -> None:
        """Refuse every vocabulary :func:`build_vocabulary` cannot make, on which idf would fail.

        That is ``n_docs`` that is not an integer of at least 1, ``terms`` and
        ``doc_frequency`` of different lengths, a term that is not a string or
        repeats, and a document frequency that is not an integer in 1..``n_docs``.
        """
        # tuple() of a tuple is the same object, so build_vocabulary's tuples are not copied again
        object.__setattr__(self, "terms", tuple(self.terms))
        object.__setattr__(self, "doc_frequency", tuple(self.doc_frequency))
        n_docs = checked_int(self.n_docs, "n_docs")
        if n_docs < 1:
            raise ValueError(f"n_docs must be at least 1, not {n_docs}")
        if len(self.terms) != len(self.doc_frequency):
            raise ValueError(f"{len(self.terms)} terms but {len(self.doc_frequency)} document frequencies")
        seen: set[str] = set()
        for term, df in zip(self.terms, self.doc_frequency):
            if not isinstance(term, str) or term in seen:
                raise ValueError(f"vocabulary term {term!r} is not a string or repeats")
            seen.add(term)
            df = checked_int(df, f"document frequency of {term!r}")
            if not 1 <= df <= n_docs:
                raise ValueError(f"document frequency {df} of {term!r} lies outside 1..{n_docs}")

    def __len__(self) -> int:
        return len(self.terms)

    @cached_property
    def idf_by_index(self) -> tuple[float, ...]:
        """Each term's :func:`idf` by index, computed once per distinct document frequency."""
        idf_of = {df: idf(self.n_docs, df) for df in set(self.doc_frequency)}
        return tuple(map(idf_of.__getitem__, self.doc_frequency))

    @cached_property
    def index_and_idf(self) -> dict[str, tuple[int, float]]:
        """Each term's index and idf, computed once; terms of idf 0 are left out."""
        return {
            term: (index, weight)
            for index, (term, weight) in enumerate(zip(self.terms, self.idf_by_index))
            if weight > 0.0
        }

    @cached_property
    def digest(self) -> str:
        """sha256 of the ``term<TAB>index<TAB>df`` lines in index order and the document count, hashed once."""
        h = hashlib.sha256()
        for index, (term, df) in enumerate(zip(self.terms, self.doc_frequency)):
            h.update(f"{term}\t{index}\t{df}\n".encode("utf-8"))
        h.update(str(self.n_docs).encode("utf-8"))
        return h.hexdigest()


def idf(n_docs: int, df: int) -> float:
    """Smoothed inverse document frequency ln((N + 1) / (df + 1)) of a term in ``df`` of ``n_docs`` documents.

    It is 0 for a term in every document, and no vector holds such a term.
    """
    return math.log((n_docs + 1) / (df + 1))


def _index_terms(train: Sequence[Document]) -> tuple[Vocabulary, list]:
    """The vocabulary of one pass over the training text, each document tokenized once, and each document's term counts.

    A term's index is its first appearance, so it is known the first time the
    term is seen.  A document's counts are its term indices and their
    frequencies, in order of first appearance in the document, as two packed
    ``array('I')``.
    """
    if not train:
        raise ValueError("cannot build a vocabulary from an empty training set")
    index: defaultdict[str, int] = defaultdict()
    index.default_factory = index.__len__  # an unseen term gets the next index, assigned in C
    df: Counter[int] = Counter()
    counts = []
    for doc in train:
        tf = Counter(map(index.__getitem__, tokenize(doc.text)))
        # a new index first reaches df here, after every smaller one, so df lists its counts in index order
        df.update(tf.keys())
        counts.append((array("I", tf.keys()), array("I", tf.values())))
    return Vocabulary(terms=tuple(index), doc_frequency=tuple(df.values()), n_docs=len(train)), counts


def build_vocabulary(train: Sequence[Document]) -> Vocabulary:
    """Index every distinct training token; ids follow first appearance."""
    return _index_terms(train)[0]


def index_training(train: Sequence[Document]) -> tuple[Vocabulary, list[SparseVector]]:
    """``(build_vocabulary(train), [vectorize(d, vocabulary) for d in train])`` bit for bit, in one pass.

    Each document is tokenized once.  The pass of :func:`build_vocabulary` keeps each document's term counts;
    once it ends, idf is known, and each document's counts are replaced by
    its vector as the vector is built.
    """
    vocabulary, vectors = _index_terms(train)
    idf_by_index = vocabulary.idf_by_index
    for k, (indices, tfs) in enumerate(vectors):
        vectors[k] = _unit_vector(
            {i: tf * weight for i, tf in zip(indices, tfs) if (weight := idf_by_index[i]) > 0.0}
        )
    return vocabulary, vectors


@dataclass(frozen=True, slots=True)
class SparseVector:
    """Sparse nonnegative vector as two parallel packed arrays: increasing term indices and their weights.

    ``indices`` holds C unsigned ints and ``weights`` C doubles, 12 bytes an
    entry, where a tuple of ``(index, weight)`` pairs costs about 116.  The
    two arrays are all a vector holds: ``slots`` leaves no room for a cache.

    The arrays must not be changed once the vector is built: ``frozen`` stops
    only rebinding them, and the entry rule a ``CentroidModel`` checks when
    it is built and the scoring tables it caches in ``group_tables`` both
    keep what the arrays held when read.  Arrays are unhashable, so a
    ``SparseVector`` is too.
    """

    indices: array = field(default_factory=partial(array, "I"))
    weights: array = field(default_factory=partial(array, "d"))

    def dot(self, other: SparseVector) -> float:
        """Inner product over matching indices, correctly rounded by fsum, so ``a.dot(b) == b.dot(a)``."""
        lookup = dict(zip(other.indices, other.weights))
        return math.fsum(w * lookup[i] for i, w in zip(self.indices, self.weights) if i in lookup)


class InvertedIndex:
    """Inner products of one document with each of a fixed list of vectors, in one call.

    The index maps every term to parallel lists of vector positions and
    weights (an inverted file, as in Zobel & Moffat 2006, "Inverted files for
    text search engines"), so a document touches only the postings of its
    own terms.  Each product lands in its vector's list and each score is
    the fsum of that list.  fsum is correctly rounded, so the order of the
    products does not matter, and a vector sharing no term scores
    ``fsum([]) == 0.0``: ``dots(d)[k] == d.dot(vectors[k])`` bit for bit,
    for vectors with distinct indices, as ``vectorize`` and ``mean_vector``
    build them.  Postings suit a sparse table, where most of a dense row
    would be padding (see :func:`scorer`).
    """

    def __init__(self, vectors: Sequence[SparseVector]) -> None:
        postings: dict[int, tuple[list[int], list[float]]] = {}
        for position, vec in enumerate(vectors):
            for i, w in zip(vec.indices, vec.weights):
                positions, weights = postings.setdefault(i, ([], []))
                positions.append(position)
                weights.append(w)
        self._postings = postings
        self._size = len(vectors)

    def dots(self, d: SparseVector) -> list[float]:
        """``[d.dot(v) for v in vectors]``, with the same floats."""
        acc: list[list[float]] = [[] for _ in range(self._size)]
        postings = self._postings
        for i, w in zip(d.indices, d.weights):
            if i in postings:
                positions, weights = postings[i]
                # C-level loop: append w * weight to acc[position] for each posting
                deque(map(list.append, map(acc.__getitem__, positions), map(mul, repeat(w), weights)), maxlen=0)
        return list(map(math.fsum, acc))


class TermTable:
    """Inner products of one document with each of a fixed list of vectors, one table row per term.

    The table maps every term to a tuple of weights with one column per
    vector, 0.0 where a vector lacks the term.  A document looks up one row
    per term (a term no vector holds gets the all-zero row), the rows are
    transposed into columns in C, and each score is the fsum of the
    column's products.  The padding products are +0.0 for nonnegative
    document weights and leave an fsum unchanged, and fsum is correctly
    rounded, so ``dots(d)[k] == d.dot(vectors[k])`` bit for bit, for
    vectors with distinct indices.  Dense rows suit a table whose rows are
    mostly weights, not padding (see :func:`scorer`).
    """

    def __init__(self, vectors: Sequence[SparseVector]) -> None:
        rows: dict[int, list[float]] = {}
        for column, vec in enumerate(vectors):
            for i, w in zip(vec.indices, vec.weights):
                if i not in rows:
                    rows[i] = [0.0] * len(vectors)
                rows[i][column] = w
        self._rows = {i: tuple(row) for i, row in rows.items()}
        self._zero_row = (0.0,) * len(vectors)

    def dots(self, d: SparseVector) -> list[float]:
        """``[d.dot(v) for v in vectors]``, with the same floats."""
        if not d.indices:
            return list(self._zero_row)
        columns = zip(*map(self._rows.get, d.indices, repeat(self._zero_row)))
        weights = d.weights.tolist()  # boxed once, not once per column
        return [math.fsum(map(mul, weights, column)) for column in columns]


# Fill (centroid entries / (distinct terms * vectors)) from which dense rows
# score faster than postings.  Per document over depth-1 leaf sets of synthetic
# text, dense rows won above fill 0.1 on every text style measured.  Postings
# won from about 0.06 on node-heavy-style text, and by 2.4x at 0.005 (512
# leaves); binary-siblings-style text stayed near a tie from 0.09 down to 0.03;
# long docs-heavy-style documents, which mostly hit full rows, still scored
# faster dense at 0.027.  0.05 follows the node-heavy-style crossover.
DENSE_MIN_FILL = 0.05


def table_fill(vectors: Sequence[SparseVector]) -> float:
    """Share of a dense term table over ``vectors`` that holds weights: entries / (distinct terms * vectors).

    0.0 when the vectors have no entries at all.
    """
    entries = sum(len(vec.indices) for vec in vectors)
    if not entries:
        return 0.0
    terms = len(set(chain.from_iterable(vec.indices for vec in vectors)))
    return entries / (terms * len(vectors))


def scorer(vectors: Sequence[SparseVector]) -> TermTable | InvertedIndex:
    """The exact kernel that scores a document against ``vectors`` faster: dense rows or postings.

    A table at least :data:`DENSE_MIN_FILL` full gets a :class:`TermTable`.
    A sparser one gets an :class:`InvertedIndex`, and so does one with no
    rows at all, where every document term costs one missed lookup instead
    of a zero row per term.  Both kernels return ``[d.dot(v) for v in
    vectors]`` bit for bit, so the choice changes only the speed.
    """
    if table_fill(vectors) >= DENSE_MIN_FILL:
        return TermTable(vectors)
    return InvertedIndex(vectors)


def vectorize(doc: Document, vocab: Vocabulary) -> SparseVector:
    """TF-IDF vector of a document, L2-normalized.

    Out-of-vocabulary terms are dropped, as are terms whose idf is zero
    (terms present in every training document), so the result may be empty.
    """
    index_and_idf = vocab.index_and_idf
    # tf * idf of each known term, by term index; each distinct term is looked up once
    return _unit_vector({
        found[0]: tf * found[1]
        for term, tf in Counter(tokenize(doc.text)).items()
        if (found := index_and_idf.get(term)) is not None
    })


def _unit_vector(weight_of: dict[int, float]) -> SparseVector:
    """The vector of the given weights by term index, in increasing index order, divided by their fsum L2 norm."""
    indices = sorted(weight_of)
    weights = list(map(weight_of.__getitem__, indices))
    norm = math.sqrt(math.fsum(map(mul, weights, weights)))
    return SparseVector(array("I", indices), array("d", map(truediv, weights, repeat(norm))))


@dataclass(frozen=True)
class CorpusSplit:
    train: tuple[Document, ...]
    validation: tuple[Document, ...]
    test: tuple[Document, ...]


def load_corpus(text: str, taxonomy: Taxonomy) -> list[Document]:
    """Parse corpus lines in file order, validating labels against the taxonomy."""
    docs: list[Document] = []
    seen: set[str] = set()
    for lineno, line, parts in tsv_lines(text):
        if len(parts) != 3 or not parts[0] or not parts[1]:
            raise CorpusError(f"line {lineno}: expected doc_id<TAB>label<TAB>text, got {line!r}")
        doc_id, label, body = parts
        if doc_id in seen:
            raise CorpusError(f"line {lineno}: duplicate doc_id {doc_id!r}")
        if label not in taxonomy:
            raise CorpusError(f"line {lineno}: unknown label {label!r}")
        if label == taxonomy.root:
            raise CorpusError(f"line {lineno}: label is the taxonomy root")
        seen.add(doc_id)
        docs.append(Document(doc_id=doc_id, label=label, text=body))
    return docs


def split_corpus(
    docs: Sequence[Document],
    val_fraction: float,
    test_fraction: float,
    seed: int,
) -> CorpusSplit:
    """Shuffle deterministically under ``seed`` and partition by fractions.

    Validation and test sizes are floor(fraction * n); the remainder trains.
    The shuffle is the fixed splitmix64 Fisher-Yates from :mod:`routecat.prng`,
    so the same inputs give byte-identical partitions on every platform.
    """
    if not (0.0 <= val_fraction < 1.0 and 0.0 <= test_fraction < 1.0):
        raise ValueError("fractions must lie in [0, 1)")
    if val_fraction + test_fraction >= 1.0:
        raise ValueError("val_fraction + test_fraction must be < 1")
    order = list(docs)
    SplitMix64(seed).shuffle(order)
    n_val = int(val_fraction * len(order))
    n_test = int(test_fraction * len(order))
    return CorpusSplit(
        validation=tuple(order[:n_val]),
        test=tuple(order[n_val : n_val + n_test]),
        train=tuple(order[n_val + n_test :]),
    )
