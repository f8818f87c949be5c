"""Per-node prototype vectors and inner-product scoring.

Each non-root taxonomy node gets one centroid: the plain (un-renormalized)
mean of the TF-IDF vectors of its member documents.  A node's score for a
document is the inner product with that centroid, optionally contrasted
against a negative centroid in binary mode.
"""

from __future__ import annotations

import base64
import enum
import hashlib
import json
import math
import sys
from array import array
from dataclasses import dataclass, field
from itertools import chain, repeat
from operator import truediv
from typing import Callable, Mapping, Sequence, TypeVar

from routecat.corpus import Document, InvertedIndex, SparseVector, TermTable, Vocabulary, scorer, vectorize
from routecat.policies import PolicyKind, build_training_set, positives_for_centroid
from routecat.taxonomy import NodeId, Taxonomy, TaxonomyError, UnknownNodeError, format_taxonomy, parse_taxonomy

MODEL_FORMAT_VERSION = 3

T = TypeVar("T")


class ModelFormatError(Exception):
    """Model file is not readable by this version of the code."""


class Mode(str, enum.Enum):
    POSITIVE_ONLY = "positive-only"
    BINARY = "binary"


@dataclass(frozen=True)
class CentroidModel:
    """Trained centroids for every non-root node, plus the vector space.

    Nodes with no member documents map to the empty vector and score 0.
    The taxonomy travels with the model so a serialized model is
    self-contained for classification.  ``training_digest`` is the
    :func:`documents_digest` of the training documents, so that evaluation
    can refuse a split whose training part differs.  ``group_tables``
    caches the kernel :func:`~routecat.corpus.scorer` builds for each
    sibling group, keyed by the group's parent, as :func:`group_scores`
    first needs it.
    """

    taxonomy: Taxonomy
    vocabulary: Vocabulary
    mode: Mode
    policy: PolicyKind | None
    centroid_of: Mapping[NodeId, SparseVector]
    negative_centroid_of: Mapping[NodeId, SparseVector] | None = None
    training_digest: str = ""
    group_tables: dict[NodeId, TermTable | InvertedIndex] = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        """Refuse every model top-down routing cannot use.

        That is a mode, policy or ``training_digest`` of the wrong type, a root
        without children, a policy or negative centroids that do not fit the
        mode, centroids or negative centroids not keyed by exactly the non-root
        nodes, and a centroid whose term indices do not increase below the
        vocabulary size or whose weights leave [0, 1], as no trained one does.
        """
        if not isinstance(self.training_digest, str):  # model_identity hashes its length and text
            raise TypeError(f"training_digest must be a string, not {self.training_digest!r}")
        _check_mode_and_policy(self.mode, self.policy)
        t = self.taxonomy
        if not t.children(t.root):
            raise TaxonomyError("taxonomy root has no children")
        binary = self.mode is Mode.BINARY
        if (self.negative_centroid_of is not None) != binary:
            kind = "a binary model needs" if binary else "a positive-only model takes no"
            raise ValueError(f"{kind} negative centroids")
        n_terms = len(self.vocabulary)
        for what, vectors in (("centroid", self.centroid_of), ("negative centroid", self.negative_centroid_of)):
            if vectors is None:  # a positive-only model's negatives
                continue
            missing = [node for node in t.nodes if node != t.root and node not in vectors]
            if missing:
                raise ValueError(f"no {what} for node {missing[0]!r}")
            extra = [node for node in vectors if node == t.root or node not in t]
            if extra:
                raise ValueError(f"a {what} for {extra[0]!r}, which is the root or not in the taxonomy")
            for node, vec in vectors.items():
                # SparseVector.dot and InvertedIndex give the same scores only for distinct term indices.  A trained
                # weight is a mean of coordinates of unit nonnegative vectors, so it lies in [0, 1]: a negative one
                # breaks TermTable's zero padding and confidence in (0, 1], and a huge one overflows the exact sums
                for previous, i, w in zip(chain((-1,), vec.indices), vec.indices, vec.weights):
                    if not previous < i < n_terms:
                        raise ValueError(
                            f"centroid of {node!r}: term indices must increase below {n_terms}, got {i} after {previous}"
                        )
                    if not 0.0 <= w <= 1.0:
                        raise ValueError(
                            f"centroid of {node!r}: weight {w!r} of term {i} is negative, above 1 or not finite"
                        )


def _check_mode_and_policy(mode: Mode, policy: PolicyKind | None) -> None:
    """Refuse a mode or policy of the wrong type, a binary mode without a training policy and a policy in positive-only mode.

    A plain string such as ``"binary"`` is not read as the member of that value.
    """
    if not isinstance(mode, Mode):
        raise TypeError(f"mode must be a Mode, not {mode!r}")
    if policy is not None and not isinstance(policy, PolicyKind):
        raise TypeError(f"policy must be a PolicyKind or None, not {policy!r}")
    if mode is Mode.BINARY and policy is None:
        raise ValueError("binary mode requires a training policy")
    if mode is Mode.POSITIVE_ONLY and policy is not None:
        raise ValueError(f"policy {policy.value!r} applies only in binary mode")


def mean_vector(doc_ids: frozenset[str], vectors: Mapping[str, SparseVector]) -> SparseVector:
    """Coordinate-wise mean of the selected vectors.

    Each coordinate is summed with fsum (correctly rounded, so the result is
    independent of accumulation order) and divided by the member count;
    repeated runs produce bit-identical floats.
    """
    if not doc_ids:
        return SparseVector()
    acc: dict[int, list[float]] = {}
    for doc_id in doc_ids:
        vec = vectors[doc_id]
        for idx, w in zip(vec.indices, vec.weights):
            acc.setdefault(idx, []).append(w)
    indices = array("I", sorted(acc))
    sums = map(math.fsum, map(acc.__getitem__, indices))
    return SparseVector(indices, array("d", map(truediv, sums, repeat(len(doc_ids)))))


def train(
    train_docs: Sequence[Document],
    taxonomy: Taxonomy,
    vocabulary: Vocabulary,
    mode: Mode = Mode.POSITIVE_ONLY,
    policy: PolicyKind | None = None,
) -> CentroidModel:
    """Build one centroid per non-root node.

    In positive-only mode a node averages every document labeled at the node
    or below it.  In binary mode the chosen policy supplies the positive set,
    and the mean of its negative set is stored alongside for contrastive
    scoring; a policy in positive-only mode is refused, not ignored.
    """
    if not train_docs:
        raise ValueError("empty training set")
    _check_mode_and_policy(mode, policy)
    vectors = {d.doc_id: vectorize(d, vocabulary) for d in train_docs}
    centroids: dict[NodeId, SparseVector] = {}
    negatives: dict[NodeId, SparseVector] = {}
    for node in taxonomy.nodes:
        if node == taxonomy.root:
            continue
        if mode is Mode.POSITIVE_ONLY:
            centroids[node] = mean_vector(positives_for_centroid(train_docs, taxonomy, node), vectors)
        else:
            ts = build_training_set(train_docs, taxonomy, node, policy)
            centroids[node] = mean_vector(ts.positives, vectors)
            negatives[node] = mean_vector(ts.negatives, vectors)
    return CentroidModel(
        taxonomy=taxonomy,
        vocabulary=vocabulary,
        mode=mode,
        policy=policy,
        centroid_of=centroids,
        negative_centroid_of=negatives if mode is Mode.BINARY else None,
        training_digest=documents_digest(train_docs),
    )


def node_score(model: CentroidModel, d: SparseVector, node: NodeId) -> float:
    """Unnormalized posterior of ``node`` for document vector ``d``.

    Binary mode subtracts the negative-centroid similarity and clamps at
    zero so downstream confidence ratios stay within [0, 1].
    """
    if node not in model.centroid_of:
        raise UnknownNodeError(f"no classifier for node {node!r}")
    score = d.dot(model.centroid_of[node])
    if model.mode is Mode.BINARY:
        score = max(0.0, score - d.dot(model.negative_centroid_of[node]))
    return score


def group_scores(model: CentroidModel, d: SparseVector, parent: NodeId) -> list[float]:
    """``[node_score(model, d, c) for c in children(parent)]``, with the same floats, in one pass over ``d``'s terms.

    The group's scorer (dense rows or postings, as
    :func:`~routecat.corpus.scorer` picks) is built the first time it is
    needed and cached on the model: one column per child centroid, followed
    in binary mode by one per child's negative centroid.
    """
    table = model.group_tables.get(parent)
    if table is None:
        group = model.taxonomy.children(parent)
        vectors = [model.centroid_of[node] for node in group]
        if model.mode is Mode.BINARY:
            vectors += [model.negative_centroid_of[node] for node in group]
        table = model.group_tables[parent] = scorer(vectors)
    scores = table.dots(d)
    if model.mode is Mode.BINARY:
        half = len(scores) // 2
        return [max(0.0, pos - neg) for pos, neg in zip(scores[:half], scores[half:])]
    return scores


def vocabulary_digest(vocab: Vocabulary) -> str:
    """Stable fingerprint of a vocabulary (:attr:`~routecat.corpus.Vocabulary.digest`), stored in both artifacts."""
    return vocab.digest


def model_identity(model: CentroidModel) -> str:
    """sha256 of what fixes every centroid: the training documents' digest, the taxonomy, the mode and the policy.

    A calibration records the identity of the model it was computed for.
    """
    policy = model.policy.value if model.policy is not None else ""
    h = hashlib.sha256()
    for part in (model.training_digest, format_taxonomy(model.taxonomy), model.mode.value, policy):
        h.update(f"{len(part)}:{part}".encode("utf-8"))
    return h.hexdigest()


def documents_digest(docs: Sequence[Document]) -> str:
    """sha256 of the documents written as ``doc_id<TAB>label<TAB>text`` corpus lines, in order."""
    h = hashlib.sha256()
    for d in docs:
        h.update(f"{d.doc_id}\t{d.label}\t{d.text}\n".encode("utf-8"))
    return h.hexdigest()


def dumps_artifact(kind: str, version: int, fields: Mapping[str, object]) -> str:
    """Canonical JSON of a ``routecat-<kind>`` artifact: sorted keys, compact, one trailing newline.

    NaN and the infinities raise ``ValueError``: RFC 8259 JSON has no spelling for them.
    """
    payload = {"format": f"routecat-{kind}", "format_version": version, **fields}
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"


def loads_artifact(text: str, kind: str, version: int, error: type[Exception], build: Callable[[dict], T]) -> T:
    """Inverse of :func:`dumps_artifact`: check the envelope, then return ``build(payload)``.

    Every failure raises ``error``: text that is not JSON or has another format or
    version, a field ``build`` misses (``KeyError``), or one it finds malformed.
    """
    try:
        payload = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also a number of too many digits, or nesting too deep
        raise error(f"{kind} file is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("format") != f"routecat-{kind}":
        raise error(f"not a {kind} file")
    if payload.get("format_version") != version:
        raise error(f"unsupported {kind} format version {payload.get('format_version')!r}, expected {version}")
    try:
        return build(payload)
    except KeyError as exc:
        raise error(f"{kind} file has no field {exc}") from exc
    except (TypeError, ValueError, OverflowError, AttributeError, TaxonomyError) as exc:
        raise error(f"malformed {kind} file: {exc}") from exc


def checked_int(value: object, what: str) -> int:
    """``value`` if JSON read it as an integer (true and false load as bool, a subclass of int)."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, not {value!r}")
    return value


def dumps_model(model: CentroidModel) -> str:
    """Serialize a model to canonical standard JSON (see :func:`dumps_artifact`)."""
    vocab = model.vocabulary
    terms = sorted(vocab.index.items(), key=lambda kv: kv[1])
    fields = {
        "mode": model.mode.value,
        "policy": model.policy.value if model.policy is not None else None,
        "taxonomy": format_taxonomy(model.taxonomy),
        "vocabulary": {
            "n_docs": vocab.n_docs,
            "terms": [[term, idx, vocab.doc_frequency[term]] for term, idx in terms],
        },
        "vocabulary_digest": vocabulary_digest(vocab),
        "training_digest": model.training_digest,
        "centroids": {node: _packed(vec) for node, vec in model.centroid_of.items()},
        "negative_centroids": (
            {node: _packed(vec) for node, vec in model.negative_centroid_of.items()}
            if model.negative_centroid_of is not None
            else None
        ),
    }
    return dumps_artifact("model", MODEL_FORMAT_VERSION, fields)


def _packed(vec: SparseVector) -> list[str]:
    """A centroid as ``model.json`` stores it: ``[indices, weights]``, two standard base64 strings.

    ``indices`` packs the term indices as little-endian uint32 and ``weights``
    the weights as little-endian IEEE-754 float64, so the bytes do not depend
    on the platform and every weight loads back bit for bit.
    """
    return [base64.b64encode(_little_endian(a)).decode("ascii") for a in (vec.indices, vec.weights)]


def _little_endian(a: array) -> bytes:
    """The items of ``a`` as little-endian bytes, on a host of either byte order."""
    if sys.byteorder == "big":
        a = array(a.typecode, a)
        a.byteswap()
    return a.tobytes()


def _from_little_endian(typecode: str, data: bytes) -> array:
    """Inverse of :func:`_little_endian`: an array of ``typecode`` items from their little-endian bytes."""
    a = array(typecode, data)
    if sys.byteorder == "big":
        a.byteswap()
    return a


def loads_model(text: str) -> CentroidModel:
    """Inverse of :func:`dumps_model`.

    Unknown formats and versions, missing or wrongly typed fields, a
    vocabulary whose indices are not its positions 0..n-1 or whose terms
    repeat, ``n_docs`` below 1 or a document frequency outside 1..``n_docs``,
    a stored ``vocabulary_digest`` that is not the vocabulary's own, a
    centroid that is not two base64 strings of n term indices and n weights
    (see :func:`_packed`), and any model :class:`CentroidModel` refuses (it
    holds the centroid entry rule) raise :class:`ModelFormatError`.
    Vocabulary values are checked as JSON typed them, never converted.
    """
    return loads_artifact(text, "model", MODEL_FORMAT_VERSION, ModelFormatError, _model_from_payload)


def _model_from_payload(payload: dict) -> CentroidModel:
    vocab_payload = payload["vocabulary"]
    # build_vocabulary counts at least one document, and each term in 1..n_docs of them; idf needs both
    n_docs = checked_int(vocab_payload["n_docs"], "n_docs")
    if n_docs < 1:
        raise ValueError(f"n_docs must be at least 1, not {n_docs}")
    index: dict[str, int] = {}
    doc_frequency: dict[str, int] = {}
    for position, (term, idx, df) in enumerate(vocab_payload["terms"]):
        if not isinstance(term, str) or term in index:
            raise ValueError(f"vocabulary term {term!r} is not a string or repeats")
        if type(idx) is not int or idx != position:
            raise ValueError(f"vocabulary term {term!r} has index {idx!r} at position {position}")
        index[term] = idx
        doc_frequency[term] = checked_int(df, f"document frequency of {term!r}")
        if not 1 <= df <= n_docs:
            raise ValueError(f"document frequency {df} of {term!r} lies outside 1..{n_docs}")
    vocabulary = Vocabulary(index=index, doc_frequency=doc_frequency, n_docs=n_docs)
    if payload["vocabulary_digest"] != vocabulary.digest:
        raise ValueError(f"vocabulary_digest {payload['vocabulary_digest']!r} is not the digest of the vocabulary")

    def vector(node: NodeId, value: object) -> SparseVector:
        if type(value) is not list or len(value) != 2 or not all(type(s) is str for s in value):
            raise ValueError(f"centroid of {node!r}: not a list of two base64 strings")
        try:
            packed_indices, packed_weights = (base64.b64decode(s, validate=True) for s in value)
        except ValueError as exc:  # binascii.Error, or a character outside ASCII
            raise ValueError(f"centroid of {node!r}: not base64: {exc}") from exc
        n = len(packed_indices) // 4
        if len(packed_indices) != 4 * n or len(packed_weights) != 8 * n:
            raise ValueError(
                f"centroid of {node!r}: {len(packed_indices)} index bytes and {len(packed_weights)} weight bytes"
                " are not 4n and 8n for one n"
            )
        return SparseVector(_from_little_endian("I", packed_indices), _from_little_endian("d", packed_weights))

    def vectors(mapping: dict) -> dict[NodeId, SparseVector]:
        return {node: vector(node, value) for node, value in mapping.items()}

    policy = payload["policy"]
    negative = payload["negative_centroids"]
    return CentroidModel(
        taxonomy=parse_taxonomy(payload["taxonomy"]),
        vocabulary=vocabulary,
        mode=Mode(payload["mode"]),
        policy=PolicyKind(policy) if policy is not None else None,
        centroid_of=vectors(payload["centroids"]),
        negative_centroid_of=vectors(negative) if negative is not None else None,
        training_digest=payload["training_digest"],
    )
