"""Per-node prototype vectors and inner-product scoring.

Each non-root taxonomy node gets one centroid: the plain (un-renormalized)
mean of the TF-IDF vectors of its member documents.  A node's score for a
document is the inner product with that centroid, optionally contrasted
against a negative centroid in binary mode.
"""

from __future__ import annotations

import base64
import hashlib
import json
import math
import sys
from array import array
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, compress, repeat
from operator import add, mul, sub, truediv
from typing import Callable, Iterable, Mapping, Sequence, TypeVar

from routecat.corpus import Document, InvertedIndex, SparseVector, TermTable, Vocabulary, scorer, vectorize
from routecat.policies import Mode, PolicyKind, build_training_set
from routecat.taxonomy import NodeId, Taxonomy, TaxonomyError, UnknownNodeError, format_taxonomy, parse_taxonomy

MODEL_FORMAT_VERSION = 4

T = TypeVar("T")


class ModelFormatError(ValueError):
    """Model file is not readable by this version of the code."""


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
        nodes, and a centroid whose arrays differ in length, whose term indices
        do not increase below the vocabulary size or whose weights leave
        [0, 1], as no trained one does.
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
                if len(vec.indices) != len(vec.weights):  # zip would stop at the shorter array
                    raise ValueError(
                        f"centroid of {node!r}: {len(vec.indices)} term indices and {len(vec.weights)} weights"
                        " differ in number"
                    )
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
    repeated runs produce bit-identical floats.  :func:`train` reads the
    same means from :class:`LabelSums`; this is the reference it is tested
    against.
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
    vectors: Sequence[SparseVector] | None = None,
) -> CentroidModel:
    """Build one centroid per non-root node.

    In positive-only mode a node averages every document labeled at the node
    or below it.  In binary mode the chosen policy supplies the positive set,
    and the mean of its negative set is stored alongside for contrastive
    scoring; a policy in positive-only mode is refused, not ignored.  Every
    centroid is read from one table of exact per-label sums
    (:class:`LabelSums`), and equals :func:`mean_vector` of its documents bit
    for bit.  Documents must have distinct ids.  ``vectors`` holds the
    training documents' vectors when :func:`~routecat.corpus.index_training`
    made them with the vocabulary; without it each document is vectorized.
    """
    if not train_docs:
        raise ValueError("empty training set")
    _check_mode_and_policy(mode, policy)
    if vectors is None:
        vectors = [vectorize(d, vocabulary) for d in train_docs]
    elif len(vectors) != len(train_docs):
        raise ValueError(f"{len(vectors)} vectors for {len(train_docs)} training documents")
    sums = LabelSums(train_docs, vectors)
    nodes = [node for node in taxonomy.nodes if node != taxonomy.root]
    negatives: dict[NodeId, SparseVector] | None = None
    if mode is Mode.POSITIVE_ONLY:
        subtree_means = sums.subtree_means(taxonomy)
        centroids = {node: subtree_means[node] for node in nodes}
    else:
        centroids, negatives = {}, {}
        for node in nodes:
            ts = build_training_set(train_docs, taxonomy, node, policy)
            centroids[node] = sums.mean_of(ts.positives)
            negatives[node] = sums.mean_of(ts.negatives)
    return CentroidModel(
        taxonomy=taxonomy,
        vocabulary=vocabulary,
        mode=mode,
        policy=policy,
        centroid_of=centroids,
        negative_centroid_of=negatives,
        training_digest=documents_digest(train_docs),
    )


class LabelSums:
    """Exact sums of the training documents' vectors, one per label; centroids are read from them, rounded once.

    ``vectors[k]`` is the vector of ``train_docs[k]``; its weights must lie
    in [2**-918, 1], and :func:`~routecat.corpus.vectorize` makes no others
    (see :data:`MAX_SHIFT`).  With ``shift`` = 53 minus the binary exponent
    of the smallest weight, every weight is an integer multiple of
    2**-``shift``, so each is stored as that exact integer and each label
    keeps one integer sum per term and its document count.  A set of
    documents that is a union of whole labels then has exact sums in
    integer arithmetic, and its mean ``(S / 2**shift) / n`` rounds the exact
    sum once per coordinate, so it equals ``math.fsum(weights) / n``, as
    :func:`mean_vector` computes it.  Weights are positive, so a term
    belongs to a set's mean iff its exact sum is.
    """

    def __init__(self, train_docs: Sequence[Document], vectors: Sequence[SparseVector]) -> None:
        self.label_of = {d.doc_id: d.label for d in train_docs}
        if len(self.label_of) != len(train_docs):
            raise ValueError("training documents must have distinct ids")
        smallest = min((min(v.weights) for v in vectors if v.weights), default=1.0)
        self.shift = 53 - math.frexp(smallest)[1]
        if self.shift > MAX_SHIFT:
            raise ValueError(f"weight {smallest!r} is below 2**-918, the smallest that is summed exactly")
        scale = 2.0**self.shift  # a weight of at most 1 times 2.0**shift is an exact, finite integer
        self.sum_of: dict[NodeId, dict[int, int]] = {}
        self.count_of: dict[NodeId, int] = {}
        for d, v in zip(train_docs, vectors):
            integers = map(float.__trunc__, map(mul, v.weights, repeat(scale)))
            if d.label in self.sum_of:
                _add_into(self.sum_of[d.label], v.indices, integers)
                self.count_of[d.label] += 1
            else:
                self.sum_of[d.label] = dict(zip(v.indices, integers))
                self.count_of[d.label] = 1

    @cached_property
    def _total(self) -> dict[int, int]:
        """The sums over every training document."""
        total: dict[int, int] = {}
        for sums in self.sum_of.values():
            _add_into(total, sums, sums.values())
        return total

    def mean_of(self, doc_ids: frozenset[str]) -> SparseVector:
        """:func:`mean_vector` of ``doc_ids``, which must hold every training document of each of their labels.

        The labels' sums are added directly, or taken from the total by
        subtracting the labels outside the set, whichever costs less.  The
        complement also copies the total and drops its zero sums, which
        together cost about half as much per term as adding one entry.
        """
        labels = set(map(self.label_of.__getitem__, doc_ids))
        n = sum(map(self.count_of.__getitem__, labels))
        if n != len(doc_ids):
            raise ValueError("a training set must hold every document of each of its labels")
        inside = sum(len(self.sum_of[label]) for label in labels)
        outside = sum(map(len, self.sum_of.values())) - inside
        if inside <= outside + len(self._total) // 2:
            parts = [self.sum_of[label] for label in labels]
            acc = dict(parts.pop()) if parts else {}
            for sums in parts:
                _add_into(acc, sums, sums.values())
        else:
            acc = dict(self._total)
            for label in self.sum_of.keys() - labels:
                _add_into(acc, self.sum_of[label], self.sum_of[label].values(), sub)
            acc = dict(compress(acc.items(), acc.values()))  # the terms whose sum is not 0
        return self._mean(acc, n)

    def subtree_means(self, taxonomy: Taxonomy) -> dict[NodeId, SparseVector]:
        """Each non-root node's mean over the documents labeled at it or below it.

        A node's sums are its own label's plus its children's, built bottom-up
        in reverse :attr:`~routecat.taxonomy.Taxonomy.nodes` order and added
        into the largest part in place.  Each child's sums are dropped once its
        parent holds them.  This consumes the label sums.
        """
        pending: dict[NodeId, tuple[dict[int, int], int]] = {}
        means: dict[NodeId, SparseVector] = {}
        for node in reversed(taxonomy.nodes):
            if node == taxonomy.root:
                continue
            parts = [pending.pop(child) for child in taxonomy.children_of[node]]
            parts.append((self.sum_of.pop(node, {}), self.count_of.get(node, 0)))
            acc = max((sums for sums, _ in parts), key=len)
            for sums, _ in parts:
                if sums is not acc:
                    _add_into(acc, sums, sums.values())
            n = sum(count for _, count in parts)
            means[node] = self._mean(acc, n)
            pending[node] = acc, n
        return means

    def _mean(self, acc: dict[int, int], n: int) -> SparseVector:
        """The mean of ``n`` documents whose exact sums are ``acc``: each sum over 2**shift, then over n."""
        indices = sorted(acc)
        # S < n * 2**shift converts to a finite float, correctly rounded, and S / 2**shift is at least the smallest
        # weight, a normal float, so scaling by 2.0**-shift is exact: the two steps round S / 2**shift once
        sums = map(mul, map(acc.__getitem__, indices), repeat(2.0**-self.shift))
        return SparseVector(array("I", indices), array("d", map(truediv, sums, repeat(n))))


# The largest shift LabelSums takes, a smallest weight of 2**-918: weights and sums are scaled by float powers of two,
# and a sum below n * 2**970 converts to a finite float for any n below 2**54.  vectorize makes no smaller weight: one
# is at least 1 / ((n + 1) * L * log(n + 1)) for n training documents and a document of L tokens, so a smaller one
# needs n * L above 10**270.
MAX_SHIFT = 970


def _add_into(acc: dict[int, int], terms: Iterable[int], values: Iterable[int], op: Callable = add) -> None:
    """``acc[t] = op(acc.get(t, 0), v)`` for each term and value, in C: the terms must be distinct."""
    acc.update(zip(terms, map(op, map(acc.get, terms, repeat(0)), values)))


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
    except (TypeError, ValueError, OverflowError, AttributeError) as exc:
        raise error(f"malformed {kind} file: {exc}") from exc


def dumps_model(model: CentroidModel) -> str:
    """Serialize a model to canonical standard JSON (see :func:`dumps_artifact`)."""
    vocab = model.vocabulary
    fields = {
        "mode": model.mode.value,
        "policy": model.policy.value if model.policy is not None else None,
        "taxonomy": format_taxonomy(model.taxonomy),
        "vocabulary": {"n_docs": vocab.n_docs, "terms": vocab.terms, "doc_frequency": vocab.doc_frequency},
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

    Unknown formats and versions, missing or wrongly typed fields, vocabulary
    ``terms`` that are not a list, a stored ``vocabulary_digest`` that is not
    the vocabulary's own, a centroid that is not two base64 strings of n term
    indices and n weights (see :func:`_packed`), and any vocabulary
    :class:`~routecat.corpus.Vocabulary` or model :class:`CentroidModel`
    refuses (they hold the vocabulary and centroid entry rules) raise
    :class:`ModelFormatError`.  Vocabulary values are checked as JSON typed
    them, never converted.
    """
    return loads_artifact(text, "model", MODEL_FORMAT_VERSION, ModelFormatError, _model_from_payload)


_JSON_TYPE_NAMES = {dict: "an object", list: "a list", str: "a string"}


def _json_typed(value: T, kind: type, name: str) -> T:
    """``value``, which JSON must have typed as ``kind``; otherwise a ``ValueError`` that names the field ``name``."""
    if type(value) is not kind:
        raise ValueError(f"{name} must be {_JSON_TYPE_NAMES[kind]}, not {type(value).__name__}")
    return value


def _model_from_payload(payload: dict) -> CentroidModel:
    vocab_payload = _json_typed(payload["vocabulary"], dict, "vocabulary")
    # tuple() would read a string's characters or an object's keys as terms
    terms = _json_typed(vocab_payload["terms"], list, "vocabulary terms")
    vocabulary = Vocabulary(terms=terms, doc_frequency=vocab_payload["doc_frequency"], n_docs=vocab_payload["n_docs"])
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

    def vectors(name: str) -> dict[NodeId, SparseVector]:
        return {node: vector(node, value) for node, value in _json_typed(payload[name], dict, name).items()}

    policy = payload["policy"]
    return CentroidModel(
        taxonomy=parse_taxonomy(_json_typed(payload["taxonomy"], str, "taxonomy")),
        vocabulary=vocabulary,
        mode=Mode(payload["mode"]),
        policy=PolicyKind(policy) if policy is not None else None,
        centroid_of=vectors("centroids"),
        negative_centroid_of=vectors("negative_centroids") if payload["negative_centroids"] is not None else None,
        training_digest=payload["training_digest"],
    )
