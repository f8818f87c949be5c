"""Positive/negative training-set construction for each node's local classifier.

All six policies are defined over the documents' most specific labels.
Each picks two label sets for a node c and then takes the documents
labeled with them.  Writing sub(c) for c's subtree ({c} | descendants(c)),
anc(c) for its strict ancestors, sib(c) for its siblings and sib_sub(c)
for the union of the siblings' subtrees, the policies are:

    exclusive            T+ = {c}       T- = every label outside {c}
    less-exclusive       T+ = {c}       T- = every label outside sub(c)
    less-inclusive       T+ = sub(c)    T- = every label outside sub(c)
    inclusive            T+ = sub(c)    T- = every label outside sub(c) | anc(c)
    siblings             T+ = sub(c)    T- = sib_sub(c)
    exclusive-siblings   T+ = {c}       T- = sib(c)

Each document set is selected in one scan of the training documents.
The training mode, which decides whether these sets are used at all, is
defined here beside the policies, so a command's flags can name both
without loading the training code.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    from routecat.corpus import Document
    from routecat.taxonomy import NodeId, Taxonomy


class Mode(str, enum.Enum):
    POSITIVE_ONLY = "positive-only"
    BINARY = "binary"


class PolicyKind(str, enum.Enum):
    EXCLUSIVE = "exclusive"
    LESS_EXCLUSIVE = "less-exclusive"
    LESS_INCLUSIVE = "less-inclusive"
    INCLUSIVE = "inclusive"
    SIBLINGS = "siblings"
    EXCLUSIVE_SIBLINGS = "exclusive-siblings"


@dataclass(frozen=True)
class NodeTrainingSet:
    positives: frozenset[str]
    negatives: frozenset[str]


def _check_node(t: Taxonomy, node: NodeId) -> None:
    if node not in t:
        raise ValueError(f"unknown node {node!r}")
    if node == t.root:
        raise ValueError("the root carries no classifier and has no training set")


def _ids_labeled(train: Sequence[Document], labels: frozenset[NodeId], inside: bool = True) -> frozenset[str]:
    """Ids of the documents whose label is in ``labels`` (with ``inside=False``: is not in it)."""
    if inside:
        return frozenset(d.doc_id for d in train if d.label in labels)
    return frozenset(d.doc_id for d in train if d.label not in labels)


def most_specific_examples(train: Sequence[Document], t: Taxonomy, node: NodeId) -> frozenset[str]:
    """Documents whose most specific label is exactly ``node``."""
    _check_node(t, node)
    return frozenset(d.doc_id for d in train if d.label == node)


def build_training_set(
    train: Sequence[Document],
    t: Taxonomy,
    node: NodeId,
    policy: PolicyKind,
) -> NodeTrainingSet:
    """Positive and negative doc_id sets for ``node`` under ``policy`` (see the module's table)."""
    _check_node(t, node)
    own = frozenset((node,))
    subtree = own | t.descendants(node)
    # (T+ labels, T- labels, whether T- takes the labels inside its set or outside it)
    if policy is PolicyKind.EXCLUSIVE:
        positive, negative, inside = own, own, False
    elif policy is PolicyKind.LESS_EXCLUSIVE:
        positive, negative, inside = own, subtree, False
    elif policy is PolicyKind.LESS_INCLUSIVE:
        positive, negative, inside = subtree, subtree, False
    elif policy is PolicyKind.INCLUSIVE:
        positive, negative, inside = subtree, subtree | t.ancestors(node), False
    elif policy is PolicyKind.SIBLINGS:
        # the parent's strict descendants are c's subtree plus its siblings' subtrees
        positive, negative, inside = subtree, t.descendants(t.parent(node)) - subtree, True
    elif policy is PolicyKind.EXCLUSIVE_SIBLINGS:
        positive, negative, inside = own, t.siblings(node), True
    else:  # pragma: no cover - enum is closed
        raise ValueError(f"unhandled policy {policy!r}")
    return NodeTrainingSet(
        positives=_ids_labeled(train, positive), negatives=_ids_labeled(train, negative, inside)
    )


def positives_for_centroid(train: Sequence[Document], t: Taxonomy, node: NodeId) -> frozenset[str]:
    """Documents counted as members of ``node`` when averaging its centroid.

    Membership is read inclusively: a document belongs to its own label and
    to every ancestor of that label, so internal nodes average over their
    whole subtree.  Training sums these sets bottom-up from per-label sums
    instead; this is the per-node reference it is tested against.
    """
    _check_node(t, node)
    return _ids_labeled(train, frozenset((node,)) | t.descendants(node))
