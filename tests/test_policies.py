import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_labeled_docs, random_taxonomy
from routecat.policies import (
    PolicyKind,
    build_training_set,
    most_specific_examples,
    positives_for_centroid,
)


def test_most_specific_examples(t0, t0_docs):
    assert most_specific_examples(t0_docs, t0, "A1") == {"d1", "d2"}
    assert most_specific_examples(t0_docs, t0, "A") == frozenset()
    assert most_specific_examples(t0_docs, t0, "B1") == {"d4"}


def test_node_validation(t0, t0_docs):
    with pytest.raises(ValueError, match="unknown node"):
        most_specific_examples(t0_docs, t0, "ZZ")
    with pytest.raises(ValueError, match="root"):
        build_training_set(t0_docs, t0, "ROOT", PolicyKind.EXCLUSIVE)


def test_siblings_policy(t0, t0_docs):
    ts = build_training_set(t0_docs, t0, "A1", PolicyKind.SIBLINGS)
    assert ts.positives == {"d1", "d2"}
    assert ts.negatives == {"d3"}


def test_less_inclusive_policy(t0, t0_docs):
    ts = build_training_set(t0_docs, t0, "A", PolicyKind.LESS_INCLUSIVE)
    assert ts.positives == {"d1", "d2", "d3"}
    assert ts.negatives == {"d4"}


def test_exclusive_policy(t0, t0_docs):
    ts = build_training_set(t0_docs, t0, "A1", PolicyKind.EXCLUSIVE)
    assert ts.positives == {"d1", "d2"}
    assert ts.negatives == {"d3", "d4"}


def test_positives_for_centroid(t0, t0_docs):
    assert positives_for_centroid(t0_docs, t0, "A") == {"d1", "d2", "d3"}
    assert positives_for_centroid(t0_docs, t0, "A1") == {"d1", "d2"}
    assert positives_for_centroid(t0_docs, t0, "B") == {"d4"}


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_policy_set_invariants(seed):
    rng = random.Random(seed)
    t = random_taxonomy(rng)
    docs = random_labeled_docs(rng, t, max_docs=60)
    everything = {d.doc_id for d in docs}
    for node in t.nodes:
        if node == t.root:
            continue
        by_policy = {p: build_training_set(docs, t, node, p) for p in PolicyKind}
        for ts in by_policy.values():
            assert not ts.positives & ts.negatives
            assert ts.positives | ts.negatives <= everything
        # exclusive and less-inclusive split the whole corpus
        for p in (PolicyKind.EXCLUSIVE, PolicyKind.LESS_INCLUSIVE):
            ts = by_policy[p]
            assert ts.positives | ts.negatives == everything
        # widening the excluded zone can only shrink the negatives
        assert by_policy[PolicyKind.INCLUSIVE].negatives <= by_policy[PolicyKind.LESS_EXCLUSIVE].negatives
        assert by_policy[PolicyKind.LESS_EXCLUSIVE].negatives <= by_policy[PolicyKind.EXCLUSIVE].negatives
