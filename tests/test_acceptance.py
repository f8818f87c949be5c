"""Acceptance suite: one test per release criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines
as they happen; without ``-s`` pytest shows them for failing tests only.
"""

import json
import math
import random
import time

import reference
from conftest import SCRIPTS, import_script, random_labeled_docs, random_taxonomy, sparse, synthetic_run
from routecat.corpus import load_corpus, vectorize
from routecat.evaluation import evaluate, flat_predictions, train_and_calibrate
from routecat.policies import PolicyKind, build_training_set
from routecat.router import confidence, decode, eer_threshold
from routecat.synthetic import SyntheticSpec, generate_synthetic
from routecat.taxonomy import parse_taxonomy

CHECK_PINS = import_script(SCRIPTS, "check_pins")


def verdict(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number} [{status}] {name}" + (f": {detail}" if detail else ""))
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def test_criterion_1_policy_oracle_equivalence():
    started = time.perf_counter()
    rng = random.Random(20240901)
    mismatches = 0
    for _ in range(50):
        t = random_taxonomy(rng, max_nodes=20, max_depth=4)
        docs = random_labeled_docs(rng, t, max_docs=200)
        for node in t.nodes:
            if node == t.root:
                continue
            for policy in PolicyKind:
                ts = build_training_set(docs, t, node, policy)
                pos, neg = reference.training_sets(docs, t, node, policy)
                mismatches += (ts.positives, ts.negatives) != (pos, neg)
    elapsed = time.perf_counter() - started
    verdict(
        1,
        "policy oracle equivalence",
        mismatches == 0 and elapsed < 5.0,
        f"{mismatches} mismatches over 50 taxonomies in {elapsed:.2f}s",
    )


def test_criterion_2_confidence_normalization():
    rng = random.Random(7)
    worst_sum_err = 0.0
    invariance_failures = 0
    for _ in range(1000):
        size = rng.randint(1, 8)
        nodes = [f"n{i}" for i in range(size)]
        zero_group = rng.random() < 0.05
        scores = {n: 0.0 if zero_group else rng.random() * rng.choice([1e-3, 1.0, 1e3]) for n in nodes}
        total = math.fsum(confidence(scores.values(), scores[n]) for n in nodes)
        worst_sum_err = max(worst_sum_err, abs(total - 1.0))

        chosen = max(nodes, key=lambda n: (scores[n], -nodes.index(n)))
        factor = 10.0 ** rng.uniform(-6, 6)
        scaled = {n: s * factor for n, s in scores.items()}
        rescaled_chosen = max(nodes, key=lambda n: (scaled[n], -nodes.index(n)))
        cs_delta = abs(confidence(scaled.values(), scaled[chosen]) - confidence(scores.values(), scores[chosen]))
        invariance_failures += (rescaled_chosen != chosen) or (cs_delta > 1e-9)
    verdict(
        2,
        "confidence normalization and argmax invariance",
        worst_sum_err <= 1e-9 and invariance_failures == 0,
        f"max |sum CS - 1| = {worst_sum_err:.2e}, invariance failures = {invariance_failures}",
    )


def test_criterion_3_eer_matches_exhaustive_sweep():
    started = time.perf_counter()
    rng = random.Random(11)
    failures = 0
    sample_sets = [
        # adjacent floats: their midpoint rounds onto the smaller one
        [(0.0, True), (5e-324, False)],
        # 0.1 and 0.3 both leave a gap of 0.5: ties go to the larger threshold
        [(0.1, True), (0.3, False), (0.5, True)],
    ]
    for _ in range(200):
        n = rng.randint(2, 60)
        sample_sets.append([(rng.random() * 2.0, rng.random() < 0.6) for _ in range(n)])
    for samples in sample_sets:
        if all(ok for _, ok in samples) or not any(ok for _, ok in samples):
            continue
        failures += eer_threshold(samples) != reference.eer_threshold(samples)
    elapsed = time.perf_counter() - started
    verdict(
        3,
        "EER equals exhaustive sweep minimum",
        failures == 0 and elapsed < 1.0,
        f"{failures} failures in {elapsed:.2f}s",
    )


def test_criterion_4_boosted_accuracy_identity():
    worst = 0.0
    for seed in range(5):
        run = synthetic_run(
            SyntheticSpec(depth=3, branching=3, docs_per_leaf=30, vocab_per_topic=35,
                          noise_fraction=0.45, tokens_per_doc=13, seed=seed),
            0.25,
            0.25,
        )
        s = evaluate(run.model, run.calibration, run.split.test)
        worst = max(worst, abs(s.boosted_accuracy * s.accepted - (s.correct_total - s.false_rejections)))
    verdict(
        4,
        "boosted accuracy identity",
        worst <= 1e-9,
        f"max |boosted*accepted - (correct - FR)| = {worst:.2e}",
    )


def test_criterion_5_depth_one_equivalence():
    disagreements = deeper = checked = 0
    for seed in range(5):
        run = synthetic_run(
            SyntheticSpec(depth=1, branching=5, docs_per_leaf=20, noise_fraction=0.2, seed=seed),
            0.2,
            0.3,
        )
        t, train = run.model.taxonomy, run.split.train
        leaf_means = reference.flat_centroids(train, t, reference.vocabulary(train))
        vectors = [vectorize(doc, run.model.vocabulary) for doc in run.split.test]
        flats = flat_predictions({leaf: sparse(c) for leaf, c in leaf_means.items()}, vectors, t)
        for d, flat_leaf in zip(vectors, flats):
            steps = decode(run.model, d)
            deeper += len(steps) != 1
            disagreements += steps[-1].chosen != flat_leaf
            checked += 1
    verdict(
        5,
        "depth-1 decode equals flat argmax",
        disagreements == 0 and deeper == 0,
        f"{disagreements} disagreements and {deeper} routes of more than one step over {checked} documents, 5 seeds",
    )


def test_criterion_6_noise_free_separability():
    run = synthetic_run(
        SyntheticSpec(depth=3, branching=3, docs_per_leaf=30, noise_fraction=0.0, seed=0),
        0.2,
        0.2,
    )
    s = evaluate(run.model, run.calibration, run.split.test)
    verdict(
        6,
        "noise-free synthetic is perfectly accepted",
        s.overall_accuracy == 1.0 and s.rejected == 0,
        f"overall={s.overall_accuracy}, rejected={s.rejected}, threshold source={run.calibration.source}",
    )


def test_criterion_7_accuracy_boost_on_noisy_synthetic():
    started = time.perf_counter()
    boosts, rejection_rates = [], []
    for seed in range(10):
        run = synthetic_run(
            SyntheticSpec(depth=3, branching=3, docs_per_leaf=50, vocab_per_topic=35,
                          noise_vocab_size=150, noise_fraction=0.45, tokens_per_doc=13, seed=seed),
            0.30,
            0.30,
        )
        s = evaluate(run.model, run.calibration, run.split.test)
        boosts.append(s.accuracy_boost)
        rejection_rates.append(s.rejected / s.total)
    elapsed = time.perf_counter() - started
    mean_boost = sum(boosts) / len(boosts)
    mean_rejection = sum(rejection_rates) / len(rejection_rates)
    verdict(
        7,
        "EER rejection boosts accuracy on noisy synthetic",
        mean_boost >= 2.0 and 0.03 <= mean_rejection <= 0.30 and elapsed < 60.0,
        f"mean boost = {mean_boost:.2f}pp (min {min(boosts):.2f}), "
        f"mean rejection = {mean_rejection:.3f}, {elapsed:.1f}s for 10 seeds",
    )


def test_criterion_8_cli_byte_determinism():
    # scripts/check_pins.py is where the pinned bytes are checked; CI runs it under two hash seeds
    entry = json.loads(CHECK_PINS.PINS.read_text(encoding="utf-8"))["ci_artifacts"]["positive-only"]
    found = CHECK_PINS.entry_mismatches("ci_artifacts", "positive-only", entry)
    verdict(
        8,
        "generate+train+evaluate is byte deterministic",
        found == [],
        "; ".join(found) or "model, calibration, CSV files and classify output match their pins",
    )


def test_criterion_9_scale_sanity():
    spec = SyntheticSpec(depth=2, branching=10, docs_per_leaf=100, noise_fraction=0.3, seed=3)
    tax_text, corpus_text = generate_synthetic(spec)
    taxonomy = parse_taxonomy(tax_text)
    docs = load_corpus(corpus_text, taxonomy)
    assert len(docs) == 10_000 and len(taxonomy.leaves) == 100
    started = time.perf_counter()
    train_and_calibrate(taxonomy, docs, 0.15, 0.15, seed=3)
    elapsed = time.perf_counter() - started
    verdict(
        9,
        "10k docs, 100 leaves trains and calibrates quickly",
        elapsed < 30.0,
        f"{elapsed:.2f}s",
    )
