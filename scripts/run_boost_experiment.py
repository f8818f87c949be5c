#!/usr/bin/env python3
"""Seeded rejection-boost experiment on synthetic corpora.

Generates a noisy hierarchical corpus per seed, trains the per-node
centroid router, calibrates level weights and the EER threshold on the
validation split, and reports how much accuracy the reject option buys on
the test split, next to the flat baseline.

Example:
    python scripts/run_boost_experiment.py --depth 3 --branching 3 \
        --docs-per-leaf 50 --noise 0.45 --tokens-per-doc 13 --seeds 10
"""

from __future__ import annotations

import argparse

from routecat.corpus import load_corpus
from routecat.evaluation import (
    SyntheticSpec,
    generate_synthetic,
    render_report,
    report_rows,
    train_and_calibrate,
)
from routecat.taxonomy import parse_taxonomy


def run_one(spec: SyntheticSpec, val_fraction: float, test_fraction: float):
    taxonomy_text, corpus_text = generate_synthetic(spec)
    taxonomy = parse_taxonomy(taxonomy_text)
    docs = load_corpus(corpus_text, taxonomy)
    run = train_and_calibrate(taxonomy, docs, val_fraction, test_fraction, spec.seed)
    summary_rows, comparison_rows = report_rows(f"seed{spec.seed}", run.model, run.calibration, run.split)
    return summary_rows[0], comparison_rows[0], run.calibration


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--depth", type=int, default=3)
    parser.add_argument("--branching", type=int, default=3)
    parser.add_argument("--docs-per-leaf", type=int, default=50)
    parser.add_argument("--vocab-per-topic", type=int, default=35)
    parser.add_argument("--noise-vocab", type=int, default=150)
    parser.add_argument("--tokens-per-doc", type=int, default=13)
    parser.add_argument("--noise", type=float, default=0.45)
    parser.add_argument("--val-fraction", type=float, default=0.30)
    parser.add_argument("--test-fraction", type=float, default=0.30)
    parser.add_argument("--seeds", type=int, default=10, help="run seeds 0..N-1")
    args = parser.parse_args()

    print(f"{'seed':>4} {'overall':>9} {'boosted':>9} {'boost(pp)':>10} {'rejected':>9} {'EER gap':>9}")
    summary_rows, comparison_rows = [], []
    for seed in range(args.seeds):
        spec = SyntheticSpec(
            depth=args.depth,
            branching=args.branching,
            docs_per_leaf=args.docs_per_leaf,
            vocab_per_topic=args.vocab_per_topic,
            noise_vocab_size=args.noise_vocab,
            noise_fraction=args.noise,
            tokens_per_doc=args.tokens_per_doc,
            seed=seed,
        )
        summary_row, comparison_row, calibration = run_one(spec, args.val_fraction, args.test_fraction)
        summary_rows.append(summary_row)
        comparison_rows.append(comparison_row)
        summary = summary_row.summary
        print(
            f"{seed:>4} {summary.overall_accuracy:>9.4f} {summary.boosted_accuracy:>9.4f} "
            f"{summary.accuracy_boost:>10.2f} {summary.rejected / summary.total:>9.3f} {calibration.eer_gap:>9.4f}"
        )

    n = args.seeds
    boost = sum(row.summary.accuracy_boost for row in summary_rows) / n
    rejection = sum(row.summary.rejected / row.summary.total for row in summary_rows) / n
    flat = sum(row.flat for row in comparison_rows) / n
    lcn = sum(row.lcn for row in comparison_rows) / n
    proposed = sum(row.proposed for row in comparison_rows) / n
    print(
        f"\nmean over {n} seeds: boost={boost:.2f}pp rejection={rejection:.3f} "
        f"flat={flat:.1f}% lcn={lcn:.1f}% proposed={proposed:.1f}%"
    )

    print()
    print(render_report(summary_rows[-1:], comparison_rows[-1:]), end="")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
