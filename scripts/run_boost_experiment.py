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

from routecat.cli import add_corpus_flags, corpus_spec, fraction, positive_int, run
from routecat.corpus import load_corpus
from routecat.evaluation import render_report, report_rows, train_and_calibrate
from routecat.synthetic import SyntheticSpec, generate_synthetic
from routecat.taxonomy import parse_taxonomy


def run_one(spec: SyntheticSpec, val_fraction: float, test_fraction: float):
    taxonomy_text, corpus_text = generate_synthetic(spec)
    taxonomy = parse_taxonomy(taxonomy_text)
    docs = load_corpus(corpus_text, taxonomy)
    trained = train_and_calibrate(taxonomy, docs, val_fraction, test_fraction, spec.seed)
    summary_rows, comparison_rows = report_rows(f"seed{spec.seed}", trained.model, trained.calibration, trained.split)
    return summary_rows[0], comparison_rows[0], trained.calibration


def experiment(args: argparse.Namespace) -> int:
    print(f"{'seed':>4} {'overall':>9} {'boosted':>9} {'boost(pp)':>10} {'rejected':>9} {'EER gap':>9}")
    summary_rows, comparison_rows = [], []
    for seed in range(args.seeds):
        summary_row, comparison_row, calibration = run_one(corpus_spec(args, seed), args.val_fraction, args.test_fraction)
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


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    add_corpus_flags(parser)
    parser.set_defaults(depth=3, docs_per_leaf=50, vocab_per_topic=35, tokens_per_doc=13, noise=0.45)
    parser.add_argument("--val-fraction", type=fraction, default=0.30)
    parser.add_argument("--test-fraction", type=fraction, default=0.30)
    parser.add_argument("--seeds", type=positive_int, default=10, help="run seeds 0..N-1")
    return run(experiment, parser.parse_args())


if __name__ == "__main__":
    raise SystemExit(main())
