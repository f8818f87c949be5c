"""Command-line pipeline: generate, train, classify, evaluate.

All randomness flows from explicit ``--seed`` flags, artifacts are plain
JSON/CSV files, and repeated runs with identical inputs produce
byte-identical outputs.  Diagnostics go to stderr; data goes to files and
stdout.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path
from typing import Callable, TypeVar

from routecat import evaluation
from routecat.centroid import (
    CentroidModel,
    Mode,
    ModelFormatError,
    documents_digest,
    dumps_model,
    loads_model,
    vocabulary_digest,
)
from routecat.corpus import CorpusError, Document, load_corpus, split_corpus, vectorize
from routecat.policies import PolicyKind
from routecat.router import (
    ACCEPT_ALL,
    Calibration,
    CalibrationError,
    check_pairing,
    classify_with_reject,
    dumps_calibration,
    loads_calibration,
    with_threshold,
)
from routecat.taxonomy import TaxonomyError, parse_taxonomy, tsv_lines


T = TypeVar("T")


class CliError(Exception):
    """User-facing command failure; the message is printed to stderr."""


def _read_text(path: Path, what: str) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read {what} file {path}: {exc}") from exc


def _write_text(path: Path, content: str) -> None:
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(content, encoding="utf-8", newline="\n")
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}") from exc


def _fraction(value: str) -> float:
    try:
        f = float(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a number: {value!r}") from exc
    if not 0.0 <= f < 1.0:
        raise argparse.ArgumentTypeError(f"fraction must lie in [0, 1): {value}")
    return f


def _threshold(value: str) -> float:
    try:
        f = float(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a number: {value!r}") from exc
    if math.isnan(f):
        raise argparse.ArgumentTypeError(f"threshold must not be NaN: {value}")
    return f


def _positive_int(value: str) -> int:
    try:
        n = int(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not an integer: {value!r}") from exc
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1: {value}")
    return n


def _load(path: Path, what: str, parse: Callable[[str], T]) -> T:
    """Parse a file, prefixing any format error with the file's path."""
    try:
        return parse(_read_text(path, what))
    except (TaxonomyError, CorpusError, ModelFormatError, CalibrationError) as exc:
        raise CliError(f"{path}: {exc}") from exc


def _load_model_and_calibration(args: argparse.Namespace) -> tuple[CentroidModel, Calibration]:
    """Load ``--model`` and its paired ``--calibration``, then apply ``--threshold``/``--accept-all`` if given."""
    model = _load(Path(args.model), "model", loads_model)

    def paired(text: str) -> Calibration:
        calibration, digest = loads_calibration(text)
        check_pairing(model, calibration, digest)
        return calibration

    calibration = _load(Path(args.calibration), "calibration", paired)
    return model, calibration if args.threshold is None else with_threshold(calibration, args.threshold)


def _add_threshold_flags(p: argparse.ArgumentParser) -> None:
    """``--threshold`` and its short spelling ``--accept-all`` (``--threshold=-inf``); at most one of them."""
    group = p.add_mutually_exclusive_group()
    group.add_argument("--threshold", type=_threshold, default=None, help="use this threshold, not the calibrated one")
    group.add_argument(
        "--accept-all", dest="threshold", action="store_const", const=ACCEPT_ALL,
        help="same as --threshold=-inf: accept everything",
    )


def cmd_generate(args: argparse.Namespace) -> int:
    spec = evaluation.SyntheticSpec(
        depth=args.depth,
        branching=args.branching,
        docs_per_leaf=args.docs_per_leaf,
        vocab_per_topic=args.vocab_per_topic,
        noise_vocab_size=args.noise_vocab,
        noise_fraction=args.noise,
        tokens_per_doc=args.tokens_per_doc,
        seed=args.seed,
    )
    taxonomy_text, corpus_text = evaluation.generate_synthetic(spec)
    out = Path(args.out_dir)
    _write_text(out / "taxonomy.tsv", taxonomy_text)
    _write_text(out / "corpus.tsv", corpus_text)
    n_docs = corpus_text.count("\n")
    print(f"wrote {out / 'taxonomy.tsv'} and {out / 'corpus.tsv'} ({n_docs} documents)", file=sys.stderr)
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    taxonomy = _load(Path(args.taxonomy), "taxonomy", parse_taxonomy)
    docs = _load(Path(args.corpus), "corpus", lambda text: load_corpus(text, taxonomy))
    run = evaluation.train_and_calibrate(
        taxonomy,
        docs,
        args.val_fraction,
        args.test_fraction,
        args.seed,
        mode=Mode(args.mode),
        policy=PolicyKind(args.policy) if args.policy else None,
        threshold=args.threshold,
    )
    calibration, out = run.calibration, Path(args.out_dir)
    _write_text(out / "model.json", dumps_model(run.model))
    _write_text(
        out / "calibration.json",
        dumps_calibration(calibration, vocabulary_digest(run.model.vocabulary)),
    )
    weights = " ".join(f"L{d}={w:.4f}" for d, w in sorted(calibration.level_weights.items()))
    print(
        f"trained on {len(run.split.train)} docs, calibrated on {len(run.split.validation)}: "
        f"{weights} threshold={calibration.threshold:.6f} gap={calibration.eer_gap:.6f} "
        f"source={calibration.source}",
        file=sys.stderr,
    )
    return 0


def cmd_classify(args: argparse.Namespace) -> int:
    model, calibration = _load_model_and_calibration(args)
    text = _read_text(Path(args.input), "input")
    for lineno, _, parts in tsv_lines(text):
        if len(parts) not in (2, 3):
            raise CliError(f"{args.input}: line {lineno}: expected doc_id<TAB>[label<TAB>]text")
        doc_id, body = parts[0], parts[-1]
        vec = vectorize(Document(doc_id=doc_id, label="", text=body), model.vocabulary)
        decision = classify_with_reject(model, calibration, vec)
        verdict = "ACCEPT" if decision.accepted else "REJECT"
        print(f"{doc_id}\t{decision.leaf}\t{decision.reliability:.6f}\t{verdict}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    model, calibration = _load_model_and_calibration(args)
    docs = _load(Path(args.corpus), "corpus", lambda text: load_corpus(text, model.taxonomy))
    split = split_corpus(docs, args.val_fraction, args.test_fraction, args.seed)
    if documents_digest(split.train) != model.training_digest:
        raise CliError(
            f"{args.corpus}: the model was not trained on this split's training part; "
            "give evaluate the corpus, --val-fraction, --test-fraction and --seed that train was given"
        )
    summary_rows, comparison_rows = evaluation.report_rows(args.problem, model, calibration, split)
    out = Path(args.out_dir)
    _write_text(out / "summary.csv", evaluation.summary_csv(summary_rows))
    _write_text(out / "comparison.csv", evaluation.comparison_csv(comparison_rows))
    print(evaluation.render_report(summary_rows, comparison_rows), end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="routecat",
        description="Hierarchical text categorization with route-confidence accept/reject decisions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a seeded synthetic taxonomy and corpus")
    p.add_argument("--depth", type=_positive_int, default=2)
    p.add_argument("--branching", type=_positive_int, default=3)
    p.add_argument("--docs-per-leaf", type=_positive_int, default=40)
    p.add_argument("--vocab-per-topic", type=_positive_int, default=30)
    p.add_argument("--noise-vocab", type=_positive_int, default=150)
    p.add_argument("--tokens-per-doc", type=_positive_int, default=40)
    p.add_argument("--noise", type=_fraction, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", help="train centroids and calibrate the acceptance threshold")
    p.add_argument("--taxonomy", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--val-fraction", type=_fraction, default=0.2)
    p.add_argument("--test-fraction", type=_fraction, default=0.2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", choices=[m.value for m in Mode], default=Mode.POSITIVE_ONLY.value)
    p.add_argument("--policy", choices=[k.value for k in PolicyKind], default=None)
    _add_threshold_flags(p)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("classify", help="label documents from a file, one decision per line")
    p.add_argument("--model", required=True)
    p.add_argument("--calibration", required=True)
    p.add_argument("--input", required=True, help="doc_id<TAB>[label<TAB>]text lines")
    _add_threshold_flags(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("evaluate", help="score the held-out test split and write report CSVs")
    p.add_argument("--model", required=True)
    p.add_argument("--calibration", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--val-fraction", type=_fraction, default=0.2)
    p.add_argument("--test-fraction", type=_fraction, default=0.2)
    p.add_argument("--seed", type=int, default=0)
    _add_threshold_flags(p)
    p.add_argument("--problem", default="synthetic", help="problem name for report rows")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_evaluate)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe must fail here, not in the flush at exit
        return code
    except (CliError, TaxonomyError, CorpusError, ModelFormatError, CalibrationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader of stdout is gone (``routecat classify ... | head``); send what is left to devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
